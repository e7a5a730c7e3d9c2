"""Declarative models of the wire protocol, checked by ``repro analyze``.

The networked runtime's behaviour is documented in three places today:
prose in ``docs/``, the frame codec (:mod:`repro.net.protocol`), and the
implementation itself.  This module adds a fourth that is *checkable*:

* **transition tables** (:data:`LIFECYCLE`, :data:`MIGRATION`,
  :data:`CREDIT`) — small declarative state machines naming, for every
  protocol step, which role sends or receives which frame.  Their union
  induces :data:`FLOWS`, the complete alphabet of legal
  ``(role, direction, frame)`` triples; the GA613 conformance pass maps
  every frame site in ``coordinator.py``/``worker.py``/``channels.py``
  onto it in both directions;
* **executable bounded models** (:class:`LifecycleModel`,
  :class:`CreditFlowModel`, :class:`MigrationModel`) — explicit-state
  machines small enough for the checker in
  :mod:`repro.analysis.protocol` to explore exhaustively, proving for
  every bounded configuration in :func:`bounded_models` that the
  protocol cannot deadlock (GA610), conserves credit and items (GA611),
  and always delivers EOS / completes the migration (GA612).

The models deliberately support **fault injection** (``double_grant``,
``no_replenish``, ``skip_drain``, ...): a knob turns a verified model
into a broken one whose counterexample exercises the checker — that is
what the GA61x fixture corpus and the checker's own tests are built on.

Every model state is an immutable, hashable dataclass; successor lists
are built in a fixed order, so exploration (and therefore every
diagnostic and counterexample trace) is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import FrozenSet, Hashable, List, Optional, Tuple

__all__ = [
    "CREDIT",
    "FLOWS",
    "LIFECYCLE",
    "MIGRATION",
    "CreditFlowModel",
    "LifecycleModel",
    "MigrationModel",
    "ProtocolModel",
    "Transition",
    "bounded_models",
]


# ---------------------------------------------------------------------------
# Declarative transition tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Transition:
    """One step of a protocol machine: who moves which frame, and when."""

    machine: str
    source: str
    target: str
    #: ``coordinator`` | ``worker`` | ``sender`` | ``receiver``.
    role: str
    #: ``send`` | ``recv``.
    direction: str
    #: Frame type name (:class:`repro.net.protocol.FrameType`).
    frame: str
    label: str


def _t(
    machine: str, source: str, target: str, label: str,
    *moves: Tuple[str, str, str],
) -> List[Transition]:
    return [
        Transition(machine, source, target, role, direction, frame, label)
        for role, direction, frame in moves
    ]


#: Coordinator/worker control-session lifecycle: HELLO handshake, PING
#: probe, deployment (REGISTER, CHANNEL), the SYNC barrier, START, the
#: RESULT collection, and SHUTDOWN/ERROR teardown — the state names are
#: the per-worker session states of :class:`LifecycleModel`.
LIFECYCLE: Tuple[Transition, ...] = tuple(
    _t("lifecycle", "connected", "greeted", "hello",
       ("coordinator", "send", "HELLO"), ("worker", "recv", "HELLO"),
       ("worker", "send", "HELLO"), ("coordinator", "recv", "HELLO"))
    + _t("lifecycle", "greeted", "greeted", "ping",
         ("coordinator", "send", "PING"), ("worker", "recv", "PING"),
         ("worker", "send", "PONG"), ("coordinator", "recv", "PONG"))
    + _t("lifecycle", "greeted", "registered", "register",
         ("coordinator", "send", "REGISTER"), ("worker", "recv", "REGISTER"))
    + _t("lifecycle", "registered", "channeled", "channel",
         ("coordinator", "send", "CHANNEL"), ("worker", "recv", "CHANNEL"))
    + _t("lifecycle", "channeled", "synced", "sync",
         ("coordinator", "send", "SYNC"), ("worker", "recv", "SYNC"),
         ("worker", "send", "READY"), ("coordinator", "recv", "READY"))
    + _t("lifecycle", "synced", "started", "start",
         ("coordinator", "send", "START"), ("worker", "recv", "START"),
         ("worker", "send", "READY"), ("coordinator", "recv", "READY"))
    + _t("lifecycle", "started", "resulted", "result",
         ("worker", "send", "RESULT"), ("coordinator", "recv", "RESULT"))
    + _t("lifecycle", "resulted", "shut", "shutdown",
         ("coordinator", "send", "SHUTDOWN"), ("worker", "recv", "SHUTDOWN"))
    + _t("lifecycle", "*", "shut", "error",
         ("worker", "send", "ERROR"), ("coordinator", "recv", "ERROR"))
)

#: Four-phase live migration (detach → export → adopt → resume, then
#: the run's collect); every control step rides a MIGRATE frame, the
#: adopting worker gets the stage's REGISTER and CHANNEL frames as at
#: deployment, the state itself moves in the HANDOFF, and a stage that
#: finished before its fence unwinds with a MIGRATE phase="finished"
#: reply instead of a HANDOFF.  The senders' DETACH markers ride the
#: data channels (:data:`CREDIT`).
MIGRATION: Tuple[Transition, ...] = tuple(
    _t("migration", "running", "detached", "detach",
       ("coordinator", "send", "MIGRATE"), ("worker", "recv", "MIGRATE"),
       ("worker", "send", "MIGRATE"), ("coordinator", "recv", "MIGRATE"))
    + _t("migration", "detached", "handed-off", "export",
         ("coordinator", "send", "MIGRATE"), ("worker", "recv", "MIGRATE"),
         ("worker", "send", "HANDOFF"), ("coordinator", "recv", "HANDOFF"))
    + _t("migration", "detached", "running", "export-finished",
         ("worker", "send", "MIGRATE"), ("coordinator", "recv", "MIGRATE"))
    + _t("migration", "handed-off", "adopted", "adopt",
         ("coordinator", "send", "REGISTER"), ("worker", "recv", "REGISTER"),
         ("coordinator", "send", "CHANNEL"), ("worker", "recv", "CHANNEL"),
         ("coordinator", "send", "MIGRATE"), ("worker", "recv", "MIGRATE"),
         ("worker", "send", "MIGRATE"), ("coordinator", "recv", "MIGRATE"))
    + _t("migration", "adopted", "running", "resume",
         ("coordinator", "send", "MIGRATE"), ("worker", "recv", "MIGRATE"),
         ("worker", "send", "MIGRATE"), ("coordinator", "recv", "MIGRATE"))
)

#: Credit-based flow control on one data channel: the sender's ATTACH,
#: the receiver's initial grant and batched replenishment, per-item DATA
#: accounting, the credit-free EOS sentinel, the credit-free DETACH
#: marker of a sender leaving mid-stream, and the upstream EXCEPTION
#: path.  The receiving *worker* reads the data-plane socket on the
#: receiver's behalf (``_serve_peer`` and its frame callback, run from
#: the transport's ``data_received``), so ATTACH/DATA/EOS appear in the
#: worker's receive alphabet too.
CREDIT: Tuple[Transition, ...] = tuple(
    _t("credit", "detached", "attached", "attach",
       ("sender", "send", "ATTACH"), ("worker", "recv", "ATTACH"),
       ("receiver", "send", "CREDIT"), ("sender", "recv", "CREDIT"))
    + _t("credit", "attached", "attached", "data",
         ("sender", "send", "DATA"), ("worker", "recv", "DATA"))
    + _t("credit", "attached", "attached", "replenish",
         ("receiver", "send", "CREDIT"), ("sender", "recv", "CREDIT"))
    + _t("credit", "attached", "attached", "exception",
         ("receiver", "send", "EXCEPTION"), ("sender", "recv", "EXCEPTION"))
    + _t("credit", "attached", "closed", "eos",
         ("sender", "send", "EOS"), ("worker", "recv", "EOS"))
    + _t("credit", "attached", "detached", "detach",
         ("sender", "send", "DETACH"), ("worker", "recv", "DETACH"))
)

#: The full legal frame-traffic alphabet: every (role, direction, frame)
#: triple any conforming implementation may exhibit.
FLOWS: FrozenSet[Tuple[str, str, str]] = frozenset(
    (t.role, t.direction, t.frame)
    for t in LIFECYCLE + MIGRATION + CREDIT
)


# ---------------------------------------------------------------------------
# Executable bounded models
# ---------------------------------------------------------------------------

class ProtocolModel:
    """Interface the explicit-state checker explores.

    States must be hashable and successor lists deterministic: the
    checker's BFS order — and with it every counterexample trace —
    must not vary between runs.
    """

    name: str = ""

    def initial(self) -> Hashable:
        raise NotImplementedError

    def successors(self, state: Hashable) -> List[Tuple[str, Hashable]]:
        """``(action label, next state)`` pairs, in a fixed order."""
        raise NotImplementedError

    def is_final(self, state: Hashable) -> bool:
        """Whether a terminal ``state`` is a legitimate end of the run."""
        raise NotImplementedError

    def invariant(self, state: Hashable) -> Optional[str]:
        """A safety-violation message for ``state``, or ``None``."""
        return None

    def goal(self, state: Hashable) -> Optional[str]:
        """A liveness-failure message for a *final* ``state``, or ``None``."""
        return None


@dataclass(frozen=True)
class _CreditState:
    attached: bool
    credits: int
    wire_data: Tuple[str, ...]
    inbox: int
    pending: int
    wire_credit: Tuple[int, ...]
    remaining: int
    eos_sent: bool
    eos_delivered: bool


class CreditFlowModel(ProtocolModel):
    """One channel shipping ``items`` items under a ``window``-item grant.

    Mirrors :class:`repro.net.channels.InChannel`/``OutChannel``: the
    initial grant on attach, per-item credit charging, batch
    replenishment at ``max(1, window // 2)`` consumed items, and the
    credit-free EOS.  Fault knobs turn the model into the broken
    variants the checker's tests and the fixture corpus exercise:

    * ``double_grant`` — the receiver grants the initial window twice;
    * ``leak_credit`` — each replenishment drops one consumed item;
    * ``no_replenish`` — the receiver never replenishes at all;
    * ``drop_eos`` — the receiver discards the EOS sentinel.
    """

    def __init__(
        self,
        window: int,
        items: int,
        *,
        double_grant: bool = False,
        leak_credit: bool = False,
        no_replenish: bool = False,
        drop_eos: bool = False,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if items < 0:
            raise ValueError(f"items must be >= 0, got {items}")
        self.window = window
        self.items = items
        self.batch = max(1, window // 2)
        self.double_grant = double_grant
        self.leak_credit = leak_credit
        self.no_replenish = no_replenish
        self.drop_eos = drop_eos
        knobs = [
            k for k, on in (
                ("double_grant", double_grant), ("leak_credit", leak_credit),
                ("no_replenish", no_replenish), ("drop_eos", drop_eos),
            ) if on
        ]
        suffix = f" [{'+'.join(knobs)}]" if knobs else ""
        self.name = f"credit-flow(window={window}, items={items}){suffix}"

    def initial(self) -> Hashable:
        return _CreditState(
            attached=False, credits=0, wire_data=(), inbox=0, pending=0,
            wire_credit=(), remaining=self.items,
            eos_sent=False, eos_delivered=False,
        )

    def successors(self, state: Hashable) -> List[Tuple[str, Hashable]]:
        assert isinstance(state, _CreditState)
        out: List[Tuple[str, Hashable]] = []
        if not state.attached:
            grant: Tuple[int, ...] = (self.window,)
            if self.double_grant:
                grant = (self.window, self.window)
            out.append(("attach", replace(
                state, attached=True, wire_credit=state.wire_credit + grant,
            )))
            return out
        if state.remaining > 0 and state.credits >= 1:
            out.append(("send-data", replace(
                state, credits=state.credits - 1,
                wire_data=state.wire_data + ("D",),
                remaining=state.remaining - 1,
            )))
        if state.remaining == 0 and not state.eos_sent:
            out.append(("send-eos", replace(
                state, eos_sent=True, wire_data=state.wire_data + ("E",),
            )))
        if state.wire_data:
            head, rest = state.wire_data[0], state.wire_data[1:]
            if head == "D":
                out.append(("deliver-data", replace(
                    state, wire_data=rest, inbox=state.inbox + 1,
                )))
            else:
                out.append(("deliver-eos", replace(
                    state, wire_data=rest,
                    eos_delivered=state.eos_delivered or not self.drop_eos,
                )))
        if state.inbox > 0:
            out.append(("consume", replace(
                state, inbox=state.inbox - 1, pending=state.pending + 1,
            )))
        if state.pending >= self.batch and not self.no_replenish:
            granted = state.pending - (1 if self.leak_credit else 0)
            out.append(("replenish", replace(
                state, pending=0,
                wire_credit=state.wire_credit + (granted,),
            )))
        if state.wire_credit:
            out.append(("credit-arrives", replace(
                state, credits=state.credits + state.wire_credit[0],
                wire_credit=state.wire_credit[1:],
            )))
        return out

    def is_final(self, state: Hashable) -> bool:
        assert isinstance(state, _CreditState)
        return (
            state.remaining == 0 and state.eos_sent
            and not state.wire_data and state.inbox == 0
            and not state.wire_credit
        )

    def invariant(self, state: Hashable) -> Optional[str]:
        assert isinstance(state, _CreditState)
        if not state.attached:
            return None
        in_flight = sum(1 for f in state.wire_data if f == "D")
        total = (
            state.credits + in_flight + state.inbox + state.pending
            + sum(state.wire_credit)
        )
        if total != self.window:
            return (
                f"credit conservation broken: credits({state.credits}) + "
                f"in-flight({in_flight}) + inbox({state.inbox}) + "
                f"pending({state.pending}) + "
                f"granted-in-flight({sum(state.wire_credit)}) = {total}, "
                f"expected window = {self.window}"
            )
        return None

    def goal(self, state: Hashable) -> Optional[str]:
        assert isinstance(state, _CreditState)
        if not state.eos_delivered:
            return "the run completed but EOS was never delivered"
        return None


@dataclass(frozen=True)
class _MigState:
    phase: str
    in_flight: int
    marker_sent: bool
    marker_seen: bool
    old_inbox: int
    old_done: int
    exported: bool
    state_moved: bool
    post_remaining: int
    new_inbox: int
    new_done: int
    eos_delivered: bool
    lost: int


class MigrationModel(ProtocolModel):
    """One stage live-migrating while ``pre`` items are in flight.

    Follows the coordinator's phases (detach, export, adopt, resume,
    then collect): the sender writes a DETACH marker behind its
    in-flight items, which reach the source instance before it; the
    export fences once the marker has arrived and the queued items are
    processed, and hands the state off; the target adopts; the sender
    dials it and ships ``post`` more items plus EOS.  Fault knobs:

    * ``skip_drain`` — export fences before the marker arrived,
      stranding the items still in flight (conservation violation);
    * ``no_resume`` — the coordinator never resumes the senders.
    """

    def __init__(
        self, pre: int, post: int,
        *, skip_drain: bool = False, no_resume: bool = False,
    ) -> None:
        if pre < 0 or post < 0:
            raise ValueError("item counts must be >= 0")
        self.pre = pre
        self.post = post
        self.skip_drain = skip_drain
        self.no_resume = no_resume
        knobs = [
            k for k, on in (
                ("skip_drain", skip_drain), ("no_resume", no_resume),
            ) if on
        ]
        suffix = f" [{'+'.join(knobs)}]" if knobs else ""
        self.name = f"migration(pre={pre}, post={post}){suffix}"

    def initial(self) -> Hashable:
        return _MigState(
            phase="idle", in_flight=self.pre, marker_sent=False, marker_seen=False,
            old_inbox=0, old_done=0, exported=False, state_moved=False,
            post_remaining=self.post, new_inbox=0, new_done=0,
            eos_delivered=False, lost=0,
        )

    def successors(self, state: Hashable) -> List[Tuple[str, Hashable]]:
        assert isinstance(state, _MigState)
        out: List[Tuple[str, Hashable]] = []
        if state.in_flight > 0:
            if state.exported:
                out.append(("deliver-after-fence", replace(
                    state, in_flight=state.in_flight - 1,
                    lost=state.lost + 1,
                )))
            else:
                out.append(("deliver-old", replace(
                    state, in_flight=state.in_flight - 1,
                    old_inbox=state.old_inbox + 1,
                )))
        elif state.marker_sent and not state.marker_seen:
            # The marker travels behind every item sent before it.
            out.append(("deliver-detach", replace(state, marker_seen=True)))
        if state.old_inbox > 0 and not state.exported:
            out.append(("process-old", replace(
                state, old_inbox=state.old_inbox - 1,
                old_done=state.old_done + 1,
            )))
        if state.phase == "idle":
            out.append(("migrate-detach", replace(
                state, phase="detached", marker_sent=True,
            )))
        elif state.phase == "detached":
            # The fence waits for the marker, then passes once the items
            # queued ahead of it are processed.
            if (state.marker_seen or self.skip_drain) and state.old_inbox == 0:
                out.append(("export-handoff", replace(
                    state, phase="export", exported=True,
                )))
        elif state.phase == "export":
            out.append(("adopt", replace(
                state, phase="adopt", state_moved=True,
            )))
        elif state.phase == "adopt":
            if not self.no_resume:
                out.append(("resume", replace(state, phase="resume")))
        elif state.phase == "resume":
            if state.post_remaining > 0:
                out.append(("send-post", replace(
                    state, post_remaining=state.post_remaining - 1,
                    new_inbox=state.new_inbox + 1,
                )))
            else:
                out.append(("send-eos", replace(
                    state, phase="collect", eos_delivered=True,
                )))
        elif state.phase == "collect":
            if state.new_inbox == 0:
                out.append(("collect-done", replace(state, phase="done")))
        if state.state_moved and state.new_inbox > 0:
            out.append(("process-new", replace(
                state, new_inbox=state.new_inbox - 1,
                new_done=state.new_done + 1,
            )))
        return out

    def is_final(self, state: Hashable) -> bool:
        assert isinstance(state, _MigState)
        return state.phase == "done"

    def invariant(self, state: Hashable) -> Optional[str]:
        assert isinstance(state, _MigState)
        if state.lost:
            return (
                f"{state.lost} item(s) crossed the export fence after the "
                "handoff (delivered to a fenced instance: lost)"
            )
        return None

    def goal(self, state: Hashable) -> Optional[str]:
        assert isinstance(state, _MigState)
        done = state.old_done + state.new_done
        total = self.pre + self.post
        if done != total:
            return (
                f"migration completed with {done}/{total} items processed"
            )
        if not state.eos_delivered:
            return "migration completed but EOS was never delivered"
        return None


_WORKER_STATES = (
    "connected", "greeted", "registered", "channeled",
    "synced", "started", "resulted", "shut",
)


@dataclass(frozen=True)
class _LifeState:
    phase: str
    workers: Tuple[str, ...]


class LifecycleModel(ProtocolModel):
    """``n`` workers driven through the control-session lifecycle.

    The coordinator advances phase by phase (hello, register, channel,
    sync, start, collect, shutdown), moving every worker through the
    session states of the :data:`LIFECYCLE` table; the SYNC barrier is
    the safety property: no worker may START before *every* worker
    acknowledged SYNC.  Fault knob ``barrier_skip`` lets the coordinator
    advance past the barrier after a single acknowledgement.
    """

    #: phase -> (worker source state, worker target state)
    _PHASES = (
        ("hello", "connected", "greeted"),
        ("register", "greeted", "registered"),
        ("channel", "registered", "channeled"),
        ("sync", "channeled", "synced"),
        ("start", "synced", "started"),
        ("collect", "started", "resulted"),
        ("shutdown", "resulted", "shut"),
    )

    def __init__(self, workers: int, *, barrier_skip: bool = False) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.workers = workers
        self.barrier_skip = barrier_skip
        suffix = " [barrier_skip]" if barrier_skip else ""
        self.name = f"lifecycle(workers={workers}){suffix}"

    def initial(self) -> Hashable:
        return _LifeState(phase="hello", workers=("connected",) * self.workers)

    def successors(self, state: Hashable) -> List[Tuple[str, Hashable]]:
        assert isinstance(state, _LifeState)
        out: List[Tuple[str, Hashable]] = []
        if state.phase == "done":
            return out
        spec = {p: (src, dst) for p, src, dst in self._PHASES}
        source, target = spec[state.phase]
        for index, wstate in enumerate(state.workers):
            if wstate == source:
                moved = list(state.workers)
                moved[index] = target
                out.append((
                    f"{state.phase}-w{index}",
                    _LifeState(phase=state.phase, workers=tuple(moved)),
                ))
        arrived = sum(1 for w in state.workers if w == target)
        quorum = 1 if self.barrier_skip and state.phase == "sync" else self.workers
        if arrived >= quorum:
            names = [p for p, _, _ in self._PHASES]
            at = names.index(state.phase)
            next_phase = names[at + 1] if at + 1 < len(names) else "done"
            out.append((
                f"advance-{next_phase}",
                _LifeState(phase=next_phase, workers=state.workers),
            ))
        return out

    def is_final(self, state: Hashable) -> bool:
        assert isinstance(state, _LifeState)
        return state.phase == "done" and all(
            w == "shut" for w in state.workers
        )

    def invariant(self, state: Hashable) -> Optional[str]:
        assert isinstance(state, _LifeState)
        order = {name: rank for rank, name in enumerate(_WORKER_STATES)}
        if any(order[w] >= order["started"] for w in state.workers):
            laggards = [
                f"w{i}" for i, w in enumerate(state.workers)
                if order[w] < order["synced"]
            ]
            if laggards:
                return (
                    "SYNC barrier broken: a worker STARTed while "
                    f"{', '.join(laggards)} never acknowledged SYNC"
                )
        return None


def bounded_models() -> List[ProtocolModel]:
    """The healthy bounded configurations ``repro analyze`` verifies.

    Small enough to explore exhaustively in well under a second, broad
    enough to cover the interesting regimes: single-item windows (every
    send stalls), windows smaller than the stream (replenishment is
    load-bearing), empty streams (EOS-only), migrations with and without
    in-flight/post-resume traffic, and 2–3 worker barriers.
    """
    return [
        LifecycleModel(workers=2),
        LifecycleModel(workers=3),
        CreditFlowModel(window=1, items=3),
        CreditFlowModel(window=2, items=5),
        CreditFlowModel(window=3, items=4),
        CreditFlowModel(window=2, items=0),
        MigrationModel(pre=0, post=2),
        MigrationModel(pre=2, post=2),
        MigrationModel(pre=3, post=1),
    ]
