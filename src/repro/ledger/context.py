"""DeterministicContext: the single gateway for nondeterminism in stages.

Stage code that wants to be replayable routes every wall-clock read,
random draw, and ``get_suggested_value`` read through the lazy ``det``
attribute of its :class:`~repro.core.api.StageContext`.  The context has
three modes, selected entirely by stage *properties* so all three
runtimes (including out-of-process networked workers) construct it the
same way:

``off`` (default)
    Pure passthrough — no ledger, no overhead beyond one attribute hop.

``record`` (``ledger-mode: record`` + ``ledger-dir``)
    Every read is assigned a ``(kind, item-key, idx)`` coordinate and
    appended to the stage's sidecar ledger.  Reads are *idempotent*: if
    the same coordinate was already recorded (failover re-processing a
    delivered-but-unacknowledged item, or a migrated stage re-running an
    item), the recorded value is returned instead of a fresh one, so
    every delivery attempt of an item produces bit-identical output.

``replay`` (``ledger-mode: replay`` + ``ledger-path`` + ``ledger-dir``)
    Reads are served from the recorded run ledger at ``ledger-path``;
    a coordinate missing from the recording falls back to the live
    value and increments ``replay_misses``.  Sink effects and final
    state are still written to fresh sidecars under ``ledger-dir`` so
    the harness can compare digests against the recording.

Contexts are registered process-wide by sidecar path, so a stage
re-incarnated in the same process (sim failover, threaded hot swap,
migration adopt) resumes its existing read memory; a stage restarted in
a *different* process reloads the same memory from the sidecar file,
which the :class:`~repro.ledger.ledger.LedgerWriter` re-verifies and
extends in place.
"""

from __future__ import annotations

import random
import threading
import zlib
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.core.options import stage_options

from .ledger import LedgerReader, LedgerWriter

__all__ = [
    "DeterministicContext",
    "MODE_OFF",
    "MODE_RECORD",
    "MODE_REPLAY",
    "base_stage_name",
    "deterministic_context_for",
]

MODE_OFF = "off"
MODE_RECORD = "record"
MODE_REPLAY = "replay"

_KIND_TO_TYPE = {"clock": "CLOCK", "rng": "RNG", "param": "PARAM"}

#: Process-wide registry: sidecar path -> live context, so in-process
#: stage re-incarnations keep their read memory.
_ACTIVE: Dict[str, "DeterministicContext"] = {}
_ACTIVE_LOCK = threading.Lock()

#: Replay stores cached per recorded-ledger path (read once per process).
_REPLAY_CACHE: Dict[str, Dict[Tuple[str, str, str, int], Any]] = {}


def base_stage_name(stage_name: str) -> str:
    """The shard-group base name: ``"work#2"`` -> ``"work"``.

    Ledger records are keyed by base name so a replay with a different
    active replica count (autoscale, rebalance) still finds them.
    """
    return stage_name.split("#", 1)[0]


def _sidecar_filename(stage_name: str) -> str:
    return stage_name.replace("#", "_") + ".ledger"


def _load_replay_store(path: str) -> Dict[Tuple[str, str, str, int], Any]:
    with _ACTIVE_LOCK:
        cached = _REPLAY_CACHE.get(path)
    if cached is not None:
        return cached
    store: Dict[Tuple[str, str, str, int], Any] = {}
    for record in LedgerReader(path).read():
        if record.type in ("CLOCK", "RNG", "PARAM"):
            store[(record.type, record.stage, record.key, record.idx)] = (
                record.data.get("v")
            )
    with _ACTIVE_LOCK:
        _REPLAY_CACHE[path] = store
    return store


class DeterministicContext:
    """Records or replays every nondeterministic read a stage makes.

    One instance per (stage, sidecar file); see the module docstring for
    the mode contract.  All public methods are thread-safe.
    """

    def __init__(
        self,
        stage_name: str,
        mode: str = MODE_OFF,
        *,
        sidecar_path: Optional[str] = None,
        replay_path: Optional[str] = None,
        fallback_now: Optional[Callable[[], float]] = None,
        seed: int = 0,
    ) -> None:
        self.stage_name = stage_name
        self.base_name = base_stage_name(stage_name)
        self.mode = mode
        self._fallback_now = fallback_now or (lambda: 0.0)
        self._rng = random.Random(seed ^ zlib.crc32(self.base_name.encode("utf-8")))
        self._lock = threading.RLock()
        self._key = ""
        self._cursors: Dict[Tuple[str, str], int] = {}
        self._reads: Dict[Tuple[str, str, str, int], Any] = {}
        self.counters: Dict[str, int] = {
            "records": 0,
            "effects": 0,
            "dedup_hits": 0,
            "replay_misses": 0,
        }
        self._writer: Optional[LedgerWriter] = None
        self._replay: Dict[Tuple[str, str, str, int], Any] = {}
        if mode in (MODE_RECORD, MODE_REPLAY) and sidecar_path:
            self._writer = LedgerWriter(sidecar_path)
            if mode == MODE_RECORD:
                # Cross-process re-incarnation: reload read memory from
                # the sidecar the previous incarnation left behind.
                for record in LedgerReader(sidecar_path).read():
                    if record.type in ("CLOCK", "RNG", "PARAM"):
                        self._reads[
                            (record.type, record.stage, record.key, record.idx)
                        ] = record.data.get("v")
        if mode == MODE_REPLAY and replay_path:
            self._replay = _load_replay_store(replay_path)

    # -- mode predicates -------------------------------------------------

    @property
    def recording(self) -> bool:
        """True when this context is appending to a run ledger."""
        return self.mode == MODE_RECORD

    @property
    def replaying(self) -> bool:
        """True when reads are served from a recorded run ledger."""
        return self.mode == MODE_REPLAY

    @property
    def active(self) -> bool:
        """True in record or replay mode (i.e. effects should be logged)."""
        return self.mode != MODE_OFF

    # -- item scope ------------------------------------------------------

    def begin(self, key: Any) -> None:
        """Enter the read scope of one item (call first in ``on_item``).

        Resets the per-kind occurrence cursors for ``key`` so that a
        re-delivery of the same item re-reads the same coordinates.
        """
        if self.mode == MODE_OFF:
            return
        with self._lock:
            self._key = str(key)
            for kind in _KIND_TO_TYPE.values():
                self._cursors[(kind, self._key)] = 0

    # -- recorded reads --------------------------------------------------

    def _read(self, rtype: str, live: Callable[[], Any], extra: Optional[dict] = None) -> Any:
        with self._lock:
            key = self._key
            idx = self._cursors.get((rtype, key), 0)
            self._cursors[(rtype, key)] = idx + 1
            coord = (rtype, self.base_name, key, idx)
            if self.mode == MODE_REPLAY:
                if coord in self._replay:
                    return self._replay[coord]
                self.counters["replay_misses"] += 1
                return live()
            # record mode
            if coord in self._reads:
                self.counters["dedup_hits"] += 1
                return self._reads[coord]
            value = live()
            self._reads[coord] = value
            data = {"v": value}
            if extra:
                data.update(extra)
            assert self._writer is not None
            self._writer.append(
                rtype, stage=self.base_name, key=key, idx=idx, data=data
            )
            self.counters["records"] += 1
            return value

    def now(self) -> float:
        """Wall-clock read: live in record mode (and recorded), pinned in replay."""
        if self.mode == MODE_OFF:
            return self._fallback_now()
        return float(self._read("CLOCK", self._fallback_now))

    def draw(self) -> float:
        """Uniform [0, 1) random draw, recorded/replayed like :meth:`now`."""
        if self.mode == MODE_OFF:
            return self._rng.random()
        return float(self._read("RNG", self._rng.random))

    def suggested(self, name: str, live_value: Any) -> Any:
        """The adaptation-parameter value observed for the current item.

        ``live_value`` is what ``get_suggested_value`` returned right
        now; in replay mode the recorded observation wins, pinning the
        Section-4 adaptation trajectory.
        """
        if self.mode == MODE_OFF:
            return live_value
        return self._read("PARAM", lambda: live_value, {"name": name})

    # -- sink effects and final state ------------------------------------

    def sink_effect(self, key: Any, value: Any) -> None:
        """Record one committed sink effect (exactly-once layer output)."""
        if self.mode == MODE_OFF or self._writer is None:
            return
        with self._lock:
            self._writer.append(
                "SINK", stage=self.base_name, key=str(key), data={"v": value}
            )
            self.counters["effects"] += 1

    def finalize_stage(self, processor: Any) -> None:
        """Write the STATE record at flush time (no-op when off).

        Uses the processor's ``replay_state()`` if defined (a reduced,
        order-insensitive view), else ``snapshot()``.
        """
        if self.mode == MODE_OFF or self._writer is None:
            return
        state: Any = None
        getter = getattr(processor, "replay_state", None) or getattr(
            processor, "snapshot", None
        )
        if callable(getter):
            try:
                state = getter()
            except Exception:
                state = None
        with self._lock:
            self._writer.append(
                "STATE",
                stage=self.base_name,
                data={"v": state, "counters": dict(self.counters)},
            )

    def close(self) -> None:
        """Flush and close the sidecar writer (idempotent)."""
        with self._lock:
            if self._writer is not None:
                self._writer.close()
                self._writer = None


_OFF_SINGLETON: Optional[DeterministicContext] = None


def deterministic_context_for(
    stage_name: str,
    properties: Optional[Mapping[str, str]],
    fallback_now: Optional[Callable[[], float]] = None,
) -> DeterministicContext:
    """Build (or fetch) the DeterministicContext for one stage.

    Reads the ``ledger-mode`` / ``ledger-dir`` / ``ledger-path`` stage
    options; returns a shared passthrough context when recording is
    off.  Re-entrant: the same sidecar path always yields the same
    context within a process.
    """
    import os

    global _OFF_SINGLETON
    options = stage_options(properties or {})
    mode, ledger_dir = options.ledger_mode, options.ledger_dir
    if mode not in (MODE_RECORD, MODE_REPLAY) or not ledger_dir:
        if _OFF_SINGLETON is None:
            _OFF_SINGLETON = DeterministicContext("", MODE_OFF)
        if fallback_now is None:
            return _OFF_SINGLETON
        return DeterministicContext(stage_name, MODE_OFF, fallback_now=fallback_now)
    sidecar = os.path.join(ledger_dir, _sidecar_filename(stage_name))
    with _ACTIVE_LOCK:
        existing = _ACTIVE.get(sidecar)
    if existing is not None:
        if fallback_now is not None:
            existing._fallback_now = fallback_now
        return existing
    ctx = DeterministicContext(
        stage_name,
        mode,
        sidecar_path=sidecar,
        replay_path=options.ledger_path or None,
        fallback_now=fallback_now,
    )
    with _ACTIVE_LOCK:
        _ACTIVE[sidecar] = ctx
    return ctx


def reset_registry() -> None:
    """Drop all registered contexts and replay caches (test isolation)."""
    with _ACTIVE_LOCK:
        for ctx in _ACTIVE.values():
            try:
                ctx.close()
            except Exception:
                pass
        _ACTIVE.clear()
        _REPLAY_CACHE.clear()
