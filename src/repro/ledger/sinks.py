"""Idempotent sinks: the exactly-once *effects* layer.

Delivery below a sink stays at-least-once (failover replay and
migration handoff both re-deliver items, counted in
``recovery.*.duplicates``).  A sink implementing :class:`SinkTxn`
absorbs those duplicates: each item carries a stable key (its ledger
ingress sequence number, travelling in the item envelope — see
:mod:`repro.ledger.stages`), and the sink runs a two-phase
begin/commit per key against a dedup window that is part of the
processor snapshot, so it survives checkpoints, failover restores, and
migration handoffs.  The observable *effect* of each key therefore
happens exactly once, which is what the replay harness's digest
comparison proves.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..core.api import StageContext, StreamProcessor
from .stages import key_of, value_of

__all__ = ["SinkTxn", "TxnCollectStage"]


class SinkTxn:
    """Mixin protocol for idempotent sink stages.

    A sink implements two-phase effect application:

    * :meth:`txn_begin` — called with the item's stable key before any
      effect; returns False when the key is already in the dedup window
      (a redelivered duplicate), in which case the sink must skip the
      effect entirely;
    * :meth:`txn_commit` — called after the effect was applied; adds
      the key to the dedup window and records the effect in the run
      ledger (``SINK`` record) when recording is on.

    The GA240 verifier pass requires every sink in a ``ledger-enabled``
    pipeline to subclass this (or define both methods), unless the
    stage explicitly opts out with the ``at-least-once-ok`` property.
    """

    #: Keys whose effect has been committed (the dedup window).
    _txn_window: Dict[str, bool]

    def txn_begin(self, key: Any) -> bool:
        """True if ``key`` is new (apply the effect), False if duplicate."""
        window = self.__dict__.setdefault("_txn_window", {})
        return str(key) not in window

    def txn_commit(self, key: Any, effect: Any, context: Optional[StageContext] = None) -> None:
        """Mark ``key`` committed and ledger its effect."""
        window = self.__dict__.setdefault("_txn_window", {})
        window[str(key)] = True
        if context is not None:
            context.det.sink_effect(key, effect)

    def txn_window_snapshot(self) -> List[str]:
        """The dedup window as checkpointable data."""
        return sorted(self.__dict__.get("_txn_window", {}))

    def txn_window_restore(self, keys: Any) -> None:
        """Rebuild the dedup window from a checkpoint."""
        self.__dict__["_txn_window"] = {str(k): True for k in (keys or [])}


class TxnCollectStage(StreamProcessor, SinkTxn):
    """Collecting sink with exactly-once effects.

    Expects enveloped items (``{"lk": key, "lv": value}``); applies each
    key's effect — storing the value — at most once.  Redelivered
    duplicates are counted in :attr:`duplicates` but leave the effect
    map untouched, so the effect count after any amount of failover,
    migration, or autoscaling matches a fault-free run exactly.
    """

    def __init__(self) -> None:
        self.effects: Dict[str, Any] = {}
        self.duplicates = 0

    def on_item(self, payload: Any, context: StageContext) -> None:
        """Apply the item's effect unless its key was already committed."""
        key = key_of(payload)
        value = value_of(payload)
        context.det.begin(key)
        if not self.txn_begin(key):
            self.duplicates += 1
            return
        self.effects[str(key)] = value
        self.txn_commit(key, value, context)

    def result(self) -> Any:
        """Effects in canonical (numeric key) order, plus duplicate count."""
        return {
            "effects": [[k, self.effects[k]] for k in self._ordered_keys()],
            "duplicates": self.duplicates,
        }

    def _ordered_keys(self) -> List[str]:
        def num(k: str) -> Any:
            try:
                return (0, int(k), "")
            except ValueError:
                return (1, 0, k)

        return sorted(self.effects, key=num)

    def snapshot(self) -> Any:
        """Effects + dedup window + duplicate count (checkpoint payload)."""
        return {
            "effects": [[k, self.effects[k]] for k in self._ordered_keys()],
            "window": self.txn_window_snapshot(),
            "duplicates": self.duplicates,
        }

    def restore(self, state: Any) -> None:
        """Rebuild effects and the dedup window from a checkpoint."""
        if not isinstance(state, dict):
            return
        self.effects = {str(k): v for k, v in state.get("effects", [])}
        self.txn_window_restore(state.get("window"))
        self.duplicates = int(state.get("duplicates", 0))

    def replay_state(self) -> Any:
        """Order-insensitive final state for the ledger STATE record.

        Excludes :attr:`duplicates` — the duplicate count depends on the
        faults a particular run experienced, not on the computation, so
        it must not perturb the state digest.
        """
        return [[k, self.effects[k]] for k in self._ordered_keys()]
