"""repro.ledger: deterministic record/replay with exactly-once sinks.

The run ledger is an append-only, hash-chained log of everything a run
did that a re-execution could not derive on its own: every ingress
item, every Section-4 adaptation decision (parameter adjustments,
autoscaler transitions, migrations, failovers, rebalances), and every
nondeterministic read stage code made (wall clock, RNG, suggested
parameter values).  Recording is property-driven (``ledger-mode`` /
``ledger-dir`` on each stage), so all three runtimes — simulated,
threaded, and networked with out-of-process workers — write the same
sidecar files, which :func:`~repro.ledger.ledger.merge_ledgers` folds
into one canonically ordered, digest-sealed ``run.ledger``.

Layers:

* :mod:`repro.ledger.records` — typed, CRC'd, hash-chained records;
* :mod:`repro.ledger.ledger` — writer / verifying reader / merge;
* :mod:`repro.ledger.context` — the :class:`DeterministicContext`
  behind every ``StageContext.det``;
* :mod:`repro.ledger.sinks` — the :class:`SinkTxn` idempotent-sink
  protocol upgrading at-least-once delivery to exactly-once effects;
* :mod:`repro.ledger.harness` — record on any runtime, replay on any
  runtime, compare digests (``repro replay`` CLI).

See ``docs/replay.md`` for the record format and determinism contract.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".context": (
        "DeterministicContext", "MODE_OFF", "MODE_RECORD", "MODE_REPLAY", "base_stage_name",
        "deterministic_context_for", "reset_registry",
    ),
    ".harness": ("RUNTIMES", "RecordResult", "ReplayReport", "ReplaySpec", "record", "replay"),
    ".ledger": ("LedgerError", "LedgerReader", "LedgerWriter", "merge_ledgers"),
    ".records": ("GENESIS", "RECORD_TYPES", "Record", "RecordError"),
    ".sinks": ("SinkTxn", "TxnCollectStage"),
    ".stages": ("DetRelayStage", "key_of", "value_of", "wrap"),
})
