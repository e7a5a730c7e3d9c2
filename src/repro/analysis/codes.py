"""The catalog of diagnostic codes.

Every diagnostic the verifier or the linter can emit has a stable
``GAxxx`` code registered here — the analysis-layer analogue of the
metric-name catalog in :mod:`repro.obs.names`.  The catalog is the
single source of truth three consumers share:

* :meth:`repro.analysis.diagnostics.Report.add` resolves each code's
  default severity and fix hint from it (an unregistered code is a bug);
* ``docs/static_analysis.md`` documents exactly these codes, and the
  docs-consistency check (:mod:`repro.analysis.docscheck`, run as a
  tier-1 test) fails when either side drifts;
* per-file ``# repro: noqa[GAxxx]`` suppressions are validated against
  it so a typo'd suppression is itself a finding.

Numbering: ``GA1xx`` graph/structure passes, ``GA2xx`` adaptation
(parameter) passes, ``GA3xx`` deployment passes (code resolution,
checkpoint contract, placement, wire sizing), ``GA5xx`` AST lint rules
(``GA52x`` the architecture rules of :mod:`repro.analysis.rules`),
``GA60x`` whole-program concurrency analysis, ``GA61x`` protocol
model checking and model↔code conformance (``repro analyze``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.diagnostics import Severity

__all__ = [
    "CODES",
    "CodeInfo",
    "analyze_codes",
    "concurrency_codes",
    "config_codes",
    "info_for",
    "lint_codes",
    "protocol_codes",
]


@dataclass(frozen=True)
class CodeInfo:
    """One catalog entry: a diagnostic code and its meaning."""

    code: str
    #: ``config`` (pipeline verifier) or ``lint`` (AST checker).
    kind: str
    #: Default severity (a producer may override per-finding).
    severity: Severity
    #: One-line statement of the invariant the code enforces.
    title: str
    #: Default ``= help:`` hint rendered with findings.
    hint: str


_ALL: List[CodeInfo] = [
    # -- GA1xx: graph / structure --------------------------------------------
    CodeInfo("GA100", "config", Severity.ERROR,
             "configuration document is malformed",
             "fix the XML shape: <application name=...> containing <stage> "
             "and <stream> elements with the required attributes"),
    CodeInfo("GA101", "config", Severity.ERROR,
             "stage graph contains a cycle",
             "remove one stream to break the cycle; GATES applications "
             "are pipelines (DAGs)"),
    CodeInfo("GA102", "config", Severity.ERROR,
             "stream endpoint references an unknown stage",
             "declare the stage, or fix the stream's from=/to= attribute"),
    CodeInfo("GA103", "config", Severity.ERROR,
             "duplicate stream between the same stage pair",
             "merge the parallel streams into one; the stage graph keeps "
             "a single edge per pair, so the second stream is silently lost"),
    CodeInfo("GA104", "config", Severity.WARNING,
             "stage is disconnected from the pipeline",
             "connect the stage with a <stream>, or delete it"),
    CodeInfo("GA105", "config", Severity.ERROR,
             "duplicate stage or stream name",
             "names must be unique within the application; rename one"),
    CodeInfo("GA106", "config", Severity.ERROR,
             "declared fan-in disagrees with the connected streams",
             "make the stage's fan-in property match the number of "
             "incoming streams, or drop the property"),
    # -- GA2xx: adaptation parameters ----------------------------------------
    CodeInfo("GA201", "config", Severity.ERROR,
             "parameter initial value outside [min, max]",
             "choose an init inside the declared range"),
    CodeInfo("GA202", "config", Severity.ERROR,
             "parameter minimum exceeds maximum",
             "swap or fix the min=/max= attributes"),
    CodeInfo("GA203", "config", Severity.ERROR,
             "parameter increment or direction is invalid",
             "increment must be > 0 and direction must be +1 or -1 "
             "(the sign of dRate/dParameter, Section 3.3)"),
    CodeInfo("GA204", "config", Severity.WARNING,
             "parameter maximum unreachable by increment stepping",
             "make (max - min) a whole multiple of increment; Section-4 "
             "dP suggestions are quantized to the increment grid from min, "
             "so max is otherwise only reached by clamping"),
    CodeInfo("GA205", "config", Severity.WARNING,
             "parameter initial value off the increment grid",
             "set init = min + k * increment so the first adjustment does "
             "not silently move the value"),
    CodeInfo("GA206", "config", Severity.WARNING,
             "parameter increment exceeds the adjustable span",
             "shrink the increment; a single step already overshoots the "
             "whole [min, max] range, so adaptation can only slam between "
             "the bounds"),
    CodeInfo("GA207", "config", Severity.ERROR,
             "parameter declared twice in one stage",
             "a stage may declare each adjustment parameter once "
             "(specifyPara rejects redeclaration at runtime)"),
    CodeInfo("GA208", "config", Severity.WARNING,
             "stage property disagrees with the declared parameter",
             "keep the mirrored property (name, name-min, name-max) equal "
             "to the parameter declaration, or remove the property"),
    CodeInfo("GA209", "config", Severity.ERROR,
             "middleware stage property is undeclared or invalid",
             "batch-, shard-, scale-, ledger-, queue- and net- keys belong to "
             "the middleware, which declares each one it reads in "
             "repro.core.options.OPTIONS; an undeclared one is a typo the "
             "runtimes would silently ignore (use the suggested key), and "
             "a value that does not parse fails every runtime at setup"),
    CodeInfo("GA210", "config", Severity.WARNING,
             "batch property is invalid or the flush delay defeats "
             "adaptation sampling",
             "batch-max-items must be an integer >= 1 and batch-max-delay "
             "a finite number in [0, sample_interval) (a value that does "
             "not parse is an error); a partial batch held "
             "longer than one Section-4 sampling interval makes the "
             "queue-length samples see bursts the stage created itself"),
    CodeInfo("GA220", "config", Severity.ERROR,
             "sharding or scaling property is invalid",
             "replicas must be an integer >= 1 inside "
             "[scale-min-replicas, scale-max-replicas], shard-by one of "
             "payload | field:<name> | index:<i>, shard-boundaries a "
             "sorted comma-separated list, and a sharded stage name may "
             "not contain '#'"),
    CodeInfo("GA221", "config", Severity.WARNING,
             "sharding or scaling knob has no effect",
             "shard-*/scale-* knobs only apply to stages that also "
             "declare replicas, and a range partitioner needs at least "
             "slots-1 boundaries or the upper replica slots never own "
             "any keys"),
    # -- GA23x: live migration -------------------------------------------------
    CodeInfo("GA230", "config", Severity.ERROR,
             "migration-enabled stage cannot hand its state off",
             "a stage marked migratable: true must override snapshot() "
             "and restore() together — the live-migration handoff "
             "transports snapshot() state into a fresh instance; a "
             "class with the no-op defaults would silently move with "
             "empty state"),
    CodeInfo("GA231", "config", Severity.ERROR,
             "migration gate is invalid or unsatisfiable",
             "migratable must be true or false, the stage must exist, a "
             "sharded stage (replicas) cannot migrate, and a "
             "migration-enabled run needs the checkpoint store "
             "(resilience with checkpoint_interval set) so a mid-move "
             "crash can degrade to failover instead of losing state"),
    # -- GA24x: record/replay ledger -------------------------------------------
    CodeInfo("GA240", "config", Severity.ERROR,
             "sink in a ledger-enabled pipeline is not idempotent",
             "a pipeline recording to the run ledger (ledger-enabled: "
             "true) delivers at-least-once below its sinks; every sink "
             "stage must implement the SinkTxn protocol "
             "(repro.ledger.sinks) so redelivered duplicates cannot "
             "double-apply effects — or opt out explicitly with the "
             "at-least-once-ok: true property"),
    # -- GA3xx: deployment ----------------------------------------------------
    CodeInfo("GA301", "config", Severity.ERROR,
             "stage code URL does not resolve in the repository",
             "publish the code under that repo:// URL, or use a "
             "py://module:Attribute import path"),
    CodeInfo("GA302", "config", Severity.ERROR,
             "stage class breaks the snapshot/restore contract",
             "override snapshot() and restore() together (or neither); "
             "an asymmetric override cannot fail over correctly"),
    CodeInfo("GA303", "config", Severity.ERROR,
             "placement is infeasible on the target fabric",
             "relax the requirement (cores/memory/bandwidth/placement "
             "hint) or enlarge the fabric"),
    CodeInfo("GA304", "config", Severity.WARNING,
             "summary stream item-size disagrees with the wire codec",
             "sketch-producing stages emit 12-byte (value, count) pairs "
             "(streams.wire PAIR_BYTES); declare item-size accordingly so "
             "link accounting matches the bytes actually sent"),
    # -- GA5xx: AST lint ------------------------------------------------------
    CodeInfo("GA500", "lint", Severity.ERROR,
             "file cannot be analyzed or suppression is invalid",
             "fix the syntax error, or correct the # repro: noqa[...] "
             "marker to name a registered code"),
    CodeInfo("GA501", "lint", Severity.ERROR,
             "metric name does not resolve in the catalog",
             "register the template in repro.obs.names.METRICS (and "
             "document it) before publishing the metric"),
    CodeInfo("GA502", "lint", Severity.ERROR,
             "wall-clock call in a deterministic module",
             "simulated code must take time from the simulation "
             "Environment, never time.time()/datetime.now()"),
    CodeInfo("GA503", "lint", Severity.ERROR,
             "module-level random generator in a deterministic module",
             "use a seeded random.Random(seed) instance; the global RNG "
             "breaks run-to-run reproducibility"),
    CodeInfo("GA504", "lint", Severity.ERROR,
             "blocking call inside an async function",
             "use the asyncio equivalent (asyncio.sleep, streams, "
             "run_in_executor); a blocking call stalls the event loop"),
    CodeInfo("GA505", "lint", Severity.ERROR,
             "synchronous lock held across an await",
             "a threading lock held across an await point can deadlock "
             "the event loop; use asyncio.Lock with async with"),
    CodeInfo("GA506", "lint", Severity.ERROR,
             "snapshot/restore overridden asymmetrically",
             "StreamProcessor subclasses must override snapshot() and "
             "restore() together (or neither)"),
    CodeInfo("GA507", "lint", Severity.ERROR,
             "bare or swallowed exception handler",
             "catch the narrowest exception type that can actually occur, "
             "and never discard it silently in data-plane code"),
    CodeInfo("GA508", "lint", Severity.ERROR,
             "public core function lacks a docstring",
             "every public (non-underscore) function and method in "
             "repro.core is part of the middleware's API surface and "
             "must state its contract in a docstring"),
    CodeInfo("GA509", "lint", Severity.ERROR,
             "nondeterministic read bypasses the DeterministicContext",
             "code in repro.ledger and stage on_item() bodies must route "
             "wall-clock reads and random draws through context.det "
             "(now()/draw()) so recorded runs capture them and replay "
             "can pin them; a direct time.*/random.* call makes the run "
             "unreplayable"),
    # -- GA52x: architecture rules (repro.analysis.rules) ----------------------
    CodeInfo("GA520", "lint", Severity.ERROR, "stage-kernel piece defined outside the kernel",
             "call the definition in repro/core/kernel.py instead of writing a copy"),
    CodeInfo("GA521", "lint", Severity.ERROR, "processor called outside the kernel's stage loop",
             "only stage_loop calls on_item() and processor.flush(); interpret its effects"),
    CodeInfo("GA522", "lint", Severity.ERROR, "source binding read outside the source loop",
             "drive repro.core.kernel.source_loop instead of reading payloads or gaps"),
    CodeInfo("GA523", "lint", Severity.ERROR, "run-lifecycle call made at more than one site",
             "call grid.admission.admit() or kernel.run_report(), which make these calls"),
    CodeInfo("GA524", "lint", Severity.ERROR, "runtime constructed outside core/run.py",
             "run a configuration with repro.core.run.run (or build, to act mid-run)"),
    CodeInfo("GA525", "lint", Severity.ERROR, "stage state snapshot or restore outside the kernel",
             "use the kernel's stage_checkpoint / restore_checkpoint / swap_processor"),
    CodeInfo("GA526", "lint", Severity.ERROR, "stage option named by key outside core/options.py",
             "read the option through StageOptions and write it with stamp()"),
    CodeInfo("GA527", "lint", Severity.ERROR, "runtime module imports numpy or networkx eagerly",
             "import it inside the function that first uses it (TYPE_CHECKING for hints)"),
    CodeInfo("GA528", "lint", Severity.ERROR, "XML read outside grid/config.py",
             "call AppConfig.from_xml, the one parser of the application document"),
    CodeInfo("GA529", "lint", Severity.ERROR, "package export imported inside src/",
             "import the name from its defining module, not through a package's exports"),
    # -- GA60x: whole-program concurrency ---------------------------------------
    CodeInfo("GA600", "concurrency", Severity.ERROR,
             "lock-order inversion between two lock families",
             "two code paths acquire the same pair of locks in opposite "
             "orders, which can deadlock under contention; pick one "
             "global order for the pair and restructure the path that "
             "violates it"),
    CodeInfo("GA601", "concurrency", Severity.ERROR,
             "lock held across a blocking or unbounded-waiting call",
             "a lock held while the holder blocks (time.sleep, a "
             "suspension point, or a transitive wait on another "
             "condition/event through a callee) stalls every other "
             "acquirer for an unbounded time; move the wait outside the "
             "critical section or restructure so the lock is released "
             "before waiting"),
    CodeInfo("GA602", "concurrency", Severity.ERROR,
             "lock-guarded attribute written on an unguarded path",
             "this attribute is written under a threading lock elsewhere "
             "in the file, so a bare write races with those critical "
             "sections; take the same lock around the write, or suppress "
             "with a justification if the path is provably "
             "single-threaded"),
    # -- GA61x: protocol model checking ----------------------------------------
    CodeInfo("GA610", "protocol", Severity.ERROR,
             "protocol model can deadlock in a bounded configuration",
             "the explicit-state search reached a state where no "
             "participant can act and the run is not complete; the "
             "counterexample trace names the action sequence — fix the "
             "protocol (or the model, if it mis-states the code)"),
    CodeInfo("GA611", "protocol", Severity.ERROR,
             "protocol model violates a safety invariant",
             "a reachable state breaks conservation (credit leak, "
             "double-grant, item loss/duplication); follow the "
             "counterexample trace and repair the transition that "
             "breaks the invariant"),
    CodeInfo("GA612", "protocol", Severity.ERROR,
             "protocol model completes without reaching its goal",
             "a terminal state is marked final but the liveness goal "
             "(EOS delivered, migration completed) does not hold there; "
             "the run can 'finish' while losing the property"),
    CodeInfo("GA613", "protocol", Severity.ERROR,
             "frame traffic drifts from the protocol model",
             "either the code sends/handles a frame the model forbids "
             "for that role, or the model declares a transition no code "
             "site implements; update repro/net/protocol_model.py and "
             "the implementation together"),
]

CODES: Dict[str, CodeInfo] = {info.code: info for info in _ALL}


def info_for(code: str) -> CodeInfo:
    """The catalog entry for ``code``; raises ``KeyError`` if unknown."""
    try:
        return CODES[code]
    except KeyError:
        raise KeyError(
            f"diagnostic code {code!r} is not registered in "
            "repro.analysis.codes.CODES"
        ) from None


def config_codes() -> List[CodeInfo]:
    """Catalog entries produced by the pipeline verifier."""
    return [info for info in _ALL if info.kind == "config"]


def lint_codes() -> List[CodeInfo]:
    """Catalog entries produced by the AST lint suite."""
    return [info for info in _ALL if info.kind == "lint"]


def concurrency_codes() -> List[CodeInfo]:
    """Catalog entries produced by the whole-program concurrency pass."""
    return [info for info in _ALL if info.kind == "concurrency"]


def protocol_codes() -> List[CodeInfo]:
    """Catalog entries produced by the protocol model checker."""
    return [info for info in _ALL if info.kind == "protocol"]


def analyze_codes() -> List[CodeInfo]:
    """Catalog entries produced by ``repro analyze`` (both passes)."""
    return [info for info in _ALL if info.kind in ("concurrency", "protocol")]
