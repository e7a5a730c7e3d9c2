"""The run options, declared once, and the one way to run a configuration.

In GATES the user hands one configuration to one Launcher (Section
3.2).  ``run(config, "sim" | "threaded" | "net", options, sources)`` is
that hand-off for all three runtimes; :func:`build` stops short of
running, for a caller that acts mid-run (arms faults, scales or
migrates a stage) before it calls the returned ``run``.

:class:`RunOptions` is the one table of run options, on the row pattern
of :class:`~repro.core.options.StageOptions`: each field declares its
default, range check, the runtimes that honour it, the phase that takes
it (``admit``: where the configuration is admitted; ``build``: the
constructor; ``run``: ``run()``) and its doc.  The three constructors
take their options through :func:`take`, so each default and check
lives here, and a row a runtime does not honour is refused with that
runtime's own error.  The runtimes are imported inside :func:`build`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, Mapping, NamedTuple, Optional, Tuple

from repro.core.adaptation.policy import AdaptationPolicy
from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:
    from repro.core.kernel import SourceBinding
    from repro.core.results import RunResult
    from repro.grid.fabric import GridFabric
    from repro.obs.tracing import TraceCollector

__all__ = ["ROWS", "RUNTIMES", "Built", "Row", "RunOptions", "at", "build", "run", "take"]

RUNTIMES = ("sim", "threaded", "net")
_WALL = ("threaded", "net")


class Row(NamedTuple):
    """One run option; ``want`` says in words what ``check`` accepts."""

    name: str
    default: Any
    check: Optional[Callable[[Any], bool]]
    want: str
    runtimes: Tuple[str, ...]
    phase: str
    doc: str


def _row(default: Any, runtimes: Tuple[str, ...], phase: str, doc: str,
         check: Optional[Callable[[Any], bool]] = None, want: str = "") -> Any:
    return field(default=default, metadata={"row": (check, want, runtimes, phase, doc)})


@dataclass(frozen=True, eq=False)
class RunOptions:
    """How to run a configuration, one field per row of the table."""

    policy: Optional[AdaptationPolicy] = _row(
        None, RUNTIMES, "build", "the Section-4 adaptation constants (unset: `AdaptationPolicy()`)")
    adaptation_enabled: bool = _row(
        True, RUNTIMES, "build", "run the per-stage monitors and parameter controllers")
    metrics: Optional[MetricsRegistry] = _row(
        None, RUNTIMES, "build", "the registry the run publishes into (unset: a new one)")
    batch: Optional[Any] = _row(
        None, RUNTIMES, "build",
        "runtime-wide `BatchPolicy`; `batch-*` stage properties override it (unset: unbatched)")
    trace_every: Optional[int] = _row(
        None, ("sim", "threaded"), "build", "hop-trace every N-th source arrival (unset: off)",
        lambda value: value >= 1, "an integer >= 1")
    resilience: Optional[Any] = _row(
        None, ("sim", "threaded"), "build",
        "`ResilienceConfig`: checkpoints and quarantine; failover and replay on sim")
    checkpoints: Optional[Any] = _row(
        None, ("sim", "threaded"), "build",
        "the `CheckpointStore` (needs `resilience`; unset: in memory)")
    time_scale: float = _row(
        1.0, _WALL, "build", "wall seconds per runtime second (costs, rates, batch delays)",
        lambda value: value > 0, "a number > 0")
    repository: Optional[Any] = _row(
        None, _WALL, "admit", "the `CodeRepository` admission fetches from "
        "(unset: `builtin_repository()`; sim: the fabric's)")
    verify: bool = _row(True, RUNTIMES, "admit", "the static verifier gates admission")
    workers: Any = _row(
        3, ("net",), "build", "worker processes to spawn, or `(host, port)` pairs to attach",
        lambda value: not isinstance(value, int) or value >= 1,
        "at least 1 worker, or (host, port) pairs")
    credit_window: int = _row(
        32, ("net",), "build", "items in flight per channel before the sender waits",
        lambda value: value >= 1, "an integer >= 1")
    migrations: Optional[Tuple[Any, ...]] = _row(
        None, ("net",), "build", "`MigrationPlan`s: planned live moves")
    max_sim_time: float = _row(
        1e7, ("sim",), "run", "simulated seconds after which an undrained run raises")
    stop_at: Optional[float] = _row(
        None, ("sim",), "run", "end the run at this simulated time, drained or not")
    timeout: float = _row(
        120.0, _WALL, "run", "wall seconds after which an unfinished run raises")

    def tracer(self) -> Optional["TraceCollector"]:
        """The run's hop-trace collector (None: tracing off)."""
        from repro.obs.tracing import TraceCollector

        return None if self.trace_every is None else TraceCollector(self.trace_every)


ROWS: Tuple[Row, ...] = tuple(
    Row(f.name, f.default, *f.metadata["row"]) for f in fields(RunOptions)
)
_BY_NAME: Dict[str, Row] = {row.name: row for row in ROWS}


def take(
    runtime: str,
    error: Callable[[str], Exception],
    given: Mapping[str, Any],
    phases: Tuple[str, ...] = ("build",),
) -> RunOptions:
    """The options ``given`` to ``runtime`` at one of ``phases``, with the
    policy, registry and checkpoint store filled in.  Raises ``error``
    for an unknown row, one ``runtime`` does not honour or another phase
    takes, a value its check refuses, or checkpoints without resilience.
    """
    for name, value in given.items():
        row = _BY_NAME.get(name)
        if row is None:
            raise error(f"unknown run option {name!r}")
        if runtime not in row.runtimes:
            raise error(f"the {runtime} runtime does not honour run option {name!r}")
        if row.phase not in phases:
            raise error(f"run option {name!r} is taken at {row.phase}, not here")
        if value is not None and row.check is not None and not row.check(value):
            raise error(f"{name}={value!r}: want {row.want}")
    options = RunOptions(**given)
    checkpoints = options.checkpoints
    if options.resilience is None and checkpoints is not None:
        raise error("checkpoints= requires resilience= as well")
    if options.resilience is not None and checkpoints is None:
        from repro.resilience.checkpoint import MemoryCheckpointStore

        checkpoints = MemoryCheckpointStore()
    return replace(
        options,
        policy=options.policy or AdaptationPolicy(),
        metrics=options.metrics if options.metrics is not None else MetricsRegistry(),
        checkpoints=checkpoints,
    )


def at(phase: str, given: Mapping[str, Any]) -> Dict[str, Any]:
    """The rows of (checked) ``given`` that ``phase`` takes."""
    return {name: value for name, value in given.items() if _BY_NAME[name].phase == phase}


class Built(NamedTuple):
    """What :func:`build` returns: the runtime, and its ``run`` with the
    options' ``run`` rows."""

    runtime: Any
    run: Callable[[], "RunResult"]


#: SourceBinding fields a runtime's feeder cannot honour.
_UNFED = {"threaded": ("drop_when_full",), "net": ("drop_when_full",)}


def build(
    config: Any,
    runtime: str,
    options: Optional[RunOptions] = None,
    sources: Iterable["SourceBinding"] = (),
    *,
    fabric: Optional["GridFabric"] = None,
) -> Built:
    """Admit ``config`` on ``runtime``, build the runtime, bind ``sources``.

    ``config`` is an ``AppConfig``, an XML string or a path
    (``Launcher.resolve``), or on sim a ``Deployment`` already placed on
    ``fabric`` (say, after a ``Redeployer`` moved it).  Only the
    simulator takes a ``fabric``, and it needs one.
    """
    if runtime == "sim":
        from repro.core.runtime_sim import RuntimeError_ as error
    elif runtime == "threaded":
        from repro.core.runtime_threads import ThreadedRuntimeError as error
    elif runtime == "net":
        from repro.net.coordinator import NetworkedRuntimeError as error
    else:
        raise ValueError(f"unknown runtime {runtime!r}; expected one of {RUNTIMES}")
    if (fabric is None) == (runtime == "sim"):
        raise error("the sim runtime runs on a fabric=, and only it does")
    options = options or RunOptions()
    given = {r.name: getattr(options, r.name) for r in ROWS if getattr(options, r.name) != r.default}
    take(runtime, error, given, ("admit", "build", "run"))
    sources = list(sources)
    for binding in sources:
        for name in _UNFED.get(runtime, ()):
            if getattr(binding, name) != getattr(type(binding), name):
                raise error(f"source {binding.name!r}: the {runtime} runtime cannot feed {name}")
    run_rows = at("run", given)
    given = {name: value for name, value in given.items() if name not in run_rows}
    if runtime == "sim":
        from repro.core.runtime_sim import SimulatedRuntime
        from repro.grid.deployer import Deployment

        assert fabric is not None
        verify = given.pop("verify", RunOptions.verify)
        if not isinstance(config, Deployment):
            config = fabric.launcher.launch(config, verify=verify)
        built: Any = SimulatedRuntime(fabric.env, fabric.network, config, **given)
        for binding in sources:
            built.bind_source(binding)
        return Built(built, lambda: built.run(**run_rows))
    from repro.grid.launcher import Launcher

    if runtime == "threaded":
        from repro.core.runtime_threads import ThreadedRuntime

        built = ThreadedRuntime.from_config(Launcher.resolve(config), **given)
    else:
        from repro.net.coordinator import NetworkedRuntime

        built = NetworkedRuntime(Launcher.resolve(config), **given)
    for binding in sources:
        built.bind_source(binding.name, binding.target_stage, binding.payloads,
                          binding.rate, binding.item_size, binding.arrivals)
    return Built(built, lambda: built.run(**run_rows))


def run(
    config: Any,
    runtime: str,
    options: Optional[RunOptions] = None,
    sources: Iterable["SourceBinding"] = (),
    *,
    fabric: Optional["GridFabric"] = None,
) -> "RunResult":
    """Run ``config`` on ``runtime`` to completion (see :func:`build`)."""
    return build(config, runtime, options, sources, fabric=fabric).run()
