"""Terminal run-summary reports (the ``repro report`` subcommand).

Renders a :class:`~repro.core.results.RunResult` as:

* a per-stage table (flow counters, busy time, latency p50/p95/p99);
* the latency decomposition — queue vs. compute vs. network seconds per
  stage, from the sampled hop traces (the paper's Figure 4 queue model,
  measured rather than assumed);
* adaptation trajectories (adjustment parameters and d-tilde) as ASCII
  strip charts via :mod:`repro.metrics.ascii_chart`;
* a resilience table (checkpoints, failovers, replay, quarantine from
  the ``fault.*`` / ``recovery.*`` metric families);
* an event summary.

All sections degrade gracefully: runs without tracing skip the
decomposition, runs without adaptation skip the charts, fault-free runs
without resilience skip the resilience table.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.results import RunResult
from repro.metrics.ascii_chart import multi_chart
from repro.simnet.trace import percentile

__all__ = ["render_report", "run_quickstart_demo"]


def _format_table(headers: List[str], rows: List[List[str]]) -> str:
    """Left-align the first column, right-align the rest."""
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]

    def fmt(cells: List[str]) -> str:
        parts = [cells[0].ljust(widths[0])]
        parts += [c.rjust(w) for c, w in zip(cells[1:], widths[1:])]
        return "  " + "  ".join(parts)

    lines = [fmt(headers), "  " + "  ".join("-" * w for w in widths)]
    lines += [fmt(row) for row in rows]
    return "\n".join(lines)


def _stage_table(result: RunResult) -> str:
    headers = ["stage", "host", "in", "out", "drop", "bytes_in",
               "busy_s", "p50", "p95", "p99"]
    rows = []
    for name in sorted(result.stages):
        stats = result.stages[name]
        pct = stats.latency_percentiles()
        rows.append([
            name, stats.host_name,
            str(stats.items_in), str(stats.items_out), str(stats.items_dropped),
            f"{stats.bytes_in:.0f}", f"{stats.busy_seconds:.3f}",
            f"{pct[50.0]:.4f}", f"{pct[95.0]:.4f}", f"{pct[99.0]:.4f}",
        ])
    return _format_table(headers, rows)


def _hop_samples(result: RunResult) -> Dict[str, Dict[str, List[float]]]:
    """Per-stage queue/compute/network samples from the hop traces."""
    samples: Dict[str, Dict[str, List[float]]] = {}
    for trace in result.traces:
        for hop in trace.hops:
            if not hop.completed:
                continue
            bucket = samples.setdefault(
                hop.stage, {"queue": [], "compute": [], "network": []}
            )
            bucket["queue"].append(hop.queue_t)
            bucket["compute"].append(hop.process_t)
            bucket["network"].append(hop.tx_t)
    return samples


def _decomposition_table(result: RunResult) -> Optional[str]:
    samples = _hop_samples(result)
    if not samples:
        return None
    headers = ["stage", "hops",
               "queue_p50", "queue_p95", "queue_p99",
               "compute_p50", "compute_p95", "compute_p99",
               "net_p50", "net_p95", "net_p99"]
    rows = []
    for stage in sorted(samples):
        bucket = samples[stage]
        row = [stage, str(len(bucket["queue"]))]
        for component in ("queue", "compute", "network"):
            for q in (50.0, 95.0, 99.0):
                row.append(f"{percentile(bucket[component], q, default=0.0):.4f}")
        rows.append(row)
    return _format_table(headers, rows)


def _resilience_table(result: RunResult) -> Optional[str]:
    """Per-stage fault/recovery counters; None when none were emitted."""
    if result.metrics is None:
        return None
    metrics = result.metrics
    if not metrics.names("fault.") and not metrics.names("recovery."):
        return None

    def val(name: str) -> float:
        return metrics.value(name, default=0.0)

    headers = ["stage", "ckpts", "failovers", "replayed", "dups",
               "dropped", "quarantined", "retries", "recovery_s"]
    rows = []
    for name in sorted(result.stages):
        latency = (
            metrics.get(f"recovery.{name}.latency")
            if f"recovery.{name}.latency" in metrics
            else None
        )
        cells = [
            name,
            f"{val(f'recovery.{name}.checkpoints'):.0f}",
            f"{val(f'fault.{name}.failovers'):.0f}",
            f"{val(f'recovery.{name}.items_replayed'):.0f}",
            f"{val(f'recovery.{name}.duplicates'):.0f}",
            f"{val(f'recovery.{name}.replay_dropped'):.0f}",
            f"{val(f'fault.{name}.quarantined'):.0f}",
            f"{val(f'fault.{name}.retries'):.0f}",
            f"{max(latency.samples):.3f}" if latency and latency.count else "-",
        ]
        rows.append(cells)
    return _format_table(headers, rows)


def _trajectory_charts(result: RunResult, width: int) -> List[str]:
    charts = []
    for stage_name in sorted(result.stages):
        stats = result.stages[stage_name]
        series_map: Dict[str, List[Tuple[float, float]]] = {
            f"{stage_name}.{param}": list(series)
            for param, series in sorted(stats.parameter_history.items())
            if len(series)
        }
        if series_map:
            charts.append(
                f"adaptation trajectory — {stage_name}\n"
                + multi_chart(series_map, width=width)
            )
    return charts


def render_report(result: RunResult, width: int = 72) -> str:
    """The full multi-section run summary as one printable string."""
    total_items = sum(s.items_in for s in result.stages.values())
    sections = [
        f"run: {result.app_name}",
        f"  execution time : {result.execution_time:.3f}s\n"
        f"  stages         : {len(result.stages)}\n"
        f"  items processed: {total_items}\n"
        f"  bytes moved    : {result.total_bytes_moved():.0f}\n"
        f"  load exceptions: {result.total_exceptions()}\n"
        f"  sampled traces : {len(result.traces)}",
        "per-stage summary (latency seconds)\n" + _stage_table(result),
    ]
    decomposition = _decomposition_table(result)
    if decomposition is not None:
        sections.append(
            "latency decomposition from sampled hop traces "
            "(seconds; queue = waiting, compute = processing, "
            "net = sender-side transmission)\n" + decomposition
        )
    sections.extend(_trajectory_charts(result, width))
    resilience = _resilience_table(result)
    if resilience is not None:
        sections.append(
            "resilience (checkpoints, failover/replay, quarantine)\n" + resilience
        )
    if len(result.events):
        kinds = sorted({kind for _, kind, _ in result.events.entries})
        counts = ", ".join(f"{k}={result.events.count(k)}" for k in kinds)
        sections.append(f"events: {counts}")
    return "\n\n".join(sections)


def run_quickstart_demo(trace_every: int = 1) -> RunResult:
    """Run the quickstart pipeline (:mod:`repro.apps.quickstart`, the
    application of ``examples/quickstart.py``) with tracing enabled — the
    built-in data source for ``repro report`` when no export file is
    given.  Imports are local: this module is otherwise import-light.
    """
    from repro.apps.quickstart import APP_XML, numbers, quickstart_fabric
    from repro.core.run import RunOptions, run

    options = RunOptions(adaptation_enabled=False, trace_every=trace_every)
    return run(APP_XML, "sim", options, [numbers()], fabric=quickstart_fabric())
