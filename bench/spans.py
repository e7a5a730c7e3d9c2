"""The traced run's spans and its self-time table.

Spans come only from the benchmark's own files: the driver's phase
boundaries (``bench/workloads.py``) and the ``Traced*`` stages' per-stage
aggregates (``bench/stages.py``).  A span is ``{name, start_ns, end_ns,
parent, run_id}`` plus, for aggregated stage spans, ``calls`` and
``total_ns``: a stage span's extent is first start to last end, and
``total_ns`` is the time actually spent inside.  Spans inside ``src/``
are a later issue.

Pure stdlib: ``bench/run.py`` imports this without the program on the path.
"""

from __future__ import annotations

from typing import Any, Dict, List

DRIVER_PHASES = (
    ("driver.build", "construct_ns", "run_call_ns"),
    ("driver.setup", "run_call_ns", "first_pull_ns"),
    ("driver.feed", "first_pull_ns", "last_pull_ns"),
    ("driver.drain", "last_pull_ns", "last_arrival_ns"),
    ("driver.collect", "last_arrival_ns", "run_return_ns"),
)


def build_spans(measurement: Dict[str, Any], run_id: str) -> List[Dict[str, Any]]:
    """Flatten one traced measurement into span records."""
    stamps = measurement["stamps"]

    def span(name: str, start: int, end: int, parent: Any, **extra: Any) -> Dict[str, Any]:
        return {"name": name, "start_ns": start, "end_ns": max(start, end),
                "parent": parent, "run_id": run_id, **extra}

    spans = [span("driver.run", stamps["construct_ns"], stamps["run_return_ns"], None)]
    for name, start, end in DRIVER_PHASES:
        spans.append(span(name, stamps[start], stamps[end], "driver.run"))
    for stage, agg in sorted(measurement["stage_spans"].items()):
        on_item = f"stage.{stage}.on_item"
        spans.append(span(
            on_item, agg["first_start_ns"], agg["last_end_ns"], "driver.run",
            calls=agg["on_item_calls"], total_ns=agg["on_item_ns"],
        ))
        spans.append(span(
            f"stage.{stage}.emit", agg["first_start_ns"], agg["last_end_ns"], on_item,
            calls=agg["emit_calls"], total_ns=agg["emit_ns"],
        ))
    return spans


def run_wall_ns(measurement: Dict[str, Any]) -> int:
    """First source pull to the return of ``run()``: the throughput window."""
    stamps = measurement["stamps"]
    return stamps["run_return_ns"] - stamps["first_pull_ns"]


def self_time_table(measurement: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Rows ``{row, seconds, share}``: per stage on_item self and emit, then
    the remainder of the run's wall time (runtime overhead + idle).

    A stage's self time is its ``on_item`` total minus the part its
    ``emit`` children cover.  On one thread (the simulator) the rows
    partition the wall time; with parallel stages their sum can exceed
    it, which shows as a negative remainder rather than being hidden.
    """
    wall = run_wall_ns(measurement)
    rows = []
    covered = 0
    for stage, agg in sorted(measurement["stage_spans"].items()):
        rows.append((f"stage.{stage}.on_item self", agg["on_item_ns"] - agg["emit_ns"]))
        rows.append((f"stage.{stage}.emit", agg["emit_ns"]))
        covered += agg["on_item_ns"]
    rows.append(("remainder (runtime + idle)", wall - covered))
    return [
        {"row": name, "seconds": ns / 1e9, "share": ns / wall if wall else 0.0}
        for name, ns in rows
    ]


def stage_share(measurement: Dict[str, Any], prefix: str) -> float:
    """Summed ``on_item`` time of the stages named ``prefix*`` over the wall."""
    wall = run_wall_ns(measurement)
    total = sum(
        agg["on_item_ns"]
        for stage, agg in measurement["stage_spans"].items()
        if stage.startswith(prefix)
    )
    return total / wall if wall else 0.0


def emit_ns_per_call(measurement: Dict[str, Any]) -> float:
    calls = sum(agg["emit_calls"] for agg in measurement["stage_spans"].values())
    total = sum(agg["emit_ns"] for agg in measurement["stage_spans"].values())
    return total / calls if calls else 0.0


def render_table(rows: List[Dict[str, Any]]) -> str:
    width = max(len(r["row"]) for r in rows)
    return "\n".join(
        f"  {r['row']:<{width}}  {r['seconds']:>9.3f} s  {r['share']:>7.1%}" for r in rows
    )
