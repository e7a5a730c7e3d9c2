"""The benchmark's one command.

Two ways to call it::

    python3 bench/run.py --workload W --seed S --seconds T --trace 0|1
    python3 bench/run.py --seed S [--quick] [--trace] [--layers] [--selfcheck [--sets N]]

The first form is the contract ``BENCHMARK.json`` names: one workload,
measured for about ``T`` seconds as repeated **fresh child processes**
(``bench/child.py``), every metric reported as the **median** over
those runs — the host's time metrics scaled to a host of reference speed
(``bench/hostspeed.py``) — one JSON object on the last line of stdout.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` runs the workload once with
tracing and once without, runs the probes of the layers that workload
exercises, and prints the per-layer metrics.

The second form runs every workload (five runs each unless ``--quick``),
prints every metric by name with its unit, and writes
``bench/out/results.json``.  ``--selfcheck`` runs whole sets twice (or
``--sets N`` times) and fails when the sets' medians of any end-to-end
metric differ by more than its bound.

Any output-check failure makes the exit code non-zero.  This file
imports only the standard library, ``bench/spans.py`` and
``bench/hostspeed.py``; the program under test is imported by the child
processes alone.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from bench import hostspeed  # noqa: E402
from bench import spans as bench_spans  # noqa: E402

OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
#: Fewest fresh-process runs behind any reported median.
MIN_RUNS = 3
FULL_SET_RUNS = 5
QUICK_SCALE = 0.1
CHILD_TIMEOUT_S = 45
#: Timed seconds per probed metric (a tenth of it under ``--quick``).
PROBE_BUDGET_S = 0.5


#: (traced) share metrics: name -> (workload-name prefix naming the runtime,
#: prefix of the stage names whose ``on_item`` time is summed).
STAGE_SHARES = {
    "net.worker.on_item_share.relay": ("net", "relay"),
    "net.worker.on_item_share.sink": ("net", "sink"),
    "core.runtime_threads.on_item_share.filter": ("threaded", "filter"),
    "core.runtime_threads.on_item_share.join": ("threaded", "join"),
    "core.runtime_sim.on_item_share.filter": ("sim", "filter"),
}


class BenchError(Exception):
    """A child failed or produced output the driver cannot use."""


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def fingerprint() -> Dict[str, Any]:
    """Where the numbers were taken: interpreter, core count, load."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


# -- running children -----------------------------------------------------------------


def spawn(args: Sequence[str]) -> Dict[str, Any]:
    """Run ``bench/child.py`` in a fresh interpreter; its last stdout line.

    The child leads its own session, so a hung run is killed together
    with the worker processes it spawned and nothing outlives this call.
    """
    child = subprocess.Popen(
        [sys.executable, CHILD, *args],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise BenchError(f"child {' '.join(args)} exceeded {CHILD_TIMEOUT_S}s") from None
    if child.returncode != 0:
        raise BenchError(f"child {' '.join(args)} exited {child.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"child {' '.join(args)} printed nothing")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, scale: float, trace: bool = False) -> Dict[str, Any]:
    """One fresh-process run."""
    return spawn([workload, str(seed), "--scale", repr(scale)] + (["--trace"] if trace else []))


def repeat(
    workload: str, seed: int, scale: float, runs: Optional[int] = None, seconds: float = 0.0
) -> Tuple[List[Dict[str, Any]], List[float]]:
    """``runs`` fresh-process runs; without ``runs``, as many as fit in
    ``seconds`` and never fewer than MIN_RUNS.  Also the host-speed slices
    timed before the first run and after each."""
    out: List[Dict[str, Any]] = []
    slices: List[float] = [hostspeed.slice_us()]
    begin = time.monotonic()
    while True:
        started = time.monotonic()
        out.append(run_workload(workload, seed, scale))
        # A tenth of the run it follows, so a long run is not judged by a
        # shorter look at the host than a short one.
        slices.append(hostspeed.slice_us(max(hostspeed.SLICE_S, 0.1 * (time.monotonic() - started))))
        now = time.monotonic()
        if runs:
            done = len(out) >= runs
        else:
            done = len(out) >= MIN_RUNS and now - begin + (now - started) > seconds
        if done:
            return out, slices


# -- reducing runs to a report ----------------------------------------------------------


def quartiles(values: Sequence[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def summarize(
    spec: Dict[str, Any], runs: List[Dict[str, Any]], slices: Sequence[float]
) -> Dict[str, Any]:
    """Median and quartiles per end-to-end metric, plus the output checks
    that need more than one run: on the simulator the top-10 and every
    exact count must be identical across runs.

    ``raw`` is the median as measured.  ``value``, the reported number, is
    ``raw`` brought to a host of reference speed where the metric is a time
    of this host (the run's ``host_timed``): a time is divided by
    ``host_speed`` = median(slices) / REFERENCE_US, a rate multiplied."""
    host_speed = statistics.median(slices) / hostspeed.REFERENCE_US
    errors = [f"run {i}: {e}" for i, run in enumerate(runs) for e in run["errors"]]
    first = runs[0]["exact"]
    for i, run in enumerate(runs[1:], 1):
        for key, value in run["exact"].items():
            if value != first.get(key):
                errors.append(f"run {i}: {key} = {value!r}, run 0 had {first.get(key)!r}")
    metrics = {}
    for metric in spec["end_to_end"]:
        values = [run["end_to_end"][metric["name"]] for run in runs]
        q1, median, q3 = quartiles(values)
        scale = 1.0
        if metric["name"] in runs[0]["host_timed"]:
            scale = host_speed if metric["better"] == "higher" else 1.0 / host_speed
        metrics[metric["name"]] = {
            "value": median * scale, "unit": metric["unit"], "raw": median,
            "q1": q1, "q3": q3, "runs": values,
        }
    layer_names = sorted({name for run in runs for name in run["layers"]})
    return {
        "workload": runs[0]["workload"],
        "seed": runs[0]["seed"],
        "runs": len(runs),
        "items_per_run": runs[0]["items"],
        "ops_attempted": sum(run["ops_attempted"] for run in runs),
        "ops_failed": sum(run["ops_failed"] for run in runs),
        "errors": errors,
        "host_speed": host_speed,
        "host_slices_us": list(slices),
        # Per run, what explains an odd one: late pulls, the generator's
        # worst wake-up, CPU the host withheld (results.json only).
        "run_info": [run["info"] for run in runs],
        "end_to_end": metrics,
        "run_layers": {
            name: statistics.median(
                run["layers"][name] for run in runs if name in run["layers"]
            )
            for name in layer_names
        },
    }


def run_probes(seed: int, budget_s: float, workload: Optional[str] = None) -> Dict[str, Any]:
    """``{metric: {"value", "workloads"}}`` from the probes — all of them, or
    those of the layers ``workload`` exercises; ``budget_s`` timed seconds
    per metric."""
    return spawn(["layers", str(seed), "--budget", repr(budget_s)]
                 + (["--only", workload] if workload else []))


def traced_report(
    spec: Dict[str, Any], workload: str, seed: int, scale: float, probes: Dict[str, Any]
) -> Dict[str, Any]:
    """One traced run and one untraced run; with ``probes``, every per-layer
    metric that applies to ``workload``.  One that does not apply (the
    workload bypasses the layer) has the value ``None``."""
    traced = run_workload(workload, seed, scale, trace=True)
    plain = run_workload(workload, seed, scale)

    layers = {
        name: probe["value"] for name, probe in probes.items() if workload in probe["workloads"]
    }
    # Counts come from the untraced run; spans, by definition, from the traced.
    layers.update(plain["layers"])
    events = "core.runtime_sim.events_per_item"
    if events in traced["layers"]:
        layers[events] = traced["layers"][events]
    runtime = workload.split("-", 1)[0]
    for name, (hosted_by, stage_prefix) in STAGE_SHARES.items():
        if runtime == hosted_by:
            layers[name] = bench_spans.stage_share(traced, stage_prefix)
    layers["core.api.emit_ns_per_call"] = bench_spans.emit_ns_per_call(traced)
    layers["trace.overhead_ratio"] = (
        bench_spans.run_wall_ns(traced) / bench_spans.run_wall_ns(plain)
    )

    table = bench_spans.self_time_table(traced)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{workload}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({
            "workload": workload, "seed": seed,
            "spans": bench_spans.build_spans(traced, f"{workload}-{seed}"),
            "self_time": table,
            "overhead_ratio": layers["trace.overhead_ratio"],
        }, handle, indent=1)

    unlisted = sorted(set(layers) - {m["name"] for m in spec["per_layer"]})
    if unlisted:
        raise BenchError(f"per-layer metrics not in BENCHMARK.json: {unlisted}")
    runs = [traced, plain]
    return {
        "workload": workload, "seed": seed,
        "ops_attempted": sum(r["ops_attempted"] for r in runs),
        "ops_failed": sum(r["ops_failed"] for r in runs),
        "errors": [e for r in runs for e in r["errors"]],
        "per_layer": {
            m["name"]: {"value": layers.get(m["name"]), "unit": m["unit"]}
            for m in spec["per_layer"]
        },
        "self_time": table,
        "trace_file": os.path.relpath(path, ROOT),
    }


def not_applicable(report: Dict[str, Any]) -> List[str]:
    return [name for name, m in report["per_layer"].items() if m["value"] is None]


def contract_line(report: Dict[str, Any], key: str) -> str:
    """The one JSON object the driver reads from the last line of stdout.

    The contract wants a number for every declared metric on every
    workload, so a per-layer metric that does not apply to this workload
    is written as 0 here; the lines above it and ``results.json`` name
    those metrics, and ``results.json`` keeps them as ``null``."""
    return json.dumps({
        "correct": not report["errors"],
        "attempted": report["ops_attempted"],
        "failed": report["ops_failed"],
        "metrics": {
            name: {"value": 0.0 if m["value"] is None else m["value"], "unit": m["unit"]}
            for name, m in report[key].items()
        },
    })


# -- the full set, for people ---------------------------------------------------------------


def full_set(spec: Dict[str, Any], args: argparse.Namespace) -> Dict[str, Any]:
    scale = QUICK_SCALE if args.quick else 1.0
    runs = 1 if args.quick else FULL_SET_RUNS
    results: Dict[str, Any] = {"fingerprint": fingerprint(), "seed": args.seed,
                               "quick": args.quick, "workloads": {}}
    probes: Dict[str, Any] = {}
    if args.trace or args.layers:
        probes = run_probes(args.seed, PROBE_BUDGET_S * scale)
        results["layers"] = {name: probe["value"] for name, probe in probes.items()}
    for entry in spec["workloads"]:
        name = entry["name"]
        report = summarize(spec, *repeat(name, args.seed, scale, runs=runs))
        results["workloads"][name] = report
        print_report(report)
        if args.trace:
            report["traced"] = traced_report(spec, name, args.seed, scale, probes)
            print_traced(report["traced"], skip=probes)
    if args.trace:
        # A name no workload produced is a misspelt or dead metric, not a bypassed layer.
        dead = set.intersection(*(
            set(not_applicable(report["traced"])) for report in results["workloads"].values()
        ))
        if dead:
            raise BenchError(f"per-layer metrics no workload produced: {sorted(dead)}")
    if args.layers:
        print("\nlayer probes (median of 5 chunks)")
        for name, value in results["layers"].items():
            print(f"  {name:<58} {value:>14.3f} {unit_of(spec, name)}")
    return results


def unit_of(spec: Dict[str, Any], name: str) -> str:
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if metric["name"] == name:
            return metric["unit"]
    return ""


def print_report(report: Dict[str, Any]) -> None:
    print(f"\n{report['workload']}  (seed {report['seed']}, {report['runs']} runs of "
          f"{report['items_per_run']} items; host at {report['host_speed']:.3f}x the "
          f"reference chunk time)")
    for name, m in report["end_to_end"].items():
        print(f"  {name:<26} {m['value']:>14.4f} {m['unit']:<8} "
              f"[as measured: median {m['raw']:.4f}, q1 {m['q1']:.4f}, q3 {m['q3']:.4f}]")
    print(f"  {'ops_attempted':<26} {report['ops_attempted']:>14d}")
    print(f"  {'ops_failed':<26} {report['ops_failed']:>14d}")
    for error in report["errors"]:
        print(f"  CHECK FAILED: {error}")


def print_traced(report: Dict[str, Any], skip: Sequence[str] = ()) -> None:
    """The self-time table, then every per-layer metric that applies to the
    workload and is not named in ``skip``, then the names that do not apply."""
    print(f"  trace -> {report['trace_file']}")
    print(bench_spans.render_table(report["self_time"]))
    for name, m in report["per_layer"].items():
        if name not in skip and m["value"] is not None:
            print(f"  {name:<58} {m['value']:>14.4f} {m['unit']}")
    print(f"  not applicable to {report['workload']} (the workload bypasses the layer): "
          + " ".join(not_applicable(report)))
    for error in report["errors"]:
        print(f"  CHECK FAILED: {error}")


def failed(results: Dict[str, Any]) -> bool:
    return any(
        report["errors"] or report.get("traced", {}).get("errors")
        for report in results["workloads"].values()
    )


def write_results(results: Dict[str, Any]) -> None:
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "results.json"), "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)


def selfcheck(spec: Dict[str, Any], args: argparse.Namespace) -> int:
    """Sets of the same code must agree within every bound.

    Per workload and end-to-end metric, the sets' medians may differ by at
    most the metric's bound (largest minus smallest, as a share of their
    median); anything further apart fails.  With three or more sets the
    printed spread calibrates the bounds: a bound should be at least twice
    the spread.
    """
    sets = [full_set(spec, args) for _ in range(args.sets)]
    write_results({"fingerprint": fingerprint(), "sets": sets})
    status = 1 if any(failed(s) for s in sets) else 0
    print(f"\nselfcheck over {len(sets)} sets")
    for entry in spec["workloads"]:
        for metric in spec["end_to_end"]:
            medians = [
                s["workloads"][entry["name"]]["end_to_end"][metric["name"]]["value"] for s in sets
            ]
            spread = (max(medians) - min(medians)) / statistics.median(medians)
            agree = spread <= metric["bound"]
            if not agree:
                status = 1
            print(f"  {entry['name']:<22} {metric['name']:<26} spread {spread:>7.2%}  "
                  f"bound {metric['bound']:>6.1%}  {'ok' if agree else 'FAIL'}")
    return status


# -- entry point -------------------------------------------------------------------------------


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description="GATES reproduction benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--layers", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args(argv)

    # Before anything is timed or spawned: the slices, the children and
    # their workers all run on the one CPU this process now keeps to.
    hostspeed.pin_to_one_cpu()
    spec = load_spec()
    if args.selfcheck:
        return selfcheck(spec, args)
    if args.workload is None:
        results = full_set(spec, args)
        write_results(results)
        return 1 if failed(results) else 0

    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    scale = QUICK_SCALE if args.quick else 1.0
    if args.trace:
        probes = run_probes(args.seed, PROBE_BUDGET_S * scale, args.workload)
        report = traced_report(spec, args.workload, args.seed, scale, probes)
        print_traced(report)
        key = "per_layer"
    else:
        report = summarize(spec, *repeat(args.workload, args.seed, scale, seconds=seconds))
        print_report(report)
        key = "end_to_end"
    write_results({"fingerprint": fingerprint(), "seed": args.seed,
                   "workloads": {args.workload: report}})
    print(contract_line(report, key))
    return 1 if report["errors"] else 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
