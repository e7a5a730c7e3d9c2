"""Command-line interface.

``python -m repro <command>`` drives the experiment harness and the
configuration tooling without writing any Python:

* ``fig5`` / ``fig6-7`` / ``fig8`` / ``fig9`` — regenerate one evaluation
  artifact and print it beside the paper's numbers (the one printer of
  each figure; flags control scale so quick runs are possible);
* ``report [export.jsonl]`` — render a run summary (per-stage table,
  latency decomposition from hop traces, adaptation charts); with no
  argument it runs the built-in quickstart demo, with ``--export``
  it writes a JSONL/CSV export;
* ``chaos`` — run the fault-tolerance demo (mid-run host crash with live
  failover, optional link loss and poison items) and print the recovery
  report;
* ``netdemo`` — run count-samps across real worker OS processes on
  localhost (the :mod:`repro.net` runtime) and print the wire-level
  channel report;
* ``worker`` — run one networked worker process and wait for a
  coordinator (advanced: ``netdemo`` spawns its own workers);
* ``check <config.xml>`` — run the full static verifier over an
  application configuration (graph, adaptation, placement, checkpoint
  and wire passes; see docs/static_analysis.md), printing a rustc-style
  report or ``--json``;
* ``lint [paths...]`` — run the AST lint suite over the source tree;
* ``analyze [paths...]`` — run the whole-program concurrency analysis
  and the protocol model checker / conformance pass (GA6xx);
* ``topology <config.xml>`` — print the placement a default star fabric
  would give the configuration (dry-run deployment);
* ``replay [run.ledger]`` — record a run into a hash-chained ledger
  (``--record DIR``), or replay a recorded ledger on any runtime and
  assert bit-identical sink output.

``worker``, ``lint`` and ``analyze`` are their modules' own ``main(argv)``
(:mod:`repro.net.worker`, :mod:`repro.analysis.lint`,
:mod:`repro.analysis.analyze`), which define their flags; this module
hands them the rest of the command line untouched.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import TYPE_CHECKING, List, Optional, Sequence

if TYPE_CHECKING:
    from repro.grid.config import AppConfig

__all__ = ["main"]


def _parse_seeds(text: str) -> Sequence[int]:
    try:
        seeds = tuple(int(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed list {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError("seed list is empty")
    return seeds


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GATES (HPDC 2004) reproduction — experiments and tooling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig5 = sub.add_parser("fig5", help="Figure 5: centralized vs distributed")
    fig5.add_argument("--items", type=int, default=25_000,
                      help="integers per source (default 25000)")
    fig5.add_argument("--seeds", type=_parse_seeds, default=(0, 1, 2),
                      help="comma-separated seeds to average (default 0,1,2)")
    fig5.add_argument("--json", dest="json_path", default=None,
                      help="also write the rows as JSON to this path")

    fig67 = sub.add_parser("fig6-7", help="Figures 6/7: versions x bandwidths")
    fig67.add_argument("--items", type=int, default=25_000)
    fig67.add_argument("--seeds", type=_parse_seeds, default=None,
                       help="comma-separated seeds to average (default: "
                            "fig6_7.SEEDS, the seeds EXPERIMENTS.md reports)")
    fig67.add_argument("--json", dest="json_path", default=None)

    fig8 = sub.add_parser("fig8", help="Figure 8: processing constraint")
    fig8.add_argument("--duration", type=float, default=400.0,
                      help="simulated seconds per version (default 400)")
    fig8.add_argument("--json", dest="json_path", default=None)

    fig9 = sub.add_parser("fig9", help="Figure 9: network constraint")
    fig9.add_argument("--duration", type=float, default=400.0)
    fig9.add_argument("--json", dest="json_path", default=None)

    report = sub.add_parser(
        "report",
        help="render a run summary (per-stage table, latency decomposition, "
             "adaptation charts)",
    )
    report.add_argument(
        "source", nargs="?", default=None,
        help="a JSONL run export to report on; omitted = run the built-in "
             "quickstart demo with tracing enabled",
    )
    report.add_argument("--trace-every", type=int, default=1,
                        help="hop-trace every N-th item in the demo run "
                             "(default 1 = every item)")
    report.add_argument("--export", choices=("jsonl", "csv"), default=None,
                        help="also export the run in this format")
    report.add_argument("--out", default=None,
                        help="export path (JSONL file, or CSV base path "
                             "producing <out>.stages.csv/<out>.metrics.csv); "
                             "required with --export")

    chaos = sub.add_parser(
        "chaos",
        help="run the fault-tolerance demo: crash a host mid-run (or drift "
             "it and migrate live), and print the recovery report",
    )
    chaos.add_argument("--scenario", choices=("crash", "migrate"),
                       default="crash",
                       help="crash = host failure + failover (default); "
                            "migrate = resource drift + planned live "
                            "migration with a bounded pause")
    chaos.add_argument("--items", type=int, default=500,
                       help="items fed to the pipeline (default 500)")
    chaos.add_argument("--fail-at", type=float, default=1.0,
                       help="simulated second the edge host crashes "
                            "(default 1.0; negative = no crash)")
    chaos.add_argument("--checkpoint-interval", type=float, default=0.5,
                       help="simulated seconds between checkpoints (default 0.5)")
    chaos.add_argument("--loss", type=float, default=0.0,
                       help="per-send transmission failure probability "
                            "(default 0 = reliable links)")
    chaos.add_argument("--poison-every", type=int, default=None,
                       help="payloads divisible by N raise in the work stage")
    chaos.add_argument("--policy", choices=("fail", "skip", "dead-letter"),
                       default="dead-letter",
                       help="error policy for poison items (default dead-letter)")
    chaos.add_argument("--drift-at", type=float, default=1.0,
                       help="[migrate] simulated second the edge host starts "
                            "slowing down (default 1.0)")
    chaos.add_argument("--drift-factor", type=float, default=0.2,
                       help="[migrate] final speed as a fraction of nominal "
                            "(default 0.2)")

    netdemo = sub.add_parser(
        "netdemo",
        help="run count-samps across real worker OS processes (repro.net) "
             "and print the wire-level channel report",
    )
    netdemo.add_argument("--workers", type=int, default=3,
                         help="worker processes to spawn (default 3)")
    netdemo.add_argument("--items", type=int, default=4000,
                         help="integers per source (default 4000)")
    netdemo.add_argument("--seed", type=int, default=11,
                         help="payload RNG seed (default 11)")
    netdemo.add_argument("--join-cost-ms", type=float, default=2.0,
                         help="milliseconds of modeled work per summary at "
                              "the join (default 2.0; higher = more overload "
                              "exceptions)")
    netdemo.add_argument("--timeout", type=float, default=90.0,
                         help="abort the run after this many seconds")
    netdemo.add_argument("--no-verify", action="store_true",
                         help="skip the static pre-deploy verifier "
                              "(repro check) on the generated config")

    # lint, analyze and worker own their flags: main() hands such a verb
    # the rest of its argv, and these entries only list it under --help.
    sub.add_parser(
        "worker",
        help="run one networked worker process and wait for a coordinator",
    )

    check = sub.add_parser(
        "check",
        help="statically verify an application XML config (graph, "
             "adaptation, placement, checkpoint and wire passes)",
    )
    check.add_argument("config", help="path to the XML configuration file")
    check.add_argument("--json", action="store_true",
                       help="emit the machine-readable JSON report")
    check.add_argument("--sources", type=int, default=4,
                       help="source hosts in the placement dry-run star "
                            "fabric (default 4)")
    check.add_argument("--bandwidth", type=float, default=100_000.0,
                       help="dry-run link bandwidth in bytes/s (default 100000)")

    sub.add_parser(
        "lint",
        help="run the AST lint suite (metric catalog, determinism, async "
             "hygiene, checkpoint contract) over the source tree",
    )
    sub.add_parser(
        "analyze",
        help="run the whole-program concurrency analysis (lock order, locks "
             "across waits, guarded state) and the protocol model checker "
             "with model<->code conformance (GA6xx)",
    )

    topology = sub.add_parser(
        "topology", help="dry-run placement of a config on a star fabric"
    )
    topology.add_argument("config", help="path to the XML configuration file")
    topology.add_argument("--sources", type=int, default=4,
                          help="source hosts in the star (default 4)")
    topology.add_argument("--bandwidth", type=float, default=100_000.0,
                          help="link bandwidth in bytes/s (default 100000)")

    replay = sub.add_parser(
        "replay",
        help="record a run into a hash-chained ledger, or replay a "
             "recorded ledger on any runtime and assert bit-identical "
             "sink output (see docs/replay.md)",
    )
    replay.add_argument("ledger", nargs="?", default=None,
                        help="a recorded run.ledger to replay; omitted = "
                             "record a fresh demo run (requires --record)")
    replay.add_argument("--record", metavar="DIR", default=None,
                        help="record the demo pipeline into DIR and print "
                             "the ledger path and digests")
    replay.add_argument("--runtime", choices=("sim", "threaded", "net"),
                        default="sim",
                        help="runtime to record or replay on (default sim)")
    replay.add_argument("--items", type=int, default=96,
                        help="[--record] source items to feed (default 96)")
    replay.add_argument("--chaos", action="store_true",
                        help="[--record, sim only] inject a host crash with "
                             "failover, a live migration, and a shard "
                             "scale-up mid-run")
    replay.add_argument("--json", action="store_true",
                        help="emit the machine-readable JSON summary/report")
    return parser


def _write_json(path, rows) -> None:
    """Dump dataclass rows (or dicts) as a JSON array."""
    import dataclasses
    import json

    payload = [
        dataclasses.asdict(row) if dataclasses.is_dataclass(row) else row
        for row in rows
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)


def _cmd_fig5(args: argparse.Namespace) -> int:
    from repro.experiments import fig5

    rows = fig5.run_fig5(items_per_source=args.items, seeds=tuple(args.seeds))
    print("Figure 5: Benefits of Distributed Processing")
    for row in rows:
        print(
            f"  {row.processing_style:<12} exec={row.execution_time:8.1f}s "
            f"accuracy={row.accuracy:.3f} bytes={row.bytes_to_center:.0f}"
        )
    print("(paper: Centralized 257.5 s / 0.99; Distributed 180.8 s / 0.97)")
    if args.json_path:
        _write_json(args.json_path, rows)
    return 0


def _cmd_fig67(args: argparse.Namespace) -> int:
    from repro.experiments import fig6_7

    seeds = fig6_7.SEEDS if args.seeds is None else tuple(args.seeds)
    rows = fig6_7.run_fig6_7(items_per_source=args.items, seeds=seeds)
    print("Figures 6 & 7: execution time and accuracy vs bandwidth")
    print(f"{'bandwidth':>12} {'version':>9} {'exec (s)':>10} {'accuracy':>9} "
          f"{'final k':>8}")
    for row in rows:
        print(
            f"{row.bandwidth/1000:>10.0f}KB {row.version:>9} "
            f"{row.execution_time:>10.1f} {row.accuracy:>9.3f} {row.final_k:>8.0f}"
        )
    if args.json_path:
        _write_json(args.json_path, rows)
    return 0


def _cmd_fig8(args: argparse.Namespace) -> int:
    from repro.experiments import fig8

    rows = fig8.run_fig8(duration_seconds=args.duration)
    print("Figure 8: sampling factor chosen under a processing constraint")
    for row in rows:
        print(
            f"  cost={row.ms_per_byte:5.1f} ms/B converged={row.converged_rate:.3f} "
            f"feasible={row.feasible_rate:.3f}"
        )
    print("(paper: converges to 1, 1, .65, .55, .31)")
    if args.json_path:
        _write_json(args.json_path, rows)
    return 0


def _cmd_fig9(args: argparse.Namespace) -> int:
    from repro.experiments import fig9

    rows = fig9.run_fig9(duration_seconds=args.duration)
    print("Figure 9: sampling factor chosen under a network constraint")
    for row in rows:
        print(
            f"  gen={row.generation_rate/1000:4.0f}KB/s "
            f"converged={row.converged_rate:.3f} feasible={row.feasible_rate:.3f}"
        )
    print("(paper: converges to ~1, ~1, ~.5, ~.25, ~.125)")
    if args.json_path:
        _write_json(args.json_path, rows)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.export import export_csv, export_jsonl, load_jsonl
    from repro.obs.report import render_report, run_quickstart_demo

    if args.export and not args.out:
        print("--export requires --out", file=sys.stderr)
        return 1
    if args.trace_every < 1:
        print("--trace-every must be >= 1", file=sys.stderr)
        return 1
    if args.source is not None:
        try:
            result = load_jsonl(args.source)
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot load {args.source!r}: {exc}", file=sys.stderr)
            return 1
    else:
        result = run_quickstart_demo(trace_every=args.trace_every)
    print(render_report(result))
    if args.export == "jsonl":
        count = export_jsonl(result, args.out)
        print(f"\nexported {count} JSONL records to {args.out}")
    elif args.export == "csv":
        paths = export_csv(result, args.out)
        print(f"\nexported CSV to {', '.join(paths)}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.obs.report import render_report
    from repro.resilience.demo import run_chaos_demo, run_migrate_demo

    if args.items < 1:
        print("--items must be >= 1", file=sys.stderr)
        return 1
    if not 0.0 <= args.loss < 1.0:
        print("--loss must be in [0, 1)", file=sys.stderr)
        return 1
    if args.scenario == "migrate":
        if not 0.0 < args.drift_factor < 1.0:
            print("--drift-factor must be in (0, 1)", file=sys.stderr)
            return 1
        result, summary = run_migrate_demo(
            items=args.items,
            drift_at=args.drift_at,
            drift_factor=args.drift_factor,
            checkpoint_interval=args.checkpoint_interval,
        )
        print(render_report(result))
        print("\nmigration summary")
        print(f"  items fed        : {summary['items_fed']}")
        print(f"  sink received    : {summary['sink_items']} "
              f"({summary['unique_items']} unique, "
              f"{summary['duplicates']:.0f} duplicates)")
        print(f"  work stage host  : {summary['work_host']}")
        print(f"  triggers         : {summary['triggers']:.0f}")
        print(f"  items replayed   : {summary['replayed']:.0f}")
        if summary["max_pause"] is not None:
            print(f"  migration pause  : {summary['max_pause']:.3f}s "
                  "(drain to item boundary + snapshot + restore)")
        for when, stage, reason, target in summary["decisions"]:
            print(f"  t={when:.2f}s {stage!r} re-placed ({reason}) "
                  f"-> {target!r}")
        for stage, old, new in summary["moves"]:
            print(f"  moved {stage!r}: {old} -> {new}")
        return 0
    fail_at = None if args.fail_at < 0 else args.fail_at
    result, summary = run_chaos_demo(
        items=args.items,
        fail_at=fail_at,
        checkpoint_interval=args.checkpoint_interval,
        loss=args.loss,
        policy=args.policy,
        poison_every=args.poison_every,
    )
    print(render_report(result))
    print("\nrecovery summary")
    print(f"  items fed        : {summary['items_fed']}")
    print(f"  sink received    : {summary['sink_items']} "
          f"({summary['unique_items']} unique, "
          f"{summary['duplicates']:.0f} replay duplicates)")
    print(f"  work stage host  : {summary['work_host']}")
    print(f"  failovers        : {summary['failovers']:.0f}")
    print(f"  checkpoints      : {summary['checkpoints']:.0f}")
    print(f"  items replayed   : {summary['replayed']:.0f} "
          f"(dropped by eviction: {summary['replay_dropped']:.0f})")
    print(f"  quarantined      : {summary['quarantined']:.0f} "
          f"(dead letters retained: {summary['dead_letters']})")
    print(f"  wire retries     : {summary['retries']:.0f}")
    if summary["recovery_latency"] is not None:
        print(f"  recovery latency : {summary['recovery_latency']:.3f}s "
              "(outage from last heartbeat to restart)")
    for when, host, moved in summary["recoveries"]:
        print(f"  t={when:.2f}s host {host!r} failed; "
              f"moved stages: {', '.join(moved) or '(none)'}")
    return 0


def _cmd_netdemo(args: argparse.Namespace) -> int:
    from repro.net.demo import run_netdemo

    if args.workers < 2:
        print("--workers must be >= 2", file=sys.stderr)
        return 1
    if args.items < 1:
        print("--items must be >= 1", file=sys.stderr)
        return 1
    result, summary = run_netdemo(
        workers=args.workers,
        items_per_source=args.items,
        seed=args.seed,
        join_cost_ms=args.join_cost_ms,
        timeout=args.timeout,
        verify=not args.no_verify,
    )
    print(f"networked count-samps across {args.workers} worker processes "
          f"({args.items} items/source, seed {args.seed})")
    print("placement")
    for stage, worker in summary["placement"].items():
        print(f"  {stage:<12} -> {worker}")
    print("final top-k")
    for value, count in summary["topk"]:
        print(f"  {value:>6} : {count:.0f}")
    print("wire channels (sender-side accounting)")
    header = (f"  {'channel':<12} {'frames':>7} {'bytes':>9} {'stalls':>7} "
              f"{'wait (s)':>9} {'peak':>5} {'excs':>5}")
    print(header)
    for channel in sorted(summary["channels"]):
        stats = summary["channels"][channel]
        print(f"  {channel:<12} {stats.get('frames', 0):>7.0f} "
              f"{stats.get('bytes', 0):>9.0f} "
              f"{stats.get('credit_stalls', 0):>7.0f} "
              f"{stats.get('credit_wait_seconds', 0):>9.3f} "
              f"{stats.get('in_flight_peak', 0):>5.0f} "
              f"{stats.get('exceptions', 0):>5.0f}")
    print("adaptation exceptions delivered over the wire: "
          f"{summary['wire_exceptions']:.0f}")
    print(f"execution time: {summary['execution_time']:.2f}s")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.analysis.verifier import check_document
    from repro.experiments.common import build_star_fabric

    fabric = build_star_fabric(args.sources, bandwidth=args.bandwidth)
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"cannot read {args.config!r}: {exc}", file=sys.stderr)
        return 1
    config, report = check_document(
        text, args.config, repository=fabric.repository, registry=fabric.registry,
    )
    # Any finding fails the run, and the verdict must not depend on the
    # output mode: a warning-only config exits 1 with and without --json.
    if args.json:
        print(report.render_json())
        return 0 if report.clean else 1
    if not report.ok:
        print(report.render_text(), file=sys.stderr)
        return 1
    if config is None or not report.clean:  # no config is an error above
        print(report.render_text())
        return 1
    _print_dag(config)
    return 0


def _print_dag(config: AppConfig) -> None:
    """The ``OK: ...`` banner and stage DAG printed by a clean ``check``."""
    print(f"OK: application {config.name!r}")
    print(f"  stages ({len(config.stages)}):")
    for stage in config.topological_stages():
        downstream = config.downstream_of(stage.name)
        arrow = f" -> {', '.join(downstream)}" if downstream else " (sink)"
        params = f" [{len(stage.parameters)} adjustable]" if stage.parameters else ""
        print(f"    {stage.name}{params}{arrow}")


def _cmd_topology(args: argparse.Namespace) -> int:
    from repro.grid.config import AppConfig, ConfigError
    from repro.grid.deployer import DeploymentError
    from repro.grid.fabric import build_star_fabric

    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = AppConfig.from_xml(handle.read())
    except (OSError, ConfigError) as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    fabric = build_star_fabric(args.sources, bandwidth=args.bandwidth)
    try:
        # The deployer's own admission and matching: replicas included.
        _, _, assignment = fabric.deployer.place(config, verify=False)
    except DeploymentError as exc:
        print(f"UNPLACEABLE: {exc}", file=sys.stderr)
        return 1
    print(f"placement of {config.name!r} on a {args.sources}-source star "
          f"({args.bandwidth:.0f} B/s links):")
    for stage, host in assignment.items():
        print(f"  {stage:<20} -> {host}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    import json as _json

    from repro.ledger.harness import ReplaySpec, record, replay

    if args.record is not None and args.ledger is not None:
        print("replay: give either --record DIR or a LEDGER path, not both",
              file=sys.stderr)
        return 2
    if args.record is not None:
        if args.chaos and args.runtime != "sim":
            print("replay: --chaos needs a fault fabric; only --runtime sim "
                  "supports it", file=sys.stderr)
            return 2
        spec = ReplaySpec(items=args.items, chaos=args.chaos)
        result = record(args.record, runtime=args.runtime, spec=spec)
        if args.json:
            print(_json.dumps(result.as_dict(), indent=2, sort_keys=True))
        else:
            print(f"recorded {args.runtime} run -> {result.ledger_path}")
            print(f"  records:   {result.counts.get('records', 0)} "
                  f"(ingress {result.counts.get('ingress', 0)}, "
                  f"reads {result.counts.get('reads', 0)}, "
                  f"sinks {result.counts.get('sinks', 0)}, "
                  f"decisions {result.counts.get('decisions', 0)})")
            print(f"  sink digest:  {result.sink_digest}")
            print(f"  state digest: {result.state_digest}")
            print(f"  effects: {len(result.effects)}  "
                  f"sink-dedup: {result.sink_duplicates}  "
                  f"delivery-dups: {result.delivery_duplicates}")
        return 0
    if args.ledger is None:
        print("replay: need a LEDGER path to replay, or --record DIR to "
              "record one", file=sys.stderr)
        return 2
    from repro.ledger.ledger import LedgerError

    try:
        report = replay(args.ledger, runtime=args.runtime)
    except (LedgerError, ValueError) as exc:
        print(f"replay: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary_line())
        if report.first_divergence is not None:
            print(f"  first divergence: {report.first_divergence}")
    return 0 if report.match else 1


_COMMANDS = {
    "fig5": _cmd_fig5,
    "fig6-7": _cmd_fig67,
    "fig8": _cmd_fig8,
    "fig9": _cmd_fig9,
    "report": _cmd_report,
    "chaos": _cmd_chaos,
    "netdemo": _cmd_netdemo,
    "check": _cmd_check,
    "topology": _cmd_topology,
    "replay": _cmd_replay,
}


#: Verbs whose module defines their flags: ``repro VERB ARGS`` is that
#: module's ``main(ARGS)`` (CI also runs them as ``python -m MODULE``).
_MODULE_VERBS = {
    "worker": "repro.net.worker",
    "lint": "repro.analysis.lint",
    "analyze": "repro.analysis.analyze",
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _MODULE_VERBS:
        module = importlib.import_module(_MODULE_VERBS[argv[0]])
        return module.main(argv[1:])
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
