"""One fresh-process run of one workload: ``child.py WORKLOAD SEED``.

``WORKLOAD`` may also be ``layers``: the per-layer probes of
``bench/layers.py`` (all of them, or with ``--only W`` those of the layers
workload ``W`` runs), which need the program importable just the same.

Prints a single JSON line — the :class:`bench.workloads.Measurement` of
the run — as the last line of stdout.  ``bench/run.py`` spawns one of
these per run, so every measurement starts from a cold interpreter.

This process is the only load generator.  It puts the repository root
(for ``py://bench.stages:...``) and ``src/`` on ``sys.path`` and on
``PYTHONPATH``, which the networked runtime's worker processes inherit.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
from time import monotonic_ns

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Linux caps AF_UNIX paths at 108 bytes; the runtime appends
#: ``repro-uds-XXXXXXXX/wN.sock`` (~28 bytes) to the temp dir.
_UDS_PATH_BUDGET = 70


def _use_checkout_tmpdir() -> None:
    """Keep the runtime's UNIX-socket directory inside the checkout.

    The networked runtime makes its socket directory with ``tempfile``.
    Pointing ``TMPDIR`` at ``bench/out/tmp`` keeps every write inside the
    checkout; a checkout path too long for an AF_UNIX address keeps the
    system default instead, so the transport under test never changes.
    """
    tmp = os.path.join(ROOT, "bench", "out", "tmp")
    if len(tmp) > _UDS_PATH_BUDGET:
        return
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = None


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--budget", type=float, default=0.5,
                        help="timed seconds per metric of the 'layers' pseudo-workload")
    parser.add_argument("--only", help="'layers': just the probes this workload exercises")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench: no program to measure at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, SRC]
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT, SRC] + ([inherited] if inherited else [])
    )
    _use_checkout_tmpdir()
    # run.py has pinned itself already and this process inherited it; a
    # child started by hand gets the same single CPU.
    from bench.hostspeed import pin_to_one_cpu

    pin_to_one_cpu()

    # Importing the program is set-up a user pays in every process, so it
    # is timed into ``setup_s``; generating the inputs is not.
    import_start = monotonic_ns()
    from bench.workloads import WORKLOADS

    import_s = (monotonic_ns() - import_start) / 1e9
    if args.workload == "layers":
        from bench.layers import run_probes

        print(json.dumps(run_probes(args.seed, args.budget, args.only)))
        return 0
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    measurement = WORKLOADS[args.workload](args.seed, args.scale, args.trace, import_s)
    print(json.dumps(dataclasses.asdict(measurement)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
