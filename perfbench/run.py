"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload plan-cold --seed 0 --seconds 25 \
        --trace 0

Workloads: ``plan-cold``, ``service-rush``, ``service-tenants`` (see
``BENCHMARK.json`` and ``perfbench/context.json``).  Inputs are a pure
function of ``--seed``.  The program under test is imported from the
checkout's ``src/``; without it the run fails before printing a result.

``--trace 0`` times the workload with tracing off and prints every
end-to-end metric, calibrated to the host's speed
(``perfbench/hostspeed.py``), with its raw value beside it.  ``--trace 1`` runs one untraced unit, then the same
unit with every layer's public functions wrapped in spans, prints the
per-layer table and the per-layer metrics, reports the tracing overhead
(traced time / untraced time) and writes the spans to
``.perfbench_out/``.  The last line of standard output is always one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.  The
exit code is 1 when any output check or operation failed.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("plan-cold", "service-rush", "service-tenants")
DEFAULT_SEED = 0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="length of the run on the reference host; it "
                        "sets how many units the main phase runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: every code path at toy size (tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.hostspeed import HostSampler  # standard library only

    sampler = HostSampler()
    if not args.trace:
        sampler.start()  # the import below is timed, so it is sampled too
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        import numpy  # noqa: F401  (part of the program's import cost)
        from perfbench import bench

        import_s = (_STARTED, time.perf_counter() - _STARTED)
        report = bench.run(args.workload, seed=args.seed,
                           seconds=args.seconds, trace=bool(args.trace),
                           scale=args.scale, import_s=import_s,
                           sampler=sampler, work=work,
                           out_dir=ROOT / ".perfbench_out")
    finally:
        sampler.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for line in report["lines"]:
        print(line)
    print(json.dumps(report["result"], sort_keys=True))
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
