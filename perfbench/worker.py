"""Repeated passes of one workload, in a fresh process.

Run by run.py from the root of a kten checkout:

    python3 perfbench/worker.py --workload NAME --seed N --out DIR --budget S [--trace]

Times the set-up (importing kten.cli from ./src and writing the workload's
input files), then runs the workload in passes for about S seconds from the
start of the process: another pass starts unless it would end more than half
a pass past S. At least one pass runs. Each pass writes fresh inputs and
outputs under DIR/work-<k>, is timed on its own, and has every operation's
output checked and digested outside the timed region; the outputs are then
deleted. Writes DIR/report.json, and DIR/spans-<k>.json for each pass when
traced.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import kten.cli  # noqa: E402,F401

import numpy  # noqa: E402
import scipy  # noqa: E402
from scipy.integrate import IntegrationWarning  # noqa: E402

from kten.errors import MajorantInflationWarning, QuadratureTruncationWarning  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _warning_kind(w):
    if issubclass(w.category, MajorantInflationWarning):
        return "majorant_inflation"
    if issubclass(w.category, QuadratureTruncationWarning):
        return "quadrature_truncation"
    if issubclass(w.category, IntegrationWarning):
        return "integration"
    if w.category is UserWarning and "reduce dt" in str(w.message):
        return "reduce_dt"
    return "other"


def _run_pass(ops):
    """Run the operations in order; returns their results and the pass's
    warning counts and wall time."""
    results = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        for op in ops:
            t = time.perf_counter()
            result = error = None
            try:
                result = op.run()
            except Exception as exc:        # an uncaught error fails the operation
                error = f"{type(exc).__name__}: {exc}"
            results.append((result, error, time.perf_counter() - t))
        wall_s = time.perf_counter() - start
    counts = dict.fromkeys(("majorant_inflation", "reduce_dt", "integration",
                            "quadrature_truncation", "other"), 0)
    for w in caught:
        counts[_warning_kind(w)] += 1
    return results, counts, wall_s


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    if not Path(kten.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"kten imported from {kten.cli.__file__}, not from {ROOT / 'src'}")

    work = args.out / "work-0"
    work.mkdir(parents=True)
    ops = WORKLOADS[args.workload](args.seed, work)
    setup_s = time.perf_counter() - _T0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    passes, longest = [], 0.0
    while True:
        if passes:
            work = args.out / f"work-{len(passes)}"
            work.mkdir()
            ops = WORKLOADS[args.workload](args.seed, work)
        t = time.perf_counter()
        if tracer is not None:
            tracer.start_run(f"{args.out.parent.name}/{args.out.name}/pass{len(passes)}")
        results, counts, wall_s = _run_pass(ops)

        op_reports = []
        for op, (result, error, seconds) in zip(ops, results):
            problems = [error] if error else op.check(result)
            op_reports.append({"name": op.name, "seconds": seconds, "problems": problems,
                               "digest": None if error else op.digest(result)})
        shutil.rmtree(work)             # snapshots are large; digests are in the report
        one = {"wall_s": wall_s, "ops": op_reports, "warnings": counts}
        if tracer is not None:
            tracer.write(args.out / f"spans-{len(passes)}.json")
            one["layers"] = tracing.layer_metrics(tracer.spans, counts)
        passes.append(one)
        if len(passes) == 1:
            # later passes add a little heap growth, and their number
            # follows the host's speed; the first pass is a fresh run's peak
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # ending up to half a pass late or early wastes the least of the budget
        longest = max(longest, time.perf_counter() - t)
        if time.perf_counter() - _T0 + longest / 2 > args.budget:
            break

    report = {
        "workload": args.workload, "seed": args.seed, "traced": args.trace,
        "setup_s": setup_s, "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    (args.out / "report.json").write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
