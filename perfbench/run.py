"""kten benchmark: end-to-end and per-layer metrics of three CLI workloads.

Run from the root of a kten checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run starts PROCESSES fresh worker processes (perfbench/worker.py), one
after another, and gives each an equal share of the S seconds left. A worker
imports kten from ./src, writes its inputs from the seed, and then runs the
workload's operations through kten.cli.dispatch in passes until its share is
used, checking the outputs of each pass outside its timed region.

--trace 0 reports the end-to-end metrics listed in BENCHMARK.json: wall time
as the median over all passes, set-up time over the processes. --trace 1
traces the passes of every worker but the first; it reports the per-layer
metrics (medians over the traced passes) and the tracing overhead. Either way
an operation fails when it exits non-zero, fails a check, or its output digest
differs from the first pass's. The last line of standard output is one JSON
object: correct, attempted, failed and metrics. Run records, spans and
provenance go to .perfbench_runs/ in the checkout."""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Fresh processes per run: each gives one set-up time. More would spend the
# run on importing scipy instead of on the workload.
PROCESSES = 3
# A run must end within 180 s; no worker starts that could end past this.
HARD_LIMIT_S = 160.0
# One BLAS thread: the plain single-threaded baseline on a shared host.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Per-layer counts that must repeat exactly between traced passes.
EXACT_COUNTS = ("simulator.step.calls", "simulator.candidates", "simulator.accepted",
                "simulator.majorant_inflations", "simulator.reduce_dt_warnings",
                "simulator.snapshot_write.bytes", "simulator.snapshot_read.bytes",
                "tails.tail_histogram.calls", "cancellation.s1.evals",
                "kernels.plane_evals", "geometry.pairs", "density.radial_moment.calls",
                "cli.output_bytes")


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _git_sha(root):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_sha256(root):
    h = hashlib.sha256()
    for p in sorted((root / "src" / "kten").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _run_worker(root, run_dir, index, args, traced, budget, time_left):
    out = run_dir / f"proc{index}{'-traced' if traced else ''}"
    cmd = [sys.executable, str(root / "perfbench" / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--out", str(out),
           "--budget", str(budget)]
    if traced:
        cmd.append("--trace")
    env = {**os.environ, **BLAS_ENV}
    with open(run_dir / f"proc{index}.log", "w") as log:
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=time_left)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            _fail(f"worker {index} ran out of time; see {log.name}")
    if code != 0 or not (out / "report.json").is_file():
        _fail(f"worker {index} exited with code {code}; see {run_dir}/proc{index}.log")
    return json.loads((out / "report.json").read_text())


def _median_metrics(dicts):
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "kten" / "__init__.py").is_file():
        _fail("run from the root of a kten checkout: src/kten is missing")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        _fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run_dir = root / ".perfbench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    start = time.perf_counter()
    reports, longest = [], 0.0
    for index in range(PROCESSES):
        elapsed = time.perf_counter() - start
        if elapsed + 1.5 * longest > HARD_LIMIT_S:
            _fail(f"only {index} of {PROCESSES} workers fit in {HARD_LIMIT_S} s")
        budget = (args.seconds - elapsed) / (PROCESSES - index)
        t = time.perf_counter()
        reports.append(_run_worker(root, run_dir, index, args, bool(args.trace) and index > 0,
                                   budget, HARD_LIMIT_S + 15.0 - elapsed))
        longest = max(longest, time.perf_counter() - t)

    # an operation fails on any problem or on a digest unlike the first pass's
    reference = {op["name"]: op["digest"] for op in reports[0]["passes"][0]["ops"]}
    attempted = failed = 0
    failures = []
    for i, rep in enumerate(reports):
        for k, one in enumerate(rep["passes"]):
            for op in one["ops"]:
                attempted += 1
                problems = list(op["problems"])
                if op["digest"] != reference[op["name"]]:
                    problems.append("output digest differs from the first pass")
                if problems:
                    failed += 1
                    failures.append(f"worker {i} pass {k} {op['name']}: {'; '.join(problems)}")
    correct = failed == 0

    plain = [one for r in reports if not r["traced"] for one in r["passes"]]
    traced = [one for r in reports if r["traced"] for one in r["passes"]]
    end_to_end = {
        "wall_s": statistics.median(one["wall_s"] for one in plain),
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports
                                         if not r["traced"]),
        "ok_frac": 1.0 - failed / attempted,
    }
    if args.trace:
        layers = [one["layers"] for one in traced]
        for key in EXACT_COUNTS:
            if len({d[key] for d in layers}) > 1:
                correct = False
                failures.append(f"{key} differs between traced passes: "
                                f"{[d[key] for d in layers]}")
        values = _median_metrics(layers)
        values["trace.overhead_s"] = (statistics.median(one["wall_s"] for one in traced)
                                      - end_to_end["wall_s"])
    else:
        values = end_to_end

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        _fail(f"metrics listed in BENCHMARK.json but not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "processes": len(reports),
        "passes": len(plain) + len(traced), "traced_passes": len(traced),
        "nproc": os.cpu_count(), "blas_threads": BLAS_ENV,
        **reports[0]["versions"],
        "git_sha": _git_sha(root), "src_sha256": _source_sha256(root),
        "warnings": reports[0]["passes"][0]["warnings"],
    }
    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps(
        {**summary, "provenance": provenance, "failures": failures,
         "end_to_end": end_to_end, "workers": reports}, indent=1) + "\n")

    for line in failures:
        print(f"FAILED {line}")
    print(f"failed_frac: {failed / attempted} 1 ({failed} of {attempted} operations)")
    for name, m in metrics.items():
        print(f"{name}: {m['value']} {m['unit']}")
    print(f"provenance: {json.dumps(provenance, sort_keys=True)}")
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
