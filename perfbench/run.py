"""Host-clock benchmark of the NeuroFlux reproduction.

    python3 perfbench/run.py --workload nf-tight --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  The workload's JobSpec or SweepSpec is
generated from ``--seed`` into ``.perfbench/`` (the program sees only that
file); every measuring process is a fresh interpreter with BLAS and OpenMP
pinned to one thread.  ``--trace 0`` measures the end-to-end metrics
(set-up time, throughput, peak RSS); ``--trace 1`` splits the run between
an untraced process and one that wraps the program's layers, and reports
per-layer counts and self times instead, with the tracing overhead.  The
last line of standard output is one JSON object::

    {"correct": true, "attempted": 8, "failed": 0, "metrics": {...}}

The exit status is 1 when any output check failed, 2 when the checkout does
not hold the program.  Raw values, probe times and the environment of every
run are kept in ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench"

#: Fresh-interpreter set-ups per run; the first only warms the bytecode cache.
SETUP_LAUNCHES = 7
#: Every run must finish well inside the 180 s a run is given.
RUN_DEADLINE_S = 170.0

PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def launch(
    mode: str, args, work: Path, spec_path: Path, tag: str, timeout: float,
    seconds: float = 0.0, trace: int = 0,
) -> dict:
    """Run one measuring process to completion and return its result."""
    out = work / f"{tag}.json"
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        mode,
        "--workload", args.workload,
        "--spec", str(spec_path),
        "--seed", str(args.seed),
        "--root", str(ROOT),
        "--work", str(work),
        "--out", str(out),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--launch", f"{work.name}-{tag}",
    ]
    try:
        proc = subprocess.run(
            cmd, env=child_env(work), stdout=sys.stderr, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired:
        return {"error": f"{tag} did not finish within {timeout:.0f} s"}
    if proc.returncode != 0 or not out.is_file():
        return {"error": f"{tag} exited with status {proc.returncode}"}
    return json.loads(out.read_text())


def end_to_end(job: dict, setups: list[dict]) -> dict:
    return {
        "setup_s": statistics.median(s["norm_s"] for s in setups),
        "throughput_per_s": statistics.median(r["work"] / r["norm_s"] for r in job["reps"]),
        "peak_rss_mb": job["peak_rss_mb"],
    }


def per_layer(job: dict, untraced_job: dict) -> dict:
    """Layer figures of the traced ``job``; process figures and the untraced
    throughput come from ``untraced_job``, which ran without wrappers."""
    traced = job["reps"]
    untraced = untraced_job["reps"]
    metrics = dict(job["layers"])
    metrics["process.cpu_s"] = statistics.median(r["cpu_s"] for r in untraced)
    metrics["process.wait_s"] = statistics.median(r["raw_s"] - r["cpu_s"] for r in untraced)
    metrics["process.minflt"] = statistics.median(r["minflt"] for r in untraced)
    metrics["host.probe_s"] = statistics.median(p for r in traced + untraced for p in r["probe_s"])
    traced_tp = statistics.median(r["work"] / r["norm_s"] for r in traced)
    untraced_tp = statistics.median(r["work"] / r["norm_s"] for r in untraced)
    metrics["trace.throughput_traced_per_s"] = traced_tp
    metrics["trace.throughput_untraced_per_s"] = untraced_tp
    metrics["trace.overhead_ratio"] = untraced_tp / traced_tp
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    missing = [
        p for p in (ROOT / "src" / "repro" / "__init__.py", ROOT / "examples" / "check_report_schema.py")
        if not p.is_file()
    ]
    if missing:
        print(
            f"perfbench: the checkout does not hold the program ({', '.join(map(str, missing))} missing)",
            file=sys.stderr,
        )
        return 2

    workload = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    spec_path = work / f"{workload.spec_kind}spec.json"
    spec_path.write_text(json.dumps(workload.spec(args.seed), indent=2))

    failures: list[str] = []
    setups: list[dict] = []
    if not args.trace:
        for i in range(SETUP_LAUNCHES):
            result = launch("setup", args, work, spec_path, f"setup{i}", 60.0)
            if "error" in result:
                failures.append(result["error"])
                break
            failures += result["failures"]
            if i:
                setups.append(result)
    # A traced run gives half its time to a process without wrappers, whose
    # throughput is the untraced figure the tracing overhead is taken against.
    plan = [("job", args.seconds, 0)]
    if args.trace:
        plan = [("untraced", args.seconds / 2, 0), ("job", args.seconds / 2, 1)]
    jobs = {}
    for tag, seconds, trace in plan:
        left = RUN_DEADLINE_S - (time.monotonic() - started)
        jobs[tag] = launch("job", args, work, spec_path, tag, left, seconds, trace)
        if "error" in jobs[tag]:
            failures.append(jobs[tag]["error"])
            break
        failures += jobs[tag]["failures"]

    shutil.rmtree(work / "tmp", ignore_errors=True)
    ran = [j for j in jobs.values() if "error" not in j]
    attempted = len(setups) + sum(j["attempted"] for j in ran) + len(jobs) - len(ran)
    failed = sum(1 for s in setups if s["failures"]) + sum(j["failed"] for j in ran)
    if failures:
        failed = max(failed, 1)
    job = jobs.get("job", {"error": "not run"})
    metrics: dict[str, dict] = {}
    if "error" not in job and (args.trace or setups):
        # BENCHMARK.json names every metric of each mode, with its unit.
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        values = per_layer(job, jobs["untraced"]) if args.trace else end_to_end(job, setups)
        for declared in bench["per_layer" if args.trace else "end_to_end"]:
            name = declared["name"]
            if name in values:
                metrics[name] = {"value": values[name], "unit": declared["unit"]}
            else:
                failures.append(f"metric {name} was not measured")
    correct = not failures and bool(metrics)

    results = WORK_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "failures": failures,
        "metrics": metrics,
        "setups": setups,
        "jobs": jobs,
    }
    (results / f"{work.name}.json").write_text(json.dumps(detail, indent=1))
    for name, entry in metrics.items():
        print(f"  {name:40s} {entry['value']:.6g} {entry['unit']}", file=sys.stderr)
    for failure in failures:
        print(f"  FAILED: {failure}", file=sys.stderr)
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
