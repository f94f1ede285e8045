"""The measuring process of a benchmark run (launched by ``run.py``).

``setup`` mode times one set-up in a fresh interpreter: import ``repro``,
parse and validate the generated spec, materialize the job.  ``job`` mode
sets up once, runs one untimed warm-up repetition, then timed repetitions
until ``--seconds`` have passed.  Every repetition (and every set-up) is
bracketed by the host probe in this same process, and checked for threads
or child processes left running before the closing probe.  With ``--trace
1`` the layers are wrapped (``tracer.py``) and every timed repetition is
traced; the untraced figures come from a separate ``--trace 0`` process,
which has no wrappers installed.

The result, raw values next to probe-normalized ones, is written as JSON to
``--out``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

from probe import PROBE_REFERENCE_S, normalize, probe
from workloads import WORKLOADS

#: Per-layer metrics that count work; they must repeat exactly.
COUNT_FIELDS = (".calls", ".bytes", ".flop", ".batches", ".requests", "bytes_allocated", "hit_ratio")
#: Timed repetitions per run, at least; more while ``--seconds`` allows.
MIN_REPS = 3


def leftovers(baseline_tasks: int | None) -> list[str]:
    """Threads or child processes the job left running."""
    found = []
    if threading.active_count() != 1:
        found.append(f"{threading.active_count() - 1} Python thread(s) still running")
    if baseline_tasks is not None and native_tasks() != baseline_tasks:
        found.append(f"{native_tasks() - baseline_tasks} extra native thread(s) running")
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break
        if pid == 0:
            found.append("a child process is still running")
            break
    return found


def native_tasks() -> int | None:
    return len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None


def env_block(root: Path, workload) -> dict:
    import numpy as np

    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    commit = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = root / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.is_file() else ref
        else:
            commit = ref
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "git_commit": commit,
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "probe_reference_s": PROBE_REFERENCE_S,
        "host_elasticity": workload.host_elasticity,
    }


def import_repro(workload) -> None:
    import repro  # noqa: F401
    import repro.api.backends  # noqa: F401  (backend registration)

    if workload.spec_kind == "sweep":
        import repro.sweep  # noqa: F401


def run_setup(args, workload) -> dict:
    tasks = native_tasks()
    before = probe()
    t0 = time.perf_counter()
    import_repro(workload)
    spec = workload.load(args.spec, args.work)
    workload.prepare(spec, args.work)
    raw = time.perf_counter() - t0
    failures = leftovers(tasks)
    after = probe()
    return {
        "raw_s": raw,
        "probe_s": [before, after],
        # Set-up is interpreter-bound work, like the probe: elasticity 1.
        "norm_s": normalize(raw, before, after),
        "failures": failures,
    }


def run_job(args, workload) -> dict:
    from tracer import Tracer, install, layer_metrics

    root = args.root
    t0 = time.perf_counter()
    import_repro(workload)
    import_s = time.perf_counter() - t0
    tracer = Tracer(args.launch)
    if args.trace:
        from repro.api import get_backend

        install(tracer, type(get_backend(workload.backend)))

    failures: list[str] = []

    def one_rep(traced: bool) -> dict:
        if traced:
            tracer.begin(f"rep{len(reps)}")
        spec = workload.load(args.spec, args.work)
        context = workload.prepare(spec, args.work)
        gc.collect()  # every repetition starts from the same heap state
        tasks = native_tasks()
        before = probe()
        marks: list[tuple[float, float, float]] = []  # (start, probe s, end)

        def mark(_message=None) -> None:
            """Probe the host mid-repetition; the probe's time is not counted."""
            t = time.perf_counter()
            marks.append((t, probe(), time.perf_counter()))

        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        c0 = time.process_time()
        start = time.perf_counter()
        output = workload.execute(spec, context, args.work, tracer, mark)
        end = time.perf_counter()
        cpu = time.process_time() - c0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        agg = tracer.end() if traced else None
        rep_failures = leftovers(tasks)
        after = probe()
        rep_failures += workload.check(spec, output, args.seed, root, args.work)
        # The segments of the repetition between probes, each normalized by
        # the probes on either side of it; probe time itself is not counted.
        bounds = [(start, before)] + [(m_end, p) for _, p, m_end in marks] + [(end, after)]
        stops = [m_start for m_start, _, _ in marks] + [end]
        raw = norm = 0.0
        for (seg_start, p0), seg_stop, (_, p1) in zip(bounds, stops, bounds[1:]):
            raw += seg_stop - seg_start
            norm += normalize(seg_stop - seg_start, p0, p1, workload.host_elasticity)
        cpu -= sum(m_end - m_start for m_start, _, m_end in marks)
        record = {
            "traced": traced,
            "raw_s": raw,
            "probe_s": [before, *(p for _, p, _ in marks), after],
            "norm_s": norm,
            "work": workload.work(output),
            "cpu_s": cpu,
            "minflt": ru1.ru_minflt - ru0.ru_minflt,
            "test_accuracy": workload.test_accuracy(output),
            "failures": rep_failures,
        }
        if traced:
            layers = layer_metrics(agg)
            layers["api.import_s"] = import_s
            record["layers"] = layers
            record["failures"] += workload.check_layers(layers)
        return record

    reps: list[dict] = []
    warmup = one_rep(False)
    # The peak of a process that has run the job once, as a user's would;
    # later repetitions only add allocator fragmentation to the high-water mark.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    loop_start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        reps.append(one_rep(bool(args.trace)))
        rep_wall = time.perf_counter() - rep_start
        elapsed = time.perf_counter() - loop_start
        if len(reps) >= MIN_REPS and elapsed + rep_wall > args.seconds:
            break
    for rep in [warmup] + reps:
        failures += rep["failures"]
    result = {
        "import_s": import_s,
        "warmup": warmup,
        "reps": reps,
        "peak_rss_mb": peak_rss_mb,
        "peak_rss_mb_all_reps": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": env_block(root, workload),
        "failures": failures,
        "attempted": 1 + len(reps),
        "failed": sum(1 for rep in [warmup] + reps if rep["failures"]),
    }
    if args.trace:
        counts = [
            {k: v for k, v in r["layers"].items() if k.endswith(COUNT_FIELDS)} for r in reps
        ]
        if any(c != counts[0] for c in counts[1:]):
            result["failures"].append("per-layer counts differ between traced repetitions")
            result["failed"] += 1
        result["layers"] = {
            k: statistics.median(r["layers"][k] for r in reps) for k in reps[0]["layers"]
        }
        tracer.write(str(args.work / "spans.jsonl.gz"))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "job"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--spec", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launch", default="")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        result = run_setup(args, workload) if args.mode == "setup" else run_job(args, workload)
    except Exception:
        traceback.print_exc()
        result = {"error": traceback.format_exc(limit=3)}
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
