"""Steadiness report: how much the benchmark's figures move between runs.

    python3 perfbench/steadiness.py --runs 10                  # measure, then report
    python3 perfbench/steadiness.py --from A.json [B.json]     # report saved sets
    python3 perfbench/steadiness.py --trace-check              # per-layer counts repeat

Runs ``run.py`` ``--runs`` times per workload, each with another ``--seed``,
interleaving workloads so that slow spells of the host fall on all of them.
For every workload x end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(n=4)``), the interquartile spread and the range as
shares of the median, and the split-half disagreement (the medians of the
first and second half of the runs, apart, as a share of the median).  A
spread above a third of the metric's bound in ``BENCHMARK.json`` is
flagged, and one above the bound fails the report (exit status 1), for
every metric, ``setup_s`` included.  Given two saved sets, it also reports
how far the second set's medians moved against the first, failing when that
is worse than the bound.
The collected values are saved under ``.perfbench/``.

``--trace-check`` runs every workload traced twice with the same seed and
checks that the per-layer counts (calls, bytes, flop, ratios) are identical,
then prints each workload's largest self times and its tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: run failed (exit {proc.returncode})")
    return result["metrics"]


def trace_check(workloads: list[str], seconds: int, seed: int) -> bool:
    per_layer = load_benchmark()["per_layer"]
    counted = [
        m["name"] for m in per_layer
        if m["unit"] in ("count", "B", "flop", "ratio")
        and not m["name"].startswith(("process.", "host.", "trace."))
    ]
    ok = True
    for workload in workloads:
        first, second = (run_once(workload, seed, seconds, 1) for _ in range(2))
        differ = [n for n in counted if first[n]["value"] != second[n]["value"]]
        ok = ok and not differ
        self_times = sorted(
            ((m, e["value"]) for m, e in first.items() if e["unit"] == "s" and not m.startswith(("process.", "host."))),
            key=lambda item: -item[1],
        )
        print(f"{workload}: counts {'identical' if not differ else 'DIFFER: ' + ', '.join(differ)}; "
              f"tracing overhead x{first['trace.overhead_ratio']['value']:.3f}")
        for name, value in self_times[:5]:
            print(f"    {name:32s} {value:.4f} s")
    return ok


def measure(workloads: list[str], runs: int, seconds: int, seed_base: int) -> dict:
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    for i in range(runs):
        for workload in workloads:
            seed = seed_base + i
            start = time.monotonic()
            metrics = run_once(workload, seed, seconds, 0)
            for name, entry in metrics.items():
                values[workload].setdefault(name, []).append(entry["value"])
            print(
                f"[{i + 1}/{runs}] {workload} seed {seed}: {time.monotonic() - start:.1f} s "
                + " ".join(f"{k}={v['value']:.5g}" for k, v in metrics.items()),
                file=sys.stderr,
            )
    return values


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    half = len(values) // 2
    m = statistics.median(values)
    return {
        "median": m,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / m,
        "range_share": (max(values) - min(values)) / m,
        "split_half": abs(statistics.median(values[:half]) - statistics.median(values[half:])) / m,
    }


def worse_share(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def report(sets: list[dict]) -> bool:
    metrics = {m["name"]: m for m in load_benchmark()["end_to_end"]}
    ok = True
    header = f"{'workload':14s} {'metric':17s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'iqr/med':>8s} {'rng/med':>8s} {'split':>7s} {'bound':>6s}"
    if len(sets) > 1:
        header += f" {'2nd vs 1st':>10s}"
    print(header)
    for workload, by_metric in sets[0].items():
        for name, values in by_metric.items():
            s = spread(values)
            bound = metrics[name]["bound"]
            flag = ""
            if s["iqr_share"] > bound / 3:
                flag += " SPREAD>bound/3"
                ok = ok and s["iqr_share"] <= bound
            line = (
                f"{workload:14s} {name:17s} {s['median']:10.5g} {s['q1']:10.5g} {s['q3']:10.5g} "
                f"{s['iqr_share']:8.3f} {s['range_share']:8.3f} {s['split_half']:7.3f} {bound:6.2f}"
            )
            if len(sets) > 1:
                second = statistics.median(sets[1][workload][name])
                shift = worse_share(s["median"], second, metrics[name]["better"])
                line += f" {shift:+10.3f}"
                if shift > bound:
                    flag += " WORSE>bound"
                    ok = False
            print(line + flag)
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--from", dest="saved", nargs="+", type=Path, help="report saved value sets")
    parser.add_argument("--workloads", help="comma-separated (default: all in BENCHMARK.json)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--trace-check", action="store_true", help="check per-layer counts repeat")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    if args.trace_check:
        return 0 if trace_check(workloads, seconds, args.seed_base) else 1
    if args.saved:
        sets = [json.loads(p.read_text()) for p in args.saved]
    else:
        values = measure(workloads, args.runs, seconds, args.seed_base)
        out = ROOT / ".perfbench" / f"steadiness-{time.strftime('%Y%m%dT%H%M%S')}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(values, indent=1))
        print(f"values saved to {out}", file=sys.stderr)
        sets = [values]
    return 0 if report(sets) else 1


if __name__ == "__main__":
    sys.exit(main())
