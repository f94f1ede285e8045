"""The benchmark's workloads: seeded input generation, one repetition, and
the checks its outputs must pass.

Every workload is generated from one workload seed (``data.seed``,
``model.seed``, ``neuroflux.seed``) and written as a JobSpec or SweepSpec
file; the program sees only that file.  The properties each workload exists
for (block structure, cache traffic, churn) are asserted on every seed;
values that depend on the seed are pinned for :data:`DEFAULT_SEED` only.

This module imports neither numpy nor ``repro`` at import time, so the
parent process of a run stays light.
"""

from __future__ import annotations

import contextlib
import importlib.util
import json
import math
import shutil
import sys
from pathlib import Path

DEFAULT_SEED = 0

# -- spec generation ----------------------------------------------------------
_NF_MODEL = {"name": "vgg11", "num_classes": 10, "input_hw": [16, 16], "width_multiplier": 0.25}
# 1,000 training samples (cifar10 at scale 0.02), 16x16 inputs, 10 classes.
_NF_DATA = {"dataset": "cifar10", "num_classes": 10, "image_hw": [16, 16], "scale": 0.02}
_NF_EPOCHS = 2
_NF_TRAIN_SAMPLES = 1000

_SWEEP_CELLS = 4


def _nf_spec(seed: int, memory_mb: float, batch_limit: int) -> dict:
    return {
        "backend": "sequential",
        "platform": "agx_orin",
        "model": {**_NF_MODEL, "seed": seed},
        "data": {**_NF_DATA, "seed": seed},
        "neuroflux": {"batch_limit": batch_limit, "seed": seed},
        "budgets": {"memory_mb": memory_mb, "epochs": _NF_EPOCHS},
    }


def _fleet_spec(seed: int) -> dict:
    # examples/specs/fleet.json, stretched from 300 rps x 0.5 s to
    # 2,000 rps x 30 s with the churn schedule spread to 6/12/18 s.
    return {
        "backend": "cluster-serving",
        "platform": "agx_orin",
        "model": {
            "name": "vgg11",
            "num_classes": 4,
            "input_hw": [16, 16],
            "width_multiplier": 0.125,
            "seed": seed,
        },
        "data": {
            "dataset": "cifar10",
            "num_classes": 4,
            "image_hw": [16, 16],
            "scale": 0.01,
            "noise_std": 0.4,
            "seed": seed,
        },
        "neuroflux": {"batch_limit": 64, "seed": seed},
        "budgets": {"memory_mb": 16, "epochs": 1},
        "cluster": {
            "devices": ["nano", "agx-orin"],
            "placement": "optimized",
            "queue_capacity": 2,
        },
        "serving": {
            "pattern": "diurnal",
            "arrival_rate": 2000.0,
            "duration_s": 30.0,
            "mode": "cascade",
            "threshold": 0.5,
            "batch_cap": 16,
            "max_wait_ms": 4.0,
            "queue_depth": 128,
        },
        "fleet": {
            "n_replicas": 2,
            "policy": "latency-aware",
            "autoscale": True,
            "max_replicas": 4,
            "scale_up_at": 0.6,
            "scale_down_at": 0.05,
            "cooldown_s": 1.0,
            "events": {
                "events": [
                    {"type": "slowdown", "time_s": 6.0, "device": 0, "factor": 2.5, "duration_s": 3.0},
                    {"type": "failure", "time_s": 12.0, "device": 1},
                    {"type": "join", "time_s": 18.0, "platform": "agx-orin"},
                ]
            },
        },
    }


def _sweep_spec(seed: int) -> dict:
    return {
        "name": "perfbench-evalsim",
        "seed_mode": "fixed",
        "base": {
            "backend": "evalsim",
            "platform": "agx_orin",
            "model": {"name": "vgg16", "seed": seed},
            "data": {"dataset": "cifar10", "seed": seed},
            "neuroflux": {"seed": seed},
            "budgets": {"memory_mb": 100, "epochs": 10},
        },
        "grid": {"model.name": ["vgg16", "resnet18"], "budgets.memory_mb": [100, 300]},
    }


# -- pinned outputs of DEFAULT_SEED ---------------------------------------------
PINNED = {
    "nf-tight": {"exit_test_accuracy": 0.98, "cache_bytes_written": 5790910},
    "nf-roomy": {"exit_test_accuracy": 0.19},
    "fleet-churn": {"n_offered": 59918, "n_completed": 59918, "accuracy": 0.528155},
    "sweep-evalsim": {
        # (model, budget MB) -> simulated NeuroFlux hours
        "nf_hours": {
            ("vgg16", 100): 0.460344,
            ("vgg16", 300): 0.339827,
            ("resnet18", 100): 0.756264,
            ("resnet18", 300): 0.607201,
        }
    },
}


# -- checks ---------------------------------------------------------------------
def _load_schema_checker(root: Path):
    path = root / "examples" / "check_report_schema.py"
    spec = importlib.util.spec_from_file_location("check_report_schema", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check_report_common(report_json: dict, budget_bytes: int | None, root: Path, out_dir: Path) -> list[str]:
    """Schema, ledger-sum and (for training) peak-within-budget checks."""
    failures = []
    path = out_dir / "report.json"
    path.write_text(json.dumps(report_json))
    checker = _load_schema_checker(root)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            checker.check(str(path))
    except AssertionError as exc:
        failures.append(f"report schema: {exc}")
    ledger = report_json["ledger"]
    parts = sum(v for k, v in ledger.items() if k != "total")
    if not math.isclose(parts, ledger["total"], rel_tol=1e-6, abs_tol=1e-6):
        failures.append(f"ledger categories sum to {parts}, total is {ledger['total']}")
    if budget_bytes is not None and report_json["peak_memory_bytes"] > budget_bytes:
        failures.append(
            f"simulated peak {report_json['peak_memory_bytes']} B exceeds budget {budget_bytes} B"
        )
    return failures


def _check_accuracy(value, pinned, seed: int, what: str) -> list[str]:
    if not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
        return [f"{what} {value!r} is not in [0, 1]"]
    # Report JSON rounds to 6 decimals, so the pin holds to within 1e-6.
    if seed == DEFAULT_SEED and pinned is not None and abs(value - pinned) > 1e-6:
        return [f"{what} {value} != pinned {pinned}"]
    return []


class Workload:
    """One benchmark workload; subclasses define the job and its checks."""

    name = ""
    backend = ""
    spec_kind = "job"
    #: How much of the probe's speed change between the host's slow and fast
    #: spells this workload shows, log(workload speed-up) / log(probe
    #: speed-up).  Measured over 2 x 10 runs on a 2-vCPU x86_64 host: ~1 for
    #: the pure-Python fleet event loop, 0.7-0.8 where numpy kernels on
    #: larger arrays (memory-bound, so less frequency-sensitive) take the time.
    host_elasticity = 1.0

    def spec(self, seed: int) -> dict:
        raise NotImplementedError

    # The methods below run in the measuring process (repro importable).
    def load(self, spec_path: str, work_dir: Path):
        """Parse and validate the generated spec (set-up, part 1)."""
        from repro.api import JobSpec

        return JobSpec.from_json_file(spec_path)

    def prepare(self, spec, work_dir: Path):
        """Materialize the job (set-up, part 2): model and data built."""
        from repro.api import get_backend

        return get_backend(spec.backend).prepare(spec)

    def execute(self, spec, context, work_dir: Path, tracer, mark):
        """The timed repetition; returns the job's output.  ``mark()`` may be
        called between steps of the job to probe the host mid-repetition."""
        from repro.api import get_backend
        from repro.api.callbacks import as_callback_list

        return get_backend(spec.backend).execute(context, as_callback_list(None))

    def work(self, output) -> float:
        raise NotImplementedError

    def check(self, spec, output, seed: int, root: Path, work_dir: Path) -> list[str]:
        raise NotImplementedError

    def check_layers(self, layers: dict) -> list[str]:
        """Checks on the per-layer counts of one traced repetition."""
        if layers["evalsim.simulate.calls"] != 0:
            return [f"evalsim.simulate.calls is {layers['evalsim.simulate.calls']}, expected 0"]
        return []

    def test_accuracy(self, output) -> float | None:
        return None


class NeuroFluxWorkload(Workload):
    backend = "sequential"

    def __init__(self, name, memory_mb, batch_limit, n_blocks, batch_range, steps, uses_cache, host_elasticity):
        self.name = name
        self.host_elasticity = host_elasticity
        self.memory_mb = memory_mb
        self.batch_limit = batch_limit
        self.n_blocks = n_blocks
        self.batch_range = batch_range
        self.steps = steps
        self.uses_cache = uses_cache

    def spec(self, seed: int) -> dict:
        return _nf_spec(seed, self.memory_mb, self.batch_limit)

    def execute(self, spec, context, work_dir, tracer, mark):
        from repro.api import Callback, get_backend
        from repro.api.callbacks import as_callback_list

        class StepCounter(Callback):
            steps = samples = 0

            def on_batch(self, info):
                self.steps += 1
                self.samples += info.n_samples

        counter = StepCounter()
        report = get_backend(spec.backend).execute(context, as_callback_list(counter))
        return report, counter.steps, counter.samples

    def work(self, output) -> float:
        # Training samples per pass over the model (n_train x epochs), as
        # counted while the job ran; ``check`` verifies the count.
        report, _, samples = output
        return samples / len(report.blocks)

    def test_accuracy(self, output) -> float:
        return output[0].exit_test_accuracy

    def check(self, spec, output, seed, root, work_dir):
        result, steps, samples = output
        report = result.to_json_dict()
        failures = _check_report_common(report, spec.budgets.memory_bytes, root, work_dir)
        pinned = PINNED[self.name]
        blocks = report["blocks"]
        batches = [b["batch_size"] for b in blocks]
        lo, hi = self.batch_range
        if len(blocks) != self.n_blocks or not all(lo <= b <= hi for b in batches):
            failures.append(
                f"blocks {batches}: expected {self.n_blocks} block(s) at batch {lo}..{hi}"
            )
        # Every block trains on every sample in every epoch.
        epochs = report["epochs"]
        want_steps = epochs * sum(math.ceil(_NF_TRAIN_SAMPLES / b) for b in batches)
        want_samples = epochs * len(blocks) * _NF_TRAIN_SAMPLES
        if epochs != _NF_EPOCHS or steps != want_steps or samples != want_samples:
            failures.append(
                f"{steps} steps over {samples} samples in {epochs} epoch(s); expected "
                f"{want_steps} steps over {want_samples} samples in {_NF_EPOCHS}"
            )
        written = report["cache_bytes_written"]
        if self.uses_cache:
            if written <= 0:
                failures.append("no activations were written to the cache")
            elif seed == DEFAULT_SEED and written != pinned["cache_bytes_written"]:
                failures.append(
                    f"cache bytes written {written} != pinned {pinned['cache_bytes_written']}"
                )
        elif written != 0:
            failures.append(f"cache bytes written {written}, expected 0")
        failures += _check_accuracy(
            report["exit_test_accuracy"], pinned["exit_test_accuracy"], seed, "exit_test_accuracy"
        )
        return failures

    def check_layers(self, layers):
        failures = super().check_layers(layers)
        if layers["core.worker.train_batch.calls"] != self.steps:
            failures.append(
                f"{layers['core.worker.train_batch.calls']} training steps, expected {self.steps}"
            )
        cache = {k: v for k, v in layers.items() if k.startswith("core.cache.") and not k.endswith(".s")}
        if self.uses_cache:
            if not all(v > 0 for v in cache.values()):
                failures.append(f"cache traffic missing: {cache}")
            elif layers["core.cache.read.bytes"] < layers["core.cache.write.bytes"]:
                failures.append("cached activations were not all read back")
        elif any(cache.values()):
            failures.append(f"cache traffic {cache} on a run that bypasses the cache")
        return failures


class FleetWorkload(Workload):
    name = "fleet-churn"
    backend = "cluster-serving"

    def spec(self, seed):
        return _fleet_spec(seed)

    def work(self, output) -> float:
        return output.n_offered

    def test_accuracy(self, output) -> float:
        return output.accuracy

    def check(self, spec, output, seed, root, work_dir):
        report = output.to_json_dict()
        failures = _check_report_common(report, None, root, work_dir)
        acc = report["accounting"]
        if acc["completed"] + acc["rejected"] + acc["shed"] != acc["offered"] or acc["unaccounted"]:
            failures.append(f"requests not conserved: {acc}")
        if report["n_offered"] <= 0:
            failures.append("no requests were offered")
        if not report["survived_churn"] or report["dnf"]:
            failures.append("the fleet did not survive the churn schedule")
        if report["n_replicas_peak"] <= report["n_replicas_initial"]:
            failures.append("no replica joined the fleet")
        pinned = PINNED[self.name]
        if seed == DEFAULT_SEED:
            for key in ("n_offered", "n_completed"):
                if report[key] != pinned[key]:
                    failures.append(f"{key} {report[key]} != pinned {pinned[key]}")
        failures += _check_accuracy(report["accuracy"], pinned["accuracy"], seed, "served accuracy")
        return failures

    def check_layers(self, layers):
        failures = super().check_layers(layers)
        if layers["fleet.requests"] <= 0:
            failures.append("fleet.requests is 0")
        self_times = {k: v for k, v in layers.items() if k.endswith(("_s", ".s"))}
        top = max(self_times, key=self_times.get)
        if top != "fleet.run_s":
            failures.append(f"{top} has the largest self time, not fleet.run_s")
        return failures


class SweepWorkload(Workload):
    name = "sweep-evalsim"
    backend = "evalsim"
    spec_kind = "sweep"
    host_elasticity = 0.8

    def spec(self, seed):
        return _sweep_spec(seed)

    def load(self, spec_path, work_dir):
        from repro.sweep import SweepSpec

        return SweepSpec.from_json_file(spec_path)

    def prepare(self, spec, work_dir):
        runs = spec.expand()
        store = work_dir / "sweep.store"
        shutil.rmtree(store, ignore_errors=True)
        return {"runs": runs, "store": str(store)}

    def execute(self, spec, context, work_dir, tracer, mark):
        from repro.sweep import ResultsStore, run_sweep, select_rows, store_rows

        # A repetition spans several seconds; probing before each cell, through
        # ``run_sweep``'s per-cell progress hook, tracks host speed changes within it.
        summary = run_sweep(spec, context["store"], workers=1, echo=mark)
        with tracer.span("sweep.query"):
            rows = select_rows(
                store_rows(ResultsStore.open(context["store"])),
                select=["run.status", "overrides", "report.evalsim.nf_hours"],
            )
        return summary, rows

    def work(self, output) -> float:
        return len(output[1])

    def check(self, spec, output, seed, root, work_dir):
        summary, rows = output
        failures = []
        if summary.failed or summary.executed != _SWEEP_CELLS:
            failures.append(f"sweep ran {summary.executed} cell(s), {summary.failed} failed")
        if len(rows) != _SWEEP_CELLS:
            failures.append(f"query returned {len(rows)} row(s), expected {_SWEEP_CELLS}")
        pinned = PINNED[self.name]["nf_hours"]
        for row in rows:
            if row["run.status"] != "done":
                failures.append(f"cell {row['overrides']} is {row['run.status']}")
                continue
            hours = row["report.evalsim.nf_hours"]
            key = (row["overrides"]["model.name"], row["overrides"]["budgets.memory_mb"])
            if not (isinstance(hours, float) and hours > 0):
                failures.append(f"cell {key}: nf_hours {hours!r}")
            elif seed == DEFAULT_SEED and abs(hours - pinned[key]) > 1e-6:
                failures.append(f"cell {key}: nf_hours {hours} != pinned {pinned[key]}")
        return failures

    def check_layers(self, layers):
        failures = []
        if layers["evalsim.simulate.calls"] <= 0:
            failures.append("evalsim.simulate was never called")
        if layers["sweep.store.append.calls"] != _SWEEP_CELLS:
            failures.append(f"{layers['sweep.store.append.calls']} journal appends")
        return failures


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's memory-starved regime: 2 MB forces 5 blocks at small
        # adaptive batches, with every block's input read from the cache.
        NeuroFluxWorkload("nf-tight", 2, 64, n_blocks=5, batch_range=(7, 46), steps=602, uses_cache=True,
                          host_elasticity=0.8),
        # Same model, data and seed with room to spare: one block at the batch
        # limit, no cache traffic, so the nn/backend kernels dominate.
        NeuroFluxWorkload("nf-roomy", 64, 256, n_blocks=1, batch_range=(256, 256), steps=8, uses_cache=False,
                          host_elasticity=0.7),
        FleetWorkload(),
        SweepWorkload(),
    )
}
