"""glharmonic benchmark: seeded scenario workloads through ``run_scenario``.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: field-equations, harmonic-maps, bulk-output (see workloads.py
and README.md).  One process runs the workload's whole spec list once to
warm up and as the reference, then repeats it for ``--seconds`` seconds.
Every repetition writes its reports and dumps to a fresh directory under
``.perfbench_tmp/`` in the checkout and deletes it afterwards.

Each scenario is timed on its own and its wall time is scaled to
reference seconds by a calibration kernel run before and after it, which
takes out the drift of the shared host's speed (see ``corrected``).

``--trace 0`` prints the end-to-end metrics, measured without tracing.
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics; the spans go to ``.perfbench_out/``.

Outside the timed region every task is checked: status ``pass``, finite
scalars, certificate values and dump values, and numeric report content
and dump files identical to the reference repetition.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
attempted and failed count task executions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field

from prepare import ROOT, SetupError, load_library, pin_threads, prepare
from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
SCRATCH = ROOT / ".perfbench_tmp"
OUTPUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9
TAIL_BEYOND = 10
PROBE_TIMEOUT_S = 60
# Time of calibrate() at the reference host speed; see corrected().
CALIBRATION_REF_S = 0.020

# per-layer metric -> (unit, end-to-end metric it should move, workload);
# on the other workloads the prediction is no change
LAYER_METRICS = {
    "runner.run_scenario.self_s": ("s", "batch_s", "bulk-output"),
    "runner.dump_field_csv.s": ("s", "batch_s", "bulk-output"),
    "runner.dump_field_csv.calls": ("count", "batch_s", "bulk-output"),
    "runner.dump_bytes": ("bytes", "batch_s", "bulk-output"),
    "scenarios.validate_scenario.s": ("s", "setup_s", "all"),
    "scenarios.validate_scenario.calls": ("count", "setup_s", "all"),
    "scenarios.build.s": ("s", "batch_s", "bulk-output"),
    "expressions.calls": ("count", "batch_s", "field-equations"),
    "expressions.s": ("s", "batch_s", "field-equations,bulk-output"),
    "expressions.elements_per_call": ("count", "batch_s", "field-equations,bulk-output"),
    "expressions.sigma_calls": ("count", "batch_s", "field-equations"),
    "expressions.metric_calls": ("count", "batch_s", "field-equations"),
    "expressions.covector_calls": ("count", "batch_s", "harmonic-maps"),
    "tensor_core.fd_partial.calls": ("count", "batch_s", "harmonic-maps,bulk-output"),
    "tensor_core.fd_partial.s": ("s", "batch_s", "harmonic-maps,bulk-output"),
    "tensor_core.invert_metric.calls": ("count", "batch_s", "harmonic-maps,bulk-output"),
    "tensor_core.invert_metric.s": ("s", "batch_s", "harmonic-maps,bulk-output"),
    "tensor_core.quadrature.calls": ("count", "batch_s", "harmonic-maps,bulk-output"),
    "energy.lagrangian_density.s": ("s", "batch_s", "harmonic-maps"),
    "energy.density_partials.calls": ("count", "batch_s", "harmonic-maps"),
    "energy.density_partials.s": ("s", "batch_s", "harmonic-maps"),
    "energy.assemble_residual.s": ("s", "batch_s", "harmonic-maps"),
    "systems.certify_minimizer.s": ("s", "batch_s", "harmonic-maps"),
    "systems.quotient_functional.s": ("s", "batch_s", "harmonic-maps"),
    "systems.integrate_orbit.calls": ("count", "batch_s", "harmonic-maps"),
    "systems.integrate_orbit.s": ("s", "batch_s", "harmonic-maps"),
    "systems.orbit_geodesic_residual.s": ("s", "batch_s", "harmonic-maps"),
    "systems.group_system_lagrangian.s": ("s", "batch_s", "harmonic-maps"),
    "riemann.curvature_package.s": ("s", "batch_s", "bulk-output"),
    "gl_space.sigma_blocks.calls": ("count", "batch_s", "field-equations"),
    "gl_space.sigma_blocks.s": ("s", "batch_s", "field-equations"),
    "gl_space.fiber_partials.calls": ("count", "batch_s", "field-equations"),
    "gl_space.fiber_partials.s": ("s", "batch_s", "field-equations"),
    "gl_space.hv_covariant_cov2.s": ("s", "batch_s", "field-equations"),
    "field_equations.maxwell_residuals.s": ("s", "batch_s", "field-equations"),
    "field_equations.einstein_system.s": ("s", "batch_s", "field-equations"),
    "field_equations.deflection_tensor.s": ("s", "batch_s", "field-equations"),
    "trace.overhead_share": ("ratio", "none", "all"),
}


def calibrate() -> float:
    """Seconds taken by a fixed mix of small-array numpy, whole-grid numpy
    and interpreter work, the three kinds of work the workloads do."""
    import numpy as np

    t0 = time.perf_counter()
    small = np.linspace(0.1, 1.0, 32 * 32 * 9).reshape(32, 32, 3, 3)
    large = np.linspace(0.0, 1.0, 256 * 256 * 4).reshape(256, 256, 4)
    for _ in range(4):
        prod = np.einsum("...ij,...jk->...ik", small, small)
        np.linalg.inv(prod + 3.0 * np.eye(3))
        np.sin(large) * np.exp(-large)
    total = 0
    for i in range(20000):
        total += i * i
    return time.perf_counter() - t0


def corrected(wall: float, before: float, after: float) -> float:
    """Wall time in reference seconds.  The shared host's speed drifts by
    up to a factor of 1.7 over seconds to minutes; scaling by the
    calibration time measured on each side of the interval, relative to
    CALIBRATION_REF_S, removes that drift from run-to-run comparisons."""
    return wall * CALIBRATION_REF_S / (0.5 * (before + after))


@dataclass
class Batch:
    """One pass of the spec list through run_scenario."""

    scenario_wall: list[float]
    scenario_seconds: list[float]       # corrected to reference seconds
    reports: list[dict]
    # file name -> (bytes, sha256, any nan/inf); the last two only for dumps
    files: dict[str, tuple[int, str, bool]]
    spans: tuple[int, int] = (0, 0)
    counts: Counter = field(default_factory=Counter)

    @property
    def wall(self) -> float:
        return sum(self.scenario_wall)

    @property
    def seconds(self) -> float:
        return sum(self.scenario_seconds)


def _timed_pass(runner, specs: list[dict], out: pathlib.Path) -> Batch:
    """Each scenario is timed on its own, with calibrate() between
    scenarios and outside the timed intervals."""
    clock = time.perf_counter
    reports, walls, seconds = [], [], []
    before = calibrate()
    for spec in specs:
        t0 = clock()
        reports.append(runner.run_scenario(spec, out))
        wall = clock() - t0
        after = calibrate()
        walls.append(wall)
        seconds.append(corrected(wall, before, after))
        before = after
    return Batch(walls, seconds, reports, {})


def run_batch(runner, specs: list[dict], tracer=None) -> Batch:
    gc.collect()
    out = pathlib.Path(tempfile.mkdtemp(prefix="batch-", dir=SCRATCH))
    try:
        if tracer is None:
            batch = _timed_pass(runner, specs, out)
        else:
            lo, before = len(tracer), Counter(tracer.counts)
            with tracer.installed():
                batch = _timed_pass(runner, specs, out)
            batch.spans = (lo, len(tracer))
            batch.counts = tracer.counts - before
        for path in out.iterdir():
            data = path.read_bytes()
            if path.suffix == ".csv":
                rows = data.partition(b"\n")[2]
                batch.files[path.name] = (len(data), hashlib.sha256(data).hexdigest(),
                                          b"nan" in rows or b"inf" in rows)
            else:
                batch.files[path.name] = (len(data), "", False)
    finally:
        shutil.rmtree(out)
    return batch


# ---------------------------------------------------------------------------
# output checks, outside the timed region
# ---------------------------------------------------------------------------


def _nonfinite(value) -> bool:
    if isinstance(value, bool):
        return False
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, str):
        return value.strip().lower() in ("nan", "inf", "-inf", "+inf", "infinity", "-infinity")
    if isinstance(value, dict):
        return any(_nonfinite(v) for v in value.values())
    if isinstance(value, list):
        return any(_nonfinite(v) for v in value)
    return False


def _numeric(task: dict) -> str:
    return json.dumps({k: v for k, v in task.items() if k != "wall_time_s"}, sort_keys=True)


def _task_dumps(files: dict, scenario: str, task: str) -> dict:
    prefix = f"{scenario}__{task}__"
    return {name: entry for name, entry in files.items() if name.startswith(prefix)}


class Checker:
    """Counts task executions and the ones that fail a check, against the
    reference repetition."""

    def __init__(self, reference: Batch):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: Counter = Counter()

    def check(self, batch: Batch, label: str) -> None:
        ref = self.reference
        for ref_report, report in zip(ref.reports, batch.reports):
            scenario = report["scenario"]
            ref_tasks, tasks = ref_report["tasks"], report["tasks"]
            self.attempted += max(len(ref_tasks), len(tasks))
            if len(ref_tasks) != len(tasks):
                self.failed += max(len(ref_tasks), len(tasks))
                self.problems[f"{scenario}: task count differs in the {label}"] += 1
                continue
            for ref_task, task in zip(ref_tasks, tasks):
                name = task["task"]
                reasons = []
                if task["status"] != "pass":
                    reasons.append(f"status {task['status']} {task.get('reason', '')}".strip())
                if _nonfinite([task.get("scalars", {}), task.get("certificate", {})]):
                    reasons.append("non-finite value in the report")
                dumps = _task_dumps(batch.files, scenario, name)
                if any(nonfinite for _, _, nonfinite in dumps.values()):
                    reasons.append("non-finite value in a dump")
                if _numeric(task) != _numeric(ref_task):
                    reasons.append(f"report content differs in the {label}")
                if dumps != _task_dumps(ref.files, scenario, name):
                    reasons.append(f"dump files differ in the {label}")
                if reasons:
                    self.failed += 1
                    for reason in reasons:
                        self.problems[f"{scenario}/{name}: {reason}"] += 1


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def measure_setup(workload: str, seed: int) -> list[float]:
    """Reference seconds from starting a fresh interpreter to the end of
    set-up, one sample per probe process."""
    samples = []
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    before = calibrate()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if code != 0 or line.strip() != "ready":
            raise SetupError(f"set-up probe exited with code {code}")
        after = calibrate()
        samples.append(corrected(elapsed, before, after))
        before = after
    return samples


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the highest percentile
    with at least TAIL_BEYOND samples above it; the maximum when there are
    too few."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    k = n - TAIL_BEYOND
    return ordered[k - 1], 100.0 * k / n, TAIL_BEYOND


def repeat(runner, specs, seconds: float, checker: Checker, tracer=None):
    """Untraced repetitions for about ``seconds``; with a tracer, each
    untraced repetition is followed by a traced one.  No round starts that
    is expected to end after the deadline, except the first."""
    plain, traced, rounds = [], [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start + statistics.median(rounds) <= seconds:
        r0 = time.perf_counter()
        batch = run_batch(runner, specs)
        checker.check(batch, "repetition")
        plain.append(batch)
        if tracer is not None:
            batch = run_batch(runner, specs, tracer)
            checker.check(batch, "traced repetition")
            traced.append(batch)
        rounds.append(time.perf_counter() - r0)
    return plain, traced


def end_to_end(args, runner, scenarios) -> tuple[Checker, dict, list[str]]:
    specs = prepare(args.workload, args.seed, scenarios)
    setup = measure_setup(args.workload, args.seed)
    reference = run_batch(runner, specs)
    checker = Checker(reference)
    checker.check(reference, "reference")
    batches, _ = repeat(runner, specs, args.seconds, checker)

    per_scenario = [t for b in batches for t in b.scenario_seconds]
    tail_value, tail_pct, beyond = tail(per_scenario)
    metrics = {
        "batch_s": (statistics.median(b.seconds for b in batches), "s"),
        "scenario_s_p50": (statistics.median(per_scenario), "s"),
        "scenario_s_tail": (tail_value, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    wall = [t for b in batches for t in b.scenario_wall]
    notes = [
        "times in reference seconds (wall time scaled by calibration); raw wall-time "
        f"medians: batch {statistics.median(b.wall for b in batches):.4f} s, "
        f"scenario {statistics.median(wall):.4f} s",
        f"batch_s: median of {len(batches)} repetitions of {len(specs)} scenarios",
        f"scenario_s_p50: median of {len(per_scenario)} samples",
        f"scenario_s_tail: p{tail_pct:.2f} of {len(per_scenario)} samples "
        f"({beyond} beyond it)",
        f"setup_s: median of {len(setup)} fresh interpreters",
    ]
    return checker, metrics, notes


def _layer_values(stats: dict, batch: Batch) -> dict[str, float]:
    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    expr_calls = calls("expressions.Expression.__call__")
    values = {
        "runner.run_scenario.self_s": self_s("runner.run_scenario"),
        "runner.dump_bytes": sum(size for size, _, _ in batch.files.values()),
        "scenarios.build.s": sum(self_s(f"scenarios.{fn}") for fn in
                                 ("build_grid", "sampled_metric", "build_map_values")),
        "expressions.calls": expr_calls,
        "expressions.s": self_s("expressions.Expression.__call__"),
        "expressions.elements_per_call":
            batch.counts["expressions.elements"] / expr_calls if expr_calls else 0.0,
    }
    for role in ("sigma", "metric", "covector"):
        values[f"expressions.{role}_calls"] = batch.counts[f"expressions.{role}_calls"]
    for metric in LAYER_METRICS:
        if metric in values or metric.startswith("trace."):
            continue
        name, kind = metric.rsplit(".", 1)
        values[metric] = calls(name) if kind == "calls" else self_s(name)
    return values


def per_layer(args, runner, scenarios) -> tuple[Checker, dict, list[str]]:
    from tracing import Tracer

    tracer = Tracer()
    with tracer.installed():
        specs = prepare(args.workload, args.seed, scenarios)
    setup_stats = tracer.stats(0, len(tracer))
    reference = run_batch(runner, specs)
    checker = Checker(reference)
    checker.check(reference, "reference")
    plain, traced = repeat(runner, specs, args.seconds, checker, tracer)

    per_batch = [tracer.stats(*b.spans) for b in traced]
    rows = [_layer_values(stats, b) for stats, b in zip(per_batch, traced)]
    values = {}
    for metric in LAYER_METRICS:
        if metric.startswith("trace."):
            continue
        samples = [row[metric] for row in rows]
        if metric.endswith("calls"):
            if len(set(samples)) != 1:
                checker.problems[f"{metric} differs between traced repetitions: {samples}"] += 1
            values[metric] = samples[0]
        else:
            values[metric] = statistics.median(samples)
    validate = setup_stats.get("scenarios.validate_scenario", (0, 0.0, 0.0))
    values["scenarios.validate_scenario.calls"] += validate[0]
    values["scenarios.validate_scenario.s"] += validate[2]
    values["trace.overhead_share"] = (statistics.median(b.seconds for b in traced)
                                      / statistics.median(b.seconds for b in plain) - 1.0)
    metrics = {name: (values[name], LAYER_METRICS[name][0]) for name in LAYER_METRICS}

    OUTPUT.mkdir(exist_ok=True)
    trace_path = OUTPUT / f"trace-{args.workload}-seed{args.seed}.npz"
    tracer.write(trace_path)
    notes = [
        f"per-layer values: median of {len(traced)} traced repetitions "
        f"(validate_scenario adds set-up); spans in {trace_path.relative_to(ROOT)}",
        f"{'span, per repetition':44s} {'calls':>9s} {'incl_s':>10s} {'self_s':>10s}",
    ]
    for name in sorted(tracer.names):
        calls, incl, own = (statistics.median(stats[name][k] for stats in per_batch)
                            for k in range(3))
        notes.append(f"{name:44s} {calls:9.0f} {incl:10.4f} {own:10.4f}")
    notes.append("per-layer metric -> end-to-end metric it should move, on which workload:")
    for name, (_, moves, workload) in LAYER_METRICS.items():
        notes.append(f"  {name} -> {moves} on {workload}")
    return checker, metrics, notes


def environment(threads: dict) -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "threads": threads}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_threads()
    try:
        runner, scenarios = load_library()
        SCRATCH.mkdir(exist_ok=True)
        measure = per_layer if args.trace else end_to_end
        checker, metrics, notes = measure(args, runner, scenarios)
    except SetupError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    print("environment: " + json.dumps(environment(threads), sort_keys=True))
    for line in notes:
        print(line)
    share = checker.failed / checker.attempted
    print(f"task_fail_share = {share:.6g} ratio ({checker.failed} of {checker.attempted} "
          f"task executions)")
    for problem, count in sorted(checker.problems.items()):
        print(f"FAILED x{count}: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
