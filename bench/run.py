#!/usr/bin/env python3
"""Benchmark of o2i-los: one workload per run, outputs checked, metrics as JSON.

    python3 bench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

# Set-up is sampled in fresh interpreters, spread over the run, and the
# fastest sample is reported: on a shared host the median of 20 back-to-back
# samples moved by 0.30 (quartile spread over median) from batch to batch,
# their fastest by 0.16.
SETUP_SAMPLES = 20
CLI_SAMPLES = 5
WARMUP_S = 2.0  # the first second or so of grid work runs up to 2x slower
MAX_TRACED_ROUNDS = 10


def import_package():
    """Import o2i_los from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import o2i_los

    if Path(o2i_los.__file__).resolve().parent != SRC / "o2i_los":
        raise ImportError(f"o2i_los imported from {o2i_los.__file__}, not {SRC}")
    return o2i_los


def set_up(name: str, seed: int, out_dir: Path, tracer_factory=None):
    """Everything between a fresh interpreter and the first timed operation."""
    package = import_package()
    api = workloads.api_table(package)
    tracer = tracer_factory(api) if tracer_factory else None
    if tracer:
        tracer.install()
    try:
        workload = workloads.build(name, workloads.read_inputs(name, seed, ROOT), api, out_dir)
    finally:
        if tracer:
            tracer.uninstall()
    return package, workload, tracer


def setup_sample(name: str, seed: int) -> float:
    """Time from starting a fresh interpreter to the end of its set-up."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", name, "--seed", str(seed)]
    start = time.perf_counter()
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        child.stdout.close()
        child.wait(timeout=120)
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up child failed with exit code {child.returncode}")
    return elapsed


def cli_cold_start() -> float:
    """Median wall time of one o2i-los CLI invocation in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    command = [sys.executable, "-m", "o2i_los", "critical-freq",
               "--window-m", "2", "--bs-distance-m", "5", "--room-m", "20"]
    samples = []
    for _ in range(CLI_SAMPLES):
        start = time.perf_counter()
        subprocess.run(command, env=env, stdout=subprocess.DEVNULL, check=True, timeout=120)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def warm_up(workload) -> None:
    start = time.perf_counter()
    while True:
        workload.warmup()
        if time.perf_counter() - start >= WARMUP_S:
            return


def timed_round(workload):
    """One round: (wall seconds, CPU seconds, result) per operation."""
    gc.collect()
    samples = []
    for op in workload.ops:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        result = op.run()
        cpu1, wall1 = time.process_time(), time.perf_counter()
        samples.append((wall1 - wall0, cpu1 - cpu0, result))
    return samples


class Rounds:
    """Timings, outputs and failures of the rounds of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.walls = [[] for _ in workload.ops]
        self.cpus = [[] for _ in workload.ops]
        self.round_walls: list[float] = []
        self.results = None
        self.snapshots = None
        # Output values of one round, and how many are not finite.  Every
        # round must write the same bytes, so one round stands for all.
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self) -> None:
        samples = timed_round(self.workload)
        ops = self.workload.ops
        for i, (wall, cpu, _) in enumerate(samples):
            self.walls[i].append(wall)
            self.cpus[i].append(cpu)
        self.round_walls.append(sum(wall for wall, _, _ in samples))
        results = [result for _, _, result in samples]
        snapshots = [self.workload.snapshot(op, r) for op, r in zip(ops, results)]
        if self.snapshots is None:
            self.results, self.snapshots = results, snapshots
            values = [v for op, r in zip(ops, results) for v in self.workload.values(op, r)]
            self.attempted = len(values)
            self.failed = sum(1 for v in values if not math.isfinite(v))
        elif snapshots != self.snapshots:
            self.problems.append("a round's outputs differ from the first round's")

    def wall_s(self) -> float:
        return sum(self.workload.statistic(w) for w in self.walls)

    def cpu_s(self) -> float:
        return sum(self.workload.statistic(c) for c in self.cpus)


def check_outputs(package, workload, rounds, seed) -> list[str]:
    import checks

    ops = workload.ops
    if workload.name == "validation":
        return checks.check_validation(ops, rounds.results, package, seed)
    return checks.check_sweeps(ops, rounds.results, rounds.snapshots, package, seed)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, out_dir: Path):
    setup = [setup_sample(args.workload, args.seed)]
    package, workload, _ = set_up(args.workload, args.seed, out_dir)
    warm_up(workload)
    rounds = Rounds(workload)
    start = time.perf_counter()
    # Whole rounds only; stop before a round that would overrun the budget.
    while True:
        rounds.run()
        elapsed = time.perf_counter() - start
        if elapsed >= len(setup) * args.seconds / SETUP_SAMPLES:
            setup.append(setup_sample(args.workload, args.seed))
            elapsed = time.perf_counter() - start
        if elapsed + statistics.median(rounds.round_walls) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(args.workload, args.seed))
    setup_s = min(setup)
    problems = rounds.problems + check_outputs(package, workload, rounds, args.seed)
    wall_s = rounds.wall_s()
    metrics = {
        "wall_s": metric(wall_s, "s"),
        "outputs_per_s": metric(workload.outputs_per_round / wall_s, "1/s"),
        "cpu_s": metric(rounds.cpu_s(), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "setup_s": metric(setup_s, "s"),
    }
    print(f"{workload.name}: {len(rounds.round_walls)} rounds of {len(workload.ops)} "
          f"operations, {workload.outputs_per_round} outputs each; round wall s min "
          f"{min(rounds.round_walls):.4f} median {statistics.median(rounds.round_walls):.4f} "
          f"max {max(rounds.round_walls):.4f}", file=sys.stderr)
    return problems, rounds, metrics


def layer_lines(modules) -> dict:
    package_dir = SRC / "o2i_los"
    metrics = {}
    for module in modules:
        path = package_dir / f"{module}.py"
        lines = len(path.read_text().splitlines()) if path.is_file() else 0
        metrics[f"{module}.lines"] = metric(lines, "count")
    total = sum(len(p.read_text().splitlines()) for p in package_dir.rglob("*.py"))
    metrics["o2i_los.lines"] = metric(total, "count")
    return metrics


def per_layer(args, out_dir: Path):
    from tracing import MODULES, Tracer

    package, workload, tracer = set_up(args.workload, args.seed, out_dir, Tracer)
    at_setup = tracer.snapshot()
    warm_up(workload)
    plain, traced = Rounds(workload), Rounds(workload)
    per_round = []
    start = time.perf_counter()
    while len(traced.round_walls) < MAX_TRACED_ROUNDS:
        plain.run()
        before = tracer.snapshot()
        tracer.install()
        try:
            traced.run()
        finally:
            tracer.uninstall()
        after = tracer.snapshot()
        per_round.append({k: tuple(a - b for a, b in zip(after[k], before[k])) for k in after})
        elapsed = time.perf_counter() - start
        pair = plain.round_walls[-1] + traced.round_walls[-1]
        if elapsed + pair > args.seconds:
            break
    tracer.write_spans(OUT / f"spans-{workload.name}.csv")

    problems = plain.problems + traced.problems
    if traced.snapshots != plain.snapshots:
        problems.append("traced outputs differ from untraced outputs")
    problems += check_outputs(package, workload, plain, args.seed)

    def median(name, field):
        index = ("calls", "self_s", "total_s", "work").index(field)
        return statistics.median(r[name][index] for r in per_round)

    def rate(name):
        total = sum(r[name][2] for r in per_round)
        return sum(r[name][3] for r in per_round) / total if total > 0 else 0.0

    grid = "los.p_los_grid"
    csv_bytes = sum(len(text.encode()) for op, text in zip(workload.ops, plain.snapshots)
                    if op.path is not None)
    metrics = {
        "sweep.parse_config.self_s": metric(at_setup["sweep.parse_config"][1], "s"),
        "sweep.run_sweep.self_s": metric(median("sweep.run_sweep", "self_s"), "s"),
        "sweep.emit_csv.self_s": metric(median("sweep.emit_csv", "self_s"), "s"),
        "sweep.emit_csv.bytes": metric(csv_bytes, "bytes"),
        "geometry.SceneGeometry.calls": metric(median("geometry.SceneGeometry", "calls"), "count"),
        "los.p_los_grid.calls": metric(median(grid, "calls"), "count"),
        "los.p_los_grid.self_s": metric(median(grid, "self_s"), "s"),
        "los.p_los_grid.cells_per_s": metric(rate(grid), "1/s"),
        "los.p_los_grid.peak_alloc_mb": metric(tracer.stats[grid].peak_bytes / 2**20, "MB"),
    }
    for name in ("los.p_los_closed", "los.p_los_optical", "los.critical_frequency",
                 "los.evaluate", "diffraction.total_path_loss_db",
                 "diffraction.fresnel_integrals", "coverage.coverage_probability",
                 "coverage.reg_upper_gamma"):
        metrics[f"{name}.self_s"] = metric(median(name, "self_s"), "s")
    for name in ("diffraction.fresnel_integrals", "coverage.reg_upper_gamma"):
        metrics[f"{name}.calls"] = metric(median(name, "calls"), "count")
    metrics["coverage.coverage_mc_oracle.trials_per_s"] = metric(
        rate("coverage.coverage_mc_oracle"), "1/s")
    metrics.update(layer_lines(MODULES))
    metrics["cli.cold_start_s"] = metric(cli_cold_start(), "s")
    metrics["trace.overhead_s"] = metric(
        statistics.median(traced.round_walls) - statistics.median(plain.round_walls), "s")
    print(f"{workload.name}: {len(traced.round_walls)} traced and {len(plain.round_walls)} "
          f"untraced rounds, {len(tracer.span_start)} spans", file=sys.stderr)
    return problems, plain, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "o2i_los" / "__init__.py").is_file():
        print(f"error: no o2i_los package under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        set_up(args.workload, args.seed, OUT)
        print("ready", flush=True)
        return 0

    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        run = per_layer if args.trace else end_to_end
        problems, rounds, metrics = run(args, Path(scratch))
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
