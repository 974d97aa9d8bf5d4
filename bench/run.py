#!/usr/bin/env python3
"""qcompat benchmark: run one workload for one seed and print its metrics.

    python3 bench/run.py --workload measure-pure --seed 0 --seconds 15 --trace 0

The library is imported from the src/ directory of the checkout this file
sits in. The benchmark is a single closed-loop caller in one process (the
cli workload runs one child process at a time). Each workload is a fixed
batch of calls generated from --seed. With --trace 0 the batch is repeated
while another pass still fits in --seconds (at least one pass), and the
end-to-end metrics are printed. With --trace 1 the batch runs once untraced
and once under cProfile, and the per-layer metrics are printed.

Standard output ends with two JSON lines: a report with the environment,
every metric, and the failures found; then the result object
{"correct", "attempted", "failed", "metrics"}. See bench/README.md.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# pinned before numpy loads: the benchmark is one caller, and the machine
# it is meant for has two cores
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import KERNEL, PROCESS, Speed  # noqa: E402
from tracing import Tracer, layer_metric_names  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORKLOADS = ("measure-pure", "measure-mixed", "spectral-large-d", "cli")
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 120.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("call_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER_EXTRA = (
    ("measure.restarts_used.mean", "count"),
    ("measure.first_restart_at_bound_frac", "ratio"),
    ("measure.gap_mean", "1"),
    ("measure.gap_max", "1"),
    ("cli.process_overhead_ms", "ms"),
    ("cli.command_elapsed_ms", "ms"),
    ("trace.overhead_s", "s"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    return layer_metric_names() + list(PER_LAYER_EXTRA)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="qcompat benchmark, one workload per run")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up as a measured run would, then exit (times setup_s)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


@dataclass
class Pass:
    wall_s: float  # raw seconds spent in the calls
    latencies_s: list
    scale: float  # raw seconds -> reference seconds, from samples taken during the pass
    checks: list

    def scaled_wall(self) -> float:
        return self.wall_s * self.scale

    def scaled_latencies(self) -> list:
        return [x * self.scale for x in self.latencies_s]


def run_pass(calls, speed: Speed, tracer=None) -> Pass:
    """Time every call of the batch back to back; check them afterwards."""
    first = len(speed.samples)
    speed.sample()
    outputs, latencies = [], []
    for call in calls:
        speed.sample_if_due()
        c0 = time.perf_counter()
        try:
            out = call.run(tracer)
        except Exception as exc:  # a raising call is a failed call; its check says which kind
            out = exc
        latencies.append(time.perf_counter() - c0)
        outputs.append(out)
    speed.sample()
    checks = [call.check(out) for call, out in zip(calls, outputs)]
    return Pass(sum(latencies), latencies, speed.scale(first), checks)


def tally(calls, passes) -> dict:
    """Failures over every call of every pass; a repeat must match pass one."""
    reasons: Counter = Counter()
    failed_labels = []
    attempted = failed = 0
    hard = False
    first = passes[0].checks
    for p in passes:
        for call, chk, ref in zip(calls, p.checks, first):
            why = list(chk.failures)
            if chk.key != ref.key:
                why.append("nondeterministic")
            attempted += 1
            if why:
                failed += 1
                reasons.update(why)
                if call.label not in failed_labels:
                    failed_labels.append(call.label)
            hard = hard or chk.hard or "nondeterministic" in why
    batch_failed = sum(1 for chk in first if chk.failures)
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": not hard,
        "fail_frac": batch_failed / len(calls),
        "reasons": dict(sorted(reasons.items())),
        "failed_calls": failed_labels,
    }


def median_ms(values) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


def measure_setup(args, speed: Speed) -> tuple[list[float], float]:
    """Fresh-process set-up times (start, import, generate inputs, exit), raw,
    with the scale to reference seconds measured around them."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    first = len(speed.samples)
    times = []
    for _ in range(SETUP_PROBES):
        speed.sample()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}:\n{proc.stderr}")
    speed.sample()
    return times, speed.scale(first)


def gap_stats(checks) -> tuple[float, float]:
    gaps = [c.gap for c in checks if c.gap is not None]
    return (statistics.fmean(gaps), max(gaps)) if gaps else (0.0, 0.0)


def pass_speed(args) -> Speed:
    """CLI calls start processes, so they are scaled by the process reference."""
    return Speed(PROCESS if args.workload == "cli" else KERNEL)


def run_timed(args, calls) -> tuple[dict, dict]:
    speed = pass_speed(args)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(calls, speed))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    setup, setup_scale = measure_setup(args, Speed(PROCESS))
    latencies = [x for p in passes for x in p.scaled_latencies()]
    # each call at its median over passes, so one slow repeat cannot reorder the calls
    per_call = [statistics.median(xs) for xs in zip(*(p.scaled_latencies() for p in passes))]
    counts = tally(calls, passes)
    metrics = {
        "setup_s": statistics.median(setup) * setup_scale,
        "wall_s": statistics.median(p.scaled_wall() for p in passes),
        "call_p50_ms": median_ms(per_call),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"fail_frac": counts["fail_frac"]}
    if len(latencies) >= 100:
        extra["call_p90_ms"] = statistics.quantiles(latencies, n=10)[-1] * 1000.0
    if any(c.gap is not None for c in passes[0].checks):
        extra["gap_mean"] = gap_stats(passes[0].checks)[0]
    raw = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "call_p50_ms": median_ms([x for p in passes for x in p.latencies_s]),
    }
    report = {
        "passes": len(passes),
        "calls_per_pass": len(calls),
        "extra_metrics": extra,
        "raw_seconds": raw,
        "speed_scales": {"passes": [p.scale for p in passes], "setup": setup_scale},
        **counts,
    }
    return metrics, report


def run_traced(args, calls, workdir: Path) -> tuple[dict, dict]:
    from workloads import first_restart_matches

    speed = pass_speed(args)
    plain = run_pass(calls, speed)
    tracer = Tracer(workdir)
    traced = run_pass(calls, speed, tracer)
    metrics = {
        name: value * traced.scale if name.endswith("_s") else value
        for name, value in tracer.layer_metrics().items()
    }

    measured = [(call, chk) for call, chk in zip(calls, plain.checks) if call.measure and chk.value is not None]
    restarts = [chk.restarts_used for _, chk in measured]
    matches = [first_restart_matches(call, chk.value) for call, chk in measured]
    gap_mean, gap_max = gap_stats(plain.checks)
    cli = [
        (lat * plain.scale, chk.elapsed_ms / 1000.0 * plain.scale)
        for lat, chk in zip(plain.latencies_s, plain.checks)
        if chk.elapsed_ms is not None
    ]
    metrics.update(
        {
            "measure.restarts_used.mean": statistics.fmean(restarts) if restarts else 0.0,
            "measure.first_restart_at_bound_frac": statistics.fmean(matches) if matches else 0.0,
            "measure.gap_mean": gap_mean,
            "measure.gap_max": gap_max,
            "cli.process_overhead_ms": median_ms([w - e for w, e in cli]),
            "cli.command_elapsed_ms": median_ms([e for _, e in cli]),
            "trace.overhead_s": traced.scaled_wall() - plain.scaled_wall(),
        }
    )
    report = {
        "untraced_wall_s": plain.scaled_wall(),
        "traced_wall_s": traced.scaled_wall(),
        "calls_per_pass": len(calls),
        "raw_seconds": {"untraced_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s},
        "speed_scales": {"passes": [plain.scale, traced.scale]},
        **tally(calls, [plain, traced]),
    }
    return metrics, report


def environment(args) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_text = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_text,
        "nproc": nproc,
        "machine": platform.machine(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qcompat" / "__init__.py").is_file():
        print(f"error: qcompat sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qcompat

    if Path(qcompat.__file__).resolve().parent != (SRC / "qcompat").resolve():
        print(f"error: qcompat imported from {qcompat.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import build

    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        calls = build(args.workload, args.seed, workdir, SRC)
        if args.setup_only:
            return 0
        if args.trace:
            metrics, report = run_traced(args, calls, workdir)
            units = per_layer_metrics()
        else:
            metrics, report = run_timed(args, calls)
            units = list(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units},
    }
    for name, unit in units:
        print(f"{name:<40} {metrics[name]:>14.6g} {unit}", file=sys.stderr)
    for name, value in report.get("extra_metrics", {}).items():
        print(f"{name:<40} {value:>14.6g} (report only)", file=sys.stderr)
    print(json.dumps({"report": {"env": environment(args), **report}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
