#!/usr/bin/env python3
"""Benchmark of bochnerkit, timed end to end and per module from outside.

    python3 perfbench/run.py --workload suite|algebra|identities \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload is a closed loop with one caller: a unit starts when
the previous one has been checked.  The number of units is fixed by
``--seconds`` and the workload's nominal unit cost, so two commits measured
with the same settings do the same work.

``--trace 0`` imports the package unmodified and reports the end-to-end
metrics.  Their times are wall seconds at reference speed: each unit is timed
while a yardstick samples the machine's speed (``yardstick.py``), because
this shared host drifts by tens of percent between runs.  The raw wall times
are printed in the record beside them.  ``--trace 1`` runs the same units twice, first untraced and then
with every public function of each module wrapped in a span
(``tracer.py``), and reports the per-layer metrics plus the tracing overhead.

Every metric is printed by name with its unit, then one line with the full
record (environment, extra figures, per-check headroom), then the result
object as the last line.  The exit code is 0 only when every output check
passed; 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
# yardstick samples behind each unit's speed factor: a unit with fewer
# borrows those of its neighbours
MIN_FACTOR_SAMPLES = 90
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# One caller, one thread: an idle BLAS pool spinning on the other core only
# adds noise.  Set before numpy is first imported, here or in a set-up probe.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import yardstick  # noqa: E402  (imports numpy, so after the thread variables)

SCENARIO_IDS = (
    "thm21_forward", "thm21_converse", "cor22", "thm31_s6", "thm31_product",
    "thm31_counterexample", "thm32_models", "cor33_spotcheck", "identities_s6",
    "identities_cp", "bianchi",
)

END_TO_END = {
    "setup_s": "s",
    "wall_ref_s": "s",
    "unit_p50_ref_s": "s",
    "unit_tail_ref_s": "s",
    "peak_rss_mb": "MB",
}


def _per_layer_units() -> dict[str, str]:
    units = {
        "charts.metric_at.calls": "count",
        "charts.metric_at.s": "s",
        "charts.metric_at.unique_ratio": "ratio",
        "charts.metric_at.calls_per_nk_suite": "count",
        "charts.metric_at.calls_per_bianchi_suite": "count",
        "charts.J_at.calls": "count",
        "charts.J_at.s": "s",
    }
    for fn in ("christoffel_at", "curvature_at", "j_derivatives_at",
               "nk_identity_suite", "bianchi_suite"):
        units[f"charts.{fn}.self_s"] = "s"
    units["charts.errors"] = "count"
    units["charts.fd_headroom_max"] = "ratio"
    for name in ("curvature.star", "curvature.ricci_family", "curvature.validate_point",
                 "bochner.generalized_bochner", "bochner.rk_bochner",
                 "bochner.antiholo_4frame_defect", "multilinear.invariant_norm",
                 "multilinear.CurvTensor"):
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    for fn in ("canonical_json", "dump_tensor", "load_tensor"):
        units[f"serialization.{fn}.s"] = "s"
    units["serialization.bytes"] = "bytes"
    for sid in SCENARIO_IDS:
        units[f"scenarios.{sid}.self_s"] = "s"
    units["cli.cli_dispatch.self_s"] = "s"
    units["trace_overhead_s"] = "s"
    return units


PER_LAYER = _per_layer_units()


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Phase:
    """Timed units of one pass over the workload, and what their checks found."""

    def __init__(self):
        self.times: list[float] = []  # raw wall seconds, yardstick samples excluded
        self.ref_times: list[float] = []  # the same at reference speed
        self.unit_samples: list[list[tuple[int, float]]] = []  # yardstick, per unit
        self.factor: float | None = None  # speed factor of the whole phase
        self.problems: dict[int, list[str]] = {}
        self.headroom: dict[str, float] = {}
        self.unit_counts: list[dict[str, int]] = []

    @property
    def failed(self) -> int:
        return len(self.problems)

    @property
    def samples(self) -> list[tuple[int, float]]:
        return [s for unit in self.unit_samples for s in unit]


def run_phase(workload, units: int, tracer=None, stick=None) -> Phase:
    """Run and check ``units`` units.  With a ``stick`` (a running
    ``yardstick.Yardstick``) each unit is also timed at reference speed."""
    phase = Phase()
    warm = stick.warm_up() if stick else []
    for i in range(units):
        gc.collect()
        before = tracer.counts() if tracer else None
        if stick:
            stick.take()
        t0 = time.perf_counter()
        try:
            out = workload.run(i)
        except Exception as exc:  # a unit that raises is a failed unit, not a crash
            out, raised = None, exc
        else:
            raised = None
        _record_time(phase, time.perf_counter() - t0, stick)
        if raised is not None:
            phase.problems[i] = [f"raised {type(raised).__name__}: {raised}"]
            continue
        if tracer:
            tracer.end_unit()
            after = tracer.counts()
            phase.unit_counts.append({k: v - before.get(k, 0) for k, v in after.items()})
        try:
            problems, headroom = workload.check(i, out)
        except Exception as exc:
            problems, headroom = [f"output check raised {type(exc).__name__}: {exc}"], {}
        if problems:
            phase.problems[i] = problems
        for name, value in headroom.items():
            phase.headroom[name] = max(phase.headroom.get(name, 0.0), value)
    if tracer:
        _check_counts_repeat(phase)
    if stick:
        # the direct warm-up samples count only for a phase too short to sample
        phase.factor = yardstick.factor(phase.samples) or yardstick.factor(phase.samples + warm)
        phase.ref_times = [t * f for t, f in zip(phase.times, _unit_factors(phase))]
    return phase


def _unit_factors(phase: Phase) -> list[float]:
    """Each unit's speed factor, from the samples taken during it and, for a
    short unit, during the nearest units around it."""
    per_unit = phase.unit_samples
    if len(phase.samples) < MIN_FACTOR_SAMPLES:
        return [phase.factor] * len(per_unit)
    factors = []
    for i in range(len(per_unit)):
        lo, hi = i, i + 1
        pooled = list(per_unit[i])
        while len(pooled) < MIN_FACTOR_SAMPLES:
            if lo > 0:
                lo -= 1
                pooled += per_unit[lo]
            if hi < len(per_unit):
                pooled += per_unit[hi]
                hi += 1
        factors.append(yardstick.factor(pooled))
    return factors


def _record_time(phase: Phase, elapsed: float, stick) -> None:
    if stick is None:
        phase.times.append(elapsed)
        return
    samples = stick.take()
    phase.times.append(elapsed - yardstick.seconds(samples))
    phase.unit_samples.append(samples)


def _check_counts_repeat(phase: Phase) -> None:
    """Every count must be the same for every unit, whatever its seed."""
    if not phase.unit_counts:
        return
    first = phase.unit_counts[0]
    for i, counts in enumerate(phase.unit_counts[1:], start=1):
        drift = sorted(k for k in set(first) | set(counts) if first.get(k, 0) != counts.get(k, 0))
        if drift:
            phase.problems.setdefault(i, []).append(
                "counts differ from unit 0: " + ", ".join(
                    f"{k} {first.get(k, 0)} vs {counts.get(k, 0)}" for k in drift
                )
            )


def unit_tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 units beyond it, and that percentile.

    With 10 units or fewer no such percentile exists; the maximum stands in
    and the percentile reads 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def setup_seconds(workload: str, seed: int, units: int, workdir: Path) -> list[float]:
    """Set-up time of ``SETUP_PROBES`` fresh interpreters, each timing its own
    import of the package and construction of the workload's inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(units),
             str(workdir)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def end_to_end_metrics(phase: Phase, setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics.  Set-up runs in probes outside the yardstick, just
    before the timed phase, and is scaled by the factor of the whole phase."""
    tail, tail_pct = unit_tail(phase.ref_times)
    setup_factor = phase.factor
    metrics = {
        "setup_s": statistics.median(setup) * setup_factor,
        "wall_ref_s": sum(phase.ref_times),
        "unit_p50_ref_s": statistics.median(phase.ref_times),
        "unit_tail_ref_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "unit_tail_pct": tail_pct,
        "units": len(phase.times),
        "wall_s": sum(phase.times),
        "unit_p50_s": statistics.median(phase.times),
        "unit_tail_s": unit_tail(phase.times)[0],
        "unit_times_s": phase.times,
        "unit_ref_times_s": phase.ref_times,
        "yardstick_samples": len(phase.samples),
        "yardstick_factor": phase.factor,
        "yardstick_medians_s": yardstick.medians(phase.samples),
        "setup_raw_s": setup,
        "setup_factor": setup_factor,
        "failed_ratio": phase.failed / len(phase.times),
        "fd_headroom_max": max(phase.headroom.values(), default=None),
    }
    return metrics, extra


def per_layer_metrics(tracer, traced: Phase, untraced: Phase) -> tuple[dict, dict]:
    st = tracer.stats

    def calls(name):
        return st[name].calls if name in st else 0

    def incl(name):
        return st[name].s if name in st else 0.0

    def self_s(name):
        return st[name].self_s if name in st else 0.0

    metric_calls = calls("charts.metric_at")
    distinct = tracer.metric_points_distinct

    def per_suite(fn):
        runs = [c for (name, _), cs in tracer.suite_metric_calls.items() if name == fn for c in cs]
        return sum(runs) / len(runs) if runs else 0.0

    m = {
        "charts.metric_at.calls": metric_calls,
        "charts.metric_at.s": incl("charts.metric_at"),
        "charts.metric_at.unique_ratio": distinct / metric_calls if metric_calls else 0.0,
        "charts.metric_at.calls_per_nk_suite": per_suite("charts.nk_identity_suite"),
        "charts.metric_at.calls_per_bianchi_suite": per_suite("charts.bianchi_suite"),
        "charts.J_at.calls": calls("charts.J_at"),
        "charts.J_at.s": incl("charts.J_at"),
        "charts.errors": len(tracer.errors.get("charts", [])),
        "charts.fd_headroom_max": max(traced.headroom.values(), default=0.0),
        "serialization.bytes": tracer.bytes,
        "trace_overhead_s": sum(traced.times) - sum(untraced.times),
    }
    for name in PER_LAYER:
        if name in m:
            continue
        base, _, kind = name.rpartition(".")
        m[name] = {"calls": calls, "s": incl, "self_s": self_s}[kind](base)
    extra = {
        "metric_calls_per_suite_by_chart": {
            f"{fn}[{label}]": cs for (fn, label), cs in sorted(tracer.suite_metric_calls.items())
        },
        "unit_counts": traced.unit_counts[0] if traced.unit_counts else {},
        "units": len(traced.times),
        "untraced_wall_s": sum(untraced.times),
        "traced_wall_s": sum(traced.times),
        "wait_s": "0 by construction: one thread, no queues",
    }
    return {k: m[k] for k in PER_LAYER}, extra


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_build,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "workload_seed": seed,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:44s} {value:>16.6g} {units[name]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("suite", "algebra", "identities"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bochnerkit" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'bochnerkit'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bochnerkit

    if not Path(bochnerkit.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: bochnerkit imported from {bochnerkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    cls = workloads.WORKLOADS[args.workload]
    units = max(cls.min_units, round(args.seconds / cls.nominal_unit_s))
    # a terminated run still removes its work directory and set-up probes
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        env = environment(args.seed)
        workload = cls(args.seed, units, workdir)
        if args.trace:
            untraced = run_phase(workload, units)
            tracer = Tracer()
            with tracer.installed():
                traced = run_phase(workload, units, tracer)
            metrics, extra = per_layer_metrics(tracer, traced, untraced)
            metric_units = PER_LAYER
            phases = (untraced, traced)
        else:
            setup = setup_seconds(args.workload, args.seed, units, workdir)
            stick = yardstick.Yardstick()
            with stick.running():
                phase = run_phase(workload, units, stick=stick)
            metrics, extra = end_to_end_metrics(phase, setup)
            metric_units = END_TO_END
            phases = (phase,)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.times) for p in phases)
    failed = sum(p.failed for p in phases)
    for p in phases:
        for i, problems in sorted(p.problems.items()):
            for problem in problems:
                print(f"check failed: unit {i}: {problem}", file=sys.stderr)
    headroom = {}
    for p in phases:
        for name, value in p.headroom.items():
            headroom[name] = max(headroom.get(name, 0.0), value)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} units={units} "
          f"attempted={attempted} failed={failed} failed_ratio={failed / attempted:g}")
    _print_metrics(metrics, metric_units)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "metrics": {k: {"value": v, "unit": metric_units[k]} for k, v in metrics.items()},
        "extra": extra,
        "fd_headroom": dict(sorted(headroom.items())),
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
