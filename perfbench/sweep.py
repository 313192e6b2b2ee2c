"""paper-sweep: the §5 study, offline and single-process.

Per system: ``generate_system`` (plus ``inject_critical_sections`` for
the lock-injected quarter), SA/PM, SA/DS (``max_iterations=100``;
the blocking-aware variants on sectioned systems), then DS, PM and RG
simulations (``horizon_periods=10``, ``engine="batch"``; sectioned
systems fall back to the reference kernel).
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

import calibration
import inputs
import layers
import references
from harness import (
    BENCH_DIR,
    ROOT,
    median,
    peak_rss_mb,
    report,
)
from repro.api import run_protocol
from repro.core.analysis.sa_ds import analyze_sa_ds
from repro.core.analysis.sa_pm import analyze_sa_pm
from repro.locks import analyze_sa_ds_blocking, analyze_sa_pm_blocking
from repro.locks.inject import inject_critical_sections
from repro.timebase import REL_EPS
from repro.workload.generator import generate_system
from spans import SpanRecorder, per_span_cost

SETUP_REPEATS = 3
#: Whole passes over the sweep set per run, at the least; more follow
#: while the run's time allows another.  Each system's figure is its
#: median over passes: over six runs, the sweep's total spread 0.10
#: (quartile distance over median) from three passes, 0.07 from four.
MIN_PASSES = 4
TAIL_SYSTEMS = 3


class Calls:
    """The program functions the sweep calls, traced or plain."""

    def __init__(self, recorder: SpanRecorder | None, counters: layers.Counters):
        self.recorder = recorder
        self.counters = counters
        self.generate = generate_system
        self.inject = inject_critical_sections
        self.sa_pm = analyze_sa_pm
        self.sa_ds = analyze_sa_ds
        self.sa_pm_blocking = analyze_sa_pm_blocking
        self.sa_ds_blocking = analyze_sa_ds_blocking
        if recorder is not None:
            wrap = recorder.wrap
            self.generate = wrap(generate_system, layers.GENERATE)
            self.inject = wrap(inject_critical_sections, layers.INJECT)
            self.sa_pm = wrap(analyze_sa_pm, layers.SA_PM)
            self.sa_ds = wrap(
                analyze_sa_ds,
                layers.SA_DS,
                observe=counters.analysis_observer(layers.SA_DS),
            )
            self.sa_pm_blocking = wrap(analyze_sa_pm_blocking, layers.SA_PM_BLOCKING)
            self.sa_ds_blocking = wrap(
                analyze_sa_ds_blocking,
                layers.SA_DS_BLOCKING,
                observe=counters.analysis_observer(layers.SA_DS_BLOCKING),
            )

    def simulate(self, system, protocol):
        start = time.perf_counter()
        result = run_protocol(
            system,
            protocol,
            horizon_periods=inputs.SWEEP_HORIZON_PERIODS,
            engine="batch",
        )
        end = time.perf_counter()
        kernel = "batch" if result.engine == "batch" else "engine"
        self.counters.add(f"sim.{kernel}.runs")
        self.counters.add(f"sim.{kernel}.events", result.events_processed)
        if result.engine_fallback is not None:
            self.counters.add("sim.fallbacks")
        if self.recorder is not None:
            self.recorder.record(f"sim.{kernel}", start, end)
        return result


def evaluate(item: inputs.SweepItem, calls: Calls) -> tuple[dict, float]:
    """One system's §5 evaluation -> (outcome, seconds spent in analyses)."""
    system = calls.generate(item.config(), item.system_seed)
    started = time.perf_counter()
    if item.locked:
        system = calls.inject(
            system, ratio=inputs.SWEEP_LOCK_RATIO, seed=item.system_seed
        )
        started = time.perf_counter()
        sa_pm = calls.sa_pm_blocking(system)
        sa_ds = calls.sa_ds_blocking(
            system, max_iterations=inputs.SWEEP_SA_DS_ITERATIONS
        )
    else:
        sa_pm = calls.sa_pm(system)
        sa_ds = calls.sa_ds(system, max_iterations=inputs.SWEEP_SA_DS_ITERATIONS)
    analysis_s = time.perf_counter() - started
    events = {
        protocol: calls.simulate(system, protocol).events_processed
        for protocol in inputs.SWEEP_PROTOCOLS
    }
    outcome = {
        "sa_pm_schedulable": sa_pm.schedulable,
        "sa_ds_schedulable": sa_ds.schedulable,
        "sa_ds_failed": sa_ds.failed,
        "sa_pm_bounds": [_bound(b) for b in sa_pm.task_bounds],
        "sa_ds_bounds": [_bound(b) for b in sa_ds.task_bounds],
        "events": events,
    }
    return outcome, analysis_s


def _bound(value) -> float | str:
    return "inf" if math.isinf(value) else float(value)


def _bounds_close(got, want) -> bool:
    if len(got) != len(want):
        return False
    for a, b in zip(got, want):
        if isinstance(a, str) or isinstance(b, str):
            if a != b:
                return False
        elif abs(a - b) > REL_EPS * max(1.0, abs(b)):
            return False
    return True


def mismatch(outcome: dict, reference: dict) -> str | None:
    """Why ``outcome`` disagrees with the recorded reference, or None.

    Verdicts and event counts must match exactly; bounds within the
    timebase's ``REL_EPS``.  SA/DS pass counts are deliberately not
    compared: a faster solver may take fewer passes to the same bounds.
    """
    for field in ("sa_pm_schedulable", "sa_ds_schedulable", "sa_ds_failed", "events"):
        if outcome[field] != reference[field]:
            return f"{field}: {outcome[field]!r} != {reference[field]!r}"
    for field in ("sa_pm_bounds", "sa_ds_bounds"):
        if not _bounds_close(outcome[field], reference[field]):
            return f"{field} differ beyond REL_EPS"
    return None


def at_reference_speed(
    passes: list[dict[str, float]], kernels: list[list[float]]
) -> dict[str, float]:
    """Each system's time at the reference speed: the median over passes
    of its measured time, scaled by its pass's calibration kernels.

    One pass over the whole set read 7.1 to 12.5 s within a single run
    on the machine this benchmark was built on, and whole runs fell into
    slow stretches.  Over six 28 s runs the sum of the per-system figures
    spread (quartile distance over median) 0.06 scaled this way, 0.15 as
    the fastest measured pass per system, and 0.26 when each system was
    scaled by only the two kernel runs around it (too few samples: the
    minimum then picks the kernel's own noise).  The analyses keep no
    state between calls, so every pass does the same work.
    """
    scaled: dict[str, list[float]] = {}
    for seconds, pass_kernels in zip(passes, kernels):
        if not seconds:
            continue  # every system of the pass failed
        factor = calibration.scale(pass_kernels)
        for item_id, value in seconds.items():
            scaled.setdefault(item_id, []).append(value * factor)
    return {item_id: median(values) for item_id, values in scaled.items()}


def slowest_mean(per_system: dict[str, float]) -> float:
    """Mean of the ``TAIL_SYSTEMS`` slowest systems: the sweep's tail."""
    return statistics.fmean(sorted(per_system.values())[-TAIL_SYSTEMS:])


def setup_probe(seed: int, seconds: int) -> None:
    """What a sweep does before its first timed system (used by probes)."""
    inputs.sweep_items(seed)
    references.load("paper-sweep")


def _probe_setup(seed: int, seconds: int) -> calibration.Stopwatch:
    """Launch a fresh interpreter that sets up a sweep; time until it exits."""
    command = [
        sys.executable,
        str(BENCH_DIR / "run.py"),
        "--workload",
        "paper-sweep",
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--setup-probe",
    ]
    with calibration.Stopwatch() as watch:
        subprocess.run(
            command, cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL
        )
    return watch


def run(seed: int, seconds: int, trace: bool) -> tuple[bool, int, int, dict]:
    setups = [_probe_setup(seed, seconds) for _ in range(SETUP_REPEATS)]
    items = inputs.sweep_items(seed)
    expected = references.load("paper-sweep")
    counters = layers.Counters()
    recorder = SpanRecorder() if trace else None
    calls = Calls(recorder, counters)
    run_item = evaluate
    if recorder is not None:
        # One root span per system: its stages become children, tagged
        # with the item id, and the root's self time is harness overhead.
        run_item = recorder.wrap(
            evaluate, "bench.sweep.system", request=lambda item, calls: item.item_id
        )

    # Per pass: each system's measured time, and the calibration kernel
    # run after every system (the pass's speed, see calibration.py).
    per_system: list[dict[str, float]] = []
    analysis: list[dict[str, float]] = []
    kernels: list[list[float]] = []
    gaps: list[float] = []
    attempted = failures = 0
    started = previous_end = time.perf_counter()
    # Whole passes, so that every system is timed equally often: at
    # least MIN_PASSES, then another while a mean pass still fits.
    while True:
        elapsed = time.perf_counter() - started
        passes = len(per_system)
        if passes >= MIN_PASSES and elapsed + elapsed / passes > seconds:
            break
        per_system.append({})
        analysis.append({})
        kernels.append([])
        for item in items:
            attempted += 1
            begin = time.perf_counter()
            gaps.append(begin - previous_end)
            try:
                outcome, analysis_s = run_item(item, calls)
            except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
                report(f"FAILED {item.item_id}: {type(exc).__name__}: {exc}")
                failures += 1
                previous_end = time.perf_counter()
                continue
            end = time.perf_counter()
            kernels[-1].append(calibration.kernel_s())
            why = mismatch(outcome, expected[item.item_id])
            if why is not None:
                report(f"MISMATCH {item.item_id}: {why}")
                failures += 1
            else:
                per_system[-1][item.item_id] = end - begin
                analysis[-1][item.item_id] = analysis_s
            previous_end = time.perf_counter()
    wall = time.perf_counter() - started
    if not any(per_system):
        raise RuntimeError("paper-sweep: no system completed with a correct result")

    report(
        f"paper-sweep: {len(items)} systems ({sum(i.locked for i in items)} "
        f"lock-injected) x {len(per_system)} passes, {wall:.3f} s, "
        f"setup runs {', '.join(f'{w.measured:.3f}' for w in setups)} s measured, "
        f"{', '.join(f'{w.reference:.3f}' for w in setups)} s at reference speed"
    )
    if trace:
        summary = recorder.summary()
        extra = {
            "generator_lag_p99_ms": layers.lag_p99_ms(gaps),
            "span_count": len(recorder.spans),
            "traced_wall_s": wall,
        }
        extra["trace_overhead"] = per_span_cost() * len(recorder.spans) / wall
        layers.print_layer_report(summary, counters, extra)
        recorder.dump_jsonl(references.spans_path("paper-sweep", seed))
        metrics = layers.per_layer_metrics(summary, counters, extra)
    else:
        evaluation = at_reference_speed(per_system, kernels)
        analysis_only = at_reference_speed(analysis, kernels)
        slowest = sorted(evaluation, key=evaluation.get)[-TAIL_SYSTEMS:]
        report(
            "  passes: "
            + "; ".join(
                f"{sum(seconds.values()):.3f} s measured, kernel median "
                f"{median(pass_kernels) * 1e3:.2f} ms"
                for seconds, pass_kernels in zip(per_system, kernels)
            )
            + f" (reference {calibration.REFERENCE_S * 1e3:.2f} ms); per-system "
            f"medians at reference speed sum to {sum(evaluation.values()):.3f} s"
        )
        report(
            f"  sweep.systems_per_s {len(evaluation) / sum(evaluation.values()):.4f}; "
            f"per-system time at reference speed over {len(evaluation)} systems: median "
            f"{median(evaluation.values()) * 1e3:.1f} ms, slowest {TAIL_SYSTEMS} "
            f"({', '.join(slowest)}) {slowest_mean(evaluation) * 1e3:.1f} ms; "
            f"analysis only: median {median(analysis_only.values()) * 1e3:.1f} ms, "
            f"slowest {TAIL_SYSTEMS} {slowest_mean(analysis_only) * 1e3:.1f} ms"
        )
        metrics = {
            "setup_s": median(w.reference for w in setups),
            "peak_rss_mb": peak_rss_mb(),
            "ops_per_s": len(evaluation) / sum(evaluation.values()),
            "p50_ms": median(evaluation.values()) * 1e3,
            "tail_ms": slowest_mean(evaluation) * 1e3,
            "alt_ops_per_s": len(analysis_only) / sum(analysis_only.values()),
        }
    return failures == 0, attempted, failures, metrics
