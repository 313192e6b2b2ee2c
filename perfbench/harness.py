"""Shared plumbing: metric catalogue, percentile rule, machine facts.

Everything here is dependency-free so the span recorder, the server
process and the tests can import it without pulling in the program.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Run outputs (span JSONL, sqlite files); ignored by git.
OUT_DIR = ROOT / ".perfbench"

WORKLOADS = ("paper-sweep", "admit-cold", "admit-hot")

#: Every workload reports the same end-to-end names, one operating
#: point each for a primary and an alternate path (see README.md for
#: what each slot holds on each workload).
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "alt_ops_per_s": "1/s",
}

PER_LAYER: dict[str, str] = {
    "core.analysis.sa_ds_ms": "ms",
    "core.analysis.sa_ds_passes": "count",
    "core.analysis.sa_ds_failed_share": "ratio",
    "core.analysis.sa_pm_ms": "ms",
    "locks.analysis.sa_ds_blocking_ms": "ms",
    "locks.analysis.sa_ds_blocking_passes": "count",
    "locks.analysis.sa_pm_blocking_ms": "ms",
    "service.engine.compute_decision_ms": "ms",
    "sim.batch.events_per_s": "1/s",
    "sim.engine.events_per_s": "1/s",
    "sim.fallback_share": "ratio",
    "workload.generate_ms": "ms",
    "service.requests.parse_us": "us",
    "service.requests.encode_us": "us",
    "service.hashing.request_key_us": "us",
    "service.cache.get_us": "us",
    "service.cache.hit_ratio": "ratio",
    "regions.tier.lookup_us": "us",
    "regions.tier.hit_ratio": "ratio",
    "service.frontend.admit_us": "us",
    "regions.tier.build_s": "s",
    "regions.tier.builds": "count",
    "service.backends.sqlite_put_us": "us",
    "service.frontend.overhead_ms": "ms",
    "service.batch.pool_efficiency": "ratio",
    "service.frontend.shed": "count",
    "service.frontend.coalesced": "count",
    "bench.generator_lag_p99_ms": "ms",
    "bench.trace_overhead": "ratio",
}

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def tail_percentile(count: int) -> float:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond.

    With ``count`` samples the value of rank ``count - TAIL_BEYOND``
    (1-based) has exactly ten above it, so its percentile is
    ``100 * (1 - 10 / count)``: p90 for 100 samples, p99 for 1000.
    """
    if count <= TAIL_BEYOND:
        raise ValueError(
            f"need more than {TAIL_BEYOND} samples for a tail, got {count}"
        )
    return 100.0 * (1.0 - TAIL_BEYOND / count)


def tail_value(samples) -> float:
    """The sample at :func:`tail_percentile` (ten samples lie above it)."""
    ordered = sorted(samples)
    tail_percentile(len(ordered))  # validates the count
    return ordered[len(ordered) - TAIL_BEYOND - 1]


def median(samples) -> float:
    return statistics.median(samples)


def percentile(samples, fraction: float) -> float:
    """Nearest-rank ``fraction``-quantile (0.9 -> p90)."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def p99(samples) -> float:
    """Nearest-rank 99th percentile (used for harness-validity figures)."""
    return percentile(samples, 0.99)


def ratio_text(part: float, whole: int, noun: str) -> str:
    """A ratio printed with its base, e.g. ``0.75 of 12000 lookups``."""
    share = part / whole if whole else 0.0
    return f"{share:.4f} of {whole} {noun}"


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MiB.

    ``VmHWM`` from ``/proc/self/status``, not ``ru_maxrss``: Linux carries
    ``ru_maxrss`` across ``exec``, so a process started by a larger one
    (the server by the benchmark client, the benchmark by whatever runs
    it) would report its parent's size instead of its own.
    """
    try:
        with open("/proc/self/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_facts() -> dict:
    """nproc, Python / numpy versions and CPU model, for the report."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu": cpu,
    }


def emit_result(
    *, correct: bool, attempted: int, failed: int, metrics: dict, trace: bool
) -> None:
    """Print the final JSON line in the contract's shape."""
    units = PER_LAYER if trace else END_TO_END
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        raise RuntimeError(
            f"metric set mismatch: missing {missing}, unexpected {extra}"
        )
    document = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }
    sys.stdout.write(json.dumps(document) + "\n")
    sys.stdout.flush()


def report(line: str) -> None:
    """One human-readable report line (stdout, before the JSON line)."""
    sys.stdout.write(line + "\n")
    sys.stdout.flush()
