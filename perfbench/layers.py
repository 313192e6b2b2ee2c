"""Per-layer metrics from span summaries, and the per-layer report.

Every workload's traced run reports the whole per-layer catalogue; a
layer the workload never calls reads 0 with its base (``0 calls``)
printed beside it, which is the measured fact, not a gap.
"""

from __future__ import annotations

from harness import p99, ratio_text, report

#: Span names recorded around the program's public functions.
SA_PM = "core.analysis.sa_pm"
SA_DS = "core.analysis.sa_ds"
SA_PM_BLOCKING = "locks.analysis.sa_pm_blocking"
SA_DS_BLOCKING = "locks.analysis.sa_ds_blocking"
COMPUTE = "service.engine.compute_decision"
GENERATE = "workload.generate"
INJECT = "locks.inject"
SIM_BATCH = "sim.batch"
SIM_REFERENCE = "sim.engine"
JSON_LOADS = "codec.json_loads"
FROM_DICT = "service.requests.request_from_dict"
TO_DICT = "service.requests.decision_to_dict"
JSON_DUMPS = "codec.json_dumps"
REQUEST_KEY = "service.hashing.request_key"
CACHE_GET = "service.cache.get"
CACHE_PUT = "service.cache.put"
SQLITE_PUT = "service.backends.sqlite_put"
REGION_LOOKUP = "regions.tier.lookup"
REGION_BUILD = "regions.tier.build"
ADMIT = "service.frontend.admit"


class Counters:
    """Counts taken at the same boundaries as the spans."""

    def __init__(self) -> None:
        self.values: dict[str, float] = {}

    def add(self, name: str, amount: float = 1) -> None:
        self.values[name] = self.values.get(name, 0) + amount

    def get(self, name: str) -> float:
        return self.values.get(name, 0)

    def merge(self, other: dict) -> None:
        for name, amount in other.items():
            self.add(name, amount)

    def analysis_observer(self, prefix: str):
        """An ``observe`` hook counting passes and failures of a result."""

        def observe(result) -> None:
            self.add(f"{prefix}.results")
            self.add(f"{prefix}.passes", result.iterations)
            if result.failed:
                self.add(f"{prefix}.failed")

        return observe


def _calls(summary, name) -> int:
    entry = summary.get(name)
    return int(entry["calls"]) if entry else 0


def _mean(summary, name, field="total_s", scale=1.0) -> float:
    entry = summary.get(name)
    if not entry or not entry["calls"]:
        return 0.0
    return entry[field] / entry["calls"] * scale


def _total(summary, *names, field="total_s") -> float:
    return sum(summary[name][field] for name in names if name in summary)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(summary, counters: Counters, extra: dict) -> dict:
    """The contract's per-layer metric dict.

    ``extra`` carries figures measured outside spans: overhead, pool
    efficiency, generator lag, trace overhead, shed/coalesced counts
    and the frontend's cache / region lookup counts.
    """
    parses = _calls(summary, FROM_DICT)
    encodes = _calls(summary, TO_DICT)
    sims = counters.get("sim.batch.runs") + counters.get("sim.engine.runs")
    metrics = {
        "core.analysis.sa_ds_ms": _mean(summary, SA_DS, scale=1e3),
        "core.analysis.sa_ds_passes": _share(
            counters.get(f"{SA_DS}.passes"), counters.get(f"{SA_DS}.results")
        ),
        "core.analysis.sa_ds_failed_share": _share(
            counters.get(f"{SA_DS}.failed"), counters.get(f"{SA_DS}.results")
        ),
        "core.analysis.sa_pm_ms": _mean(summary, SA_PM, scale=1e3),
        "locks.analysis.sa_ds_blocking_ms": _mean(summary, SA_DS_BLOCKING, scale=1e3),
        "locks.analysis.sa_ds_blocking_passes": _share(
            counters.get(f"{SA_DS_BLOCKING}.passes"),
            counters.get(f"{SA_DS_BLOCKING}.results"),
        ),
        "locks.analysis.sa_pm_blocking_ms": _mean(summary, SA_PM_BLOCKING, scale=1e3),
        "service.engine.compute_decision_ms": _mean(summary, COMPUTE, scale=1e3),
        "sim.batch.events_per_s": _share(
            counters.get("sim.batch.events"), _total(summary, SIM_BATCH)
        ),
        "sim.engine.events_per_s": _share(
            counters.get("sim.engine.events"), _total(summary, SIM_REFERENCE)
        ),
        "sim.fallback_share": _share(counters.get("sim.fallbacks"), sims),
        "workload.generate_ms": _mean(summary, GENERATE, scale=1e3),
        "service.requests.parse_us": _share(
            _total(summary, JSON_LOADS, FROM_DICT), parses
        )
        * 1e6,
        "service.requests.encode_us": _share(
            _total(summary, TO_DICT, JSON_DUMPS), encodes
        )
        * 1e6,
        "service.hashing.request_key_us": _mean(summary, REQUEST_KEY, scale=1e6),
        "service.cache.get_us": _mean(summary, CACHE_GET, scale=1e6),
        "service.cache.hit_ratio": _share(
            extra.get("cache_hits", 0), extra.get("cache_lookups", 0)
        ),
        "regions.tier.lookup_us": _mean(summary, REGION_LOOKUP, scale=1e6),
        "regions.tier.hit_ratio": _share(
            extra.get("region_hits", 0), extra.get("region_lookups", 0)
        ),
        # Self time: key hashing, cache and region lookups are their own
        # layers; what remains is the frontend's routing and queueing.
        "service.frontend.admit_us": _mean(summary, ADMIT, "self_s", 1e6),
        "regions.tier.build_s": _mean(summary, REGION_BUILD),
        "regions.tier.builds": float(_calls(summary, REGION_BUILD)),
        "service.backends.sqlite_put_us": _mean(summary, SQLITE_PUT, scale=1e6),
        "service.frontend.overhead_ms": extra.get("overhead_ms", 0.0),
        "service.batch.pool_efficiency": extra.get("pool_efficiency", 0.0),
        "service.frontend.shed": float(extra.get("shed", 0)),
        "service.frontend.coalesced": float(extra.get("coalesced", 0)),
        "bench.generator_lag_p99_ms": extra.get("generator_lag_p99_ms", 0.0),
        "bench.trace_overhead": extra.get("trace_overhead", 0.0),
    }
    return metrics


def print_layer_report(summary, counters: Counters, extra: dict) -> None:
    """Self time per layer, and every ratio with its base."""
    report("per-layer spans (calls, inclusive ms, self ms, mean self us):")
    for name in sorted(summary):
        entry = summary[name]
        report(
            f"  {name:38s} {int(entry['calls']):7d} "
            f"{entry['total_s'] * 1e3:11.1f} {entry['self_s'] * 1e3:11.1f} "
            f"{entry['self_s'] / entry['calls'] * 1e6:11.1f}"
        )
    results = counters.get(f"{SA_DS}.results")
    report(
        f"  SA/DS failed share "
        f"{ratio_text(counters.get(f'{SA_DS}.failed'), int(results), 'SA/DS runs')}"
    )
    sims = int(counters.get("sim.batch.runs") + counters.get("sim.engine.runs"))
    report(
        f"  sim fallback share "
        f"{ratio_text(counters.get('sim.fallbacks'), sims, 'simulations')}"
    )
    report(
        f"  cache hit_ratio "
        f"{ratio_text(extra.get('cache_hits', 0), int(extra.get('cache_lookups', 0)), 'lookups')}"
    )
    report(
        f"  region hit_ratio "
        f"{ratio_text(extra.get('region_hits', 0), int(extra.get('region_lookups', 0)), 'lookups')}"
    )
    if "pool_compute_s" in extra:
        report(
            f"  pool efficiency {extra['pool_efficiency']:.4f} of "
            f"{extra['pool_workers']} workers x {extra['pool_wall_s']:.3f} s wall "
            f"({extra['pool_compute_s']:.3f} s compute)"
        )
    report(
        f"  trace overhead {extra.get('trace_overhead', 0.0):.4f} of "
        f"{extra.get('traced_wall_s', 0.0):.3f} s traced wall "
        f"({int(extra.get('span_count', 0))} spans)"
    )


def lag_p99_ms(lags) -> float:
    return p99(lags) * 1e3 if lags else 0.0
