"""Record the reference outputs every benchmark run is checked against.

Run from the repository root, on the commit whose outputs are the
contract::

    python3 perfbench/record_references.py [paper-sweep admit-cold admit-hot]

It evaluates every item of each workload's fixed universe in process
(several minutes on two cores) and rewrites ``perfbench/references/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import harness  # noqa: E402

sys.path.insert(0, str(harness.ROOT / "src"))

import inputs  # noqa: E402
import layers  # noqa: E402
import references  # noqa: E402
import sweep  # noqa: E402
from repro.regions.tier import RegionTier  # noqa: E402
from repro.service.engine import compute_decision  # noqa: E402
from repro.service.hashing import request_key  # noqa: E402
from repro.service.requests import decision_to_dict  # noqa: E402


def record_sweep() -> dict:
    calls = sweep.Calls(None, layers.Counters())
    return {
        item.item_id: sweep.evaluate(item, calls)[0]
        for item in inputs.sweep_universe(inputs.SWEEP_MAX_PER_CELL)
    }


def _computed(request) -> dict:
    document = decision_to_dict(compute_decision(request))
    return {"source": "computed", "decision": references.decision_fields(document)}


def record_cold() -> dict:
    items = {}
    for system_id, system, sectioned in inputs.cold_systems():
        for profile in sorted(inputs.COLD_PROFILES):
            request = inputs.cold_request(system_id, system, sectioned, profile)
            items[request.request_id] = _computed(request)
    return items


def record_hot() -> dict:
    items = {}
    for index in range(inputs.HOT_HIT_UNIVERSE):
        request = inputs.hot_hit_request(index)
        items[request.request_id] = _computed(request)
    for shape in range(inputs.HOT_SHAPE_UNIVERSE):
        # Replay what the frontend does with the two warm-up requests:
        # lookup (miss), compute, observe -- the second observe builds.
        tier = RegionTier()
        for seed_request in inputs.hot_shape_seeds(shape):
            if tier.lookup(seed_request) is not None:
                raise RuntimeError(f"shape {shape}: region served a warm-up request")
            tier.observe(seed_request)
        for variant in range(inputs.HOT_PERTURBATIONS):
            request = inputs.hot_region_request(shape, variant)
            served = tier.lookup(request, key=request_key(request))
            if served is None:
                raise RuntimeError(f"{request.request_id}: not inside the region box")
            computed = compute_decision(request)
            if computed.admitted != served.admitted:
                raise RuntimeError(
                    f"{request.request_id}: region verdict {served.admitted} "
                    f"!= computed {computed.admitted}"
                )
            items[request.request_id] = {
                "source": "region",
                "decision": references.decision_fields(decision_to_dict(served)),
                "computed_admitted": computed.admitted,
            }
    return items


RECORDERS = {
    "paper-sweep": record_sweep,
    "admit-cold": record_cold,
    "admit-hot": record_hot,
}


def main(argv: list[str]) -> None:
    for workload in argv or list(RECORDERS):
        references.save(workload, RECORDERS[workload]())
        print(f"recorded {workload}")


if __name__ == "__main__":
    main(sys.argv[1:])
