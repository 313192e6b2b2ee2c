"""Seeded inputs for the three workloads.

Each workload draws from a fixed universe of items whose reference
outputs were recorded once (``references/*.json``); ``--seed`` decides
which items a run uses, in which order, with which request options and
on which arrival schedule.  The program only ever sees the generated
systems and request lines.

* ``paper-sweep`` always evaluates the whole sweep set (one system per
  grid cell plus three lock-injected ones) -- its cost is dominated by a
  few heavy SA/DS systems, so a seeded *subset* would make throughput a
  property of the draw rather than of the code.  The seed fixes the
  processing order.
* ``admit-cold`` always decides the same 100 systems, in the same order,
  for the same reason (a quarter carry critical sections, whose
  blocking-aware analysis costs 10-100x a plain one); the seed picks
  each request's option profile and hence its id, key and decision.
* ``admit-hot`` draws its working set (128 of 256 exact-repeat systems,
  6 of 12 region shapes) and its open-loop schedule from the seed;
  these items cost about the same, so any draw measures the same path.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from repro.locks.inject import inject_critical_sections
from repro.regions.shape import execution_vector, system_at
from repro.service.requests import AdmissionRequest, request_to_dict
from repro.workload.config import WorkloadConfig
from repro.workload.generator import generate_system

# ---------------------------------------------------------------------------
# paper-sweep
# ---------------------------------------------------------------------------

#: The §5 sub-grid: subtasks per task x utilization.
SWEEP_GRID = tuple((n, u) for n in (2, 5, 8) for u in (0.5, 0.7, 0.9))
SWEEP_LOCK_CELL = (2, 0.5)
SWEEP_LOCK_RATIO = 0.2
SWEEP_SA_DS_ITERATIONS = 100
SWEEP_HORIZON_PERIODS = 10
SWEEP_PROTOCOLS = ("DS", "PM", "RG")
#: Generator seeds of the lock-injected systems start here, apart from
#: the grid's own seeds.
_LOCK_SEED_BASE = 1000
#: Largest per-cell sample the recorded references cover.
SWEEP_MAX_PER_CELL = 4
#: Systems per grid cell in a run: one, so that a pass over the set is
#: short enough to repeat several times within a run (see sweep.py).
SWEEP_PER_CELL = 1


@dataclass(frozen=True)
class SweepItem:
    item_id: str
    subtasks: int
    utilization: float
    system_seed: int
    locked: bool

    def config(self) -> WorkloadConfig:
        return WorkloadConfig(
            subtasks_per_task=self.subtasks, utilization=self.utilization
        )


def sweep_universe(per_cell: int = SWEEP_MAX_PER_CELL) -> list[SweepItem]:
    """The sweep set: ``per_cell`` systems per grid cell plus a third as
    many lock-injected (2, 0.5) systems, i.e. a quarter of the total."""
    items = [
        SweepItem(f"grid-{n}-{u}-{s}", n, u, s, False)
        for n, u in SWEEP_GRID
        for s in range(per_cell)
    ]
    n, u = SWEEP_LOCK_CELL
    items += [
        SweepItem(f"lock-{n}-{u}-{s}", n, u, _LOCK_SEED_BASE + s, True)
        for s in range(len(items) // 3)
    ]
    return items


def sweep_items(seed: int, per_cell: int = SWEEP_PER_CELL) -> list[SweepItem]:
    items = sweep_universe(per_cell)
    random.Random(seed).shuffle(items)
    return items


# ---------------------------------------------------------------------------
# admission requests (shared)
# ---------------------------------------------------------------------------


def encode(request: AdmissionRequest) -> bytes:
    """One NDJSON request line, exactly as a deployment tool would send it."""
    return (json.dumps(request_to_dict(request), sort_keys=True) + "\n").encode(
        "utf-8"
    )


# ---------------------------------------------------------------------------
# admit-cold
# ---------------------------------------------------------------------------

#: Mid-grid 12-task cells for the plain three quarters (25 systems each).
COLD_PLAIN_CELLS = ((4, 0.6), (4, 0.7), (5, 0.6))
COLD_PER_CELL = 25
#: The sectioned quarter: critical sections on (3, 0.6) systems, with
#: the sweep's SA/DS budget so one request cannot run for minutes.
COLD_LOCKED_CELL = (3, 0.6)
COLD_LOCK_RATIO = 0.1
COLD_LOCK_PARTICIPATION = 0.25
COLD_LOCKED_ITERATIONS = 100
_COLD_SEED_BASE = 2000

#: Request option profiles; decisions differ, analysis cost does not.
COLD_PROFILES: dict[str, dict] = {
    "all": {},
    "ds-rg-jitter": {"protocols": ("DS", "RG"), "jitter_sensitive": True},
    "sync-untrusted": {
        "protocols": ("PM", "MPM", "RG"),
        "clock_sync_available": True,
        "wcets_trusted": False,
    },
}


def cold_systems() -> list[tuple[str, object, bool]]:
    """(system id, system, sectioned?) for the fixed 100-system set."""
    # Each cell draws its own generator seeds: cells that differ only in
    # utilization would otherwise share periods and placements, i.e. a
    # region shape, and the second sighting would trigger a region build.
    systems = []
    for cell, (n, u) in enumerate(COLD_PLAIN_CELLS):
        config = WorkloadConfig(subtasks_per_task=n, utilization=u)
        for s in range(COLD_PER_CELL):
            seed = _COLD_SEED_BASE + 100 * cell + s
            systems.append((f"c{n}-{u}-{s}", generate_system(config, seed), False))
    n, u = COLD_LOCKED_CELL
    config = WorkloadConfig(subtasks_per_task=n, utilization=u)
    for s in range(COLD_PER_CELL):
        seed = _COLD_SEED_BASE + 100 * len(COLD_PLAIN_CELLS) + s
        system = inject_critical_sections(
            generate_system(config, seed),
            ratio=COLD_LOCK_RATIO,
            participation=COLD_LOCK_PARTICIPATION,
            seed=s,
        )
        systems.append((f"l{n}-{u}-{s}", system, True))
    return systems


def cold_request(system_id: str, system, sectioned: bool, profile: str) -> AdmissionRequest:
    options = dict(COLD_PROFILES[profile])
    if sectioned:
        options["shared_resources"] = True
        options["sa_ds_max_iterations"] = COLD_LOCKED_ITERATIONS
    return AdmissionRequest(
        system=system, request_id=f"{system_id}/{profile}", **options
    )


#: The send order is fixed, not seeded: the two pool workers share the
#: machine's two vCPUs, and which heavy decisions run side by side moved
#: the batch path's throughput by 30 % between orders.
_COLD_ORDER_SEED = 0


def cold_requests(seed: int) -> list[AdmissionRequest]:
    """The run's 100 distinct requests, in the order they are sent."""
    rng = random.Random(seed)
    profiles = sorted(COLD_PROFILES)
    requests = [
        cold_request(system_id, system, sectioned, rng.choice(profiles))
        for system_id, system, sectioned in cold_systems()
    ]
    random.Random(_COLD_ORDER_SEED).shuffle(requests)
    return requests


def cold_warmup_requests(count: int) -> list[AdmissionRequest]:
    """Small distinct requests outside the timed set, one per connection.

    Sent together, they make the frontend start every pool worker before
    the first timed request.
    """
    config = WorkloadConfig(subtasks_per_task=2, utilization=0.5, tasks=3, processors=2)
    return [
        AdmissionRequest(system=generate_system(config, seed), request_id=f"warmup-{seed}")
        for seed in range(count)
    ]


# ---------------------------------------------------------------------------
# admit-hot
# ---------------------------------------------------------------------------

HOT_HIT_CONFIG = WorkloadConfig(subtasks_per_task=2, utilization=0.6)
HOT_HIT_UNIVERSE = 256
HOT_HIT_WORKING_SET = 128
HOT_SHAPE_CONFIG = WorkloadConfig(
    subtasks_per_task=2, utilization=0.5, tasks=6, processors=3
)
HOT_SHAPE_UNIVERSE = 12
HOT_SHAPES_PER_RUN = 4
HOT_PERTURBATIONS = 8
#: Share of timed requests that are region-tier requests.
HOT_REGION_SHARE = 0.25
#: The second warm-up request of a shape scales its base by this, so the
#: shape is computed twice and the tier builds its region from it.
HOT_SEED_SCALE = 0.98
#: Perturbed execution times stay within this band of the base, below
#: the build point, hence inside the region box (covers() is <=).
HOT_PERTURB_BAND = (0.6, 0.95)
_HOT_SEED_BASE = 3000
_HOT_SHAPE_SEED_BASE = 4000


def hot_hit_request(index: int) -> AdmissionRequest:
    system = generate_system(HOT_HIT_CONFIG, _HOT_SEED_BASE + index)
    return AdmissionRequest(system=system, request_id=f"hit-{index}")


def _shape_base(shape: int):
    return generate_system(HOT_SHAPE_CONFIG, _HOT_SHAPE_SEED_BASE + shape)


def hot_shape_seeds(shape: int) -> list[AdmissionRequest]:
    """The two warm-up requests that make the tier build ``shape``'s region."""
    base = _shape_base(shape)
    scaled = system_at(
        base, [e * HOT_SEED_SCALE for e in execution_vector(base)]
    )
    return [
        AdmissionRequest(system=base, request_id=f"shape-{shape}/base"),
        AdmissionRequest(system=scaled, request_id=f"shape-{shape}/seed"),
    ]


def hot_region_request(shape: int, variant: int) -> AdmissionRequest:
    base = _shape_base(shape)
    rng = random.Random(f"perturb-{shape}-{variant}")
    low, high = HOT_PERTURB_BAND
    vector = [e * rng.uniform(low, high) for e in execution_vector(base)]
    return AdmissionRequest(
        system=system_at(base, vector), request_id=f"region-{shape}-{variant}"
    )


@dataclass
class HotInputs:
    warmup: list[AdmissionRequest]
    hits: list[AdmissionRequest]
    regions: list[AdmissionRequest]

    @property
    def timed(self) -> list[AdmissionRequest]:
        return self.hits + self.regions


def hot_inputs(seed: int) -> HotInputs:
    rng = random.Random(seed)
    hit_indices = sorted(rng.sample(range(HOT_HIT_UNIVERSE), HOT_HIT_WORKING_SET))
    shapes = sorted(rng.sample(range(HOT_SHAPE_UNIVERSE), HOT_SHAPES_PER_RUN))
    hits = [hot_hit_request(i) for i in hit_indices]
    regions = [
        hot_region_request(shape, variant)
        for shape in shapes
        for variant in range(HOT_PERTURBATIONS)
    ]
    warmup = list(hits)
    for shape in shapes:
        warmup.extend(hot_shape_seeds(shape))
    return HotInputs(warmup=warmup, hits=hits, regions=regions)


def hot_sequence(seed: int, name: str, count: int, inputs: HotInputs) -> list[int]:
    """Indices into ``inputs.timed`` for one closed-loop round: three
    quarters exact repeats, a quarter region-tier requests."""
    return [index for _, index in hot_schedule(seed, name, 1.0, count, inputs)]


def hot_schedule(
    seed: int, phase: str, rate: float, count: int, inputs: HotInputs
) -> list[tuple[float, int]]:
    """(due offset in s, index into ``inputs.timed``) for one open-loop phase.

    Poisson arrivals (independent tenants); three quarters repeat an
    exact request, a quarter are region-tier requests.
    """
    rng = random.Random(f"{seed}/{phase}/{rate!r}")
    hit_count = len(inputs.hits)
    schedule = []
    due = 0.0
    for _ in range(count):
        due += rng.expovariate(rate)
        if rng.random() < HOT_REGION_SHARE:
            index = hit_count + rng.randrange(len(inputs.regions))
        else:
            index = rng.randrange(hit_count)
        schedule.append((due, index))
    return schedule
