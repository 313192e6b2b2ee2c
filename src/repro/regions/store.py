"""Region stores: ``shape_key -> FeasibilityRegion``, memory or sqlite.

The region cache is the tier *above* the decision cache: a decision
cache entry answers one exact request; a region answers every request
of one shape whose execution vector lands inside the verified box.
The stores here are the decision cache's own store contract
(:mod:`repro.service.store`) bound to regions, so everything operators
learned about the decision tier (capacity planning, persistence, the
sqlite/WAL sharing model) transfers unchanged.
"""

from __future__ import annotations

from repro.regions.region import (
    FeasibilityRegion,
    region_from_dict,
    region_to_dict,
)
from repro.service.store import (
    BACKENDS,
    Codec,
    MemoryStore,
    SqliteStore,
    make_store,
)

__all__ = [
    "REGION_BACKENDS",
    "MemoryRegionStore",
    "SqliteRegionStore",
    "make_region_store",
]

#: Recognized ``make_region_store`` backend names.
REGION_BACKENDS: tuple[str, ...] = BACKENDS

#: ``{"format", "shape_key", "region"}`` snapshot records and the
#: sqlite ``regions (shape_key, region, seq)`` table.
_CODEC: Codec[FeasibilityRegion] = Codec(
    format="repro-region-store-v1",
    key="shape_key",
    value="region",
    table="regions",
    label="region store",
    to_dict=region_to_dict,
    from_dict=region_from_dict,
)


class MemoryRegionStore(MemoryStore[FeasibilityRegion]):
    """LRU-bounded, thread-safe map from shape key to region.

    The :class:`~repro.service.store.MemoryStore` contract bound to
    regions.  Regions are a few hundred bytes each but *expensive to
    rebuild*, so capacities err large by default.
    """

    codec = _CODEC


class SqliteRegionStore(SqliteStore[FeasibilityRegion]):
    """LRU region store on sqlite/WAL; same interface as the memory one.

    The :class:`~repro.service.store.SqliteStore` contract bound to
    regions, exactly as
    :class:`~repro.service.backends.SqliteDecisionCache` binds it to
    decisions.
    """

    codec = _CODEC


def make_region_store(
    backend: str = "memory", *, capacity: int = 1024, **options
) -> MemoryRegionStore | SqliteRegionStore:
    """Build a region store from configuration.

    ``path``, ``fsync`` and ``rebuild_from`` mean what they mean to
    :func:`repro.service.store.make_store`.
    """
    return make_store(
        backend, MemoryRegionStore, SqliteRegionStore, capacity=capacity,
        **options,
    )
