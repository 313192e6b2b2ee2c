"""Region stores: LRU semantics, counters, JSONL persistence, sqlite.

Both backends must honor the same contract the decision caches set
(get/put/stats/save/load, LRU eviction, strict load validation), and
their JSONL files must interoperate -- a memory-store snapshot warm
starts a sqlite store and vice versa, Fractions included.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from store_contract import GOLDEN, SqliteContract, StoreBinding, StoreContract

from repro.errors import ConfigurationError
from repro.regions.region import FeasibilityRegion, region_to_dict
from repro.regions.store import (
    REGION_BACKENDS,
    MemoryRegionStore,
    SqliteRegionStore,
    make_region_store,
)


def _region(tag: str, value=2.5) -> FeasibilityRegion:
    return FeasibilityRegion(
        shape_key=f"shape-{tag}",
        timebase="float",
        dimensions=("T1,1",),
        corners={"SA/PM": (value,)},
        probes=7,
    )


def _exact_region(tag: str) -> FeasibilityRegion:
    return FeasibilityRegion(
        shape_key=f"shape-{tag}",
        timebase="exact",
        dimensions=("T1,1", "T1,2"),
        corners={
            "SA/DS": (Fraction(7, 3), Fraction(123456789, 65536)),
            "SA/PM": None,
        },
        probes=31,
    )


#: The region table exactly as the pre-unification store created it.
PARENT_SCHEMA = """
CREATE TABLE IF NOT EXISTS regions (
    shape_key TEXT PRIMARY KEY,
    region TEXT NOT NULL,
    seq INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS regions_seq ON regions (seq);
"""


def golden_regions() -> list[tuple[str, FeasibilityRegion]]:
    """Fixed regions (exact Fractions, inf and empty corners)."""
    regions = [
        _region("a"),
        FeasibilityRegion(
            shape_key="shape-inf",
            timebase="float",
            dimensions=("T1,1", "T2,1"),
            corners={"SA/PM": (math.inf, 4.75), "SA/DS": None},
            probes=12,
        ),
        _exact_region("x"),
    ]
    return [(region.shape_key, region) for region in regions]


@pytest.fixture(params=REGION_BACKENDS)
def backend(request):
    return request.param


@pytest.fixture
def store(backend, tmp_path):
    if backend == "memory":
        yield MemoryRegionStore(capacity=3)
    else:
        built = SqliteRegionStore(capacity=3, db_path=tmp_path / "r.db")
        yield built
        built.close()


@pytest.fixture
def binding():
    return StoreBinding(
        make=make_region_store,
        sqlite=SqliteRegionStore,
        entries=golden_regions(),
        golden=GOLDEN / "regions.jsonl",
        schema=PARENT_SCHEMA,
        table="regions",
        to_dict=region_to_dict,
    )


class TestStoreContract(StoreContract):
    """The shared persistence contract, over both region backends."""


class TestSqliteStoreContract(SqliteContract):
    """The sqlite-only contract for the region table."""


class TestContract:
    def test_get_put_roundtrip(self, store):
        region = _region("a")
        assert store.get("shape-a") is None
        store.put("shape-a", region)
        assert store.get("shape-a") == region
        assert "shape-a" in store
        assert len(store) == 1

    def test_counters(self, store):
        store.put("shape-a", _region("a"))
        store.get("shape-a")
        store.get("missing")
        stats = store.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.size == 1
        assert stats.capacity == 3

    def test_lru_eviction_order(self, store):
        for tag in ("a", "b", "c"):
            store.put(f"shape-{tag}", _region(tag))
        store.get("shape-a")  # refresh a; b is now LRU
        store.put("shape-d", _region("d"))
        assert len(store) == 3
        assert "shape-b" not in store
        assert "shape-a" in store
        assert store.stats().evictions == 1

    def test_put_refreshes_existing_key(self, store):
        store.put("shape-a", _region("a", 1.0))
        store.put("shape-a", _region("a", 9.0))
        assert len(store) == 1
        got = store.get("shape-a")
        assert got is not None and got.corner("SA/PM") == (9.0,)

    def test_keys_lru_first(self, store):
        for tag in ("a", "b"):
            store.put(f"shape-{tag}", _region(tag))
        store.get("shape-a")
        assert store.keys() == ("shape-b", "shape-a")

    def test_clear(self, store):
        store.put("shape-a", _region("a"))
        store.clear()
        assert len(store) == 0

    def test_exact_regions_round_trip(self, store, tmp_path):
        region = _exact_region("x")
        store.put("shape-x", region)
        path = store.save(tmp_path / "dump.jsonl")
        reloaded = MemoryRegionStore(capacity=4)
        assert reloaded.load(path) == 1
        got = reloaded.get("shape-x")
        assert got == region
        corner = got.corner("SA/DS")
        assert all(isinstance(v, (int, Fraction)) for v in corner)

    def test_rejects_capacity_below_one(self, tmp_path):
        with pytest.raises(ConfigurationError):
            MemoryRegionStore(capacity=0)
        with pytest.raises(ConfigurationError):
            SqliteRegionStore(capacity=0, db_path=tmp_path / "x.db")


class TestMemoryPersistence:
    def test_constructor_path_warm_starts(self, tmp_path):
        path = tmp_path / "regions.jsonl"
        first = MemoryRegionStore(capacity=4, path=path)
        first.put("shape-a", _region("a"))
        first.save()
        second = MemoryRegionStore(capacity=4, path=path)
        assert second.get("shape-a") == _region("a")

    def test_save_without_path_raises(self):
        with pytest.raises(ConfigurationError, match="persistence path"):
            MemoryRegionStore(capacity=2).save()

    def test_load_salvages_around_corrupt_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        store = MemoryRegionStore(capacity=2)
        assert store.load(path) == 0
        assert store.last_recovery is not None
        assert store.last_recovery.dropped == 1
        assert not store.last_recovery.clean

    def test_load_rejects_foreign_format(self, tmp_path):
        path = tmp_path / "foreign.jsonl"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(ConfigurationError, match="format"):
            MemoryRegionStore(capacity=2).load(path)


class TestSqlite:
    def test_durable_across_instances(self, tmp_path):
        db = tmp_path / "regions.db"
        first = SqliteRegionStore(capacity=4, db_path=db)
        first.put("shape-a", _exact_region("a"))
        first.close()
        second = SqliteRegionStore(capacity=4, db_path=db)
        try:
            assert second.get("shape-a") == _exact_region("a")
        finally:
            second.close()

    def test_jsonl_interop_with_memory_store(self, tmp_path):
        memory = MemoryRegionStore(capacity=4)
        memory.put("shape-a", _region("a"))
        memory.put("shape-b", _exact_region("b"))
        dump = memory.save(tmp_path / "dump.jsonl")
        sqlite_store = SqliteRegionStore(capacity=4)
        try:
            assert sqlite_store.load(dump) == 2
            assert sqlite_store.get("shape-b") == _exact_region("b")
            back = sqlite_store.save(tmp_path / "back.jsonl")
            restored = MemoryRegionStore(capacity=4)
            restored.load(back)
            assert restored.get("shape-a") == _region("a")
        finally:
            sqlite_store.close()


class TestFactory:
    def test_backends_tuple_matches_factory(self):
        assert REGION_BACKENDS == ("memory", "sqlite")

    def test_builds_each_backend(self, tmp_path):
        assert isinstance(
            make_region_store("memory", capacity=2), MemoryRegionStore
        )
        built = make_region_store(
            "sqlite", capacity=2, path=tmp_path / "r.db"
        )
        assert isinstance(built, SqliteRegionStore)
        built.close()

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigurationError, match="unknown region store"):
            make_region_store("redis")
