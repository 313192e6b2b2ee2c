"""The sqlite cache backend: interface parity with DecisionCache."""

from __future__ import annotations

import math

import pytest
from store_contract import GOLDEN, SqliteContract, StoreBinding, StoreContract

from repro.errors import ConfigurationError
from repro.service.backends import (
    CACHE_BACKENDS,
    SqliteDecisionCache,
    make_cache,
)
from repro.service.cache import DecisionCache
from repro.service.engine import compute_decision
from repro.service.requests import (
    AdmissionDecision,
    AdmissionRequest,
    decision_to_dict,
)
from repro.workload.config import WorkloadConfig
from repro.workload.generator import generate_system

LIGHT = WorkloadConfig(
    subtasks_per_task=2, utilization=0.5, tasks=3, processors=2
)


def _decision(seed: int):
    request = AdmissionRequest(
        system=generate_system(LIGHT, seed), request_id=str(seed)
    )
    return compute_decision(request)


#: The decision table exactly as the pre-unification backend created it.
PARENT_SCHEMA = """
CREATE TABLE IF NOT EXISTS decisions (
    key TEXT PRIMARY KEY,
    decision TEXT NOT NULL,
    seq INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS decisions_seq ON decisions (seq);
"""


def golden_decisions() -> list[tuple[str, AdmissionDecision]]:
    """Fixed decisions (inf bounds, margins) for the golden snapshot."""
    decisions = [
        AdmissionDecision(
            admitted=True,
            protocol="RG",
            rationale="RG certifies every deadline",
            schedulable={"DS": True, "PM": True, "MPM": True, "RG": True},
            task_bounds={"SA/PM": (10.5, 20.0), "SA/DS": (12.25, 31.0)},
            worst_bound_ratio=1.55,
            key="1" * 64,
            system_name="golden-a",
            request_id="a",
        ),
        AdmissionDecision(
            admitted=False,
            protocol=None,
            rationale="no requested protocol certifies T2",
            schedulable={"DS": False, "PM": False},
            task_bounds={"SA/PM": (math.inf, 7.0), "SA/DS": (math.inf, 9.125)},
            worst_bound_ratio=math.inf,
            key="2" * 64,
            system_name="golden-b",
            request_id="b",
        ),
        AdmissionDecision(
            admitted=True,
            protocol="PM",
            rationale="inside the verified region",
            schedulable={"PM": True},
            task_bounds={},
            worst_bound_ratio=math.inf,
            key="3" * 64,
            margins={"SA/PM": {"T1,1": 0.25, "T1,2": 1.5}},
        ),
    ]
    return [(decision.key, decision) for decision in decisions]


@pytest.fixture(params=CACHE_BACKENDS)
def backend(request):
    return request.param


@pytest.fixture
def cache(backend):
    built = make_cache(backend, capacity=8)
    yield built
    built.close()


@pytest.fixture
def store(cache):
    return cache


@pytest.fixture
def binding():
    return StoreBinding(
        make=make_cache,
        sqlite=SqliteDecisionCache,
        entries=golden_decisions(),
        golden=GOLDEN / "decisions.jsonl",
        schema=PARENT_SCHEMA,
        table="decisions",
        to_dict=decision_to_dict,
    )


class TestStoreContract(StoreContract):
    """The shared persistence contract, over both decision backends."""


class TestSqliteStoreContract(SqliteContract):
    """The sqlite-only contract for the decision table."""


class TestInterfaceParity:
    """Both backends honour the same contract, parametrized."""

    def test_round_trip(self, cache):
        decision = _decision(1)
        cache.put(decision.key, decision)
        assert decision.key in cache
        assert len(cache) == 1
        assert cache.get(decision.key) == decision

    def test_miss_returns_none_and_counts(self, cache):
        assert cache.get("0" * 64) is None
        assert cache.stats().misses == 1

    def test_lru_eviction_order(self, cache):
        decisions = [_decision(seed) for seed in range(10)]
        for decision in decisions:
            cache.put(decision.key, decision)
        assert len(cache) == 8  # capacity
        # The two oldest fell out.
        assert decisions[0].key not in cache
        assert decisions[1].key not in cache
        assert cache.stats().evictions == 2

    def test_get_refreshes_recency(self, cache):
        decisions = [_decision(seed) for seed in range(8)]
        for decision in decisions:
            cache.put(decision.key, decision)
        cache.get(decisions[0].key)  # touch the LRU entry
        cache.put(_decision(100).key, _decision(100))
        assert decisions[0].key in cache  # survived: it was refreshed
        assert decisions[1].key not in cache  # evicted instead

    def test_clear(self, cache):
        decision = _decision(2)
        cache.put(decision.key, decision)
        cache.clear()
        assert len(cache) == 0
        assert decision.key not in cache

    def test_keys_lru_first(self, cache):
        a, b = _decision(1), _decision(2)
        cache.put(a.key, a)
        cache.put(b.key, b)
        cache.get(a.key)  # a becomes most recent
        assert cache.keys() == (b.key, a.key)

    def test_has_single_flight_table(self, cache):
        leader, _ = cache.flights.begin("k")
        assert leader
        cache.flights.finish("k", None)


class TestPersistenceInterop:
    """Sqlite exports/imports the DecisionCache JSONL format."""

    def test_sqlite_save_memory_load(self, tmp_path):
        sqlite_cache = SqliteDecisionCache(capacity=8)
        decisions = [_decision(seed) for seed in range(3)]
        for decision in decisions:
            sqlite_cache.put(decision.key, decision)
        exported = sqlite_cache.save(tmp_path / "cache.jsonl")

        memory = DecisionCache(capacity=8)
        assert memory.load(exported) == 3
        for decision in decisions:
            assert memory.get(decision.key) == decision
        sqlite_cache.close()

    def test_memory_save_sqlite_load(self, tmp_path):
        memory = DecisionCache(capacity=8)
        decisions = [_decision(seed) for seed in range(3)]
        for decision in decisions:
            memory.put(decision.key, decision)
        memory.save(tmp_path / "cache.jsonl")

        sqlite_cache = SqliteDecisionCache(capacity=8)
        assert sqlite_cache.load(tmp_path / "cache.jsonl") == 3
        for decision in decisions:
            assert sqlite_cache.get(decision.key) == decision
        sqlite_cache.close()

    def test_file_backed_store_survives_reopen(self, tmp_path):
        db = tmp_path / "decisions.db"
        first = SqliteDecisionCache(capacity=8, db_path=db)
        decision = _decision(5)
        first.put(decision.key, decision)
        first.close()

        second = SqliteDecisionCache(capacity=8, db_path=db)
        assert second.get(decision.key) == decision
        second.close()

    def test_two_handles_share_one_file(self, tmp_path):
        db = tmp_path / "shared.db"
        writer = SqliteDecisionCache(capacity=8, db_path=db)
        reader = SqliteDecisionCache(capacity=8, db_path=db)
        decision = _decision(6)
        writer.put(decision.key, decision)
        assert reader.get(decision.key) == decision
        writer.close()
        reader.close()


class TestFactory:
    def test_known_backends(self):
        assert CACHE_BACKENDS == ("memory", "sqlite")
        assert isinstance(make_cache("memory"), DecisionCache)
        assert isinstance(make_cache("sqlite"), SqliteDecisionCache)

    def test_unknown_backend_is_an_error(self):
        with pytest.raises(ConfigurationError):
            make_cache("redis")

    def test_bad_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            SqliteDecisionCache(capacity=0)
