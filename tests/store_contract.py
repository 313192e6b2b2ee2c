"""The persistence contract every store binding honours, written once.

``tests/test_service_backends.py`` (decisions) and
``tests/test_regions_store.py`` (regions) each subclass these mixins,
so one suite runs over all four stores.  A subclassing module provides
two fixtures:

* ``backend`` -- the parametrised backend name (``"memory"`` /
  ``"sqlite"``), with a ``store`` fixture built from it (capacity >= 3);
* ``binding`` -- a :class:`StoreBinding` naming the factory, the sqlite
  class, the golden entries and their snapshot recorded from the
  previous store implementation, and that implementation's literal
  sqlite schema.

The golden snapshots pin the on-disk JSONL bytes; the schema literal
pins that databases created before the store classes were unified
open and serve without migration.
"""

from __future__ import annotations

import json
import os
import sqlite3
from pathlib import Path
from typing import Any, Callable, NamedTuple

from repro.service.durability import unframe_line
from repro.service.metrics import ServiceMetrics

GOLDEN = Path(__file__).parent / "golden"


class StoreBinding(NamedTuple):
    make: Callable[..., Any]  # make_cache / make_region_store
    sqlite: type  # the binding's sqlite class
    entries: list  # (key, value) pairs, three of them
    golden: Path  # save() of ``entries`` after touching the first
    schema: str  # the literal CREATE TABLE/INDEX script of the parent
    table: str
    to_dict: Callable[[Any], dict]


def fill(store, binding: StoreBinding) -> None:
    """Put the golden entries, then touch the first (so it is MRU)."""
    for key, value in binding.entries:
        store.put(key, value)
    store.get(binding.entries[0][0])


def golden_order(binding: StoreBinding) -> list[str]:
    keys = [key for key, _value in binding.entries]
    return keys[1:] + keys[:1]


class StoreContract:
    """Snapshot format, legacy load and fsync policy, per backend."""

    def test_save_matches_golden_bytes(self, store, binding, tmp_path):
        fill(store, binding)
        written = store.save(tmp_path / "snapshot.jsonl")
        assert written.read_bytes() == binding.golden.read_bytes()

    def test_golden_snapshot_loads_in_order(self, store, binding):
        assert store.load(binding.golden) == len(binding.entries)
        assert store.last_recovery.clean
        assert list(store.keys()) == golden_order(binding)
        for key, value in binding.entries:
            assert store.get(key) == value

    def test_legacy_unframed_lines_load(self, store, binding, tmp_path):
        bodies = [
            unframe_line(line)[0]
            for line in binding.golden.read_text().splitlines()
        ]
        legacy = tmp_path / "legacy.jsonl"
        legacy.write_text("\n".join(bodies) + "\n")
        assert store.load(legacy) == len(binding.entries)
        assert store.last_recovery.clean
        for key, value in binding.entries:
            assert store.get(key) == value

    def test_factory_fsync_reaches_snapshot(
        self, backend, binding, tmp_path, monkeypatch
    ):
        synced: list[int] = []
        monkeypatch.setattr(os, "fsync", synced.append)
        for policy, calls in (("never", 0), ("data", 1), ("always", 2)):
            store = binding.make(backend, capacity=4, fsync=policy)
            try:
                fill(store, binding)
                synced.clear()
                store.save(tmp_path / f"{policy}.jsonl")
                assert len(synced) == calls, policy
            finally:
                store.close()


class SqliteContract:
    """Sqlite-only: the parent's schema and the quarantine report."""

    def test_parent_schema_database_serves(self, binding, tmp_path):
        db = tmp_path / "parent.db"
        conn = sqlite3.connect(db)
        conn.executescript(binding.schema)
        key_column, value_column = _columns(conn, binding.table)
        for seq, (key, value) in enumerate(binding.entries, start=1):
            conn.execute(
                f"INSERT INTO {binding.table} "
                f"({key_column}, {value_column}, seq) VALUES (?, ?, ?)",
                (key, json.dumps(binding.to_dict(value), sort_keys=True), seq),
            )
        conn.commit()
        conn.close()
        store = binding.sqlite(capacity=4, db_path=db)
        try:
            assert store.integrity_failures == 0
            assert store.last_recovery is None
            for key, value in binding.entries:
                assert store.get(key) == value
            fill(store, binding)
            snapshot = store.save(tmp_path / "snapshot.jsonl")
            assert snapshot.read_bytes() == binding.golden.read_bytes()
        finally:
            store.close()

    def test_rebuild_from_torn_snapshot_reports_damage(
        self, binding, tmp_path
    ):
        snapshot = tmp_path / "snapshot.jsonl"
        snapshot.write_bytes(binding.golden.read_bytes()[:-25])
        db = tmp_path / "store.db"
        binding.sqlite(capacity=4, db_path=db).close()
        with open(db, "r+b") as handle:
            handle.write(b"\x00" * 64)
        store = binding.sqlite(
            capacity=4, db_path=db, rebuild_from=snapshot
        )
        try:
            report = store.last_recovery
            assert store.integrity_failures == 1
            assert report.kind == "sqlite"
            assert report.quarantined == str(db) + ".quarantined-0"
            assert report.loaded == len(binding.entries) - 1
            assert report.dropped == 1
            assert report.first_bad_line == len(binding.entries)
            metrics = ServiceMetrics()
            metrics.record_store_health(store)
            assert metrics.snapshot()["records_dropped"] == 1
        finally:
            store.close()


def _columns(conn: sqlite3.Connection, table: str) -> tuple[str, str]:
    rows = conn.execute(f"PRAGMA table_info({table})").fetchall()
    return rows[0][1], rows[1][1]
