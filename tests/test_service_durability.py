"""Durability primitives: framing, atomic writes, salvage, quarantine."""

from __future__ import annotations

import json
import logging
import sqlite3

import pytest
from store_contract import GOLDEN

from repro.errors import ConfigurationError
from repro.regions.store import MemoryRegionStore
from repro.service.cache import DecisionCache
from repro.service.durability import (
    FSYNC_POLICIES,
    FrameError,
    RecoveryReport,
    atomic_write_text,
    frame_line,
    load_jsonl_salvaging,
    open_sqlite_checked,
    quarantine_sqlite,
    unframe_line,
)
from repro.service.engine import compute_decision
from repro.service.requests import AdmissionRequest
from repro.workload.config import WorkloadConfig
from repro.workload.generator import generate_system

LIGHT = WorkloadConfig(
    subtasks_per_task=2, utilization=0.5, tasks=3, processors=2
)


def _decision(seed: int):
    request = AdmissionRequest(system=generate_system(LIGHT, seed))
    return compute_decision(request)


class TestFraming:
    def test_round_trip(self):
        body = json.dumps({"format": "x", "value": [1, 2, 3]})
        assert unframe_line(frame_line(body)) == (body, True)

    def test_bare_line_is_legacy(self):
        assert unframe_line('{"a": 1}') == ('{"a": 1}', False)

    def test_detects_flipped_byte(self):
        framed = frame_line('{"a": 1}')
        torn = framed[:-1] + ("2" if framed[-1] != "2" else "3")
        with pytest.raises(FrameError, match="checksum mismatch"):
            unframe_line(torn)

    def test_detects_truncated_frame(self):
        framed = frame_line('{"a": 1, "b": 2}')
        with pytest.raises(FrameError, match="checksum mismatch"):
            unframe_line(framed[:-5])

    def test_malformed_header_raises(self):
        with pytest.raises(FrameError, match="malformed frame header"):
            unframe_line("#repro:crc32:v1:zz")
        with pytest.raises(FrameError, match="bad frame checksum"):
            unframe_line("#repro:crc32:v1:zzzzzzzz body")


class TestAtomicWrite:
    @pytest.mark.parametrize("policy", FSYNC_POLICIES)
    def test_writes_under_every_policy(self, tmp_path, policy):
        target = tmp_path / "snap.jsonl"
        atomic_write_text(target, "hello\n", fsync=policy)
        assert target.read_text() == "hello\n"

    def test_replaces_existing_file(self, tmp_path):
        target = tmp_path / "snap.jsonl"
        target.write_text("old\n")
        atomic_write_text(target, "new\n")
        assert target.read_text() == "new\n"

    def test_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "snap.jsonl"
        atomic_write_text(target, "x\n")
        assert [p.name for p in tmp_path.iterdir()] == ["snap.jsonl"]

    def test_rejects_unknown_policy(self, tmp_path):
        with pytest.raises(ConfigurationError, match="fsync"):
            atomic_write_text(tmp_path / "x", "x", fsync="sometimes")


class TestSalvage:
    def _write(self, path, records, *, damage=None):
        lines = [
            frame_line(json.dumps({"format": "test-v1", "n": n}))
            for n in records
        ]
        text = "\n".join(lines) + "\n"
        if damage == "tear":
            text = text[:-10]
        path.write_text(text)

    def _load(self, path):
        seen: list[int] = []
        report = load_jsonl_salvaging(
            path,
            expected_format="test-v1",
            apply=lambda entry: seen.append(entry["n"]),
        )
        return seen, report

    def test_clean_load(self, tmp_path):
        path = tmp_path / "store.jsonl"
        self._write(path, [1, 2, 3])
        seen, report = self._load(path)
        assert seen == [1, 2, 3]
        assert report.clean
        assert report.salvaged == 0
        assert "clean load" in report.describe()

    def test_torn_tail_keeps_valid_prefix(self, tmp_path, caplog):
        path = tmp_path / "store.jsonl"
        self._write(path, [1, 2, 3], damage="tear")
        with caplog.at_level(
            logging.WARNING, logger="repro.service.durability"
        ):
            seen, report = self._load(path)
        assert seen == [1, 2]
        assert report.loaded == 2
        assert report.dropped == 1
        assert report.first_bad_line == 3
        assert report.salvaged == 2
        assert not report.clean
        assert any(
            "salvaged" in record.message for record in caplog.records
        )

    def test_mid_file_corruption_stops_at_tear(self, tmp_path):
        # A flipped byte mid-file: only the prefix is trustworthy.
        path = tmp_path / "store.jsonl"
        self._write(path, [1, 2, 3, 4])
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-3] + "!!!"
        path.write_text("\n".join(lines) + "\n")
        seen, report = self._load(path)
        assert seen == [1]
        assert report.loaded == 1
        assert report.dropped == 3
        assert report.first_bad_line == 2

    def test_legacy_bare_lines_load(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text(
            json.dumps({"format": "test-v1", "n": 7}) + "\n"
        )
        seen, report = self._load(path)
        assert seen == [7]
        assert report.clean

    def test_foreign_format_still_raises(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text(
            frame_line(json.dumps({"format": "other-v1", "n": 1})) + "\n"
        )
        with pytest.raises(ConfigurationError, match="format"):
            self._load(path)

    def test_writer_bug_still_raises(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text(
            frame_line(json.dumps({"format": "test-v1"})) + "\n"
        )
        with pytest.raises(ConfigurationError, match="bad record line"):
            load_jsonl_salvaging(
                path,
                expected_format="test-v1",
                apply=lambda entry: entry["missing"],
            )

    @pytest.mark.parametrize(
        "store_cls, golden, field, bad",
        [
            (MemoryRegionStore, "regions.jsonl", "corners",
             {"SA/PM": ["abc", 4.75], "SA/DS": None}),
            (DecisionCache, "decisions.jsonl", "task_bounds",
             {"SA/PM": ["nope"]}),
            (MemoryRegionStore, "regions.jsonl", "corners", [[1.0, 2.0]]),
        ],
        ids=["corner-not-a-number", "bound-not-a-number", "corners-list"],
    )
    def test_malformed_record_names_file_and_line(
        self, tmp_path, store_cls, golden, field, bad
    ):
        # Well-framed, right format, but a value the codec rejects: a
        # writer bug, reported as ConfigurationError with file:line.
        body, _framed = unframe_line(
            (GOLDEN / golden).read_text().splitlines()[0]
        )
        record = json.loads(body)
        value_field = "region" if "region" in record else "decision"
        record[value_field][field] = bad
        path = tmp_path / "store.jsonl"
        path.write_text(
            frame_line(json.dumps(record, sort_keys=True)) + "\n"
        )
        with pytest.raises(ConfigurationError, match=r":1: bad .* line"):
            store_cls(capacity=4).load(path)

    def test_non_object_line_salvages(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text("[1, 2, 3]\n")
        seen, report = self._load(path)
        assert seen == []
        assert report.dropped == 1
        assert "JSON object" in report.reason


class TestSqlite:
    SCHEMA = "CREATE TABLE IF NOT EXISTS t (k TEXT PRIMARY KEY)"

    def test_healthy_open(self, tmp_path):
        db = tmp_path / "store.sqlite"
        conn, quarantined = open_sqlite_checked(str(db), self.SCHEMA)
        try:
            assert quarantined is None
            conn.execute("INSERT INTO t VALUES ('a')")
            conn.commit()
        finally:
            conn.close()

    def test_corrupt_header_quarantines(self, tmp_path):
        db = tmp_path / "store.sqlite"
        conn, _ = open_sqlite_checked(str(db), self.SCHEMA)
        conn.execute("INSERT INTO t VALUES ('a')")
        conn.commit()
        conn.close()
        with open(db, "r+b") as handle:
            handle.write(b"\x00" * 64)
        conn, quarantined = open_sqlite_checked(str(db), self.SCHEMA)
        try:
            assert quarantined == str(db) + ".quarantined-0"
            assert (tmp_path / "store.sqlite.quarantined-0").exists()
            # The fresh database is empty but usable.
            assert conn.execute("SELECT COUNT(*) FROM t").fetchone()[0] == 0
        finally:
            conn.close()

    def test_quarantine_names_do_not_collide(self, tmp_path):
        db = tmp_path / "store.sqlite"
        db.write_text("junk")
        first = quarantine_sqlite(db)
        db.write_text("more junk")
        second = quarantine_sqlite(db)
        assert first.endswith(".quarantined-0")
        assert second.endswith(".quarantined-1")
        assert not db.exists()

    def test_quarantine_moves_wal_siblings(self, tmp_path):
        db = tmp_path / "store.sqlite"
        db.write_text("junk")
        (tmp_path / "store.sqlite-wal").write_text("wal")
        (tmp_path / "store.sqlite-shm").write_text("shm")
        destination = quarantine_sqlite(db)
        assert (tmp_path / "store.sqlite.quarantined-0-wal").exists()
        assert (tmp_path / "store.sqlite.quarantined-0-shm").exists()
        assert destination == str(tmp_path / "store.sqlite.quarantined-0")

    def test_memory_database_skips_check(self):
        conn, quarantined = open_sqlite_checked(":memory:", self.SCHEMA)
        conn.close()
        assert quarantined is None


class TestCacheSalvage:
    """The decision cache's own persistence rides the same primitives."""

    def _saved_cache(self, tmp_path, count=3):
        path = tmp_path / "cache.jsonl"
        cache = DecisionCache(capacity=16, path=path)
        for seed in range(count):
            decision = _decision(seed)
            cache.put(decision.key, decision)
        cache.save()
        return path

    def test_torn_tail_salvages_prefix(self, tmp_path, caplog):
        path = self._saved_cache(tmp_path)
        text = path.read_text()
        path.write_text(text[:-20])
        with caplog.at_level(
            logging.WARNING, logger="repro.service.durability"
        ):
            reloaded = DecisionCache(capacity=16, path=path)
        assert len(reloaded) == 2
        assert reloaded.last_recovery is not None
        assert reloaded.last_recovery.dropped == 1
        assert any("salvaged" in r.message for r in caplog.records)

    def test_clean_reload_reports_clean(self, tmp_path):
        path = self._saved_cache(tmp_path)
        reloaded = DecisionCache(capacity=16, path=path)
        assert len(reloaded) == 3
        assert reloaded.last_recovery.clean

    def test_snapshot_lines_are_framed(self, tmp_path):
        path = self._saved_cache(tmp_path, count=1)
        line = path.read_text().splitlines()[0]
        body, framed = unframe_line(line)
        assert framed
        assert json.loads(body)["format"] == "repro-admission-cache-v1"

    def test_close_is_idempotent_and_saves(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = DecisionCache(capacity=16, path=path)
        decision = _decision(0)
        cache.put(decision.key, decision)
        cache.close()
        cache.close()
        assert path.exists()
        assert len(DecisionCache(capacity=16, path=path)) == 1

    def test_context_manager_saves_on_exit(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with DecisionCache(capacity=16, path=path) as cache:
            decision = _decision(0)
            cache.put(decision.key, decision)
        assert path.exists()

    def test_rejects_unknown_fsync(self):
        with pytest.raises(ConfigurationError, match="fsync"):
            DecisionCache(capacity=16, fsync="sometimes")
