"""The state-store contract of the admission service, written once.

The service remembers exact-request decisions
(:mod:`repro.service.cache`) and shape-level feasibility regions
(:mod:`repro.regions.store`) in the same kind of store: an LRU map from
a string key to a value, in process memory (:class:`MemoryStore`) or in
a sqlite/WAL file shared by the processes of one host
(:class:`SqliteStore`), snapshotted as CRC-framed JSONL and recovered
with :mod:`repro.service.durability`.  A store class is made concrete
by setting ``codec``, a :class:`Codec` naming the snapshot format,
fields, table and label and carrying the value's dict codec.  Hit, miss
and eviction counters are process-local (observability, not state).
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, ClassVar, Generic, Mapping, TypeVar

from repro.errors import ConfigurationError
from repro.service.durability import (
    FSYNC_POLICIES,
    RecoveryReport,
    atomic_write_text,
    frame_line,
    load_jsonl_salvaging,
    open_sqlite_checked,
)

__all__ = [
    "BACKENDS",
    "CacheStats",
    "Codec",
    "MemoryStore",
    "SqliteStore",
    "close_all",
    "make_store",
]

#: Recognized :func:`make_store` backend names.
BACKENDS: tuple[str, ...] = ("memory", "sqlite")

V = TypeVar("V")


@dataclass(frozen=True)
class Codec(Generic[V]):
    """How one kind of stored value is named and serialized.

    ``format`` tags every snapshot record; ``key`` and ``value`` are the
    record's field names and the sqlite column names; ``table`` is the
    sqlite table; ``label`` names the store in errors and logs.
    ``to_dict``/``from_dict`` are the value's lossless JSON codec.
    """

    format: str
    key: str
    value: str
    table: str
    label: str
    to_dict: Callable[[V], dict[str, Any]]
    from_dict: Callable[[Mapping[str, Any]], V]


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of the cache's counters.

    ``coalesced`` counts lookups that found the key *in flight* rather
    than resident: the caller waited for the leader's computation
    instead of starting its own (see
    :class:`repro.service.cache.SingleFlight`).
    """

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int
    coalesced: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups; 0.0 before the first lookup."""
        return self.hits / self.lookups if self.lookups else 0.0

    def describe(self) -> str:
        extra = (
            f", {self.coalesced} coalesced" if self.coalesced else ""
        )
        return (
            f"cache: {self.size}/{self.capacity} entries, "
            f"{self.hits} hits / {self.misses} misses "
            f"(rate {self.hit_rate:.1%}), {self.evictions} evictions"
            f"{extra}"
        )


class _Store(Generic[V]):
    """Validation, counters, statistics and JSONL persistence.

    Subclasses provide the map (``get``/``put``/``keys``/...) and
    :meth:`_records`, the ``(key, value dict)`` pairs LRU first.
    """

    codec: ClassVar[Codec]

    def __init__(self, capacity: int, fsync: str) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"{self.codec.label} capacity must be >= 1, got {capacity}"
            )
        if fsync not in FSYNC_POLICIES:
            raise ConfigurationError(
                f"unknown fsync policy {fsync!r}; expected one of "
                f"{'/'.join(FSYNC_POLICIES)}"
            )
        self._capacity = capacity
        self._fsync = fsync
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._path: Path | None = None
        # Backend health: the last load's salvage/quarantine report and
        # the sqlite integrity-check failures (always 0 in memory).
        self.last_recovery: RecoveryReport | None = None
        self.integrity_failures = 0

    def _records(self) -> list[tuple[str, dict[str, Any]]]:
        raise NotImplementedError

    @property
    def capacity(self) -> int:
        return self._capacity

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self),
                capacity=self._capacity,
            )

    def save(self, path: str | Path | None = None) -> Path:
        """Snapshot every entry as CRC-framed JSONL, LRU first (so a
        smaller-capacity reload keeps the hottest entries).

        ``path`` defaults to the memory store's constructor path.  The
        write is atomic (temp file + rename under the constructor's
        fsync policy): a crash mid-save leaves the previous complete
        snapshot, never a torn file.  Any backend's snapshot loads into
        any backend of the same codec, and is what a corrupt sqlite
        database rebuilds from.  Returns the path written.
        """
        target = Path(path) if path is not None else self._path
        if target is None:
            raise ConfigurationError(
                "no persistence path: pass one to save() or the constructor"
            )
        codec = self.codec
        lines = [
            frame_line(json.dumps(
                {"format": codec.format, codec.key: key, codec.value: value},
                sort_keys=True,
            ))
            for key, value in self._records()
        ]
        text = "\n".join(lines) + ("\n" if lines else "")
        return atomic_write_text(target, text, fsync=self._fsync)

    def load(self, path: str | Path) -> int:
        """Merge entries from a :meth:`save` file; returns the count.

        Lines are applied in file order, so the file's most recently
        used entries end up most recently used here too.  A torn or
        truncated tail (crash mid-append) is *salvaged*: the valid
        prefix loads, the damage is logged and reported in
        ``last_recovery``.  A parseable line of a foreign format, or a
        well-formed record this store cannot apply, still raises
        :class:`ConfigurationError` -- those are configuration/writer
        bugs, not storage damage.  Legacy unframed files load too.
        """
        codec = self.codec

        def apply(entry: dict) -> None:
            self.put(entry[codec.key], codec.from_dict(entry[codec.value]))

        self.last_recovery = load_jsonl_salvaging(
            path, expected_format=codec.format, apply=apply, label=codec.label
        )
        return self.last_recovery.loaded

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class MemoryStore(_Store[V]):
    """LRU-bounded, thread-safe in-process map from key to value.

    Parameters
    ----------
    capacity:
        Maximum number of entries retained; the least recently *used*
        (looked up or stored) entry is evicted first.
    path:
        Optional persistence file.  When given and present, the store
        warm-starts from it on construction; :meth:`save` rewrites it
        and :meth:`close` flushes to it.
    fsync:
        Snapshot fsync policy, one of
        :data:`repro.service.durability.FSYNC_POLICIES`.
    """

    def __init__(
        self,
        capacity: int = 1024,
        *,
        path: str | Path | None = None,
        fsync: str = "data",
    ) -> None:
        super().__init__(capacity, fsync)
        self._entries: OrderedDict[str, V] = OrderedDict()
        self._path = None if path is None else Path(path)
        if self._path is not None and self._path.exists():
            self.load(self._path)

    def get(self, key: str) -> V | None:
        """The stored value for ``key``, or None; counts hit/miss."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: str, value: V) -> None:
        """Store (or refresh) a value, evicting LRU entries if full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def __contains__(self, key: str) -> bool:
        """Membership without touching recency or the counters."""
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> tuple[str, ...]:
        """Current keys, least recently used first."""
        with self._lock:
            return tuple(self._entries)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def _records(self) -> list[tuple[str, dict[str, Any]]]:
        with self._lock:
            items = list(self._entries.items())
        return [(key, self.codec.to_dict(value)) for key, value in items]

    def close(self) -> None:
        """Flush to the constructor's persistence path, if any.

        Idempotent; a path-less store has nothing to do.  This is what
        makes ``with DecisionCache(path=...) as cache:`` crash-restart
        friendly: normal teardown leaves a complete snapshot behind.
        """
        if self._path is not None:
            self.save()


#: Statement templates; the codec supplies the table and columns.
_SQL = {
    "schema": """
CREATE TABLE IF NOT EXISTS {table} (
    {key} TEXT PRIMARY KEY,
    {value} TEXT NOT NULL,
    seq INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS {table}_seq ON {table} (seq);
""",
    "next_seq": "SELECT COALESCE(MAX(seq), 0) + 1 FROM {table}",
    "get": "SELECT {value} FROM {table} WHERE {key} = ?",
    "touch": "UPDATE {table} SET seq = ? WHERE {key} = ?",
    "put": "INSERT INTO {table} ({key}, {value}, seq) VALUES (?, ?, ?) "
    "ON CONFLICT({key}) DO UPDATE SET "
    "{value} = excluded.{value}, seq = excluded.seq",
    "evict": "DELETE FROM {table} WHERE {key} IN ("
    "SELECT {key} FROM {table} ORDER BY seq LIMIT ?)",
    "contains": "SELECT 1 FROM {table} WHERE {key} = ?",
    "count": "SELECT COUNT(*) FROM {table}",
    "keys": "SELECT {key} FROM {table} ORDER BY seq",
    "records": "SELECT {key}, {value} FROM {table} ORDER BY seq",
    "clear": "DELETE FROM {table}",
}


class SqliteStore(_Store[V]):
    """LRU store on sqlite/WAL; same interface as :class:`MemoryStore`.

    Parameters
    ----------
    capacity:
        Maximum number of entries retained (LRU eviction by ``seq``).
    db_path:
        The sqlite file.  ``":memory:"`` gives a private in-memory
        database (useful in tests); a real path is durable and shared.
    rebuild_from:
        Optional JSONL snapshot (a :meth:`save` file from any backend).
        When opening ``db_path`` finds corruption (``PRAGMA
        integrity_check`` fails), the damaged file is quarantined, a
        fresh database is started, and -- if this snapshot exists --
        the store rebuilds from it; ``last_recovery`` reports all of it
        (including any damage salvaged from the snapshot) and
        ``integrity_failures`` counts the corruption events.
    fsync:
        Fsync policy of :meth:`save` snapshots; the database itself is
        journalled by WAL with ``synchronous=NORMAL``.
    """

    def __init__(
        self,
        capacity: int = 1024,
        *,
        db_path: str | Path = ":memory:",
        rebuild_from: str | Path | None = None,
        fsync: str = "data",
    ) -> None:
        super().__init__(capacity, fsync)
        c = self.codec
        self._sql = {
            name: sql.format(table=c.table, key=c.key, value=c.value)
            for name, sql in _SQL.items()
        }
        self._db_path = str(db_path)
        self._conn, quarantined = open_sqlite_checked(
            self._db_path, self._sql["schema"]
        )
        if quarantined is not None:
            self.integrity_failures += 1
            snapshot = RecoveryReport(self._db_path, kind="sqlite", loaded=0)
            if rebuild_from is not None and Path(rebuild_from).exists():
                self.load(rebuild_from)
                snapshot = self.last_recovery
            # Keep the snapshot's own salvage counts: a torn snapshot's
            # dropped records are damage the operator must see.
            self.last_recovery = replace(
                snapshot,
                path=self._db_path,
                kind="sqlite",
                reason="integrity check failed; rebuilt from snapshot"
                if snapshot.loaded
                else "integrity check failed; no snapshot to rebuild from",
                quarantined=quarantined,
            )

    def _next_seq(self) -> int:
        return int(self._conn.execute(self._sql["next_seq"]).fetchone()[0])

    def get(self, key: str) -> V | None:
        with self._lock:
            row = self._conn.execute(self._sql["get"], (key,)).fetchone()
            if row is None:
                self._misses += 1
                return None
            self._conn.execute(self._sql["touch"], (self._next_seq(), key))
            self._conn.commit()
            self._hits += 1
            return self.codec.from_dict(json.loads(row[0]))

    def put(self, key: str, value: V) -> None:
        encoded = json.dumps(self.codec.to_dict(value), sort_keys=True)
        with self._lock:
            self._conn.execute(
                self._sql["put"], (key, encoded, self._next_seq())
            )
            over = len(self) - self._capacity
            if over > 0:
                self._conn.execute(self._sql["evict"], (over,))
                self._evictions += over
            self._conn.commit()

    def __contains__(self, key: str) -> bool:
        with self._lock:
            row = self._conn.execute(self._sql["contains"], (key,)).fetchone()
            return row is not None

    def __len__(self) -> int:
        with self._lock:
            return int(self._conn.execute(self._sql["count"]).fetchone()[0])

    def keys(self) -> tuple[str, ...]:
        """Current keys, least recently used first."""
        with self._lock:
            rows = self._conn.execute(self._sql["keys"]).fetchall()
            return tuple(row[0] for row in rows)

    def clear(self) -> None:
        with self._lock:
            self._conn.execute(self._sql["clear"])
            self._conn.commit()

    def _records(self) -> list[tuple[str, dict[str, Any]]]:
        with self._lock:
            rows = self._conn.execute(self._sql["records"]).fetchall()
        return [(key, json.loads(encoded)) for key, encoded in rows]

    def close(self) -> None:
        """Close the connection (idempotent; safe on error paths)."""
        with self._lock:
            self._conn.close()


def make_store(
    backend: str,
    memory: type[MemoryStore],
    sqlite: type[SqliteStore],
    *,
    capacity: int,
    path: str | Path | None = None,
    fsync: str = "data",
    rebuild_from: str | Path | None = None,
):
    """Build the ``memory`` or the ``sqlite`` class of one binding.

    ``path`` is the memory store's JSONL warm-start/persistence file,
    or the sqlite database file (default: private in-memory);
    ``rebuild_from`` is the sqlite store's snapshot to rebuild from
    after quarantining a corrupt database; ``fsync`` is either's
    snapshot policy.
    """
    if backend == "memory":
        return memory(capacity, path=path, fsync=fsync)
    if backend == "sqlite":
        return sqlite(
            capacity,
            db_path=":memory:" if path is None else path,
            rebuild_from=rebuild_from,
            fsync=fsync,
        )
    raise ConfigurationError(
        f"unknown {memory.codec.label} backend {backend!r}; "
        f"expected one of {'/'.join(BACKENDS)}"
    )


def close_all(*resources) -> None:
    """Close each non-None resource in order.

    ``try/finally`` all the way down: a failing ``close`` cannot leak
    the resources after it, and the first error still propagates.
    """
    if not resources:
        return
    first, *rest = resources
    try:
        if first is not None:
            first.close()
    finally:
        close_all(*rest)
