"""A thread-safe LRU cache of admission decisions.

The cache is the service's scaling lever: admission traffic is heavily
repetitive (the same task set is re-submitted on every reconfiguration
attempt, rolling restart, or what-if probe), and a decision is a pure
function of the request content, so a hit replaces a full SA/PM +
SA/DS run with a dictionary lookup.

Keys are the canonical content hashes of :mod:`repro.service.hashing`.
Eviction is least-recently-used over a fixed capacity.  Hit, miss and
eviction counters are kept for capacity planning.  The cache can
persist itself to a JSONL file (one ``{"key": ..., "decision": ...}``
object per line) and warm-start from it, so a restarted service reaches
its steady-state hit rate immediately.

The cache also owns the service's *single-flight* table
(:class:`SingleFlight`, exposed as ``cache.flights``): when several
concurrent callers -- two batches, two shards, two threads -- miss on
the same key at the same time, exactly one of them (the *leader*)
computes while the rest wait for the published result instead of
recomputing it.  In-flight tracking lives at the cache layer because
that is the only place all concurrent misses for one key meet,
whatever path (batch, frontend shard, direct admit) produced them.

The LRU map, persistence and recovery are the shared store contract
of :mod:`repro.service.store`; this module binds it to decisions.  The
sqlite/WAL backend lives in :mod:`repro.service.backends` and exposes
this same interface, which is what makes it drop-in behind
:class:`AdmissionController` and the sharded frontend.
"""

from __future__ import annotations

import threading
from dataclasses import replace

from repro.service.requests import (
    AdmissionDecision,
    decision_from_dict,
    decision_to_dict,
)
from repro.service.store import CacheStats, Codec, MemoryStore

__all__ = ["CacheStats", "DecisionCache", "SingleFlight"]


class _Flight:
    """One in-flight computation: an event plus its published outcome."""

    __slots__ = ("event", "decision", "degraded")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.decision: AdmissionDecision | None = None
        self.degraded = False


class SingleFlight:
    """Per-key in-flight tracking: one computation, many waiters.

    Two concurrent batches (or shards, or threads) that miss on the
    same key used to recompute it independently -- the within-batch
    deduplication of :func:`repro.service.batch.admit_batch` never saw
    across batch boundaries.  This table closes that hole:

    * :meth:`begin` claims a key.  The first claimant becomes the
      *leader* and must eventually call :meth:`finish` (use
      ``try/finally``); later claimants get the leader's flight to
      :meth:`wait` on.
    * :meth:`finish` publishes the outcome and wakes every waiter.  A
      leader that could not produce a cacheable decision publishes
      ``decision=None`` (or ``degraded=True``); waiters then fall back
      to computing for themselves, so a crashed or degraded leader can
      never wedge its followers.

    The table holds no decision history: a finished flight is removed,
    and the *cache* is what remembers the result.  Waiting is
    event-based (no polling); the leader's ``finally`` guarantees
    every waiter wakes.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: dict[str, _Flight] = {}
        self._coalesced = 0

    def begin(self, key: str) -> tuple[bool, _Flight]:
        """Claim ``key``: (True, flight) for the leader, else
        (False, the leader's flight) to :meth:`wait` on."""
        with self._lock:
            flight = self._flights.get(key)
            if flight is not None:
                self._coalesced += 1
                return False, flight
            flight = _Flight()
            self._flights[key] = flight
            return True, flight

    def finish(
        self,
        key: str,
        decision: AdmissionDecision | None,
        *,
        degraded: bool = False,
    ) -> None:
        """Publish the leader's outcome and wake every waiter."""
        with self._lock:
            flight = self._flights.pop(key, None)
        if flight is not None:
            flight.decision = decision
            flight.degraded = degraded
            flight.event.set()

    @staticmethod
    def wait(
        flight: _Flight, timeout: float | None = None
    ) -> tuple[AdmissionDecision | None, bool]:
        """Block until the flight publishes; (decision, degraded?).

        ``(None, False)`` means the leader finished without a usable
        decision (or ``timeout`` expired); the caller should compute
        for itself.
        """
        flight.event.wait(timeout)
        return flight.decision, flight.degraded

    def in_flight(self) -> int:
        """Number of keys currently being computed somewhere."""
        with self._lock:
            return len(self._flights)

    @property
    def coalesced(self) -> int:
        """Total lookups that joined an existing flight."""
        with self._lock:
            return self._coalesced


class _DecisionBinding:
    """The decision codec plus the single-flight table every decision
    backend carries; ``stats()`` reports its ``coalesced`` count."""

    #: ``{"format", "key", "decision"}`` snapshot records and the
    #: sqlite ``decisions (key, decision, seq)`` table.
    codec = Codec(
        format="repro-admission-cache-v1",
        key="key",
        value="decision",
        table="decisions",
        label="cache",
        to_dict=decision_to_dict,
        from_dict=decision_from_dict,
    )

    def __init__(self, capacity: int = 4096, **options) -> None:
        self.flights = SingleFlight()
        super().__init__(capacity, **options)

    def stats(self) -> CacheStats:
        return replace(super().stats(), coalesced=self.flights.coalesced)


class DecisionCache(_DecisionBinding, MemoryStore[AdmissionDecision]):
    """LRU-bounded, thread-safe map from content key to decision.

    The :class:`~repro.service.store.MemoryStore` contract (``capacity``,
    ``path``, ``fsync``; ``capacity`` defaults to 4096) bound to
    decisions.  Every cache carries a :class:`SingleFlight` table as
    ``flights``, which the batch layer and the sharded frontend use to
    collapse concurrent misses on one key into a single computation.
    After a warm start, ``last_recovery`` holds the load's
    :class:`~repro.service.durability.RecoveryReport` (salvage counts
    for a torn file, or a clean report).
    """
