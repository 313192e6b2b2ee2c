"""Pluggable decision-cache backends behind one interface.

The in-process :class:`~repro.service.cache.DecisionCache` is the
fastest backend but its contents die with the process and cannot be
shared between frontends.  :class:`SqliteDecisionCache` keeps the exact
same interface (``get``/``put``/``stats``/``save``/``load``/
``flights``/...) on top of a sqlite file in WAL mode, so

* a restarted service starts warm without replaying a JSONL file,
* several frontend processes on one host share one decision store, and
* the store survives crashes (WAL journalling, synchronous=NORMAL).

Both are bindings of the one store contract in
:mod:`repro.service.store` (recency, eviction, snapshots, quarantine).

:func:`make_cache` is the config-driven factory the frontend and the
CLI use: ``backend="memory"`` or ``backend="sqlite"``; anything else is
a configuration error, never a silent default.
"""

from __future__ import annotations

from repro.service.cache import DecisionCache, _DecisionBinding
from repro.service.requests import AdmissionDecision
from repro.service.store import BACKENDS, SqliteStore, make_store

__all__ = ["CACHE_BACKENDS", "SqliteDecisionCache", "make_cache"]

#: Recognized ``make_cache`` backend names.
CACHE_BACKENDS: tuple[str, ...] = BACKENDS


class SqliteDecisionCache(_DecisionBinding, SqliteStore[AdmissionDecision]):
    """LRU decision cache on sqlite/WAL; same interface as DecisionCache.

    The :class:`~repro.service.store.SqliteStore` contract
    (``capacity``, ``db_path``, ``rebuild_from``, ``fsync``; ``capacity``
    defaults to 4096) bound to decisions, with the same ``flights``
    table as :class:`~repro.service.cache.DecisionCache`.
    """


def make_cache(
    backend: str = "memory", *, capacity: int = 4096, **options
) -> DecisionCache | SqliteDecisionCache:
    """Build a decision cache from configuration.

    ``path``, ``fsync`` and ``rebuild_from`` mean what they mean to
    :func:`repro.service.store.make_store`.
    """
    return make_store(
        backend, DecisionCache, SqliteDecisionCache, capacity=capacity,
        **options,
    )
