"""In-memory span recorder for the traced runs.

Spans are recorded from the benchmark's own files, around calls into
the program's public functions: the recorder wraps a callable (or an
attribute of a module or instance) and appends
``[id, name, start, end, parent, request]`` for every call.  Nothing is
written until :meth:`SpanRecorder.dump_jsonl` at exit.

A span's parent is the innermost open span of the same context
(``contextvars``, so asyncio tasks keep their own chains).  Work that
hops to another task or thread -- the frontend's shard workers, a pool
thread -- has no open span in its context; its wrapper then names an
*anchor* (the request object's id or its content key) that an enclosing
span registered, and the anchoring span becomes the parent.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable

_ID, _NAME, _START, _END, _PARENT, _REQUEST = range(6)


class SpanRecorder:
    """Collects spans in memory; appends are safe from threads and tasks."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._anchors: dict[Any, list] = {}
        self._owned: dict[int, list] = {}

    # -- recording -----------------------------------------------------
    def _open(self, name: str, anchor: Any, request: Any) -> list:
        parent = self._current.get()
        if parent is None and anchor is not None:
            parent = self._anchors.get(anchor)
        if request is None and parent is not None:
            request = parent[_REQUEST]
        return [
            next(self._ids),
            name,
            time.perf_counter(),
            None,
            None if parent is None else parent[_ID],
            request,
        ]

    def _close(self, span: list) -> None:
        span[_END] = time.perf_counter()
        for key in self._owned.pop(span[_ID], ()):
            if self._anchors.get(key) is span:
                del self._anchors[key]
        self.spans.append(span)

    def anchor(self, key: Any) -> None:
        """Register ``key`` as an anchor of the current span until it ends."""
        span = self._current.get()
        if span is not None:
            self._anchors[key] = span
            self._owned.setdefault(span[_ID], []).append(key)

    def record(self, name: str, start: float, end: float) -> None:
        """A span whose interval was timed by the caller."""
        span = self._open(name, None, None)
        span[_START] = start
        span[_END] = end
        self.spans.append(span)

    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        anchor_in: Callable[..., Any] | None = None,
        anchor_out: Callable[..., Iterable[Any]] | None = None,
        request: Callable[..., Any] | None = None,
        observe: Callable[[Any], None] | None = None,
    ) -> Callable:
        """A synchronous wrapper recording one span per call.

        ``anchor_in(*args)`` names the anchor whose span becomes the
        parent when the context has none; ``anchor_out(*args)`` names
        anchors this span registers while open; ``request(*args)`` tags
        the span; ``observe(result)`` sees every return value.
        """
        current = self._current

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(
                name,
                None if anchor_in is None else anchor_in(*args),
                None if request is None else request(*args),
            )
            token = current.set(span)
            try:
                if anchor_out is not None:
                    for key in anchor_out(*args):
                        self.anchor(key)
                result = fn(*args, **kwargs)
            finally:
                current.reset(token)
                self._close(span)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def wrap_async(
        self,
        fn: Callable,
        name: str,
        *,
        anchor_out: Callable[..., Iterable[Any]] | None = None,
        request: Callable[..., Any] | None = None,
    ) -> Callable:
        """Like :meth:`wrap`, for a coroutine function."""
        current = self._current

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span = self._open(
                name, None, None if request is None else request(*args)
            )
            token = current.set(span)
            try:
                if anchor_out is not None:
                    for key in anchor_out(*args):
                        self.anchor(key)
                return await fn(*args, **kwargs)
            finally:
                current.reset(token)
                self._close(span)

        return wrapper

    def patch(self, owner: Any, attribute: str, name: str, **options) -> None:
        """Replace ``owner.attribute`` with a recording wrapper."""
        setattr(
            owner, attribute, self.wrap(getattr(owner, attribute), name, **options)
        )

    # -- output ----------------------------------------------------------
    def dump_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span[_ID],
                            "name": span[_NAME],
                            "start": span[_START],
                            "end": span[_END],
                            "parent": span[_PARENT],
                            "request": span[_REQUEST],
                        }
                    )
                    + "\n"
                )

    def summary(self) -> dict[str, dict[str, float]]:
        return summarize(self.spans)


def covered(interval: tuple[float, float], children) -> float:
    """Length of ``interval`` covered by the union of ``children``.

    Children may overlap each other (concurrent work under one parent)
    and may stick out of the parent's interval; both are clipped, so no
    instant is subtracted twice or outside the parent.
    """
    low, high = interval
    clipped = sorted(
        (max(start, low), min(end, high))
        for start, end in children
        if min(end, high) > max(start, low)
    )
    total = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[_PARENT] is not None:
            children[span[_PARENT]].append((span[_START], span[_END]))
    return {
        span[_ID]: (span[_END] - span[_START])
        - covered((span[_START], span[_END]), children.get(span[_ID], ()))
        for span in spans
    }


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (inclusive) seconds, self seconds."""
    own = self_times(spans)
    result: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = result.setdefault(
            span[_NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        entry["calls"] += 1
        entry["total_s"] += span[_END] - span[_START]
        entry["self_s"] += own[span[_ID]]
    return result


def merge_summaries(*summaries) -> dict[str, dict[str, float]]:
    merged: dict[str, dict[str, float]] = {}
    for summary in summaries:
        for name, entry in summary.items():
            target = merged.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            for field in target:
                target[field] += entry[field]
    return merged


def per_span_cost(samples: int = 20000) -> float:
    """Seconds one recorded span adds to a call, measured here and now."""

    def noop():
        return None

    wrapped = SpanRecorder().wrap(noop, "calibration")
    start = time.perf_counter()
    for _ in range(samples):
        noop()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(samples):
        wrapped()
    traced = time.perf_counter() - start
    return max(traced - plain, 0.0) / samples
