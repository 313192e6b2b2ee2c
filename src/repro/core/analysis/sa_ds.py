"""Algorithms IEERT and SA/DS -- schedulability analysis for DS.

Under Direct Synchronization the releases of later subtasks inherit the
response-time variability of their predecessors and can *clump*; plain
busy-period analysis does not apply.  Algorithm IEERT (Fig. 10 of the
paper) bounds the *intermediate end-to-end response* (IEER) time of every
subtask -- completion of ``T_i,j(m)`` minus the release of ``T_i,1(m)`` --
by treating each subtask's current IEER-bound-of-predecessor as release
jitter in the interference terms:

    D_i,j   = lfp { t = sum_{H ∪ self} ceil((t + R_u,v-1)/p_u) e_u,v }
    M_i,j   = ceil((D_i,j + R_i,j-1) / p_i)
    C_i,j(m)= lfp { t = m e_i,j + sum_H ceil((t + R_u,v-1)/p_u) e_u,v }
    R'_i,j(m) = C_i,j(m) + R_i,j-1 - (m-1) p_i
    R'_i,j  = max_m R'_i,j(m)

Algorithm SA/DS (Fig. 11) iterates IEERT from the optimistic seed
``R_i,j = sum_{k<=j} e_i,k`` until the bounds reach a fixed point
(Theorem 2: any positive fixed point is a correct bound) -- or until some
task's bound exceeds the paper's failure cutoff of 300 periods, in which
case the bound is reported "for all practical purposes infinite".

Both run on one :class:`~repro.core.analysis.busy_period.CompiledSystem`
per call.  Passes stay Jacobi -- every pass reads only the previous
pass's bounds -- so the pass count, and with it the ``max_iterations``
verdict and a failed result's lower estimates, is that of the textbook
iteration.  Within that schedule a subtask whose inputs did not change
since the previous pass (its own jitter, its interferers' jitter; the
blocking and extra-jitter terms are fixed per call) keeps its previous
bound without being re-solved: the solve is a pure function of them.
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.core.analysis.busy_period import CompiledSystem
from repro.core.analysis.results import FAILURE_FACTOR, AnalysisResult
from repro.errors import AnalysisError
from repro.model.system import System
from repro.model.task import SubtaskId
from repro.timebase import FLOAT, REL_EPS, Timebase, get_timebase

__all__ = ["ieert_pass", "analyze_sa_ds", "initial_ieer_bounds", "sa_ds_compiled"]

#: Convergence tolerance of the outer fixed point, relative to the bound
#: (float timebase only; the exact timebase converges on equality).
_CONVERGENCE_RTOL = REL_EPS

_INF = math.inf


def initial_ieer_bounds(
    system: System, *, timebase: Timebase | str = FLOAT
) -> dict[SubtaskId, float]:
    """The SA/DS seed: cumulative execution times along each chain."""
    timebase = get_timebase(timebase)
    if timebase.exact:
        # Accumulate in exact arithmetic (the float cumulative sums would
        # seed the iteration with representation noise).
        bounds: dict[SubtaskId, float] = {}
        for task_index, task in enumerate(system.tasks):
            total = timebase.zero
            for j in range(task.chain_length):
                sid = SubtaskId(task_index, j)
                total += timebase.convert(
                    system.subtask(sid).execution_time
                )
                bounds[sid] = total
        return bounds
    return {
        sid: system.tasks[sid.task_index].cumulative_execution_time(
            sid.subtask_index
        )
        for sid in system.subtask_ids
    }


def _cutoffs(
    kernel: CompiledSystem, failure_factor: float | None
) -> list:
    """Per-subtask failure cutoff ``failure_factor * p_i``, as a kernel
    threshold (``None``: no cutoff)."""
    if failure_factor is None:
        return [None] * len(kernel.sids)
    factor = kernel.timebase.convert(failure_factor)
    return [kernel.threshold(factor * kernel.from_kernel(p)) for p in kernel.period]


def _pass(
    kernel: CompiledSystem,
    bounds: list,
    blocking: list,
    extra: list,
    cutoff: list,
    previous: list | None = None,
    dirty: list[bool] | None = None,
) -> list:
    """One application of Algorithm IEERT, in kernel units.

    Subtask ``i``'s release jitter is its predecessor's bound (0 for
    first subtasks); as an interferer it charges that plus ``extra[i]``.
    With ``dirty`` given, subtasks not marked there return ``previous``.
    Infinite inputs propagate to infinite bounds.
    """
    zero = kernel.to_kernel(0)
    own = [bounds[p] if p >= 0 else zero for p in kernel.predecessor]
    charged = [j + x for j, x in zip(own, extra)]
    any_infinite = _INF in charged or _INF in blocking
    interferers = kernel.interferers
    solve = kernel.solve
    out = []
    for i in range(len(own)):
        if dirty is not None and not dirty[i]:
            out.append(previous[i])
            continue
        if any_infinite and (
            own[i] == _INF
            or blocking[i] == _INF
            or any(charged[u] == _INF for u in interferers[i])
        ):
            out.append(_INF)
            continue
        bound = solve(i, charged, own[i], blocking[i], cutoff[i])[3]
        out.append(_INF if bound is None else bound)
    return out


def _readers(kernel: CompiledSystem) -> list[list[int]]:
    """``readers[c]``: the subtasks whose IEERT inputs include bound
    ``c`` -- its successor (own jitter) and everything that successor
    interferes with."""
    interfered: list[list[int]] = [[] for _ in kernel.sids]
    for i, others in enumerate(kernel.interferers):
        for u in others:
            interfered[u].append(i)
    readers: list[list[int]] = [[] for _ in kernel.sids]
    for s, p in enumerate(kernel.predecessor):
        if p >= 0:
            readers[p] = [s, *interfered[s]]
    return readers


def ieert_pass(
    system: System,
    bounds: Mapping[SubtaskId, float],
    *,
    failure_factor: float | None = FAILURE_FACTOR,
    timebase: Timebase | str = FLOAT,
    blocking: Mapping[SubtaskId, float] | None = None,
    extra_jitter: Mapping[SubtaskId, float] | None = None,
) -> dict[SubtaskId, float]:
    """One application of Algorithm IEERT: new bounds from old bounds.

    Infinite *input* bounds are propagated: any subtask whose predecessor
    or interference jitter is infinite gets an infinite output bound.
    With ``failure_factor`` set, the per-instance loop aborts early once
    an instance's bound exceeds ``failure_factor * p_i`` and reports the
    subtask bound as infinite (sound, since the true maximum is at least
    as large).  ``blocking`` optionally charges a per-subtask blocking
    term into every demand equation (remote-blocking under DPCP/DPCP-p
    locking -- see :mod:`repro.locks.analysis`); an infinite blocking
    term makes the subtask's bound infinite outright.  ``extra_jitter``
    adds suspension-as-jitter deferral on top of the IEERT jitter of
    *interfering* subtasks (lock holders defer their execution while
    away on a synchronization processor); it is never applied to the
    analyzed subtask's own jitter, whose blocking term already covers
    its waits.
    """
    blocking = blocking or {}
    extra = extra_jitter or {}
    kernel = CompiledSystem(
        system,
        get_timebase(timebase),
        [*bounds.values(), *blocking.values(), *extra.values()],
    )
    to_kernel = kernel.to_kernel
    out = _pass(
        kernel,
        [to_kernel(bounds[sid]) for sid in kernel.sids],
        [to_kernel(blocking.get(sid, 0)) for sid in kernel.sids],
        [to_kernel(extra.get(sid, 0)) for sid in kernel.sids],
        _cutoffs(kernel, failure_factor),
    )
    return {sid: kernel.from_kernel(v) for sid, v in zip(kernel.sids, out)}


def analyze_sa_ds(
    system: System,
    *,
    failure_factor: float = FAILURE_FACTOR,
    max_iterations: int = 300,
    timebase: Timebase | str = FLOAT,
    blocking: Mapping[SubtaskId, float] | None = None,
    extra_jitter: Mapping[SubtaskId, float] | None = None,
) -> AnalysisResult:
    """Run Algorithm SA/DS over a system.

    Returns an :class:`AnalysisResult` whose ``subtask_bounds`` are IEER
    bounds and whose ``task_bounds`` are the IEER bounds of last subtasks
    (= the EER bounds).  ``result.failed`` is True when some task's bound
    exceeded the failure cutoff (reported as infinity), reproducing the
    paper's failure statistic for Figure 12.  ``blocking`` and
    ``extra_jitter`` are handed to every IEERT pass (see
    :func:`ieert_pass`); both default to the resource-free base case.

    Raises
    ------
    AnalysisError
        Only if the iteration neither converges nor trips the cutoff
        within ``max_iterations`` passes -- the monotone iteration makes
        this practically unreachable; it guards against degenerate float
        behaviour.
    """
    if max_iterations < 1:
        raise AnalysisError(
            f"max_iterations must be >= 1, got {max_iterations!r}"
        )
    kernel = CompiledSystem(
        system,
        get_timebase(timebase),
        [*(blocking or {}).values(), *(extra_jitter or {}).values()],
    )
    return sa_ds_compiled(
        kernel,
        failure_factor=failure_factor,
        max_iterations=max_iterations,
        blocking=blocking,
        extra_jitter=extra_jitter,
    )


def sa_ds_compiled(
    kernel: CompiledSystem,
    *,
    failure_factor: float = FAILURE_FACTOR,
    max_iterations: int = 300,
    blocking: Mapping[SubtaskId, float] | None = None,
    extra_jitter: Mapping[SubtaskId, float] | None = None,
) -> AnalysisResult:
    """:func:`analyze_sa_ds` on an already compiled system.

    Callers that analyze one system many times (the blocking-aware
    joint fixpoint) compile it once and pass it here; a map whose values
    leave the compiled lattice triggers a recompile.
    """
    if max_iterations < 1:
        raise AnalysisError(
            f"max_iterations must be >= 1, got {max_iterations!r}"
        )
    blocking = blocking or {}
    extra = extra_jitter or {}
    kernel = kernel.including([*blocking.values(), *extra.values()])
    system, sids, to_kernel = kernel.system, kernel.sids, kernel.to_kernel
    blocking_k = [to_kernel(blocking.get(sid, 0)) for sid in sids]
    extra_k = [to_kernel(extra.get(sid, 0)) for sid in sids]
    cutoff = _cutoffs(kernel, failure_factor)
    readers = _readers(kernel)
    seed = initial_ieer_bounds(system, timebase=kernel.timebase)
    bounds = [to_kernel(seed[sid]) for sid in sids]
    last = kernel.last
    notes: list[str] = []
    iterations = 0
    failed = False
    previous_input: list | None = None
    previous_output: list | None = None
    while True:
        iterations += 1
        dirty = None
        if previous_output is not None:
            dirty = [False] * len(sids)
            for c, (new, old) in enumerate(zip(bounds, previous_input)):
                if new != old:
                    for r in readers[c]:
                        dirty[r] = True
        new_bounds = _pass(
            kernel, bounds, blocking_k, extra_k, cutoff, previous_output, dirty
        )
        previous_input, previous_output = bounds, list(new_bounds)
        # The paper's failure cutoff, checked at task level: a task whose
        # EER bound exceeds failure_factor periods is declared unbounded.
        for i in last:
            if new_bounds[i] > cutoff[i]:
                new_bounds[i] = _INF
        if _INF in new_bounds:
            failed = True
            bounds = new_bounds
            notes.append(
                f"failure cutoff ({failure_factor:g} periods) tripped after "
                f"{iterations} IEERT pass(es)"
            )
            break
        if kernel.exact:
            converged = new_bounds == bounds
        else:
            converged = all(
                abs(new - old) <= _CONVERGENCE_RTOL * max(1.0, old)
                for new, old in zip(new_bounds, bounds)
            )
        bounds = new_bounds
        if converged:
            break
        if iterations >= max_iterations:
            # The monotone iteration is still growing after many passes:
            # it is creeping toward the cutoff.  Declaring failure here
            # matches the paper's practical reading of such bounds as
            # infinite, at a tiny risk of misclassifying a very slowly
            # converging system.
            failed = True
            for i in last:
                bounds[i] = _INF
            notes.append(
                f"no fixed point within {max_iterations} IEERT passes; "
                f"bounds still growing -- declared failure"
            )
            break
    task_bounds = []
    first = 0
    for i in last:
        value = bounds[i]
        # IEER bounds grow along a chain, so an infinite bound anywhere on
        # the chain means the task's EER bound is infinite -- even when the
        # iteration stopped before recomputing the last subtask.
        chain_diverged = _INF in bounds[first : i + 1]
        task_bounds.append(
            _INF
            if chain_diverged or value > cutoff[i]
            else kernel.from_kernel(value)
        )
        first = i + 1
    if failed:
        # Bounds of tasks that had not yet exceeded the cutoff when the
        # iteration stopped are not converged; in a failed result only the
        # infinities are meaningful.
        notes.append(
            "non-infinite bounds in a failed result are lower estimates "
            "(iteration stopped at the failure cutoff)"
        )
    return AnalysisResult(
        system=system,
        algorithm="SA/DS",
        subtask_bounds={
            sid: kernel.from_kernel(v) for sid, v in zip(sids, bounds)
        },
        task_bounds=tuple(task_bounds),
        iterations=iterations,
        notes=tuple(notes),
    )
