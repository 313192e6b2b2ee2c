"""Algorithm SA/PM -- schedulability analysis for PM, MPM and RG.

Section 4.1 of the paper: under the PM or MPM protocol every subtask is
strictly periodic, so Lehoczky's busy-period analysis bounds each
subtask's response time (Steps 1-4, Eqs. 1-5) and the EER bound of a task
is the sum of its subtask bounds (Step 5, Eq. 6).

Section 4.2 (Lemma 1 / Theorem 1) proves the *same* bounds are valid
under the Release Guard protocol: rule 2 never fires inside a busy
period, so subtasks are periodic within every busy period, and the sum of
subtask bounds dominates the release-guard delays along the chain.
Callers therefore use this one analysis for all three protocols.
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.core.analysis.busy_period import CompiledSystem, SubtaskBusyPeriod
from repro.core.analysis.results import AnalysisResult
from repro.errors import AnalysisError
from repro.model.system import System
from repro.model.task import SubtaskId
from repro.timebase import FLOAT, Timebase, get_timebase

__all__ = ["analyze_sa_pm", "sa_pm_compiled", "sa_pm_subtask_details"]


def sa_pm_subtask_details(
    system: System,
    blocking: Mapping[SubtaskId, float] | None = None,
    *,
    jitter: Mapping[SubtaskId, float] | None = None,
    timebase: Timebase | str = FLOAT,
) -> dict[SubtaskId, SubtaskBusyPeriod]:
    """Steps 1-4 for every subtask: full busy-period records.

    ``jitter`` is *interference* jitter (suspension-as-jitter deferral
    of lock-holding subtasks -- see :mod:`repro.locks.analysis`): it
    widens the arrival windows of interfering subtasks but is never
    applied to the analyzed subtask's own releases, which stay strictly
    periodic under PM/MPM/RG.  Its values must be finite.  An infinite
    blocking term short-circuits to a diverged record (the exact
    backend cannot represent infinite demand).
    """
    return _details(_compile(system, blocking, jitter, timebase), blocking, jitter)


def _compile(system, blocking, jitter, timebase) -> CompiledSystem:
    values = [*(blocking or {}).values(), *(jitter or {}).values()]
    return CompiledSystem(system, get_timebase(timebase), values)


def _details(
    kernel: CompiledSystem,
    blocking: Mapping[SubtaskId, float] | None,
    jitter: Mapping[SubtaskId, float] | None,
) -> dict[SubtaskId, SubtaskBusyPeriod]:
    blocking = blocking or {}
    jitter = jitter or {}
    for sid, value in jitter.items():
        if not math.isfinite(value):
            raise AnalysisError(f"non-finite jitter for {sid}: {value!r}")
    to_kernel = kernel.to_kernel
    vector = [to_kernel(jitter.get(sid, 0)) for sid in kernel.sids]
    zero = to_kernel(0)
    details: dict[SubtaskId, SubtaskBusyPeriod] = {}
    for i, sid in enumerate(kernel.sids):
        own_blocking = blocking.get(sid, 0.0)
        if math.isinf(own_blocking):
            details[sid] = SubtaskBusyPeriod(
                sid=sid,
                busy_period=None,
                instance_count=0,
                per_instance_bounds=(),
                bound=None,
            )
            continue
        solved = kernel.solve(i, vector, zero, to_kernel(own_blocking), None)
        details[sid] = kernel.record(i, solved)
    return details


def analyze_sa_pm(
    system: System,
    *,
    blocking: Mapping[SubtaskId, float] | None = None,
    jitter: Mapping[SubtaskId, float] | None = None,
    timebase: Timebase | str = FLOAT,
) -> AnalysisResult:
    """Run Algorithm SA/PM over a system.

    Returns an :class:`AnalysisResult` whose ``subtask_bounds`` are the
    response-time bounds ``R_i,j`` and whose ``task_bounds`` are the EER
    bounds ``R_i = sum_j R_i,j``.  A subtask on a processor whose
    interference utilization reaches 1 gets an infinite bound (and so
    does its task); no exception is raised for unschedulable systems.

    ``blocking`` optionally charges a per-subtask blocking term ``B_i,j``
    into every demand equation (non-preemptive sections, dedicated
    communication resources -- the Section 6 extension); ``jitter``
    charges interference jitter per *interfering* subtask
    (suspension-as-jitter for lock-induced deferrals, see
    :func:`sa_pm_subtask_details`).  Under the exact ``timebase`` the
    bounds come out as scaled integers/rationals and the EER sums are
    exact.
    """
    return sa_pm_compiled(
        _compile(system, blocking, jitter, timebase), blocking=blocking, jitter=jitter
    )


def sa_pm_compiled(
    kernel: CompiledSystem,
    *,
    blocking: Mapping[SubtaskId, float] | None = None,
    jitter: Mapping[SubtaskId, float] | None = None,
) -> AnalysisResult:
    """:func:`analyze_sa_pm` on an already compiled system.

    Callers that analyze one system many times (the blocking-aware
    joint fixpoint) compile it once and pass it here; a map whose values
    leave the compiled lattice triggers a recompile.
    """
    kernel = kernel.including(
        [*(blocking or {}).values(), *(jitter or {}).values()]
    )
    details = _details(kernel, blocking, jitter)
    system, timebase = kernel.system, kernel.timebase
    subtask_bounds = {
        sid: (math.inf if record.bound is None else record.bound)
        for sid, record in details.items()
    }
    task_bounds = []
    for task_index, task in enumerate(system.tasks):
        total = timebase.zero
        for j in range(task.chain_length):
            total += subtask_bounds[SubtaskId(task_index, j)]
        task_bounds.append(total)
    return AnalysisResult(
        system=system,
        algorithm="SA/PM",
        subtask_bounds=subtask_bounds,
        task_bounds=tuple(task_bounds),
        iterations=1,
    )
