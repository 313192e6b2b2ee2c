"""Identity of the compiled busy-period kernel with a frozen reference.

The reference below is the per-subtask derivation SA/PM and SA/DS used
before the analyses moved onto one compiled kernel: every IEERT pass
re-derived each subtask's interference set, converted the whole jitter
map through the timebase and routed every ceiling through it.  It is
frozen here, unoptimised, as the oracle the kernel must reproduce:

* exact timebase: equal bounds (same rationals);
* float timebase: bit-identical bounds, equal pass counts and verdicts.

Both plain and blocking-aware analyses are compared, so the reuse of a
compiled augmented system across the deferral fixpoint's outer passes
is covered too.  The blocking-aware reference re-runs the frozen
analyses inside the deferral fixpoint exactly as the old code did (a
fresh assignment and a fresh analysis per outer pass).
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis.busy_period import (
    CompiledSystem,
    SubtaskBusyPeriod,
    analyze_subtask,
)
from repro.core.analysis.results import FAILURE_FACTOR, AnalysisResult
from repro.core.analysis.sa_ds import analyze_sa_ds, ieert_pass, sa_ds_compiled
from repro.core.analysis.sa_pm import (
    analyze_sa_pm,
    sa_pm_compiled,
    sa_pm_subtask_details,
)
from repro.errors import AnalysisError
from repro.locks import (
    LockingConfig,
    agent_augmented_system,
    analyze_sa_ds_blocking,
    analyze_sa_pm_blocking,
    inject_critical_sections,
)
from repro.locks.analysis import (
    _agent_owner_map,
    _apply_infinite_deferrals,
    _maps_close,
    _strip_agents,
)
from repro.locks.assignment import build_assignment
from repro.model.task import SubtaskId
from repro.timebase import ABS_EPS, EXACT, FLOAT, REL_EPS, fmt, get_timebase
from repro.workload.config import WorkloadConfig
from repro.workload.generator import generate_system

# ---------------------------------------------------------------------------
# Frozen reference: per-subtask busy-period analysis
# ---------------------------------------------------------------------------


def ref_interference_set(system, sid):
    me = system.subtask(sid)
    return tuple(
        other
        for other in system.subtasks_on(me.processor)
        if other != sid and system.subtask(other).priority <= me.priority
    )


def ref_solve_fixed_point(demand, start, cap, *, timebase):
    if start <= 0:
        raise AnalysisError(f"fixed-point start must be > 0, got {start!r}")
    current = start
    for _ in range(100_000):
        if current > cap:
            return None
        nxt = demand(current)
        if timebase.exact:
            if nxt < current:
                raise AnalysisError(
                    f"demand function is not monotone: W({fmt(current)})"
                )
            if nxt == current:
                return nxt
        else:
            if nxt < current - REL_EPS * max(1.0, abs(current)):
                raise AnalysisError(
                    f"demand function is not monotone: W({current:g})"
                )
            if nxt - current <= REL_EPS * max(1.0, abs(current)):
                return nxt
        current = nxt
    raise AnalysisError("fixed-point iteration did not settle")


def ref_demand(terms, jitter, base, timebase):
    packed = [(e, p, jitter.get(other, 0)) for (e, p, other) in terms]
    if timebase.exact:

        def demand(t):
            total = base
            for e, p, j in packed:
                total += -(-(t + j) // p) * e
            return total

        return demand
    ceil = timebase.ceil

    def demand(t):
        total = base
        for e, p, j in packed:
            total += ceil((t + j) / p) * e
        return total

    return demand


def ref_rescale_inputs(period, blocking, jitter, terms, own_term, abort_above):
    values = [period, blocking, own_term[0]]
    values.extend(v for (e, p, _sid) in terms for v in (e, p))
    values.extend(jitter.values())
    if abort_above is not None:
        values.append(abort_above)
    if not all(isinstance(v, (int, Fraction)) for v in values):
        return None
    scale = 1
    for value in values:
        if isinstance(value, Fraction):
            d = value.denominator
            scale = scale * d // math.gcd(scale, d)

    def up(value):
        if isinstance(value, Fraction):
            return value.numerator * (scale // value.denominator)
        return value * scale

    period_s = up(period)
    return (
        period_s,
        up(blocking),
        {other: up(v) for other, v in jitter.items()},
        [(up(e), up(p), other) for (e, p, other) in terms],
        (up(own_term[0]), period_s, own_term[2]),
        up(abort_above) if abort_above is not None else None,
        scale,
    )


def ref_analyze_subtask(
    system, sid, jitter=None, *, abort_above=None, blocking=0.0, timebase=FLOAT
):
    jitter = jitter or {}
    subtask = system.subtask(sid)
    period = timebase.convert(system.period_of(sid))
    own_jitter_raw = jitter.get(sid, 0)
    if own_jitter_raw < 0:
        raise AnalysisError(f"negative jitter for {sid}: {own_jitter_raw!r}")
    if blocking < 0:
        raise AnalysisError(f"negative blocking for {sid}: {blocking!r}")
    blocking = timebase.convert(blocking)
    jitter = {other: timebase.convert(value) for other, value in jitter.items()}
    own_jitter = jitter.get(sid, 0)
    terms = [
        (
            timebase.convert(system.subtask(other).execution_time),
            timebase.convert(system.period_of(other)),
            other,
        )
        for other in ref_interference_set(system, sid)
    ]
    own_term = (timebase.convert(subtask.execution_time), period, sid)
    if abort_above is not None:
        abort_above = timebase.convert(abort_above)
    descale = None
    if timebase.exact:
        scaled = ref_rescale_inputs(
            period, blocking, jitter, terms, own_term, abort_above
        )
        if scaled is not None:
            period, blocking, jitter, terms, own_term, abort_above, scale = scaled
            own_jitter = jitter.get(sid, 0)
            if scale > 1:
                descale = lambda v: timebase.convert(Fraction(v, scale))
    ratio = Fraction if timebase.exact else (lambda a, b: a / b)
    level_utilization = sum(ratio(e, p) for (e, p, _sid) in terms + [own_term])
    diverged = (
        level_utilization >= 1
        if timebase.exact
        else level_utilization >= 1.0 - ABS_EPS
    )
    if diverged:
        return SubtaskBusyPeriod(sid, None, 0, (), None)
    slack = 1 - level_utilization
    jitter_load_all = sum(
        (ratio(jitter.get(other, 0), p) + 1) * e
        for (e, p, other) in terms + [own_term]
    )
    cap_busy = 2 * ratio(jitter_load_all + blocking, slack) + period
    interference_utilization = sum(ratio(e, p) for (e, p, _sid) in terms)
    interference_slack = 1 - interference_utilization
    jitter_load_interference = sum(
        (ratio(jitter.get(other, 0), p) + 1) * e for (e, p, other) in terms
    )
    all_demand = ref_demand(terms + [own_term], jitter, blocking, timebase)
    start = sum(e for (e, _p, _sid) in terms + [own_term]) + blocking
    busy_period = ref_solve_fixed_point(
        all_demand, start, cap_busy, timebase=timebase
    )
    if busy_period is None:
        return SubtaskBusyPeriod(sid, None, 0, (), None)
    if timebase.exact:
        instance_count = max(1, -(-(busy_period + own_jitter) // period))
    else:
        instance_count = max(1, timebase.ceil((busy_period + own_jitter) / period))
    out = descale if descale is not None else (lambda v: v)
    execution_time = own_term[0]
    interference = ref_demand(terms, jitter, timebase.zero, timebase)
    per_instance = []
    previous_completion = timebase.zero
    for m in range(1, instance_count + 1):
        base = m * execution_time + blocking

        def completion_demand(t, _base=base):
            return _base + interference(t)

        cap_completion = (
            2 * ratio(base + jitter_load_interference, interference_slack)
            + period
        )
        warm_start = max(base, previous_completion + execution_time)
        completion = ref_solve_fixed_point(
            completion_demand, warm_start, cap_completion, timebase=timebase
        )
        if completion is None:
            return SubtaskBusyPeriod(
                sid,
                out(busy_period),
                instance_count,
                tuple(out(v) for v in per_instance),
                None,
            )
        previous_completion = completion
        instance_bound = completion + own_jitter - (m - 1) * period
        per_instance.append(instance_bound)
        if abort_above is not None and instance_bound > abort_above:
            return SubtaskBusyPeriod(
                sid,
                out(busy_period),
                instance_count,
                tuple(out(v) for v in per_instance),
                None,
                aborted=True,
            )
    return SubtaskBusyPeriod(
        sid,
        out(busy_period),
        instance_count,
        tuple(out(v) for v in per_instance),
        out(max(per_instance)),
    )


# ---------------------------------------------------------------------------
# Frozen reference: SA/PM, IEERT and SA/DS
# ---------------------------------------------------------------------------


def ref_sa_pm_subtask_details(system, blocking=None, *, jitter=None, timebase=FLOAT):
    blocking = blocking or {}
    jitter = jitter or {}
    details = {}
    for sid in system.subtask_ids:
        own_blocking = blocking.get(sid, 0.0)
        if math.isinf(own_blocking):
            details[sid] = SubtaskBusyPeriod(sid, None, 0, (), None)
            continue
        details[sid] = ref_analyze_subtask(
            system,
            sid,
            {other: value for other, value in jitter.items() if other != sid},
            blocking=own_blocking,
            timebase=timebase,
        )
    return details


def ref_analyze_sa_pm(system, *, blocking=None, jitter=None, timebase=FLOAT):
    details = ref_sa_pm_subtask_details(
        system, blocking, jitter=jitter, timebase=timebase
    )
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


def ref_initial_ieer_bounds(system, timebase):
    if timebase.exact:
        bounds = {}
        for task_index, task in enumerate(system.tasks):
            total = timebase.zero
            for j in range(task.chain_length):
                sid = SubtaskId(task_index, j)
                total += timebase.convert(system.subtask(sid).execution_time)
                bounds[sid] = total
        return bounds
    return {
        sid: system.tasks[sid.task_index].cumulative_execution_time(
            sid.subtask_index
        )
        for sid in system.subtask_ids
    }


def ref_ieert_pass(
    system,
    bounds,
    *,
    failure_factor=FAILURE_FACTOR,
    timebase=FLOAT,
    blocking=None,
    extra_jitter=None,
):
    jitter = {}
    for sid in system.subtask_ids:
        predecessor = sid.predecessor
        jitter[sid] = bounds[predecessor] if predecessor is not None else 0
    blocking = blocking or {}
    extra = extra_jitter or {}
    new_bounds = {}
    for sid in system.subtask_ids:
        period = timebase.convert(system.period_of(sid))
        interferers = list(ref_interference_set(system, sid))
        relevant = [jitter[sid]] + [
            jitter[other] + extra.get(other, 0) for other in interferers
        ]
        own_blocking = blocking.get(sid, 0)
        if any(math.isinf(j) for j in relevant) or math.isinf(own_blocking):
            new_bounds[sid] = math.inf
            continue
        cutoff = (
            timebase.convert(failure_factor) * period
            if failure_factor is not None
            else None
        )
        adjusted = dict(jitter)
        for other in interferers:
            if other in extra:
                adjusted[other] = jitter[other] + extra[other]
        record = ref_analyze_subtask(
            system,
            sid,
            adjusted,
            abort_above=cutoff,
            blocking=own_blocking,
            timebase=timebase,
        )
        new_bounds[sid] = math.inf if record.bound is None else record.bound
    return new_bounds


def ref_analyze_sa_ds(
    system,
    *,
    failure_factor=FAILURE_FACTOR,
    max_iterations=300,
    timebase=FLOAT,
    blocking=None,
    extra_jitter=None,
):
    bounds = ref_initial_ieer_bounds(system, timebase)
    cutoff_factor = timebase.convert(failure_factor)
    periods = {
        task_index: timebase.convert(task.period)
        for task_index, task in enumerate(system.tasks)
    }
    notes = []
    iterations = 0
    failed = False
    while True:
        iterations += 1
        new_bounds = ref_ieert_pass(
            system,
            bounds,
            failure_factor=failure_factor,
            timebase=timebase,
            blocking=blocking,
            extra_jitter=extra_jitter,
        )
        for task_index, task in enumerate(system.tasks):
            last = SubtaskId(task_index, task.chain_length - 1)
            if new_bounds[last] > cutoff_factor * periods[task_index]:
                new_bounds[last] = math.inf
        if any(math.isinf(value) for value in new_bounds.values()):
            failed = True
            bounds = new_bounds
            notes.append(
                f"failure cutoff ({failure_factor:g} periods) tripped after "
                f"{iterations} IEERT pass(es)"
            )
            break
        if timebase.exact:
            converged = new_bounds == bounds
        else:
            converged = all(
                abs(new_bounds[sid] - bounds[sid])
                <= REL_EPS * max(1.0, bounds[sid])
                for sid in system.subtask_ids
            )
        bounds = new_bounds
        if converged:
            break
        if iterations >= max_iterations:
            failed = True
            for sid in system.subtask_ids:
                if system.is_last(sid):
                    bounds = dict(bounds)
                    bounds[sid] = math.inf
            notes.append(
                f"no fixed point within {max_iterations} IEERT passes; "
                f"bounds still growing -- declared failure"
            )
            break
    task_bounds = []
    for task_index, task in enumerate(system.tasks):
        last = SubtaskId(task_index, task.chain_length - 1)
        value = bounds[last]
        chain_diverged = any(
            math.isinf(bounds[SubtaskId(task_index, j)])
            for j in range(task.chain_length)
        )
        task_bounds.append(
            math.inf
            if chain_diverged or value > cutoff_factor * periods[task_index]
            else value
        )
    if failed:
        notes.append(
            "non-infinite bounds in a failed result are lower estimates "
            "(iteration stopped at the failure cutoff)"
        )
    return AnalysisResult(
        system=system,
        algorithm="SA/DS",
        subtask_bounds=bounds,
        task_bounds=tuple(task_bounds),
        iterations=iterations,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Frozen reference: the blocking-aware joint fixpoint
# ---------------------------------------------------------------------------


def ref_blocking_terms(system, locking, *, timebase, deferral):
    tb = timebase
    assignment = build_assignment(system, locking)
    periods = {sid: tb.convert(system.period_of(sid)) for sid in system.subtask_ids}
    work_on = {
        processor: assignment.agent_work_on(system, processor)
        for processor in set(assignment.sync_processor.values())
    }
    agent_utilization = {
        processor: sum(tb.convert(c) / periods[u] for u, c in work.items())
        for processor, work in work_on.items()
    }
    terms = {}
    for sid in system.subtask_ids:
        sections = system.subtask(sid).critical_sections
        if not sections:
            continue
        total = tb.zero
        for section in sections:
            host = assignment.host_of(section.resource)
            if agent_utilization[host] >= 1:
                total = math.inf
                break
            duration = tb.convert(section.duration)
            others = [
                (periods[u], tb.convert(c), deferral.get(u, 0))
                for u, c in work_on[host].items()
                if u != sid
            ]
            if any(math.isinf(j) for (_p, _c, j) in others):
                total = math.inf
                break
            window = duration
            for _pass in range(10_000):
                demand = duration
                for period, c, j in others:
                    demand += (math.floor((window + j) / period) + 1) * c
                if demand == window:
                    break
                window = demand
            else:
                window = math.inf
            total += window - duration
        terms[sid] = total
    return terms


def ref_deferral_fixpoint(system, locking, tb, analyze):
    owners = _agent_owner_map(system)
    resourceful = [
        sid for sid in system.subtask_ids if system.subtask(sid).critical_sections
    ]
    executions = {
        sid: tb.convert(system.subtask(sid).execution_time) for sid in resourceful
    }
    cutoffs = {
        sid: tb.convert(FAILURE_FACTOR) * tb.convert(system.period_of(sid))
        for sid in resourceful
    }
    jitter = {sid: tb.zero for sid in resourceful}
    terms = ref_blocking_terms(system, locking, timebase=tb, deferral=jitter)
    for _pass in range(60):
        full = dict(jitter)
        for agent_sid, owner in owners.items():
            full[agent_sid] = jitter[owner]
        finite = {u: v for u, v in full.items() if not math.isinf(v)}
        inf_sids = {u for u, v in full.items() if math.isinf(v)}
        result = analyze(terms, finite)
        result = _apply_infinite_deferrals(result, inf_sids)
        new_jitter = {}
        for sid in resourceful:
            bound = result.subtask_bounds[sid]
            if (
                math.isinf(bound)
                or math.isinf(terms.get(sid, 0))
                or bound - executions[sid] > cutoffs[sid]
            ):
                new_jitter[sid] = math.inf
            else:
                new_jitter[sid] = max(tb.zero, bound - executions[sid])
        new_terms = ref_blocking_terms(
            system, locking, timebase=tb, deferral=new_jitter
        )
        converged = _maps_close(new_jitter, jitter, tb) and _maps_close(
            new_terms, terms, tb
        )
        jitter, terms = new_jitter, new_terms
        if converged:
            return terms, jitter, result
    jitter = {sid: math.inf for sid in resourceful}
    terms = {sid: math.inf for sid in resourceful}
    result = analyze({}, {})
    result = _apply_infinite_deferrals(result, set(jitter) | set(owners))
    return terms, jitter, result


def ref_sa_pm_blocking(system, *, locking, timebase):
    augmented = agent_augmented_system(system, locking)
    _t, _j, result = ref_deferral_fixpoint(
        system,
        locking,
        timebase,
        lambda blocking, jitter: ref_analyze_sa_pm(
            augmented, blocking=blocking, jitter=jitter, timebase=timebase
        ),
    )
    return _strip_agents(result, system, f"SA/PM+{locking.protocol}")


def ref_sa_ds_blocking(system, *, locking, max_iterations, timebase):
    augmented = agent_augmented_system(system, locking)
    _t, _j, result = ref_deferral_fixpoint(
        system,
        locking,
        timebase,
        lambda blocking, jitter: ref_analyze_sa_ds(
            augmented,
            blocking=blocking,
            extra_jitter=jitter,
            max_iterations=max_iterations,
            timebase=timebase,
        ),
    )
    return _strip_agents(result, system, f"SA/DS+{locking.protocol}")


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------


def _same_value(a, b, exact):
    """Exact: equal rationals.  Float: the same double, bit for bit."""
    if exact:
        return a == b
    return type(a) is type(b) and float(a).hex() == float(b).hex()


def assert_results_identical(got, want, exact):
    assert got.iterations == want.iterations
    assert got.failed == want.failed
    assert got.notes == want.notes
    assert got.algorithm == want.algorithm
    assert got.subtask_bounds == want.subtask_bounds
    assert got.task_bounds == want.task_bounds
    assert list(got.subtask_bounds) == list(want.subtask_bounds)
    for sid, value in want.subtask_bounds.items():
        assert _same_value(got.subtask_bounds[sid], value, exact), sid
    for g, w in zip(got.task_bounds, want.task_bounds):
        assert _same_value(g, w, exact)


def assert_records_identical(got, want, exact):
    assert got.sid == want.sid
    assert got.instance_count == want.instance_count
    assert got.aborted == want.aborted
    assert got.critical_instance == want.critical_instance
    for field in ("busy_period", "bound"):
        g, w = getattr(got, field), getattr(want, field)
        assert (g is None) == (w is None), field
        if w is not None:
            assert _same_value(g, w, exact), field
    assert len(got.per_instance_bounds) == len(want.per_instance_bounds)
    for g, w in zip(got.per_instance_bounds, want.per_instance_bounds):
        assert _same_value(g, w, exact)
    assert got == want


def _on_timebase(mapping, tb):
    """A random map expressed in the timebase's own representation."""
    return {sid: tb.convert(value) for sid, value in mapping.items()}


# ---------------------------------------------------------------------------
# Property: random systems, random blocking / extra-jitter maps
# ---------------------------------------------------------------------------

configs = st.builds(
    WorkloadConfig,
    subtasks_per_task=st.integers(2, 4),
    utilization=st.sampled_from([0.4, 0.6, 0.75, 0.9]),
    tasks=st.integers(2, 5),
    processors=st.integers(2, 3),
)


@st.composite
def cases(draw):
    config = draw(configs)
    system = generate_system(config, draw(st.integers(0, 10_000)))
    tb = draw(st.sampled_from([FLOAT, EXACT]))
    sids = list(system.subtask_ids)
    picked = st.lists(st.sampled_from(sids), unique=True, max_size=len(sids))
    amounts = st.floats(0.0, 5.0).map(lambda v: round(v, 3))
    blocking = {sid: draw(amounts) for sid in draw(picked)}
    extra = {sid: draw(amounts) for sid in draw(picked)}
    return system, tb, _on_timebase(blocking, tb), _on_timebase(extra, tb)


@settings(max_examples=40)
@given(case=cases(), max_iterations=st.sampled_from([3, 100]))
def test_sa_ds_matches_reference(case, max_iterations):
    system, tb, blocking, extra = case
    for b, x in (({}, {}), (blocking, {}), (blocking, extra)):
        got = analyze_sa_ds(
            system,
            max_iterations=max_iterations,
            timebase=tb,
            blocking=b or None,
            extra_jitter=x or None,
        )
        want = ref_analyze_sa_ds(
            system,
            max_iterations=max_iterations,
            timebase=tb,
            blocking=b or None,
            extra_jitter=x or None,
        )
        assert_results_identical(got, want, tb.exact)


@settings(max_examples=40)
@given(case=cases(), factor=st.sampled_from([None, 2.0, FAILURE_FACTOR]))
def test_ieert_pass_matches_reference(case, factor):
    system, tb, blocking, extra = case
    bounds = ref_initial_ieer_bounds(system, tb)
    for _ in range(3):
        got = ieert_pass(
            system,
            bounds,
            failure_factor=factor,
            timebase=tb,
            blocking=blocking,
            extra_jitter=extra,
        )
        want = ref_ieert_pass(
            system,
            bounds,
            failure_factor=factor,
            timebase=tb,
            blocking=blocking,
            extra_jitter=extra,
        )
        assert list(got) == list(want)
        for sid, value in want.items():
            assert _same_value(got[sid], value, tb.exact), sid
        if any(math.isinf(v) for v in want.values()):
            break
        bounds = want


@settings(max_examples=40)
@given(case=cases())
def test_subtask_records_match_reference(case):
    system, tb, blocking, jitter = case
    for sid in system.subtask_ids:
        kwargs = dict(blocking=blocking.get(sid, 0), timebase=tb)
        got = analyze_subtask(system, sid, jitter, abort_above=None, **kwargs)
        want = ref_analyze_subtask(system, sid, jitter, **kwargs)
        assert_records_identical(got, want, tb.exact)
    got = sa_pm_subtask_details(system, blocking, jitter=jitter, timebase=tb)
    want = ref_sa_pm_subtask_details(system, blocking, jitter=jitter, timebase=tb)
    assert list(got) == list(want)
    for sid in want:
        assert_records_identical(got[sid], want[sid], tb.exact)
    assert_results_identical(
        analyze_sa_pm(system, blocking=blocking, jitter=jitter, timebase=tb),
        ref_analyze_sa_pm(system, blocking=blocking, jitter=jitter, timebase=tb),
        tb.exact,
    )


# ---------------------------------------------------------------------------
# Seeded grid: the paper's sub-grid plus lock-injected systems
# ---------------------------------------------------------------------------

def _tier(seed, heavy=False):
    """Seed 0 (and the cheap cells) run in tier 1; the rest of the grid
    runs with ``--runslow``, where the frozen reference's cost is paid."""
    return (pytest.mark.slow,) if seed > 0 or heavy else ()


GRID = [
    pytest.param(
        n, u, seed, timebase, marks=_tier(seed, timebase == "exact" and n > 2)
    )
    for n in (2, 5, 8)
    for u in (0.5, 0.7, 0.9)
    for seed in range(4)
    for timebase in ("float", "exact")
]


@pytest.mark.parametrize("n,u,seed,timebase", GRID)
def test_sa_ds_grid_matches_reference(n, u, seed, timebase):
    tb = get_timebase(timebase)
    system = generate_system(WorkloadConfig(subtasks_per_task=n, utilization=u), seed)
    got = analyze_sa_ds(system, max_iterations=100, timebase=tb)
    want = ref_analyze_sa_ds(system, max_iterations=100, timebase=tb)
    assert_results_identical(got, want, tb.exact)


def test_sa_ds_abort_and_cutoff_paths_match_reference():
    # A heavy (8, 0.9) system trips the failure cutoff and the per-instance
    # abort; a pass budget of 2 trips the max_iterations path instead.
    system = generate_system(WorkloadConfig(subtasks_per_task=8, utilization=0.9), 1)
    for kwargs in ({}, {"max_iterations": 2}, {"failure_factor": 3.0}):
        got = analyze_sa_ds(system, **kwargs)
        want = ref_analyze_sa_ds(system, **kwargs)
        assert_results_identical(got, want, False)


LOCK_CASES = [
    pytest.param(seed, protocol, timebase, marks=_tier(seed))
    for seed in range(4)
    for protocol in ("DPCP", "DPCP-p")
    for timebase in ("float", "exact")
]


@pytest.mark.parametrize("seed,protocol,timebase", LOCK_CASES)
def test_blocking_aware_analyses_match_reference(seed, protocol, timebase):
    tb = get_timebase(timebase)
    base = generate_system(
        WorkloadConfig(subtasks_per_task=2, utilization=0.5), 1000 + seed
    )
    system = inject_critical_sections(base, ratio=0.2, seed=seed)
    assert system.has_critical_sections
    locking = LockingConfig(protocol=protocol)
    assert_results_identical(
        analyze_sa_ds_blocking(
            system, locking=locking, max_iterations=100, timebase=tb
        ),
        ref_sa_ds_blocking(
            system, locking=locking, max_iterations=100, timebase=tb
        ),
        tb.exact,
    )
    assert_results_identical(
        analyze_sa_pm_blocking(system, locking=locking, timebase=tb),
        ref_sa_pm_blocking(system, locking=locking, timebase=tb),
        tb.exact,
    )


def test_compiled_entry_points_widen_the_lattice():
    # A kernel compiled for the bare system reused with rational maps
    # off its (dyadic) lattice must recompile on a wider one, never round.
    system = generate_system(WorkloadConfig(subtasks_per_task=3, utilization=0.6), 2)
    kernel = CompiledSystem(system, EXACT)
    sids = system.subtask_ids
    blocking = {sids[0]: Fraction(1, 3), sids[4]: Fraction(2, 7)}
    extra = {sids[1]: Fraction(5, 11)}
    assert kernel.including(blocking.values()) is not kernel
    assert_results_identical(
        sa_ds_compiled(kernel, blocking=blocking, extra_jitter=extra),
        ref_analyze_sa_ds(
            system, blocking=blocking, extra_jitter=extra, timebase=EXACT
        ),
        True,
    )
    assert_results_identical(
        sa_pm_compiled(kernel, blocking=blocking, jitter=extra),
        ref_analyze_sa_pm(system, blocking=blocking, jitter=extra, timebase=EXACT),
        True,
    )
