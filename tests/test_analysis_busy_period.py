"""Unit tests for the shared busy-period machinery (Steps 1-5)."""

from __future__ import annotations

import math

import pytest

from repro.core.analysis.busy_period import (
    analyze_subtask,
    interference_terms,
)
from repro.model.system import System
from repro.model.task import Subtask, SubtaskId, Task


def _rm_pair() -> System:
    """The textbook two-task single-processor example.

    T1 = (4, 2) at high priority, T2 = (6, 2) below it -- processor P1 of
    the paper's Example 2.
    """
    t1 = Task(period=4.0, subtasks=(Subtask(2.0, "P1", priority=0),))
    t2 = Task(period=6.0, subtasks=(Subtask(2.0, "P1", priority=1),))
    return System((t1, t2))


class TestInterferenceTerms:
    def test_terms_carry_execution_and_period(self):
        system = _rm_pair()
        terms = interference_terms(system, SubtaskId(1, 0))
        assert terms == [(2.0, 4.0, SubtaskId(0, 0))]

    def test_highest_priority_has_no_terms(self):
        assert interference_terms(_rm_pair(), SubtaskId(0, 0)) == []


class TestZeroJitterAnalysis:
    def test_highest_priority_bound_is_execution_time(self):
        record = analyze_subtask(_rm_pair(), SubtaskId(0, 0))
        assert record.bound == pytest.approx(2.0)
        assert record.busy_period == pytest.approx(2.0)
        assert record.instance_count == 1

    def test_low_priority_bound_example2_value(self):
        # The paper: R_2,1 = 4 on processor P1 of Example 2.
        record = analyze_subtask(_rm_pair(), SubtaskId(1, 0))
        assert record.bound == pytest.approx(4.0)

    def test_busy_period_covers_both_tasks(self):
        record = analyze_subtask(_rm_pair(), SubtaskId(1, 0))
        # t = 2*ceil(t/4) + 2*ceil(t/6): t=4 works (2+2).
        assert record.busy_period == pytest.approx(4.0)

    def test_multiple_instances_in_long_busy_period(self):
        # T1 = (9, 6) above T2 = (4, 1): U = 11/12.  The level-2 busy
        # period is 8 (t = 6*ceil(t/9) + ceil(t/4) -> 8), containing
        # M = ceil(8/4) = 2 instances of T2.
        t1 = Task(period=9.0, subtasks=(Subtask(6.0, "P1", priority=0),))
        t2 = Task(period=4.0, subtasks=(Subtask(1.0, "P1", priority=1),))
        record = analyze_subtask(System((t1, t2)), SubtaskId(1, 0))
        assert record.busy_period == pytest.approx(8.0)
        assert record.instance_count == 2
        # C(1) = 1 + 6 = 7 -> R(1) = 7;  C(2) = 2 + 6 = 8 -> R(2) = 4.
        assert record.per_instance_bounds == pytest.approx((7.0, 4.0))
        assert record.bound == pytest.approx(7.0)
        assert record.critical_instance == 1

    def test_overloaded_processor_returns_none(self):
        t1 = Task(period=4.0, subtasks=(Subtask(3.0, "P1", priority=0),))
        t2 = Task(period=4.0, subtasks=(Subtask(2.0, "P1", priority=1),))
        record = analyze_subtask(System((t1, t2)), SubtaskId(1, 0))
        assert record.bound is None
        assert record.busy_period is None

    def test_utilization_exactly_one_returns_none(self):
        t1 = Task(period=4.0, subtasks=(Subtask(2.0, "P1", priority=0),))
        t2 = Task(period=4.0, subtasks=(Subtask(2.0, "P1", priority=1),))
        record = analyze_subtask(System((t1, t2)), SubtaskId(1, 0))
        assert record.bound is None

    def test_critical_instance_index(self):
        record = analyze_subtask(_rm_pair(), SubtaskId(1, 0))
        assert record.critical_instance == 1


class TestLehoczkyClassic:
    """Lehoczky's arbitrary-deadline example: (70, 26) over (100, 62).

    Utilization 0.9914; the level-2 busy period spans several T2
    instances and the worst response is NOT the first instance's.  The
    synchronous (phase-0) schedule is the analysis's critical instant,
    so the simulated maximum must match the analytic bound exactly.
    """

    def _system(self) -> System:
        t1 = Task(period=70.0, subtasks=(Subtask(26.0, "P", priority=0),))
        t2 = Task(period=100.0, subtasks=(Subtask(62.0, "P", priority=1),))
        return System((t1, t2))

    def test_busy_period_spans_multiple_instances(self):
        record = analyze_subtask(self._system(), SubtaskId(1, 0))
        assert record.instance_count >= 2
        assert record.bound is not None

    def test_worst_instance_is_not_the_first(self):
        record = analyze_subtask(self._system(), SubtaskId(1, 0))
        assert record.critical_instance != 1

    def test_analysis_matches_synchronous_simulation_exactly(self):
        from repro.api import run_protocol

        system = self._system()
        record = analyze_subtask(system, SubtaskId(1, 0))
        run = run_protocol(system, "DS", horizon=3000.0)
        observed = max(run.trace.subtask_response_times(SubtaskId(1, 0)))
        assert observed == pytest.approx(record.bound)

    def test_first_instance_value(self):
        # C(1) = 62 + 26*ceil(C/70): 88 -> 114 -> 114 (ceil(114/70)=2).
        record = analyze_subtask(self._system(), SubtaskId(1, 0))
        assert record.per_instance_bounds[0] == pytest.approx(114.0)


class TestJitteredAnalysis:
    def test_jitter_inflates_interference(self):
        system = _rm_pair()
        plain = analyze_subtask(system, SubtaskId(1, 0))
        jittered = analyze_subtask(
            system, SubtaskId(1, 0), {SubtaskId(0, 0): 2.0}
        )
        assert jittered.bound is not None and plain.bound is not None
        assert jittered.bound >= plain.bound

    def test_own_jitter_added_to_bound(self):
        system = _rm_pair()
        base = analyze_subtask(system, SubtaskId(0, 0))
        with_self_jitter = analyze_subtask(
            system, SubtaskId(0, 0), {SubtaskId(0, 0): 3.0}
        )
        assert with_self_jitter.bound == pytest.approx(base.bound + 3.0)

    def test_own_jitter_extends_instance_window(self):
        system = _rm_pair()
        record = analyze_subtask(
            system, SubtaskId(1, 0), {SubtaskId(1, 0): 9.0}
        )
        # M = ceil((D + 9) / 6) counts extra instances.
        plain = analyze_subtask(system, SubtaskId(1, 0))
        assert record.instance_count > plain.instance_count

    def test_negative_jitter_rejected(self):
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError):
            analyze_subtask(
                _rm_pair(), SubtaskId(1, 0), {SubtaskId(1, 0): -1.0}
            )

    def test_non_finite_relevant_jitter_rejected(self):
        from repro.errors import AnalysisError

        # An interferer's infinite jitter has no finite demand to solve;
        # a non-interferer's is ignored.
        with pytest.raises(AnalysisError, match="non-finite"):
            analyze_subtask(
                _rm_pair(), SubtaskId(1, 0), {SubtaskId(0, 0): math.inf}
            )
        record = analyze_subtask(
            _rm_pair(), SubtaskId(0, 0), {SubtaskId(1, 0): math.inf}
        )
        assert record.bound == analyze_subtask(_rm_pair(), SubtaskId(0, 0)).bound

    def test_abort_above_reports_aborted(self):
        # Force a tiny cutoff so the first instance already exceeds it.
        record = analyze_subtask(
            _rm_pair(), SubtaskId(1, 0), abort_above=1.0
        )
        assert record.aborted
        assert record.bound is None

    def test_abort_above_not_triggered_when_bound_small(self):
        record = analyze_subtask(
            _rm_pair(), SubtaskId(1, 0), abort_above=100.0
        )
        assert not record.aborted
        assert record.bound == pytest.approx(4.0)

    def test_monotone_in_jitter(self):
        system = _rm_pair()
        bounds = []
        for jitter in (0.0, 1.0, 2.5, 4.0, 8.0):
            record = analyze_subtask(
                system, SubtaskId(1, 0), {SubtaskId(0, 0): jitter}
            )
            assert record.bound is not None
            bounds.append(record.bound)
        assert bounds == sorted(bounds)

    def test_monotone_in_own_jitter(self):
        system = _rm_pair()
        bounds = []
        for jitter in (0.0, 2.0, 5.0, 11.0):
            record = analyze_subtask(
                system, SubtaskId(1, 0), {SubtaskId(1, 0): jitter}
            )
            assert record.bound is not None
            bounds.append(record.bound)
        assert bounds == sorted(bounds)
