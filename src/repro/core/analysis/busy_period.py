"""Busy-period analysis: the computational core of SA/PM and SA/DS.

This implements the five-step scheme of Section 4 in a form general
enough to serve both algorithms.  For one subtask ``T_i,j`` with
interference set ``H_i,j`` (same processor, priority higher or equal),
given a *release-jitter* value ``J_u,v`` for every subtask:

1. busy-period length
   ``D_i,j = lfp { t = sum_{H ∪ {self}} ceil((t + J_u,v)/p_u) e_u,v }``
2. instance count ``M_i,j = ceil((D_i,j + J_i,j)/p_i)``
3. per-instance completion
   ``C_i,j(m) = lfp { t = m e_i,j + sum_H ceil((t + J_u,v)/p_u) e_u,v }``
4. per-instance bound ``R_i,j(m) = C_i,j(m) + J_i,j - (m-1) p_i``
5. subtask bound ``R_i,j = max_m R_i,j(m)``

With ``J == 0`` this is exactly Algorithm SA/PM's steps 1-4 (Lehoczky's
analysis for strictly periodic subtasks, Eqs. 1-5); with
``J_u,v = R_u,v-1`` (the predecessor's IEER bound) it is the body of
Algorithm IEERT, where the clumping of DS releases is modelled as release
jitter and the result is an IEER bound rather than a response-time bound.

Every analysis runs these steps on a :class:`CompiledSystem`: the system
flattened once per analysis call into per-subtask lists indexed by
position (predecessor, interferer positions, execution times and periods
already in the timebase), so repeated solves -- all subtasks, pass after
pass -- pay no lookups, hashing or conversions.  Under the exact
timebase every value is scaled once per call to an integer lattice (the
LCM of all denominators in play), so the fixed points run on machine
integers and bounds stay on that lattice.

Divergence handling: when the interference utilization is >= 1 the busy
period has no finite bound and the subtask's bound is reported as
``None`` (infinite).  Otherwise every least fixed point is finite and the
iteration is run with an analytic cap as a safety net.  ``abort_above``
lets SA/DS cut the ``m`` loop as soon as some instance provably exceeds
the paper's 300-period failure cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from repro.core.analysis.fixpoint import DEFAULT_MAX_ITERATIONS
from repro.errors import AnalysisError
from repro.model.system import System
from repro.model.task import SubtaskId
from repro.timebase import ABS_EPS, FLOAT, REL_EPS, Timebase, fmt

__all__ = [
    "CompiledSystem",
    "SubtaskBusyPeriod",
    "analyze_subtask",
    "interference_terms",
]

#: Interference term: (execution time, period, subtask id).
Term = tuple[float, float, SubtaskId]

#: A solve's outcome in kernel units:
#: ``(busy_period, instance_count, per_instance_bounds, bound, aborted)``.
Solved = tuple

_DIVERGED: Solved = (None, 0, (), None, False)


@dataclass(frozen=True)
class SubtaskBusyPeriod:
    """Full per-subtask analysis record (Steps 1-5 for one subtask).

    ``bound`` is ``None`` when the analysis diverged (utilization >= 1) or
    was aborted via ``abort_above`` -- in both cases the caller treats the
    bound as infinite.
    """

    sid: SubtaskId
    busy_period: float | None
    instance_count: int
    per_instance_bounds: tuple[float, ...]
    bound: float | None
    aborted: bool = False

    @property
    def critical_instance(self) -> int | None:
        """1-based index of the instance attaining the bound, if finite."""
        if self.bound is None or not self.per_instance_bounds:
            return None
        worst = max(self.per_instance_bounds)
        return self.per_instance_bounds.index(worst) + 1


def interference_terms(system: System, sid: SubtaskId) -> list[Term]:
    """The ``H_i,j`` terms (e, p, id) interfering with ``sid``."""
    return [
        (
            system.subtask(other).execution_time,
            system.period_of(other),
            other,
        )
        for other in system.interference_set(sid)
    ]


def _lfp_float(acc, packed, tail, start, cap):
    """Least fixed point of ``t = (acc + sum ceil((t + j)/p) e) + tail``
    at or above ``start`` on the float timebase; ``None`` above ``cap``.

    The sum runs left to right in ``packed`` order and ceilings forgive
    ``REL_EPS`` of upward noise, so every iterate is the same double the
    historical demand closures produced.
    """
    if start <= 0:
        raise AnalysisError(f"fixed-point start must be > 0, got {start!r}")
    ceil, eps = math.ceil, REL_EPS
    current = start
    for _ in range(DEFAULT_MAX_ITERATIONS):
        if current > cap:
            return None
        total = acc
        for e, p, j in packed:
            total += ceil((current + j) / p - eps) * e
        nxt = total + tail
        tolerance = eps * (current if current > 1.0 else 1.0)
        if nxt < current - tolerance:
            raise AnalysisError(
                "demand function is not monotone: "
                f"W({current:g}) = {nxt:g} < {current:g}"
            )
        if nxt - current <= tolerance:
            return nxt
        current = nxt
    raise AnalysisError(
        f"fixed-point iteration did not settle within {DEFAULT_MAX_ITERATIONS} "
        f"steps (last iterate {fmt(current)}, cap {fmt(cap)})"
    )


def _lfp_exact(acc, packed, tail, start, cap):
    """:func:`_lfp_float` on the integer lattice: exact ceilings
    (``-(-a // b)``) and convergence on ``W(t) == t``."""
    if start <= 0:
        raise AnalysisError(f"fixed-point start must be > 0, got {start!r}")
    base = acc + tail
    current = start
    for _ in range(DEFAULT_MAX_ITERATIONS):
        if current > cap:
            return None
        nxt = base
        for e, p, j in packed:
            nxt -= (-(current + j) // p) * e
        if nxt < current:
            raise AnalysisError(
                "demand function is not monotone: "
                f"W({fmt(current)}) = {fmt(nxt)} < {fmt(current)}"
            )
        if nxt == current:
            return nxt
        current = nxt
    raise AnalysisError(
        f"fixed-point iteration did not settle within {DEFAULT_MAX_ITERATIONS} "
        f"steps (last iterate {fmt(current)}, cap {fmt(cap)})"
    )


class CompiledSystem:
    """A system flattened for the busy-period kernel under one timebase.

    Subtasks are addressed by their position in ``system.subtask_ids``.
    Values handed to :meth:`solve` are in *kernel units*: floats on the
    float timebase; on the exact timebase, integers on a lattice of step
    ``1/scale``, where ``scale`` is the LCM of the denominators of every
    execution time and period plus the extra ``values`` given at compile
    time (blocking terms, jitters).  :meth:`to_kernel` and
    :meth:`from_kernel` convert; infinities pass through both.

    Per-subtask constants (utilizations, execution sums, the exact caps'
    common period multiple) are derived on a subtask's first solve and
    reused by every later one.
    """

    def __init__(
        self,
        system: System,
        timebase: Timebase = FLOAT,
        values: Iterable[float] = (),
    ) -> None:
        self.system = system
        self.timebase = timebase
        self.exact = timebase.exact
        self.sids = system.subtask_ids
        self.interferers = system.interference_index
        convert = timebase.convert
        execution: list = []
        period: list = []
        predecessor: list[int] = []
        last: list[int] = []
        for task in system.tasks:
            task_period = convert(task.period)
            for j, stage in enumerate(task.subtasks):
                predecessor.append(len(execution) - 1 if j else -1)
                execution.append(convert(stage.execution_time))
                period.append(task_period)
            last.append(len(execution) - 1)
        self.predecessor = predecessor
        self.last = last
        self.scale = 1
        if self.exact:
            extra = [convert(v) for v in values]
            self.scale = lattice_scale(execution + period + extra)
            execution = [self._up(v) for v in execution]
            period = [self._up(v) for v in period]
        self.execution = execution
        self.period = period
        self._constants: list = [None] * len(execution)

    # ------------------------------------------------------------------
    # Units
    # ------------------------------------------------------------------
    def _up(self, value):
        if isinstance(value, Fraction):
            step, off_lattice = divmod(self.scale, value.denominator)
            if off_lattice:
                raise AnalysisError(
                    f"{value} is not on the compiled lattice 1/{self.scale}"
                )
            return value.numerator * step
        return value * self.scale

    def to_kernel(self, value):
        """A timebase value in kernel units (must lie on the lattice)."""
        if not self.exact:
            return float(value)
        value = self.timebase.convert(value)
        if value == math.inf:
            return value
        return self._up(value)

    def from_kernel(self, value):
        """A kernel-unit value back in the timebase's representation."""
        if not self.exact or self.scale == 1 or value == math.inf:
            return value
        return self.timebase.convert(Fraction(value, self.scale))

    def threshold(self, value):
        """A cutoff in kernel units, for ``x > threshold`` tests.

        Exact: the floor of the scaled rational, which decides ``x >
        value`` identically for every lattice point ``x``.
        """
        if not self.exact:
            return float(value)
        value = self.timebase.convert(value)
        if value == math.inf:
            return value
        return math.floor(value * self.scale)

    def including(self, values: Iterable[float]) -> "CompiledSystem":
        """This compiled system if every finite value of ``values`` lies
        on its lattice, else one recompiled on a lattice covering them."""
        if not self.exact:
            return self
        values = [self.timebase.convert(v) for v in values]
        if all(
            not isinstance(v, Fraction) or self.scale % v.denominator == 0
            for v in values
        ):
            return self
        return CompiledSystem(self.system, self.timebase, values)

    # ------------------------------------------------------------------
    # Steps 1-5
    # ------------------------------------------------------------------
    def _subtask_constants(self, i: int) -> tuple:
        execution, period = self.execution, self.period
        own_e, own_p = execution[i], period[i]
        inter = self.interferers[i]
        if self.exact:
            # Utilizations and caps over one common period multiple L:
            # e/p = w/L with integer weights w = e * (L / p).
            common = math.lcm(own_p, *(period[u] for u in inter))
            weights = tuple(execution[u] * (common // period[u]) for u in inter)
            own_weight = own_e * (common // own_p)
            interference = sum(weights)
            level = interference + own_weight
            diverged = level >= common
            esum = sum(execution[u] for u in inter) + own_e
            return (diverged, esum, common, weights, own_weight, level, interference)
        # The same sum() calls over the same sequences as the float
        # demand's historical form, so every constant is the same double.
        everything = (*inter, i)
        level = sum(execution[u] / period[u] for u in everything)
        interference = sum(execution[u] / period[u] for u in inter)
        esum = sum(execution[u] for u in everything)
        diverged = level >= 1.0 - ABS_EPS
        return (diverged, esum, 1 - level, 1 - interference)

    def solve(
        self,
        i: int,
        jitter: Sequence[float] | Mapping[int, float],
        own_jitter: float,
        blocking: float,
        abort_above: float | None,
    ) -> Solved:
        """Steps 1-5 for the subtask at position ``i``, in kernel units.

        ``jitter[u]`` is the release jitter charged to interferer ``u``;
        ``own_jitter`` is the subtask's own; ``abort_above`` is a
        :meth:`threshold` or ``None``.  All must be finite.
        """
        if own_jitter < 0:
            raise AnalysisError(
                f"negative jitter for {self.sids[i]}: "
                f"{fmt(self.from_kernel(own_jitter))}"
            )
        if blocking < 0:
            raise AnalysisError(
                f"negative blocking for {self.sids[i]}: "
                f"{fmt(self.from_kernel(blocking))}"
            )
        constants = self._constants[i]
        if constants is None:
            constants = self._constants[i] = self._subtask_constants(i)
        if constants[0]:
            return _DIVERGED
        execution, period = self.execution, self.period
        e_self, p_self = execution[i], period[i]
        terms = [(execution[u], period[u], jitter[u]) for u in self.interferers[i]]
        everything = terms + [(e_self, p_self, own_jitter)]
        exact = self.exact

        # Analytic caps: a demand W(t) = base + sum ceil((t + J)/p) e obeys
        # W(t) <= base + U' t + sum (J/p + 1) e with U' the terms'
        # utilization, so its least fixed point is at most
        # (base + sum (J/p + 1) e)/(1 - U').  Doubling gives a safety net
        # that a correct iteration can never hit.
        if exact:
            _d, esum, common, weights, own_weight, level, interference = constants
            load = sum((j + p) * w for (_e, p, j), w in zip(terms, weights))
            load_all = load + (own_jitter + p_self) * own_weight
            cap = p_self + 2 * (load_all + blocking * common) // (common - level)
            lfp, zero = _lfp_exact, 0
        else:
            _d, esum, slack, interference_slack = constants
            load = sum((j / p + 1) * e for e, p, j in terms)
            load_all = sum((j / p + 1) * e for e, p, j in everything)
            cap = 2 * ((load_all + blocking) / slack) + p_self
            lfp, zero = _lfp_float, 0.0

        # Step 1: busy-period length D_i,j (self term included).
        busy = lfp(blocking, everything, zero, esum + blocking, cap)
        if busy is None:  # pragma: no cover - cap is analytic, see above
            return _DIVERGED

        # Step 2: number of instances in the busy period.
        if exact:
            count = max(1, -(-(busy + own_jitter) // p_self))
        else:
            count = max(1, math.ceil((busy + own_jitter) / p_self - REL_EPS))

        # Steps 3-5: completion bound per instance, IEER bound, max.
        per_instance: list = []
        previous = zero
        for m in range(1, count + 1):
            base = m * e_self + blocking
            if exact:
                cap = p_self + 2 * (base * common + load) // (common - interference)
            else:
                cap = 2 * ((base + load) / interference_slack) + p_self
            completion = lfp(zero, terms, base, max(base, previous + e_self), cap)
            if completion is None:  # pragma: no cover - analytic cap
                return (busy, count, tuple(per_instance), None, False)
            previous = completion
            instance_bound = completion + own_jitter - (m - 1) * p_self
            per_instance.append(instance_bound)
            if abort_above is not None and instance_bound > abort_above:
                return (busy, count, tuple(per_instance), None, True)
        return (busy, count, tuple(per_instance), max(per_instance), False)

    def record(self, i: int, solved: Solved) -> SubtaskBusyPeriod:
        """A solve's outcome as a timebase-valued record."""
        busy, count, per_instance, bound, aborted = solved
        out = self.from_kernel
        return SubtaskBusyPeriod(
            sid=self.sids[i],
            busy_period=None if busy is None else out(busy),
            instance_count=count,
            per_instance_bounds=tuple(out(v) for v in per_instance),
            bound=None if bound is None else out(bound),
            aborted=aborted,
        )


def lattice_scale(values: Iterable) -> int:
    """LCM of the denominators of the finite rationals in ``values``.

    Converted floats are dyadic rationals (``n / 2**k``), so on ordinary
    inputs the LCM is just the largest denominator.
    """
    scale = 1
    for value in values:
        if isinstance(value, Fraction):
            scale = math.lcm(scale, value.denominator)
    return scale


def _finite(name: str, sid: SubtaskId, value: float) -> None:
    if isinstance(value, float) and not math.isfinite(value):
        raise AnalysisError(f"non-finite {name} for {sid}: {value!r}")


def analyze_subtask(
    system: System,
    sid: SubtaskId,
    jitter: Mapping[SubtaskId, float] | None = None,
    *,
    abort_above: float | None = None,
    blocking: float = 0.0,
    timebase: Timebase = FLOAT,
) -> SubtaskBusyPeriod:
    """Run Steps 1-5 for one subtask under the given jitter assignment.

    Parameters
    ----------
    jitter:
        Release jitter ``J_u,v`` per subtask; missing entries are 0.
        ``None`` means the SA/PM case (all zero).  The subtask's own
        entry and its interferers' must be finite.
    abort_above:
        When given, the per-instance loop stops as soon as some
        ``R_i,j(m)`` exceeds this value, reporting the bound as infinite
        (``None`` with ``aborted=True``).  SA/DS uses the paper's
        300-period failure cutoff here to keep diverging analyses cheap.
    blocking:
        A constant blocking term ``B_i,j`` added to every demand
        equation -- the standard way to account for non-preemptive
        sections or dedicated communication resources (the paper's
        Section 2 suggests modelling dedicated links "as blocking times
        of the sending subtasks", and Section 6 lists resource
        contention as the open extension).  Under priority-ceiling-style
        resource protocols one lower-priority critical section can block
        each busy period.
    timebase:
        Arithmetic backend: the default float backend reproduces the
        historical tolerant iteration; the exact backend converts every
        parameter to scaled-integer/rational form and solves the fixed
        points with exact ceilings and ``==`` convergence.
    """
    jitter = jitter or {}
    i = system.position_of(sid)
    ids = system.subtask_ids
    relevant = {ids[u]: jitter.get(ids[u], 0) for u in system.interference_index[i]}
    relevant[sid] = jitter.get(sid, 0)
    for other, value in relevant.items():
        _finite("jitter", other, value)
    _finite("blocking", sid, blocking)
    kernel = CompiledSystem(system, timebase, [blocking, *relevant.values()])
    vector = {
        system.position_of(other): kernel.to_kernel(value)
        for other, value in relevant.items()
    }
    solved = kernel.solve(
        i,
        vector,
        vector[i],
        kernel.to_kernel(blocking),
        None if abort_above is None else kernel.threshold(abort_above),
    )
    return kernel.record(i, solved)
