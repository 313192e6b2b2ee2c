"""The :class:`System` container: tasks + processors + indexed lookups.

A system is the static description handed both to the schedulability
analyses (:mod:`repro.core.analysis`) and to the simulator
(:mod:`repro.sim`).  It owns no dynamic state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from repro.errors import ModelError
from repro.model.task import (
    CriticalSection,
    ProcessorId,
    Subtask,
    SubtaskId,
    Task,
)

__all__ = ["System"]


@dataclass(frozen=True)
class System:
    """An immutable distributed real-time system description.

    Parameters
    ----------
    tasks:
        The independent periodic end-to-end tasks.  Order is significant:
        task ``i`` in this tuple is the paper's ``T_{i+1}``.
    name:
        Optional label used in reports.

    The processor set is inferred from the subtasks.  All lookup tables are
    computed lazily and cached; the object itself stays hashable by
    identity of its task tuple.
    """

    tasks: tuple[Task, ...]
    name: str = "system"

    def __post_init__(self) -> None:
        if not isinstance(self.tasks, tuple):
            object.__setattr__(self, "tasks", tuple(self.tasks))
        if len(self.tasks) == 0:
            raise ModelError("a system must contain at least one task")
        for task in self.tasks:
            if not isinstance(task, Task):
                raise ModelError(f"system tasks must be Task instances, got {task!r}")

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------
    @cached_property
    def processors(self) -> tuple[ProcessorId, ...]:
        """All processors referenced by any subtask, sorted by id."""
        seen: set[ProcessorId] = set()
        for task in self.tasks:
            for stage in task.subtasks:
                seen.add(stage.processor)
        return tuple(sorted(seen))

    @cached_property
    def subtask_ids(self) -> tuple[SubtaskId, ...]:
        """All subtask ids, ordered by (task index, subtask index)."""
        return tuple(
            SubtaskId(i, j)
            for i, task in enumerate(self.tasks)
            for j in range(task.chain_length)
        )

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks)

    @property
    def subtask_count(self) -> int:
        """Total number of subtasks across all tasks."""
        return sum(task.chain_length for task in self.tasks)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def task_of(self, sid: SubtaskId) -> Task:
        """The parent task of a subtask id."""
        self._check(sid)
        return self.tasks[sid.task_index]

    def subtask(self, sid: SubtaskId) -> Subtask:
        """The subtask addressed by ``sid``."""
        self._check(sid)
        return self.tasks[sid.task_index].subtasks[sid.subtask_index]

    def period_of(self, sid: SubtaskId) -> float:
        """The period of a subtask -- by definition its parent's period."""
        return self.task_of(sid).period

    def is_last(self, sid: SubtaskId) -> bool:
        """True if ``sid`` is the last subtask on its task's chain."""
        return sid.subtask_index == self.task_of(sid).chain_length - 1

    def successor_of(self, sid: SubtaskId) -> SubtaskId | None:
        """The next sibling on the chain, or None at the chain's end."""
        if self.is_last(sid):
            return None
        return sid.successor

    def _check(self, sid: SubtaskId) -> None:
        if sid.task_index >= len(self.tasks):
            raise ModelError(f"no task with index {sid.task_index} in system")
        if sid.subtask_index >= self.tasks[sid.task_index].chain_length:
            raise ModelError(
                f"task {sid.task_index} has no subtask index {sid.subtask_index}"
            )

    @cached_property
    def _by_processor(self) -> Mapping[ProcessorId, tuple[SubtaskId, ...]]:
        table: dict[ProcessorId, list[SubtaskId]] = {p: [] for p in self.processors}
        for sid in self.subtask_ids:
            table[self.subtask(sid).processor].append(sid)
        return {p: tuple(ids) for p, ids in table.items()}

    def subtasks_on(self, processor: ProcessorId) -> tuple[SubtaskId, ...]:
        """Subtask ids bound to ``processor`` (task order)."""
        try:
            return self._by_processor[processor]
        except KeyError:
            raise ModelError(f"unknown processor {processor!r}") from None

    def interference_set(self, sid: SubtaskId) -> tuple[SubtaskId, ...]:
        """The paper's ``H_i,j``: subtasks, other than ``sid`` itself, on
        the same processor with priority higher than or equal to ``sid``'s.

        Sibling subtasks of ``sid`` placed on the same processor are
        included when their priority qualifies, exactly as in the paper's
        definition (the generated workloads never co-locate *consecutive*
        siblings, but the model allows arbitrary placements).
        """
        ids = self.subtask_ids
        return tuple(
            ids[k] for k in self.interference_index[self.position_of(sid)]
        )

    @cached_property
    def _positions(self) -> Mapping[SubtaskId, int]:
        return {sid: k for k, sid in enumerate(self.subtask_ids)}

    def position_of(self, sid: SubtaskId) -> int:
        """Index of ``sid`` in :attr:`subtask_ids`."""
        self._check(sid)
        return self._positions[sid]

    @cached_property
    def interference_index(self) -> tuple[tuple[int, ...], ...]:
        """Every subtask's :meth:`interference_set`, as positions in
        :attr:`subtask_ids` (processor task order), by position."""
        stages = [
            self.tasks[sid.task_index].subtasks[sid.subtask_index]
            for sid in self.subtask_ids
        ]
        on: dict[ProcessorId, list[int]] = {}
        for k, stage in enumerate(stages):
            on.setdefault(stage.processor, []).append(k)
        return tuple(
            tuple(
                other
                for other in on[stage.processor]
                if other != k and stages[other].priority <= stage.priority
            )
            for k, stage in enumerate(stages)
        )

    # ------------------------------------------------------------------
    # Shared resources
    # ------------------------------------------------------------------
    @cached_property
    def has_critical_sections(self) -> bool:
        """True when any subtask declares a critical section.

        The simulator's lock machinery and the blocking-aware analyses
        gate on this: a system without critical sections takes the bare
        (lock-free) paths byte-identically.
        """
        return any(
            stage.critical_sections
            for task in self.tasks
            for stage in task.subtasks
        )

    @cached_property
    def resources(self) -> tuple[str, ...]:
        """All shared-resource names referenced by any section, sorted."""
        seen: set[str] = set()
        for task in self.tasks:
            for stage in task.subtasks:
                for section in stage.critical_sections:
                    seen.add(section.resource)
        return tuple(sorted(seen))

    @cached_property
    def _resource_accessors(self) -> Mapping[str, tuple[SubtaskId, ...]]:
        table: dict[str, list[SubtaskId]] = {r: [] for r in self.resources}
        for sid in self.subtask_ids:
            for section in self.subtask(sid).critical_sections:
                if sid not in table[section.resource]:
                    table[section.resource].append(sid)
        return {r: tuple(ids) for r, ids in table.items()}

    def accessors_of(self, resource: str) -> tuple[SubtaskId, ...]:
        """Subtask ids with at least one section on ``resource``."""
        try:
            return self._resource_accessors[resource]
        except KeyError:
            raise ModelError(f"unknown resource {resource!r}") from None

    def sections_of(self, sid: SubtaskId) -> tuple[CriticalSection, ...]:
        """The critical sections of one subtask, sorted by start offset."""
        return self.subtask(sid).critical_sections

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def processor_utilization(self, processor: ProcessorId) -> float:
        """Total utilization ``sum e_i,j / p_i`` of subtasks on a processor."""
        return sum(
            self.subtask(sid).execution_time / self.period_of(sid)
            for sid in self.subtasks_on(processor)
        )

    def utilizations(self) -> dict[ProcessorId, float]:
        """Utilization of every processor, keyed by processor id."""
        return {p: self.processor_utilization(p) for p in self.processors}

    @property
    def max_utilization(self) -> float:
        """The highest per-processor utilization in the system."""
        return max(self.utilizations().values())

    @property
    def hyperperiod_hint(self) -> float:
        """A horizon hint: max phase plus the largest period.

        True hyperperiods of real-valued periods are unbounded; simulation
        horizons are therefore chosen as multiples of this hint.
        """
        return max(t.phase for t in self.tasks) + max(t.period for t in self.tasks)

    # ------------------------------------------------------------------
    # Display helpers
    # ------------------------------------------------------------------
    def display_name(self, sid: SubtaskId) -> str:
        """The subtask's own name if set, else the positional ``Ti,j``."""
        sub = self.subtask(sid)
        return sub.name or str(sid)

    def describe(self) -> str:
        """A multi-line human-readable summary of the system."""
        lines = [f"System {self.name!r}: {len(self.tasks)} tasks, "
                 f"{len(self.processors)} processors"]
        for i, task in enumerate(self.tasks):
            label = task.name or f"T{i + 1}"
            lines.append(
                f"  {label}: period={task.period:g} phase={task.phase:g} "
                f"deadline={task.relative_deadline:g}"
            )
            for j, stage in enumerate(task.subtasks):
                lines.append(
                    f"    {self.display_name(SubtaskId(i, j))}: "
                    f"e={stage.execution_time:g} on {stage.processor} "
                    f"prio={stage.priority}"
                )
        for proc in self.processors:
            lines.append(
                f"  {proc}: U={self.processor_utilization(proc):.3f} "
                f"({len(self.subtasks_on(proc))} subtasks)"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Functional updates
    # ------------------------------------------------------------------
    def with_priorities(
        self, priorities: Mapping[SubtaskId, int]
    ) -> "System":
        """Return a copy with subtask priorities replaced.

        ``priorities`` must cover every subtask in the system.
        """
        missing = [sid for sid in self.subtask_ids if sid not in priorities]
        if missing:
            raise ModelError(
                f"priorities missing for {len(missing)} subtasks, "
                f"first: {missing[0]}"
            )
        new_tasks = []
        for i, task in enumerate(self.tasks):
            new_chain = tuple(
                stage.with_priority(priorities[SubtaskId(i, j)])
                for j, stage in enumerate(task.subtasks)
            )
            new_tasks.append(task.with_subtasks(new_chain))
        return System(tuple(new_tasks), name=self.name)

    def with_phases(self, phases: Sequence[float]) -> "System":
        """Return a copy with task phases replaced (one per task)."""
        if len(phases) != len(self.tasks):
            raise ModelError(
                f"expected {len(self.tasks)} phases, got {len(phases)}"
            )
        return System(
            tuple(t.with_phase(f) for t, f in zip(self.tasks, phases)),
            name=self.name,
        )

    def with_tasks(self, tasks: Iterable[Task]) -> "System":
        """Return a copy with the task tuple replaced."""
        return System(tuple(tasks), name=self.name)
