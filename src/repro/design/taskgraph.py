"""Task-graph scheduling and lifetime analysis for conflict derivation.

The paper assumes an upstream synthesis flow: "During synthesis of a
design, scheduling determines the life times of the variables and data
structures" (Section 3.3).  The mapper itself only consumes the resulting
conflict pairs.  This module implements that small upstream substrate so
that realistic inputs can be produced end-to-end:

* a :class:`TaskGraph` of operations with data-structure *defs* and *uses*
  and precedence edges,
* ASAP / resource-constrained list scheduling assigning a control step to
  every task, and
* lifetime computation per data structure (first def to last use), from
  which a :class:`~repro.design.conflicts.ConflictSet` is derived.

The graph is kept as insertion-ordered predecessor/successor maps; the
topological order is a generation-by-generation Kahn walk, so ties
between ready tasks always break by the order the tasks were added.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .conflicts import ConflictSet
from .datastruct import DataStructure, DesignError
from .design import Design

__all__ = ["Task", "TaskGraph", "Schedule"]


@dataclass(frozen=True)
class Task:
    """One schedulable operation of the application.

    ``reads``/``writes`` name the data structures the task accesses;
    ``latency`` is its duration in control steps (≥ 1).
    """

    name: str
    reads: Tuple[str, ...] = ()
    writes: Tuple[str, ...] = ()
    latency: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise DesignError("task requires a non-empty name")
        if self.latency <= 0:
            raise DesignError(f"task {self.name!r}: latency must be positive")
        object.__setattr__(self, "reads", tuple(self.reads))
        object.__setattr__(self, "writes", tuple(self.writes))

    @property
    def touched(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(self.reads + self.writes))


@dataclass
class Schedule:
    """Result of scheduling: start step per task and lifetime per structure."""

    start_times: Dict[str, int]
    finish_times: Dict[str, int]
    lifetimes: Dict[str, Tuple[int, int]]
    makespan: int

    def lifetime_of(self, name: str) -> Tuple[int, int]:
        try:
            return self.lifetimes[name]
        except KeyError:
            raise DesignError(f"no lifetime recorded for data structure {name!r}")


class TaskGraph:
    """A DAG of tasks with data-structure accesses."""

    def __init__(self, name: str = "taskgraph") -> None:
        self.name = name
        self._tasks: Dict[str, Task] = {}
        # Adjacency as insertion-ordered dicts used as ordered sets.
        self._preds: Dict[str, Dict[str, None]] = {}
        self._succs: Dict[str, Dict[str, None]] = {}

    # ------------------------------------------------------------ building
    def add_task(self, task: Task, depends_on: Iterable[str] = ()) -> Task:
        """Add a task and its dependency edges (dependencies must exist)."""
        if task.name in self._tasks:
            raise DesignError(f"duplicate task name {task.name!r}")
        depends_on = list(depends_on)
        for dep in depends_on:
            # Edges only come from tasks that already exist, so the one
            # cycle an add can create is a task depending on itself.
            if dep == task.name:
                raise DesignError(f"adding task {task.name!r} would create a cycle")
            if dep not in self._tasks:
                raise DesignError(f"task {task.name!r} depends on unknown task {dep!r}")
        self._tasks[task.name] = task
        self._preds[task.name] = dict.fromkeys(depends_on)
        self._succs[task.name] = {}
        for dep in depends_on:
            self._succs[dep][task.name] = None
        return task

    def add_chain(self, tasks: Sequence[Task]) -> List[Task]:
        """Add a linear chain of tasks, each depending on the previous one."""
        added = []
        previous: Optional[Task] = None
        for task in tasks:
            deps = [previous.name] if previous is not None else []
            added.append(self.add_task(task, depends_on=deps))
            previous = task
        return added

    # ------------------------------------------------------------- queries
    @property
    def tasks(self) -> Tuple[Task, ...]:
        return tuple(self._tasks[name] for name in self._tasks)

    @property
    def num_tasks(self) -> int:
        return len(self._tasks)

    def task(self, name: str) -> Task:
        try:
            return self._tasks[name]
        except KeyError:
            raise DesignError(f"no task named {name!r} in task graph {self.name!r}")

    def predecessors(self, name: str) -> List[str]:
        return list(self._preds[name])

    def successors(self, name: str) -> List[str]:
        return list(self._succs[name])

    def _topological_order(self) -> List[str]:
        """Kahn's walk one generation at a time, in task-insertion order."""
        in_degree = {name: len(preds) for name, preds in self._preds.items()}
        generation = [name for name, degree in in_degree.items() if degree == 0]
        order: List[str] = []
        while generation:
            order.extend(generation)
            following = []
            for name in generation:
                for succ in self._succs[name]:
                    in_degree[succ] -= 1
                    if in_degree[succ] == 0:
                        following.append(succ)
            generation = following
        return order

    def touched_structures(self) -> Set[str]:
        """Names of every data structure read or written by some task."""
        names: Set[str] = set()
        for task in self._tasks.values():
            names.update(task.touched)
        return names

    # ----------------------------------------------------------- scheduling
    def schedule_asap(self) -> Schedule:
        """As-soon-as-possible schedule (unlimited functional units)."""
        return self._schedule(resource_limit=None)

    def schedule_list(self, resource_limit: int) -> Schedule:
        """Resource-constrained list schedule with ``resource_limit`` units.

        Priority is the task's critical-path length (longest latency path to
        a sink), the standard list-scheduling heuristic.
        """
        if resource_limit <= 0:
            raise DesignError("resource_limit must be positive")
        return self._schedule(resource_limit=resource_limit)

    def _critical_path_priority(self) -> Dict[str, int]:
        priority: Dict[str, int] = {}
        for node in reversed(self._topological_order()):
            task = self._tasks[node]
            succ = [priority[s] for s in self._succs[node]]
            priority[node] = task.latency + (max(succ) if succ else 0)
        return priority

    def _schedule(self, resource_limit: Optional[int]) -> Schedule:
        if not self._tasks:
            raise DesignError(f"task graph {self.name!r} has no tasks to schedule")
        order = self._topological_order()
        priority = self._critical_path_priority()

        start: Dict[str, int] = {}
        finish: Dict[str, int] = {}
        if resource_limit is None:
            for node in order:
                earliest = max(
                    (finish[p] for p in self._preds[node]), default=0
                )
                start[node] = earliest
                finish[node] = earliest + self._tasks[node].latency
        else:
            # Cycle-by-cycle list scheduling.
            ready: List[str] = []
            unscheduled = set(order)
            running: List[Tuple[int, str]] = []  # (finish time, task)
            time = 0
            in_degree = {n: len(self._preds[n]) for n in order}
            ready = [n for n in order if in_degree[n] == 0]
            while unscheduled:
                # Retire finished tasks and release their successors.
                for finish_time, node in list(running):
                    if finish_time <= time:
                        running.remove((finish_time, node))
                        for succ in self._succs[node]:
                            in_degree[succ] -= 1
                            if in_degree[succ] == 0:
                                ready.append(succ)
                ready.sort(key=lambda n: -priority[n])
                free = resource_limit - len(running)
                issued = 0
                for node in list(ready):
                    if issued >= free:
                        break
                    ready.remove(node)
                    unscheduled.discard(node)
                    start[node] = time
                    finish[node] = time + self._tasks[node].latency
                    running.append((finish[node], node))
                    issued += 1
                time += 1
                if time > 10 * sum(t.latency for t in self._tasks.values()) + 10:
                    raise DesignError(
                        "list scheduling failed to converge (is the graph well-formed?)"
                    )

        makespan = max(finish.values())
        lifetimes = self._lifetimes(start, finish)
        return Schedule(start_times=start, finish_times=finish,
                        lifetimes=lifetimes, makespan=makespan)

    def _lifetimes(
        self, start: Mapping[str, int], finish: Mapping[str, int]
    ) -> Dict[str, Tuple[int, int]]:
        """Lifetime of a structure: first write (or first access) to last access."""
        lifetimes: Dict[str, Tuple[int, int]] = {}
        for task in self._tasks.values():
            s, f = start[task.name], finish[task.name]
            for name in task.touched:
                if name in lifetimes:
                    lo, hi = lifetimes[name]
                    lifetimes[name] = (min(lo, s), max(hi, f))
                else:
                    lifetimes[name] = (s, f)
        return lifetimes

    # ------------------------------------------------- design construction
    def to_design(
        self,
        name: str,
        structures: Iterable[DataStructure],
        resource_limit: Optional[int] = None,
    ) -> Design:
        """Build a :class:`Design` with lifetimes and conflicts from scheduling.

        ``structures`` must cover every data structure touched by the task
        graph; structures never touched keep no lifetime (and therefore
        conservatively conflict with everything).
        """
        structures = list(structures)
        by_name = {ds.name: ds for ds in structures}
        missing = self.touched_structures() - set(by_name)
        if missing:
            raise DesignError(
                f"task graph touches unknown data structures: {sorted(missing)}"
            )
        schedule = (
            self.schedule_asap()
            if resource_limit is None
            else self.schedule_list(resource_limit)
        )
        annotated = []
        access_counts: Dict[str, List[int]] = {ds.name: [0, 0] for ds in structures}
        for task in self._tasks.values():
            for read in task.reads:
                access_counts[read][0] += by_name[read].depth
            for write in task.writes:
                access_counts[write][1] += by_name[write].depth
        for ds in structures:
            reads, writes = access_counts[ds.name]
            base = DataStructure(
                name=ds.name,
                depth=ds.depth,
                width=ds.width,
                reads=reads or ds.reads,
                writes=writes or ds.writes,
            )
            if ds.name in schedule.lifetimes:
                lo, hi = schedule.lifetimes[ds.name]
                base = base.with_lifetime(lo, hi)
            annotated.append(base)
        conflicts = ConflictSet.from_lifetimes(annotated)
        return Design(name=name, data_structures=tuple(annotated), conflicts=conflicts)
