"""Task-graph orders and schedules agree with networkx (reference only).

The task graph keeps its own insertion-ordered adjacency and Kahn walk;
networkx's ``topological_sort`` walks generations in node-insertion order
too, and the list scheduler breaks ties by that order.  These tests pin
the two together on every shipped workload, on seeded ``dag-schedule``
generator graphs and on seeded random DAGs.
"""

from __future__ import annotations

import random

import pytest

from repro.design import Task, TaskGraph
from repro.design.dagsched import DagScheduleGenerator
from repro.design.workloads import all_example_designs

nx = pytest.importorskip("networkx")


def to_networkx(graph: TaskGraph):
    """The DiGraph built the way ``add_task`` adds nodes and edges."""
    reference = nx.DiGraph()
    for task in graph.tasks:
        reference.add_node(task.name)
        for dep in graph.predecessors(task.name):
            reference.add_edge(dep, task.name)
    return reference


def captured_graphs(monkeypatch, build):
    """Every TaskGraph that ``build()`` turns into a design."""
    graphs = []
    original = TaskGraph.to_design

    def capture(self, *args, **kwargs):
        graphs.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(TaskGraph, "to_design", capture)
    build()
    monkeypatch.setattr(TaskGraph, "to_design", original)
    return graphs


def random_dag(seed: int, size: int = 24) -> TaskGraph:
    rng = random.Random(seed)
    graph = TaskGraph(f"random-{seed}")
    names = []
    for index in range(size):
        picks = rng.sample(names, k=min(len(names), rng.randint(0, 3)))
        graph.add_task(Task(f"t{index}", latency=rng.randint(1, 4)), depends_on=picks)
        names.append(f"t{index}")
    return graph


def shipped_graphs(monkeypatch):
    return captured_graphs(monkeypatch, all_example_designs)


def dag_schedule_graphs(monkeypatch):
    def build():
        for seed in range(4):
            DagScheduleGenerator(depth=4, width=3, branch_factor=0.6, slots=2, seed=seed).generate()
            DagScheduleGenerator(depth=5, width=2, burstiness=0.5, slots=3, seed=seed).generate()

    return captured_graphs(monkeypatch, build)


def random_graphs(monkeypatch):
    return [random_dag(seed) for seed in range(8)]


SOURCES = [shipped_graphs, dag_schedule_graphs, random_graphs]


@pytest.mark.parametrize("source", SOURCES, ids=lambda source: source.__name__)
def test_order_and_adjacency_match_networkx(monkeypatch, source):
    graphs = source(monkeypatch)
    assert graphs
    for graph in graphs:
        reference = to_networkx(graph)
        assert graph._topological_order() == list(nx.topological_sort(reference))
        for task in graph.tasks:
            assert graph.successors(task.name) == list(reference.successors(task.name))
            assert graph.predecessors(task.name) == list(
                reference.predecessors(task.name)
            )


@pytest.mark.parametrize("source", SOURCES, ids=lambda source: source.__name__)
def test_schedules_match_networkx_order(monkeypatch, source):
    graphs = source(monkeypatch)

    def schedules(graph):
        return [graph.schedule_asap()] + [graph.schedule_list(n) for n in (1, 2, 3)]

    ours = [schedules(graph) for graph in graphs]
    monkeypatch.setattr(
        TaskGraph,
        "_topological_order",
        lambda self: list(nx.topological_sort(to_networkx(self))),
    )
    assert [schedules(graph) for graph in graphs] == ours
