from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from fairsched.model import (
    Edge,
    GraphError,
    Resource,
    ResourceCatalog,
    Task,
    ValidationError,
    Workflow,
    WorkflowSet,
    ensure_valid,
    validate,
)
from fairsched.clustering import upward_rank
from oracles import entry_set, random_workflow


def chain(wid="c", n=3):
    tasks = [Task(f"{wid}{i}", wid, float(i + 1)) for i in range(n)]
    edges = [Edge(f"{wid}{i}", f"{wid}{i + 1}", 1.0) for i in range(n - 1)]
    return Workflow(wid, tasks, edges)


def test_predecessors_successors_diamond(diamond):
    assert set(diamond.predecessors("b")) == {"a"}
    assert set(diamond.predecessors("d")) == {"b", "c"}
    assert diamond.predecessors("a") == ()
    assert set(diamond.successors("a")) == {"b", "c"}
    assert diamond.successors("d") == ()


def test_unknown_task_lookup_raises(diamond):
    for lookup in (diamond.predecessors, diamond.successors, diamond.task):
        with pytest.raises(GraphError, match=r"^workflow 'wf' has no task 'zz'$"):
            lookup("zz")
    with pytest.raises(GraphError):
        diamond.edge("a", "d")


def test_entry_set(diamond):
    assert entry_set(diamond) == ("a",)
    w = Workflow(
        "t",
        [Task("p", "t", 1.0), Task("q", "t", 1.0), Task("r", "t", 1.0)],
        [Edge("p", "r", 1.0), Edge("q", "r", 1.0)],
    )
    assert entry_set(w) == ("p", "q")


def test_topological_order_diamond(diamond):
    order = diamond.topological_order()
    pos = {t: i for i, t in enumerate(order)}
    for e in diamond.edges:
        assert pos[e.src] < pos[e.dst]
    # lexicographic tie-break decides between the parallel branches
    assert order == ["a", "b", "c", "d"]


def test_topological_order_empty():
    assert Workflow("e", [], []).topological_order() == []


def test_topological_order_cycle_raises():
    w = Workflow(
        "cyc",
        [Task("a", "cyc", 1.0), Task("b", "cyc", 1.0), Task("c", "cyc", 1.0)],
        [Edge("a", "b", 1.0), Edge("b", "c", 1.0), Edge("c", "b", 1.0)],
    )
    for _ in range(2):  # only a successful order is kept, so every call raises
        with pytest.raises(GraphError, match=r"cycle involving \['b', 'c'\]"):
            w.topological_order()
    assert any("cycle" in v for v in validate(WorkflowSet([w])))


def test_topological_order_is_a_fresh_list(diamond, unit_catalog):
    first = diamond.topological_order()
    rank = upward_rank(diamond, unit_catalog)
    first.reverse()
    first.append("zz")
    assert diamond.topological_order() == ["a", "b", "c", "d"]
    assert upward_rank(diamond, unit_catalog) == rank


def test_validate_clean(diamond_set):
    assert validate(diamond_set) == []
    assert ensure_valid(diamond_set) is diamond_set


def test_validate_reports_problems():
    w1 = Workflow(
        "w1",
        [Task("a", "w1", 1.0), Task("b", "w1", -2.0)],
        [Edge("a", "zz", 1.0), Edge("a", "a", 1.0), Edge("a", "b", -1.0), Edge("a", "b", 2.0)],
    )
    w2 = Workflow("w1", [Task("a", "w2", 1.0)], [])
    violations = validate(WorkflowSet([w1, w2]))
    text = "\n".join(violations)
    assert "negative workload" in text
    assert "unknown task" in text
    assert "self-loop" in text
    assert "negative data size" in text
    assert "duplicate edge" in text
    assert "duplicate workflow id" in text
    assert "duplicate task id" in text
    with pytest.raises(ValidationError):
        ensure_valid(WorkflowSet([w1]))


def test_validate_rejects_non_finite_weights():
    w = Workflow(
        "w",
        [Task("a", "w", 1.0), Task("b", "w", float("inf"))],
        [Edge("a", "b", float("nan"))],
    )
    violations = validate(WorkflowSet([w]))
    assert len(violations) == 2
    assert "non-finite or negative workload inf" in violations[0]
    assert "non-finite or negative data size nan" in violations[1]


def test_validate_random_workflows_clean():
    rng = np.random.default_rng(11)
    for _ in range(40):
        w = random_workflow(rng, "rw")
        assert validate(WorkflowSet([w])) == []
        order = w.topological_order()
        pos = {t: i for i, t in enumerate(order)}
        assert sorted(order) == sorted(t.id for t in w.tasks)
        for e in w.edges:
            assert pos[e.src] < pos[e.dst]
        entries = entry_set(w)
        if w.n_tasks:
            assert entries


def test_types_are_frozen():
    t = Task("a", "w", 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.workload = 2.0
    e = Edge("a", "b", 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        e.data_size = 0.0


def test_catalog_validation():
    r = Resource("r0", 1.0, 1.0, 1.0, 1.0)
    assert len(ResourceCatalog((r,))) == 1
    with pytest.raises(ValueError):
        ResourceCatalog(())
    with pytest.raises(ValueError):
        ResourceCatalog((r, Resource("r0", 2.0, 1.0, 1.0, 1.0)))
    with pytest.raises(ValueError):
        ResourceCatalog((Resource("r1", 0.0, 1.0, 1.0, 1.0),))
    with pytest.raises(ValueError):
        ResourceCatalog((Resource("r1", 1.0, -1.0, 1.0, 1.0),))
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            ResourceCatalog((Resource("r1", 1.0, 1.0, bad, 1.0),))


def test_workflow_set_lookup(two_chain_set):
    assert two_chain_set.workflow("w2").id == "w2"
    with pytest.raises(GraphError):
        two_chain_set.workflow("nope")
    assert two_chain_set.n_tasks == 4
    assert [t.id for t in two_chain_set.all_tasks()] == ["a", "b", "x", "y"]


def test_workflow_equality_ignores_storage_order():
    w1 = chain()
    w2 = Workflow("c", list(reversed(w1.tasks)), list(reversed(w1.edges)))
    assert w1 == w2
    assert WorkflowSet([w1]) == WorkflowSet([w2])
