from __future__ import annotations

import numpy as np
import pytest

from fairsched.clustering import (
    CLUSTERERS,
    Cluster,
    ClusterPlan,
    cluster_dfs_cst,
    cluster_mdnc,
    cluster_none,
    cluster_p2p,
    make_plan,
    order_interleave,
    upward_rank,
)
from fairsched.generator import GeneratorSpec, generate
from fairsched.model import Edge, GraphError, Resource, ResourceCatalog, Task, Workflow, WorkflowSet
from oracles import (
    dfs_cst_replay_violations,
    dfs_cst_scan,
    interleave_scan,
    random_catalog,
    random_workflow_set,
)


def triple_catalog():
    # capacities 1, 2, 4 -> mean inverse capacity 7/12; bandwidths 10, 20, 15 -> mean 15
    return ResourceCatalog(
        (
            Resource("r0", 1.0, 10.0, 1.0, 1.0),
            Resource("r1", 2.0, 20.0, 2.0, 1.0),
            Resource("r2", 4.0, 15.0, 4.0, 1.0),
        )
    )


def test_avg_exec_time_means_the_times():
    # a lone task's upward rank is its average execution time
    cat = triple_catalog()
    rank = upward_rank(Workflow("w", [Task("a", "w", 60.0)], []), cat)
    # (60/1 + 60/2 + 60/4) / 3 = (60 + 30 + 15) / 3 = 35
    assert rank["a"] == pytest.approx(35.0, abs=1e-12)
    assert upward_rank(Workflow("w", [Task("z", "w", 0.0)], []), cat)["z"] == 0.0
    # the same workload over mean capacity would give 60 / (7/3) != 35
    assert rank["a"] != pytest.approx(60.0 / ((1 + 2 + 4) / 3))


def test_avg_comm_time_divides_by_mean_bandwidth():
    # with zero workloads the entry's upward rank is the edge's average comm time
    cat = triple_catalog()

    def comm(data_size):
        w = Workflow("w", [Task("a", "w", 0.0), Task("b", "w", 0.0)], [Edge("a", "b", data_size)])
        return upward_rank(w, cat)["a"]

    assert comm(90.0) == pytest.approx(6.0, abs=1e-12)  # 90 / 15
    assert comm(0.0) == 0.0


def test_upward_rank_diamond_on_heterogeneous_catalog(diamond):
    # avg exec = workload * mean(1 / capacity) = workload * 7/12, the mean of
    # the per-resource times (workload over the mean capacity would give
    # workload * 3/7); avg comm = data_size / mean bandwidth = data_size / 15
    # (the mean of the per-resource transfer times would give x 13/180)
    rank = upward_rank(diamond, triple_catalog())
    d = 7 / 6  # 2 * 7/12
    b = 113 / 30  # 4 * 7/12 + 4/15 + d
    c = 187 / 30  # 8 * 7/12 + 6/15 + d
    a = 121 / 15  # 2 * 7/12 + 10/15 + c, the c branch being longer
    assert rank == pytest.approx({"a": a, "b": b, "c": c, "d": d}, abs=1e-12)


def test_upward_rank_diamond(diamond, unit_catalog):
    rank = upward_rank(diamond, unit_catalog)
    # unit capacity, bandwidth 10: rank(d)=2, rank(b)=4+0.4+2, rank(c)=8+0.6+2
    assert rank["d"] == pytest.approx(2.0)
    assert rank["b"] == pytest.approx(6.4)
    assert rank["c"] == pytest.approx(10.6)
    assert rank["a"] == pytest.approx(2.0 + 1.0 + 10.6)


def test_dfs_cst_diamond_follows_expensive_branch(diamond_set, unit_catalog):
    # toward b: comm 10/10 + exec 4 = 5; toward c: 10/10 + 8 = 9 -> chain a,c,d
    plan = cluster_dfs_cst(diamond_set, unit_catalog)
    assert [c.members for c in plan] == [("a", "c", "d"), ("b",)]


def test_dfs_cst_chain_single_cluster(unit_catalog):
    w = Workflow(
        "w",
        [Task("a", "w", 1.0), Task("b", "w", 2.0), Task("c", "w", 3.0)],
        [Edge("a", "b", 1.0), Edge("b", "c", 1.0)],
    )
    plan = cluster_dfs_cst(WorkflowSet([w]), unit_catalog)
    assert [c.members for c in plan] == [("a", "b", "c")]


def test_dfs_cst_isolated_tasks_are_singletons(unit_catalog):
    w = Workflow("w", [Task("a", "w", 5.0), Task("b", "w", 1.0)], [])
    plan = cluster_dfs_cst(WorkflowSet([w]), unit_catalog)
    # priority order: a has the larger rank
    assert [c.members for c in plan] == [("a",), ("b",)]


def test_p2p_merges_only_pipelines(diamond_set, unit_catalog):
    plan = cluster_p2p(diamond_set)
    assert sorted(c.members for c in plan) == [("a",), ("b",), ("c",), ("d",)]
    chain = Workflow(
        "w",
        [Task("a", "w", 1.0), Task("b", "w", 1.0), Task("c", "w", 1.0)],
        [Edge("a", "b", 1.0), Edge("b", "c", 1.0)],
    )
    assert [c.members for c in cluster_p2p(WorkflowSet([chain]))] == [("a", "b", "c")]
    fork = Workflow(
        "w",
        [Task("a", "w", 1.0), Task("b", "w", 1.0), Task("c", "w", 1.0)],
        [Edge("a", "b", 1.0), Edge("a", "c", 1.0)],
    )
    assert sorted(c.members for c in cluster_p2p(WorkflowSet([fork]))) == [("a",), ("b",), ("c",)]


def test_p2p_partial_pipeline_run():
    # a -> b -> c -> d with an extra edge a -> c: only c -> d is a pure pipeline link
    w = Workflow(
        "w",
        [Task(x, "w", 1.0) for x in "abcd"],
        [Edge("a", "b", 1.0), Edge("b", "c", 1.0), Edge("a", "c", 1.0), Edge("c", "d", 1.0)],
    )
    plan = cluster_p2p(WorkflowSet([w]))
    assert sorted(c.members for c in plan) == [("a",), ("b",), ("c", "d")]


def test_mdnc_diamond(diamond_set):
    plan = cluster_mdnc(diamond_set)
    assert sorted(c.members for c in plan) == [("a", "b", "d"), ("c",)]


def test_mdnc_chain_single_cluster():
    chain = Workflow(
        "w",
        [Task("a", "w", 1.0), Task("b", "w", 1.0), Task("c", "w", 1.0)],
        [Edge("a", "b", 1.0), Edge("b", "c", 1.0)],
    )
    assert [c.members for c in cluster_mdnc(WorkflowSet([chain]))] == [("a", "b", "c")]


def test_mdnc_skips_non_consecutive_levels():
    # a -> b -> d and a -> d: d sits two levels below a, so a can only merge with b
    w = Workflow(
        "w",
        [Task(x, "w", 1.0) for x in "abd"],
        [Edge("a", "b", 1.0), Edge("b", "d", 1.0), Edge("a", "d", 1.0)],
    )
    plan = cluster_mdnc(WorkflowSet([w]))
    assert [c.members for c in plan] == [("a", "b", "d")]


def test_none_is_all_singletons(diamond_set, unit_catalog):
    plan = cluster_none(diamond_set)
    assert all(len(c.members) == 1 for c in plan)
    assert plan.n_clusters == 4


def test_make_plan_registry(diamond_set, unit_catalog):
    assert set(CLUSTERERS) == {"dfs-cst", "p2p", "mdnc", "none"}
    assert make_plan(diamond_set, unit_catalog, "none").n_clusters == 4
    with pytest.raises(ValueError, match="unknown clusterer"):
        make_plan(diamond_set, unit_catalog, "bogus")


def test_cluster_ids_are_global_and_sequential(two_chain_set, unit_catalog):
    plan = cluster_none(two_chain_set)
    assert [c.id for c in plan] == [0, 1, 2, 3]
    assert [c.workflow_id for c in plan] == ["w1", "w1", "w2", "w2"]


def test_plan_partition_violations(diamond_set):
    good = cluster_none(diamond_set)
    assert good.violations(diamond_set) == []
    bad = ClusterPlan(
        [c for c in good.clusters][:3]  # drops task d
    )
    assert any("not covered" in v for v in bad.violations(diamond_set))
    not_an_edge = ClusterPlan(
        [
            type(good.clusters[0])(0, "wf", ("a", "d")),
            type(good.clusters[0])(1, "wf", ("b",)),
            type(good.clusters[0])(2, "wf", ("c",)),
        ]
    )
    assert any("not an edge" in v for v in not_an_edge.violations(diamond_set))


def test_plan_rejects_double_membership(diamond_set):
    c0 = cluster_none(diamond_set).clusters[0]
    with pytest.raises(ValueError, match="two clusters"):
        ClusterPlan([type(c0)(0, "wf", ("a", "b")), type(c0)(1, "wf", ("b",))])


def test_interleave_round_robin(two_chain_set, unit_catalog):
    plan = cluster_none(two_chain_set)
    order = order_interleave(plan, two_chain_set)
    assert list(order) == ["a", "x", "b", "y"]


def test_interleave_single_workflow_is_topological(diamond_set, unit_catalog):
    plan = cluster_dfs_cst(diamond_set, unit_catalog)
    order = list(order_interleave(plan, diamond_set))
    pos = {t: i for i, t in enumerate(order)}
    for e in diamond_set.workflows[0].edges:
        assert pos[e.src] < pos[e.dst]


def test_interleave_skips_empty_workflow(unit_catalog):
    w1 = Workflow("w1", [], [])
    w2 = Workflow("w2", [Task("x", "w2", 1.0), Task("y", "w2", 1.0)], [Edge("x", "y", 1.0)])
    ws = WorkflowSet([w1, w2])
    order = order_interleave(cluster_none(ws), ws)
    assert list(order) == ["x", "y"]


def test_interleave_rejects_mismatched_plan(two_chain_set, diamond_set, unit_catalog):
    """Each inconsistent plan raises GraphError, as the frozen scan does."""
    plans = {
        "unknown workflow": cluster_none(diamond_set),
        "missing task": ClusterPlan([Cluster(0, "w1", ("a", "b")), Cluster(1, "w2", ("x",))]),
        "stall": ClusterPlan([Cluster(0, "w1", ("b", "a")), Cluster(1, "w2", ("x", "y"))]),
        "foreign member": ClusterPlan([Cluster(0, "w1", ("a", "b", "x")), Cluster(1, "w2", ("y",))]),
    }
    for plan in plans.values():
        with pytest.raises(GraphError):
            interleave_scan(plan, two_chain_set)
        with pytest.raises(GraphError):
            order_interleave(plan, two_chain_set)


def _check_partition(plan, ws):
    assert plan.violations(ws) == []
    # explicit double-check of the partition property
    members = [m for c in plan for m in c.members]
    assert sorted(members) == sorted(t.id for t in ws.all_tasks())


def test_partition_property_random_sets():
    rng = np.random.default_rng(2024)
    for trial in range(25):
        ws = random_workflow_set(rng, int(rng.integers(1, 4)))
        cat = random_catalog(rng, int(rng.integers(1, 4)))
        for method in CLUSTERERS:
            plan = make_plan(ws, cat, method)
            _check_partition(plan, ws)
            order = order_interleave(plan, ws)
            assert sorted(order.order) == sorted(t.id for t in ws.all_tasks())
            for w in ws.workflows:
                pos = {t: i for i, t in enumerate(order.order)}
                for e in w.edges:
                    assert pos[e.src] < pos[e.dst]


def test_dfs_cst_replay_every_step_is_the_argmax():
    rng = np.random.default_rng(77)
    for trial in range(20):
        ws = random_workflow_set(rng, 2)
        cat = random_catalog(rng, 3)
        plan = cluster_dfs_cst(ws, cat)
        assert dfs_cst_replay_violations(ws, cat, plan) == []


def test_chains_collapse_to_single_cluster_for_all_strategies():
    cat = ResourceCatalog((Resource("r0", 1.0, 5.0, 1.0, 1.0),))
    ws = generate(GeneratorSpec(5, (10, 20), 0.1, 0.05, seed=21))  # chains by construction
    for method in ("dfs-cst", "p2p", "mdnc"):
        plan = make_plan(ws, cat, method)
        assert plan.n_clusters == len(ws), method


def _same_order_or_both_raise(plan, ws):
    """order_interleave and the frozen per-turn scan agree: the same order,
    or a GraphError from both."""
    try:
        expected = interleave_scan(plan, ws)
    except GraphError:
        with pytest.raises(GraphError):
            order_interleave(plan, ws)
        return False
    assert order_interleave(plan, ws).order == expected
    return True


@pytest.mark.parametrize("parallelism", [0.05, 0.30, 1.0])
@pytest.mark.parametrize("n_workflows, task_range", [(5, (10, 20)), (30, (40, 60))])
def test_interleave_matches_scan(n_workflows, task_range, parallelism):
    """The ready heap emits the scan's order on ds01-like and ds16-like sets."""
    ws = generate(GeneratorSpec(n_workflows, task_range, 1000.0, parallelism, seed=n_workflows + int(parallelism * 100)))
    cat = triple_catalog()
    for method in CLUSTERERS:
        assert _same_order_or_both_raise(make_plan(ws, cat, method), ws), method


def test_interleave_matches_scan_on_hand_built_plans():
    """Several clusters of a workflow ready at once, lower ids ready later,
    chain members that are no successor of the previous member, and plans
    that stall: random partitions with cluster ids shuffled across workflows."""
    rng = np.random.default_rng(909)
    consistent = 0
    for trial in range(120):
        ws = random_workflow_set(rng, int(rng.integers(1, 4)), n_lo=1, n_hi=9)
        chains = []
        for w in ws.workflows:
            ids = w.topological_order() if trial % 2 else [str(t) for t in rng.permutation([t.id for t in w.tasks])]
            n_cuts = min(len(ids) - 1, int(rng.integers(0, 4)))
            cuts = sorted(rng.choice(np.arange(1, len(ids)), size=n_cuts, replace=False).tolist()) if n_cuts else []
            for a, b in zip([0] + cuts, cuts + [len(ids)]):
                chains.append((w.id, tuple(ids[a:b])))
        order = rng.permutation(len(chains))
        plan = ClusterPlan([Cluster(i, *chains[j]) for i, j in enumerate(order)])
        consistent += _same_order_or_both_raise(plan, ws)
    assert 60 <= consistent < 120  # every topological chaining emits; some shuffled ones stall


def test_interleave_one_task_workflows():
    ws = generate(GeneratorSpec(7, (1, 1), 1.0, 1.0, seed=5))
    for method in CLUSTERERS:
        plan = make_plan(ws, triple_catalog(), method)
        assert _same_order_or_both_raise(plan, ws)
        assert list(order_interleave(plan, ws)) == [w.tasks[0].id for w in ws.workflows]


def test_dfs_cst_matches_head_scan():
    """Heads come from one sorted pass; the frozen per-head id scan agrees,
    ties in rank included (identical parallel tasks)."""
    cat = triple_catalog()
    tied = Workflow(
        "tie",
        [Task(t, "tie", 3.0) for t in ("q1", "p2", "s3", "r0", "t5", "u4")],
        [Edge("q1", "s3", 1.0), Edge("p2", "r0", 1.0), Edge("q1", "t5", 1.0), Edge("q1", "u4", 1.0)],
    )
    sets = [WorkflowSet([tied])]
    sets += [generate(GeneratorSpec(6, (5, 30), ccr, par, seed=s)) for s, (ccr, par) in enumerate([(0.1, 0.05), (1000.0, 0.3), (1.0, 1.0)])]
    rng = np.random.default_rng(31)
    sets += [random_workflow_set(rng, 3) for _ in range(10)]
    for ws in sets:
        plan = cluster_dfs_cst(ws, cat)
        assert [(c.workflow_id, c.members) for c in plan] == dfs_cst_scan(ws, cat)
