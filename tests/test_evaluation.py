from __future__ import annotations

import itertools
import json
import math
import statistics

import numpy as np
import pytest

from fairsched.clustering import cluster_none, make_plan, order_interleave, CLUSTERERS
from fairsched.evaluation import (
    Evaluator,
    cheapest_alone,
    comm_time,
    compute_baselines,
    decode,
    exec_cost,
    exec_time,
    heft_alone,
    loss_report,
    unfairness,
    validate_schedule,
)
from fairsched.generator import GeneratorSpec, generate
from fairsched.io import default_catalog
from fairsched.model import Edge, Resource, ResourceCatalog, Task, Workflow, WorkflowSet, ensure_valid
from oracles import (
    ScalarWalk,
    event_sim,
    exhaustive_event_orders,
    heft_fixed_assignment_makespan,
    heft_reference,
    random_catalog,
    random_workflow_set,
)

TOL = 1e-9


def test_exec_time_cases(pair_catalog):
    r0, r1 = pair_catalog
    assert exec_time(Task("t", "w", 10.0), r0) == 10.0
    assert exec_time(Task("t", "w", 10.0), r1) == 5.0
    assert exec_time(Task("t", "w", 0.0), r1) == 0.0


def test_comm_time_cases(pair_catalog):
    r0, r1 = pair_catalog
    assert comm_time(50.0, r0, r0) == 0.0  # same resource, free
    assert comm_time(50.0, r0, r1) == 10.0  # min(10, 5) = 5
    assert comm_time(0.0, r0, r1) == 0.0


def test_exec_cost_cases(pair_catalog):
    r0, r1 = pair_catalog
    assert exec_cost(Task("t", "w", 10.0), r0) == 10.0
    assert exec_cost(Task("t", "w", 10.0), r1) == 15.0  # 5 time units at rate 3
    half = Resource("rh", 1.0, 1.0, 1.0, 2.0)  # interval twice as long halves the rate
    assert exec_cost(Task("t", "w", 10.0), half) == 5.0


def test_decode_single_task(unit_catalog):
    w = Workflow("w", [Task("a", "w", 5.0)], [])
    ws = WorkflowSet([w])
    plan = cluster_none(ws)
    order = order_interleave(plan, ws)
    sched = decode(ws, unit_catalog, plan, order, [0])
    p = sched.placements["a"]
    assert (p.start, p.finish) == (0.0, 5.0)
    assert sched.makespan == 5.0
    assert sched.total_cost == 5.0


def test_decode_chain_same_resource_no_transfer(unit_catalog):
    w = Workflow("w", [Task("a", "w", 2.0), Task("b", "w", 3.0)], [Edge("a", "b", 100.0)])
    ws = WorkflowSet([w])
    plan = cluster_none(ws)
    order = order_interleave(plan, ws)
    sched = decode(ws, unit_catalog, plan, order, [0, 0])
    assert sched.placements["b"].start == sched.placements["a"].finish == 2.0
    assert sched.makespan == 5.0


PINNED_EXPECTED = {
    "a": (0.0, 1.0),
    "x": (0.0, 0.5),
    "b": (2.0, 2.5),
    "y": (1.5, 2.5),
}


def test_decode_pinned_two_workflow_fixture(two_chain_set, pair_catalog):
    """Frozen outcome of the 2x2 fixture, cross-checked three ways: the
    exhaustive event-order oracle admits exactly one schedule, the frozen
    numbers match it, and decode reproduces it."""
    plan = cluster_none(two_chain_set)
    order = order_interleave(plan, two_chain_set)
    assert list(order) == ["a", "x", "b", "y"]
    genes = [0, 1, 1, 0]  # clusters [a], [b], [x], [y]
    resource_of = {"a": 0, "b": 1, "x": 1, "y": 0}

    outcomes = exhaustive_event_orders(two_chain_set, pair_catalog, resource_of, list(order))
    assert len(outcomes) == 1
    only = dict((tid, (st, ft)) for tid, st, ft in next(iter(outcomes)))
    assert only == PINNED_EXPECTED

    sched = decode(two_chain_set, pair_catalog, plan, order, genes)
    for tid, (st, ft) in PINNED_EXPECTED.items():
        p = sched.placements[tid]
        assert (p.start, p.finish) == (st, ft)
    assert sched.makespan == 2.5
    assert sched.total_cost == pytest.approx(5.0, abs=TOL)
    # both workflows suffer identically here
    assert sched.unfairness == pytest.approx(0.0, abs=TOL)
    assert sched.loss.mean_loss == pytest.approx(3.75, abs=TOL)
    assert validate_schedule(sched, two_chain_set, pair_catalog, plan) == []


def test_decode_matches_event_sim_on_random_instances():
    rng = np.random.default_rng(555)
    for trial in range(25):
        ws = random_workflow_set(rng, int(rng.integers(1, 4)), n_lo=2, n_hi=8)
        cat = random_catalog(rng, int(rng.integers(1, 4)))
        plan = cluster_none(ws)
        order = order_interleave(plan, ws)
        genes = [int(g) for g in rng.integers(0, len(cat), size=plan.n_clusters)]
        ev = Evaluator(ws, cat, plan, order)
        sched = ev.decode(genes)
        resource_of = {tid: genes[plan.cluster_of(tid)] for tid in order}
        oracle = event_sim(ws, cat, resource_of, list(order))
        for tid, (st, ft) in oracle.items():
            p = sched.placements[tid]
            assert abs(p.start - st) <= TOL * max(1.0, st)
            assert abs(p.finish - ft) <= TOL * max(1.0, ft)
        assert sched.makespan == pytest.approx(max(ft for _, ft in oracle.values()), rel=TOL)
        # objectives() agrees with the full decode
        assert ev.objectives(genes) == pytest.approx(sched.objectives, rel=TOL)
        assert validate_schedule(sched, ws, cat, plan) == []


def test_clustered_decode_colocates_members():
    rng = np.random.default_rng(808)
    ws = random_workflow_set(rng, 2, n_lo=4, n_hi=8)
    cat = random_catalog(rng, 3)
    for method in CLUSTERERS:
        plan = make_plan(ws, cat, method)
        order = order_interleave(plan, ws)
        ev = Evaluator(ws, cat, plan, order)
        genes = [int(g) for g in rng.integers(0, 3, size=plan.n_clusters)]
        sched = ev.decode(genes)
        assert validate_schedule(sched, ws, cat, plan) == []
        for c in plan:
            assert len({sched.placements[m].resource_id for m in c.members}) == 1


def test_heft_five_task_fixture(pair_catalog):
    """Frozen: independent HEFT gives 14.0 on this fixture and brute force
    over all 32 assignments (same rank order, insertion allowed) can do no
    better, so HEFT >= optimum holds with equality here."""
    w = Workflow(
        "h",
        [Task("t0", "h", 6.0), Task("t1", "h", 4.0), Task("t2", "h", 10.0), Task("t3", "h", 3.0), Task("t4", "h", 5.0)],
        [Edge("t0", "t1", 20.0), Edge("t0", "t2", 8.0), Edge("t1", "t3", 12.0), Edge("t2", "t3", 4.0), Edge("t3", "t4", 30.0)],
    )
    ours = heft_alone(w, pair_catalog)
    reference = heft_reference(w, pair_catalog)
    assert ours == pytest.approx(14.0, abs=TOL)
    assert ours == pytest.approx(reference, abs=TOL)
    ids = [t.id for t in w.tasks]
    brute = min(
        heft_fixed_assignment_makespan(w, pair_catalog, dict(zip(ids, combo)))
        for combo in itertools.product(range(len(pair_catalog)), repeat=len(ids))
    )
    assert brute == pytest.approx(14.0, abs=TOL)
    assert ours >= brute - TOL


def test_heft_matches_reference_on_random_workflows():
    rng = np.random.default_rng(404)
    for trial in range(30):
        ws = random_workflow_set(rng, 1, n_lo=2, n_hi=9)
        cat = random_catalog(rng, int(rng.integers(1, 4)))
        w = ws.workflows[0]
        assert heft_alone(w, cat) == pytest.approx(heft_reference(w, cat), rel=1e-9)


def test_heft_single_task_and_chain(pair_catalog):
    w = Workflow("w", [Task("a", "w", 10.0)], [])
    assert heft_alone(w, pair_catalog) == 5.0  # the fast machine wins
    chain = Workflow(
        "c",
        [Task("a", "c", 4.0), Task("b", "c", 6.0)],
        [Edge("a", "b", 0.0)],
    )
    # free transfer: each task independently on the fast machine
    assert heft_alone(chain, pair_catalog) == 5.0


def test_cheapest_alone_enumerates_tasks(pair_catalog):
    w = Workflow("w", [Task("a", "w", 10.0), Task("b", "w", 4.0)], [Edge("a", "b", 1.0)])
    # r0 costs wl, r1 costs 1.5 wl: r0 is always the cheap choice here
    assert cheapest_alone(w, pair_catalog) == 14.0
    rng = np.random.default_rng(31)
    for trial in range(20):
        cat = random_catalog(rng, 3)
        ws = random_workflow_set(rng, 1)
        w = ws.workflows[0]
        expected = sum(min(exec_cost(t, r) for r in cat) for t in w.tasks)
        assert cheapest_alone(w, cat) == pytest.approx(expected, rel=1e-12)


def test_baselines_reject_zero_workload(unit_catalog):
    empty = WorkflowSet([Workflow("e", [], [])])
    with pytest.raises(ValueError, match="baseline"):
        compute_baselines(empty, unit_catalog)
    zero = WorkflowSet([Workflow("z", [Task("a", "z", 0.0)], [])])
    with pytest.raises(ValueError, match="baseline"):
        compute_baselines(zero, unit_catalog)


def test_unfairness_is_population_std():
    assert unfairness([1.0, 3.0]) == 1.0
    assert unfairness([2.0, 2.0, 2.0]) == 0.0
    rng = np.random.default_rng(6)
    for _ in range(10):
        losses = list(rng.uniform(0.5, 9.0, size=int(rng.integers(1, 12))))
        assert unfairness(losses) == pytest.approx(statistics.pstdev(losses), rel=1e-12)
    with pytest.raises(ValueError):
        unfairness([])


def test_unfairness_squares_deviations_with_pow():
    """Result bits hold per libm: deviations are squared with Python's
    `x ** 2`, the C library's `pow`, which rounds differently from `x * x`
    for some values. These losses tell the two apart, so a switch to
    `d * d` (a versioned change of results) cannot pass silently."""
    losses = [2.684, 2.999, 2.822]
    mean = sum(losses) / len(losses)
    with_pow = math.sqrt(sum(math.pow(x - mean, 2) for x in losses) / len(losses))
    with_mul = math.sqrt(sum((x - mean) * (x - mean) for x in losses) / len(losses))
    if with_pow == with_mul:
        pytest.skip("this libm's pow squares these deviations exactly")
    assert unfairness(losses) == with_pow != with_mul


def test_loss_report_two_single_task_workflows(unit_catalog):
    """Frozen trace: serialized on one machine the second workflow waits,
    losses come out {2, 3}: mean 2.5, unfairness 0.5."""
    w1 = Workflow("w1", [Task("a", "w1", 1.0)], [])
    w2 = Workflow("w2", [Task("b", "w2", 1.0)], [])
    ws = WorkflowSet([w1, w2])
    plan = cluster_none(ws)
    order = order_interleave(plan, ws)
    sched = decode(ws, unit_catalog, plan, order, [0, 0])
    losses = [l.loss for l in sched.loss.per_workflow]
    assert losses == [2.0, 3.0]
    assert sched.loss.mean_loss == 2.5
    assert sched.unfairness == 0.5
    # report recomputed from placements alone agrees
    baselines = compute_baselines(ws, unit_catalog)
    again = loss_report(sched, ws, unit_catalog, baselines)
    assert [l.loss for l in again.per_workflow] == losses
    assert again.unfairness == sched.unfairness


def test_slowdown_is_one_when_alone_on_single_resource(unit_catalog):
    w = Workflow("w", [Task("a", "w", 3.0), Task("b", "w", 2.0)], [Edge("a", "b", 10.0)])
    ws = WorkflowSet([w])
    plan = cluster_none(ws)
    order = order_interleave(plan, ws)
    sched = decode(ws, unit_catalog, plan, order, [0, 0])
    assert sched.loss.per_workflow[0].slowdown == pytest.approx(1.0, abs=TOL)
    assert sched.loss.per_workflow[0].overspending == pytest.approx(1.0, abs=TOL)
    assert sched.unfairness == 0.0


def test_evaluator_rejects_bad_assignments(two_chain_set, pair_catalog):
    plan = cluster_none(two_chain_set)
    order = order_interleave(plan, two_chain_set)
    ev = Evaluator(two_chain_set, pair_catalog, plan, order)
    with pytest.raises(ValueError, match="length"):
        ev.objectives([0, 0])
    with pytest.raises(ValueError, match="length"):
        ev.objectives(np.zeros((3, 2), dtype=int))
    with pytest.raises(ValueError, match="out of range"):
        ev.objectives([0, 0, 0, 5])
    with pytest.raises(ValueError, match="out of range"):
        ev.objectives([[0, 0, 0, 0], [0, -1, 0, 0]])
    for not_integers in ([0.5, 0, 0, 0], np.zeros(4), [True, False, True, False], [[0, 0, 0, 1.0]]):
        with pytest.raises(ValueError, match="integers"):
            ev.objectives(not_integers)
    for bad_ndim in (np.int64(0), np.zeros((2, 1, 4), dtype=int)):
        with pytest.raises(ValueError, match="dimensions"):
            ev.objectives(bad_ndim)
    with pytest.raises(ValueError, match="one assignment vector"):
        ev.decode([[0, 0, 0, 0]])
    # tuples and numpy vectors are accepted, and give one tuple
    assert isinstance(ev.objectives((0, 0, 0, 0)), tuple)
    assert ev.objectives(np.zeros(4, dtype=np.uint8)) == ev.objectives([0, 0, 0, 0])
    # a matrix gives one row per assignment, an empty one none
    both = ev.objectives([[0, 0, 0, 0], [1, 1, 1, 1]])
    assert both.shape == (2, 3)
    assert tuple(both[0]) == ev.objectives([0, 0, 0, 0])
    assert ev.objectives(np.zeros((0, 4), dtype=int)).shape == (0, 3)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("clusterer", sorted(CLUSTERERS))
def test_batched_decode_matches_scalar_walk(clusterer):
    """objectives() on a gene matrix, objectives() on one vector and
    decode() reproduce the per-genome scalar walk bit for bit: every
    objective, and every task's resource, start and finish."""
    rng = np.random.default_rng(2024)
    seen = {"one-task workflow": False, "transfer between unequal links": False, "one resource": False}
    for trial in range(12):
        n_res = (1, 2, 3, 5)[trial % 4]
        ws = random_workflow_set(rng, int(rng.integers(1, 5)), n_lo=1, n_hi=9)
        cat = random_catalog(rng, n_res)
        plan = make_plan(ws, cat, clusterer)
        order = order_interleave(plan, ws)
        baselines = compute_baselines(ws, cat)
        ev = Evaluator(ws, cat, plan, order, baselines)
        ref = ScalarWalk(ws, cat, plan, order, baselines)
        res_index = {r.id: ri for ri, r in enumerate(cat)}
        seen["one-task workflow"] |= any(len(w.tasks) == 1 for w in ws.workflows)
        seen["one resource"] |= n_res == 1
        for n_rows in (1, 2, 7, 100):
            genes = rng.integers(0, n_res, size=(n_rows, plan.n_clusters))
            genes[n_rows // 2] = genes[0]  # a duplicated row
            got = ev.objectives(genes)
            assert got.shape == (n_rows, 3)
            assert [_hex(row) for row in got] == [_hex(ref.objectives(row)) for row in genes]
        for row in genes[:7]:
            assert _hex(ev.objectives(row)) == _hex(ref.objectives(row))
            sched = ev.decode(row)
            assert _hex(sched.objectives) == _hex(ref.objectives(row))
            placed = {
                tid: (res_index[p.resource_id], p.start.hex(), p.finish.hex())
                for tid, p in sched.placements.items()
            }
            want = {tid: (ri, s.hex(), f.hex()) for tid, (ri, s, f) in ref.placements(row).items()}
            assert placed == want
            for w in ws.workflows:
                for e in w.edges:
                    a, b = cat[want[e.src][0]], cat[want[e.dst][0]]
                    seen["transfer between unequal links"] |= a.bandwidth != b.bandwidth and e.data_size > 0
    assert all(seen.values()), seen


def test_batched_decode_matches_scalar_walk_on_generated_sets():
    """Generator-shaped sets (layered, many multi-predecessor tasks) on the
    default uniform-bandwidth catalog and on a heterogeneous one. Twelve
    workflows: numpy's pairwise summation can change the total cost's
    last bit from eight terms on, so a sum outside task order shows."""
    rng = np.random.default_rng(77)
    ws = ensure_valid(generate(GeneratorSpec(12, (5, 25), 1000.0, 0.3, seed=11)))
    for cat in (default_catalog(), random_catalog(rng, 4)):
        for clusterer in ("dfs-cst", "none"):
            plan = make_plan(ws, cat, clusterer)
            order = order_interleave(plan, ws)
            baselines = compute_baselines(ws, cat)
            ev = Evaluator(ws, cat, plan, order, baselines)
            ref = ScalarWalk(ws, cat, plan, order, baselines)
            genes = rng.integers(0, len(cat), size=(30, plan.n_clusters))
            got = ev.objectives(genes)
            assert got.tobytes() == np.array([ref.objectives(row) for row in genes]).tobytes()


def test_evaluator_rejects_non_topological_order(two_chain_set, pair_catalog):
    from fairsched.clustering import OrderedPlan

    plan = cluster_none(two_chain_set)
    with pytest.raises(ValueError, match="not topological"):
        Evaluator(two_chain_set, pair_catalog, plan, OrderedPlan(("b", "a", "x", "y")))
    with pytest.raises(ValueError, match="permutation"):
        Evaluator(two_chain_set, pair_catalog, plan, OrderedPlan(("a", "x", "y")))


def test_validate_schedule_catches_corruption(two_chain_set, pair_catalog):
    plan = cluster_none(two_chain_set)
    order = order_interleave(plan, two_chain_set)
    sched = decode(two_chain_set, pair_catalog, plan, order, [0, 1, 1, 0])
    assert validate_schedule(sched, two_chain_set, pair_catalog, plan) == []
    from dataclasses import replace

    broken = replace(sched, placements={**sched.placements, "b": replace(sched.placements["b"], start=0.0, finish=0.5)})
    problems = validate_schedule(broken, two_chain_set, pair_catalog, plan)
    assert any("starts before data" in p for p in problems)
    lying = replace(sched, makespan=1.0)
    assert any("makespan" in p for p in validate_schedule(lying, two_chain_set, pair_catalog, plan))


def test_schedule_serialization(two_chain_set, pair_catalog, tmp_path):
    plan = cluster_none(two_chain_set)
    order = order_interleave(plan, two_chain_set)
    sched = decode(two_chain_set, pair_catalog, plan, order, [0, 1, 1, 0])
    jpath = tmp_path / "sched.json"
    sched.save_json(jpath)
    doc = json.loads(jpath.read_text())
    assert doc["objectives"]["makespan"] == sched.makespan
    assert len(doc["placements"]) == 4
    assert doc["placements"]["b"]["resource"] == "r1"
    cpath = tmp_path / "gantt.csv"
    sched.save_gantt_csv(cpath)
    lines = cpath.read_text().strip().splitlines()
    assert lines[0] == "task,resource,start,finish"
    assert len(lines) == 5
    # rows sorted by start time
    starts = [float(l.split(",")[2]) for l in lines[1:]]
    assert starts == sorted(starts)
