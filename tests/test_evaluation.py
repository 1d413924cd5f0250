from __future__ import annotations

import itertools
import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsched import evaluation
from fairsched.clustering import (
    CLUSTERERS,
    Cluster,
    ClusterPlan,
    OrderedPlan,
    cluster_none,
    make_plan,
    order_interleave,
    upward_rank,
)
from fairsched.evaluation import (
    Baselines,
    Evaluator,
    cheapest_alone,
    comm_time,
    compute_baselines,
    decode,
    exec_cost,
    exec_time,
    heft_alone,
    unfairness,
    validate_schedule,
)
from fairsched.generator import GeneratorSpec, generate, table2_specs
from fairsched.io import default_catalog
from fairsched.model import Edge, GraphError, Resource, ResourceCatalog, Task, Workflow, WorkflowSet, ensure_valid
from oracles import (
    ScalarWalk,
    cheapest_alone_loop,
    event_sim,
    exhaustive_event_orders,
    heft_alone_loop,
    heft_fixed_assignment_makespan,
    heft_reference,
    random_catalog,
    random_workflow_set,
    upward_rank_loop,
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
    losses = [wl.loss for wl in sched.per_workflow]
    assert sum(losses) / len(losses) == pytest.approx(3.75, abs=TOL)
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


def _baseline_catalogs(rng):
    """Unequal bandwidths, two resources of equal speed, and one resource."""
    yield random_catalog(rng, 4)
    yield ResourceCatalog(
        (
            Resource("slow", 1.0, 3.0, 1.0, 1.0),
            Resource("twin-a", 2.5, 7.0, 2.0, 0.5),
            Resource("twin-b", 2.5, 4.0, 1.5, 1.0),
        )
    )
    yield ResourceCatalog((Resource("only", 1.7, 6.0, 1.3, 2.0),))
    yield default_catalog()


def test_baselines_bit_identical_to_frozen_loops():
    """heft_alone, cheapest_alone and upward_rank give the frozen loops'
    floats bit for bit, so a reordered float operation fails here."""
    rng = np.random.default_rng(515)
    workflows = [w for _ in range(12) for w in random_workflow_set(rng, 2, n_lo=1, n_hi=12).workflows]
    for ccr, par in ((0.1, 0.05), (1000.0, 0.3), (1.0, 1.0)):
        workflows += generate(GeneratorSpec(4, (10, 40), ccr, par, seed=int(ccr * 10) + 1)).workflows
    for cat in _baseline_catalogs(rng):
        for w in workflows:
            assert heft_alone(w, cat).hex() == heft_alone_loop(w, cat).hex(), w.id
            assert cheapest_alone(w, cat).hex() == cheapest_alone_loop(w, cat).hex(), w.id
            rank, frozen = upward_rank(w, cat), upward_rank_loop(w, cat)
            assert list(rank) == list(frozen)
            assert [v.hex() for v in rank.values()] == [v.hex() for v in frozen.values()]


def test_evaluator_rejects_plan_missing_a_task(two_chain_set, pair_catalog):
    plan = ClusterPlan([Cluster(0, "w1", ("a", "b")), Cluster(1, "w2", ("x",))])
    order = order_interleave(cluster_none(two_chain_set), two_chain_set)
    with pytest.raises(GraphError, match="plan does not cover"):
        Evaluator(two_chain_set, pair_catalog, plan, order)


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


def test_baselines_reject_infinite_makespan_or_cost():
    half = ResourceCatalog((Resource("r0", 0.5, 10.0, 1.0, 1.0),))
    huge = WorkflowSet([Workflow("h", [Task("a", "h", 1e308)], [])])
    with pytest.raises(ValueError, match="makespan inf and cost inf; fairness needs both positive and finite"):
        compute_baselines(huge, half)


def test_evaluator_refuses_sets_whose_values_could_overflow(unit_catalog):
    # finite baselines and objectives, but raw IGD squares objective differences up to 1e200
    big = WorkflowSet([Workflow("w", [Task("a", "w", 1e200)], [])])
    plan = cluster_none(big)
    with pytest.raises(ValueError, match="overflow the float range"):
        Evaluator(big, unit_catalog, plan, order_interleave(plan, big))
    # zero baselines given by the caller leave the losses unbounded
    small = WorkflowSet([Workflow("w", [Task("a", "w", 1.0)], [])])
    plan = cluster_none(small)
    with pytest.raises(ValueError, match="a loss up to inf"):
        Evaluator(small, unit_catalog, plan, order_interleave(plan, small), Baselines({"w": 0.0}, {"w": 1.0}))
    # the largest values still in range decode without a warning
    edge = WorkflowSet([Workflow("w", [Task("a", "w", 1e150)], [])])
    plan = cluster_none(edge)
    assert Evaluator(edge, unit_catalog, plan, order_interleave(plan, edge)).objectives([0]) == (1e150, 1e150, 0.0)


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


def _unfairness_of_list(losses):
    """The scalar formula: sums over the list in order, `x ** 2`, `sqrt`."""
    mean = sum(losses) / len(losses)
    return math.sqrt(sum((x - mean) ** 2 for x in losses) / len(losses))


def test_unfairness_matrix_matches_columns():
    """A (workflows x P) loss matrix gives each column's unfairness, bit for
    bit, including a column where `pow` and `*` square differently."""
    rng = np.random.default_rng(13)
    matrices = [rng.uniform(0.5, 9.0, size=(w, p)) for w in (1, 2, 5, 30) for p in (1, 3, 92)]
    matrices.append(np.array([[2.684, 1.0], [2.999, 1.0], [2.822, 1.0]]))
    matrices.append(rng.uniform(1.0, 2.0, size=(4, 0)))
    for losses in matrices:
        got = unfairness(losses)
        assert got.shape == (losses.shape[1],)
        for column, value in zip(losses.T.tolist(), got.tolist()):
            assert value.hex() == unfairness(column).hex() == _unfairness_of_list(column).hex()
    with pytest.raises(ValueError):
        unfairness(np.empty((0, 3)))


def test_loss_report_two_single_task_workflows(unit_catalog):
    """Frozen trace: serialized on one machine the second workflow waits,
    losses come out {2, 3}: mean 2.5, unfairness 0.5."""
    w1 = Workflow("w1", [Task("a", "w1", 1.0)], [])
    w2 = Workflow("w2", [Task("b", "w2", 1.0)], [])
    ws = WorkflowSet([w1, w2])
    plan = cluster_none(ws)
    order = order_interleave(plan, ws)
    sched = decode(ws, unit_catalog, plan, order, [0, 0])
    losses = [l.loss for l in sched.per_workflow]
    assert losses == [2.0, 3.0]
    assert sum(losses) / len(losses) == 2.5
    assert sched.unfairness == 0.5


def test_slowdown_is_one_when_alone_on_single_resource(unit_catalog):
    w = Workflow("w", [Task("a", "w", 3.0), Task("b", "w", 2.0)], [Edge("a", "b", 10.0)])
    ws = WorkflowSet([w])
    plan = cluster_none(ws)
    order = order_interleave(plan, ws)
    sched = decode(ws, unit_catalog, plan, order, [0, 0])
    assert sched.per_workflow[0].slowdown == pytest.approx(1.0, abs=TOL)
    assert sched.per_workflow[0].overspending == pytest.approx(1.0, abs=TOL)
    assert sched.unfairness == 0.0


# (unfairness, per workflow (id, makespan, cost, slowdown, overspending)) as
# float.hex, frozen before decode took the losses from the objective tail;
# each case draws its genes from its own seeded rng.
FROZEN_LOSSES = {
    "two-chain": (
        "0x1.8000000000000p-2",
        [
            ("w1", "0x1.4000000000000p+1", "0x1.4000000000000p+1", "0x1.4000000000000p+1", "0x1.4000000000000p+0"),
            ("w2", "0x1.8000000000000p+1", "0x1.8000000000000p+1", "0x1.8000000000000p+1", "0x1.8000000000000p+0"),
        ],
    ),
    "random": (
        "0x1.94f7c334b2eddp-2",
        [
            ("rw0", "0x1.bf1215c7d8810p+4", "0x1.8cd3e69db7c8bp+4", "0x1.53aea7c680045p+1", "0x1.9c3da7d893360p+0"),
            ("rw1", "0x1.4d8ee069f9b51p+5", "0x1.7e845637b5bfdp+5", "0x1.0f0b5af325753p+1", "0x1.856564ca3f73fp+0"),
            ("rw2", "0x1.1e3171d9c9e22p+3", "0x1.bf9afda713ca0p+3", "0x1.411359cad6f75p+1", "0x1.0ab25271d5870p+1"),
        ],
    ),
    "ds01": (
        "0x1.5795c7d1dad9bp+1",
        [
            ("w000", "0x1.c9b1f115d2fa3p+5", "0x1.dc67813ad9b2fp+10", "0x1.ebe492c47c289p+0", "0x1.fffffffffffffp+0"),
            ("w001", "0x1.844539056480ap+7", "0x1.1c6a749a134c5p+10", "0x1.08daecfe18c33p+3", "0x1.8406003b2ae5dp+0"),
            ("w002", "0x1.47d64e89c2034p+5", "0x1.1d6617f982b13p+10", "0x1.0000000000000p+1", "0x1.bdb8cdadbe11dp+0"),
            ("w003", "0x1.d5c816718103dp+5", "0x1.cf28aba82854bp+10", "0x1.03a919efedee5p+1", "0x1.0000000000000p+1"),
            ("w004", "0x1.71f51ad175bb5p+7", "0x1.30178fcb2c2abp+10", "0x1.d81170d7a1cefp+2", "0x1.8406003b2ae5bp+0"),
        ],
    ),
}


def _loss_case(name, two_chain_set, pair_catalog):
    """(set, catalog, clusterer, rng for the genes) of one frozen case."""
    if name == "two-chain":
        return two_chain_set, pair_catalog, "none", np.random.default_rng(1)
    if name == "random":
        rng = np.random.default_rng(31)
        return random_workflow_set(rng, 3, n_lo=3, n_hi=6), random_catalog(rng, 3), "dfs-cst", rng
    return ensure_valid(generate(table2_specs(0)[0][1])), default_catalog(), "mdnc", np.random.default_rng(7)


@pytest.mark.parametrize("name", sorted(FROZEN_LOSSES))
def test_decode_accounts_for_fairness_once(name, two_chain_set, pair_catalog):
    """decode's per-workflow losses are the ones its unfairness is the spread
    of, its objectives are objectives() bit for bit, and both are frozen."""
    ws, cat, clusterer, rng = _loss_case(name, two_chain_set, pair_catalog)
    plan = make_plan(ws, cat, clusterer)
    ev = Evaluator(ws, cat, plan, order_interleave(plan, ws))
    genes = rng.integers(0, len(cat), size=plan.n_clusters).tolist()
    sched = ev.decode(genes)
    got = [
        (wl.workflow_id, wl.makespan.hex(), wl.cost.hex(), wl.slowdown.hex(), wl.overspending.hex())
        for wl in sched.per_workflow
    ]
    assert (sched.unfairness.hex(), got) == FROZEN_LOSSES[name]
    assert sched.unfairness.hex() == unfairness([wl.loss for wl in sched.per_workflow]).hex()
    assert [v.hex() for v in sched.objectives] == [v.hex() for v in ev.objectives(genes)]


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


# the walk's block sizes under test: single tasks, blocks smaller than a
# predecessor list, odd sizes, and the default
BLOCKS = (1, 2, 3, 7, evaluation._BLOCK)


def _evaluators(monkeypatch, *context) -> dict[int, Evaluator]:
    """One Evaluator of the context per block size in BLOCKS; the walk's
    blocks are planned when the Evaluator is built."""
    evaluators = {}
    for block in BLOCKS:
        monkeypatch.setattr(evaluation, "_BLOCK", block)
        evaluators[block] = Evaluator(*context)
    return evaluators


def _assert_matches_scalar_walk(ev, ref, cat, genes, n_decoded):
    """objectives() on the gene matrix, and on each of the first n_decoded
    rows as a vector, and decode() of those rows reproduce the scalar walk
    bit for bit: every objective, and every task's resource, start and
    finish. Returns the scalar placements of the decoded rows."""
    res_index = {r.id: ri for ri, r in enumerate(cat)}
    got = ev.objectives(genes)
    assert got.shape == (len(genes), 3)
    assert [_hex(row) for row in got] == [_hex(ref.objectives(row)) for row in genes]
    wants = []
    for row in genes[:n_decoded]:
        assert _hex(ev.objectives(row)) == _hex(ref.objectives(row))
        sched = ev.decode(row)
        assert _hex(sched.objectives) == _hex(ref.objectives(row))
        placed = {
            tid: (res_index[p.resource_id], p.start.hex(), p.finish.hex())
            for tid, p in sched.placements.items()
        }
        want = {tid: (ri, s.hex(), f.hex()) for tid, (ri, s, f) in ref.placements(row).items()}
        assert placed == want
        wants.append(want)
    return wants


@pytest.mark.parametrize("clusterer", sorted(CLUSTERERS))
def test_batched_decode_matches_scalar_walk(clusterer, monkeypatch):
    """objectives() on a gene matrix, objectives() on one vector and
    decode() reproduce the per-genome scalar walk bit for bit, at every
    block size of the walk."""
    rng = np.random.default_rng(2024)
    seen = {"one-task workflow": False, "transfer between unequal links": False, "one resource": False}
    for trial in range(12):
        n_res = (1, 2, 3, 5)[trial % 4]
        ws = random_workflow_set(rng, int(rng.integers(1, 5)), n_lo=1, n_hi=9)
        cat = random_catalog(rng, n_res)
        plan = make_plan(ws, cat, clusterer)
        order = order_interleave(plan, ws)
        baselines = compute_baselines(ws, cat)
        evaluators = _evaluators(monkeypatch, ws, cat, plan, order, baselines)
        ref = ScalarWalk(ws, cat, plan, order, baselines)
        seen["one-task workflow"] |= any(len(w.tasks) == 1 for w in ws.workflows)
        seen["one resource"] |= n_res == 1
        for n_rows in (1, 2, 7, 100):
            genes = rng.integers(0, n_res, size=(n_rows, plan.n_clusters))
            genes[n_rows // 2] = genes[0]  # a duplicated row
            for ev in evaluators.values():
                wants = _assert_matches_scalar_walk(ev, ref, cat, genes, 7 if n_rows == 100 else 0)
        for want in wants:
            for w in ws.workflows:
                for e in w.edges:
                    a, b = cat[want[e.src][0]], cat[want[e.dst][0]]
                    seen["transfer between unequal links"] |= a.bandwidth != b.bandwidth and e.data_size > 0
    assert all(seen.values()), seen


def test_batched_decode_matches_scalar_walk_on_generated_sets(monkeypatch):
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
            ref = ScalarWalk(ws, cat, plan, order, baselines)
            genes = rng.integers(0, len(cat), size=(30, plan.n_clusters))
            want = np.array([ref.objectives(row) for row in genes]).tobytes()
            for block, ev in _evaluators(monkeypatch, ws, cat, plan, order, baselines).items():
                assert ev.objectives(genes).tobytes() == want, block


def test_batched_decode_matches_scalar_walk_across_blocks(monkeypatch):
    """A generated set several default blocks long, so that tasks with
    several predecessors open blocks and edges cross from one block to a
    later one: every block size reproduces the scalar walk, for matrices
    of 1, 2, 30 and 101 rows, single vectors and decoded schedules."""
    rng = np.random.default_rng(5)
    ws = ensure_valid(generate(GeneratorSpec(8, (20, 30), 10.0, 0.5, seed=3)))
    cat = random_catalog(rng, 4)
    plan = make_plan(ws, cat, "dfs-cst")
    order = order_interleave(plan, ws)
    baselines = compute_baselines(ws, cat)
    ref = ScalarWalk(ws, cat, plan, order, baselines)
    position = {tid: i for i, tid in enumerate(order.order)}
    owner = {t.id: w for w in ws.workflows for t in w.tasks}
    assert ws.n_tasks > 4 * evaluation._BLOCK
    for block, ev in _evaluators(monkeypatch, ws, cat, plan, order, baselines).items():
        opening = [tid for tid, i in position.items() if i % block == 0 and len(owner[tid].predecessors(tid)) > 1]
        crossing = [e for w in ws.workflows for e in w.edges if position[e.src] // block != position[e.dst] // block]
        assert opening and crossing, block
        for n_rows in (1, 2, 30, 101):
            genes = rng.integers(0, len(cat), size=(n_rows, plan.n_clusters))
            _assert_matches_scalar_walk(ev, ref, cat, genes, 3)


def _walk_cases(ws, order, block) -> set[str]:
    """The kinds of task and block the walk treats apart, present when the
    order is cut into blocks of `block` positions. A predecessor is carried
    when it lies in an earlier block, in-block when it lies in the same."""
    position = {tid: i for i, tid in enumerate(order.order)}
    kinds, carried_by_block = set(), {}
    for w in ws.workflows:
        for t in w.tasks:
            i = position[t.id]
            carried = sum(position[p] // block < i // block for p in w.predecessors(t.id))
            in_block = len(w.predecessors(t.id)) - carried
            carried_by_block.setdefault(i // block, []).append(carried)
            if not in_block:
                kinds.add({0: "no predecessor", 1: "one carried edge"}.get(carried, "several carried edges"))
            else:
                kinds.add("carried and in-block edges" if carried else "in-block edges only")
    if any(not any(c) for c in carried_by_block.values()):
        kinds.add("block without carried edges")
    if any(all(c) for c in carried_by_block.values()):
        kinds.add("block of carried edges only")
    return kinds


def test_batched_decode_matches_scalar_walk_in_every_walk_case(monkeypatch):
    """Workflows dispatched one after another, so predecessors often sit in
    the same block: at every block size the set holds each kind of task and
    block the walk treats apart (a block of one task has no in-block
    edges), and the walk reproduces the scalar walk on each."""
    rng = np.random.default_rng(8)
    ws = ensure_valid(generate(GeneratorSpec(4, (40, 60), 10.0, 0.3, seed=3)))
    cat = random_catalog(rng, 4)
    plan = make_plan(ws, cat, "dfs-cst")
    order = OrderedPlan(tuple(tid for w in ws.workflows for tid in w.topological_order()))
    baselines = compute_baselines(ws, cat)
    ref = ScalarWalk(ws, cat, plan, order, baselines)
    every = {
        "one carried edge",
        "several carried edges",
        "in-block edges only",
        "carried and in-block edges",
        "block without carried edges",
        "block of carried edges only",
    }
    for block, ev in _evaluators(monkeypatch, ws, cat, plan, order, baselines).items():
        want = every - {"in-block edges only", "carried and in-block edges"} if block == 1 else every
        assert want <= _walk_cases(ws, order, block), block
        for n_rows in (1, 2, 30, 101):
            genes = rng.integers(0, len(cat), size=(n_rows, plan.n_clusters))
            _assert_matches_scalar_walk(ev, ref, cat, genes, 2)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.data())
def test_batched_decode_matches_scalar_walk_on_random_orders(data):
    """Random topological orders that interleave the workflows task by task,
    unlike order_interleave's turns or one workflow after another: every
    block size reproduces the scalar walk on matrices, single vectors and
    decoded schedules."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    ws = random_workflow_set(rng, data.draw(st.integers(1, 5), label="workflows"), n_lo=1, n_hi=9)
    cat = random_catalog(rng, data.draw(st.integers(1, 5), label="resources"))
    plan = make_plan(ws, cat, data.draw(st.sampled_from(sorted(CLUSTERERS)), label="clusterer"))
    waiting = {t.id: len(w.predecessors(t.id)) for w in ws.workflows for t in w.tasks}
    successors = {t.id: w.successors(t.id) for w in ws.workflows for t in w.tasks}
    ready, order = [tid for tid, k in waiting.items() if k == 0], []
    while ready:
        tid = ready.pop(data.draw(st.integers(0, len(ready) - 1)))
        order.append(tid)
        for s in successors[tid]:
            waiting[s] -= 1
            if waiting[s] == 0:
                ready.append(s)
    order = OrderedPlan(tuple(order))
    baselines = compute_baselines(ws, cat)
    ref = ScalarWalk(ws, cat, plan, order, baselines)
    genes = rng.integers(0, len(cat), size=(5, plan.n_clusters))
    with pytest.MonkeyPatch.context() as monkeypatch:
        for ev in _evaluators(monkeypatch, ws, cat, plan, order, baselines).values():
            _assert_matches_scalar_walk(ev, ref, cat, genes, 2)


def test_workflow_cost_sums_in_dispatch_order(unit_catalog, monkeypatch):
    """A workflow's cost adds its tasks' costs one at a time in dispatch
    order. These costs round differently when summed pairwise (`np.sum`)
    or in reverse order, so any other order shows in the last bit."""
    tiny = 2.0**-53  # half an ulp of 1.0
    w = Workflow("w", [Task("big", "w", 1.0)] + [Task(f"t{k}", "w", tiny) for k in range(10)], [])
    v = Workflow("v", [Task("v0", "v", 1.0)], [])
    ws = WorkflowSet([w, v])
    order = OrderedPlan(("big", "v0", *(f"t{k}" for k in range(10))))
    costs = [1.0] + [tiny] * 10  # w's costs on the unit catalog, in dispatch order
    in_order = 0.0
    for c in costs:
        in_order += c  # 1.0 + tiny rounds back to 1.0 every time
    assert len({in_order.hex(), float(np.sum(costs)).hex(), sum(reversed(costs)).hex()}) == 3
    plan = cluster_none(ws)
    baselines = compute_baselines(ws, unit_catalog)
    ref = ScalarWalk(ws, unit_catalog, plan, order, baselines)
    genes = np.zeros((3, plan.n_clusters), dtype=int)
    for ev in _evaluators(monkeypatch, ws, unit_catalog, plan, order, baselines).values():
        assert ev.decode(genes[0]).per_workflow[0].cost.hex() == in_order.hex()
        _assert_matches_scalar_walk(ev, ref, unit_catalog, genes, 1)


def test_evaluator_rejects_non_topological_order(two_chain_set, pair_catalog):
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


def test_validate_schedule_reports_predecessor_on_unknown_resource(pair_catalog):
    """A predecessor placed on a resource the catalog lacks is reported by
    its own check; its successor's arrival check skips it instead of
    raising."""
    from dataclasses import replace

    w = Workflow("w", [Task("a", "w", 1.0), Task("b", "w", 1.0)], [Edge("a", "b", 5.0)])
    ws = WorkflowSet([w])
    plan = cluster_none(ws)
    sched = decode(ws, pair_catalog, plan, order_interleave(plan, ws), [0, 1])
    broken = replace(sched, placements={**sched.placements, "a": replace(sched.placements["a"], resource_id="nope")})
    problems = validate_schedule(broken, ws, pair_catalog, plan)
    assert problems[0] == "task 'a' placed on unknown resource 'nope'"
    assert not any("arrives" in p for p in problems)


def test_schedule_serialization(two_chain_set, pair_catalog, tmp_path):
    plan = cluster_none(two_chain_set)
    order = order_interleave(plan, two_chain_set)
    sched = decode(two_chain_set, pair_catalog, plan, order, [0, 1, 1, 0])
    cpath = tmp_path / "gantt.csv"
    sched.save_gantt_csv(cpath)
    lines = cpath.read_text().strip().splitlines()
    assert lines[0] == "task,resource,start,finish"
    assert len(lines) == 5
    # rows sorted by start time
    starts = [float(l.split(",")[2]) for l in lines[1:]]
    assert starts == sorted(starts)
