"""Acceptance suite: one test per shipped correctness claim.

Each criterion is a single test whose pass/fail line in `pytest -v` is the
verdict; the body prints a detail line (instance counts, timings) for runs
with -s. Tolerances and runtime budgets are pinned as constants next to the
test that uses them and are not meant to drift.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from fairsched.clustering import (
    CLUSTERERS,
    cluster_dfs_cst,
    cluster_none,
    make_plan,
    order_interleave,
)
from fairsched.evaluation import Evaluator, comm_time, exec_cost, exec_time
from fairsched.experiment import ExperimentConfig, run_experiment
from fairsched.generator import GeneratorSpec, generate
from fairsched.io import default_catalog
from fairsched.metrics import HV_REFERENCE, aggregate_scores, hv, igd
from fairsched.model import Edge, Resource, ResourceCatalog, Task, Workflow, WorkflowSet
from fairsched.nsga3 import OptimizerConfig, run_with_evaluator
from oracles import (
    dfs_cst_replay_violations,
    dominance_filter_naive,
    event_sim,
    heft_reference,
    igd_naive,
    mc_hypervolume,
    random_catalog,
    random_workflow_set,
    read_run_scores_csv,
)

TOL = 1e-9


def _detail(criterion: int, message: str) -> None:
    print(f"[criterion {criterion}] {message}")


# -- criterion 1: decoder vs brute-force event simulator ---------------------

C1_INSTANCES = 60
C1_BUDGET_S = 60.0


def test_criterion_1_model_equations_match_event_simulator():
    started = perf_counter()
    rng = np.random.default_rng(2024)

    # closed-form pieces, asserted against their definitions
    for _ in range(200):
        r_src, r_dst = random_catalog(rng, 2)
        task = Task("t", "w", float(rng.uniform(0.0, 50.0)))
        size = float(rng.uniform(0.0, 100.0))
        assert exec_time(task, r_src) == task.workload / r_src.cpu_capacity
        assert comm_time(size, r_src, r_src) == 0.0
        assert comm_time(size, r_src, r_dst) == size / min(r_src.bandwidth, r_dst.bandwidth)
        expected_cost = (task.workload / r_src.cpu_capacity) * r_src.cost_per_interval / r_src.billing_interval
        assert exec_cost(task, r_src) == pytest.approx(expected_cost, rel=1e-12)

    # start/finish recursion against the independent simulator
    checked = 0
    while checked < C1_INSTANCES:
        n_wf = int(rng.integers(1, 3))
        ws = random_workflow_set(rng, n_wf, n_lo=2, n_hi=4)
        if ws.n_tasks > 8:
            continue
        catalog = random_catalog(rng, int(rng.integers(1, 4)))
        plan = cluster_none(ws) if checked % 2 == 0 else cluster_dfs_cst(ws, catalog)
        order = order_interleave(plan, ws)
        genes = [int(g) for g in rng.integers(0, len(catalog), size=plan.n_clusters)]
        sched = Evaluator(ws, catalog, plan, order).decode(genes)
        resource_of = {tid: genes[plan.cluster_of(tid)] for tid in order}
        expected = event_sim(ws, catalog, resource_of, list(order))
        for tid, (st, ft) in expected.items():
            placement = sched.placements[tid]
            assert abs(placement.start - st) <= TOL, (tid, placement.start, st)
            assert abs(placement.finish - ft) <= TOL, (tid, placement.finish, ft)
        checked += 1

    elapsed = perf_counter() - started
    assert elapsed < C1_BUDGET_S
    _detail(1, f"PASS: {checked} instances, 200 closed-form draws, {elapsed:.1f}s")


# -- criterion 2: fairness identities ----------------------------------------

C2_SCHEDULES = 1000
C2_BUDGET_S = 60.0


def _symmetric_fixture(k: int) -> tuple[WorkflowSet, ResourceCatalog, list[int]]:
    """k identical 3-task chains, k identical resources, workflow i entirely
    on resource i: every workflow experiences the same run."""
    workflows = []
    for i in range(k):
        wid = f"w{i}"
        workflows.append(
            Workflow(
                wid,
                [Task(f"{wid}a", wid, 4.0), Task(f"{wid}b", wid, 2.0), Task(f"{wid}c", wid, 6.0)],
                [Edge(f"{wid}a", f"{wid}b", 10.0), Edge(f"{wid}b", f"{wid}c", 5.0)],
            )
        )
    catalog = ResourceCatalog(tuple(Resource(f"r{i}", 2.0, 8.0, 1.5, 1.0) for i in range(k)))
    ws = WorkflowSet(workflows)
    plan = cluster_none(ws)
    genes = [0] * plan.n_clusters
    for i, w in enumerate(ws.workflows):
        for t in w.tasks:
            genes[plan.cluster_of(t.id)] = i
    return ws, catalog, genes


def test_criterion_2_fairness_identities():
    started = perf_counter()

    for k in (2, 4, 5):
        ws, catalog, genes = _symmetric_fixture(k)
        plan = cluster_none(ws)
        order = order_interleave(plan, ws)
        sched = Evaluator(ws, catalog, plan, order).decode(genes)
        assert abs(sched.unfairness) <= TOL, (k, sched.unfairness)
        losses = [l.loss for l in sched.per_workflow]
        assert max(losses) - min(losses) <= TOL

    rng = np.random.default_rng(77)
    checked = 0
    while checked < C2_SCHEDULES:
        ws = random_workflow_set(rng, int(rng.integers(2, 4)), n_lo=2, n_hi=4)
        catalog = random_catalog(rng, int(rng.integers(2, 4)))
        plan = cluster_none(ws)
        order = order_interleave(plan, ws)
        ev = Evaluator(ws, catalog, plan, order)
        resource_by_id = {r.id: r for r in catalog}
        for _ in range(50):
            if checked >= C2_SCHEDULES:
                break
            genes = [int(g) for g in rng.integers(0, len(catalog), size=plan.n_clusters)]
            sched = ev.decode(genes)
            direct_losses = []
            for w, reported in zip(ws.workflows, sched.per_workflow):
                assert reported.workflow_id == w.id
                finishes = [sched.placements[t.id].finish for t in w.tasks]
                makespan = max(finishes)
                cost = sum(
                    exec_cost(t, resource_by_id[sched.placements[t.id].resource_id]) for t in w.tasks
                )
                slowdown = makespan / heft_reference(w, catalog)
                cheapest = sum(min(exec_cost(t, r) for r in catalog) for t in w.tasks)
                overspending = cost / cheapest
                assert abs(reported.makespan - makespan) <= TOL
                assert abs(reported.cost - cost) <= TOL * max(1.0, cost)
                assert abs(reported.slowdown - slowdown) <= TOL * max(1.0, slowdown)
                assert abs(reported.overspending - overspending) <= TOL * max(1.0, overspending)
                assert abs(reported.loss - (slowdown + overspending)) <= TOL * max(1.0, reported.loss)
                direct_losses.append(slowdown + overspending)
            direct_uf = statistics.pstdev(direct_losses)
            assert abs(sched.unfairness - direct_uf) <= TOL * max(1.0, direct_uf)
            checked += 1

    elapsed = perf_counter() - started
    assert elapsed < C2_BUDGET_S
    assert checked == C2_SCHEDULES
    _detail(2, f"PASS: symmetric k=2/4/5 UF<=1e-9, {checked} schedules recomputed, {elapsed:.1f}s")


# -- criterion 3: desk-scale front optimality ---------------------------------

C3_BUDGET_S = 300.0
C3_SEEDS = 5
C3_GENERATIONS = 300


def _desk_instances():
    """Four instances with at most 1024 assignments each. The catalog and
    plan sizes are chosen so the whole space enumerates quickly; the last
    two exercise real clustering output rather than singleton clusters."""
    out = []
    for kind, seed in (("A", 11), ("B", 12), ("C", 14), ("C", 17)):
        rng = np.random.default_rng(seed)
        if kind == "A":
            ws = random_workflow_set(rng, 2, n_lo=4, n_hi=4)
            catalog = random_catalog(rng, 2)
            plan = cluster_none(ws)
        elif kind == "B":
            ws = random_workflow_set(rng, 1, n_lo=5, n_hi=5)
            catalog = random_catalog(rng, 3)
            plan = cluster_none(ws)
        else:
            ws = random_workflow_set(rng, 2, n_lo=3, n_hi=4, edge_prob=0.6)
            catalog = random_catalog(rng, 4)
            plan = cluster_dfs_cst(ws, catalog)
        out.append((f"{kind}{seed}", ws, catalog, plan))
    return out


def test_criterion_3_front_never_dominated_by_exhaustive_pareto():
    started = perf_counter()
    runs = 0
    for name, ws, catalog, plan in _desk_instances():
        order = order_interleave(plan, ws)
        ev = Evaluator(ws, catalog, plan, order)
        n_genes = plan.n_clusters
        space = len(catalog) ** n_genes
        assert space <= 1024, (name, space)
        all_objs = [
            ev.objectives(list(combo))
            for combo in itertools.product(range(len(catalog)), repeat=n_genes)
        ]
        true_front = dominance_filter_naive(all_objs)
        # the population must be able to hold the entire true front, with
        # headroom: truncation niching may otherwise evict a dominator
        # while a point it covers survives
        population = max(24, 2 * len(true_front) + (2 * len(true_front)) % 2)
        for seed in range(C3_SEEDS):
            cfg = OptimizerConfig(
                population=population,
                generations=C3_GENERATIONS,
                mutation_rate=1.0 / n_genes,
                seed=seed,
            )
            front = run_with_evaluator(ev, cfg)
            runs += 1
            for ind in front:
                p = ind.objectives
                beaten = any(
                    all(qv <= pv + TOL for qv, pv in zip(q, p))
                    and any(qv < pv - TOL for qv, pv in zip(q, p))
                    for q in all_objs
                )
                assert not beaten, (name, seed, ind.genes_tuple(), tuple(p))

    elapsed = perf_counter() - started
    assert runs == 20
    assert elapsed < C3_BUDGET_S
    _detail(3, f"PASS: 4 instances x {C3_SEEDS} seeds = {runs} runs, no dominated survivor, {elapsed:.1f}s")


# -- criterion 4: metric oracles ----------------------------------------------

C4_BUDGET_S = 120.0
C4_MC_SAMPLES = 1_000_000
C4_HV_BOX_ABS = 1e-12


def test_criterion_4_metric_oracles():
    started = perf_counter()

    assert hv(np.array([[0.0, 0.0, 0.0]]), ref=HV_REFERENCE) == pytest.approx(1.331, abs=C4_HV_BOX_ABS)

    rng = np.random.default_rng(404)
    igd_checked = 0
    for _ in range(30):
        front = rng.uniform(0.0, 1.0, size=(int(rng.integers(1, 16)), 3))
        reference = rng.uniform(0.0, 1.0, size=(int(rng.integers(1, 16)), 3))
        assert igd(front, reference) == pytest.approx(igd_naive(front, reference), rel=1e-12)
        igd_checked += 1

    rng = np.random.default_rng(404)
    worst_z = 0.0
    for trial in range(20):
        front = rng.uniform(0.0, 1.0, size=(int(rng.integers(1, 16)), 3))
        exact = hv(front)
        estimate, sigma = mc_hypervolume(front, HV_REFERENCE, n_samples=C4_MC_SAMPLES, seed=trial)
        z = abs(exact - estimate) / sigma
        worst_z = max(worst_z, z)
        assert z <= 3.0, (trial, exact, estimate, sigma)

    elapsed = perf_counter() - started
    assert elapsed < C4_BUDGET_S
    _detail(4, f"PASS: {igd_checked} IGD fronts exact, 20 HV fronts worst z={worst_z:.2f}, box=1.331, {elapsed:.1f}s")


# -- criterion 5: directional benchmark comparison ----------------------------

C5_BUDGET_S = 1800.0
C5_MASTER_SEED = 0
C5_MIN_WINS = 8


def test_criterion_5_directional_benchmark(tmp_path):
    started = perf_counter()
    cfg = ExperimentConfig.from_dict(
        {
            "datasets": "table2",
            "clusterers": ["dfs-cst", "p2p", "mdnc"],
            "optimizer": {"population": 30, "generations": 60, "divisions": 12},
            "repetitions": 5,
            "seed": C5_MASTER_SEED,
            "output_dir": str(tmp_path / "bench"),
        }
    )
    out = run_experiment(cfg)

    scores = []
    for i in range(1, 17):
        scores.extend(read_run_scores_csv(out / "metrics" / f"ds{i:02d}_runs.csv"))
    by_dataset: dict[str, dict[str, object]] = {}
    for agg in aggregate_scores(scores):
        by_dataset.setdefault(agg.dataset, {})[agg.algorithm] = agg
    assert len(by_dataset) == 16

    igd_wins = hv_wins = 0
    for dataset, entry in by_dataset.items():
        assert set(entry) == {"dfs-cst", "p2p", "mdnc"}
        igd_wins += min(entry, key=lambda a: entry[a].igd_mean) == "dfs-cst"
        hv_wins += max(entry, key=lambda a: entry[a].hv_mean) == "dfs-cst"

    elapsed = perf_counter() - started
    assert elapsed < C5_BUDGET_S
    assert igd_wins >= C5_MIN_WINS, f"dfs-cst best mean IGD in only {igd_wins}/16 datasets"
    assert hv_wins >= C5_MIN_WINS, f"dfs-cst best mean HV in only {hv_wins}/16 datasets"
    _detail(5, f"PASS: dfs-cst best mean IGD {igd_wins}/16, best mean HV {hv_wins}/16, {elapsed:.0f}s")


# -- criterion 6: clustering invariants ----------------------------------------

C6_BUDGET_S = 120.0
C6_WORKFLOWS = 200


def test_criterion_6_clustering_invariants():
    started = perf_counter()
    catalog = default_catalog()

    specs = []
    seed = 900
    for ccr in (0.1, 1.0, 10.0):
        for parallelism in (0.2, 0.5, 0.9):
            specs.append(GeneratorSpec(8, (5, 15), ccr, parallelism, seed=seed))
            seed += 1
    sets = [generate(s) for s in specs]
    while sum(len(ws) for ws in sets) < C6_WORKFLOWS:
        sets.append(generate(GeneratorSpec(8, (5, 15), 1.0, 0.5, seed=seed)))
        seed += 1

    workflows_seen = 0
    for ws in sets:
        workflows_seen += len(ws)
        for method in sorted(CLUSTERERS):
            plan = make_plan(ws, catalog, method)
            assert plan.violations(ws) == [], method
            # partition: every task in exactly one cluster
            seen: set[str] = set()
            for cluster in plan:
                assert not (set(cluster.members) & seen)
                seen.update(cluster.members)
            assert seen == {t.id for t in ws.all_tasks()}
            order = order_interleave(plan, ws)
            position = {tid: i for i, tid in enumerate(order)}
            for w in ws.workflows:
                for t in w.tasks:
                    for pred in w.predecessors(t.id):
                        assert position[pred] < position[t.id]
        replay_problems = dfs_cst_replay_violations(ws, catalog, make_plan(ws, catalog, "dfs-cst"))
        assert replay_problems == []

    chain_sets = [generate(GeneratorSpec(10, (10, 20), 0.1, 0.05, seed=s)) for s in (77, 78)]
    for ws in chain_sets:
        for w in ws.workflows:  # parallelism 0.05 at <= 20 tasks forces chains
            assert all(len(w.successors(t.id)) <= 1 for t in w.tasks)
        for method in ("dfs-cst", "p2p", "mdnc"):
            assert make_plan(ws, catalog, method).n_clusters == len(ws), method

    elapsed = perf_counter() - started
    assert workflows_seen >= C6_WORKFLOWS
    assert elapsed < C6_BUDGET_S
    _detail(6, f"PASS: {workflows_seen} workflows x {len(CLUSTERERS)} clusterers, chains collapse, {elapsed:.1f}s")


# -- criterion 7: cross-process determinism ------------------------------------

def _pin_to_one_cpu():
    """In a child before it runs: one CPU, so run_experiment starts no pool."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def test_criterion_7_bit_identical_result_trees(tmp_path):
    config_doc = {
        "datasets": [
            {"name": "d1", "n_workflows": 2, "task_count_range": [4, 6], "ccr": 0.5, "parallelism_degree": 0.5},
            {"name": "d2", "n_workflows": 3, "task_count_range": [3, 5], "ccr": 2.0, "parallelism_degree": 0.3},
        ],
        "clusterers": ["dfs-cst", "none"],
        "optimizer": {"population": 8, "generations": 5, "divisions": 6},
        "repetitions": 2,
        "seed": 424242,
        "output_dir": "results",
    }
    # b differs from a in the hash salt only, c from b in the CPUs it may use
    # and so in its worker count (one per CPU, at most one per dataset)
    runs = (("a", "1", True), ("b", "31337", True), ("c", "31337", False))
    trees = []
    for label, hash_seed, one_cpu in runs:
        workdir = tmp_path / label
        workdir.mkdir()
        (workdir / "config.json").write_text(json.dumps(config_doc))
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-m", "fairsched", "run", "--config", "config.json", "--quiet"],
            cwd=workdir,
            env=env,
            preexec_fn=_pin_to_one_cpu if one_cpu else None,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        root = workdir / "results"
        trees.append({p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()})

    assert len(trees[0]) > 10
    for (_, hash_seed, one_cpu), tree in zip(runs[1:], trees[1:]):
        assert tree.keys() == trees[0].keys()
        for rel in trees[0]:
            assert tree[rel] == trees[0][rel], f"{rel} differs under hash seed {hash_seed}, one CPU {one_cpu}"
    _detail(
        7,
        f"PASS: {len(trees[0])} files bit-identical across three processes "
        "with different hash salts, on one CPU and on every CPU",
    )
