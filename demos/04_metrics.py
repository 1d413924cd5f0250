"""
Scoring fronts against each other
=================================

No single run knows the true Pareto front, so runs are judged against
the nondominated union of everything anybody found: IGD measures how
closely a front tracks that reference, hypervolume how much of the
objective box it covers.
"""

from fairsched import (
    GeneratorSpec, OptimizerConfig, default_catalog, generate,
    make_plan, order_interleave, run,
    aggregate_scores, score_fronts, union_reference,
)

ws = generate(GeneratorSpec(
    n_workflows=3, task_count_range=(8, 12), ccr=2.0, parallelism_degree=0.4, seed=11,
))
catalog = default_catalog()

# Same instance, same budget, three clustering strategies, two seeds each.
fronts = {}
for method in ("dfs-cst", "p2p", "mdnc"):
    plan = make_plan(ws, catalog, method)
    order = order_interleave(plan, ws)
    fronts[method] = [
        run(ws, catalog, plan, order, OptimizerConfig(population=24, generations=40, seed=s)).objectives_array()
        for s in (0, 1)
    ]

scores = score_fronts("demo", fronts)
reference = union_reference([f for runs in fronts.values() for f in runs])
print(f"union reference front: {len(reference)} points\n")
print("method     rep    IGD       HV")
for s in scores:
    print(f"{s.algorithm:<9} {s.repetition:4d} {s.igd:8.4f} {s.hv:8.4f}")

print("\nmethod     mean IGD  mean HV   RDI(IGD)  RDI(HV)")
for a in aggregate_scores(scores):
    print(f"{a.algorithm:<9} {a.igd_mean:9.4f} {a.hv_mean:8.4f} {a.rdi_igd:9.4f} {a.rdi_hv:8.4f}")

# RDI rescales against the best in the group: 0 marks the winner, the
# rest read as relative distance behind it (IGD: positive is worse;
# HV: negative is worse).
