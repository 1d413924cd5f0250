"""
Searching the assignment space
==============================

NSGA-III over cluster-to-resource assignments, three objectives at once:
finish everything early, spend little, and spread the pain evenly.
"""

from fairsched import (
    GeneratorSpec, OptimizerConfig, default_catalog, generate,
    make_plan, order_interleave, run,
)

ws = generate(GeneratorSpec(
    n_workflows=4, task_count_range=(10, 16), ccr=1.0, parallelism_degree=0.4, seed=3,
))
catalog = default_catalog()
plan = make_plan(ws, catalog, "dfs-cst")
order = order_interleave(plan, ws)
print(f"{len(ws)} workflows, {ws.n_tasks} tasks, {plan.n_clusters} clusters, {len(catalog)} resources")
print(f"search space: {len(catalog)}^{plan.n_clusters} assignments\n")

cfg = OptimizerConfig(population=40, generations=80, seed=2)
front = run(ws, catalog, plan, order, cfg)

print(f"final front: {len(front)} nondominated assignments\n")
print("   makespan   total_cost   unfairness")
for ind in front:
    mk, cost, uf = ind.objectives
    print(f"{mk:11.2f} {cost:12.2f} {uf:12.4f}")

# The corners tell the story: the cheapest plan is slow, the fastest
# plan is expensive, and fairness pulls against both. Picking one point
# off this front is a policy decision, not an optimization problem.
objs = front.objectives
for label, column in (("fastest", 0), ("cheapest", 1), ("fairest", 2)):
    best = objs[objs[:, column].argmin()]
    print(f"\n{label:9} makespan={best[0]:.2f} cost={best[1]:.2f} unfairness={best[2]:.4f}")
