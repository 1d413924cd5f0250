"""
Workflows, resources, and what a schedule costs
===============================================

Build two tiny workflows by hand, place them on two machines, and read
off start times, finish times, money spent, and who got the worse deal.
"""

from fairsched import (
    Edge, Resource, ResourceCatalog, Task, Workflow, WorkflowSet,
    cluster_none, order_interleave, decode, validate_schedule,
)

# A workflow is a DAG: tasks carry a workload (abstract compute units),
# edges carry the data volume handed from one task to the next.
render = Workflow(
    "render",
    [Task("prep", "render", 4.0), Task("trace", "render", 12.0), Task("post", "render", 3.0)],
    [Edge("prep", "trace", 20.0), Edge("trace", "post", 8.0)],
)
stats = Workflow(
    "stats",
    [Task("load", "stats", 2.0), Task("fit", "stats", 6.0)],
    [Edge("load", "fit", 30.0)],
)
ws = WorkflowSet([render, stats])

# Two machines. The second is four times faster but six times the price,
# and the link between them is slow enough that shipping data hurts.
catalog = ResourceCatalog((
    Resource("budget", cpu_capacity=1.0, bandwidth=5.0, cost_per_interval=1.0, billing_interval=1.0),
    Resource("turbo", cpu_capacity=4.0, bandwidth=5.0, cost_per_interval=6.0, billing_interval=1.0),
))

# No clustering here: every task is its own unit and gets its own gene.
plan = cluster_none(ws)
order = order_interleave(plan, ws)
print("dispatch order:", list(order))

# An assignment maps each cluster to a resource index. Put the expensive
# middle task on the fast machine, everything else on the cheap one.
genes = [0] * plan.n_clusters
genes[plan.cluster_of("trace")] = 1
genes[plan.cluster_of("fit")] = 1

sched = decode(ws, catalog, plan, order, genes)
print(f"\nmakespan  {sched.makespan:.3f}")
print(f"total cost {sched.total_cost:.3f}")
print(f"unfairness {sched.unfairness:.4f}")

print("\ntask       resource  start   finish")
for tid in order:
    p = sched.placements[tid]
    print(f"{tid:<10} {p.resource_id:<9} {p.start:6.2f} {p.finish:8.2f}")

# Per-workflow accounting: slowdown compares against running alone under
# HEFT, overspending against the cheapest possible per-task placement.
print("\nworkflow   slowdown  overspending  loss")
for wl in sched.per_workflow:
    print(f"{wl.workflow_id:<10} {wl.slowdown:8.3f} {wl.overspending:13.3f} {wl.loss:5.3f}")

# The independent checker re-derives every timing rule from the inputs.
problems = validate_schedule(sched, ws, catalog, plan)
print("\nvalidator:", "clean" if not problems else problems)
