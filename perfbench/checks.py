"""Output checks for the benchmark, built only on fairsched's public API.

A front member is accepted when decoding its genes in a freshly rebuilt
context reproduces its objectives bit for bit and `validate_schedule`
finds no violation; a front is accepted when, in addition, no member
dominates another and no genome repeats. Dominance is recomputed here
rather than taken from the optimizer, so the check does not share code
with what it checks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from fairsched import (
    Evaluator,
    ensure_valid,
    generate,
    make_plan,
    order_interleave,
    validate_schedule,
)


@dataclass(frozen=True)
class Context:
    ws: object
    catalog: object
    plan: object
    evaluator: Evaluator


def rebuild_context(spec, catalog, clusterer: str) -> Context:
    """Everything needed to decode a genome, rebuilt from the generator spec."""
    ws = ensure_valid(generate(spec))
    plan = make_plan(ws, catalog, clusterer)
    order = order_interleave(plan, ws)
    return Context(ws, catalog, plan, Evaluator(ws, catalog, plan, order))


def _bits(values) -> tuple[str, ...]:
    return tuple(float(v).hex() for v in values)


def front_rows(front) -> tuple[list[tuple[float, ...]], list[tuple[int, ...]]]:
    """(objectives, genes) of a Front as plain tuples."""
    return (
        [tuple(float(v) for v in ind.objectives) for ind in front],
        [ind.genes_tuple() for ind in front],
    )


def front_problems(ctx: Context, objectives, genes) -> list[str]:
    """Every reason the front (objective rows, gene rows) is not acceptable."""
    problems: list[str] = []
    if len(objectives) == 0:
        return ["empty front"]
    if len(objectives) != len(genes):
        return [f"{len(objectives)} objective rows but {len(genes)} genomes"]
    seen: set[tuple[int, ...]] = set()
    for k, (objs, genome) in enumerate(zip(objectives, genes)):
        genome = tuple(int(g) for g in genome)
        if genome in seen:
            problems.append(f"member {k}: repeated genome")
        seen.add(genome)
        try:
            schedule = ctx.evaluator.decode(list(genome))
        except ValueError as exc:
            problems.append(f"member {k}: decode failed: {exc}")
            continue
        if _bits(objs) != _bits(schedule.objectives):
            problems.append(f"member {k}: stored {tuple(objs)} != decoded {schedule.objectives}")
        violations = validate_schedule(schedule, ctx.ws, ctx.catalog, ctx.plan)
        if violations:
            problems.append(f"member {k}: {violations[0]} (+{len(violations) - 1} more)")
    pts = np.asarray(objectives, dtype=float)
    le = (pts[:, None, :] <= pts[None, :, :]).all(axis=2)
    lt = (pts[:, None, :] < pts[None, :, :]).any(axis=2)
    dominated = np.flatnonzero((le & lt).any(axis=0))
    if dominated.size:
        problems.append(f"members {dominated.tolist()} are dominated within the front")
    return problems


def fronts_digest(labelled) -> str:
    """SHA-256 over (label, objective bits, genes) of every front, in the given order."""
    h = hashlib.sha256()
    for label, (objectives, genes) in labelled:
        h.update(f"{label}\n".encode())
        for objs, genome in zip(objectives, genes):
            h.update((",".join(_bits(objs)) + "|" + ",".join(str(int(g)) for g in genome) + "\n").encode())
    return h.hexdigest()
