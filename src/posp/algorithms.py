"""Solvers and the enumeration oracle.

Two solvers share the label model from `core`; a frontier is a vertex's list
of labels:

- `bellman_solve` — label-correcting fixed point, semi-naive: every round
  extends only the labels the previous round inserted, along the out-arcs
  of their vertex, and merges; it stops when nothing changes.  Spaces that
  declare a quasi-transitive relation re-extend every label every round.
- `mda_solve` — label-setting: one priority queue keyed by the weight
  space's linear extension holds every candidate label; a popped label that
  no permanent label of its vertex dominates becomes permanent.

Both apply one dominance rule, `_scan`: Bellman through `merge`, MDA to
filter candidates and audit popped labels.

`brute_force_frontier` is the oracle both are tested against: plain DFS path
enumeration up to a length cap followed by a pairwise dominance filter.  Its
node count is capped by the POSP_BUDGET environment variable.
"""

from __future__ import annotations

import heapq
import itertools
import os
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterable

from .core import (
    EQUAL,
    GREATER,
    LESS,
    BudgetExceededError,
    Instance,
    Label,
    LeoMonotonicityError,
    MU_BOUNDED,
    NoLeoError,
    QUASI_TRANSITIVE,
    WeightSpace,
    reconstruct_path,
)

CONVERGED = "converged"
GUARD_HIT = "iteration-guard-hit"

DEFAULT_BUDGET = 500_000


def enumeration_budget() -> int:
    """Node cap for exhaustive enumeration, from POSP_BUDGET when set."""
    raw = os.environ.get("POSP_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_BUDGET
    return value if value > 0 else DEFAULT_BUDGET


class SolveMode(Enum):
    MIN = "min"
    MAX = "max"


@dataclass
class SolveStats:
    iterations: int = 0
    extractions: int = 0
    insertions: int = 0
    comparisons: int = 0
    merge_operations: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "iterations": self.iterations,
            "extractions": self.extractions,
            "insertions": self.insertions,
            "comparisons": self.comparisons,
            "merge_operations": self.merge_operations,
        }


@dataclass
class SolveResult:
    frontiers: list[list[Label]]
    stats: SolveStats
    status: str
    iteration_sizes: list[int] = field(default_factory=list)


def _scan(
    cmp: Callable[[Any, Any], Any],
    labels: list[Label],
    w: Any,
    keep_equal: bool,
    stats: SolveStats,
) -> list[Label] | None:
    """The dominance rule both solvers apply, stated once.

    Compares each label's weight with `w`, in order.  Returns None at the
    first label strictly below `w`, or equal to it unless `keep_equal` is
    set; otherwise the labels strictly above `w`, in order.  Comparisons
    made are added to `stats`.
    """
    beaten = []
    compared = 0
    for r in labels:
        compared += 1
        c = cmp(r.weight, w)
        if c is GREATER:
            beaten.append(r)
        elif c is LESS or (c is EQUAL and not keep_equal):
            beaten = None
            break
    stats.comparisons += compared
    return beaten


def merge(
    space: WeightSpace,
    frontier: list[Label],
    candidates: list[Label],
    mode: SolveMode = SolveMode.MIN,
    stats: SolveStats | None = None,
) -> list[Label]:
    """Merge candidates into a frontier, keeping what the mode calls efficient.

    Min mode keeps one label per nondominated weight: incumbents win ties
    against candidates, and earlier candidates win ties against later ones.
    Max mode keeps every path whose weight is not strictly dominated; a path
    already in the frontier (identified by its predecessor chain) is not
    added again, which is what makes the fixed point detectable.

    One `_scan` per candidate over the current result: a kept candidate
    evicts the incumbents it strictly beats and is appended.  The result,
    its order and the `dead` flags are those of a rejection pass followed by
    an eviction pass.  That needs no transitivity, only a dual comparator
    (`cmp(a, b)` is GREATER exactly when `cmp(b, a)` is LESS), which every
    `WeightSpace` provides.  Comparisons are added to `stats` when given.
    """
    cmp = space.comparator
    keep_equal = mode is SolveMode.MAX
    if stats is None:
        stats = SolveStats()
    result = list(frontier)
    ids = {lab.path_id() for lab in result} if keep_equal else None
    for cand in candidates:
        if keep_equal and cand.path_id() in ids:
            beaten = None
        else:
            beaten = _scan(cmp, result, cand.weight, keep_equal, stats)
        if beaten is None:
            cand.dead = True
            continue
        if beaten:
            for r in beaten:
                r.dead = True
            if keep_equal:
                ids.difference_update(r.path_id() for r in beaten)
            gone = set(beaten)
            result = [r for r in result if r not in gone]
        result.append(cand)
        if keep_equal:
            ids.add(cand.path_id())
    return result


def iteration_guard(instance: Instance) -> int:
    """Bellman's round limit: the instance's `max_iterations`, else
    max(4 * vertex count, mu + 2 when a length bound is declared).

    Round k of `bellman_solve` builds paths of k arcs, so this is also the
    longest path `mda_solve` builds a label for.
    """
    guard = instance.max_iterations
    if guard is None:
        guard = 4 * instance.vertex_count
        if MU_BOUNDED in instance.declared and instance.mu is not None:
            guard = max(guard, instance.mu + 2)
    return guard


def bellman_solve(
    instance: Instance,
    mode: SolveMode = SolveMode.MIN,
    drop_infeasible: bool = False,
) -> SolveResult:
    """Label-correcting solve to a fixed point.

    Each round extends labels along the in-arcs of every vertex and merges
    the candidates into the vertex's frontier; it stops once no frontier
    changed.  The solve is semi-naive: a round extends only the labels the
    previous round inserted (round 1 extends the root).  A label extended
    earlier produced candidates that were merged then, and under a transitive
    order some incumbent still dominates or equals each of them (or, in max
    mode, still strictly dominates it or already holds its path), so
    extending it again would only create candidates the merge rejects.  The
    result is label-for-label the result of re-extending every frontier each
    round; only the comparison count drops.  That argument needs the
    declared `relation_kind`: a space whose comparator is not transitive must
    declare ``antisymmetric-quasi-transitive``, and then every round
    re-extends every frontier.

    The iteration guard is `iteration_guard(instance)`; hitting it
    yields a result with status "iteration-guard-hit" whose frontiers are
    not final.
    """
    stats = SolveStats()
    space = instance.space
    semi_naive = space.relation_kind != QUASI_TRANSITIVE
    guard = iteration_guard(instance)

    serials = itertools.count()
    root = Label(
        vertex=instance.source,
        pred=None,
        arc=None,
        weight=space.initial,
        length=0,
        serial=next(serials),
    )
    n = instance.vertex_count
    frontiers: list[list[Label]] = [[] for _ in range(n)]
    frontiers[instance.source] = [root]
    stats.insertions += 1
    # Per vertex, the labels the last round inserted, in frontier order.
    fresh: list[list[Label]] = [list(f) for f in frontiers]

    iteration_sizes: list[int] = []
    status = CONVERGED
    k = 0
    while True:
        k += 1
        sources = fresh if semi_naive else frontiers
        new_frontiers: list[list[Label]] = []
        new_fresh: list[list[Label]] = []
        changed = False
        for v in range(n):
            candidates: list[Label] = []
            for arc in instance.in_arcs(v):
                for lab in sources[arc.tail]:
                    w = space.update(lab.weight, arc)
                    if drop_infeasible and space.is_infeasible(w):
                        continue
                    candidates.append(
                        Label(
                            vertex=v,
                            pred=lab,
                            arc=arc,
                            weight=w,
                            length=lab.length + 1,
                            serial=next(serials),
                        )
                    )
            stats.merge_operations += 1
            merged, inserted = frontiers[v], []
            if candidates:
                merged = merge(space, frontiers[v], candidates, mode, stats)
                # Kept candidates sit at the end of `merged`, in candidate order.
                inserted = [c for c in candidates if not c.dead]
                if inserted:
                    changed = True
                    stats.insertions += len(inserted)
            new_frontiers.append(merged)
            new_fresh.append(inserted)
        frontiers = new_frontiers
        fresh = new_fresh
        iteration_sizes.append(sum(len(f) for f in frontiers))
        if not changed:
            break
        if k >= guard:
            status = GUARD_HIT
            break
    stats.iterations = k

    return SolveResult(frontiers=frontiers, stats=stats, status=status, iteration_sizes=iteration_sizes)


def mda_solve(
    instance: Instance,
    mode: SolveMode = SolveMode.MIN,
    drop_infeasible: bool = False,
) -> SolveResult:
    """Label-setting solve ordered by the space's linear extension.

    One heap holds every candidate label, each pushed once when it is
    created, ordered by (linear-extension key, vertex, serial).  A popped
    label that a permanent label of its vertex dominates is dropped; any
    other becomes permanent and is extended along the out-arcs of its
    vertex.  Popping the minimum is safe whenever the linear extension is
    monotone along arcs.  Violations of that premise surface as
    `LeoMonotonicityError` with a concrete witness: either the global
    extraction order runs backwards, or an extracted label and a permanent
    one are strictly ordered.

    In min mode a label is pruned by any permanent weight at or below it
    (one path per weight); in max mode only strict domination prunes, so
    equal-weight paths accumulate.  The filter is `merge`'s `_scan` over
    the vertex's permanent labels.  It runs when a candidate is created and
    again when it is popped, since its vertex may have gained permanent
    labels in between; the pop-time scan also finds the permanent labels a
    surviving label is strictly below, which is the permanence audit.

    A candidate that survives pruning but is longer than
    `iteration_guard(instance)` arcs is dropped, and the result then has
    status "iteration-guard-hit": a cycle whose turns keep producing
    equal-weight paths in max mode would otherwise keep the queue filled
    forever.
    """
    space = instance.space
    if space.leo_key is None:
        raise NoLeoError(
            f"weight space {space.name!r} defines no linear extension; the label-setting solver needs one"
        )
    stats = SolveStats()
    cmp = space.comparator
    key_of = space.leo_key
    keep_equal = mode is SolveMode.MAX
    guard = iteration_guard(instance)
    status = CONVERGED

    n = instance.vertex_count
    permanents: list[list[Label]] = [[] for _ in range(n)]
    heap: list[list] = []
    serials = itertools.count()

    def push(label: Label) -> None:
        heapq.heappush(heap, [key_of(label.weight), label.vertex, label.serial, label])
        stats.insertions += 1

    push(
        Label(
            vertex=instance.source,
            pred=None,
            arc=None,
            weight=space.initial,
            length=0,
            serial=next(serials),
        )
    )

    last_key = None
    while heap:
        key, v, _serial, label = heapq.heappop(heap)
        beaten = _scan(cmp, permanents[v], label.weight, keep_equal, stats)
        if beaten is None:
            label.dead = True
            continue

        if last_key is not None and key < last_key:
            raise LeoMonotonicityError(
                "extraction order ran backwards under the linear extension",
                witness={
                    "path": list(reconstruct_path(label)),
                    "weight": space.render_weight(label.weight),
                    "previous_key": last_key,
                    "key": key,
                },
            )
        last_key = key

        if beaten:
            # The filter left no permanent below the label (nor, in min mode,
            # equal to it), so the first strictly ordered one is above it.
            perm = beaten[0]
            raise LeoMonotonicityError(
                "a permanent label and a later extraction are strictly ordered; "
                "the linear extension is not monotone along arcs on this instance",
                witness={
                    "permanent_path": list(reconstruct_path(perm)),
                    "permanent_weight": space.render_weight(perm.weight),
                    "extracted_path": list(reconstruct_path(label)),
                    "extracted_weight": space.render_weight(label.weight),
                    "relation": GREATER.value,
                },
            )

        permanents[v].append(label)
        stats.extractions += 1

        for arc in instance.out_arcs(v):
            u = arc.head
            w = space.update(label.weight, arc)
            if drop_infeasible and space.is_infeasible(w):
                continue
            if _scan(cmp, permanents[u], w, keep_equal, stats) is None:
                continue
            if label.length >= guard:
                status = GUARD_HIT
                continue
            push(
                Label(
                    vertex=u,
                    pred=label,
                    arc=arc,
                    weight=w,
                    length=label.length + 1,
                    serial=next(serials),
                )
            )

    return SolveResult(frontiers=permanents, stats=stats, status=status)


@dataclass(frozen=True)
class OracleEntry:
    weight: Any
    path: tuple[int, ...]


@dataclass
class OracleResult:
    entries: list[list[OracleEntry]]
    node_count: int
    max_len: int

    def weights(self, v: int) -> list[Any]:
        return [e.weight for e in self.entries[v]]

    def paths(self, v: int) -> list[tuple[int, ...]]:
        return [e.path for e in self.entries[v]]


def enumerate_source_paths(
    instance: Instance,
    max_len: int,
    budget: int | None = None,
    space: WeightSpace | None = None,
) -> tuple[list[list[tuple[tuple[int, ...], Any]]], int]:
    """All source paths of at most max_len arcs, grouped per end vertex.

    Depth-first, following arcs in index order; each discovered path counts
    one node against the budget.  Weights are folded with `space`, the
    instance's own space unless given.  Returns (per-vertex lists of
    (path, weight) in discovery order, node count).
    """
    cap = budget if budget is not None else enumeration_budget()
    space = instance.space if space is None else space
    by_vertex: list[list[tuple[tuple[int, ...], Any]]] = [
        [] for _ in range(instance.vertex_count)
    ]
    nodes = 0
    stack: list[tuple[tuple[int, ...], Any]] = [((instance.source,), space.initial)]
    while stack:
        path, w = stack.pop()
        nodes += 1
        if nodes > cap:
            raise BudgetExceededError(
                f"path enumeration exceeded the budget of {cap} nodes "
                f"(set POSP_BUDGET to raise it)"
            )
        by_vertex[path[-1]].append((path, w))
        if len(path) - 1 >= max_len:
            continue
        for arc in reversed(instance.out_arcs(path[-1])):
            stack.append((path + (arc.head,), space.update(w, arc)))
    return by_vertex, nodes


def nondominated_weights(space: WeightSpace, weights: Iterable[Any]) -> list[Any]:
    """Distinct weights not strictly dominated by any other, input order kept."""
    distinct = list(dict.fromkeys(weights))
    out = []
    for w in distinct:
        if not any(
            space.comparator(other, w) is LESS for other in distinct if other != w
        ):
            out.append(w)
    return out


def brute_force_frontier(
    instance: Instance,
    max_len: int,
    mode: SolveMode = SolveMode.MIN,
    budget: int | None = None,
) -> OracleResult:
    """Exhaustive reference frontiers for paths of at most max_len arcs.

    Min mode keeps one witness path (the first discovered) per nondominated
    weight; max mode keeps every path whose weight is nondominated.  When the
    instance declares a length bound mu, max-mode enumeration stops there —
    longer paths cannot be efficient under the bound.
    """
    effective = max_len
    if mode is SolveMode.MAX and instance.mu is not None:
        effective = min(effective, instance.mu)
    by_vertex, nodes = enumerate_source_paths(instance, effective, budget)
    space = instance.space
    entries: list[list[OracleEntry]] = []
    for v in range(instance.vertex_count):
        found = by_vertex[v]
        good = nondominated_weights(space, (w for (_p, w) in found))
        good_set = set(good)
        if mode is SolveMode.MIN:
            first_path: dict[Any, tuple[int, ...]] = {}
            for path, w in found:
                if w in good_set and w not in first_path:
                    first_path[w] = path
            entries.append([OracleEntry(w, first_path[w]) for w in good])
        else:
            entries.append(
                [OracleEntry(w, path) for (path, w) in found if w in good_set]
            )
    return OracleResult(entries=entries, node_count=nodes, max_len=effective)
