"""Solvers and the enumeration oracle.

Two solvers share the label model from `core`; a frontier is a vertex's list
of labels:

- `bellman_solve` — label-correcting fixed point, semi-naive: every round
  extends only the labels the previous round inserted, along the out-arcs
  of their vertex, and merges; it stops when nothing changes.
- `mda_solve` — label-setting: one priority queue keyed by the weight
  space's linear extension holds every candidate label; a popped label that
  no permanent label of its vertex dominates becomes permanent.

Both apply one dominance rule, `_scan`: Bellman to merge candidates into a
frontier, MDA to filter candidates and audit popped labels.  A comparator
may carry its own kernel for that rule (see `_scan`).

`brute_force_frontier` is the oracle both are tested against: plain DFS path
enumeration up to a length cap followed by a pairwise dominance filter.  Its
node count is capped by the POSP_BUDGET environment variable.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import os
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterable

from .core import (
    EQUAL,
    GREATER,
    INCOMPARABLE,
    LESS,
    BudgetExceededError,
    Instance,
    Label,
    LeoMonotonicityError,
    MU_BOUNDED,
    NoLeoError,
    ValidationError,
    WeightSpace,
    reconstruct_path,
)

CONVERGED = "converged"
GUARD_HIT = "iteration-guard-hit"

DEFAULT_BUDGET = 500_000


def enumeration_budget() -> int:
    """Node cap for exhaustive enumeration: POSP_BUDGET when set, which must
    then be a positive integer, else `DEFAULT_BUDGET`."""
    raw = os.environ.get("POSP_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValidationError(f"expected a positive integer, got {raw!r}", "POSP_BUDGET")
    return value


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
        """The counters by field name, in field order."""
        return dict(vars(self))


@dataclass
class SolveResult:
    frontiers: list[list[Label]]
    stats: SolveStats
    status: str
    iteration_sizes: list[int] = field(default_factory=list)


def _scan(
    cmp: Callable[[Any, Any], Any],
    weights: list[Any],
    w: Any,
    keep_equal: bool,
    stats: SolveStats,
) -> list[int] | None:
    """The dominance rule both solvers apply, stated once.

    Compares each weight of a frontier with `w`, in order.  Returns None at
    the first weight strictly below `w`, or equal to it unless `keep_equal`
    is set; otherwise the positions of the weights strictly above `w`, in
    order.  Comparisons made are added to `stats`.  Only the solvers know
    which label sits at a position.

    A comparator may carry a kernel for this rule as its `scan` attribute,
    called like `_scan` and returning and counting what `_scan` would; the
    solvers use it when present.  It belongs to the comparator object, so a
    view of a space that replaces the comparator runs `_scan` through the
    replacement.
    """
    beaten = []
    for i, rw in enumerate(weights):
        c = cmp(rw, w)
        if c is INCOMPARABLE:
            continue
        if c is GREATER:
            beaten.append(i)
        elif c is LESS or (c is EQUAL and not keep_equal):
            stats.comparisons += i + 1
            return None
    stats.comparisons += len(weights)
    return beaten


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

    Each round extends labels along the in-arcs of every vertex that an arc
    from a vertex with labels to extend reaches, and merges the candidates
    into the vertex's frontier; it stops once no frontier changed.  The
    solve is semi-naive: a round extends only the labels the previous round
    inserted (round 1 extends the root).  A label extended earlier produced
    candidates that were merged then, and under a transitive order some
    incumbent still dominates or equals each of them (or, in max mode, still
    strictly dominates it or already holds its path), so extending it again
    would only create candidates the merge rejects.  The result is
    label-for-label the result of re-extending every frontier each round;
    only the comparison count drops.  The argument needs LESS to be
    transitive, which the `WeightSpace` contract asks of every comparator.

    The merge keeps what the mode calls efficient.  Min mode keeps one
    label per nondominated weight: incumbents win ties against candidates,
    and earlier candidates win ties against later ones.  Max mode keeps
    every path whose weight is not strictly dominated; a label is extended
    in one round only, so no path comes in twice.  Candidates come in in-arc
    order, then in the order of their tail's labels; each runs one `_scan`
    over the current frontier.  A kept candidate becomes a label, evicts the
    incumbents it strictly beats and is appended; no label is built for a
    rejected one.  The frontier and its order are those of a rejection pass
    and an eviction pass.  That needs no transitivity, only a dual
    comparator (`cmp(a, b)` is GREATER exactly when `cmp(b, a)` is LESS).

    The iteration guard is `iteration_guard(instance)`; hitting it
    yields a result with status "iteration-guard-hit" whose frontiers are
    not final.
    """
    stats = SolveStats()
    space = instance.space
    guard = iteration_guard(instance)
    cmp = space.comparator
    scan = getattr(cmp, "scan", _scan)
    keep_equal = mode is SolveMode.MAX

    root = Label(instance.source, None, space.initial, 0)
    n = instance.vertex_count
    frontiers: list[list[Label]] = [[] for _ in range(n)]
    frontiers[instance.source] = [root]
    # By vertex, the weights of its frontier's labels, in frontier order.
    weight_lists: list[list[Any]] = [[] for _ in range(n)]
    weight_lists[instance.source] = [root.weight]
    stats.insertions += 1
    # By vertex, the labels the last round inserted, in frontier order.
    fresh: dict[int, list[Label]] = {instance.source: [root]}

    update = space.update
    infeasible = space.infeasible if drop_infeasible else None
    in_arcs, out_arcs = instance.in_arcs, instance.out_arcs
    size = 1
    iteration_sizes: list[int] = []
    status = CONVERGED
    k = 0
    while True:
        k += 1
        sources, fresh = fresh, {}
        # Only the heads of arcs leaving a source can receive candidates.
        heads = {arc.head for u in sources for arc in out_arcs(u)}
        for v in heads:
            frontier, weights = frontiers[v], weight_lists[v]
            before = old = len(frontier)
            # Candidates are only appended, so the incumbents that survive
            # are frontier[:old] and the labels this round keeps frontier[old:].
            for arc in in_arcs(v):
                for lab in sources.get(arc.tail, ()):
                    w = update(lab.weight, arc)
                    if infeasible is not None and infeasible(w):
                        continue
                    beaten = scan(cmp, weights, w, keep_equal, stats)
                    if beaten is None:
                        continue
                    if beaten:
                        old -= bisect.bisect_left(beaten, old)
                        for i in reversed(beaten):
                            del frontier[i], weights[i]
                    frontier.append(Label(v, lab, w, lab.length + 1))
                    weights.append(w)
            if len(frontier) > old:
                size += len(frontier) - before
                fresh[v] = frontier[old:]
                stats.insertions += len(frontier) - old
        iteration_sizes.append(size)
        if not fresh:
            break
        if k >= guard:
            status = GUARD_HIT
            break
    stats.iterations = k
    # Every round counts as one merge into every vertex.
    stats.merge_operations = n * k

    return SolveResult(frontiers=frontiers, stats=stats, status=status, iteration_sizes=iteration_sizes)


def mda_solve(
    instance: Instance,
    mode: SolveMode = SolveMode.MIN,
    drop_infeasible: bool = False,
) -> SolveResult:
    """Label-setting solve ordered by the space's linear extension.

    One heap holds every candidate label, each pushed once when it is
    created, ordered by (linear-extension key, vertex, creation order).  A
    popped label that a permanent label of its vertex dominates is dropped;
    any other becomes permanent and is extended along the out-arcs of its
    vertex.  Popping the minimum is safe whenever the linear extension is
    monotone along arcs.  Violations of that premise surface as
    `LeoMonotonicityError` with a concrete witness: either the global
    extraction order runs backwards, or an extracted label and a permanent
    one are strictly ordered.

    In min mode a label is pruned by any permanent weight at or below it
    (one path per weight); in max mode only strict domination prunes, so
    equal-weight paths accumulate.  The filter is Bellman's `_scan` over
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
    scan = getattr(cmp, "scan", _scan)
    key_of = space.leo_key
    keep_equal = mode is SolveMode.MAX
    guard = iteration_guard(instance)
    status = CONVERGED

    n = instance.vertex_count
    permanents: list[list[Label]] = [[] for _ in range(n)]
    # By vertex, the weights of its permanent labels, in the same order.
    weight_lists: list[list[Any]] = [[] for _ in range(n)]
    heap: list[list] = []
    serials = itertools.count()

    update = space.update
    infeasible = space.infeasible if drop_infeasible else None
    out_arcs = instance.out_arcs
    root = Label(instance.source, None, space.initial, 0)
    heapq.heappush(heap, [key_of(root.weight), root.vertex, next(serials), root])
    stats.insertions += 1

    last_key = None
    while heap:
        key, v, _serial, label = heapq.heappop(heap)
        beaten = scan(cmp, weight_lists[v], label.weight, keep_equal, stats)
        if beaten is None:
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
            perm = permanents[v][beaten[0]]
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
        weight_lists[v].append(label.weight)
        stats.extractions += 1

        for arc in out_arcs(v):
            u = arc.head
            w = update(label.weight, arc)
            if infeasible is not None and infeasible(w):
                continue
            if scan(cmp, weight_lists[u], w, keep_equal, stats) is None:
                continue
            if label.length >= guard:
                status = GUARD_HIT
                continue
            heapq.heappush(heap, [key_of(w), u, next(serials), Label(u, label, w, label.length + 1)])
            stats.insertions += 1

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


def enumerate_source_paths(
    instance: Instance,
    max_len: int,
    space: WeightSpace | None = None,
) -> tuple[list[list[tuple[tuple[int, ...], Any]]], int]:
    """All source paths of at most max_len arcs, grouped per end vertex.

    Depth-first, following arcs in index order; each discovered path counts
    one node against `enumeration_budget()`.  Weights are folded with `space`, the
    instance's own space unless given.  Returns (per-vertex lists of
    (path, weight) in discovery order, node count).
    """
    cap = enumeration_budget()
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
    by_vertex, nodes = enumerate_source_paths(instance, effective)
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
