"""Property checkers and algorithm selection.

The checkers are semi-decision procedures: they enumerate paths up to a depth
and either produce a concrete violation witness or report that the condition
held to that depth.  A violation is always real; a holds-to-depth verdict is
evidence, not proof.

Since every weight structure here derives a path's weight by folding an
update function, two paths with equal weight extend equally; the checkers
therefore examine one representative path per distinct weight at each vertex,
which covers all pairs for such structures.

Every checker reads its paths from a `PathSample`; `posp check` hands one
sample to all of them, so a document's paths are enumerated once, and a
checker called without one builds its own.  The arc and linear-extension
checks read paths of at most depth - 1 arcs and extend each by one arc.  The
cycle checks extend the same paths by every closed walk at their end, and
read those extensions from the paths of at most depth arcs, so they walk no
graph of their own.  The others read paths of at most depth arcs.

The sample also carries `space`, a view of the instance's weight space that
evaluates each distinct update (weight, arc) and each distinct comparison
(a, b) once, so one `posp check` makes each such call once.  That assumes
both are functions of their arguments.  `check_history_free` is the checker
that tests the assumption, so it alone calls the raw `update`.

`evaluate_table` evaluates declared properties against the selection table:
each row lists the properties that must be declared (closed under the
implications) for an algorithm/problem combination to be safe, the further
properties those imply, and whether the label-setting solver additionally
needs a monotone linear extension.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Iterable

from .algorithms import enumerate_source_paths, nondominated_weights
from .core import (
    ARC_INCREASING,
    CYCLE_INCREASING,
    CYCLE_NON_DECREASING,
    EQUAL,
    HISTORY_FREE,
    INCOMPARABLE,
    INDEPENDENT,
    LEO_MONOTONE,
    LESS,
    MU_BOUNDED,
    NoLeoError,
    SECOND,
    SUBPATH_OPTIMAL,
    WELL_POSED,
    WEAKLY_INDEPENDENT,
    WEAKLY_SUBPATH_OPTIMAL,
    Instance,
    ValidationError,
    WeightSpace,
    leo_pick,
)

DEFAULT_DEPTH = 6

# Most distinct weights `check_linear_extension` audits the pick order on;
# its pairwise checks are quadratic in this.
LEO_SAMPLE_LIMIT = 32

HOLDS = "holds-to-depth"
VIOLATED = "violated"


@dataclass(frozen=True)
class ConditionReport:
    name: str
    verdict: str
    depth: int
    witness: dict | None = None

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS

    def to_dict(self) -> dict:
        return {
            "condition": self.name,
            "verdict": self.verdict,
            "depth": self.depth,
            "witness": self.witness,
        }


def _render(instance: Instance, w: Any) -> Any:
    return instance.space.render_weight(w)


Paths = list[list[tuple[tuple[int, ...], Any]]]


def _memoized(space: WeightSpace) -> WeightSpace:
    """`space` with `update` and `comparator` evaluated once per distinct
    arguments, keyed by identity: update results are interned, so equal
    weights are one object, and each entry holds its key objects, so their
    ids stay unique.  A call that raises stores nothing, so it raises again."""
    update, comparator = space.update, space.comparator
    canon = {space.initial: space.initial}
    updated: dict[tuple[int, int], tuple] = {}
    compared: dict[tuple[int, int], tuple] = {}

    def memo_update(w, arc):
        key = (id(w), arc.index)
        try:
            return updated[key][0]
        except KeyError:
            pass
        result = update(w, arc)
        updated[key] = entry = (canon.setdefault(result, result), w)
        return entry[0]

    def memo_comparator(a, b):
        key = (id(a), id(b))
        try:
            return compared[key][0]
        except KeyError:
            pass
        compared[key] = entry = (comparator(a, b), a, b)
        return entry[0]

    return dataclasses.replace(space, update=memo_update, comparator=memo_comparator)


class PathSample:
    """The source paths the checkers examine, enumerated once.

    The sample enumerates at the deepest depth asked for so far and serves a
    shallower depth by keeping the paths of at most that many arcs, and always
    the source path: depth-first preorder restricted to shorter paths is
    exactly the shallower enumeration's discovery order.

    `space` is the instance's weight space memoized for the life of the
    sample; the enumeration and every checker but `check_history_free` use it.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self.space = _memoized(instance.space)
        self.depth = -1
        self.by_vertex: Paths = []
        self._reps: dict[int, Paths] = {}

    def paths(self, depth: int) -> Paths:
        """(path, weight) per path of at most `depth` arcs, per end vertex, in
        discovery order; a negative depth selects no paths."""
        if depth < 0:
            return [[] for _ in range(self.instance.vertex_count)]
        if depth > self.depth:
            self.by_vertex, _ = enumerate_source_paths(self.instance, depth, space=self.space)
            self.depth = depth
        if depth == self.depth:
            return self.by_vertex
        return [[(p, w) for p, w in found if len(p) <= depth + 1] for found in self.by_vertex]

    def representatives(self, depth: int) -> Paths:
        """One (path, weight) per distinct weight per vertex, discovery order."""
        if depth not in self._reps:
            self._reps[depth] = []
            for found in self.paths(depth):
                seen: dict[Any, tuple[int, ...]] = {}
                for path, w in found:
                    seen.setdefault(w, path)
                self._reps[depth].append([(p, w) for w, p in seen.items()])
        return self._reps[depth]


def check_history_free(
    instance: Instance, depth: int = DEFAULT_DEPTH, paths: PathSample | None = None
) -> ConditionReport:
    """Equal-weight paths to the same vertex must extend to equal weights.

    The check applies `space.update(w, arc)` once per path of each
    equal-weight group, with the same arguments every time.  It therefore
    holds by construction for every space that folds an update function,
    which includes every built-in space; it can only catch an `update` whose
    result is not a function of (weight, arc).  That is the assumption the
    sample's memoized space rests on, so this check calls the instance's raw
    `update`: through the memo it would hold vacuously.
    """
    by_vertex = (paths or PathSample(instance)).paths(depth)
    space = instance.space
    for v in range(instance.vertex_count):
        groups: dict[Any, list[tuple[int, ...]]] = {}
        for path, w in by_vertex[v]:
            groups.setdefault(w, []).append(path)
        for w, paths in groups.items():
            if len(paths) < 2:
                continue
            base = paths[0]
            for arc in instance.out_arcs(v):
                w_base = space.update(w, arc)
                for other in paths[1:]:
                    w_other = space.update(w, arc)
                    if w_base != w_other:
                        return ConditionReport(
                            name="history-free",
                            verdict=VIOLATED,
                            depth=depth,
                            witness={
                                "paths": [list(base), list(other)],
                                "arc": list(arc.key),
                                "weight": _render(instance, w),
                                "extended_weights": [
                                    _render(instance, w_base),
                                    _render(instance, w_other),
                                ],
                            },
                        )
    return ConditionReport("history-free", HOLDS, depth)


def check_independence(
    instance: Instance,
    depth: int = DEFAULT_DEPTH,
    mode: str = "strict",
    paths: PathSample | None = None,
) -> ConditionReport:
    """Strictly ordered weights must stay ordered after a common extension.

    Strict mode demands the strict order be preserved; weak mode allows the
    extension to equalize them.
    """
    if mode not in ("strict", "weak"):
        raise ValidationError(f"unknown independence mode {mode!r}")
    name = INDEPENDENT if mode == "strict" else WEAKLY_INDEPENDENT
    accept = _ACCEPTS[name]
    sample = paths or PathSample(instance)
    reps = sample.representatives(depth)
    space = sample.space
    for v in range(instance.vertex_count):
        found = reps[v]
        for i in range(len(found)):
            for j in range(len(found)):
                if i == j:
                    continue
                p_lo, w_lo = found[i]
                p_hi, w_hi = found[j]
                if space.comparator(w_lo, w_hi) is not LESS:
                    continue
                for arc in instance.out_arcs(v):
                    e_lo = space.update(w_lo, arc)
                    e_hi = space.update(w_hi, arc)
                    rel = space.comparator(e_lo, e_hi)
                    if rel not in accept:
                        return ConditionReport(
                            name=name,
                            verdict=VIOLATED,
                            depth=depth,
                            witness={
                                "paths": [list(p_lo), list(p_hi)],
                                "arc": list(arc.key),
                                "weights": [
                                    _render(instance, w_lo),
                                    _render(instance, w_hi),
                                ],
                                "extended_weights": [
                                    _render(instance, e_lo),
                                    _render(instance, e_hi),
                                ],
                                "extended_relation": rel.value,
                            },
                        )
    return ConditionReport(name, HOLDS, depth)


# The relations each condition accepts (see its checker for what it compares).
_ACCEPTS = {
    INDEPENDENT: (LESS,),
    WEAKLY_INDEPENDENT: (LESS, EQUAL),
    "arc-non-decreasing": (LESS, EQUAL, INCOMPARABLE),
    "arc-increasing": (LESS, EQUAL),
    "strict-arc": (LESS,),
    "cycle-non-decreasing": (LESS, EQUAL, INCOMPARABLE),
    "cycle-increasing": (LESS, EQUAL),
    "strict-cycle": (LESS,),
}
MONOTONICITY_KINDS = tuple(_ACCEPTS)[2:]  # three arc kinds, then three cycle kinds


def _arc_extensions(sample: PathSample, depth: int):
    """(path, weight, arc, extended weight) for every representative path of
    at most depth - 1 arcs and every arc leaving its end, in sample order."""
    instance, update = sample.instance, sample.space.update
    reps = sample.representatives(depth - 1)
    for v in range(instance.vertex_count):
        for path, w in reps[v]:
            for arc in instance.out_arcs(v):
                yield path, w, arc, update(w, arc)


def check_monotonicity(
    instance: Instance,
    depth: int = DEFAULT_DEPTH,
    kind: str = "cycle-non-decreasing",
    paths: PathSample | None = None,
) -> ConditionReport:
    """Compare a path's weight with its extensions along arcs or cycles.

    `rel` below is compare(W(p), W(p extended)).  The arc kinds extend each
    representative path of at most depth - 1 arcs by one arc.  The cycle
    kinds extend it by every closed walk at its head, total length at most
    the depth: those extensions are sample paths of at most depth arcs.
    """
    if kind not in MONOTONICITY_KINDS:
        raise ValidationError(f"unknown monotonicity kind {kind!r}")
    accept = _ACCEPTS[kind]
    sample = paths or PathSample(instance)
    space = sample.space

    def violated(path, w, step, where, w2, rel):
        weights = [_render(instance, w), _render(instance, w2)]
        witness = {"path": list(path), step: list(where), "weights": weights, "relation": rel.value}
        return ConditionReport(kind, VIOLATED, depth, witness)

    if kind in MONOTONICITY_KINDS[:3]:
        for path, w, arc, w2 in _arc_extensions(sample, depth):
            rel = space.comparator(w, w2)
            if rel not in accept:
                return violated(path, w, "arc", arc.key, w2, rel)
        return ConditionReport(kind, HOLDS, depth)

    # The sample lists paths in depth-first preorder, so the paths extending
    # `path`, kept to those that end where it does, are the run right after
    # it in its vertex's list whose paths start with it.  The representatives
    # keep that order, so one cursor per vertex finds each of them.
    # Enumerating at `depth` first serves the representatives too.
    by_vertex = sample.paths(depth)
    reps = sample.representatives(depth - 1)
    for v in range(instance.vertex_count):
        found, at = by_vertex[v], 0
        for path, w in reps[v]:
            while found[at][0] != path:
                at += 1
            k, j = len(path), at + 1
            while j < len(found) and found[j][0][:k] == path:
                q, w2 = found[j]
                rel = space.comparator(w, w2)
                if rel not in accept:
                    return violated(path, w, "cycle", q[k - 1 :], w2, rel)
                j += 1
    return ConditionReport(kind, HOLDS, depth)


def check_subpath_optimality(
    instance: Instance,
    depth: int = DEFAULT_DEPTH,
    mode: str = "strong",
    paths: PathSample | None = None,
) -> ConditionReport:
    """Do efficient paths have efficient prefixes?

    Strong mode requires it of every efficient path; weak mode requires, per
    nondominated weight, at least one witness path all of whose prefixes are
    efficient.  Efficiency is always judged against everything enumerated to
    the given depth.
    """
    if mode not in ("strong", "weak"):
        raise ValidationError(f"unknown subpath-optimality mode {mode!r}")
    name = SUBPATH_OPTIMAL if mode == "strong" else WEAKLY_SUBPATH_OPTIMAL
    sample = paths or PathSample(instance)
    by_vertex = sample.paths(depth)
    space = sample.space
    weight_of: dict[tuple[int, ...], Any] = {}
    for found in by_vertex:
        for path, w in found:
            weight_of[path] = w
    nd: list[set] = []
    nd_order: list[list[Any]] = []
    for v in range(instance.vertex_count):
        good = nondominated_weights(space, (w for _p, w in by_vertex[v]))
        nd_order.append(good)
        nd.append(set(good))

    def first_dominated_prefix(path: tuple[int, ...]):
        for i in range(1, len(path)):
            prefix = path[:i]
            if weight_of[prefix] not in nd[prefix[-1]]:
                return prefix
        return None

    def dominator(prefix: tuple[int, ...]):
        # The prefix's weight is not in `nd`: a weight below it was enumerated.
        pw = weight_of[prefix]
        return next((cand, w) for cand, w in by_vertex[prefix[-1]] if space.comparator(w, pw) is LESS)

    def violation(path: tuple[int, ...], w: Any, prefix: tuple[int, ...]) -> dict:
        dom_path, dom_w = dominator(prefix)
        return {
            "path": list(path),
            "weight": _render(instance, w),
            "prefix": list(prefix),
            "prefix_weight": _render(instance, weight_of[prefix]),
            "dominating_path": list(dom_path),
            "dominating_weight": _render(instance, dom_w),
        }

    if mode == "strong":
        for v in range(instance.vertex_count):
            for path, w in by_vertex[v]:
                if w not in nd[v]:
                    continue
                prefix = first_dominated_prefix(path)
                if prefix is not None:
                    return ConditionReport(name, VIOLATED, depth, violation(path, w, prefix))
        return ConditionReport(name, HOLDS, depth)

    for v in range(instance.vertex_count):
        for w in nd_order[v]:
            witnesses = [p for p, pw in by_vertex[v] if pw == w]
            if any(first_dominated_prefix(p) is None for p in witnesses):
                continue
            path = witnesses[0]
            witness = violation(path, w, first_dominated_prefix(path))
            # A weak-mode witness is about the weight, so it lists it first.
            return ConditionReport(
                name, VIOLATED, depth, {"weight": witness["weight"], **witness}
            )
    return ConditionReport(name, HOLDS, depth)


def check_linear_extension(
    instance: Instance,
    depth: int = DEFAULT_DEPTH,
    paths: PathSample | None = None,
) -> ConditionReport:
    """Audit the space's linear extension.

    Checks, on a weight sample (the distinct weights reachable within the
    depth, truncated to `LEO_SAMPLE_LIMIT`): reflexivity, totality,
    antisymmetry and transitivity of the pick order, and that strict
    dominance implies being picked first.  Then checks monotonicity along
    arcs — every enumerated path must be picked over each of its one-arc
    extensions.
    """
    paths = paths or PathSample(instance)
    space = paths.space
    if space.leo_key is None:
        raise NoLeoError(f"weight space {space.name!r} has no linear extension to check")
    reps = paths.representatives(depth - 1)
    sample = list(dict.fromkeys(w for found in reps for _p, w in found))[:LEO_SAMPLE_LIMIT]

    def violated(kind, a, b, **extra):
        witness = {"kind": kind, "weights": [_render(instance, a), _render(instance, b)]}
        return ConditionReport("linear-extension", VIOLATED, depth, {**witness, **extra})

    # a is picked over b (leo_pick gives FIRST) exactly when keys[a] <= keys[b].
    keys = [space.leo_key(w) for w in sample]
    for a, ka in zip(sample, keys):
        if not ka <= ka:
            return violated("reflexivity", a, a)
    # Bit j of over[i] is set when sample[i] is picked over sample[j].
    over = []
    for a, ka in zip(sample, keys):
        mask = 0
        for j, (b, kb) in enumerate(zip(sample, keys)):
            ab_first = ka <= kb
            ba_first = kb <= ka
            if not ab_first and not ba_first:
                return violated("totality", a, b)
            if ab_first and ba_first and a != b:
                return violated("antisymmetry", a, b)
            if ab_first:
                mask |= 1 << j
            elif space.comparator(a, b) is LESS:
                return violated("dominance-agreement", a, b)
        over.append(mask)
    # The first (a, b, c) in sample order with a over b, b over c and not a
    # over c: for each b under a in order, the lowest c under b but not a.
    for i, a in enumerate(sample):
        rest = over[i]
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            beyond = over[j] & ~over[i]
            if beyond:
                c = sample[(beyond & -beyond).bit_length() - 1]
                return violated("transitivity", a, c, via=_render(instance, sample[j]))
            rest ^= low

    for path, w, arc, w2 in _arc_extensions(paths, depth):
        if leo_pick(space, w, w2) == SECOND:
            return violated("arc-monotonicity", w, w2, path=list(path), arc=list(arc.key))
    return ConditionReport("linear-extension", HOLDS, depth)


# ---------------------------------------------------------------------------
# Declared property sets and algorithm selection.

IMPLICATIONS: tuple[tuple[str, str], ...] = (
    (INDEPENDENT, WEAKLY_INDEPENDENT),
    (ARC_INCREASING, CYCLE_INCREASING),
    (CYCLE_INCREASING, CYCLE_NON_DECREASING),
    (SUBPATH_OPTIMAL, WEAKLY_SUBPATH_OPTIMAL),
)


@dataclass(frozen=True)
class PropertySet:
    properties: frozenset[str]

    def __init__(self, properties: Iterable[str]):
        object.__setattr__(self, "properties", frozenset(properties))

    def closed(self) -> frozenset[str]:
        """Closure under the property implications."""
        closed = set(self.properties)
        changed = True
        while changed:
            changed = False
            for pre, post in IMPLICATIONS:
                if pre in closed and post not in closed:
                    closed.add(post)
                    changed = True
        return frozenset(closed)


LEO_NONE = "none"
LEO_REQUIRED = "required"
LEO_IMPLIED = "implied"


@dataclass(frozen=True)
class TableRow:
    """One safe algorithm/problem combination.

    `required` are the properties that must be declared; `implied` follow
    from them.  `leo` records whether the combination additionally needs a
    monotone linear extension outright, or gets one from any
    dominance-respecting linear extension because the weights are
    arc-increasing.
    """

    index: int
    algorithm: str
    problem: str
    required: frozenset[str]
    implied: frozenset[str]
    leo: str
    guarantee: str
    basis: tuple[str, ...]


def _row(index, algorithm, problem, required, implied, leo, guarantee, basis):
    return TableRow(
        index=index,
        algorithm=algorithm,
        problem=problem,
        required=frozenset(required),
        implied=frozenset(implied),
        leo=leo,
        guarantee=guarantee,
        basis=tuple(basis),
    )


_WP = WELL_POSED
_H = HISTORY_FREE
_CWND = CYCLE_NON_DECREASING
_CWI = CYCLE_INCREASING
_A = ARC_INCREASING
_WI = WEAKLY_INDEPENDENT
_I = INDEPENDENT
_WSO = WEAKLY_SUBPATH_OPTIMAL
_SO = SUBPATH_OPTIMAL
_MU = MU_BOUNDED

_B_MIN = "min-complete-under-weak-independence"
_B_WSO = "min-complete-under-subpath-witnesses"
_B_MAX = "max-complete-under-length-bound"
_B_ISO = "independence-implies-prefix-efficiency"
_B_CG = "cycle-growth-implies-subpath-witnesses"
_B_LB = "length-bound-implies-subpath-witnesses"
_B_CS = "cycle-stability-implies-subpath-witnesses"
_B_MDA_MIN = "label-setting-min-correctness"
_B_MDA_MAX = "label-setting-max-correctness"

TABLE_ROWS: tuple[TableRow, ...] = (
    _row(1, "bellman", "min", {_WP, _H, _WI}, set(), LEO_NONE, "minimal", (_B_MIN,)),
    _row(2, "bellman", "min", {_WP, _H, _WSO}, set(), LEO_NONE, "minimal", (_B_WSO,)),
    _row(3, "bellman", "min", {_H, _WSO, _MU}, {_WP}, LEO_NONE, "minimal", (_B_WSO,)),
    _row(4, "bellman", "min", {_H, _CWI, _WI}, {_WP, _CWND, _WSO}, LEO_NONE, "minimal", (_B_CG, _B_WSO)),
    _row(5, "bellman", "min", {_H, _A, _WI}, {_WP, _CWND, _CWI, _WSO}, LEO_NONE, "minimal", (_B_CG, _B_WSO)),
    _row(6, "bellman", "min", {_H, _WI, _MU}, {_WP, _WSO}, LEO_NONE, "minimal", (_B_LB, _B_WSO)),
    _row(7, "bellman", "complete", {_WSO, _MU}, {_WP}, LEO_NONE, "complete", (_B_MAX,)),
    _row(8, "bellman", "max", {_SO, _MU}, {_WP, _WSO}, LEO_NONE, "maximal", (_B_MAX,)),
    _row(9, "bellman", "max", {_I, _MU}, {_WP, _WSO, _SO}, LEO_NONE, "maximal", (_B_ISO, _B_MAX)),
    _row(10, "mda", "min", {_WP, _H, _WSO}, set(), LEO_REQUIRED, "minimal", (_B_MDA_MIN,)),
    _row(11, "mda", "min", {_WP, _H, _A, _WSO}, {_CWND, _CWI}, LEO_IMPLIED, "minimal", (_B_MDA_MIN,)),
    _row(12, "mda", "min", {_H, _WSO, _MU}, {_WP}, LEO_REQUIRED, "minimal", (_B_MDA_MIN,)),
    _row(13, "mda", "min", {_H, _A, _WSO, _MU}, {_WP, _CWND, _CWI}, LEO_IMPLIED, "minimal", (_B_MDA_MIN,)),
    _row(14, "mda", "min", {_H, _CWI, _WI}, {_WP, _CWND, _WSO}, LEO_REQUIRED, "minimal", (_B_CG, _B_MDA_MIN)),
    _row(15, "mda", "min", {_H, _A, _WI}, {_WP, _CWND, _CWI, _WSO}, LEO_IMPLIED, "minimal", (_B_CG, _B_MDA_MIN)),
    _row(16, "mda", "min", {_H, _WI, _MU}, {_WP, _WSO}, LEO_REQUIRED, "minimal", (_B_LB, _B_MDA_MIN)),
    _row(17, "mda", "min", {_WP, _H, _CWND, _WI}, {_WSO}, LEO_REQUIRED, "minimal", (_B_CS, _B_MDA_MIN)),
    _row(18, "mda", "complete", {_WSO, _MU}, {_WP}, LEO_REQUIRED, "complete", (_B_MDA_MAX,)),
    _row(19, "mda", "complete", {_A, _WSO, _MU}, {_WP, _CWND, _CWI}, LEO_IMPLIED, "complete", (_B_MDA_MAX,)),
    _row(20, "mda", "complete", {_H, _WI, _MU}, {_WP, _WSO}, LEO_IMPLIED, "complete", (_B_LB, _B_MDA_MAX)),
    _row(21, "mda", "max", {_SO, _MU}, {_WP, _WSO}, LEO_REQUIRED, "maximal", (_B_MDA_MAX,)),
    _row(22, "mda", "max", {_I, _MU}, {_WP, _WSO, _SO}, LEO_REQUIRED, "maximal", (_B_ISO, _B_MDA_MAX)),
    _row(23, "mda", "max", {_A, _SO, _MU}, {_WP, _CWND, _CWI, _WSO}, LEO_IMPLIED, "maximal", (_B_MDA_MAX,)),
    _row(24, "mda", "max", {_A, _I, _MU}, {_WP, _CWND, _CWI, _WSO, _SO}, LEO_IMPLIED, "maximal", (_B_ISO, _B_MDA_MAX)),
)


@dataclass(frozen=True)
class RowEvaluation:
    row: TableRow
    satisfied: bool
    missing: tuple[str, ...]


def _variant_matches(row: TableRow, variant: str) -> bool:
    if variant == "min":
        return row.problem == "min"
    if variant == "max":
        return row.problem in ("max", "complete")
    raise ValidationError(f"unknown variant {variant!r}")


def evaluate_table(
    properties: Iterable[str] | PropertySet, variant: str | None = None
) -> list[RowEvaluation]:
    """Evaluate every selection-table row against a closed property set.

    The linear-extension column never gates a row here; running the
    label-setting solver additionally requires the weight space to supply a
    linear extension justified by `mda_leo_justified`.
    """
    props = properties if isinstance(properties, PropertySet) else PropertySet(properties)
    closed = props.closed()
    out = []
    for row in TABLE_ROWS:
        if variant is not None and not _variant_matches(row, variant):
            continue
        missing = tuple(sorted(row.required - closed))
        out.append(RowEvaluation(row=row, satisfied=not missing, missing=missing))
    return out


def mda_leo_justified(closed: frozenset[str]) -> bool:
    """Is a monotone linear extension available by declaration or implication?

    Either the instance declares monotonicity outright, or its weights are
    arc-increasing, in which case any dominance-respecting linear extension
    is monotone along arcs.
    """
    return LEO_MONOTONE in closed or ARC_INCREASING in closed


def permitted_algorithms(
    properties: Iterable[str] | PropertySet, variant: str, has_leo: bool
) -> dict[str, bool]:
    """Which solver families are safe for the declared properties."""
    props = properties if isinstance(properties, PropertySet) else PropertySet(properties)
    closed = props.closed()
    found = {row.algorithm for row in TABLE_ROWS if _variant_matches(row, variant) and row.required <= closed}
    return {
        "bellman": "bellman" in found,
        "mda": "mda" in found and has_leo and mda_leo_justified(closed),
    }
