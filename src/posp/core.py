"""Graph model, weight-space abstraction, and path labels.

A weight space bundles a value domain, a partial order on it (given as a
four-way comparator), an arc update function, an initial weight, and an
optional total-order key used by the label-setting solver.  An instance binds
a digraph and a source vertex to a weight space together with the properties
the caller declares to hold for it.

Labels are immutable records linked through predecessor references; a label
*is* a path, and two labels represent the same path exactly when their
(predecessor serial, arc) pairs coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterable, Sequence


class PospError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PospError):
    """Malformed input: schema, parameter range, or graph shape."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class DomainMismatchError(PospError):
    """A weight value does not belong to the space it was used with."""


class MissingUpdateEntryError(PospError):
    """A table space has no update entry and no default for a (weight, arc) pair."""


class NoLeoError(PospError):
    """The weight space does not define a linear-extension order."""


class BudgetExceededError(PospError):
    """Path enumeration exceeded the configured node budget."""


class LeoMonotonicityError(PospError):
    """The label-setting solver observed an extraction order contradiction.

    Carries a human-readable counterexample: the extraction order ran
    backwards, or a later extraction strictly dominated a permanent label,
    neither of which can happen when the linear extension is monotone along
    arcs.
    """

    def __init__(self, message: str, witness: dict | None = None):
        self.witness = witness or {}
        super().__init__(message)


class ComparisonResult(Enum):
    """Four-way outcome of comparing two weights under a partial order."""

    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"

    def flipped(self) -> "ComparisonResult":
        if self is ComparisonResult.LESS:
            return ComparisonResult.GREATER
        if self is ComparisonResult.GREATER:
            return ComparisonResult.LESS
        return self


LESS = ComparisonResult.LESS
EQUAL = ComparisonResult.EQUAL
GREATER = ComparisonResult.GREATER
INCOMPARABLE = ComparisonResult.INCOMPARABLE

#: Relation kinds a comparator may declare.
PARTIAL_ORDER = "partial-order"
QUASI_TRANSITIVE = "antisymmetric-quasi-transitive"

#: leo_pick outcomes.
FIRST = "first"
SECOND = "second"

# Property names an instance may declare.
WELL_POSED = "well-posed"
HISTORY_FREE = "history-free"
WEAKLY_INDEPENDENT = "weakly-independent"
INDEPENDENT = "independent"
ARC_INCREASING = "arc-increasing"
CYCLE_INCREASING = "cycle-increasing"
CYCLE_NON_DECREASING = "cycle-non-decreasing"
WEAKLY_SUBPATH_OPTIMAL = "weakly-subpath-optimal"
SUBPATH_OPTIMAL = "subpath-optimal"
MU_BOUNDED = "mu-bounded"
LEO_MONOTONE = "leo-monotone"

ALL_PROPERTIES = frozenset(
    {
        WELL_POSED,
        HISTORY_FREE,
        WEAKLY_INDEPENDENT,
        INDEPENDENT,
        ARC_INCREASING,
        CYCLE_INCREASING,
        CYCLE_NON_DECREASING,
        WEAKLY_SUBPATH_OPTIMAL,
        SUBPATH_OPTIMAL,
        MU_BOUNDED,
        LEO_MONOTONE,
    }
)


@dataclass(frozen=True)
class Arc:
    """Directed arc.  Loops are allowed; parallel arcs are not."""

    index: int
    tail: int
    head: int

    @property
    def key(self) -> tuple[int, int]:
        return (self.tail, self.head)


@dataclass(frozen=True)
class WeightSpace:
    """A partially ordered value domain with an arc update function.

    comparator(a, b) must be antisymmetric up to structural equality; its
    transitivity requirement is relaxed when relation_kind is
    ``antisymmetric-quasi-transitive``.  leo_key, when present, maps a weight
    to a tuple whose natural ordering is a linear extension of the order
    (equal keys only for structurally equal weights).
    """

    name: str
    comparator: Callable[[Any, Any], ComparisonResult]
    update: Callable[[Any, Arc], Any]
    initial: Any
    leo_key: Callable[[Any], tuple] | None = None
    relation_kind: str = PARTIAL_ORDER
    render: Callable[[Any], Any] | None = None
    infeasible: Callable[[Any], bool] | None = None

    def is_infeasible(self, weight: Any) -> bool:
        return self.infeasible is not None and self.infeasible(weight)

    def render_weight(self, weight: Any) -> Any:
        if self.render is None:
            return repr(weight)
        return self.render(weight)


def leo_pick(space: WeightSpace, a: Any, b: Any) -> str:
    """Which of two weights comes first in the space's linear extension.

    Returns ``"first"`` when a precedes b (or the two are equal) and
    ``"second"`` otherwise.  Raises NoLeoError when the space defines no
    linear extension.
    """
    if space.leo_key is None:
        raise NoLeoError(f"weight space {space.name!r} has no linear extension")
    return FIRST if space.leo_key(a) <= space.leo_key(b) else SECOND


@dataclass(frozen=True)
class Instance:
    """A digraph with a source vertex bound to a weight space.

    `declared` is the set of property names the caller asserts; nothing here
    verifies them (the conditions module audits declarations on request).
    """

    vertex_count: int
    arcs: tuple[Arc, ...]
    source: int
    space: WeightSpace
    declared: frozenset[str] = frozenset()
    mu: int | None = None
    max_iterations: int | None = None
    name: str = "instance"

    def __post_init__(self):
        n = self.vertex_count
        if n <= 0:
            raise ValidationError("vertex count must be positive", "graph.vertex_count")
        if not (0 <= self.source < n):
            raise ValidationError(f"source {self.source} out of range", "source")
        seen: dict[tuple[int, int], int] = {}
        for pos, arc in enumerate(self.arcs):
            if arc.index != pos:
                raise ValidationError("arc indices must match their positions", "graph.arcs")
            if not (0 <= arc.tail < n and 0 <= arc.head < n):
                raise ValidationError(
                    f"arc {arc.key} has an endpoint out of range", f"graph.arcs[{pos}]"
                )
            if arc.key in seen:
                raise ValidationError(
                    f"parallel arc {arc.key} (first at index {seen[arc.key]})",
                    f"graph.arcs[{pos}]",
                )
            seen[arc.key] = pos
        unknown = set(self.declared) - ALL_PROPERTIES
        if unknown:
            raise ValidationError(
                f"unknown declared properties: {sorted(unknown)}", "declared_properties"
            )
        if MU_BOUNDED in self.declared and self.mu is None:
            raise ValidationError("mu-bounded declared but no mu given", "mu")
        if self.mu is not None and self.mu < 0:
            raise ValidationError("mu must be nonnegative", "mu")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValidationError("max_iterations must be at least 1", "max_iterations")
        out_arcs: list[list[Arc]] = [[] for _ in range(n)]
        in_arcs: list[list[Arc]] = [[] for _ in range(n)]
        for arc in self.arcs:
            out_arcs[arc.tail].append(arc)
            in_arcs[arc.head].append(arc)
        object.__setattr__(self, "_out", tuple(tuple(a) for a in out_arcs))
        object.__setattr__(self, "_in", tuple(tuple(a) for a in in_arcs))
        object.__setattr__(self, "_by_key", seen)

    def out_arcs(self, v: int) -> tuple[Arc, ...]:
        return self._out[v]

    def in_arcs(self, v: int) -> tuple[Arc, ...]:
        return self._in[v]

    def arc_between(self, tail: int, head: int) -> Arc | None:
        pos = self._by_key.get((tail, head))
        return None if pos is None else self.arcs[pos]


def build_instance(
    vertex_count: int,
    arcs: Sequence[tuple[int, int]],
    source: int,
    space: WeightSpace,
    declared: Iterable[str] = (),
    mu: int | None = None,
    max_iterations: int | None = None,
    name: str = "instance",
) -> Instance:
    """Convenience constructor taking arcs as (tail, head) pairs."""
    return Instance(
        vertex_count=vertex_count,
        arcs=tuple(Arc(i, t, h) for i, (t, h) in enumerate(arcs)),
        source=source,
        space=space,
        declared=frozenset(declared),
        mu=mu,
        max_iterations=max_iterations,
        name=name,
    )


@dataclass(eq=False)
class Label:
    """One discovered path: a vertex plus a predecessor chain.

    Identity (eq/hash) is by object, so labels can be collected in sets; the
    (pred serial, arc index) pair identifies the underlying path.  `dead`
    marks labels dropped from a frontier — they stay reachable through
    predecessor chains and are never mutated otherwise.
    """

    vertex: int
    pred: "Label | None"
    arc: Arc | None
    weight: Any
    length: int
    serial: int = 0
    dead: bool = False

    def path_id(self) -> tuple[int, int]:
        return (
            self.pred.serial if self.pred is not None else -1,
            self.arc.index if self.arc is not None else -1,
        )


def reconstruct_path(label: Label) -> tuple[int, ...]:
    """Vertex sequence of the path a label represents, source first."""
    seq = []
    cur: Label | None = label
    while cur is not None:
        seq.append(cur.vertex)
        cur = cur.pred
    seq.reverse()
    return tuple(seq)


def fold_weight(instance: Instance, path: Sequence[int]) -> Any:
    """Recompute a path's weight by folding the update function along it.

    The path must start at the instance source and follow existing arcs.
    """
    if not path or path[0] != instance.source:
        raise ValidationError(f"path {tuple(path)} does not start at the source")
    w = instance.space.initial
    for tail, head in zip(path, path[1:]):
        arc = instance.arc_between(tail, head)
        if arc is None:
            raise ValidationError(f"no arc {(tail, head)} in instance {instance.name!r}")
        w = instance.space.update(w, arc)
    return w
