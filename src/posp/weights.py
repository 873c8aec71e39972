"""Concrete weight structures.

Every constructor returns a `core.WeightSpace`.  Arithmetic is exact and
never touches floats.  Structures whose updates only add, take minima and
compare (`mosp`, bottleneck, interval, `wcspr`, tourist) keep `int` inputs as
`int` (`as_rational`); every other number, and every number of the
structures that divide (FIFO tables, charging curves), becomes a
`fractions.Fraction` (`as_fraction`: strings like ``"3/4"`` and ``"0.5"`` are
accepted; finite floats are read through their shortest decimal
representation).  Arc data is supplied as mappings keyed by (tail, head).
A record with named fields (a bottleneck arc's additive and capacity
vectors, an interval's center and radius, ...) may be given as a dict keyed
by the field names or as a list or tuple of the values in order.

Each kind an instance document may name has a reader next to its
constructor that takes the document's ``weight_space.params`` and arc
payloads; `build_space` dispatches on the kind.  A constructor or reader
names the place of an error relative to its own arguments (``alpha``,
``values[1]``, ``arc (0, 1).w``, or no path for the arguments as a whole);
`build_space` alone turns that into a path in the document.

Included structures:

- `mosp_space` — additive cost vectors under the componentwise order.
- `bottleneck_space` — an additive block paired with a pairwise-min block
  where larger bottleneck values are better.
- `subset_space` — label sets under inclusion, accumulated by union.
- `interval_space` — cost intervals (center, radius) compared through two
  scalarizations.
- `fifo_time_space` — arrival times through piecewise-linear FIFO travel-time
  tables.
- `wcspr_space` — (cost, resource) pairs with saturation at a limit and
  replenishment arcs.
- `evsp_space` — (time, state of charge) pairs with charging-station loops.
- `tourist_space` — (tour length, per-category best value) under a length
  budget; over-budget paths collapse to a single sentinel weight.
- `table_space` — a finite set of named weights with explicit strict-dominance
  pairs, update tables and an optional linear extension.
- `product_space` — the component-wise product of two spaces.
- `kn_space` — the worst-case family on a complete digraph with loops, where
  every path of bounded length keeps a distinct incomparable weight.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from fractions import Fraction
from typing import Any, Callable, Hashable, Iterable, Mapping, Sequence

from .core import (
    EQUAL,
    GREATER,
    INCOMPARABLE,
    LESS,
    Arc,
    ComparisonResult,
    DomainMismatchError,
    MissingUpdateEntryError,
    ValidationError,
    WeightSpace,
)

ArcKey = tuple[int, int]
ArcItem = tuple[ArcKey, Any]
# An exact number: an int, or a Fraction where the input was not an int.
Rational = int | Fraction

# Largest vector dimension or tourist category count a document may ask for.
MAX_COMPONENTS = 1_000
# Deepest nesting of `product` spaces a document may ask for: building the
# space, and every update and comparison, recurse once per level.
MAX_PRODUCT_DEPTH = 32
# Largest decimal exponent a number may carry, as in "1e1000" or "5E-1000".
# Reading one builds 10 ** exponent exactly, in time growing faster than the
# exponent: 0.17 s at 1,000,000 and 6.7 s at 10,000,000 on a 2-core VM.
MAX_EXPONENT = 1_000


def read_decimal(text: str) -> Fraction:
    """`Fraction(text)`, refusing with ValueError an exponent past `MAX_EXPONENT`."""
    at = max(text.rfind("e"), text.rfind("E"))
    digits = text[at + 1 :].strip().lstrip("+-").replace("_", "").lstrip("0") if at >= 0 else ""
    if digits.isdecimal() and (len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT):
        raise ValueError(f"exponent past {MAX_EXPONENT} in magnitude")
    return Fraction(text)


def _show(value: Any, nested: bool = False) -> str:
    """A document value as a message quotes it: a top-level string as `repr`
    does, a Fraction (the reading of a decimal literal) at any depth as a
    decimal with a point, anything else as JSON."""
    if isinstance(value, str) and not nested:
        return repr(value)
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_show(v, True)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_show(v, True) for v in value) + "]"
    if not isinstance(value, Fraction):
        return json.dumps(value)
    places = value.denominator.bit_length()  # 10**places is a multiple of 2**a * 5**b
    digits, rest = divmod(abs(value.numerator) * 10**places, value.denominator)
    if rest:  # no decimal literal reads as this
        return str(value)
    whole, frac = divmod(digits, 10**places)
    sign = "-" if value < 0 else ""
    return f"{sign}{whole}.{str(frac).rjust(places, '0').rstrip('0') or '0'}"


def as_fraction(value: Any, path: str = "") -> Fraction:
    """Coerce ints, rational strings, decimal strings, and floats to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValidationError(f"expected a finite number, got {_show(value)}", path)
        # Shortest-repr decimal reading keeps 0.1 meaning 1/10.
        return Fraction(str(value))
    if isinstance(value, str):
        try:
            return read_decimal(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot parse rational {_show(value)}: {exc}", path) from None
    raise ValidationError(f"expected a number, got {_show(value)}", path)


def as_rational(value: Any, path: str = "") -> Rational:
    """An int stays an int; anything else is read by `as_fraction`.

    For structures whose updates never divide: int arithmetic is exact and
    much faster than Fraction's, and an int equals and hashes like the
    Fraction of the same value.
    """
    if type(value) is int:
        return value
    return as_fraction(value, path)


def render_rational(q: Rational) -> int | str:
    """Canonical JSON form: plain int when integral, "p/q" string otherwise."""
    if q.denominator == 1:
        return int(q)
    return f"{q.numerator}/{q.denominator}"


def _render_vector(w: Sequence[Rational]) -> list[int | str]:
    return [x if type(x) is int else render_rational(x) for x in w]


# ---------------------------------------------------------------------------
# Document shapes.


def _req(mapping: Any, key: str, path: str) -> Any:
    if not isinstance(mapping, dict):
        raise ValidationError("expected an object", path or "document")
    if key not in mapping:
        raise ValidationError("missing required field", f"{path}.{key}" if path else key)
    return mapping[key]


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"expected an integer, got {_show(value)}", path)
    return value


def _bounded_int(value: Any, path: str, limit: int) -> int:
    """An integer of at most `limit`, for document values that size allocations."""
    n = _as_int(value, path)
    if n > limit:
        raise ValidationError(f"{n} exceeds the limit of {limit}", path)
    return n


def _sequence(data: Any, least: int, most: int, path: str) -> tuple:
    """A list or tuple of `least` to `most` items."""
    if not isinstance(data, (list, tuple)) or not least <= len(data) <= most:
        count = least if least == most else f"{least} to {most}"
        raise ValidationError(f"expected a list of {count} values", path)
    return tuple(data)


def _fields(data: Any, names: Sequence[str], path: str, defaults: Sequence[Any] = ()) -> tuple:
    """The values of the fields `names`, read from a dict keyed by them or
    from a list or tuple holding them in order.  The last len(defaults)
    fields may be left out of either form and then take their defaults."""
    need = len(names) - len(defaults)
    if isinstance(data, dict):
        given = [_req(data, name, path) for name in names[:need]]
        return tuple(given + [data.get(name, d) for name, d in zip(names[need:], defaults)])
    values = _sequence(data, need, len(names), path)
    return values + tuple(defaults[len(values) - need :])


def _unwrap(payload: Any, name: str, path: str) -> tuple[Any, str]:
    """A payload given bare or as the one field `name` of an object, with its path."""
    if isinstance(payload, dict):
        return _req(payload, name, path), f"{path}.{name}"
    return payload, path


def _payloads(arcs: Sequence[ArcItem]) -> dict[ArcKey, Any]:
    """Arc payloads by arc key; every arc must carry one."""
    for key, payload in arcs:
        if payload is None:
            raise ValidationError("needs a payload for this weight space", f"arc {key}")
    return dict(arcs)


def _param(params: Mapping[str, Any], name: str) -> Any:
    return _req(params, name, "")


def _size_param(params: Mapping[str, Any], name: str) -> int:
    """A vector length or category count: every weight holds that many components."""
    return _bounded_int(_param(params, name), name, MAX_COMPONENTS)


def _list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ValidationError("expected a list", path)
    return value


def _int_vector(values: Any, dim: int) -> tuple[int, ...] | None:
    """`values` as a tuple when it is a list of `dim` plain ints, else None."""
    if type(values) is not list or len(values) != dim:
        return None
    for v in values:  # a loop: `all()` over a generator costs twice as much
        if type(v) is not int:
            return None
    return tuple(values)


def _rational_vector(values: Sequence[Any], dim: int, path: str) -> tuple[Rational, ...]:
    return _int_vector(values, dim) or tuple(
        as_rational(v, path) for v in _sequence(values, dim, dim, path)
    )


def _arc_vectors(arc_data: Mapping[ArcKey, Any], dim: int) -> dict[ArcKey, tuple[Rational, ...]]:
    """Each arc's vector of `dim` exact numbers; only an error path names the arc."""
    return {
        key: _int_vector(values, dim) or _rational_vector(values, dim, f"arc {key}")
        for key, values in arc_data.items()
    }


def _vector_compare(a: Sequence[Rational], b: Sequence[Rational]) -> ComparisonResult:
    if len(a) != len(b):
        raise DomainMismatchError(f"vector dimensions differ: {len(a)} vs {len(b)}")
    le = ge = True
    for x, y in zip(a, b):
        if x < y:
            ge = False
        elif x > y:
            le = False
    if le and ge:
        return EQUAL
    if le:
        return LESS
    if ge:
        return GREATER
    return INCOMPARABLE


def _scalar_compare(x: Rational, y: Rational) -> ComparisonResult:
    if x == y:
        return EQUAL
    return LESS if x < y else GREATER


def _product_order(c1: ComparisonResult, c2: ComparisonResult) -> ComparisonResult:
    """Combine two component comparisons: better only when both agree."""
    if c1 is EQUAL:
        return c2
    if c2 is EQUAL or c2 is c1:
        return c1
    return INCOMPARABLE


def _arc_data(table: Mapping[ArcKey, Any], arc: Arc, name: str) -> Any:
    try:
        return table[arc.key]
    except KeyError:
        raise MissingUpdateEntryError(f"{name}: no arc data for {arc.key}") from None


# ---------------------------------------------------------------------------
# Additive vectors.


# Scan kernels for `mosp` pairs and triples: `algorithms._scan` with the
# componentwise order unrolled.  Each rides on its own comparator object, so
# a view of the space that replaces the comparator drops it.


def _pair_scan(cmp, labels, weights, w, keep_equal, stats):
    w0, w1 = w
    beaten = []
    for i, (r0, r1) in enumerate(weights):
        if r0 <= w0 and r1 <= w1:
            if keep_equal and r0 == w0 and r1 == w1:
                continue
            stats.comparisons += i + 1
            return None
        if r0 >= w0 and r1 >= w1:
            beaten.append(labels[i])
    stats.comparisons += len(labels)
    return beaten


def _triple_scan(cmp, labels, weights, w, keep_equal, stats):
    w0, w1, w2 = w
    beaten = []
    for i, (r0, r1, r2) in enumerate(weights):
        if r0 <= w0 and r1 <= w1 and r2 <= w2:
            if keep_equal and r0 == w0 and r1 == w1 and r2 == w2:
                continue
            stats.comparisons += i + 1
            return None
        if r0 >= w0 and r1 >= w1 and r2 >= w2:
            beaten.append(labels[i])
    stats.comparisons += len(labels)
    return beaten


_pair_compare = functools.partial(_vector_compare)
_pair_compare.scan = _pair_scan
_triple_compare = functools.partial(_vector_compare)
_triple_compare.scan = _triple_scan


def mosp_space(dimension: int, arc_costs: Mapping[ArcKey, Sequence[Any]]) -> WeightSpace:
    """Cost vectors added along arcs, ordered componentwise (smaller is better).

    The linear extension is the lexicographic order on the vectors.  Pairs
    and triples get unrolled kernels for the dominance scan and the update;
    every other dimension uses `_vector_compare` and `algorithms._scan`.
    """
    if dimension < 1:
        raise ValidationError("dimension must be at least 1", "dimension")
    costs = _arc_vectors(arc_costs, dimension)

    if dimension == 2:
        comparator = _pair_compare

        def update(w, arc):
            c0, c1 = _arc_data(costs, arc, "mosp")
            w0, w1 = w
            return (w0 + c0, w1 + c1)

    elif dimension == 3:
        comparator = _triple_compare

        def update(w, arc):
            c0, c1, c2 = _arc_data(costs, arc, "mosp")
            w0, w1, w2 = w
            return (w0 + c0, w1 + c1, w2 + c2)

    else:
        comparator = _vector_compare

        def update(w: tuple[Rational, ...], arc: Arc) -> tuple[Rational, ...]:
            c = _arc_data(costs, arc, "mosp")
            return tuple(x + y for x, y in zip(w, c))

    return WeightSpace(
        name="mosp",
        comparator=comparator,
        update=update,
        initial=(0,) * dimension,
        leo_key=tuple,
        render=_render_vector,
    )


def _read_mosp(params, arcs, source, vertex_count):
    return mosp_space(_size_param(params, "dimension"), _payloads(arcs))


# ---------------------------------------------------------------------------
# Bottleneck: additive costs next to pairwise-minimum capacities.


def bottleneck_space(
    additive_dimension: int,
    bottleneck_dimension: int,
    arc_costs: Mapping[ArcKey, Any],
    initial_bottleneck: Sequence[Any] | None = None,
) -> WeightSpace:
    """An additive cost block next to a pairwise-minimum capacity block.

    A weight (add | cap) improves on another when its additive block is
    componentwise no larger and its capacity block componentwise no smaller.
    The initial capacity defaults to the componentwise maximum over the arc
    data, which acts as a top element for the instance.

    Args:
        arc_costs: per arc, the fields "additive" and "bottleneck" (vectors).
    """
    if additive_dimension < 0:
        raise ValidationError("dimension must be nonnegative", "additive_dimension")
    if bottleneck_dimension < 0:
        raise ValidationError("dimension must be nonnegative", "bottleneck_dimension")
    adds: dict[ArcKey, tuple[Rational, ...]] = {}
    caps: dict[ArcKey, tuple[Rational, ...]] = {}
    for key, data in arc_costs.items():
        add_part, cap_part = _fields(data, ("additive", "bottleneck"), f"arc {key}")
        adds[key] = _rational_vector(add_part, additive_dimension, f"arc {key}.additive")
        caps[key] = _rational_vector(cap_part, bottleneck_dimension, f"arc {key}.bottleneck")

    if initial_bottleneck is not None:
        top = _rational_vector(initial_bottleneck, bottleneck_dimension, "initial_bottleneck")
    elif caps:
        top = tuple(
            max(vec[i] for vec in caps.values()) for i in range(bottleneck_dimension)
        )
    else:
        top = (0,) * bottleneck_dimension

    def comparator(a, b):
        return _product_order(_vector_compare(a[0], b[0]), _vector_compare(a[1], b[1]).flipped())

    def update(w, arc):
        a = _arc_data(adds, arc, "bottleneck")
        c = _arc_data(caps, arc, "bottleneck")
        return (
            tuple(x + y for x, y in zip(w[0], a)),
            tuple(min(x, y) for x, y in zip(w[1], c)),
        )

    return WeightSpace(
        name="bottleneck",
        comparator=comparator,
        update=update,
        initial=((0,) * additive_dimension, top),
        leo_key=lambda w: tuple(w[0]) + tuple(-x for x in w[1]),
        render=lambda w: {
            "additive": [render_rational(x) for x in w[0]],
            "bottleneck": [render_rational(x) for x in w[1]],
        },
    )


def _read_bottleneck(params, arcs, source, vertex_count):
    return bottleneck_space(
        _size_param(params, "additive_dimension"),
        _size_param(params, "bottleneck_dimension"),
        _payloads(arcs),
        params.get("initial_bottleneck"),
    )


# ---------------------------------------------------------------------------
# Label sets under inclusion.


def subset_space(ground_set_size: int, arc_sets: Mapping[ArcKey, Sequence[int]]) -> WeightSpace:
    """Subsets of {1..n} accumulated by union and ordered by inclusion.

    The linear extension is shortlex: smaller sets first, ties by the sorted
    element tuple (equivalently, the smaller set is the one owning the least
    element of the symmetric difference).
    """
    if ground_set_size < 0:
        raise ValidationError("ground set size must be nonnegative", "ground_set_size")
    ground = range(1, ground_set_size + 1)
    sets: dict[ArcKey, frozenset[int]] = {}
    for key, elems in arc_sets.items():
        s = frozenset(elems)
        bad = [e for e in s if e not in ground]
        if bad:
            raise ValidationError(
                f"set contains elements outside 1..{ground_set_size}: {sorted(bad)}", f"arc {key}"
            )
        sets[key] = s

    def comparator(a: frozenset, b: frozenset) -> ComparisonResult:
        if a == b:
            return EQUAL
        if a <= b:
            return LESS
        if b <= a:
            return GREATER
        return INCOMPARABLE

    def update(w: frozenset, arc: Arc) -> frozenset:
        return w | _arc_data(sets, arc, "subset")

    return WeightSpace(
        name="subset",
        comparator=comparator,
        update=update,
        initial=frozenset(),
        leo_key=lambda w: (len(w), tuple(sorted(w))),
        render=lambda w: sorted(w),
    )


def _read_subset(params, arcs, source, vertex_count):
    ground_set_size = _as_int(_param(params, "ground_set_size"), "ground_set_size")
    sets = {}
    for key, payload in _payloads(arcs).items():
        if not isinstance(payload, list):
            raise ValidationError("expected a list of elements", f"arc {key}")
        sets[key] = [_as_int(e, f"arc {key}[{i}]") for i, e in enumerate(payload)]
    return subset_space(ground_set_size, sets)


# ---------------------------------------------------------------------------
# Cost intervals.


def interval_space(alpha: Any, beta: Any, arc_intervals: Mapping[ArcKey, Any]) -> WeightSpace:
    """Intervals (center, radius) added along arcs.

    One interval precedes another when both scalarizations c + alpha*w and
    c + beta*w say so and the intervals are not equivalent under both.  With
    alpha = beta, distinct equivalent pairs exist; those compare as
    incomparable so that the comparator stays antisymmetric.  The linear
    extension orders by (c + alpha*w, c + beta*w, c, w) lexicographically.
    """
    a = as_rational(alpha, "alpha")
    b = as_rational(beta, "beta")
    if not (-1 <= a <= b <= 1):
        raise ValidationError(f"need -1 <= alpha <= beta <= 1, got alpha={a}, beta={b}")
    intervals: dict[ArcKey, tuple[Rational, Rational]] = {}
    for key, data in arc_intervals.items():
        c_val, w_val = _fields(data, ("c", "w"), f"arc {key}")
        c = as_rational(c_val, f"arc {key}.c")
        w = as_rational(w_val, f"arc {key}.w")
        if w < 0:
            raise ValidationError("radius must be nonnegative", f"arc {key}.w")
        if c < w:
            raise ValidationError(f"center must be at least the radius (got c={c}, w={w})", f"arc {key}")
        intervals[key] = (c, w)

    def phi(gamma: Rational, v: tuple[Rational, Rational]) -> Rational:
        return v[0] + gamma * v[1]

    def comparator(u, v):
        if u == v:
            return EQUAL
        order = _product_order(_scalar_compare(phi(a, u), phi(a, v)), _scalar_compare(phi(b, u), phi(b, v)))
        return INCOMPARABLE if order is EQUAL else order

    def update(wv, arc):
        c, w = _arc_data(intervals, arc, "interval")
        return (wv[0] + c, wv[1] + w)

    return WeightSpace(
        name="interval",
        comparator=comparator,
        update=update,
        initial=(0, 0),
        leo_key=lambda wv: (phi(a, wv), phi(b, wv), wv[0], wv[1]),
        render=lambda wv: {"c": render_rational(wv[0]), "w": render_rational(wv[1])},
    )


def _read_interval(params, arcs, source, vertex_count):
    return interval_space(_param(params, "alpha"), _param(params, "beta"), _payloads(arcs))


# ---------------------------------------------------------------------------
# FIFO time-dependent arrival.


def _points(points: Any, path: str, x_name: str, y_name: str) -> list[tuple[Fraction, Fraction]]:
    """A nonempty list of [x, y] pairs whose x values strictly increase."""
    if not isinstance(points, (list, tuple)) or not points:
        raise ValidationError(f"expected a nonempty list of [{x_name}, {y_name}] pairs", path)
    pts = []
    for i, pt in enumerate(points):
        x, y = _sequence(pt, 2, 2, f"{path}[{i}]")
        pts.append(
            (as_fraction(x, f"{path}[{i}].{x_name}"), as_fraction(y, f"{path}[{i}].{y_name}"))
        )
    if any(x0 >= x1 for (x0, _), (x1, _) in zip(pts, pts[1:])):
        raise ValidationError(f"{x_name} values must strictly increase", path)
    return pts


def _interpolate(points: list[tuple[Fraction, Fraction]], x: Fraction) -> Fraction:
    """Piecewise-linear through `points`, constant before the first and after the last."""
    if x <= points[0][0]:
        return points[0][1]
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    return points[-1][1]


class TravelTimeTable:
    """Piecewise-linear travel time over departure time, constant outside.

    Breakpoints are (departure, travel time) pairs with strictly increasing
    departures.  The FIFO requirement — arrival departure + travel is
    non-decreasing — is checked at the breakpoints, which is sufficient for
    piecewise-linear interpolation with constant extrapolation.
    """

    def __init__(self, breakpoints: Sequence[Any], path: str = "table"):
        pts = _points(breakpoints, path, "departure", "travel")
        for i, (_, t) in enumerate(pts):
            if t < 0:
                raise ValidationError(f"negative travel time {t}", f"{path}[{i}]")
        for (tau0, tt0), (tau1, tt1) in zip(pts, pts[1:]):
            if tau0 + tt0 > tau1 + tt1:
                raise ValidationError(
                    f"FIFO violated: departing at {tau0} arrives after departing at {tau1}",
                    path,
                )
        self.points = pts

    def travel(self, tau: Fraction) -> Fraction:
        return _interpolate(self.points, tau)


def fifo_time_space(start_time: Any, arc_tables: Mapping[ArcKey, Sequence[Any]]) -> WeightSpace:
    """Arrival time through FIFO travel-time tables; totally ordered.

    Args:
        arc_tables: per arc, the `TravelTimeTable` breakpoints, bare or as
            the one field "breakpoints" of a dict.
    """
    tau0 = as_fraction(start_time, "start_time")
    if tau0 < 0:
        raise ValidationError("start time must be nonnegative", "start_time")
    tables = {
        key: TravelTimeTable(*_unwrap(data, "breakpoints", f"arc {key}"))
        for key, data in arc_tables.items()
    }

    def update(tau: Fraction, arc: Arc) -> Fraction:
        table = _arc_data(tables, arc, "fifo_time")
        return tau + table.travel(tau)

    return WeightSpace(
        name="fifo_time",
        comparator=_scalar_compare,
        update=update,
        initial=tau0,
        leo_key=lambda tau: (tau,),
        render=render_rational,
    )


def _read_fifo_time(params, arcs, source, vertex_count):
    return fifo_time_space(params.get("start_time", 0), _payloads(arcs))


# ---------------------------------------------------------------------------
# Weight-constrained shortest path with replenishment.


def wcspr_space(limit: Any, arc_data: Mapping[ArcKey, Any]) -> WeightSpace:
    """(cost, resource) pairs saturating at a limit, with replenishment arcs.

    Crossing the limit pins the resource to the limit itself, which marks the
    path infeasible; a replenishment arc otherwise resets the resource to its
    own level.  Saturation wins over replenishment when both apply.  The
    lexicographic (cost, resource) order is a valid linear extension whenever
    every arc has positive cost.

    Args:
        arc_data: per arc, the fields "w" (cost), "r" (resource) and
            optionally "replenish" (true/false or 1/0, false when left out).
    """
    m = as_rational(limit, "limit")
    if m <= 0:
        raise ValidationError("resource limit must be positive", "limit")
    data: dict[ArcKey, tuple[Rational, Rational, bool]] = {}
    for key, entry in arc_data.items():
        w_val, r_val, repl = _fields(entry, ("w", "r", "replenish"), f"arc {key}", (False,))
        w = as_rational(w_val, f"arc {key}.w")
        r = as_rational(r_val, f"arc {key}.r")
        if w < 0 or r < 0:
            raise ValidationError("cost and resource must be nonnegative", f"arc {key}")
        if r > m:
            raise ValidationError(f"resource {r} exceeds the limit {m}", f"arc {key}.r")
        if not isinstance(repl, int) or repl not in (0, 1):
            raise ValidationError(f"expected true or false, got {_show(repl)}", f"arc {key}.replenish")
        data[key] = (w, r, bool(repl))

    def update(wv: tuple[Rational, Rational], arc: Arc) -> tuple[Rational, Rational]:
        w, r, repl = _arc_data(data, arc, "wcspr")
        cost, res = wv
        if res + r >= m:
            # Saturation takes precedence over replenishment at equality.
            return (cost + w, m)
        if repl:
            return (cost + w, r)
        return (cost + w, res + r)

    return WeightSpace(
        name="wcspr",
        comparator=_vector_compare,
        update=update,
        initial=(0, 0),
        leo_key=lambda wv: tuple(wv),
        infeasible=lambda wv: wv[1] >= m,
        render=lambda wv: {"cost": render_rational(wv[0]), "resource": render_rational(wv[1])},
    )


def _read_wcspr(params, arcs, source, vertex_count):
    return wcspr_space(_param(params, "limit"), _payloads(arcs))


# ---------------------------------------------------------------------------
# Electric vehicle routing with charging stations.


class ChargeCurve:
    """Sampled charging curve: time -> state of charge, linearly interpolated.

    Times must strictly increase and the state of charge must be
    non-decreasing within [0, 1].  The inverse lookup returns the earliest
    table time reaching a given state of charge (the left inverse on flat
    segments).
    """

    def __init__(self, points: Sequence[Any], path: str = "curve"):
        pts = _points(points, path, "time", "soc")
        for i, (_, y) in enumerate(pts):
            if not (0 <= y <= 1):
                raise ValidationError(f"state of charge {y} outside [0, 1]", f"{path}[{i}]")
        for (_, y0), (_, y1) in zip(pts, pts[1:]):
            if y0 > y1:
                raise ValidationError("curve must be non-decreasing", path)
        self.points = pts
        self.max_soc = pts[-1][1]

    def value(self, t: Fraction) -> Fraction:
        return _interpolate(self.points, t)

    def earliest_time(self, y: Fraction) -> Fraction:
        """Smallest table time whose state of charge reaches y (y <= max)."""
        pts = self.points
        if y <= pts[0][1]:
            return pts[0][0]
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            # Every earlier segment ends below y, so y0 < y <= y1.
            if y <= y1:
                return x0 + (x1 - x0) * (y - y0) / (y1 - y0)
        raise DomainMismatchError(f"state of charge {y} above the curve maximum")

    def charge(self, y: Fraction, eps: Fraction) -> Fraction:
        """State of charge after charging for eps starting from y."""
        if y >= self.max_soc:
            return y
        return self.value(self.earliest_time(y) + eps)


def evsp_space(
    initial_soc: Any,
    road_arcs: Mapping[ArcKey, Any],
    station_curves: Mapping[int, Sequence[Any]],
    epsilon: Any,
) -> WeightSpace:
    """(arrival time, state of charge): earlier and fuller is better.

    Road arcs consume charge (clamped to [0, 1]); a loop at a station vertex
    charges for one epsilon of time along the station's curve.  A state of
    charge of zero is absorbing — a stranded vehicle stays stranded — and
    marks the weight infeasible.

    Args:
        road_arcs: per road arc, the fields "time" (travel time) and "delta"
            (charge consumption).
        station_curves: per station vertex, the sampled charging curve.
    """
    beta = as_fraction(initial_soc, "initial_soc")
    if not (0 <= beta <= 1):
        raise ValidationError("initial state of charge must lie in [0, 1]", "initial_soc")
    eps = as_fraction(epsilon, "epsilon")
    if eps <= 0:
        raise ValidationError("epsilon must be positive", "epsilon")
    roads: dict[ArcKey, tuple[Fraction, Fraction]] = {}
    for key, entry in road_arcs.items():
        t_val, d_val = _fields(entry, ("time", "delta"), f"arc {key}")
        t = as_fraction(t_val, f"arc {key}.time")
        d = as_fraction(d_val, f"arc {key}.delta")
        if t <= 0:
            raise ValidationError("travel time must be positive", f"arc {key}.time")
        roads[key] = (t, d)
    curves = {
        int(v): ChargeCurve(pts, path=f"stations.{v}") for v, pts in station_curves.items()
    }
    for v in curves:
        if (v, v) in roads:
            raise ValidationError(f"vertex {v} has both a road loop and a station", f"stations.{v}")

    def comparator(u, v):
        # A higher state of charge is better, so its arguments swap.
        return _product_order(_scalar_compare(u[0], v[0]), _scalar_compare(v[1], u[1]))

    def update(wv, arc):
        t_cur, y = wv
        if arc.tail == arc.head and arc.tail in curves:
            curve = curves[arc.tail]
            if y == 0:
                return (t_cur + eps, Fraction(0))
            return (t_cur + eps, curve.charge(y, eps))
        t, d = _arc_data(roads, arc, "evsp")
        if y == 0:
            return (t_cur + t, Fraction(0))
        new_y = min(Fraction(1), max(Fraction(0), y - d))
        return (t_cur + t, new_y)

    return WeightSpace(
        name="evsp",
        comparator=comparator,
        update=update,
        initial=(Fraction(0), beta),
        leo_key=lambda wv: (wv[0], -wv[1]),
        infeasible=lambda wv: wv[1] == 0,
        render=lambda wv: {"time": render_rational(wv[0]), "soc": render_rational(wv[1])},
    )


def _read_evsp(params, arcs, source, vertex_count):
    initial_soc = _param(params, "initial_soc")
    epsilon = _param(params, "epsilon")
    stations = params.get("stations", {})
    if not isinstance(stations, dict):
        raise ValidationError("stations must map vertex to curve", "stations")
    loops = {tail: payload for (tail, head), payload in arcs if tail == head}
    curves = {}
    for v, curve in stations.items():
        try:
            vertex = int(v)
        except (TypeError, ValueError):
            raise ValidationError(f"station key {v!r} is not a vertex", "stations") from None
        if vertex in curves:
            raise ValidationError(f"station key {v!r} repeats vertex {vertex}", f"stations.{v}")
        if vertex not in loops:
            raise ValidationError(f"station key {v!r} names no vertex with a loop arc", f"stations.{v}")
        # The loop charges along the station's curve.
        if loops[vertex] is not None:
            raise ValidationError("a station's loop takes no payload", f"arc {(vertex, vertex)}")
        curves[vertex] = curve
    roads = [(key, payload) for key, payload in arcs if not (key[0] == key[1] and key[0] in curves)]
    return evsp_space(initial_soc, _payloads(roads), curves, epsilon)


# ---------------------------------------------------------------------------
# Tourist tours: best value per category under a length budget.


def tourist_space(
    budget: Any,
    vertex_values: Sequence[Any],
    vertex_categories: Sequence[int],
    category_count: int,
    arc_lengths: Mapping[ArcKey, Any],
    source: int,
) -> WeightSpace:
    """(tour length, best value seen per category), shorter and higher wins.

    Once the accumulated length exceeds the budget the weight collapses to a
    single sentinel (budget + 1, zero vector), so any frontier carries at most
    one over-budget label and every feasible weight dominates it.

    Args:
        arc_lengths: per arc, its length, bare or as the one field "length"
            of a dict.
    """
    b = as_rational(budget, "budget")
    if b < 0:
        raise ValidationError("budget must be nonnegative", "budget")
    if category_count < 1:
        raise ValidationError("need at least one category", "category_count")
    n = len(vertex_values)
    if len(vertex_categories) != n:
        raise ValidationError("values and categories must have one entry per vertex")
    values = [as_rational(v, f"values[{i}]") for i, v in enumerate(vertex_values)]
    cats = list(vertex_categories)
    for i, c in enumerate(cats):
        if not (0 <= c < category_count):
            raise ValidationError(f"category {c} out of range", f"categories[{i}]")
        if values[i] < 0:
            raise ValidationError("vertex values must be nonnegative", f"values[{i}]")
    lengths, places = {}, {}
    for key, data in arc_lengths.items():
        value, places[key] = _unwrap(data, "length", f"arc {key}")
        lengths[key] = as_rational(value, places[key])
    for key, l in lengths.items():
        if l < 0:
            raise ValidationError("length must be nonnegative", places[key])
        if not (0 <= key[1] < n):
            raise ValidationError(f"arc {key} enters a vertex with no value")
    if not (0 <= source < n):
        raise ValidationError("source out of range")

    zero_values = (0,) * category_count
    sentinel = (b + 1, zero_values)

    init_values = list(zero_values)
    init_values[cats[source]] = values[source]
    initial = (0, tuple(init_values))

    def comparator(u, v):
        return _product_order(_scalar_compare(u[0], v[0]), _vector_compare(u[1], v[1]).flipped())

    def update(wv, arc):
        if wv == sentinel:
            return sentinel
        length, vals = wv
        new_len = length + _arc_data(lengths, arc, "tourist")
        if new_len > b:
            return sentinel
        head = arc.head
        cat = cats[head]
        if values[head] > vals[cat]:
            vals = vals[:cat] + (values[head],) + vals[cat + 1 :]
        return (new_len, vals)

    return WeightSpace(
        name="tourist",
        comparator=comparator,
        update=update,
        initial=initial,
        leo_key=lambda wv: (wv[0],) + tuple(-x for x in wv[1]),
        infeasible=lambda wv: wv[0] > b,
        render=lambda wv: {
            "length": render_rational(wv[0]),
            "values": [render_rational(x) for x in wv[1]],
        },
    )


def _read_tourist(params, arcs, source, vertex_count):
    values, categories = (_list(_param(params, name), name) for name in ("values", "categories"))
    for name, entries in (("values", values), ("categories", categories)):
        if len(entries) != vertex_count:
            raise ValidationError(f"expected one entry per vertex ({vertex_count}), got {len(entries)}", name)
    return tourist_space(
        _param(params, "budget"),
        values,
        [_as_int(c, f"categories[{i}]") for i, c in enumerate(categories)],
        _size_param(params, "category_count"),
        _payloads(arcs),
        source,
    )


# ---------------------------------------------------------------------------
# Explicit tables.


def table_space(
    weights: Sequence[Hashable],
    strict_pairs: Iterable[tuple[Hashable, Hashable]],
    updates: Mapping[tuple[Hashable, ArcKey], Hashable],
    initial: Hashable,
    defaults: Mapping[ArcKey, Hashable] | None = None,
    leo_order: Sequence[Hashable] | None = None,
) -> WeightSpace:
    """Finite weight set with explicit strict-dominance pairs and update tables.

    The strict pairs are closed under transitivity at construction time and
    checked for antisymmetry (a cycle of strict dominance is rejected).
    Updates are looked up per (weight, arc) with an optional per-arc default.
    An optional explicit total order of all weights serves as the linear
    extension.
    """
    weights = tuple(weights)
    members = set(weights)
    if len(members) != len(weights):
        raise ValidationError("duplicate weight names", "weights")
    above: dict[Hashable, list[Hashable]] = {w: [] for w in weights}
    for lo, hi in strict_pairs:
        if lo not in members or hi not in members:
            raise ValidationError(f"unknown weight in pair ({lo!r}, {hi!r})", "strict_pairs")
        above[lo].append(hi)
    # Transitive closure: one depth-first search per weight.  A weight
    # that reaches itself lies on a cycle of strict dominance.
    less = set()
    for w in weights:
        reached = set()
        stack = list(above[w])
        while stack:
            x = stack.pop()
            if x not in reached:
                reached.add(x)
                stack.extend(above[x])
        if w in reached:
            raise ValidationError(f"strict dominance is not antisymmetric around {w!r}", "strict_pairs")
        less.update((w, x) for x in reached)

    if initial not in members:
        raise ValidationError(f"initial weight {initial!r} not in weight set", "initial")
    updates = dict(updates)
    defaults = dict(defaults or {})
    for (w, _arc), result in updates.items():
        if w not in members or result not in members:
            raise ValidationError(f"update entry {w!r} -> {result!r} uses unknown weight", "updates")
    for result in defaults.values():
        if result not in members:
            raise ValidationError(f"default result {result!r} unknown", "updates")

    leo_key = None
    if leo_order is not None:
        if sorted(map(repr, leo_order)) != sorted(map(repr, weights)):
            raise ValidationError("leo order must list every weight exactly once", "leo")
        index = {w: i for i, w in enumerate(leo_order)}
        leo_key = lambda w: (index[w],)  # noqa: E731

    def check_member(w: Hashable) -> None:
        if w not in members:
            raise DomainMismatchError(f"{w!r} is not a weight of table space 'table'")

    def comparator(a: Hashable, b: Hashable) -> ComparisonResult:
        check_member(a)
        check_member(b)
        if a == b:
            return EQUAL
        if (a, b) in less:
            return LESS
        if (b, a) in less:
            return GREATER
        return INCOMPARABLE

    def update(w: Hashable, arc: Arc) -> Hashable:
        check_member(w)
        entry = updates.get((w, arc.key))
        if entry is not None:
            return entry
        default = defaults.get(arc.key)
        if default is not None:
            return default
        raise MissingUpdateEntryError(f"no update entry for weight {w!r} on arc {arc.key} in table space 'table'")

    return WeightSpace(
        name="table",
        comparator=comparator,
        update=update,
        initial=initial,
        leo_key=leo_key,
        render=lambda w: w,
    )


def _name(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"expected a weight name, got {_show(value)}", path)
    return value


def _names(value: Any, path: str) -> list[str]:
    if not all(isinstance(w, str) for w in _list(value, path)):
        raise ValidationError("expected a list of weight names", path)
    return value


def _read_table(params, arcs, source, vertex_count):
    names = _names(_param(params, "weights"), "weights")
    pairs = [
        _sequence(pair, 2, 2, f"strict_pairs[{i}]")
        for i, pair in enumerate(_list(params.get("strict_pairs", []), "strict_pairs"))
    ]
    _names([w for pair in pairs for w in pair], "strict_pairs")
    initial = _name(_param(params, "initial"), "initial")
    updates = {}
    defaults = {}
    for i, entry in enumerate(_list(params.get("updates", []), "updates")):
        entry_path = f"updates[{i}]"
        tail = _as_int(_req(entry, "tail", entry_path), f"{entry_path}.tail")
        head = _as_int(_req(entry, "head", entry_path), f"{entry_path}.head")
        entries = entry.get("entries", {})
        if not isinstance(entries, dict) or not all(isinstance(r, str) for r in entries.values()):
            raise ValidationError("expected an object of weight names", f"{entry_path}.entries")
        updates.update(((w_name, (tail, head)), result) for w_name, result in entries.items())
        if "default" in entry:
            defaults[(tail, head)] = _name(entry["default"], f"{entry_path}.default")
    leo = params.get("leo")
    # Every table is a partial order, so either kind solves alike: read only for older documents.
    kind = params.get("relation_kind", "partial-order")
    if kind not in ("partial-order", "antisymmetric-quasi-transitive"):
        raise ValidationError(
            f"expected 'partial-order' or 'antisymmetric-quasi-transitive', got {kind!r}",
            "relation_kind",
        )
    return table_space(
        names,
        pairs,
        updates,
        initial,
        defaults,
        leo_order=None if leo is None else _names(leo, "leo"),
    )


# ---------------------------------------------------------------------------
# Product of two spaces.


def product_space(first: WeightSpace, second: WeightSpace) -> WeightSpace:
    """Componentwise product: both components must agree to call a weight better.

    The linear extension orders by the first component's key, falling back to
    the second's only between structurally equal first components; it exists
    only when both components have one.
    """
    def comparator(u, v):
        return _product_order(first.comparator(u[0], v[0]), second.comparator(u[1], v[1]))

    def update(wv, arc):
        return (first.update(wv[0], arc), second.update(wv[1], arc))

    leo_key = None
    if first.leo_key is not None and second.leo_key is not None:
        k1, k2 = first.leo_key, second.leo_key
        leo_key = lambda wv: k1(wv[0]) + k2(wv[1])  # noqa: E731

    def infeasible(wv):
        return first.is_infeasible(wv[0]) or second.is_infeasible(wv[1])

    has_flag = first.infeasible is not None or second.infeasible is not None
    return WeightSpace(
        name=f"product({first.name},{second.name})",
        comparator=comparator,
        update=update,
        initial=(first.initial, second.initial),
        leo_key=leo_key,
        render=lambda wv: [first.render_weight(wv[0]), second.render_weight(wv[1])],
        infeasible=infeasible if has_flag else None,
    )


def _read_product(params, arcs, source, vertex_count):
    """Each part is a weight-space document; an arc payload holds the parts'
    payloads in the fields "first" and "second", either of which may be
    left out (as may the whole payload) for a part that reads none."""
    level, depth = [params], 0
    while level:
        depth += 1
        if depth > MAX_PRODUCT_DEPTH:
            raise ValidationError(f"products nest deeper than {MAX_PRODUCT_DEPTH} levels")
        parts = [p.get(side) for p in level for side in ("first", "second")]
        level = [
            d["params"]
            for d in parts
            if isinstance(d, dict) and d.get("kind") == "product" and isinstance(d.get("params"), dict)
        ]
    first_doc = _param(params, "first")
    second_doc = _param(params, "second")
    first_arcs = []
    second_arcs = []
    for key, payload in arcs:
        a, b = (
            (None, None)
            if payload is None
            else _fields(payload, ("first", "second"), f"arc {key}", (None, None))
        )
        first_arcs.append((key, a))
        second_arcs.append((key, b))
    first = _read_part(first_doc, "first", first_arcs, source, vertex_count)
    second = _read_part(second_doc, "second", second_arcs, source, vertex_count)
    return product_space(first, second)


def _read_part(doc: Any, side: str, arcs: list[ArcItem], source: int, vertex_count: int) -> WeightSpace:
    """The product part `side`: a weight-space document of its own, whose
    arcs carry the field `side` of each payload.  Its `build_space` names
    the paths of an error as if the part were the whole weight space; the
    side goes in front of them, after ``payload`` on a payload's path."""
    kind = _req(doc, "kind", side)
    try:
        return build_space(kind, doc.get("params", {}), arcs, source, vertex_count)
    except ValidationError as exc:
        where = exc.path
        if where.startswith("graph.arcs["):
            where = where.replace(".payload", f".payload.{side}", 1)
        else:
            where = side + where[len("weight_space") :]
        raise ValidationError(exc.message, where) from None


# ---------------------------------------------------------------------------
# Instance documents.

#: Document kind -> reader of its params, arc payloads, source and vertex count.
SPACE_READERS: dict[str, Callable[[Mapping[str, Any], Sequence[ArcItem], int, int], WeightSpace]] = {
    "mosp": _read_mosp,
    "bottleneck": _read_bottleneck,
    "subset": _read_subset,
    "interval": _read_interval,
    "fifo_time": _read_fifo_time,
    "wcspr": _read_wcspr,
    "evsp": _read_evsp,
    "tourist": _read_tourist,
    "table": _read_table,
    "product": _read_product,
}


def build_space(kind: Any, params: Any, arc_items: Sequence[ArcItem], source: int, vertex_count: int) -> WeightSpace:
    """The weight space of an instance document's ``weight_space`` object.

    `params` is its ``params`` object, ``{}`` only where the document
    leaves it out (a ``null`` is no object), and `arc_items` holds one
    ((tail, head), payload) pair per arc, with payload None where the arc
    has none.  Per-vertex parameters must list `vertex_count` entries.
    Malformed input raises ValidationError, whose path is a path in the
    document.  The readers and constructors name a place
    relative to `params`, which becomes ``weight_space.params.<place>``
    (``weight_space.params`` for no place), or in an arc's payload as
    ``arc (tail, head)<rest>``, which becomes
    ``graph.arcs[i].payload<rest>``.  A `product` part's paths come back
    from its own `build_space`, already in the document.
    """
    reader = SPACE_READERS.get(kind) if isinstance(kind, str) else None
    if reader is None:
        raise ValidationError(
            f"unknown weight space kind {kind!r} (expected one of {', '.join(SPACE_READERS)})",
            "weight_space.kind",
        )
    if not isinstance(params, dict):
        raise ValidationError("expected an object", "weight_space.params")
    try:
        return reader(params, arc_items, source, vertex_count)
    except ValidationError as exc:
        where = exc.path
        arc, close, rest = where.partition(")")
        index = {f"arc {key}": i for i, (key, _payload) in enumerate(arc_items)}.get(arc + close)
        if index is not None:
            where = f"graph.arcs[{index}].payload{rest}"
        elif not where.startswith("graph.arcs["):
            where = f"weight_space.params.{where}" if where else "weight_space.params"
        raise ValidationError(exc.message, where) from None


# ---------------------------------------------------------------------------
# Worst-case family on the complete digraph with loops.


def kn_space(n: int, m: int, source: int) -> WeightSpace:
    """Index-tuple weights on the complete digraph (loops included).

    A path of length below `m` keeps its full vertex-index tuple as its
    weight, and all such tuples are pairwise incomparable; at length `m` the
    weight collapses to a bottom element dominating everything.  Until the
    collapse, frontiers grow by a factor of n per iteration.
    """
    if n < 1 or m < 1:
        raise ValidationError("need n >= 1 and m >= 1", "kn")
    if not (0 <= source < n):
        raise ValidationError("source out of range", "kn")
    bottom: tuple = ()  # the only empty weight, so `not w` tests for it

    def comparator(a, b):
        if a == b:
            return EQUAL
        if not a:
            return LESS
        if not b:
            return GREATER
        return INCOMPARABLE

    def scan(cmp, labels, weights, w, keep_equal, stats):
        # `algorithms._scan` by list searches: bottom lies below every other
        # weight, and any two others are equal or incomparable, so the scan
        # stops at the first bottom or (unless ties are kept) equal weight,
        # and only a bottom `w` evicts anything.
        if not w:
            if keep_equal or bottom not in weights:
                stats.comparisons += len(weights)
                return list(itertools.compress(labels, weights))
            stop = weights.index(bottom)
        elif all(weights) and (keep_equal or w not in weights):
            stats.comparisons += len(weights)
            return []
        else:
            stop = len(weights) if all(weights) else weights.index(bottom)
            if not keep_equal and w in weights:
                stop = min(stop, weights.index(w))
        stats.comparisons += stop + 1
        return None

    comparator.scan = scan

    def update(w, arc):
        if not w or len(w) >= m:
            return bottom
        return w + (arc.head,)

    return WeightSpace(
        name="kn",
        comparator=comparator,
        update=update,
        initial=(source,),
        render=lambda w: {"indices": list(w)} if w != bottom else {"indices": None},
    )
