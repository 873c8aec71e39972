"""Concrete weight structures.

Every constructor returns a `core.WeightSpace`.  Arithmetic is exact: all
numeric inputs are coerced to `fractions.Fraction` (strings like ``"3/4"`` and
``"0.5"`` are accepted; floats are read through their shortest decimal
representation).  Arc data is supplied as mappings keyed by (tail, head).

Included structures:

- `mosp_space` — additive cost vectors under the componentwise order.
- `bottleneck_space` — an additive block paired with a pairwise-min block
  where larger bottleneck values are better.
- `semilattice_min_space` — the bottleneck block alone (used for the product
  equivalence tests).
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
- `product_space` — the component-wise product of two spaces.
- `kn_space` — the worst-case family on a complete digraph with loops, where
  every path of bounded length keeps a distinct incomparable weight.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Hashable, Mapping, Sequence

from .core import (
    EQUAL,
    GREATER,
    INCOMPARABLE,
    LESS,
    Arc,
    ComparisonResult,
    DomainMismatchError,
    MissingUpdateEntryError,
    QUASI_TRANSITIVE,
    ValidationError,
    WeightSpace,
)

ArcKey = tuple[int, int]


def as_fraction(value: Any, path: str = "") -> Fraction:
    """Coerce ints, rational strings, decimal strings, and floats to Fraction."""
    if isinstance(value, bool):
        raise ValidationError(f"expected a number, got {value!r}", path)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        # Shortest-repr decimal reading keeps 0.1 meaning 1/10.
        return Fraction(str(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot parse rational {value!r}: {exc}", path) from None
    raise ValidationError(f"expected a number, got {type(value).__name__}", path)


def render_rational(q: Fraction) -> int | str:
    """Canonical JSON form: plain int when integral, "p/q" string otherwise."""
    if q.denominator == 1:
        return int(q)
    return f"{q.numerator}/{q.denominator}"


def _fraction_vector(values: Sequence[Any], dim: int, path: str) -> tuple[Fraction, ...]:
    vec = tuple(as_fraction(v, path) for v in values)
    if len(vec) != dim:
        raise ValidationError(f"expected {dim} components, got {len(vec)}", path)
    return vec


def _vector_compare(a: Sequence[Fraction], b: Sequence[Fraction]) -> ComparisonResult:
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


def _arc_data(table: Mapping[ArcKey, Any], arc: Arc, name: str) -> Any:
    try:
        return table[arc.key]
    except KeyError:
        raise MissingUpdateEntryError(f"{name}: no arc data for {arc.key}") from None


# ---------------------------------------------------------------------------
# Additive vectors.


def mosp_space(dimension: int, arc_costs: Mapping[ArcKey, Sequence[Any]], name: str = "mosp") -> WeightSpace:
    """Cost vectors added along arcs, ordered componentwise (smaller is better).

    The linear extension is the lexicographic order on the vectors.
    """
    if dimension < 1:
        raise ValidationError("dimension must be at least 1", "weight_space.params.dimension")
    costs = {
        key: _fraction_vector(vec, dimension, f"arc {key}") for key, vec in arc_costs.items()
    }

    def update(w: tuple[Fraction, ...], arc: Arc) -> tuple[Fraction, ...]:
        c = _arc_data(costs, arc, name)
        return tuple(x + y for x, y in zip(w, c))

    return WeightSpace(
        name=name,
        comparator=_vector_compare,
        update=update,
        initial=(Fraction(0),) * dimension,
        leo_key=lambda w: tuple(w),
        render=lambda w: [render_rational(x) for x in w],
    )


# ---------------------------------------------------------------------------
# Bottleneck / min-semilattice.


def semilattice_min_space(
    dimension: int,
    arc_values: Mapping[ArcKey, Sequence[Any]],
    initial: Sequence[Any],
    name: str = "min-semilattice",
) -> WeightSpace:
    """Componentwise minimum along arcs; larger values are better."""
    values = {
        key: _fraction_vector(vec, dimension, f"arc {key}") for key, vec in arc_values.items()
    }
    start = _fraction_vector(initial, dimension, "initial")

    def comparator(a, b):
        # Better means componentwise larger, so flip the vector order.
        return _vector_compare(a, b).flipped()

    def update(w, arc):
        v = _arc_data(values, arc, name)
        return tuple(min(x, y) for x, y in zip(w, v))

    return WeightSpace(
        name=name,
        comparator=comparator,
        update=update,
        initial=start,
        leo_key=lambda w: tuple(-x for x in w),
        render=lambda w: [render_rational(x) for x in w],
    )


def bottleneck_space(
    additive_dimension: int,
    bottleneck_dimension: int,
    arc_costs: Mapping[ArcKey, Any],
    initial_bottleneck: Sequence[Any] | None = None,
    name: str = "bottleneck",
) -> WeightSpace:
    """An additive cost block next to a pairwise-minimum capacity block.

    A weight (add | cap) improves on another when its additive block is
    componentwise no larger and its capacity block componentwise no smaller.
    The initial capacity defaults to the componentwise maximum over the arc
    data, which acts as a top element for the instance.

    Args:
        arc_costs: per arc, a pair (additive vector, capacity vector) — as a
            2-tuple/list or a mapping with keys "additive" and "bottleneck".
    """
    adds: dict[ArcKey, tuple[Fraction, ...]] = {}
    caps: dict[ArcKey, tuple[Fraction, ...]] = {}
    for key, data in arc_costs.items():
        if isinstance(data, Mapping):
            add_part, cap_part = data["additive"], data["bottleneck"]
        else:
            add_part, cap_part = data
        adds[key] = _fraction_vector(add_part, additive_dimension, f"arc {key} additive")
        caps[key] = _fraction_vector(cap_part, bottleneck_dimension, f"arc {key} bottleneck")

    if initial_bottleneck is not None:
        top = _fraction_vector(initial_bottleneck, bottleneck_dimension, "initial_bottleneck")
    elif caps:
        top = tuple(
            max(vec[i] for vec in caps.values()) for i in range(bottleneck_dimension)
        )
    else:
        top = (Fraction(0),) * bottleneck_dimension

    def comparator(a, b):
        add_cmp = _vector_compare(a[0], b[0])
        cap_cmp = _vector_compare(a[1], b[1]).flipped()
        if add_cmp is EQUAL and cap_cmp is EQUAL:
            return EQUAL
        if add_cmp in (LESS, EQUAL) and cap_cmp in (LESS, EQUAL):
            return LESS
        if add_cmp in (GREATER, EQUAL) and cap_cmp in (GREATER, EQUAL):
            return GREATER
        return INCOMPARABLE

    def update(w, arc):
        a = _arc_data(adds, arc, name)
        c = _arc_data(caps, arc, name)
        return (
            tuple(x + y for x, y in zip(w[0], a)),
            tuple(min(x, y) for x, y in zip(w[1], c)),
        )

    return WeightSpace(
        name=name,
        comparator=comparator,
        update=update,
        initial=((Fraction(0),) * additive_dimension, top),
        leo_key=lambda w: tuple(w[0]) + tuple(-x for x in w[1]),
        render=lambda w: {
            "additive": [render_rational(x) for x in w[0]],
            "bottleneck": [render_rational(x) for x in w[1]],
        },
    )


# ---------------------------------------------------------------------------
# Label sets under inclusion.


def subset_space(
    ground_set_size: int, arc_sets: Mapping[ArcKey, Sequence[int]], name: str = "subset"
) -> WeightSpace:
    """Subsets of {1..n} accumulated by union and ordered by inclusion.

    The linear extension is shortlex: smaller sets first, ties by the sorted
    element tuple (equivalently, the smaller set is the one owning the least
    element of the symmetric difference).
    """
    if ground_set_size < 0:
        raise ValidationError("ground set size must be nonnegative", "weight_space.params")
    ground = range(1, ground_set_size + 1)
    sets: dict[ArcKey, frozenset[int]] = {}
    for key, elems in arc_sets.items():
        s = frozenset(elems)
        bad = [e for e in s if e not in ground]
        if bad:
            raise ValidationError(
                f"arc {key} set contains elements outside 1..{ground_set_size}: {sorted(bad)}",
                "weight_space.params",
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
        return w | _arc_data(sets, arc, name)

    return WeightSpace(
        name=name,
        comparator=comparator,
        update=update,
        initial=frozenset(),
        leo_key=lambda w: (len(w), tuple(sorted(w))),
        render=lambda w: sorted(w),
    )


# ---------------------------------------------------------------------------
# Cost intervals.


def interval_space(
    alpha: Any, beta: Any, arc_intervals: Mapping[ArcKey, Any], name: str = "interval"
) -> WeightSpace:
    """Intervals (center, radius) added along arcs.

    One interval precedes another when both scalarizations c + alpha*w and
    c + beta*w say so and the intervals are not equivalent under both.  With
    alpha = beta, distinct equivalent pairs exist; those compare as
    incomparable so that the comparator stays antisymmetric.  The linear
    extension orders by (c + alpha*w, c + beta*w, c, w) lexicographically.
    """
    a = as_fraction(alpha, "weight_space.params.alpha")
    b = as_fraction(beta, "weight_space.params.beta")
    if not (Fraction(-1) <= a <= b <= Fraction(1)):
        raise ValidationError(
            f"need -1 <= alpha <= beta <= 1, got alpha={a}, beta={b}", "weight_space.params"
        )
    intervals: dict[ArcKey, tuple[Fraction, Fraction]] = {}
    for key, data in arc_intervals.items():
        if isinstance(data, Mapping):
            c_val, w_val = data["c"], data["w"]
        else:
            c_val, w_val = data
        c = as_fraction(c_val, f"arc {key} c")
        w = as_fraction(w_val, f"arc {key} w")
        if w < 0:
            raise ValidationError(f"arc {key} has negative radius", "weight_space.params")
        if c < w:
            raise ValidationError(
                f"arc {key} needs center >= radius (got c={c}, w={w})", "weight_space.params"
            )
        intervals[key] = (c, w)

    def phi(gamma: Fraction, v: tuple[Fraction, Fraction]) -> Fraction:
        return v[0] + gamma * v[1]

    def comparator(u, v):
        if u == v:
            return EQUAL
        x = phi(a, u) - phi(a, v)
        y = phi(b, u) - phi(b, v)
        u_le_v = x <= 0 and y <= 0
        v_le_u = x >= 0 and y >= 0
        if u_le_v and not v_le_u:
            return LESS
        if v_le_u and not u_le_v:
            return GREATER
        return INCOMPARABLE

    def update(wv, arc):
        c, w = _arc_data(intervals, arc, name)
        return (wv[0] + c, wv[1] + w)

    return WeightSpace(
        name=name,
        comparator=comparator,
        update=update,
        initial=(Fraction(0), Fraction(0)),
        leo_key=lambda wv: (phi(a, wv), phi(b, wv), wv[0], wv[1]),
        render=lambda wv: {"c": render_rational(wv[0]), "w": render_rational(wv[1])},
    )


# ---------------------------------------------------------------------------
# FIFO time-dependent arrival.


class TravelTimeTable:
    """Piecewise-linear travel time over departure time, constant outside.

    Breakpoints are (departure, travel time) pairs with strictly increasing
    departures.  The FIFO requirement — arrival departure + travel is
    non-decreasing — is checked at the breakpoints, which is sufficient for
    piecewise-linear interpolation with constant extrapolation.
    """

    def __init__(self, breakpoints: Sequence[tuple[Any, Any]], path: str = "table"):
        if not breakpoints:
            raise ValidationError("travel-time table needs at least one breakpoint", path)
        pts = []
        for i, (tau, t) in enumerate(breakpoints):
            tau_f = as_fraction(tau, f"{path}[{i}].departure")
            t_f = as_fraction(t, f"{path}[{i}].travel")
            if t_f < 0:
                raise ValidationError(f"negative travel time {t_f}", f"{path}[{i}]")
            pts.append((tau_f, t_f))
        for (t0, _), (t1, _) in zip(pts, pts[1:]):
            if t0 >= t1:
                raise ValidationError("departure breakpoints must strictly increase", path)
        for (tau0, tt0), (tau1, tt1) in zip(pts, pts[1:]):
            if tau0 + tt0 > tau1 + tt1:
                raise ValidationError(
                    f"FIFO violated: departing at {tau0} arrives after departing at {tau1}",
                    path,
                )
        self.points = pts

    def travel(self, tau: Fraction) -> Fraction:
        pts = self.points
        if tau <= pts[0][0]:
            return pts[0][1]
        if tau >= pts[-1][0]:
            return pts[-1][1]
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x0 <= tau <= x1:
                return y0 + (y1 - y0) * (tau - x0) / (x1 - x0)
        raise AssertionError("unreachable")


def fifo_time_space(
    start_time: Any,
    arc_tables: Mapping[ArcKey, Sequence[tuple[Any, Any]]],
    name: str = "fifo_time",
) -> WeightSpace:
    """Arrival time through FIFO travel-time tables; totally ordered."""
    tau0 = as_fraction(start_time, "weight_space.params.start_time")
    if tau0 < 0:
        raise ValidationError("start time must be nonnegative", "weight_space.params.start_time")
    tables = {
        key: TravelTimeTable(bps, path=f"arc {key}") for key, bps in arc_tables.items()
    }

    def comparator(x: Fraction, y: Fraction) -> ComparisonResult:
        if x == y:
            return EQUAL
        return LESS if x < y else GREATER

    def update(tau: Fraction, arc: Arc) -> Fraction:
        table = _arc_data(tables, arc, name)
        return tau + table.travel(tau)

    return WeightSpace(
        name=name,
        comparator=comparator,
        update=update,
        initial=tau0,
        leo_key=lambda tau: (tau,),
        render=render_rational,
    )


# ---------------------------------------------------------------------------
# Weight-constrained shortest path with replenishment.


def wcspr_space(
    limit: Any,
    arc_data: Mapping[ArcKey, Any],
    name: str = "wcspr",
) -> WeightSpace:
    """(cost, resource) pairs saturating at a limit, with replenishment arcs.

    Crossing the limit pins the resource to the limit itself, which marks the
    path infeasible; a replenishment arc otherwise resets the resource to its
    own level.  Saturation wins over replenishment when both apply.  The
    lexicographic (cost, resource) order is a valid linear extension whenever
    every arc has positive cost.

    Args:
        arc_data: per arc, (cost, resource) plus a replenishment flag — as a
            3-tuple or a mapping with keys "w", "r", "replenish".
    """
    m = as_fraction(limit, "weight_space.params.limit")
    if m <= 0:
        raise ValidationError("resource limit must be positive", "weight_space.params.limit")
    data: dict[ArcKey, tuple[Fraction, Fraction, bool]] = {}
    for key, entry in arc_data.items():
        if isinstance(entry, Mapping):
            w_val, r_val = entry["w"], entry["r"]
            repl = bool(entry.get("replenish", False))
        else:
            w_val, r_val, repl = entry
            repl = bool(repl)
        w = as_fraction(w_val, f"arc {key} w")
        r = as_fraction(r_val, f"arc {key} r")
        if w < 0 or r < 0:
            raise ValidationError(f"arc {key} needs nonnegative cost and resource", "weight_space.params")
        if r > m:
            raise ValidationError(f"arc {key} resource {r} exceeds the limit {m}", "weight_space.params")
        data[key] = (w, r, repl)

    def update(wv: tuple[Fraction, Fraction], arc: Arc) -> tuple[Fraction, Fraction]:
        w, r, repl = _arc_data(data, arc, name)
        cost, res = wv
        if res + r >= m:
            # Saturation takes precedence over replenishment at equality.
            return (cost + w, m)
        if repl:
            return (cost + w, r)
        return (cost + w, res + r)

    return WeightSpace(
        name=name,
        comparator=_vector_compare,
        update=update,
        initial=(Fraction(0), Fraction(0)),
        leo_key=lambda wv: tuple(wv),
        infeasible=lambda wv: wv[1] >= m,
        render=lambda wv: {"cost": render_rational(wv[0]), "resource": render_rational(wv[1])},
    )


# ---------------------------------------------------------------------------
# Electric vehicle routing with charging stations.


class ChargeCurve:
    """Sampled charging curve: time -> state of charge, linearly interpolated.

    Times must strictly increase and the state of charge must be
    non-decreasing within [0, 1].  The inverse lookup returns the earliest
    table time reaching a given state of charge (the left inverse on flat
    segments).
    """

    def __init__(self, points: Sequence[tuple[Any, Any]], path: str = "curve"):
        if not points:
            raise ValidationError("charging curve needs at least one point", path)
        pts = []
        for i, (t, y) in enumerate(points):
            t_f = as_fraction(t, f"{path}[{i}].time")
            y_f = as_fraction(y, f"{path}[{i}].soc")
            if not (0 <= y_f <= 1):
                raise ValidationError(f"state of charge {y_f} outside [0, 1]", f"{path}[{i}]")
            pts.append((t_f, y_f))
        for (t0, y0), (t1, y1) in zip(pts, pts[1:]):
            if t0 >= t1:
                raise ValidationError("curve times must strictly increase", path)
            if y0 > y1:
                raise ValidationError("curve must be non-decreasing", path)
        self.points = pts
        self.max_soc = pts[-1][1]

    def value(self, t: Fraction) -> Fraction:
        pts = self.points
        if t <= pts[0][0]:
            return pts[0][1]
        if t >= pts[-1][0]:
            return pts[-1][1]
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x0 <= t <= x1:
                return y0 + (y1 - y0) * (t - x0) / (x1 - x0)
        raise AssertionError("unreachable")

    def earliest_time(self, y: Fraction) -> Fraction:
        """Smallest table time whose state of charge reaches y (y <= max)."""
        pts = self.points
        if y <= pts[0][1]:
            return pts[0][0]
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if y <= y1:
                if y1 == y0:
                    return x0
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
    station_curves: Mapping[int, Sequence[tuple[Any, Any]]],
    epsilon: Any,
    name: str = "evsp",
) -> WeightSpace:
    """(arrival time, state of charge): earlier and fuller is better.

    Road arcs consume charge (clamped to [0, 1]); a loop at a station vertex
    charges for one epsilon of time along the station's curve.  A state of
    charge of zero is absorbing — a stranded vehicle stays stranded — and
    marks the weight infeasible.

    Args:
        road_arcs: per road arc, (travel time, charge consumption) — a pair
            or a mapping with keys "time" and "delta".
        station_curves: per station vertex, the sampled charging curve.
    """
    beta = as_fraction(initial_soc, "weight_space.params.initial_soc")
    if not (0 <= beta <= 1):
        raise ValidationError("initial state of charge must lie in [0, 1]", "weight_space.params")
    eps = as_fraction(epsilon, "weight_space.params.epsilon")
    if eps <= 0:
        raise ValidationError("epsilon must be positive", "weight_space.params.epsilon")
    roads: dict[ArcKey, tuple[Fraction, Fraction]] = {}
    for key, entry in road_arcs.items():
        if isinstance(entry, Mapping):
            t_val, d_val = entry["time"], entry["delta"]
        else:
            t_val, d_val = entry
        t = as_fraction(t_val, f"arc {key} time")
        d = as_fraction(d_val, f"arc {key} delta")
        if t <= 0:
            raise ValidationError(f"arc {key} needs positive travel time", "weight_space.params")
        roads[key] = (t, d)
    curves = {
        int(v): ChargeCurve(pts, path=f"station {v}") for v, pts in station_curves.items()
    }
    for v in curves:
        if (v, v) in roads:
            raise ValidationError(f"vertex {v} has both a road loop and a station", "weight_space.params")

    def comparator(u, v):
        t_cmp = LESS if u[0] < v[0] else GREATER if u[0] > v[0] else EQUAL
        y_cmp = LESS if u[1] > v[1] else GREATER if u[1] < v[1] else EQUAL
        if t_cmp is EQUAL and y_cmp is EQUAL:
            return EQUAL
        if t_cmp in (LESS, EQUAL) and y_cmp in (LESS, EQUAL):
            return LESS
        if t_cmp in (GREATER, EQUAL) and y_cmp in (GREATER, EQUAL):
            return GREATER
        return INCOMPARABLE

    def update(wv, arc):
        t_cur, y = wv
        if arc.tail == arc.head and arc.tail in curves:
            curve = curves[arc.tail]
            if y == 0:
                return (t_cur + eps, Fraction(0))
            return (t_cur + eps, curve.charge(y, eps))
        t, d = _arc_data(roads, arc, name)
        if y == 0:
            return (t_cur + t, Fraction(0))
        new_y = min(Fraction(1), max(Fraction(0), y - d))
        return (t_cur + t, new_y)

    return WeightSpace(
        name=name,
        comparator=comparator,
        update=update,
        initial=(Fraction(0), beta),
        leo_key=lambda wv: (wv[0], -wv[1]),
        infeasible=lambda wv: wv[1] == 0,
        render=lambda wv: {"time": render_rational(wv[0]), "soc": render_rational(wv[1])},
    )


# ---------------------------------------------------------------------------
# Tourist tours: best value per category under a length budget.


def tourist_space(
    budget: Any,
    vertex_values: Sequence[Any],
    vertex_categories: Sequence[int],
    category_count: int,
    arc_lengths: Mapping[ArcKey, Any],
    source: int,
    name: str = "tourist",
) -> WeightSpace:
    """(tour length, best value seen per category), shorter and higher wins.

    Once the accumulated length exceeds the budget the weight collapses to a
    single sentinel (budget + 1, zero vector), so any frontier carries at most
    one over-budget label and every feasible weight dominates it.
    """
    b = as_fraction(budget, "weight_space.params.budget")
    if b < 0:
        raise ValidationError("budget must be nonnegative", "weight_space.params.budget")
    if category_count < 1:
        raise ValidationError("need at least one category", "weight_space.params.category_count")
    n = len(vertex_values)
    if len(vertex_categories) != n:
        raise ValidationError("values and categories must have one entry per vertex", "weight_space.params")
    values = [as_fraction(v, f"values[{i}]") for i, v in enumerate(vertex_values)]
    cats = list(vertex_categories)
    for i, c in enumerate(cats):
        if not (0 <= c < category_count):
            raise ValidationError(f"category {c} out of range", f"categories[{i}]")
        if values[i] < 0:
            raise ValidationError("vertex values must be nonnegative", f"values[{i}]")
    lengths = {key: as_fraction(l, f"arc {key}") for key, l in arc_lengths.items()}
    for key, l in lengths.items():
        if l < 0:
            raise ValidationError(f"arc {key} has negative length", "weight_space.params")
    if not (0 <= source < n):
        raise ValidationError("source out of range", "weight_space.params")

    zero_values = (Fraction(0),) * category_count
    sentinel = (b + 1, zero_values)

    init_values = list(zero_values)
    init_values[cats[source]] = values[source]
    initial = (Fraction(0), tuple(init_values))

    def comparator(u, v):
        len_cmp = LESS if u[0] < v[0] else GREATER if u[0] > v[0] else EQUAL
        val_cmp = _vector_compare(u[1], v[1]).flipped()
        if len_cmp is EQUAL and val_cmp is EQUAL:
            return EQUAL
        if len_cmp in (LESS, EQUAL) and val_cmp in (LESS, EQUAL):
            return LESS
        if len_cmp in (GREATER, EQUAL) and val_cmp in (GREATER, EQUAL):
            return GREATER
        return INCOMPARABLE

    def update(wv, arc):
        if wv == sentinel:
            return sentinel
        length, vals = wv
        new_len = length + _arc_data(lengths, arc, name)
        if new_len > b:
            return sentinel
        head = arc.head
        cat = cats[head]
        if values[head] > vals[cat]:
            vals = vals[:cat] + (values[head],) + vals[cat + 1 :]
        return (new_len, vals)

    return WeightSpace(
        name=name,
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


# ---------------------------------------------------------------------------
# Product of two spaces.


def product_space(first: WeightSpace, second: WeightSpace, name: str | None = None) -> WeightSpace:
    """Componentwise product: both components must agree to call a weight better.

    The linear extension orders by the first component's key, falling back to
    the second's only between structurally equal first components; it exists
    only when both components have one.
    """
    label = name or f"product({first.name},{second.name})"

    def comparator(u, v):
        c1 = first.comparator(u[0], v[0])
        c2 = second.comparator(u[1], v[1])
        if c1 is EQUAL and c2 is EQUAL:
            return EQUAL
        if c1 in (LESS, EQUAL) and c2 in (LESS, EQUAL):
            return LESS
        if c1 in (GREATER, EQUAL) and c2 in (GREATER, EQUAL):
            return GREATER
        return INCOMPARABLE

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
        name=label,
        comparator=comparator,
        update=update,
        initial=(first.initial, second.initial),
        leo_key=leo_key,
        relation_kind=(
            first.relation_kind
            if first.relation_kind == second.relation_kind
            else QUASI_TRANSITIVE
        ),
        render=lambda wv: [first.render_weight(wv[0]), second.render_weight(wv[1])],
        infeasible=infeasible if has_flag else None,
    )


# ---------------------------------------------------------------------------
# Worst-case family on the complete digraph with loops.


def kn_space(n: int, m: int, source: int, name: str = "kn") -> WeightSpace:
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
    bottom: tuple = ()

    def comparator(a, b):
        if a == b:
            return EQUAL
        if a == bottom:
            return LESS
        if b == bottom:
            return GREATER
        return INCOMPARABLE

    def update(w, arc):
        if w == bottom or len(w) >= m:
            return bottom
        return w + (arc.head,)

    return WeightSpace(
        name=name,
        comparator=comparator,
        update=update,
        initial=(source,),
        render=lambda w: {"indices": list(w)} if w != bottom else {"indices": None},
    )
