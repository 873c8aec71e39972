"""Weight structures: worked values per family plus order-law properties."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from posp import (
    EQUAL,
    GREATER,
    INCOMPARABLE,
    LESS,
    Arc,
    MissingUpdateEntryError,
    ValidationError,
)
from posp.weights import (
    ChargeCurve,
    TravelTimeTable,
    as_fraction,
    as_rational,
    bottleneck_space,
    evsp_space,
    fifo_time_space,
    interval_space,
    kn_space,
    mosp_space,
    product_space,
    render_rational,
    semilattice_min_space,
    subset_space,
    table_space,
    tourist_space,
    wcspr_space,
)

MAX_EXAMPLES = 120

F = Fraction
rationals = st.fractions(min_value=-50, max_value=50, max_denominator=16)
small_vectors = st.tuples(rationals, rationals, rationals)


# ---------------------------------------------------------------------------
# Rational plumbing.


def test_as_fraction_accepts_ints_strings_and_decimal_text():
    assert as_fraction(3) == F(3)
    assert as_fraction("3/4") == F(3, 4)
    assert as_fraction(0.1) == F(1, 10)  # via the literal text, not the float value


def test_as_fraction_rejects_bool_and_junk():
    with pytest.raises(ValidationError):
        as_fraction(True)
    with pytest.raises(ValidationError):
        as_fraction([1])
    with pytest.raises(ValidationError):
        as_fraction("three")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_floats_are_rejected(value):
    with pytest.raises(ValidationError, match="finite"):
        as_fraction(value)
    with pytest.raises(ValidationError, match="finite"):
        as_rational(value)


def test_as_rational_keeps_ints_and_reads_everything_else_exactly():
    assert type(as_rational(3)) is int
    for value, exact in ((F(3), F(3)), ("3", F(3)), ("3/4", F(3, 4)), (0.1, F(1, 10))):
        got = as_rational(value)
        assert type(got) is Fraction and got == exact
    with pytest.raises(ValidationError):
        as_rational(True)


def test_render_rational():
    assert render_rational(7) == 7
    assert render_rational(F(4, 2)) == 2
    assert render_rational(F(1, 3)) == "1/3"
    assert render_rational(F(-5, 10)) == "-1/2"


# ---------------------------------------------------------------------------
# Additive vectors.


def test_mosp_componentwise_order():
    s = mosp_space(2, {(0, 1): [1, 3]})
    assert s.comparator((1, 1), (2, 2)) is LESS
    assert s.comparator((1, 3), (3, 1)) is INCOMPARABLE
    assert s.comparator((1, 1), (1, 1)) is EQUAL
    assert s.update((1, 1), Arc(0, 0, 1)) == (2, 4)


def test_mosp_missing_arc_entry():
    s = mosp_space(1, {})
    with pytest.raises(MissingUpdateEntryError):
        s.update((F(0),), Arc(0, 0, 1))


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(small_vectors, small_vectors)
def test_mosp_antisymmetry(a, b):
    s = mosp_space(3, {})
    assert s.comparator(a, b) is s.comparator(b, a).flipped()


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(small_vectors, small_vectors, small_vectors)
def test_mosp_translation_keeps_strict_order(a, b, c):
    # Additive update is independent: shifting both sides cannot flip dominance.
    s = mosp_space(3, {})
    shifted = s.comparator(tuple(x + y for x, y in zip(a, c)), tuple(x + y for x, y in zip(b, c)))
    assert shifted is s.comparator(a, b)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(small_vectors, small_vectors, small_vectors)
def test_mosp_transitivity(a, b, c):
    s = mosp_space(3, {})
    if s.comparator(a, b) is LESS and s.comparator(b, c) is LESS:
        assert s.comparator(a, c) is LESS


# ---------------------------------------------------------------------------
# Bottleneck vectors are a product of sums and meets.


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(rationals, st.fractions(min_value=1, max_value=20, max_denominator=4)), min_size=2, max_size=2),
    st.fractions(min_value=1, max_value=20, max_denominator=4),
)
def test_bottleneck_matches_product_of_pieces(arcdata, cap0):
    arcs = {(0, 1): None, (1, 2): None}
    adds = {}
    caps = {}
    both = {}
    for key, (addv, capv) in zip(arcs, arcdata):
        adds[key] = [addv]
        caps[key] = [capv]
        both[key] = {"additive": [addv], "bottleneck": [capv]}
    bn = bottleneck_space(1, 1, both, initial_bottleneck=[cap0])
    pr = product_space(
        mosp_space(1, adds),
        semilattice_min_space(1, caps, initial=[cap0]),
    )
    a1, a2 = Arc(0, 0, 1), Arc(1, 1, 2)
    wb = bn.update(bn.update(bn.initial, a1), a2)
    wp = pr.update(pr.update(pr.initial, a1), a2)
    assert wb == wp
    wb1 = bn.update(bn.initial, a1)
    wp1 = pr.update(pr.initial, a1)
    assert bn.comparator(wb1, wb) is pr.comparator(wp1, wp)
    assert bn.leo_key(wb) == pr.leo_key(wp)


def test_bottleneck_worked_example():
    s = bottleneck_space(
        1, 1, {(0, 1): {"additive": [3], "bottleneck": [5]}, (0, 2): {"additive": [4], "bottleneck": [6]}}
    )
    w1 = s.update(s.initial, Arc(0, 0, 1))
    w2 = s.update(s.initial, Arc(1, 0, 2))
    # Lower cost but tighter bottleneck: neither dominates.
    assert s.comparator(w1, w2) is INCOMPARABLE


# ---------------------------------------------------------------------------
# Subsets under union with the shortlex extension.


def powerset(ground):
    for r in range(len(ground) + 1):
        yield from (frozenset(c) for c in combinations(ground, r))


def test_subset_order_is_containment():
    s = subset_space(3, {(0, 1): [1]})
    assert s.comparator(frozenset(), frozenset({1})) is LESS
    assert s.comparator(frozenset({1}), frozenset({2})) is INCOMPARABLE
    assert s.update(frozenset({2}), Arc(0, 0, 1)) == frozenset({1, 2})


def test_shortlex_extends_containment_exhaustively():
    # Every proper containment on 2^[5] must agree with the shortlex key.
    s = subset_space(5, {})
    key = s.leo_key
    sets = list(powerset(range(1, 6)))
    for a in sets:
        for b in sets:
            if a < b:
                assert key(a) < key(b)
            if a != b:
                assert key(a) != key(b)


def test_shortlex_is_total_and_antisymmetric():
    s = subset_space(4, {})
    sets = list(powerset(range(1, 5)))
    keys = [s.leo_key(x) for x in sets]
    assert len(set(keys)) == len(keys)
    assert sorted(keys)  # tuples of uniform shape: totally ordered


def test_union_is_weakly_but_not_strictly_independent():
    s = subset_space(2, {})
    a, b, x = frozenset({1}), frozenset({1, 2}), frozenset({2})
    assert s.comparator(a, b) is LESS
    assert s.comparator(a | x, b | x) is EQUAL  # catch-up: strictness is lost


def test_subset_rejects_elements_outside_ground_set():
    with pytest.raises(ValidationError):
        subset_space(2, {(0, 1): [3]})


# ---------------------------------------------------------------------------
# Intervals under scalarization envelopes.


def test_interval_validation():
    with pytest.raises(ValidationError):
        interval_space(1, -1, {})  # alpha > beta
    with pytest.raises(ValidationError):
        interval_space(-2, 0, {})
    with pytest.raises(ValidationError):
        interval_space(0, 1, {(0, 1): (1, 2)})  # c < w
    with pytest.raises(ValidationError):
        interval_space(0, 1, {(0, 1): (1, -1)})  # negative radius


def test_interval_dominance_needs_both_envelopes():
    s = interval_space(-1, 1, {})
    # (c, w): phi_-1 = c - w, phi_1 = c + w.
    assert s.comparator((F(1), F(0)), (F(3), F(1))) is LESS
    assert s.comparator((F(1), F(0)), (F(2), F(2))) is INCOMPARABLE
    assert s.comparator((F(2), F(1)), (F(2), F(1))) is EQUAL


def test_interval_equivalent_but_distinct_pairs_are_incomparable():
    # With alpha == beta both scalarizations coincide; distinct pairs with the
    # same image must not be reported equal, or antisymmetry breaks.
    s = interval_space(0, 0, {})
    assert s.comparator((F(3), F(1)), (F(3), F(2))) is INCOMPARABLE


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    st.fractions(min_value=0, max_value=30, max_denominator=8),
    st.fractions(min_value=0, max_value=30, max_denominator=8),
    st.fractions(min_value=0, max_value=30, max_denominator=8),
    st.fractions(min_value=0, max_value=30, max_denominator=8),
)
def test_interval_leo_key_respects_dominance(c1, w1, c2, w2):
    s = interval_space(F(-1, 2), F(1, 2), {})
    u, v = (c1, w1), (c2, w2)
    rel = s.comparator(u, v)
    if rel is LESS:
        assert s.leo_key(u) < s.leo_key(v)
    elif rel is GREATER:
        assert s.leo_key(u) > s.leo_key(v)
    if u != v:
        assert s.leo_key(u) != s.leo_key(v)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(small_vectors.map(lambda t: (abs(t[0]) + abs(t[1]), abs(t[1]))), small_vectors.map(lambda t: (abs(t[0]) + abs(t[2]), abs(t[2]))))
def test_interval_antisymmetry(u, v):
    s = interval_space(F(-1), F(1), {})
    assert s.comparator(u, v) is s.comparator(v, u).flipped()


# ---------------------------------------------------------------------------
# FIFO travel-time tables.


def test_travel_table_rejects_non_fifo():
    with pytest.raises(ValidationError):
        TravelTimeTable([(0, 5), (1, 3)])  # would arrive earlier by leaving later
    with pytest.raises(ValidationError):
        TravelTimeTable([(3, 1), (1, 1)])  # departures not increasing
    with pytest.raises(ValidationError):
        TravelTimeTable([(0, -1)])


def test_travel_table_interpolates_and_extrapolates():
    t = TravelTimeTable([(0, 4), (4, 2)])
    assert t.travel(F(0)) == 4
    assert t.travel(F(2)) == 3  # halfway between breakpoints
    assert t.travel(F(4)) == 2
    assert t.travel(F(10)) == 2  # constant beyond the last breakpoint


@st.composite
def fifo_tables(draw):
    taus = sorted(draw(st.sets(st.integers(0, 20), min_size=1, max_size=4)))
    entries = []
    prev_arrival = None
    for tau in taus:
        t = draw(st.integers(0, 8))
        if prev_arrival is not None and tau + t < prev_arrival:
            t = prev_arrival - tau
        entries.append((tau, t))
        prev_arrival = tau + t
    return entries


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(fifo_tables(), st.fractions(min_value=0, max_value=25, max_denominator=8), st.fractions(min_value=0, max_value=25, max_denominator=8))
def test_fifo_arrival_is_monotone(table, t1, t2):
    tab = TravelTimeTable(table)
    lo, hi = min(t1, t2), max(t1, t2)
    assert lo + tab.travel(lo) <= hi + tab.travel(hi)


def test_fifo_space_is_a_total_order():
    s = fifo_time_space(0, {(0, 1): [(0, 2)]})
    assert s.comparator(F(1), F(2)) is LESS
    assert s.comparator(F(2), F(1)) is GREATER
    assert s.comparator(F(2), F(2)) is EQUAL
    assert s.update(F(0), Arc(0, 0, 1)) == F(2)


# ---------------------------------------------------------------------------
# Weight-constrained paths with replenishment.


def test_wcspr_three_update_branches():
    s = wcspr_space(
        10,
        {
            (0, 1): {"w": 2, "r": 4},
            (1, 2): {"w": 1, "r": 7},
            (1, 3): {"w": 3, "r": 2, "replenish": True},
        },
    )
    accumulate = s.update(s.initial, Arc(0, 0, 1))
    assert accumulate == (F(2), F(4))
    saturate = s.update(accumulate, Arc(1, 1, 2))
    assert saturate == (F(3), F(10))  # 4 + 7 >= 10: pinned to the limit
    assert s.is_infeasible(saturate)
    replenish = s.update(accumulate, Arc(2, 1, 3))
    assert replenish == (F(5), F(2))  # reset to the arc's own resource
    assert not s.is_infeasible(replenish)


def test_wcspr_saturation_beats_replenishment():
    # A replenishment arc still saturates when the sum hits the limit.
    s = wcspr_space(5, {(0, 1): {"w": 1, "r": 4, "replenish": True}})
    w = s.update((F(0), F(2)), Arc(0, 0, 1))
    assert w == (F(1), F(5))


@pytest.mark.parametrize("flag, resource", [(True, 4), (1, 4), (False, 6), (0, 6)])
def test_wcspr_replenish_is_a_boolean_or_zero_or_one(flag, resource):
    s = wcspr_space(10, {(0, 1): {"w": 1, "r": 4, "replenish": flag}})
    assert s.update((F(0), F(2)), Arc(0, 0, 1)) == (F(1), F(resource))


def test_wcspr_validation():
    for flag in ("false", "true", 2, F(1, 2), None, []):
        with pytest.raises(ValidationError):
            wcspr_space(10, {(0, 1): {"w": 1, "r": 4, "replenish": flag}})
    with pytest.raises(ValidationError):
        wcspr_space(0, {})
    with pytest.raises(ValidationError):
        wcspr_space(5, {(0, 1): {"w": -1, "r": 0}})
    with pytest.raises(ValidationError):
        wcspr_space(5, {(0, 1): {"w": 0, "r": 6}})  # resource above the limit


# ---------------------------------------------------------------------------
# Charging curves and electric vehicles.


def test_charge_curve_left_inverse_and_step():
    c = ChargeCurve([(0, 0), (1, F(6, 10)), (2, 1)])
    assert c.value(F(1, 2)) == F(3, 10)
    assert c.earliest_time(F(3, 10)) == F(1, 2)
    assert c.earliest_time(F(6, 10)) == 1
    assert c.charge(F(0), F(1)) == F(6, 10)
    assert c.charge(F(6, 10), F(1)) == 1
    assert c.charge(F(1), F(1)) == 1  # already full: no change


def test_charge_curve_validation():
    with pytest.raises(ValidationError):
        ChargeCurve([(0, F(1, 2)), (0, 1)])  # times not increasing
    with pytest.raises(ValidationError):
        ChargeCurve([(0, F(1, 2)), (1, F(1, 4))])  # soc decreasing
    with pytest.raises(ValidationError):
        ChargeCurve([(0, 0), (1, 2)])  # soc above 1


def evsp_demo_space():
    return evsp_space(
        F(1, 2),
        {(0, 1): (2, F(3, 10)), (1, 2): (3, F(6, 10)), (2, 3): (2, F(2, 10)), (0, 2): (6, F(1, 10))},
        {1: [(0, 0), (1, F(6, 10)), (2, 1)]},
        1,
    )


def test_evsp_road_and_station_updates():
    s = evsp_demo_space()
    after_road = s.update(s.initial, Arc(0, 0, 1))
    assert after_road == (F(2), F(1, 5))
    charged = s.update(after_road, Arc(1, 1, 1))
    assert charged == (F(3), F(11, 15))
    full = s.update(charged, Arc(1, 1, 1))
    assert full == (F(4), F(1))


def test_evsp_empty_battery_is_absorbing_and_infeasible():
    s = evsp_demo_space()
    stranded = (F(5), F(0))
    assert s.is_infeasible(stranded)
    assert s.update(stranded, Arc(0, 0, 1))[1] == 0
    assert s.update(stranded, Arc(1, 1, 1))[1] == 0  # charging cannot revive it


def test_evsp_comparator_needs_time_and_charge_to_agree():
    s = evsp_demo_space()
    assert s.comparator((F(2), F(1, 2)), (F(3), F(1, 4))) is LESS
    assert s.comparator((F(2), F(1, 4)), (F(3), F(1, 2))) is INCOMPARABLE


def test_evsp_station_conflicting_road_loop_rejected():
    with pytest.raises(ValidationError):
        evsp_space(F(1, 2), {(1, 1): (2, F(1, 10))}, {1: [(0, 0), (1, 1)]}, 1)


# ---------------------------------------------------------------------------
# Sightseeing tours.


def tour_space():
    return tourist_space(
        budget=7,
        vertex_values=[3, 5, 2, 7],
        vertex_categories=[0, 0, 1, 1],
        category_count=2,
        arc_lengths={(0, 1): 1, (1, 2): 2, (2, 3): 4, (0, 2): 8, (1, 3): 16},
        source=0,
    )


def test_tourist_initial_scores_the_source():
    s = tour_space()
    assert s.initial == (F(0), (F(3), F(0)))


def test_tourist_update_takes_category_maxima():
    s = tour_space()
    w = s.update(s.initial, Arc(0, 0, 1))
    assert w == (F(1), (F(5), F(0)))
    w = s.update(w, Arc(1, 1, 2))
    assert w == (F(3), (F(5), F(2)))
    w = s.update(w, Arc(2, 2, 3))
    assert w == (F(7), (F(5), F(7)))
    assert not s.is_infeasible(w)


def test_tourist_over_budget_collapses_to_one_sentinel():
    s = tour_space()
    w1 = s.update(s.initial, Arc(3, 0, 2))  # length 8 > 7
    w2 = s.update(s.update(s.initial, Arc(0, 0, 1)), Arc(4, 1, 3))  # 1 + 16
    assert w1 == w2 == (F(8), (F(0), F(0)))
    assert s.is_infeasible(w1)
    assert s.update(w1, Arc(0, 0, 1)) == w1  # sentinel absorbs further travel


def test_tourist_every_feasible_weight_dominates_the_sentinel():
    s = tour_space()
    sentinel = s.update(s.initial, Arc(3, 0, 2))
    assert s.comparator(s.initial, sentinel) is LESS
    assert s.comparator((F(7), (F(5), F(7))), sentinel) is LESS


def test_tourist_longer_but_richer_is_incomparable():
    s = tour_space()
    short = (F(1), (F(5), F(0)))
    long_rich = (F(3), (F(5), F(2)))
    assert s.comparator(short, long_rich) is INCOMPARABLE


# ---------------------------------------------------------------------------
# Products.


def test_product_comparator_agreement_matrix():
    chain = table_space(["0", "1", "2"], [("0", "1"), ("1", "2")], {}, "0")
    s = product_space(chain, chain)
    assert s.comparator(("0", "0"), ("1", "1")) is LESS
    assert s.comparator(("0", "1"), ("0", "1")) is EQUAL
    assert s.comparator(("0", "1"), ("0", "2")) is LESS  # equal x strict stays strict
    assert s.comparator(("1", "0"), ("0", "1")) is INCOMPARABLE  # opposed components
    assert s.comparator(("1", "1"), ("0", "0")) is GREATER


def test_product_has_leo_only_when_both_parts_do():
    plain = mosp_space(1, {})
    keyed = mosp_space(1, {})
    assert product_space(keyed, keyed).leo_key is not None
    no_leo = kn_space(2, 2, 0)
    assert product_space(plain, no_leo).leo_key is None


# ---------------------------------------------------------------------------
# The worst-case family.


def test_kn_weights_record_the_visited_indices():
    s = kn_space(3, 3, 0)
    assert s.initial == (0,)
    w = s.update(s.initial, Arc(0, 0, 2))
    assert w == (0, 2)
    w = s.update(w, Arc(0, 2, 1))
    assert w == (0, 2, 1)
    assert s.comparator((0, 2, 1), (0, 1, 2)) is INCOMPARABLE


def test_kn_collapse_at_length_m():
    s = kn_space(3, 2, 0)
    w = s.update(s.initial, Arc(0, 0, 1))
    assert w == (0, 1)
    bottom = s.update(w, Arc(0, 1, 2))  # path length 2 == m collapses
    assert bottom == ()
    assert s.comparator(bottom, (0, 1)) is LESS
    assert s.update(bottom, Arc(0, 2, 0)) == ()
