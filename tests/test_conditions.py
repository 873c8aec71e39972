"""Condition checkers, property closure, and the selection table."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

import posp
from posp import (
    ALL_PROPERTIES,
    EQUAL,
    GREATER,
    LESS,
    NoLeoError,
    PropertySet,
    TABLE_ROWS,
    WeightSpace,
    build_instance,
    check_history_free,
    check_independence,
    check_linear_extension,
    check_monotonicity,
    check_subpath_optimality,
    evaluate_table,
    mda_leo_justified,
    permitted_algorithms,
    recommend_algorithm,
)


def load_instance(name):
    return posp.parse_instance(json.loads(posp.fixture_path(name).read_text()))


# ---------------------------------------------------------------------------
# Checkers on the bundled walkthroughs.


def test_history_free_holds_on_fixture_tables():
    for name in ["nonsimple_witness.json", "improving_loop.json", "subset_catchup.json"]:
        report = check_history_free(load_instance(name), depth=6)
        assert report.holds, name


def test_history_free_fails_when_an_update_is_not_a_function_of_weight_and_arc():
    # Both paths 0-1-3 and 0-2-3 weigh 2.  The update along 3 -> 4 adds how
    # often it was called before, so the two equal weights extend unequally.
    calls = []

    def update(w, arc):
        if arc.key != (3, 4):
            return w + 1
        calls.append(w)
        return w + len(calls)

    space = WeightSpace(
        name="drifting",
        comparator=lambda a, b: LESS if a < b else GREATER if a > b else EQUAL,
        update=update,
        initial=0,
        render=str,
    )
    inst = build_instance(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)], 0, space)
    report = check_history_free(inst, depth=3)
    assert report.verdict == "violated"
    assert report.witness["paths"] == [[0, 1, 3], [0, 2, 3]]
    assert report.witness["arc"] == [3, 4]
    assert report.witness["weight"] == "2"
    first, second = report.witness["extended_weights"]
    assert first != second


def test_strict_independence_fails_by_catchup_but_weak_holds():
    inst = load_instance("subset_catchup.json")
    strict = check_independence(inst, depth=6, mode="strict")
    assert not strict.holds
    assert strict.witness["arc"] == [3, 4]
    assert sorted(strict.witness["paths"]) == [[0, 1, 3], [0, 2, 3]]
    assert strict.witness["extended_relation"] == "equal"
    weak = check_independence(inst, depth=6, mode="weak")
    assert weak.holds


def test_weak_independence_fails_when_extensions_swap_order():
    inst = load_instance("dependent_extension.json")
    report = check_independence(inst, depth=6, mode="weak")
    assert not report.holds
    w = report.witness
    assert w["paths"] == [[0, 1, 3], [0, 2, 3]]
    assert w["arc"] == [3, 4]
    assert w["weights"] == ["1", "2"]
    assert w["extended_weights"] == ["4", "3"]
    assert w["extended_relation"] == "greater"


def test_improving_loop_breaks_weak_subpath_optimality():
    inst = load_instance("improving_loop.json")
    weak = check_subpath_optimality(inst, depth=6, mode="weak")
    assert not weak.holds
    assert weak.witness["weight"] == "1"
    strong = check_subpath_optimality(inst, depth=6, mode="strong")
    assert not strong.holds


def test_subpath_optimality_holds_on_a_clean_vector_instance():
    inst = load_instance("vector_demo.json")
    assert check_subpath_optimality(inst, depth=6, mode="strong").holds
    assert check_subpath_optimality(inst, depth=6, mode="weak").holds


def test_dependent_extension_is_weakly_subpath_optimal():
    inst = load_instance("dependent_extension.json")
    assert check_subpath_optimality(inst, depth=6, mode="weak").holds


def test_improving_loop_cycle_weights_decrease():
    inst = load_instance("improving_loop.json")
    report = check_monotonicity(inst, depth=6, kind="cycle-non-decreasing")
    assert not report.holds
    assert report.witness["cycle"] == [1, 1]
    assert report.witness["relation"] == "greater"


def test_cycle_that_sidesteps_passes_only_non_decreasing():
    # Around (1,2,1) weight C becomes B, which is incomparable to C: never
    # worse, but not an improvement either.
    inst = load_instance("nonsimple_witness.json")
    assert check_monotonicity(inst, depth=6, kind="cycle-non-decreasing").holds
    increasing = check_monotonicity(inst, depth=6, kind="cycle-increasing")
    assert not increasing.holds
    assert increasing.witness["cycle"] == [1, 2, 1]
    assert increasing.witness["relation"] == "incomparable"
    assert not check_monotonicity(inst, depth=6, kind="strict-cycle").holds


def test_tourist_arcs_are_non_decreasing_but_not_increasing():
    # Visiting a higher-value vertex makes the weight incomparable to its
    # prefix: allowed for non-decreasing, fatal for increasing.
    inst = load_instance("tourist_demo.json")
    assert check_monotonicity(inst, depth=4, kind="arc-non-decreasing").holds
    report = check_monotonicity(inst, depth=4, kind="arc-increasing")
    assert not report.holds
    assert report.witness["relation"] == "incomparable"


def test_vector_arcs_are_strictly_increasing():
    inst = load_instance("vector_demo.json")
    assert check_monotonicity(inst, depth=6, kind="strict-arc").holds
    assert check_monotonicity(inst, depth=6, kind="arc-increasing").holds


def test_unknown_kind_rejected():
    inst = load_instance("vector_demo.json")
    with pytest.raises(posp.ValidationError):
        check_monotonicity(inst, kind="sideways")


def test_linear_extension_rejected_when_updates_move_backwards():
    inst = load_instance("improving_loop.json")
    report = check_linear_extension(inst, depth=6)
    assert not report.holds
    assert report.witness["kind"] == "arc-monotonicity"
    assert report.witness["weights"] == ["2", "1"]
    assert report.witness["arc"] == [1, 1]


def test_linear_extension_accepted_for_shortlex_under_union():
    assert check_linear_extension(load_instance("subset_catchup.json"), depth=6).holds


def test_linear_extension_needs_a_key():
    inst = load_instance("nonsimple_witness.json")
    with pytest.raises(NoLeoError):
        check_linear_extension(inst)


# ---------------------------------------------------------------------------
# Property closure.


def test_closure_adds_exactly_the_implied_properties():
    assert PropertySet(["independent"]).closed() == {"independent", "weakly-independent"}
    assert PropertySet(["arc-increasing"]).closed() == {
        "arc-increasing",
        "cycle-increasing",
        "cycle-non-decreasing",
    }
    assert PropertySet(["subpath-optimal"]).closed() == {
        "subpath-optimal",
        "weakly-subpath-optimal",
    }
    assert PropertySet(["well-posed"]).closed() == {"well-posed"}


@settings(max_examples=80, deadline=None)
@given(st.frozensets(st.sampled_from(sorted(ALL_PROPERTIES))))
def test_closure_is_monotone_and_idempotent(props):
    closed = PropertySet(props).closed()
    assert props <= closed
    assert PropertySet(closed).closed() == closed


# ---------------------------------------------------------------------------
# The selection table.


def test_the_table_has_twenty_four_rows():
    assert len(TABLE_ROWS) == 24
    assert [r.index for r in TABLE_ROWS] == list(range(1, 25))
    assert all(r.algorithm in ("bellman", "mda") for r in TABLE_ROWS)
    assert all(r.problem in ("min", "max", "complete") for r in TABLE_ROWS)


def rows_by_algorithm(props, variant):
    rows = recommend_algorithm(props, variant)
    return (
        sorted(r.index for r in rows if r.algorithm == "bellman"),
        sorted(r.index for r in rows if r.algorithm == "mda"),
    )


def test_minimal_declarations_only_reach_the_first_row():
    bellman, mda = rows_by_algorithm(["well-posed", "history-free", "weakly-independent"], "min")
    assert bellman == [1]
    assert mda == []


def test_increasing_independent_weights_unlock_three_row_pairs():
    props = ["well-posed", "history-free", "arc-increasing", "weakly-independent"]
    bellman, mda = rows_by_algorithm(props, "min")
    assert bellman == [1, 4, 5]
    assert mda == [14, 15, 17]


def test_bounded_subpath_optimal_instances_cover_the_max_rows():
    props = ["subpath-optimal", "mu-bounded"]
    bellman, mda = rows_by_algorithm(props, "max")
    assert bellman == [7, 8]
    assert mda == [18, 21]


@settings(max_examples=60, deadline=None)
@given(
    st.frozensets(st.sampled_from(sorted(ALL_PROPERTIES))),
    st.frozensets(st.sampled_from(sorted(ALL_PROPERTIES))),
    st.sampled_from(["min", "max"]),
)
def test_more_declarations_never_remove_rows(a, b, variant):
    small = recommend_algorithm(a, variant)
    big = recommend_algorithm(a | b, variant)
    assert {r.index for r in small} <= {r.index for r in big}


def test_evaluate_table_reports_missing_properties():
    evs = evaluate_table(["history-free"], variant="min")
    by_index = {ev.row.index: ev for ev in evs}
    assert not by_index[1].satisfied
    assert by_index[1].missing == ("weakly-independent", "well-posed")


def test_mda_needs_a_justified_extension_not_just_a_key():
    base = ["well-posed", "history-free", "weakly-independent"]
    # A key alone is not enough: no mda row is satisfied.
    assert not permitted_algorithms(base + ["leo-monotone"], "min", True)["mda"]
    rich = base + ["arc-increasing"]
    assert permitted_algorithms(rich, "min", True)["mda"]
    assert not permitted_algorithms(rich, "min", False)["mda"]  # no key at all
    assert permitted_algorithms(rich, "min", True)["bellman"]
    assert mda_leo_justified(PropertySet(rich).closed())
    assert not mda_leo_justified(PropertySet(base).closed())


def test_variant_filter_separates_min_from_max_rows():
    all_min = evaluate_table(ALL_PROPERTIES, variant="min")
    all_max = evaluate_table(ALL_PROPERTIES, variant="max")
    assert {ev.row.index for ev in all_min} == set(range(1, 7)) | set(range(10, 18))
    assert {ev.row.index for ev in all_max} == {7, 8, 9} | set(range(18, 25))
    assert all(ev.satisfied for ev in all_min + all_max)
