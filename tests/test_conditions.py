"""Condition checkers, property closure, and the selection table."""

from __future__ import annotations

import json
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

import posp
from posp import cli, conditions
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
)
from posp.algorithms import CONVERGED, SolveMode, bellman_solve, brute_force_frontier, mda_solve
from posp.core import reconstruct_path
from posp.generators import MAX_STRUCTURES, MIN_STRUCTURES, random_instance


def load_instance(name):
    return posp.parse_instance(json.loads(posp.fixture_path(name).read_text()))


# ---------------------------------------------------------------------------
# Checkers on the bundled walkthroughs.


def test_history_free_holds_on_fixture_tables():
    for name in ["nonsimple_witness.json", "improving_loop.json", "subset_catchup.json"]:
        report = check_history_free(load_instance(name), depth=6)
        assert report.holds, name


def drifting_instance():
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
    return build_instance(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)], 0, space)


def test_history_free_fails_when_an_update_is_not_a_function_of_weight_and_arc():
    report = check_history_free(drifting_instance(), depth=3)
    assert report.verdict == "violated"
    assert report.witness["paths"] == [[0, 1, 3], [0, 2, 3]]
    assert report.witness["arc"] == [3, 4]
    assert report.witness["weight"] == "2"
    first, second = report.witness["extended_weights"]
    assert first != second


@pytest.mark.parametrize("selection", [["--conditions", "history-free"], []])
def test_history_free_fails_under_posp_check(selection, monkeypatch, capsys):
    # `posp check` memoizes updates for the other checkers; history-free
    # must still see the raw update, or it would hold vacuously.
    instance = drifting_instance()
    monkeypatch.setattr(cli, "_load_document", lambda path: None)
    monkeypatch.setattr(cli, "parse_instance", lambda doc: instance)
    assert cli.main(["check", "drifting", "--depth", "3", *selection]) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert reports[0]["condition"] == "history-free"
    assert reports[0]["verdict"] == "violated"
    assert reports[0]["witness"]["paths"] == [[0, 1, 3], [0, 2, 3]]


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


def test_unknown_checker_modes_are_rejected():
    inst = load_instance("vector_demo.json")
    with pytest.raises(posp.ValidationError, match=r"^unknown independence mode 'semi'$"):
        check_independence(inst, depth=2, mode="semi")
    with pytest.raises(posp.ValidationError, match=r"^unknown subpath-optimality mode 'semi'$"):
        check_subpath_optimality(inst, depth=2, mode="semi")


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


def cubic_linear_extension(instance, depth):
    """Reference for `check_linear_extension`: every pair, then every triple."""
    space = instance.space
    reps = conditions.PathSample(instance).representatives(depth - 1)
    sample = list(dict.fromkeys(w for found in reps for _p, w in found))
    sample = sample[: conditions.LEO_SAMPLE_LIMIT]
    render = space.render_weight

    def violated(kind, a, b, **extra):
        witness = {"kind": kind, "weights": [render(a), render(b)]}
        return conditions.ConditionReport(
            "linear-extension", "violated", depth, {**witness, **extra}
        )

    keys = [space.leo_key(w) for w in sample]
    for a, ka in zip(sample, keys):
        if not ka <= ka:
            return violated("reflexivity", a, a)
    for a, ka in zip(sample, keys):
        for b, kb in zip(sample, keys):
            ab_first = ka <= kb
            ba_first = kb <= ka
            if not ab_first and not ba_first:
                return violated("totality", a, b)
            if ab_first and ba_first and a != b:
                return violated("antisymmetry", a, b)
            if space.comparator(a, b) is LESS and not ab_first:
                return violated("dominance-agreement", a, b)
    for a, ka in zip(sample, keys):
        for b, kb in zip(sample, keys):
            if not ka <= kb:
                continue
            for c, kc in zip(sample, keys):
                if kb <= kc and not ka <= kc:
                    return violated("transitivity", a, c, via=render(b))
    for v in range(instance.vertex_count):
        for path, w in reps[v]:
            for arc in instance.out_arcs(v):
                w2 = space.update(w, arc)
                if not space.leo_key(w) <= space.leo_key(w2):
                    return violated("arc-monotonicity", w, w2, path=list(path), arc=list(arc.key))
    return conditions.ConditionReport("linear-extension", "holds-to-depth", depth)


class Key:
    """A pick-order key whose `<=` and `==` read arbitrary tables."""

    def __init__(self, w, le, eq):
        self.w, self.le, self.eq = w, le, eq

    def __le__(self, other):
        return self.le[self.w][other.w]

    def __eq__(self, other):
        return self.eq[self.w][other.w]


def random_pick_order_instance(rng, k):
    # Weight i is the head of arc 0 -> i, so the sample is 0, 1, ..., k.
    # `<=` is a linear order, random or by weight, with some pairs flipped, made
    # non-reflexive, non-total or non-antisymmetric at a chosen rate.
    n = k + 1
    rank = list(range(n))
    if rng.random() < 0.5:
        rng.shuffle(rank)
    flip = rng.choice([0, 0.05, 0.3])
    broken = rng.choice([0, 0.01, 0.1])
    dominated = rng.choice([0, 0.03])
    le = [[rank[i] <= rank[j] for j in range(n)] for i in range(n)]
    for i in range(n):
        le[i][i] = rng.random() >= broken / 4
        for j in range(i + 1, n):
            if rng.random() < flip:
                le[i][j], le[j][i] = le[j][i], le[i][j]
            if rng.random() < broken:
                le[i][j] = le[j][i] = rng.random() < 0.5
    eq = [[rng.random() < 0.5 for _ in range(n)] for _ in range(n)]
    less = {(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < dominated}
    space = WeightSpace(
        name="pick-order",
        comparator=lambda a, b: EQUAL if a == b else LESS if (a, b) in less else GREATER,
        update=lambda w, arc: arc.head,
        initial=0,
        leo_key=lambda w: Key(w, le, eq),
        render=str,
    )
    arcs = [(0, i) for i in range(1, n)] + [(i, i + 1) for i in range(1, k)]
    return build_instance(n, arcs, 0, space)


def test_linear_extension_audit_equals_the_cubic_reference():
    rng = random.Random(5)
    kinds = set()
    for trial in range(400):
        k = rng.randint(30, 40) if trial % 20 == 0 else rng.randint(1, 12)
        inst = random_pick_order_instance(rng, k)
        want = cubic_linear_extension(inst, 2).to_dict()
        assert check_linear_extension(inst, 2).to_dict() == want
        kinds.add(want["witness"]["kind"] if want["witness"] else want["verdict"])
    assert kinds == {
        "reflexivity",
        "totality",
        "antisymmetry",
        "dominance-agreement",
        "transitivity",
        "arc-monotonicity",
        "holds-to-depth",
    }


def closed_walk_monotonicity(instance, depth, kind):
    """Reference for the cycle kinds of `check_monotonicity`: a depth-first
    search of closed walks at each representative path's head."""
    accept = conditions._ACCEPTS[kind]
    space = instance.space
    render = space.render_weight
    reps = conditions.PathSample(instance).representatives(depth - 1)
    for v in range(instance.vertex_count):
        for path, w in reps[v]:
            remaining = depth - (len(path) - 1)
            if remaining < 1:
                continue
            stack = [((v,), w)]
            while stack:
                walk, cur = stack.pop()
                if len(walk) > 1 and walk[-1] == v:
                    rel = space.comparator(w, cur)
                    if rel not in accept:
                        witness = {
                            "path": list(path),
                            "cycle": list(walk),
                            "weights": [render(w), render(cur)],
                            "relation": rel.value,
                        }
                        return conditions.ConditionReport(kind, "violated", depth, witness)
                if len(walk) - 1 >= remaining:
                    continue
                for arc in reversed(instance.out_arcs(walk[-1])):
                    stack.append((walk + (arc.head,), space.update(cur, arc)))
    return conditions.ConditionReport(kind, "holds-to-depth", depth)


def test_cycle_kinds_equal_the_closed_walk_reference():
    fixtures = sorted(p.name for p in posp.fixture_path("").iterdir() if p.name.endswith(".json"))
    assert len(fixtures) == 12
    instances = [load_instance(name) for name in fixtures] + [
        random_instance(structure, seed)
        for structure in MIN_STRUCTURES + MAX_STRUCTURES
        for seed in range(40)
    ]
    seen = set()
    for inst in instances:
        for depth in range(8):
            for kind in conditions.MONOTONICITY_KINDS[3:]:
                want = closed_walk_monotonicity(inst, depth, kind).to_dict()
                assert check_monotonicity(inst, depth, kind).to_dict() == want, (inst.name, depth, kind)
                seen.add((kind, want["verdict"]))
    assert len(seen) == 6
    # One sample serves all three kinds and every depth below its own.
    sample = conditions.PathSample(instances[0])
    for depth in range(7, -1, -1):
        for kind in conditions.MONOTONICITY_KINDS[3:]:
            got = check_monotonicity(instances[0], depth, kind, paths=sample).to_dict()
            assert got == closed_walk_monotonicity(instances[0], depth, kind).to_dict()
    assert sample.depth == 7


def test_the_sample_memo_answers_an_equal_weight_given_as_another_object():
    # The memo keys weights by identity; a weight equal to a memoized one but
    # made apart from it must still update to an equal result.  Each twin is
    # dropped at once, so the next one may take its id.
    fresh = 0
    for name in sorted(p.name for p in posp.fixture_path("").iterdir() if p.name.endswith(".json")):
        instance = load_instance(name)
        sample = conditions.PathSample(instance)
        space = sample.space
        for v, found in enumerate(sample.representatives(3)):
            for arc in instance.out_arcs(v):
                for _path, w in found:
                    fresh += pickle.loads(pickle.dumps(w)) is not w
                    want = instance.space.update(w, arc)
                    assert space.update(pickle.loads(pickle.dumps(w)), arc) == want, (name, w, arc)
                    assert space.update(w, arc) == want, (name, w, arc)
    assert fresh > 0


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


def satisfied_rows(properties, variant):
    return [ev.row for ev in evaluate_table(properties, variant) if ev.satisfied]


def rows_by_algorithm(props, variant):
    rows = satisfied_rows(props, variant)
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
    small = satisfied_rows(a, variant)
    big = satisfied_rows(a | b, variant)
    assert {r.index for r in small} <= {r.index for r in big}


def row_instances(row, variant):
    """The generator instances a row covers: its required properties are in
    their declared closure and, for an MDA row, the selection permits MDA."""
    for structure in MIN_STRUCTURES + MAX_STRUCTURES:
        for seed in range(5):
            inst = random_instance(structure, seed)
            if not row.required <= PropertySet(inst.declared).closed():
                continue
            has_leo = inst.space.leo_key is not None
            if row.algorithm == "mda" and not permitted_algorithms(inst.declared, variant, has_leo)["mda"]:
                continue
            yield inst


@pytest.mark.parametrize("row", TABLE_ROWS, ids=lambda row: f"row-{row.index}")
def test_every_table_row_delivers_its_guarantee(row):
    # The sufficiency half of the table: where a row's premises are declared
    # (and, the generators' declarations being sound, hold), the row's solver
    # returns what the oracle does.  A `complete` row promises every
    # efficient weight, not every efficient path.
    variant = "min" if row.problem == "min" else "max"
    mode = SolveMode(variant)
    solve = bellman_solve if row.algorithm == "bellman" else mda_solve
    covered = 0
    for inst in row_instances(row, variant):
        result = solve(inst, mode)
        assert result.status == CONVERGED, inst.name
        oracle = brute_force_frontier(inst, 10 if mode is SolveMode.MIN else inst.mu, mode)
        for v in range(inst.vertex_count):
            if row.guarantee == "maximal":
                got = {reconstruct_path(lab) for lab in result.frontiers[v]}
                want = {e.path for e in oracle.entries[v]}
            else:
                got = {lab.weight for lab in result.frontiers[v]}
                want = {e.weight for e in oracle.entries[v]}
            assert got == want, (inst.name, v)
        covered += 1
    assert covered >= 5


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


def table_permitted(properties, variant, has_leo):
    rows = satisfied_rows(properties, variant)
    return {
        "bellman": any(r.algorithm == "bellman" for r in rows),
        "mda": any(r.algorithm == "mda" for r in rows)
        and has_leo
        and mda_leo_justified(PropertySet(properties).closed()),
    }


def test_permitted_algorithms_equals_the_table_evaluation_everywhere():
    names = sorted(ALL_PROPERTIES)
    for mask in range(1 << len(names)):
        declared = [name for i, name in enumerate(names) if mask >> i & 1]
        if mask % 7 == 0:
            declared.append("not-a-property")
        for variant in ("min", "max"):
            for has_leo in (False, True):
                expected = table_permitted(declared, variant, has_leo)
                assert permitted_algorithms(declared, variant, has_leo) == expected
                assert permitted_algorithms(PropertySet(declared), variant, has_leo) == expected


def test_permitted_algorithms_rejects_an_unknown_variant():
    rich = ["well-posed", "history-free", "weakly-independent", "arc-increasing"]
    with pytest.raises(posp.ValidationError, match="unknown variant 'mid'"):
        permitted_algorithms(rich, "mid", True)


def test_variant_filter_separates_min_from_max_rows():
    all_min = evaluate_table(ALL_PROPERTIES, variant="min")
    all_max = evaluate_table(ALL_PROPERTIES, variant="max")
    assert {ev.row.index for ev in all_min} == set(range(1, 7)) | set(range(10, 18))
    assert {ev.row.index for ev in all_max} == {7, 8, 9} | set(range(18, 25))
    assert all(ev.satisfied for ev in all_min + all_max)
