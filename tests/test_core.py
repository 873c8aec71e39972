"""Core model: comparison results, table spaces, instances, labels."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import posp
from posp import (
    EQUAL,
    GREATER,
    INCOMPARABLE,
    LESS,
    Arc,
    ComparisonResult,
    DomainMismatchError,
    MissingUpdateEntryError,
    NoLeoError,
    ValidationError,
    WeightSpace,
    build_instance,
    fold_weight,
    leo_pick,
    reconstruct_path,
)
from posp.algorithms import SolveMode, bellman_solve
from posp.weights import table_space

MAX_EXAMPLES = 150


def load_fixture(name):
    return json.loads(posp.fixture_path(name).read_text())


def test_flipped_is_an_involution():
    for r in ComparisonResult:
        assert r.flipped().flipped() is r
    assert LESS.flipped() is GREATER
    assert EQUAL.flipped() is EQUAL
    assert INCOMPARABLE.flipped() is INCOMPARABLE


def test_arc_key():
    assert Arc(0, 3, 7).key == (3, 7)


def test_arc_is_a_slotted_record_equal_and_hashed_by_its_fields():
    arc = Arc(0, 0, 1)
    assert (arc.index, arc.tail, arc.head, arc.key) == (0, 0, 1, (0, 1))
    assert not hasattr(arc, "__dict__")
    assert repr(arc) == "Arc(index=0, tail=0, head=1)"
    assert arc == Arc(index=0, tail=0, head=1)
    assert hash(arc) == hash(Arc(0, 0, 1)) == hash((0, 0, 1))
    assert arc != Arc(1, 0, 1) and arc != Arc(0, 1, 1) and arc != Arc(0, 0, 2)
    assert arc != (0, 0, 1)
    assert len({arc, Arc(0, 0, 1), Arc(1, 0, 1)}) == 2


@pytest.mark.parametrize(
    "n, arcs, source, path, message",
    [
        (0, [], 0, "graph.vertex_count", "vertex count must be positive"),
        (2, [], 2, "source", "source 2 out of range"),
        # Arcs are checked in order, each for index, endpoints, then parallels.
        (2, [Arc(0, 0, 2), Arc(5, 0, 1)], 0, "graph.arcs[0]", "arc (0, 2) has an endpoint out of range"),
        (2, [Arc(0, 0, 1), Arc(5, 0, 2)], 0, "graph.arcs", "arc indices must match their positions"),
        (2, [Arc(0, 0, 1), Arc(1, 0, 1), Arc(2, 0, 2)], 0, "graph.arcs[1]", "parallel arc (0, 1) (first at index 0)"),
    ],
)
def test_instance_errors_win_in_order(n, arcs, source, path, message):
    space = WeightSpace("w", lambda a, b: EQUAL, lambda w, arc: w, 0)
    with pytest.raises(ValidationError) as info:
        posp.Instance(n, tuple(arcs), source, space)
    assert (info.value.path, info.value.message) == (path, message)


def test_instance_adjacency_keeps_arc_order():
    inst = build_instance(3, [(0, 1), (2, 1), (0, 2), (1, 1)], 0, WeightSpace("w", None, None, 0))
    assert [a.index for a in inst.out_arcs(0)] == [0, 2]
    assert [a.index for a in inst.in_arcs(1)] == [0, 1, 3]
    assert inst.out_arcs(1) == (Arc(3, 1, 1),)
    assert inst.arc_between(2, 1) is inst.arcs[1]
    assert inst.arc_between(1, 0) is None


# ---------------------------------------------------------------------------
# Table weight spaces.


def chain_table(k: int, leo: bool = False) -> WeightSpace:
    names = [str(i) for i in range(k)]
    return table_space(
        weights=names,
        strict_pairs=[(names[i], names[i + 1]) for i in range(k - 1)],
        updates={},
        initial=names[0],
        leo_order=names if leo else None,
    )


def test_chain_closure():
    t = chain_table(4)
    assert t.comparator("0", "3") is LESS
    assert t.comparator("3", "0") is GREATER
    assert t.comparator("2", "2") is EQUAL


def test_cycle_of_strict_pairs_rejected():
    with pytest.raises(ValidationError):
        table_space(["a", "b"], [("a", "b"), ("b", "a")], {}, "a")
    with pytest.raises(ValidationError):
        table_space(
            ["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")], {}, "a"
        )


def test_duplicate_weight_names_rejected():
    with pytest.raises(ValidationError):
        table_space(["a", "a"], [], {}, "a")


def test_unknown_weight_in_pair_rejected():
    with pytest.raises(ValidationError):
        table_space(["a"], [("a", "z")], {}, "a")


def test_update_entry_then_default_then_error():
    t = table_space(
        weights=["a", "b", "c"],
        strict_pairs=[("a", "b")],
        updates={("a", (0, 1)): "b"},
        initial="a",
        defaults={(0, 1): "c"},
    )
    arc = Arc(0, 0, 1)
    assert t.update("a", arc) == "b"
    assert t.update("b", arc) == "c"  # falls back to the arc default
    other = Arc(1, 1, 0)
    with pytest.raises(MissingUpdateEntryError):
        t.update("a", other)
    with pytest.raises(DomainMismatchError):
        t.update("z", arc)


@st.composite
def random_dag_pairs(draw):
    k = draw(st.integers(2, 6))
    names = [f"w{i}" for i in range(k)]
    all_pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    chosen = draw(st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs)))
    return names, chosen


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(random_dag_pairs())
def test_table_closure_matches_matrix_oracle(data):
    names, chosen = data
    k = len(names)
    t = table_space(names, [(names[i], names[j]) for i, j in chosen], {}, names[0])
    # Independent reachability closure: boolean matrix, triple loop.
    reach = [[False] * k for _ in range(k)]
    for i, j in chosen:
        reach[i][j] = True
    for m in range(k):
        for i in range(k):
            for j in range(k):
                if reach[i][m] and reach[m][j]:
                    reach[i][j] = True
    for i in range(k):
        for j in range(k):
            got = t.comparator(names[i], names[j])
            if i == j:
                assert got is EQUAL
            elif reach[i][j]:
                assert got is LESS
            elif reach[j][i]:
                assert got is GREATER
            else:
                assert got is INCOMPARABLE


def fixpoint_closure(pairs):
    """The transitive closure as table spaces once built it, by fixpoint, or
    None where strict dominance is not antisymmetric (a cycle)."""
    closure = set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(closure):
            for c, d in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    if any(a == b or (b, a) in closure for a, b in closure):
        return None
    return closure


def test_table_closure_equals_the_fixpoint_reference():
    rng = random.Random(11)
    cyclic = 0
    for _ in range(400):
        k = rng.randint(1, 9)
        names = [f"w{i}" for i in range(k)]
        pairs = [
            (rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 2 * k))
        ]
        want = fixpoint_closure(pairs)
        if want is None:
            cyclic += 1
            with pytest.raises(ValidationError):
                table_space(names, pairs, {}, names[0])
        else:
            t = table_space(names, pairs, {}, names[0])
            assert {(a, b) for a in names for b in names if t.comparator(a, b) is LESS} == want
    assert 50 < cyclic < 350


def test_leo_pick_follows_declared_order():
    s = chain_table(3, leo=True)
    assert leo_pick(s, "0", "2") == "first"
    assert leo_pick(s, "2", "0") == "second"
    assert leo_pick(s, "1", "1") == "first"


def test_leo_pick_without_extension_raises():
    s = chain_table(3)
    with pytest.raises(NoLeoError):
        leo_pick(s, "0", "1")


# ---------------------------------------------------------------------------
# Instances.


def test_parallel_arcs_rejected():
    s = chain_table(2)
    with pytest.raises(ValidationError):
        build_instance(2, [(0, 1), (0, 1)], 0, s)


def test_loop_is_not_a_parallel_arc():
    s = chain_table(2)
    inst = build_instance(2, [(0, 1), (1, 1)], 0, s)
    assert inst.arc_between(1, 1).key == (1, 1)


def test_source_out_of_range_rejected():
    s = chain_table(2)
    with pytest.raises(ValidationError):
        build_instance(2, [(0, 1)], 5, s)


def test_unknown_declared_property_rejected():
    s = chain_table(2)
    with pytest.raises(ValidationError):
        build_instance(2, [(0, 1)], 0, s, declared=["sorted-by-vibes"])


def test_mu_bounded_requires_mu():
    s = chain_table(2)
    with pytest.raises(ValidationError):
        build_instance(2, [(0, 1)], 0, s, declared=["mu-bounded"])
    inst = build_instance(2, [(0, 1)], 0, s, declared=["mu-bounded"], mu=3)
    assert inst.mu == 3


def test_adjacency_caches():
    s = chain_table(2)
    inst = build_instance(3, [(0, 1), (1, 2), (0, 2), (2, 2)], 0, s)
    assert [a.key for a in inst.out_arcs(0)] == [(0, 1), (0, 2)]
    assert [a.key for a in inst.in_arcs(2)] == [(1, 2), (0, 2), (2, 2)]
    assert inst.arc_between(0, 2).index == 2
    assert inst.arc_between(2, 0) is None


# ---------------------------------------------------------------------------
# Labels, paths, folding.


@pytest.mark.parametrize(
    "fixture",
    ["nonsimple_witness.json", "vector_demo.json", "wcspr_demo.json", "tourist_demo.json"],
)
def test_fold_weight_agrees_with_solver_labels(fixture):
    inst = posp.parse_instance(load_fixture(fixture))
    result = bellman_solve(inst, SolveMode.MIN)
    for frontier in result.frontiers:
        for label in frontier:
            path = reconstruct_path(label)
            assert path[0] == inst.source
            assert len(path) == label.length + 1
            assert fold_weight(inst, path) == label.weight


def test_fold_weight_rejects_broken_path():
    inst = posp.parse_instance(load_fixture("vector_demo.json"))
    with pytest.raises(ValidationError):
        fold_weight(inst, [0, 3, 1])  # no arc 3 -> 1
    with pytest.raises(ValidationError, match=r"path \(1, 2\) does not start at the source"):
        fold_weight(inst, [1, 2])
