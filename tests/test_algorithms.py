"""Solvers and the exhaustive reference: fixpoint, label-setting, oracle."""

from __future__ import annotations

import dataclasses
import heapq
import importlib.util
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import posp
from posp import (
    EQUAL,
    GREATER,
    INCOMPARABLE,
    LESS,
    PARTIAL_ORDER,
    BudgetExceededError,
    Label,
    LeoMonotonicityError,
    NoLeoError,
    QUASI_TRANSITIVE,
    WeightSpace,
    build_instance,
    reconstruct_path,
)
from posp.algorithms import (
    CONVERGED,
    GUARD_HIT,
    SolveMode,
    SolveResult,
    SolveStats,
    bellman_solve,
    brute_force_frontier,
    enumerate_source_paths,
    iteration_guard,
    mda_solve,
    merge,
    nondominated_weights,
)
from posp.generators import MAX_STRUCTURES, MIN_STRUCTURES, kn_instance, random_instance
from posp.weights import bottleneck_space, mosp_space, product_space, table_space, tourist_space, wcspr_space


def load_instance(name):
    return posp.parse_instance(json.loads(posp.fixture_path(name).read_text()))


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def frontier_weights(result, v):
    return {lab.weight for lab in result.frontiers[v]}


def frontier_paths(result, v):
    return {reconstruct_path(lab) for lab in result.frontiers[v]}


# ---------------------------------------------------------------------------
# Merges.


from posp import Arc

_root = Label(vertex=0, pred=None, arc=None, weight=(0,), length=0, serial=0)


def lab(w, serial, arc_index=0):
    arc = Arc(arc_index, 0, 0)
    return Label(vertex=0, pred=_root, arc=arc, weight=w, length=1, serial=serial)


def test_min_merge_prunes_dominated_and_keeps_incumbent_on_ties():
    s = mosp_space(1, {})
    incumbent = lab((2,), 1)
    equal = lab((2,), 2, arc_index=1)
    worse = lab((3,), 3, arc_index=2)
    merged = merge(s, [incumbent], [equal, worse], SolveMode.MIN)
    assert merged == [incumbent]  # equal candidate loses, worse one is pruned
    assert equal.dead and worse.dead
    better = lab((1,), 4, arc_index=3)
    merged = merge(s, merged, [better], SolveMode.MIN)
    assert merged == [better]
    assert incumbent.dead


def test_max_merge_keeps_equal_weights_but_not_duplicate_paths():
    s = mosp_space(1, {})
    a = lab((2,), 1, arc_index=0)
    twin = lab((2,), 2, arc_index=1)  # different last arc: a different path
    rederived = lab((2,), 3, arc_index=1)  # same predecessor chain as twin
    merged = merge(s, [a], [twin, rederived], SolveMode.MAX)
    assert merged == [a, twin]
    assert rederived.dead
    merged = merge(s, merged, [lab((3,), 4, arc_index=2)], SolveMode.MAX)
    assert [l.weight for l in merged] == [(2,), (2,)]  # dominated: not added
    merged = merge(s, merged, [lab((1,), 5, arc_index=3)], SolveMode.MAX)
    assert [l.weight for l in merged] == [(1,)]  # strictly better evicts both


def two_pass_merge(space, frontier, candidates, mode):
    """The rule the one-pass merge must reproduce: a rejection pass over the
    current result, then, for a kept candidate, an eviction pass.  Returns
    the result and the number of comparisons made."""
    compared = 0

    def cmp(a, b):
        nonlocal compared
        compared += 1
        return space.comparator(a, b)

    rejects = (LESS, EQUAL) if mode is SolveMode.MIN else (LESS,)
    result = list(frontier)
    ids = {l.path_id() for l in result}
    for cand in candidates:
        if mode is SolveMode.MAX and cand.path_id() in ids:
            cand.dead = True
            continue
        if any(cmp(r.weight, cand.weight) in rejects for r in result):
            cand.dead = True
            continue
        survivors = []
        for r in result:
            if cmp(cand.weight, r.weight) is LESS:
                r.dead = True
                ids.discard(r.path_id())
            else:
                survivors.append(r)
        survivors.append(cand)
        ids.add(cand.path_id())
        result = survivors
    return result, compared


def _table(relation_kind):
    pairs = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("e", "f")]
    return table_space("abcdef", pairs, {}, "a", relation_kind=relation_kind)


def _cyclic_compare(a, b):
    # 0 < 1 < 2 < 3 < 4 < 0: dual and antisymmetric, but not transitive.
    if a == b:
        return EQUAL
    if (a + 1) % 5 == b:
        return LESS
    if (b + 1) % 5 == a:
        return GREATER
    return INCOMPARABLE


def _small(rng):
    return Fraction(rng.randint(0, 3))


# Weight spaces and a random weight of each.
MERGE_SPACES = {
    "mosp-2": (mosp_space(2, {}), lambda rng: (_small(rng), _small(rng))),
    "mosp-3": (mosp_space(3, {}), lambda rng: (_small(rng), _small(rng), _small(rng))),
    "bottleneck": (bottleneck_space(1, 1, {}), lambda rng: ((_small(rng),), (_small(rng),))),
    "tourist": (
        tourist_space(10, [0], [0], 2, {}, 0),
        lambda rng: (_small(rng), (_small(rng), _small(rng))),
    ),
    "table": (_table(PARTIAL_ORDER), lambda rng: rng.choice("abcdef")),
    "table-quasi-transitive": (_table(QUASI_TRANSITIVE), lambda rng: rng.choice("abcdef")),
    "qt-product": (
        product_space(_table(QUASI_TRANSITIVE), mosp_space(1, {})),
        lambda rng: (rng.choice("abcdef"), (_small(rng),)),
    ),
    "cyclic": (
        WeightSpace("cyclic", _cyclic_compare, None, 0, relation_kind=QUASI_TRANSITIVE),
        lambda rng: rng.randrange(5),
    ),
}


@pytest.mark.parametrize("mode", list(SolveMode))
@pytest.mark.parametrize("name", list(MERGE_SPACES))
def test_one_pass_merge_equals_the_two_pass_rule(name, mode):
    space, draw = MERGE_SPACES[name]
    saved = 0
    for seed in range(60):
        rng = random.Random(seed)
        pool = [draw(rng) for _ in range(8)]

        def labels(picks, first_serial):
            # One path per pool entry: equal picks re-derive the same path.
            return [
                Label(vertex=0, pred=_root, arc=Arc(i, 0, 0), weight=pool[i], length=1, serial=first_serial + k)
                for k, i in enumerate(picks)
            ]

        seeded, _ = two_pass_merge(space, [], labels([rng.randrange(8) for _ in range(6)], 1), mode)
        frontier_picks = [l.arc.index for l in seeded]  # an antichain in min mode
        candidate_picks = [rng.randrange(8) for _ in range(rng.randint(1, 8))]

        runs = []
        for one_pass in (False, True):
            frontier = labels(frontier_picks, 1)
            candidates = labels(candidate_picks, 100)
            if one_pass:
                stats = SolveStats()
                result = merge(space, frontier, candidates, mode, stats)
                compared = stats.comparisons
            else:
                result, compared = two_pass_merge(space, frontier, candidates, mode)
            everyone = frontier + candidates
            runs.append(
                (
                    [everyone.index(r) for r in result],  # labels compare by identity
                    [l.dead for l in everyone],
                    compared,
                )
            )
        (ref_result, ref_dead, ref_compared), (result, dead, compared) = runs
        case = (seed, pool, frontier_picks, candidate_picks)
        assert result == ref_result, case
        assert dead == ref_dead, case
        assert compared <= ref_compared, case
        saved += ref_compared - compared
    assert saved > 0


def duality_instances():
    for structure in MIN_STRUCTURES + MAX_STRUCTURES:
        for seed in range(5):
            yield random_instance(structure, seed)
    for path in sorted(posp.fixture_path("").iterdir()):
        if path.name.endswith(".json"):
            yield load_instance(path.name)


@pytest.mark.parametrize("inst", duality_instances(), ids=lambda inst: inst.name)
def test_comparators_are_dual(inst):
    # The one-pass merge evicts on cmp(r, cand) GREATER where the rule says
    # cmp(cand, r) LESS; that is the same only for a dual comparator.
    by_vertex, _nodes = enumerate_source_paths(inst, 3)
    weights = list(dict.fromkeys(w for found in by_vertex for _path, w in found))
    cmp = inst.space.comparator
    for a, b in itertools.product(weights, repeat=2):
        assert cmp(b, a) is cmp(a, b).flipped(), (a, b)


# ---------------------------------------------------------------------------
# The two table-driven walkthroughs.


def test_nonsimple_path_carries_the_second_efficient_weight():
    inst = load_instance("nonsimple_witness.json")
    result = bellman_solve(inst, SolveMode.MIN)
    assert result.status == CONVERGED
    assert frontier_weights(result, 1) == {"B", "C"}
    by_weight = {lab.weight: reconstruct_path(lab) for lab in result.frontiers[1]}
    assert by_weight["C"] == (0, 1)
    assert by_weight["B"] == (0, 1, 2, 1)  # revisits vertex 1: not simple


def test_improving_loop_converges_in_exactly_three_rounds():
    inst = load_instance("improving_loop.json")
    result = bellman_solve(inst, SolveMode.MIN)
    assert result.status == CONVERGED
    assert result.stats.iterations == 3
    assert frontier_weights(result, 1) == {"1"}


# ---------------------------------------------------------------------------
# Worst-case growth on the complete digraph.


# (2, 8) has m >= 4n: the default guard of 4n rounds alone would stop it
# before the collapse.
@pytest.mark.parametrize("n,m", [(3, 3), (4, 3), (3, 4), (2, 8)])
def test_kn_frontier_growth_and_collapse(n, m):
    inst = kn_instance(n, m)
    result = bellman_solve(inst, SolveMode.MIN)
    assert result.status == CONVERGED
    # Until the collapse, all tuples are incomparable: totals follow a
    # geometric sum (excluding the root label).
    for k in range(1, m):
        assert result.iteration_sizes[k - 1] - 1 == sum(n**i for i in range(1, k + 1))
    assert result.stats.iterations == m + 1
    for v in range(n):
        assert [l.weight for l in result.frontiers[v]] == [()]
        assert result.frontiers[v][0].length == m


def test_kn_guard_stops_early_when_asked():
    inst = kn_instance(3, 3)
    result = bellman_solve(dataclasses.replace(inst, max_iterations=2), SolveMode.MIN)
    assert result.status == GUARD_HIT
    assert result.stats.iterations == 2
    assert len(result.iteration_sizes) == 2


def test_acyclic_instances_converge_within_vertex_count_rounds():
    for seed in range(10):
        inst = random_instance("mosp-max", seed)
        result = bellman_solve(inst, SolveMode.MIN)
        assert result.status == CONVERGED
        assert result.stats.iterations <= inst.vertex_count + 1


# ---------------------------------------------------------------------------
# Label-setting solver.


def test_mda_requires_a_linear_extension():
    inst = kn_instance(2, 2)  # the index-tuple space has no extension
    with pytest.raises(NoLeoError):
        mda_solve(inst, SolveMode.MIN)


def test_mda_detects_a_non_monotone_extension_with_a_witness():
    # A replenishment loop lowers (cost, resource) lexicographically, so the
    # extraction order must run backwards.
    space = wcspr_space(
        20, {(0, 1): {"w": 1, "r": 9}, (1, 1): {"w": 0, "r": 2, "replenish": True}}
    )
    inst = build_instance(2, [(0, 1), (1, 1)], 0, space)
    with pytest.raises(LeoMonotonicityError) as exc_info:
        mda_solve(inst, SolveMode.MIN)
    witness = exc_info.value.witness
    assert witness is not None
    assert "key" in witness and "previous_key" in witness
    # The same instance is still fine for the fixpoint solver.
    result = bellman_solve(inst, SolveMode.MIN)
    oracle = brute_force_frontier(inst, 6, SolveMode.MIN)
    assert frontier_weights(result, 1) == set(oracle.weights(1))


def test_mda_matches_bellman_on_the_bundled_demos():
    for name in ["vector_demo.json", "subset_catchup.json", "evsp_demo.json", "tourist_demo.json"]:
        inst = load_instance(name)
        b = bellman_solve(inst, SolveMode.MIN)
        m = mda_solve(inst, SolveMode.MIN)
        for v in range(inst.vertex_count):
            assert frontier_weights(b, v) == frontier_weights(m, v), (name, v)


def slot_mda_solve(instance, mode=SolveMode.MIN, drop_infeasible=False):
    """The queue `mda_solve` replaced: at most one heap entry per vertex, every
    other candidate waiting in a per-vertex parked pool, a displaced entry left
    in the heap as a stale slot.  Kept as the reference the one-heap queue must
    reproduce extraction for extraction."""
    space = instance.space
    if space.leo_key is None:
        raise NoLeoError(f"weight space {space.name!r} defines no linear extension")
    stats = SolveStats()
    cmp = space.comparator
    key_of = space.leo_key
    strict_only = mode is SolveMode.MAX
    guard = iteration_guard(instance)
    status = CONVERGED

    def dominated(permanents, w):
        compared = 0
        for lab in permanents:
            compared += 1
            c = cmp(lab.weight, w)
            if c is LESS or (not strict_only and c is EQUAL):
                stats.comparisons += compared
                return True
        stats.comparisons += compared
        return False

    n = instance.vertex_count
    permanents = [[] for _ in range(n)]
    permanent_ids = [set() for _ in range(n)]
    parked = [[] for _ in range(n)]
    heap = []
    entry_for = {}
    serials = itertools.count()
    pushes = itertools.count()

    def set_entry(v, label):
        entry = [key_of(label.weight), v, next(pushes), label]
        entry_for[v] = entry
        heapq.heappush(heap, entry)
        stats.insertions += 1

    def park(label):
        heapq.heappush(parked[label.vertex], (key_of(label.weight), label.serial, label))

    def promote(v):
        while parked[v]:
            _key, _serial, lab = heapq.heappop(parked[v])
            if lab.path_id() in permanent_ids[v]:
                continue
            if dominated(permanents[v], lab.weight):
                lab.dead = True
                continue
            set_entry(v, lab)
            return

    root = Label(vertex=instance.source, pred=None, arc=None, weight=space.initial, length=0, serial=next(serials))
    set_entry(instance.source, root)

    last_key = None
    while heap:
        key, v, _serial, label = heapq.heappop(heap)
        if label is None:
            continue
        del entry_for[v]
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
        stats.comparisons += len(permanents[v])
        for perm in permanents[v]:
            c = cmp(perm.weight, label.weight)
            if c is LESS or c is GREATER:
                raise LeoMonotonicityError(
                    "a permanent label and a later extraction are strictly ordered; "
                    "the linear extension is not monotone along arcs on this instance",
                    witness={
                        "permanent_path": list(reconstruct_path(perm)),
                        "permanent_weight": space.render_weight(perm.weight),
                        "extracted_path": list(reconstruct_path(label)),
                        "extracted_weight": space.render_weight(label.weight),
                        "relation": c.value,
                    },
                )
            assert not (c is EQUAL and not strict_only)
        permanents[v].append(label)
        permanent_ids[v].add(label.path_id())
        stats.extractions += 1
        promote(v)
        for arc in instance.out_arcs(v):
            u = arc.head
            w = space.update(label.weight, arc)
            if drop_infeasible and space.is_infeasible(w):
                continue
            if dominated(permanents[u], w):
                continue
            if label.length >= guard:
                status = GUARD_HIT
                continue
            cand = Label(vertex=u, pred=label, arc=arc, weight=w, length=label.length + 1, serial=next(serials))
            current = entry_for.get(u)
            if current is None:
                park(cand)
                promote(u)
            elif key_of(w) < current[0]:
                displaced = current[3]
                current[3] = None
                park(displaced)
                set_entry(u, cand)
            else:
                park(cand)

    return SolveResult(frontiers=permanents, stats=stats, status=status)


def mda_outcome(solve, inst, mode, drop):
    """What the two queues must agree on: frontiers label by label, status,
    extraction and comparison counts, or the monotonicity error raised."""
    try:
        result = solve(inst, mode, drop_infeasible=drop)
    except LeoMonotonicityError as exc:
        return ("error", str(exc), exc.witness)
    except NoLeoError:
        return ("no-leo",)
    frontiers = [[(l.weight, reconstruct_path(l), l.length) for l in f] for f in result.frontiers]
    return frontiers, result.status, result.stats.extractions, result.stats.comparisons


def queue_instances():
    for structure in MIN_STRUCTURES + MAX_STRUCTURES:
        modes = [SolveMode.MIN] if structure in MIN_STRUCTURES else list(SolveMode)
        for seed in range(40):
            yield random_instance(structure, seed), modes
    for path in sorted(posp.fixture_path("").iterdir()):
        if path.name.endswith(".json"):
            yield load_instance(path.name), list(SolveMode)
    gen = load_perfbench("gen")
    for k, d in ((4, 2), (5, 2), (4, 3)):
        doc = gen.grid_doc(k, d, random.Random(f"queue:{k}:{d}"), f"grid-{k}-{d}")
        yield posp.parse_instance(doc), [SolveMode.MIN]


def without_second_audit_scan(outcome):
    """The slot queue's outcome less the comparisons of its second scan over
    the permanent labels: one per permanent label already at the vertex, on
    each extraction, so C(|F_v|, 2) at a vertex whose frontier is F_v."""
    if not isinstance(outcome[0], list):
        return outcome
    frontiers, status, extractions, comparisons = outcome
    return frontiers, status, extractions, comparisons - sum(math.comb(len(f), 2) for f in frontiers)


def test_one_heap_queue_extracts_as_the_slot_queue_did():
    cases = errors = 0
    for inst, modes in queue_instances():
        for mode in modes:
            for drop in (False, True):
                want = without_second_audit_scan(mda_outcome(slot_mda_solve, inst, mode, drop))
                assert mda_outcome(mda_solve, inst, mode, drop) == want, (inst.name, mode, drop)
                cases += 1
                errors += want[0] == "error"
    assert cases > 900 and errors > 0


def strictly_ordered_permanent_instance():
    # The key extracts b at vertex 1 before c at vertex 2, whose arc to 1
    # yields a < b: the later extraction is strictly below a permanent label.
    updates = {("s", (0, 1)): "b", ("s", (0, 2)): "c", ("c", (2, 1)): "a"}
    space = table_space("sbca", [("a", "b")], updates, "s", leo_order="sbca")
    return build_instance(3, [(0, 1), (0, 2), (2, 1)], 0, space)


STRICTLY_ORDERED_WITNESS = {
    "permanent_path": [0, 1],
    "permanent_weight": "b",
    "extracted_path": [0, 2, 1],
    "extracted_weight": "a",
    "relation": "greater",
}


@pytest.mark.parametrize("mode", list(SolveMode))
@pytest.mark.parametrize("solve", [mda_solve, slot_mda_solve], ids=["one-heap", "slot"])
def test_mda_detects_a_permanent_label_above_a_later_extraction(solve, mode):
    with pytest.raises(LeoMonotonicityError, match="strictly ordered") as exc_info:
        solve(strictly_ordered_permanent_instance(), mode)
    assert exc_info.value.witness == STRICTLY_ORDERED_WITNESS


def labelled_frontiers(result):
    return [[(lab.weight, reconstruct_path(lab)) for lab in f] for f in result.frontiers]


@pytest.mark.parametrize("structure", MIN_STRUCTURES + MAX_STRUCTURES)
def test_semi_naive_rounds_match_full_re_extension(structure):
    # Declaring the relation quasi-transitive makes every round re-extend
    # every frontier; extending only fresh labels must change nothing but
    # the comparison count.
    saved = 0
    for seed in range(5):
        inst = random_instance(structure, seed)
        full = dataclasses.replace(
            inst, space=dataclasses.replace(inst.space, relation_kind=QUASI_TRANSITIVE)
        )
        for mode in SolveMode:
            for drop in (False, True):
                fast = bellman_solve(inst, mode, drop_infeasible=drop)
                slow = bellman_solve(full, mode, drop_infeasible=drop)
                case = (seed, mode, drop)
                assert labelled_frontiers(fast) == labelled_frontiers(slow), case
                assert fast.iteration_sizes == slow.iteration_sizes, case
                assert fast.status == slow.status, case
                assert fast.stats.iterations == slow.stats.iterations, case
                assert fast.stats.insertions == slow.stats.insertions, case
                assert fast.stats.merge_operations == slow.stats.merge_operations, case
                assert fast.stats.comparisons <= slow.stats.comparisons, case
                saved += slow.stats.comparisons - fast.stats.comparisons
    assert saved > 0


# Exact solver work on a small sub-suite: a change in algorithmic work shows
# up here as a diff.
PINNED_STATS = {
    "vector_demo.json": (
        {"iterations": 3, "extractions": 0, "insertions": 6, "comparisons": 2, "merge_operations": 12},
        {"iterations": 0, "extractions": 5, "insertions": 6, "comparisons": 2, "merge_operations": 0},
    ),
    "wcspr_demo.json": (
        {"iterations": 4, "extractions": 0, "insertions": 7, "comparisons": 3, "merge_operations": 20},
        {"iterations": 0, "extractions": 7, "insertions": 7, "comparisons": 4, "merge_operations": 0},
    ),
    "evsp_demo.json": (
        {"iterations": 4, "extractions": 0, "insertions": 8, "comparisons": 10, "merge_operations": 16},
        {"iterations": 0, "extractions": 8, "insertions": 10, "comparisons": 15, "merge_operations": 0},
    ),
    "tourist_demo.json": (
        {"iterations": 4, "extractions": 0, "insertions": 6, "comparisons": 3, "merge_operations": 16},
        {"iterations": 0, "extractions": 4, "insertions": 6, "comparisons": 2, "merge_operations": 0},
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_STATS))
def test_solver_work_counters_are_pinned_on_fixtures(name):
    inst = load_instance(name)
    bellman, mda = PINNED_STATS[name]
    assert bellman_solve(inst, SolveMode.MIN).stats.to_dict() == bellman
    assert mda_solve(inst, SolveMode.MIN).stats.to_dict() == mda


def test_solver_work_counters_are_pinned_on_kn():
    # The kn space has no linear extension, so only the fixpoint solver runs.
    stats = bellman_solve(kn_instance(3, 5), SolveMode.MIN).stats.to_dict()
    assert stats == {
        "iterations": 6,
        "extractions": 0,
        "insertions": 124,
        "comparisons": 2750,
        "merge_operations": 18,
    }


def equal_weight_diamond():
    costs = {(0, 1): [1], (0, 2): [1], (1, 3): [1], (2, 3): [1]}
    return build_instance(
        4,
        [(0, 1), (0, 2), (1, 3), (2, 3)],
        0,
        mosp_space(1, costs),
        declared=["well-posed", "history-free", "independent", "subpath-optimal", "mu-bounded"],
        mu=2,
    )


def test_min_keeps_one_witness_per_weight_max_keeps_all():
    inst = equal_weight_diamond()
    for solver in (bellman_solve, mda_solve):
        mn = solver(inst, SolveMode.MIN)
        mx = solver(inst, SolveMode.MAX)
        assert len(mn.frontiers[3]) == 1
        assert frontier_paths(mx, 3) == {(0, 1, 3), (0, 2, 3)}


def test_drop_infeasible_removes_flagged_labels():
    inst = load_instance("wcspr_demo.json")
    kept = bellman_solve(inst, SolveMode.MIN)
    dropped = bellman_solve(inst, SolveMode.MIN, drop_infeasible=True)
    assert any(inst.space.is_infeasible(w) for w in frontier_weights(kept, 2))
    assert not any(
        inst.space.is_infeasible(w)
        for v in range(inst.vertex_count)
        for w in frontier_weights(dropped, v)
    )


# ---------------------------------------------------------------------------
# Exhaustive reference.


def test_enumeration_is_preorder_and_counts_nodes():
    inst = equal_weight_diamond()
    by_vertex, nodes = enumerate_source_paths(inst, 3)
    assert [p for p, _w in by_vertex[0]] == [(0,)]
    # Arc order at the source: (0,1) before (0,2).
    assert [p for p, _w in by_vertex[3]] == [(0, 1, 3), (0, 2, 3)]
    assert nodes == 5


def test_enumeration_budget_is_enforced():
    inst = kn_instance(3, 5)
    with pytest.raises(BudgetExceededError):
        enumerate_source_paths(inst, 5, budget=10)


def test_nondominated_filter_keeps_input_order():
    s = mosp_space(2, {})
    kept = nondominated_weights(s, [(2, 2), (1, 3), (2, 2), (3, 1), (4, 4)])
    assert kept == [(2, 2), (1, 3), (3, 1)]


def test_oracle_min_matches_bellman_on_fixture_tables():
    for name in [
        "nonsimple_witness.json",
        "improving_loop.json",
        "dependent_extension.json",
        "subset_catchup.json",
    ]:
        inst = load_instance(name)
        result = bellman_solve(inst, SolveMode.MIN)
        oracle = brute_force_frontier(inst, 8, SolveMode.MIN)
        for v in range(inst.vertex_count):
            assert frontier_weights(result, v) == set(oracle.weights(v)), (name, v)


def test_oracle_max_returns_every_efficient_path():
    inst = equal_weight_diamond()
    oracle = brute_force_frontier(inst, 2, SolveMode.MAX)
    assert set(oracle.paths(3)) == {(0, 1, 3), (0, 2, 3)}
    mn = brute_force_frontier(inst, 2, SolveMode.MIN)
    assert len(mn.paths(3)) == 1
