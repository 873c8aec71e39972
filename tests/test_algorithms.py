"""Solvers and the exhaustive reference: fixpoint, label-setting, oracle."""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import heapq
import importlib.util
import itertools
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import cli_corpus
import pytest

import posp
from posp import (
    EQUAL,
    GREATER,
    INCOMPARABLE,
    LESS,
    BudgetExceededError,
    Label,
    LeoMonotonicityError,
    MissingUpdateEntryError,
    NoLeoError,
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
    _scan,
    bellman_solve,
    brute_force_frontier,
    enumerate_source_paths,
    iteration_guard,
    mda_solve,
    nondominated_weights,
)
from posp.conditions import permitted_algorithms
from posp.generators import MAX_STRUCTURES, MIN_STRUCTURES, kn_instance, random_instance
from posp.weights import (
    _vector_compare,
    bottleneck_space,
    kn_space,
    mosp_space,
    product_space,
    table_space,
    tourist_space,
    wcspr_space,
)


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
# Merges: the rule `bellman_solve` applies to a vertex's candidates.


from posp import Arc


def _ladder(extra=()):
    """Vertex 3 receives (3,) in round 1, two (2,) in round 2 (through 1 and
    2) and one (2,) in round 3 (through 4 and 5); `extra` adds arcs."""
    costs = {(0, 3): 3, (0, 1): 0, (0, 2): 0, (1, 3): 2, (2, 3): 2, (0, 4): 0, (4, 5): 0, (5, 3): 2}
    costs.update(extra)
    space = mosp_space(1, {key: [c] for key, c in costs.items()})
    return build_instance(1 + max(v for key in costs for v in key), list(costs), 0, space)


def _witnesses(result, v):
    return [(lab.weight, reconstruct_path(lab)) for lab in result.frontiers[v]]


def test_min_merge_prunes_dominated_and_keeps_incumbent_on_ties():
    result = bellman_solve(_ladder(), SolveMode.MIN)
    # The first (2,) evicts (3,); the second loses the tie to it, and so
    # does the round-3 candidate to the incumbent.
    assert _witnesses(result, 3) == [((2,), (0, 1, 3))]
    assert result.status == CONVERGED
    assert result.stats.insertions == 7  # the root, four in round 1, two in round 2
    assert result.stats.comparisons == 3


def test_max_merge_keeps_equal_weights_but_not_duplicate_paths():
    result = bellman_solve(_ladder(), SolveMode.MAX)
    assert _witnesses(result, 3) == [((2,), (0, 1, 3)), ((2,), (0, 2, 3)), ((2,), (0, 4, 5, 3))]
    assert result.status == CONVERGED
    # A strictly better path, arriving in round 4, evicts all three.
    better = {(0, 6): 0, (6, 7): 0, (7, 8): 0, (8, 3): 1}
    result = bellman_solve(_ladder(better), SolveMode.MAX)
    assert _witnesses(result, 3) == [((1,), (0, 6, 7, 8, 3))]
    assert result.status == CONVERGED


def two_pass_merge(space, frontier, candidates, mode):
    """The rule `bellman_solve`'s one-pass merge must reproduce: a rejection
    pass over the current result, then, for a kept candidate, an eviction
    pass.  Returns the result and the number of comparisons made."""
    compared = 0

    def cmp(a, b):
        nonlocal compared
        compared += 1
        return space.comparator(a, b)

    rejects = (LESS, EQUAL) if mode is SolveMode.MIN else (LESS,)
    result = list(frontier)
    ids = {reconstruct_path(l) for l in result}
    for cand in candidates:
        if mode is SolveMode.MAX and reconstruct_path(cand) in ids:
            continue
        if any(cmp(r.weight, cand.weight) in rejects for r in result):
            continue
        survivors = []
        for r in result:
            if cmp(cand.weight, r.weight) is LESS:
                ids.discard(reconstruct_path(r))
            else:
                survivors.append(r)
        survivors.append(cand)
        ids.add(reconstruct_path(cand))
        result = survivors
    return result, compared


def two_pass_bellman(instance, mode, re_extend=False):
    """`bellman_solve` as it was built on `two_pass_merge`: every round makes
    a label of each candidate of each vertex, in vertex order, and merges
    them.  A round extends the labels the last round inserted or, with
    `re_extend`, every label; max mode then re-derives paths it holds, which
    the merge's path check rejects.  Returns ((frontiers as (weight, path)
    lists, status, insertions), comparisons made)."""
    space = instance.space
    root = Label(instance.source, None, None, space.initial, 0)
    frontiers = [[] for _ in range(instance.vertex_count)]
    frontiers[instance.source] = [root]
    fresh = {instance.source: [root]}
    insertions, compared, status = 1, 0, GUARD_HIT
    for _round in range(iteration_guard(instance)):
        sources = {u: f for u, f in enumerate(frontiers) if f} if re_extend else fresh
        fresh = {}
        for v in range(instance.vertex_count):
            candidates = [
                Label(v, lab, arc, space.update(lab.weight, arc), lab.length + 1)
                for arc in instance.in_arcs(v)
                for lab in sources.get(arc.tail, ())
            ]
            frontiers[v], n = two_pass_merge(space, frontiers[v], candidates, mode)
            compared += n
            merged = set(frontiers[v])
            inserted = [c for c in candidates if c in merged]
            if inserted:
                fresh[v] = inserted
                insertions += len(inserted)
        if not fresh:
            status = CONVERGED
            break
    record = [[(lab.weight, reconstruct_path(lab)) for lab in f] for f in frontiers]
    return (record, status, insertions), compared


def _table():
    pairs = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("e", "f")]
    return table_space("abcdef", pairs, {}, "a")


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
    "table": (_table(), lambda rng: rng.choice("abcdef")),
    "table-product": (
        product_space(_table(), mosp_space(1, {})),
        lambda rng: (rng.choice("abcdef"), (_small(rng),)),
    ),
    "cyclic": (
        WeightSpace("cyclic", _cyclic_compare, None, 0),
        lambda rng: rng.randrange(5),
    ),
}


@pytest.mark.parametrize("mode", list(SolveMode))
@pytest.mark.parametrize("name", list(MERGE_SPACES))
def test_one_pass_merge_equals_the_two_pass_rule(name, mode):
    # Random digraphs on 5 vertices, loops and cycles included, whose update
    # draws each (weight, arc) a weight from a pool of 8: equal, ordered and
    # incomparable candidates meet at every vertex.
    space, draw = MERGE_SPACES[name]
    saved = 0
    for seed in range(60):
        rng = random.Random(seed)
        pool = [draw(rng) for _ in range(8)]

        def update(w, arc, seed=seed, pool=pool):
            digest = hashlib.sha256(f"{seed}:{w!r}:{arc.index}".encode()).digest()
            return pool[digest[0] % len(pool)]

        arcs = rng.sample([(t, h) for t in range(5) for h in range(5)], rng.randint(5, 12))
        scripted = dataclasses.replace(space, update=update, initial=pool[0])
        inst = build_instance(5, arcs, 0, scripted, max_iterations=4)
        want, ref_compared = two_pass_bellman(inst, mode)
        result = bellman_solve(inst, mode)
        got = _solve_record(result)
        case = (seed, pool, arcs)
        assert (got[0], got[1], result.stats.insertions) == want, case
        assert result.stats.comparisons <= ref_compared, case
        saved += ref_compared - result.stats.comparisons
    assert saved > 0


# ---------------------------------------------------------------------------
# The scan kernels (`mosp` pairs and triples, `kn`) against the generic code.


def _kernel_weight(rng, kind):
    if kind == "kn":
        # Bottom or a short index tuple, built afresh, so that equal tuples
        # are distinct objects and equality is not identity.
        return tuple(rng.randrange(2) for _ in range(rng.choice((0, 1, 1, 2, 2))))
    # Small ints and halves, negative ones too, so that equal and ordered
    # pairs are common; 1 and Fraction(2, 2) are equal weights.
    return tuple(rng.choice((rng.randint(-2, 2), Fraction(rng.randint(-4, 4), 2))) for _ in range(kind))


def _copies(labels):
    # The weight list a scan reads beside its labels, made of equal copies of
    # their weights, so that no scan can rely on identity.
    return [tuple(list(lab.weight)) for lab in labels]


@pytest.mark.parametrize("kind", [2, 3, "kn"], ids=["mosp-2", "mosp-3", "kn"])
def test_scan_kernel_equals_the_reference_scan(kind):
    cmp = kn_space(2, 3, 0).comparator if kind == "kn" else mosp_space(kind, {}).comparator

    def plain(a, b):  # the same order with no kernel attached
        return cmp(a, b)

    outcomes = set()
    for seed in range(300):
        rng = random.Random(f"kernel:{kind}:{seed}")
        labels = [Label(0, None, None, _kernel_weight(rng, kind), 0) for _ in range(rng.randint(0, 8))]
        if labels and rng.random() < 0.3:
            w = rng.choice(labels).weight
        else:
            w = _kernel_weight(rng, kind)
        for keep_equal in (False, True):
            ref_stats, stats = SolveStats(), SolveStats()
            ref = _scan(plain, labels, _copies(labels), w, keep_equal, ref_stats)
            got = cmp.scan(cmp, labels, _copies(labels), w, keep_equal, stats)
            case = (seed, [lab.weight for lab in labels], w, keep_equal)
            assert got == ref, case  # labels compare by identity, so order counts
            assert stats.comparisons == ref_stats.comparisons, case
            outcomes.add(("rejected" if ref is None else "evicts" if ref else "kept", keep_equal))
    assert outcomes == {(o, k) for o in ("rejected", "evicts", "kept") for k in (False, True)}


def _counting_scan(cmp, labels, w, keep_equal, stats):
    # The generic scan as it stood when it counted each pair as it compared
    # it and read each weight from its label, frozen as the reference for
    # the scan that counts on exit and reads a weight list.
    beaten = []
    compared = 0
    for r in labels:
        compared += 1
        c = cmp(r.weight, w)
        if c is GREATER:
            beaten.append(r)
        elif c is LESS or (c is EQUAL and not keep_equal):
            beaten = None
            break
    stats.comparisons += compared
    return beaten


def test_generic_scan_equals_the_counting_reference():
    # Stub comparators replay seeded verdicts, None among them: anything
    # other than GREATER, LESS or EQUAL counts as incomparable.
    verdicts = (GREATER, LESS, EQUAL, INCOMPARABLE, None)
    outcomes = set()
    for seed in range(400):
        rng = random.Random(f"scan:{seed}")
        labels = [Label(0, None, None, (i,), 0) for i in range(rng.randint(0, 10))]
        script = [rng.choice(verdicts) for _ in labels]
        calls = []

        def cmp(a, _w, script=script, calls=calls):
            calls.append(a)
            return script[a[0]]

        for keep_equal in (False, True):
            ref_stats, stats = SolveStats(), SolveStats()
            ref = _counting_scan(cmp, labels, "w", keep_equal, ref_stats)
            calls.clear()
            weights = _copies(labels)
            got = _scan(cmp, labels, weights, "w", keep_equal, stats)
            case = (seed, script, keep_equal)
            assert got == ref, case  # labels compare by identity, so order counts
            assert stats.comparisons == ref_stats.comparisons == len(calls), case
            assert all(a is b for a, b in zip(calls, weights)), case  # it reads the list
            outcomes.add(("rejected" if ref is None else "evicts" if ref else "kept", keep_equal))
    assert outcomes == {(o, k) for o in ("rejected", "evicts", "kept") for k in (False, True)}


def test_kn_comparator_follows_its_definition():
    def definition(a, b):
        if a == b:
            return EQUAL
        if a == ():
            return LESS
        if b == ():
            return GREATER
        return INCOMPARABLE

    cmp = kn_instance(3, 4).space.comparator
    rng = random.Random("kn-comparator")
    pool = [(), *(tuple(rng.randrange(3) for _ in range(rng.randint(1, 4))) for _ in range(40))]
    # Equal tuples made apart, so that equality is not identity.
    pool += [tuple(list(w)) for w in pool[:10]]
    seen = set()
    for a in pool:
        for b in pool:
            assert cmp(a, b) is definition(a, b), (a, b)
            seen.add(definition(a, b))
    assert seen == {EQUAL, LESS, GREATER, INCOMPARABLE}


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_mosp_update_adds_and_names_a_missing_arc(d):
    space = mosp_space(d, {(0, 1): list(range(1, d + 1))})
    assert space.update(tuple(range(d)), Arc(0, 0, 1)) == tuple(range(1, 2 * d, 2))
    with pytest.raises(MissingUpdateEntryError, match=r"^mosp: no arc data for \(1, 0\)$"):
        space.update((0,) * d, Arc(1, 1, 0))


def _generic_view(instance, doc):
    """`instance` with `_vector_compare` and a zip-based update: no kernel."""
    costs = {(a["tail"], a["head"]): tuple(a["payload"]) for a in doc["graph"]["arcs"]}

    def update(w, arc):
        return tuple(x + y for x, y in zip(w, costs[arc.key]))

    space = dataclasses.replace(instance.space, comparator=_vector_compare, update=update)
    return dataclasses.replace(instance, space=space)


def _solve_record(result):
    frontiers = [[(lab.weight, reconstruct_path(lab)) for lab in f] for f in result.frontiers]
    return frontiers, result.status, result.stats.to_dict(), result.iteration_sizes


@pytest.mark.parametrize("d", [2, 3])
def test_mosp_kernels_change_no_solve(d):
    gen = load_perfbench("gen")
    for seed in range(3):
        doc = gen.grid_doc(7 - d, d, random.Random(f"kernel-grid:{d}:{seed}"), "grid")
        inst = posp.parse_instance(doc)
        generic = _generic_view(inst, doc)
        for solve in (bellman_solve, mda_solve):
            for mode in SolveMode:
                for drop in (False, True):
                    case = (seed, solve.__name__, mode, drop)
                    assert _solve_record(solve(inst, mode, drop)) == _solve_record(
                        solve(generic, mode, drop)
                    ), case


def test_kn_kernel_changes_no_solve():
    # Every benchmark size in min mode; max mode keeps every path, so only
    # the smallest sizes finish quickly there.
    cases = [(n, m, SolveMode.MIN) for n, m in cli_corpus._workloads().KN_PAIRS]
    cases += [(2, 2, SolveMode.MAX), (2, 3, SolveMode.MAX)]
    for n, m, mode in cases:
        inst = kn_instance(n, m)
        cmp = inst.space.comparator
        plain = dataclasses.replace(inst.space, comparator=lambda a, b: cmp(a, b))
        assert _solve_record(bellman_solve(inst, mode)) == _solve_record(
            bellman_solve(dataclasses.replace(inst, space=plain), mode)
        ), (n, m, mode)


def duality_instances():
    for structure in MIN_STRUCTURES + MAX_STRUCTURES:
        for seed in range(5):
            yield random_instance(structure, seed)
    for path in sorted(posp.fixture_path("").iterdir()):
        if path.name.endswith(".json"):
            yield load_instance(path.name)


@pytest.mark.parametrize("inst", duality_instances(), ids=lambda inst: inst.name)
def test_comparators_are_dual(inst):
    # The `WeightSpace` contract.  The one-pass merge evicts on cmp(r, cand)
    # GREATER where the rule says cmp(cand, r) LESS; that is the same only
    # for a dual comparator.  Semi-naive rounds need LESS transitive, and
    # EQUAL must mean equal weights.
    by_vertex, _nodes = enumerate_source_paths(inst, 4)
    weights = list(dict.fromkeys(w for found in by_vertex for _path, w in found))
    cmp = inst.space.comparator
    above = {a: set() for a in weights}
    for a, b in itertools.product(weights, repeat=2):
        c = cmp(a, b)
        assert cmp(b, a) is c.flipped(), (a, b)
        assert (c is EQUAL) == (a == b), (a, b)
        if c is LESS:
            above[a].add(b)
    for a in weights:
        for b in above[a]:
            assert above[b] <= above[a], (a, b, above[b] - above[a])


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


def test_bellman_round_costs_follow_the_frontiers_it_changes():
    # A path takes one round per vertex, and each round changes one frontier.
    # Summing every frontier each round would make this solve quadratic: on
    # 30,000 vertices about 18 s instead of about 0.1 s (2-core VM, Python 3.11).
    n = 30_000
    arcs = [(v, v + 1) for v in range(n - 1)]
    inst = build_instance(n, arcs, 0, mosp_space(1, {key: [1] for key in arcs}))
    start = time.perf_counter()
    result = bellman_solve(inst)
    assert time.perf_counter() - start < 5
    assert result.stats.iterations == n
    assert result.iteration_sizes[:3] == [2, 3, 4] and result.iteration_sizes[-1] == n


def test_acyclic_instances_converge_within_vertex_count_rounds():
    for seed in range(10):
        inst = random_instance("mosp-max", seed)
        result = bellman_solve(inst, SolveMode.MIN)
        assert result.status == CONVERGED
        assert result.stats.iterations <= inst.vertex_count + 1


# ---------------------------------------------------------------------------
# Generators.

# sha256 over every structure's instances for seeds 0-199: name, vertex count,
# arc keys, declared set, mu, max_iterations and the rendered Bellman min
# frontiers, one JSON line per instance.  A generator that draws its random
# numbers differently, or builds something else from them, changes it.
GENERATOR_DIGEST = "1a92bf6232dff24508ae3e672f76d0f4c82a0be4158622b36709cf942c9080a9"


def test_generated_instances_match_the_pinned_digest():
    digest = hashlib.sha256()
    for structure in MIN_STRUCTURES + MAX_STRUCTURES:
        for seed in range(200):
            inst = random_instance(structure, seed)
            frontiers = bellman_solve(inst, SolveMode.MIN).frontiers
            record = [
                inst.name,
                inst.vertex_count,
                [arc.key for arc in inst.arcs],
                sorted(inst.declared),
                inst.mu,
                inst.max_iterations,
                [[inst.space.render_weight(lab.weight) for lab in f] for f in frontiers],
            ]
            digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == GENERATOR_DIGEST


def test_random_instance_rejects_an_unknown_structure():
    with pytest.raises(ValueError, match=r"^unknown structure 'nope'$"):
        random_instance("nope", 0)


def frontier_weight_sets(result):
    return [{lab.weight for lab in f} for f in result.frontiers]


@pytest.mark.parametrize("structure", MIN_STRUCTURES)
def test_arc_order_leaves_every_frontier_weight_set_unchanged(structure):
    # Rebuilding an instance with its arcs in another order, over the same
    # space, changes no vertex's set of efficient weights.
    moved = solves = 0
    for seed in range(40):
        inst = random_instance(structure, seed)
        keys = [arc.key for arc in inst.arcs]
        random.Random(seed).shuffle(keys)
        moved += keys != [arc.key for arc in inst.arcs]
        shuffled = build_instance(
            inst.vertex_count, keys, inst.source, inst.space, inst.declared, inst.mu, inst.max_iterations
        )
        solvers = [bellman_solve]
        if permitted_algorithms(inst.declared, "min", inst.space.leo_key is not None)["mda"]:
            solvers.append(mda_solve)
        for solve in solvers:
            want = frontier_weight_sets(solve(inst, SolveMode.MIN))
            assert frontier_weight_sets(solve(shuffled, SolveMode.MIN)) == want, (inst.name, solve.__name__)
            solves += 1
    assert moved >= 30 and solves > 40


@pytest.mark.parametrize("structure", MIN_STRUCTURES + MAX_STRUCTURES)
def test_bellman_and_mda_agree_wherever_both_are_permitted(structure):
    # Where the selection table permits both solvers, they find the same
    # efficient weights at every vertex.
    variants = collections.Counter()
    for seed in range(40):
        inst = random_instance(structure, seed)
        for variant in ("min", "max"):
            if not all(permitted_algorithms(inst.declared, variant, inst.space.leo_key is not None).values()):
                continue
            mode = SolveMode(variant)
            bellman, mda = bellman_solve(inst, mode), mda_solve(inst, mode)
            case = (inst.name, variant)
            assert bellman.status == mda.status == CONVERGED, case
            assert frontier_weight_sets(mda) == frontier_weight_sets(bellman), case
            variants[variant] += 1
    assert variants["min"] == 40
    assert variants["max"] == (40 if structure in MAX_STRUCTURES else 0)


def test_min_mode_weights_are_among_the_max_mode_weights():
    # Max mode keeps every path whose weight is not strictly dominated, so it
    # finds every weight min mode finds.  Only mu-bounded instances: on the
    # others max mode need not stop (`subset` seeds 5 and 11 hang).
    instances = 0
    for structure in MIN_STRUCTURES + MAX_STRUCTURES:
        for seed in range(40):
            inst = random_instance(structure, seed)
            if posp.MU_BOUNDED not in inst.declared:
                continue
            low, high = bellman_solve(inst, SolveMode.MIN), bellman_solve(inst, SolveMode.MAX)
            assert low.status == high.status == CONVERGED, inst.name
            for v, (a, b) in enumerate(zip(frontier_weight_sets(low), frontier_weight_sets(high))):
                assert a <= b, (inst.name, v, a - b)
            instances += 1
    assert instances == 160


@pytest.mark.parametrize("structure", MIN_STRUCTURES + MAX_STRUCTURES)
def test_relabelling_vertices_permutes_every_frontier_weight_set(structure):
    # Renumber the vertices and hand each arc's update its original arc: every
    # permitted solver finds the same weight sets, at the renumbered vertices.
    modes = [SolveMode.MIN] if structure in MIN_STRUCTURES else list(SolveMode)
    solves = 0
    for seed in range(40):
        inst = random_instance(structure, seed)
        n = inst.vertex_count
        perm = random.Random(seed).sample(range(n), n)
        update, original = inst.space.update, inst.arcs
        space = dataclasses.replace(inst.space, update=lambda w, arc: update(w, original[arc.index]))
        renumbered = build_instance(
            n,
            [(perm[a.tail], perm[a.head]) for a in inst.arcs],
            perm[inst.source],
            space,
            inst.declared,
            inst.mu,
            inst.max_iterations,
        )
        for mode in modes:
            permitted = permitted_algorithms(inst.declared, mode.value, inst.space.leo_key is not None)
            for name, solve in (("bellman", bellman_solve), ("mda", mda_solve)):
                if not permitted[name]:
                    continue
                want = frontier_weight_sets(solve(inst, mode))
                got = frontier_weight_sets(solve(renumbered, mode))
                assert [got[perm[v]] for v in range(n)] == want, (inst.name, mode, name)
                solves += 1
    assert solves == 80 * len(modes)  # both solvers, every seed and mode


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
    assert frontier_weights(result, 1) == {e.weight for e in oracle.entries[1]}


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
    # Creation order, by label: it breaks key ties in the parked pools.
    created = {}
    serials = itertools.count()
    pushes = itertools.count()

    def set_entry(v, label):
        entry = [key_of(label.weight), v, next(pushes), label]
        entry_for[v] = entry
        heapq.heappush(heap, entry)
        stats.insertions += 1

    def park(label):
        heapq.heappush(parked[label.vertex], (key_of(label.weight), created[label], label))

    def promote(v):
        while parked[v]:
            _key, _serial, lab = heapq.heappop(parked[v])
            if reconstruct_path(lab) in permanent_ids[v]:
                continue
            if dominated(permanents[v], lab.weight):
                continue
            set_entry(v, lab)
            return

    root = Label(vertex=instance.source, pred=None, arc=None, weight=space.initial, length=0)
    created[root] = next(serials)
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
        permanent_ids[v].add(reconstruct_path(label))
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
            cand = Label(vertex=u, pred=label, arc=arc, weight=w, length=label.length + 1)
            created[cand] = next(serials)
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
    # Re-extending every frontier every round re-derives what a semi-naive
    # round derived once: the same labels in the same order, and, in max
    # mode, no path twice.  Only the comparison count drops.
    modes = [SolveMode.MIN] if structure in MIN_STRUCTURES else list(SolveMode)
    saved = 0
    for seed in range(40):
        inst = random_instance(structure, seed)
        for mode in modes:
            result = bellman_solve(inst, mode)
            (want, status, insertions), compared = two_pass_bellman(inst, mode, re_extend=True)
            case = (seed, mode)
            assert labelled_frontiers(result) == [[r[:2] for r in f] for f in want], case
            assert (result.status, result.stats.insertions) == (status, insertions), case
            assert result.stats.comparisons <= compared, case
            saved += compared - result.stats.comparisons
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


def test_enumeration_budget_is_enforced(monkeypatch):
    monkeypatch.setenv("POSP_BUDGET", "10")
    inst = kn_instance(3, 5)
    with pytest.raises(BudgetExceededError):
        enumerate_source_paths(inst, 5)


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
            assert frontier_weights(result, v) == {e.weight for e in oracle.entries[v]}, (name, v)


def test_oracle_max_returns_every_efficient_path():
    inst = equal_weight_diamond()
    oracle = brute_force_frontier(inst, 2, SolveMode.MAX)
    assert {e.path for e in oracle.entries[3]} == {(0, 1, 3), (0, 2, 3)}
    mn = brute_force_frontier(inst, 2, SolveMode.MIN)
    assert len(mn.entries[3]) == 1
