"""Acceptance suite: one test per shipped guarantee, one verdict line each.

Each test prints ``[acceptance] <criterion>: PASS`` (or FAIL) so a plain
pytest run doubles as the checklist.  Everything here relies on exact
rational arithmetic; there are no tolerances to tune.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import posp
from posp import Arc, LeoMonotonicityError, reconstruct_path
from posp.algorithms import (
    CONVERGED,
    SolveMode,
    bellman_solve,
    brute_force_frontier,
    mda_solve,
)
from posp.conditions import (
    check_history_free,
    check_independence,
    check_linear_extension,
    check_monotonicity,
    check_subpath_optimality,
    permitted_algorithms,
)
from posp.generators import MIN_STRUCTURES, kn_instance, random_instance
from posp.weights import (
    TravelTimeTable,
    evsp_space,
    interval_space,
    mosp_space,
    subset_space,
    wcspr_space,
)

F = Fraction


def verdict(label: str, ok: bool) -> None:
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, label


def load_instance(name: str):
    return posp.parse_instance(json.loads(posp.fixture_path(name).read_text()))


def weight_set(result, v):
    return {lab.weight for lab in result.frontiers[v]}


# ---------------------------------------------------------------------------
# 1. The minimal complete set can need a non-simple path.


def test_nonsimple_witness_in_solver_and_oracle():
    inst = load_instance("nonsimple_witness.json")
    bell = bellman_solve(inst, SolveMode.MIN)
    oracle = brute_force_frontier(inst, 8, SolveMode.MIN)
    ok = bell.status == CONVERGED
    ok = ok and weight_set(bell, 1) == {"B", "C"}
    ok = ok and set(oracle.weights(1)) == {"B", "C"}
    solver_witness = {
        lab.weight: reconstruct_path(lab) for lab in bell.frontiers[1]
    }
    oracle_witness = {e.weight: e.path for e in oracle.entries[1]}
    ok = ok and solver_witness["B"] == (0, 1, 2, 1)
    ok = ok and oracle_witness["B"] == (0, 1, 2, 1)
    verdict("non-simple witness path", ok)


# ---------------------------------------------------------------------------
# 2. Increasing weights alone do not give weak independence.


def test_dependent_extension_witness():
    inst = load_instance("dependent_extension.json")
    report = check_independence(inst, depth=4, mode="weak")
    ok = not report.holds
    w = report.witness or {}
    ok = ok and w.get("paths") == [[0, 1, 3], [0, 2, 3]]
    ok = ok and w.get("arc") == [3, 4]
    ok = ok and w.get("weights") == ["1", "2"]
    ok = ok and w.get("extended_weights") == ["4", "3"]
    ok = ok and check_monotonicity(inst, depth=4, kind="arc-increasing").holds
    ok = ok and check_history_free(inst, depth=4).holds
    verdict("dependent extension refutes weak independence", ok)


# ---------------------------------------------------------------------------
# 3. An improving loop: fixpoint in three rounds, no subpath optimality,
#    no monotone linear extension.


def test_improving_loop_behaviour():
    inst = load_instance("improving_loop.json")
    bell = bellman_solve(inst, SolveMode.MIN)
    ok = bell.status == CONVERGED and bell.stats.iterations == 3
    ok = ok and weight_set(bell, 1) == {"1"}
    ok = ok and not check_subpath_optimality(inst, depth=6, mode="weak").holds
    leo_report = check_linear_extension(inst, depth=6)
    ok = ok and not leo_report.holds
    ok = ok and (leo_report.witness or {}).get("kind") == "arc-monotonicity"
    verdict("improving loop diagnostics", ok)


# ---------------------------------------------------------------------------
# 4. Solver/oracle equivalence across every min-mode weight structure.


def test_min_mode_oracle_equivalence_suite():
    failures = []
    for si, structure in enumerate(MIN_STRUCTURES):
        for i in range(100):
            seed = 1000 * si + i
            inst = random_instance(structure, seed)
            bell = bellman_solve(inst, SolveMode.MIN)
            oracle = brute_force_frontier(inst, 10, SolveMode.MIN)
            for v in range(inst.vertex_count):
                if weight_set(bell, v) != set(oracle.weights(v)):
                    failures.append((structure, seed, v, "bellman"))
            permitted = permitted_algorithms(
                inst.declared, "min", inst.space.leo_key is not None
            )
            if not permitted["mda"]:
                failures.append((structure, seed, None, "no-mda-row"))
                continue
            m = mda_solve(inst, SolveMode.MIN)
            for v in range(inst.vertex_count):
                if weight_set(m, v) != weight_set(bell, v):
                    failures.append((structure, seed, v, "mda"))
    if failures:
        print(failures[:10])
    verdict("min-mode oracle equivalence (8 structures x 100 seeds)", not failures)


# ---------------------------------------------------------------------------
# 5. Max mode returns every efficient path, not just one per weight.


def test_max_mode_returns_maximal_complete_sets():
    failures = []
    for structure in ("mosp-max", "tourist-max"):
        for i in range(25):
            inst = random_instance(structure, i)
            oracle = brute_force_frontier(inst, inst.mu, SolveMode.MAX)
            for solve in (bellman_solve, mda_solve):
                mx = solve(inst, SolveMode.MAX)
                for v in range(inst.vertex_count):
                    got = {reconstruct_path(lab) for lab in mx.frontiers[v]}
                    if got != set(oracle.paths(v)):
                        failures.append((structure, i, solve.__name__, v))
    verdict("max-mode maximal complete sets (50 instances, both solvers)", not failures)


# ---------------------------------------------------------------------------
# 6. Worst-case frontier growth on the complete digraph.


def test_complete_digraph_growth_counts():
    ok = True
    for n, m in ((3, 3), (4, 3)):
        inst = kn_instance(n, m)
        result = bellman_solve(inst, SolveMode.MIN)
        ok = ok and result.status == CONVERGED
        for k in range(1, m):
            expected = sum(n**i for i in range(1, k + 1))
            ok = ok and result.iteration_sizes[k - 1] - 1 == expected
        for v in range(n):
            labels = result.frontiers[v]
            ok = ok and len(labels) == 1
            ok = ok and labels[0].weight == ()
            ok = ok and labels[0].length == m
    verdict("complete-digraph frontier growth", ok)


# ---------------------------------------------------------------------------
# 7. Algebraic laws of the weight structures.


def powerset(ground):
    out = []
    for r in range(len(ground) + 1):
        out.extend(frozenset(c) for c in itertools.combinations(ground, r))
    return out


def test_algebraic_law_suites():
    from posp.core import EQUAL, GREATER, INCOMPARABLE, LESS

    ok = True
    rng = random.Random(20240817)

    # Translation law, exhaustive on subsets of a 4-element ground set.
    s4 = subset_space(4, {})
    sets4 = powerset(range(1, 5))
    for a in sets4:
        for b in sets4:
            if s4.comparator(a, b) is not LESS:
                continue
            for x in sets4:
                ok = ok and s4.comparator(a | x, b | x) in (LESS, EQUAL)

    # Translation law, sampled for vectors and intervals.
    vec = mosp_space(3, {})
    for _ in range(10_000):
        a, b, x = (
            tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3))
            for _ in range(3)
        )
        if vec.comparator(a, b) is LESS:
            shifted = vec.comparator(
                tuple(p + q for p, q in zip(a, x)), tuple(p + q for p, q in zip(b, x))
            )
            ok = ok and shifted in (LESS, EQUAL)

    settings = [(F(-1), F(1)), (F(0), F(0)), (F(-1, 2), F(1, 2))]
    spaces = [interval_space(al, be, {}) for al, be in settings]
    for _ in range(10_000):
        sp = spaces[rng.randrange(3)]
        def pair():
            w = F(rng.randint(0, 6), rng.randint(1, 3))
            return (w + F(rng.randint(0, 9), rng.randint(1, 3)), w)
        a, b, x = pair(), pair(), pair()
        if sp.comparator(a, b) is LESS:
            ext = sp.comparator((a[0] + x[0], a[1] + x[1]), (b[0] + x[0], b[1] + x[1]))
            # Interval translation preserves strictness, not merely order.
            ok = ok and ext is LESS

    # Positivity: extending never improves a weight.
    for _ in range(2_000):
        a = tuple(F(rng.randint(0, 9)) for _ in range(3))
        x = tuple(F(rng.randint(0, 9)) for _ in range(3))
        grown = tuple(p + q for p, q in zip(a, x))
        ok = ok and vec.comparator(a, grown) in (LESS, EQUAL)
    for a in sets4:
        for x in sets4:
            ok = ok and s4.comparator(a, a | x) in (LESS, EQUAL)
    for _ in range(2_000):
        sp = spaces[rng.randrange(3)]
        c = F(rng.randint(0, 9), rng.randint(1, 3))
        w = F(rng.randint(0, 6), rng.randint(1, 3))
        dc = F(rng.randint(0, 9), rng.randint(1, 3))
        dw = F(rng.randint(0, 6), rng.randint(1, 3))
        a = (c + w, w)
        x = (dc + dw, dw)
        ok = ok and sp.comparator(a, (a[0] + x[0], a[1] + x[1])) in (LESS, EQUAL)
    table = TravelTimeTable([(0, 3), (2, 2), (5, 4)])
    for _ in range(2_000):
        tau = F(rng.randint(0, 40), rng.randint(1, 4))
        ok = ok and tau <= tau + table.travel(tau)

    # Meet-semilattice laws on a small rational grid.
    grid = [F(0), F(1, 3), F(1, 2), F(1), F(3, 2)]
    for a in grid:
        ok = ok and min(a, a) == a
        for b in grid:
            ok = ok and min(a, b) == min(b, a)
            for c in grid:
                ok = ok and min(min(a, b), c) == min(a, min(b, c))

    # Shortlex over the 5-element ground set: a total, antisymmetric,
    # transitive extension of containment.
    s5 = subset_space(5, {})
    key = s5.leo_key
    sets5 = powerset(range(1, 6))
    keys = {a: key(a) for a in sets5}
    ok = ok and len(set(keys.values())) == len(sets5)
    for a in sets5:
        for b in sets5:
            if a < b:
                ok = ok and keys[a] < keys[b]

    # Resource window under fuzzed update sequences.
    limit = F(10)
    wc = wcspr_space(
        limit,
        {
            (0, 0): {"w": 1, "r": 3},
            (0, 1): {"w": 2, "r": 5},
            (1, 0): {"w": 1, "r": 0, "replenish": True},
            (1, 1): {"w": 0, "r": 9},
        },
    )
    arcs = [Arc(0, 0, 0), Arc(1, 0, 1), Arc(2, 1, 0), Arc(3, 1, 1)]
    for _ in range(500):
        w = wc.initial
        for _ in range(rng.randint(1, 12)):
            w = wc.update(w, rng.choice(arcs))
            ok = ok and F(0) <= w[1] <= limit

    # Charge window and the absorbing empty battery under fuzzed sequences.
    ev = evsp_space(
        F(1, 2),
        {(0, 1): (2, F(2, 5)), (1, 0): (1, F(-1, 5)), (0, 0): (3, F(4, 5))},
        {1: [(0, 0), (2, 1)]},
        F(1, 2),
    )
    ev_arcs = [Arc(0, 0, 1), Arc(1, 1, 0), Arc(2, 0, 0), Arc(3, 1, 1)]
    for _ in range(500):
        w = ev.initial
        died = False
        for _ in range(rng.randint(1, 12)):
            w = ev.update(w, rng.choice(ev_arcs))
            ok = ok and F(0) <= w[1] <= F(1)
            if died:
                ok = ok and w[1] == 0
            died = died or w[1] == 0

    verdict("algebraic law suites", ok)


# ---------------------------------------------------------------------------
# 8. Permanence is never contradicted by a later extraction.


def test_label_setting_permanence_assertion():
    violations = 0
    solves = 0
    for si, structure in enumerate(MIN_STRUCTURES):
        for i in range(25):
            inst = random_instance(structure, 1000 * si + i)
            try:
                mda_solve(inst, SolveMode.MIN)
                solves += 1
            except LeoMonotonicityError:
                violations += 1
    for structure in ("mosp-max", "tourist-max"):
        for i in range(25):
            inst = random_instance(structure, i)
            try:
                mda_solve(inst, SolveMode.MAX)
                solves += 1
            except LeoMonotonicityError:
                violations += 1
    verdict(f"label-setting permanence ({solves} solves)", violations == 0 and solves == 250)


# ---------------------------------------------------------------------------
# 9. Byte-identical output documents on repeated runs.


def run_cli(*args: str) -> subprocess.CompletedProcess:
    env = os.environ.copy()
    # The child imports the posp these tests import, installed or not.
    src = str(Path(posp.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "posp", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_every_command_is_deterministic():
    fixture = str(posp.fixture_path("evsp_demo.json"))
    table_fixture = str(posp.fixture_path("improving_loop.json"))
    commands = [
        ("solve", fixture),
        ("solve", fixture, "--algorithm", "bellman", "--variant", "max"),
        ("solve", fixture, "--drop-infeasible"),
        ("check", fixture, "--depth", "5"),
        ("check", table_fixture),
        ("oracle", fixture, "--max-len", "6"),
        ("recommend", fixture),
        ("bench", "--suite", "kn-worst-case", "--n", "3", "--m", "3"),
        ("bench", "--suite", "random", "--structures", "mosp,tourist", "--count", "2"),
    ]
    ok = True
    for cmd in commands:
        first = run_cli(*cmd)
        second = run_cli(*cmd)
        ok = ok and first.stdout == second.stdout and first.returncode == second.returncode
    verdict("byte-identical repeated runs", ok)
