"""The local optimality certificate (tests/certificate.py) on solver results
the oracle checks and on grids it cannot reach, and on broken results."""

from __future__ import annotations

import dataclasses
import random

import pytest

import posp
from certificate import certify, grid_cases, load_perfbench
from posp.algorithms import GUARD_HIT, bellman_solve, mda_solve
from posp.core import Label, reconstruct_path
from posp.generators import MIN_STRUCTURES, random_instance


def _with_frontier(result, v, frontier):
    frontiers = list(result.frontiers)
    frontiers[v] = frontier
    return dataclasses.replace(result, frontiers=frontiers)


@pytest.mark.parametrize("drop", [False, True])
@pytest.mark.parametrize("structure", MIN_STRUCTURES)
def test_certificate_passes_every_generator_solve(structure, drop):
    for seed in range(40):
        inst = random_instance(structure, seed)
        for solve in (bellman_solve, mda_solve):
            result = solve(inst, drop_infeasible=drop)
            assert certify(inst, result, drop_infeasible=drop) is None, (seed, solve.__name__)


def test_certificate_asks_a_cover_for_an_infeasible_extension_unless_told_the_solve_dropped_it():
    uncovered = 0
    for structure in ("evsp", "wcspr"):
        for seed in range(40):
            inst = random_instance(structure, seed)
            result = bellman_solve(inst, drop_infeasible=True)
            found = certify(inst, result)
            if found is None:
                continue
            assert found["check"] == "closure", (structure, seed)
            tail, head = found["arc"]
            label = next(g for g in result.frontiers[tail] if list(reconstruct_path(g)) == found["path"])
            extension = inst.space.update(label.weight, inst.arc_between(tail, head))
            assert inst.space.is_infeasible(extension), (structure, seed)
            uncovered += 1
    assert uncovered == 41


@pytest.mark.parametrize("d, k", [(2, 12), (2, 16), (2, 20), (3, 8), (3, 10)])
def test_certificate_passes_grids_the_oracle_cannot_reach(d, k):
    gen = load_perfbench("gen")
    inst = posp.parse_instance(gen.grid_doc(k, d, random.Random(f"certificate:{d}:{k}"), "grid"))
    for solve in (bellman_solve, mda_solve):
        assert certify(inst, solve(inst)) is None, solve.__name__


def _dropped_label_mutants(result):
    """(vertex, result) for each label but the root dropped from `result`."""
    for v, frontier in enumerate(result.frontiers):
        for i, label in enumerate(frontier):
            if label.pred is not None:
                yield v, _with_frontier(result, v, frontier[:i] + frontier[i + 1 :])


def test_certificate_names_the_arc_into_a_dropped_label():
    mutants = 0
    for structure in MIN_STRUCTURES:
        for seed in range(10):
            inst = random_instance(structure, seed)
            for solve in (bellman_solve, mda_solve):
                for v, mutant in _dropped_label_mutants(solve(inst)):
                    found = certify(inst, mutant)
                    assert found is not None and found["check"] == "closure", (structure, seed, v)
                    assert found["arc"][1] == v
                    mutants += 1
    assert mutants == 812


def test_certificate_rejects_a_changed_weight_a_repeated_label_and_a_moved_one():
    name, doc = next(grid_cases(0, 1))
    inst = posp.parse_instance(doc)
    result = bellman_solve(inst)
    v = max(range(inst.vertex_count), key=lambda u: len(result.frontiers[u]))
    frontier = result.frontiers[v]
    label = frontier[-1]
    changed = Label(v, label.pred, (label.weight[0] + 1, *label.weight[1:]), label.length)
    found = certify(inst, _with_frontier(result, v, [*frontier[:-1], changed]))
    assert found["check"] == "path" and found["path"] == list(reconstruct_path(label)), name
    found = certify(inst, _with_frontier(result, v, [*frontier, label]))
    assert found["check"] == "antichain" and found["vertex"] == v, name
    found = certify(inst, _with_frontier(result, inst.source, [label, *result.frontiers[inst.source]]))
    assert found["check"] == "path" and found["frontier"] == inst.source, name


def test_certificate_refuses_a_result_that_did_not_converge():
    inst = random_instance("mosp", 0)
    with pytest.raises(ValueError, match="iteration-guard-hit"):
        certify(inst, dataclasses.replace(bellman_solve(inst), status=GUARD_HIT))
