"""Command-line surface: documents in, one JSON line out, honest exit codes."""

from __future__ import annotations

import copy
import dataclasses
import importlib.util
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import posp
from posp import cli, conditions
from posp.algorithms import SolveMode, bellman_solve, enumerate_source_paths, mda_solve
from posp.core import LeoMonotonicityError, reconstruct_path
from posp.generators import MAX_STRUCTURES, MIN_STRUCTURES, random_instance
from posp.weights import MAX_PRODUCT_DEPTH


def fixture_file(name: str) -> str:
    return str(posp.fixture_path(name))


def run_cli(
    *args: str, env_extra: dict | None = None, timeout: float | None = None
) -> subprocess.CompletedProcess:
    env = os.environ.copy()
    # The child imports the posp these tests import, installed or not.
    src = str(Path(posp.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "posp", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def write_doc(tmp_path, doc, name="instance.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# ---------------------------------------------------------------------------
# Parsing.


ALL_FIXTURES = [
    "nonsimple_witness.json",
    "improving_loop.json",
    "dependent_extension.json",
    "subset_catchup.json",
    "vector_demo.json",
    "bottleneck_demo.json",
    "interval_demo.json",
    "fifo_demo.json",
    "wcspr_demo.json",
    "evsp_demo.json",
    "tourist_demo.json",
    "product_demo.json",
]


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_every_bundled_document_parses(name):
    inst = posp.parse_instance(json.loads(posp.fixture_path(name).read_text()))
    assert inst.vertex_count >= 2
    assert inst.space.update is not None


def minimal_doc(**overrides):
    doc = {
        "format_version": 1,
        "name": "tiny",
        "graph": {"vertex_count": 2, "arcs": [{"tail": 0, "head": 1, "payload": [1]}]},
        "source": 0,
        "weight_space": {"kind": "mosp", "params": {"dimension": 1}},
    }
    doc.update(overrides)
    return doc


def test_parse_rejects_wrong_format_version():
    with pytest.raises(posp.ValidationError, match="format version"):
        posp.parse_instance(minimal_doc(format_version=2))


def test_parse_rejects_missing_fields_with_a_path():
    doc = minimal_doc()
    del doc["graph"]["vertex_count"]
    with pytest.raises(posp.ValidationError, match="graph.vertex_count"):
        posp.parse_instance(doc)


def test_parse_rejects_unknown_space_kind():
    with pytest.raises(posp.ValidationError, match="kind"):
        posp.parse_instance(minimal_doc(weight_space={"kind": "vibes", "params": {}}))


def test_cli_reports_parallel_arcs(tmp_path):
    doc = minimal_doc()
    doc["graph"]["arcs"].append({"tail": 0, "head": 1, "payload": [2]})
    r = run_cli("solve", write_doc(tmp_path, doc))
    assert r.returncode == 2
    assert "parallel" in r.stderr


def test_cli_reports_unreadable_and_invalid_files(tmp_path):
    r = run_cli("solve", str(tmp_path / "missing.json"))
    assert r.returncode == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = run_cli("solve", str(bad))
    assert r.returncode == 2
    assert "JSON" in r.stderr


# ---------------------------------------------------------------------------
# Malformed documents end in exit code 2, never in a traceback.


def fixture_doc(name):
    return json.loads(posp.fixture_path(name).read_text())


def with_arc_payload(name, payload):
    doc = fixture_doc(name)
    doc["graph"]["arcs"][0]["payload"] = payload
    return doc


def with_params(name, **values):
    doc = fixture_doc(name)
    doc["weight_space"]["params"].update(values)
    return doc


def with_vertex_count(name, count):
    doc = fixture_doc(name)
    doc["graph"]["vertex_count"] = count
    return doc


def with_table_entries(value):
    doc = fixture_doc("dependent_extension.json")
    doc["weight_space"]["params"]["updates"][0]["entries"] = value
    return doc


MALFORMED = {
    "mosp-scalar-payload": with_arc_payload("vector_demo.json", 5),
    "bottleneck-payload-without-bottleneck": with_arc_payload(
        "bottleneck_demo.json", {"additive": [3]}
    ),
    "bottleneck-payload-3-list": with_arc_payload("bottleneck_demo.json", [[3], [5], [1]]),
    "bottleneck-scalar-payload": with_arc_payload("bottleneck_demo.json", 7),
    "wcspr-payload-without-w": with_arc_payload("wcspr_demo.json", {"r": 6}),
    "evsp-scalar-curve-point": with_params("evsp_demo.json", stations={"1": [[0, 0], 1, [2, 1]]}),
    "evsp-3-component-curve-point": with_params(
        "evsp_demo.json", stations={"1": [[0, 0, 5], [1, 0.6], [2, 1]]}
    ),
    "table-entries-list": with_table_entries([["0", "1"]]),
    "table-updates-int": with_params("dependent_extension.json", updates=3),
    "table-strict-pairs-int": with_params("dependent_extension.json", strict_pairs=3),
    "tourist-scalar-categories": with_params("tourist_demo.json", categories=0),
    "tourist-scalar-values": with_params("tourist_demo.json", values=3),
    "tourist-arc-into-a-vertex-without-a-value": with_params(
        "tourist_demo.json", values=[3, 5, 2], categories=[0, 0, 1]
    ),
    "wcspr-replenish-string-false": with_arc_payload(
        "wcspr_demo.json", {"w": 1, "r": 6, "replenish": "false"}
    ),
    "wcspr-replenish-string-true": with_arc_payload(
        "wcspr_demo.json", {"w": 1, "r": 6, "replenish": "true"}
    ),
    "wcspr-replenish-2": with_arc_payload("wcspr_demo.json", {"w": 1, "r": 6, "replenish": 2}),
    "wcspr-replenish-list": with_arc_payload("wcspr_demo.json", {"w": 1, "r": 6, "replenish": []}),
    # Sizes beyond the documented limits, rejected before anything is allocated.
    "tourist-category-count-1e9": with_params("tourist_demo.json", category_count=10**9),
    "vertex-count-1e8": with_vertex_count("vector_demo.json", 10**8),
    "mosp-dimension-1e9-without-arcs": minimal_doc(
        graph={"vertex_count": 2, "arcs": []},
        weight_space={"kind": "mosp", "params": {"dimension": 10**9}},
    ),
    # Python's json reads NaN and Infinity; exact arithmetic has no place for them.
    "mosp-nan-cost": with_arc_payload("vector_demo.json", [float("nan"), 3]),
    "wcspr-infinite-limit": with_params("wcspr_demo.json", limit=float("inf")),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_document_exits_two(case, tmp_path, capsys):
    path = write_doc(tmp_path, MALFORMED[case])
    assert cli.main(["solve", path, "--force"]) == 2
    captured = capsys.readouterr()
    assert "validation error" in captured.err
    assert captured.out == ""


def test_json_nested_past_the_recursion_limit_exits_two(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert cli.main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert "validation error" in captured.err
    assert captured.out == ""


def nested_product_doc(depth):
    """A one-arc document whose space nests `depth` products in their first parts."""
    space, payload = {"kind": "mosp", "params": {"dimension": 1}}, [1]
    for _ in range(depth):
        second = {"kind": "mosp", "params": {"dimension": 1}}
        space = {"kind": "product", "params": {"first": space, "second": second}}
        payload = {"first": payload, "second": [2]}
    doc = minimal_doc(weight_space=space)
    doc["graph"]["arcs"][0]["payload"] = payload
    return doc


@pytest.mark.parametrize("depth", [MAX_PRODUCT_DEPTH, MAX_PRODUCT_DEPTH + 1, 450])
def test_product_nesting_is_bounded(depth, tmp_path, capsys):
    path = write_doc(tmp_path, nested_product_doc(depth))
    code = cli.main(["solve", path, "--force"])
    captured = capsys.readouterr()
    if depth <= MAX_PRODUCT_DEPTH:
        assert code == 0, captured.err
        assert json.loads(captured.out)["frontiers"][1]["entries"][0]["length"] == 1
    else:
        assert code == 2
        assert "validation error" in captured.err
        assert captured.out == ""
    if depth == MAX_PRODUCT_DEPTH + 1:
        assert f"products nest deeper than {MAX_PRODUCT_DEPTH} levels" in captured.err


@pytest.mark.parametrize("value", [0, -5])
def test_max_iterations_below_one_exits_two(value, tmp_path, capsys):
    doc = fixture_doc("vector_demo.json")
    doc["max_iterations"] = value
    assert cli.main(["solve", write_doc(tmp_path, doc)]) == 2
    assert cli.main(["solve", fixture_file("vector_demo.json"), "--max-iterations", str(value)]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("max_iterations: max_iterations must be at least 1") == 2
    assert captured.out == ""


WRONG_SHAPES = (None, 7, "x", [], {}, [1, 2, 3], [[1, 2], [3]], True)


def replaceable_slots(value):
    """(container, key) for every value nested in `value`."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    slots = []
    for key, inner in items:
        slots.append((value, key))
        slots.extend(replaceable_slots(inner))
    return slots


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_wrong_shapes_end_in_a_documented_exit_code(name, tmp_path):
    # Every slot of the document (top-level fields, the graph, each arc, the
    # weight space with its params and payloads, an absent payload too) is
    # in turn deleted and given each wrong shape.
    base = fixture_doc(name)
    for arc in base["graph"]["arcs"]:
        arc.setdefault("payload", None)
    path = tmp_path / "instance.json"
    for slot in range(len(replaceable_slots(base))):
        for shape in ("delete", *WRONG_SHAPES):
            doc = copy.deepcopy(base)
            container, key = replaceable_slots(doc)[slot]
            if shape == "delete":
                del container[key]
            else:
                container[key] = shape
            path.write_text(json.dumps(doc))
            code = cli.main(["solve", str(path), "--force"])
            assert code in (0, 2, 3, 4, 5), (slot, shape)


# ---------------------------------------------------------------------------
# solve.


def test_solve_auto_picks_the_fixpoint_solver_without_an_extension():
    r = run_cli("solve", fixture_file("nonsimple_witness.json"))
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["algorithm"] == "bellman"
    assert doc["final"] is True
    entries = doc["frontiers"][1]["entries"]
    assert [(e["weight"], e["path"]) for e in entries] == [
        ("B", [0, 1, 2, 1]),
        ("C", [0, 1]),
    ]


def test_solve_auto_prefers_label_setting_when_justified():
    r = run_cli("solve", fixture_file("vector_demo.json"))
    assert r.returncode == 0
    assert json.loads(r.stdout)["algorithm"] == "mda"


def test_solve_refuses_an_unjustified_algorithm_without_force():
    r = run_cli("solve", fixture_file("nonsimple_witness.json"), "--algorithm", "mda")
    assert r.returncode == 3
    assert "--force" in r.stderr
    assert r.stdout == ""


def test_solve_forced_mda_without_a_key_still_fails():
    r = run_cli(
        "solve", fixture_file("nonsimple_witness.json"), "--algorithm", "mda", "--force"
    )
    assert r.returncode == 3
    assert "linear extension" in r.stderr


def test_solve_guard_hit_is_visible_and_nonfinal():
    r = run_cli("solve", fixture_file("improving_loop.json"), "--max-iterations", "2")
    assert r.returncode == 4
    doc = json.loads(r.stdout)
    assert doc["status"] == "iteration-guard-hit"
    assert doc["final"] is False
    assert len(doc["iteration_sizes"]) == 2


def test_solve_variant_max_collects_every_efficient_path():
    r = run_cli("solve", fixture_file("tourist_demo.json"), "--variant", "max")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    ref = run_cli("oracle", fixture_file("tourist_demo.json"), "--variant", "max", "--max-len", "3")
    ref_doc = json.loads(ref.stdout)
    got = [sorted(json.dumps(e) for e in fr["entries"]) for fr in doc["frontiers"]]
    want = [sorted(json.dumps(e) for e in fr["entries"]) for fr in ref_doc["frontiers"]]
    assert got == want


def test_solve_drop_infeasible_filters_stranded_labels():
    r = run_cli("solve", fixture_file("evsp_demo.json"), "--drop-infeasible")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    for fr in doc["frontiers"]:
        for e in fr["entries"]:
            assert e["feasible"] is True


def test_solve_monotonicity_assertion_failure_exits_five(tmp_path):
    doc = {
        "format_version": 1,
        "name": "replenish-loop",
        "graph": {
            "vertex_count": 2,
            "arcs": [
                {"tail": 0, "head": 1, "payload": {"w": 1, "r": 9}},
                {"tail": 1, "head": 1, "payload": {"w": 0, "r": 2, "replenish": True}},
            ],
        },
        "source": 0,
        "weight_space": {"kind": "wcspr", "params": {"limit": 20}},
    }
    path = write_doc(tmp_path, doc)
    r = run_cli("solve", path, "--algorithm", "mda")
    assert r.returncode == 3  # no table row supports it
    r = run_cli("solve", path, "--algorithm", "mda", "--force")
    assert r.returncode == 5
    assert "monotonicity" in r.stderr


def test_solve_reports_a_permanent_label_above_a_later_extraction(tmp_path):
    # The key extracts b at vertex 1 before c at vertex 2, whose arc to 1
    # yields a < b: the later extraction is strictly below a permanent label.
    def arc(tail, head, entries):
        return {"tail": tail, "head": head, "entries": entries}

    doc = minimal_doc(
        name="strictly-ordered-permanent",
        graph={"vertex_count": 3, "arcs": [{"tail": t, "head": h} for t, h in ((0, 1), (0, 2), (2, 1))]},
        weight_space={
            "kind": "table",
            "params": {
                "weights": ["s", "b", "c", "a"],
                "strict_pairs": [["a", "b"]],
                "initial": "s",
                "leo": ["s", "b", "c", "a"],
                "updates": [arc(0, 1, {"s": "b"}), arc(0, 2, {"s": "c"}), arc(2, 1, {"c": "a"})],
            },
        },
    )
    path = write_doc(tmp_path, doc)
    for variant in ("min", "max"):
        r = run_cli("solve", path, "--algorithm", "mda", "--force", "--variant", variant)
        assert r.returncode == 5
        assert r.stdout == ""
        message, witness = r.stderr.splitlines()
        assert message.startswith("monotonicity violation: a permanent label and a later extraction")
        assert json.loads(witness) == {
            "permanent_path": [0, 1],
            "permanent_weight": "b",
            "extracted_path": [0, 2, 1],
            "extracted_weight": "a",
            "relation": "greater",
        }


def test_monotonicity_witness_keys_render_like_weights(tmp_path, capsys):
    # A negative cost makes the extraction order run backwards; the witness
    # keys must not depend on how the document spells its numbers.
    def doc(cost):
        return minimal_doc(
            graph={
                "vertex_count": 3,
                "arcs": [
                    {"tail": 0, "head": 1, "payload": [cost(5), cost(5)]},
                    {"tail": 0, "head": 2, "payload": [cost(1), cost(1)]},
                    {"tail": 2, "head": 1, "payload": [cost(-10), cost(-10)]},
                ],
            },
            weight_space={"kind": "mosp", "params": {"dimension": 2}},
        )

    errs = []
    for cost in (int, str):
        path = write_doc(tmp_path, doc(cost), f"negative-{cost.__name__}.json")
        assert cli.main(["solve", path, "--algorithm", "mda", "--force"]) == 5
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    witness = json.loads(errs[0].splitlines()[1])
    assert witness["previous_key"] == [1, 1]
    assert witness["key"] == [-9, -9]


def test_mda_guard_stops_a_zero_gain_cycle(tmp_path):
    # In max mode every turn around the empty-set cycle 1 -> 2 -> 1 is another
    # path of equal weight; the label-setting solver stops at Bellman's guard,
    # which --max-iterations sets for both solvers.
    doc = minimal_doc(
        graph={
            "vertex_count": 3,
            "arcs": [
                {"tail": 0, "head": 1, "payload": [1]},
                {"tail": 1, "head": 2, "payload": []},
                {"tail": 2, "head": 1, "payload": []},
            ],
        },
        weight_space={"kind": "subset", "params": {"ground_set_size": 1}},
    )
    path = write_doc(tmp_path, doc)
    for extra, guard in (((), 12), (("--max-iterations", "3"), 3)):
        r = run_cli("solve", path, "--variant", "max", "--algorithm", "mda", "--force", *extra, timeout=60)
        assert r.returncode == 4
        assert r.stderr == f"iteration guard hit at paths of {guard} arcs; frontiers are not final\n"
        out = json.loads(r.stdout)
        assert (out["status"], out["final"]) == ("iteration-guard-hit", False)
        lengths = [e["length"] for fr in out["frontiers"] for e in fr["entries"]]
        assert max(lengths) == guard
        assert sorted(lengths) == list(range(guard + 1))  # one path per length: 0, then 1 and 2 alternating


def quasi_transitive_product_doc():
    # Parts with different relation kinds make a quasi-transitive product,
    # which the fixpoint solver answers by re-extending every frontier.
    def chain(add):
        return {str(w): str(min(w + add, 2)) for w in range(3)}

    table_costs = {(0, 1): 0, (1, 2): 0, (0, 2): 2, (2, 0): 1}
    mosp_costs = {(0, 1): 5, (1, 2): 5, (0, 2): 1, (2, 0): 1}
    return {
        "format_version": 1,
        "name": "quasi-transitive-product",
        "graph": {
            "vertex_count": 3,
            "arcs": [
                {"tail": t, "head": h, "payload": {"first": None, "second": [c]}}
                for (t, h), c in mosp_costs.items()
            ],
        },
        "source": 0,
        "weight_space": {
            "kind": "product",
            "params": {
                "first": {
                    "kind": "table",
                    "params": {
                        "weights": ["0", "1", "2"],
                        "strict_pairs": [["0", "1"], ["1", "2"]],
                        "initial": "0",
                        "updates": [
                            {"tail": t, "head": h, "entries": chain(c)}
                            for (t, h), c in table_costs.items()
                        ],
                        "relation_kind": "antisymmetric-quasi-transitive",
                    },
                },
                "second": {"kind": "mosp", "params": {"dimension": 1}},
            },
        },
        "declared_properties": ["well-posed", "history-free", "weakly-independent"],
    }


def test_solve_product_of_a_quasi_transitive_table_and_mosp(tmp_path):
    doc = quasi_transitive_product_doc()
    path = write_doc(tmp_path, doc)
    r = run_cli("solve", path)
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["algorithm"] == "bellman"
    inst = posp.parse_instance(doc)
    assert inst.space.relation_kind == posp.QUASI_TRANSITIVE
    oracle = posp.algorithms.brute_force_frontier(inst, 8)
    got = [sorted(json.dumps(e["weight"]) for e in fr["entries"]) for fr in out["frontiers"]]
    want = [
        sorted(json.dumps(inst.space.render_weight(w)) for w in oracle.weights(v))
        for v in range(inst.vertex_count)
    ]
    assert got == want
    assert len(got[2]) == 2  # ("0", 10) via vertex 1 and ("2", 1) directly


# ---------------------------------------------------------------------------
# check.


def test_check_exit_zero_when_declared_properties_survive():
    r = run_cli("check", fixture_file("subset_catchup.json"), "--depth", "5")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["violated_declared"] == []
    names = [rep["condition"] for rep in doc["reports"]]
    assert "linear-extension" in names  # the space ships a key
    by_name = {rep["condition"]: rep for rep in doc["reports"]}
    assert by_name["independent"]["verdict"] == "violated"
    assert by_name["weakly-independent"]["verdict"] == "holds-to-depth"


def test_check_flags_a_refuted_declaration_through_the_closure(tmp_path):
    doc = json.loads(posp.fixture_path("dependent_extension.json").read_text())
    doc["declared_properties"] = ["independent"]
    r = run_cli("check", write_doc(tmp_path, doc), "--depth", "5")
    assert r.returncode == 5
    out = json.loads(r.stdout)
    # Declaring the strict property also stakes the weak one via implication.
    assert out["violated_declared"] == ["independent", "weakly-independent"]


def test_check_condition_filter_and_unknown_names(tmp_path):
    r = run_cli(
        "check", fixture_file("improving_loop.json"), "--conditions", "history-free"
    )
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert [rep["condition"] for rep in doc["reports"]] == ["history-free"]
    r = run_cli("check", fixture_file("improving_loop.json"), "--conditions", "nope")
    assert r.returncode == 2


def test_check_reports_improving_loop_violations_without_exit_five():
    # The violated conditions are not the declared ones, so the audit passes.
    r = run_cli("check", fixture_file("improving_loop.json"), "--depth", "6")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    by_name = {rep["condition"]: rep for rep in doc["reports"]}
    assert by_name["weakly-subpath-optimal"]["verdict"] == "violated"
    assert by_name["cycle-non-decreasing"]["verdict"] == "violated"
    assert by_name["linear-extension"]["verdict"] == "violated"
    assert by_name["weakly-independent"]["verdict"] == "holds-to-depth"


def test_check_and_oracle_reject_a_negative_depth(capsys):
    path = fixture_file("improving_loop.json")
    assert cli.main(["check", path, "--depth", "-2"]) == 2
    assert cli.main(["oracle", path, "--max-len", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--depth must be non-negative" in captured.err
    assert "--max-len must be non-negative" in captured.err
    assert cli.main(["check", path, "--depth", "0"]) == 0
    assert cli.main(["oracle", path, "--max-len", "0"]) == 0


def test_consecutive_main_calls_share_no_options(capsys):
    path = fixture_file("vector_demo.json")
    assert cli.main(["solve", path, "--variant", "max", "--force"]) == 0
    assert json.loads(capsys.readouterr().out)["variant"] == "max"
    assert cli.main(["solve", path]) == 0
    assert json.loads(capsys.readouterr().out)["variant"] == "min"
    cli.main(["check", path, "--conditions", "independent"])
    assert len(json.loads(capsys.readouterr().out)["reports"]) == 1
    cli.main(["check", path])
    names = [r["condition"] for r in json.loads(capsys.readouterr().out)["reports"]]
    assert names == [*cli._DEFAULT_CONDITIONS, "linear-extension"]


# Every condition as a standalone library call, which enumerates on its own.
STANDALONE_CHECKS = {
    "history-free": lambda inst, d: conditions.check_history_free(inst, d),
    "independent": lambda inst, d: conditions.check_independence(inst, d, mode="strict"),
    "weakly-independent": lambda inst, d: conditions.check_independence(inst, d, mode="weak"),
    **{
        kind: lambda inst, d, kind=kind: conditions.check_monotonicity(inst, d, kind=kind)
        for kind in conditions.MONOTONICITY_KINDS
    },
    "subpath-optimal": lambda inst, d: conditions.check_subpath_optimality(inst, d, mode="strong"),
    "weakly-subpath-optimal": lambda inst, d: conditions.check_subpath_optimality(
        inst, d, mode="weak"
    ),
    "linear-extension": lambda inst, d: conditions.check_linear_extension(inst, d),
}

CHECK_INSTANCES = [
    (name, lambda name=name: posp.parse_instance(fixture_doc(name))) for name in ALL_FIXTURES
] + [
    (f"{structure}-{seed}", lambda structure=structure, seed=seed: random_instance(structure, seed))
    for structure in MIN_STRUCTURES + MAX_STRUCTURES
    for seed in range(5)
]


@pytest.mark.parametrize("name, make", CHECK_INSTANCES, ids=[n for n, _ in CHECK_INSTANCES])
def test_check_reports_equal_standalone_checker_calls(name, make, monkeypatch, capsys):
    # cmd_check shares one path sample among its checkers; every report must
    # equal the one the checker gives when it enumerates on its own.  The
    # default list asks for the full depth first; the list of every condition
    # below asks for depth - 1 first and then deepens the sample.
    instance = make()
    monkeypatch.setattr(cli, "_load_document", lambda path: None)
    monkeypatch.setattr(cli, "parse_instance", lambda doc: instance)
    every = list(conditions.MONOTONICITY_KINDS)
    if instance.space.leo_key is not None:
        every.append("linear-extension")
    every += ["history-free", "independent", "weakly-independent"]
    every += ["subpath-optimal", "weakly-subpath-optimal"]
    for depth in (0, 1, 2, 6):
        for selection in ([], ["--conditions", ",".join(every)]):
            assert cli.main(["check", name, "--depth", str(depth), *selection]) in (0, 5)
            emitted = json.loads(capsys.readouterr().out)["reports"]
            standalone = [
                STANDALONE_CHECKS[r["condition"]](instance, depth).to_dict() for r in emitted
            ]
            assert emitted == json.loads(json.dumps(standalone, default=cli._json_default))


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_perfbench("tracer")


CHECKERS = (
    "check_history_free",
    "check_independence",
    "check_monotonicity",
    "check_subpath_optimality",
    "check_linear_extension",
)


@pytest.mark.parametrize(
    "selection, checkers",
    [([], CHECKERS), (["--conditions", "arc-increasing"], ("check_monotonicity",))],
)
def test_traced_check_enumerates_once(selection, checkers, capsys):
    # The benchmark's tracer wraps these names; each must still exist.
    for name in ("build_parser", *CHECKERS):
        assert callable(getattr(cli, name)), name
    assert callable(conditions.enumerate_source_paths)
    assert callable(conditions.leo_pick)
    tracing = load_tracer()
    tracer = tracing.Tracer()
    tracer.install(posp)
    try:
        frame = tracer.open("op")
        assert cli.main(["check", fixture_file("subset_catchup.json"), *selection]) == 0
        tracer.close(frame)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = tracing.layer_metrics(tracer.agg)
    assert metrics["algorithms.enumerate.calls"] == 1
    assert metrics["algorithms.enumerate.nodes"] > 0
    for checker in CHECKERS:
        assert (metrics[f"conditions.{checker}_s"] > 0) == (checker in checkers), checker
    if "check_linear_extension" in checkers:
        assert metrics["conditions.leo_picks"] > 0


@pytest.mark.parametrize(
    "fixture, updates, raw_updates, comparisons",
    [
        ("evsp_demo.json", 20, 0, 180),
        ("subset_catchup.json", 6, 0, 8),
        ("nonsimple_witness.json", 18, 11, 8),
    ],
)
def test_check_evaluates_each_update_once(
    fixture, updates, raw_updates, comparisons, monkeypatch, capsys
):
    # The parsed space is wrapped the way the benchmark's tracer wraps it, so
    # these are the calls `weights.update_calls` and `compare_calls` count.
    # Only check_history_free calls `update` directly; every other call comes
    # through the path sample's memo, once per distinct (weight, arc).
    totals = {"update": 0, "raw": 0, "compare": 0}
    memoized: dict = {}
    parse = cli.parse_instance

    def counting_parse(doc):
        instance = parse(doc)
        space = instance.space

        def update(w, arc):
            totals["update"] += 1
            if sys._getframe(1).f_code.co_name == "check_history_free":
                totals["raw"] += 1
            else:
                memoized[w, arc.index] = memoized.get((w, arc.index), 0) + 1
            return space.update(w, arc)

        def comparator(a, b):
            totals["compare"] += 1
            return space.comparator(a, b)

        counted = dataclasses.replace(space, update=update, comparator=comparator)
        return dataclasses.replace(instance, space=counted)

    monkeypatch.setattr(cli, "parse_instance", counting_parse)
    assert cli.main(["check", fixture_file(fixture)]) == 0
    capsys.readouterr()
    assert set(memoized.values()) == {1}
    assert totals == {"update": updates, "raw": raw_updates, "compare": comparisons}


def traced(solves):
    """`solves(tracer)` run as one traced operation: its result and the metrics."""
    tracing = load_tracer()
    tracer = tracing.Tracer()
    tracer.install(posp)
    try:
        frame = tracer.open("op")
        result = solves(tracer)
        tracer.close(frame)
    finally:
        tracer.uninstall()
    return result, tracing.layer_metrics(tracer.agg)


def test_traced_comparisons_equal_the_solver_counts():
    # The solvers count their own comparisons; the tracer counts every call
    # of the comparator it wraps.  The two must agree.
    (bellman, mda), metrics = traced(
        lambda _tracer: (
            posp.algorithms.bellman_solve(posp.generators.kn_instance(3, 5)),
            cli.mda_solve(cli.parse_instance(fixture_doc("evsp_demo.json"))),
        )
    )
    assert metrics["algorithms.bellman.comparisons"] == bellman.stats.comparisons == 2750
    assert metrics["algorithms.mda.comparisons"] == mda.stats.comparisons == 15
    # One heap: every queue push is an insertion, nothing is parked or stale.
    assert metrics["algorithms.mda.heap_pushes"] == mda.stats.insertions == 10
    assert metrics["algorithms.mda.parked_pushes"] == metrics["algorithms.mda.stale_pops"] == 0

    # Max mode, where equal weights are kept; the quasi-transitive product
    # re-derives paths, which the merge rejects by path identity.
    def max_mode_solves(tracer):
        inst = random_instance("mosp-max", 0)
        inst = dataclasses.replace(inst, space=tracer.traced_space(inst.space))
        product = cli.parse_instance(quasi_transitive_product_doc())
        bellman = [cli.bellman_solve(i, SolveMode.MAX) for i in (inst, product)]
        return bellman, cli.mda_solve(inst, SolveMode.MAX)

    (bellman, mda), metrics = traced(max_mode_solves)
    assert metrics["algorithms.bellman.comparisons"] == sum(r.stats.comparisons for r in bellman)
    assert all(r.stats.comparisons > 0 for r in bellman)
    assert metrics["algorithms.mda.comparisons"] == mda.stats.comparisons > 0


# ---------------------------------------------------------------------------
# Integers stay integers: the kinds whose updates never divide keep int data
# as int, which must change no result.

RULE_FIXTURES = {
    "mosp": "vector_demo.json",
    "bottleneck": "bottleneck_demo.json",
    "interval": "interval_demo.json",
    "wcspr": "wcspr_demo.json",
    "tourist": "tourist_demo.json",
    "product": "product_demo.json",
}
# Params that hold weight data, not sizes, categories or set elements.
NUMBER_PARAMS = {"initial_bottleneck", "alpha", "beta", "limit", "budget", "values"}


def seeded_docs(kind, seeds=range(5)):
    gen = load_perfbench("gen")
    return [
        gen.structure_doc(kind, variant, random.Random(f"ints:{kind}:{variant}:{seed}"), f"{kind}-{seed}")
        for variant in gen.VARIANTS
        for seed in seeds
    ]


def spelled_as_strings(value):
    """`value` with every int written as a string; replenish flags are kept."""
    if isinstance(value, dict):
        return {k: v if k == "replenish" else spelled_as_strings(v) for k, v in value.items()}
    if isinstance(value, list):
        return [spelled_as_strings(v) for v in value]
    return str(value) if type(value) is int else value


def with_string_numbers(doc):
    """A copy of `doc` whose weight data is written as strings such as "5"."""
    doc = json.loads(json.dumps(doc))
    ws = doc["weight_space"]
    parts = [(ws, None)]
    if ws["kind"] == "product":
        parts = [(ws["params"]["first"], "first"), (ws["params"]["second"], "second")]
    for part, field in parts:
        if part["kind"] not in RULE_FIXTURES:
            continue
        params = part.get("params", {})
        for name in NUMBER_PARAMS & params.keys():
            params[name] = spelled_as_strings(params[name])
        for arc in doc["graph"]["arcs"]:
            holder, key = (arc, "payload") if field is None else (arc["payload"], field)
            holder[key] = spelled_as_strings(holder[key])
    return doc


def numbers(weight):
    """The numeric components of a weight; set elements are no numbers."""
    if isinstance(weight, tuple):
        for x in weight:
            yield from numbers(x)
    elif not isinstance(weight, (frozenset, str)):
        yield weight


def solve_outcome(solve, instance, mode):
    try:
        result = solve(instance, mode)
    except LeoMonotonicityError as exc:
        return ("leo-error", str(exc), exc.witness), []
    frontiers = [
        [(lab.weight, reconstruct_path(lab), lab.length) for lab in fr] for fr in result.frontiers
    ]
    outcome = (result.status, result.stats, result.iteration_sizes, frontiers)
    return outcome, [lab.weight for fr in result.frontiers for lab in fr]


@pytest.mark.parametrize("kind", list(RULE_FIXTURES))
def test_int_and_fraction_data_solve_alike(kind):
    docs = [fixture_doc(RULE_FIXTURES[kind]), *seeded_docs(kind)]
    for doc in docs:
        as_is = cli.parse_instance(doc)
        spelled = cli.parse_instance(with_string_numbers(doc))
        solvers = [bellman_solve] + ([mda_solve] if as_is.space.leo_key is not None else [])
        for solve in solvers:
            for mode in SolveMode:
                got, int_weights = solve_outcome(solve, as_is, mode)
                want, fraction_weights = solve_outcome(solve, spelled, mode)
                assert got == want, (doc["name"], solve.__name__, mode)
                assert all(type(x) is int for w in int_weights for x in numbers(w)), doc["name"]
                # The spelled copy really reads Fractions (its zero start stays int).
                assert any(type(x) is Fraction for w in fraction_weights for x in numbers(w))


FLOAT_PROBES = [
    # Departures land between integer breakpoints: 1 + 1/3 must stay exact.
    minimal_doc(
        graph={
            "vertex_count": 3,
            "arcs": [
                {"tail": 0, "head": 1, "payload": {"breakpoints": [[0, 1]]}},
                {"tail": 1, "head": 2, "payload": {"breakpoints": [[0, 1], [3, 2]]}},
                {"tail": 2, "head": 1, "payload": {"breakpoints": [[0, 1], [7, 3]]}},
            ],
        },
        weight_space={"kind": "fifo_time", "params": {"start_time": 0}},
    ),
    # A charging curve and road data written as integers.
    minimal_doc(
        graph={
            "vertex_count": 3,
            "arcs": [
                {"tail": 0, "head": 1, "payload": {"time": 1, "delta": 0}},
                {"tail": 1, "head": 1},
                {"tail": 1, "head": 2, "payload": {"time": 3, "delta": 1}},
            ],
        },
        weight_space={
            "kind": "evsp",
            "params": {"initial_soc": 1, "epsilon": 1, "stations": {"1": [[0, 0], [3, 1]]}},
        },
    ),
]


def test_no_weight_is_ever_a_float():
    gen = load_perfbench("gen")
    docs = [fixture_doc(name) for name in ALL_FIXTURES] + FLOAT_PROBES
    docs += [doc for kind in gen.KINDS for doc in seeded_docs(kind)]
    for doc in docs:
        by_vertex, _nodes = enumerate_source_paths(cli.parse_instance(doc), 4)
        for found in by_vertex:
            for _path, w in found:
                assert not any(isinstance(x, float) for x in numbers(w)), (doc["name"], w)


# ---------------------------------------------------------------------------
# oracle.


def test_oracle_agrees_with_solve_on_weights():
    s = json.loads(run_cli("solve", fixture_file("bottleneck_demo.json")).stdout)
    o = json.loads(
        run_cli("oracle", fixture_file("bottleneck_demo.json"), "--max-len", "4").stdout
    )
    for fs, fo in zip(s["frontiers"], o["frontiers"]):
        assert [e["weight"] for e in fs["entries"]] == [e["weight"] for e in fo["entries"]]


def test_oracle_budget_exhaustion_exits_two(tmp_path):
    doc = json.loads(posp.fixture_path("vector_demo.json").read_text())
    path = write_doc(tmp_path, doc)
    r = run_cli("oracle", path, "--max-len", "8", env_extra={"POSP_BUDGET": "3"})
    assert r.returncode == 2
    assert "budget" in r.stderr.lower()


# ---------------------------------------------------------------------------
# recommend.


def test_recommend_lists_variant_rows_with_satisfaction():
    r = run_cli("recommend", fixture_file("improving_loop.json"))
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert len(doc["rows"]) == 14  # the min-variant rows
    sat = [row["row"] for row in doc["rows"] if row["satisfied"]]
    assert sat == [1]
    assert doc["permitted"] == {"bellman": True, "mda": False}
    assert doc["selected"] == "bellman"


def test_recommend_max_variant_for_tourist():
    r = run_cli("recommend", fixture_file("tourist_demo.json"), "--variant", "max")
    doc = json.loads(r.stdout)
    sat = [row["row"] for row in doc["rows"] if row["satisfied"]]
    assert 20 in sat
    assert doc["permitted"]["mda"] is True
    assert doc["permitted"]["bellman"] is False
    assert doc["selected"] == "mda"


# ---------------------------------------------------------------------------
# bench.


def test_bench_kn_iterations_match_the_prediction():
    r = run_cli("bench", "--suite", "kn-worst-case", "--n", "4", "--m", "3")
    assert r.returncode == 0
    lines = [json.loads(line) for line in r.stdout.splitlines()]
    iteration_records = [l for l in lines if l["record"] == "iteration"]
    assert [l["nontrivial"] for l in iteration_records[:2]] == [4, 20]
    assert all(l["matches_prediction"] for l in iteration_records[:2])
    final = lines[-1]
    assert final["record"] == "final"
    assert final["sizes"] == [1, 1, 1, 1]
    assert "wall_time_s" in r.stderr


def test_bench_random_cross_checks_the_solvers():
    r = run_cli(
        "bench", "--suite", "random", "--structures", "mosp,interval", "--count", "2"
    )
    assert r.returncode == 0
    lines = [json.loads(line) for line in r.stdout.splitlines()]
    assert len(lines) == 4
    for line in lines:
        assert line["bellman"]["status"] == "converged"
        if line["mda"] is not None:
            assert line["agree"] is True


def test_bench_rejects_an_unknown_structure(capsys):
    assert cli.main(["bench", "--suite", "random", "--structures", "mosp,foo"]) == 2
    captured = capsys.readouterr()
    assert "unknown structures: foo (available: " in captured.err
    assert all(s in captured.err for s in MIN_STRUCTURES + MAX_STRUCTURES)
    assert captured.out == ""


# ---------------------------------------------------------------------------
# Determinism: identical invocations produce identical bytes.


@pytest.mark.parametrize(
    "args",
    [
        ("solve", "vector_demo.json"),
        ("solve", "evsp_demo.json", "--variant", "max"),
        ("check", "improving_loop.json"),
        ("oracle", "wcspr_demo.json", "--max-len", "5"),
        ("recommend", "subset_catchup.json"),
    ],
)
def test_repeat_runs_are_byte_identical(args):
    cmd = [args[0], fixture_file(args[1]), *args[2:]]
    first = run_cli(*cmd)
    second = run_cli(*cmd)
    assert first.returncode == second.returncode
    assert first.stdout == second.stdout


def test_bench_stdout_is_byte_identical_across_runs():
    cmd = ("bench", "--suite", "random", "--structures", "subset", "--count", "2")
    assert run_cli(*cmd).stdout == run_cli(*cmd).stdout
    kn = ("bench", "--suite", "kn-worst-case", "--n", "3", "--m", "3")
    assert run_cli(*kn).stdout == run_cli(*kn).stdout


# ---------------------------------------------------------------------------
# The README's examples.

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_document_example_parses_and_names_every_kind():
    section = README.split("### Instance document shape", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert posp.parse_instance(json.loads(example)).vertex_count == 4
    kinds = section.split("Weight-space kinds:", 1)[1].split(".", 1)[0]
    assert tuple(re.findall(r"`([^`]+)`", kinds)) == cli.WEIGHT_SPACE_KINDS


def test_readme_library_example_prints_what_it_shows(capsys):
    example = README.split("```python\n", 1)[1].split("```", 1)[0]
    exec(example, {})
    shown = [line[2:] for line in example.splitlines() if line.startswith("# ")]
    assert capsys.readouterr().out.splitlines() == shown
