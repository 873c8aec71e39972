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
from posp.weights import MAX_PRODUCT_DEPTH, SPACE_READERS


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
    # `True == 1` and the exact reading of 1.0 equal 1, but only the integer is the version.
    for version in (2, True, Fraction(1)):
        with pytest.raises(posp.ValidationError, match="format version"):
            posp.parse_instance(minimal_doc(format_version=version))


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


def with_first_update(entry):
    doc = fixture_doc("dependent_extension.json")
    doc["weight_space"]["params"]["updates"][0] = entry
    return doc


MALFORMED = {
    "format-version-1.0": minimal_doc(format_version=1.0),
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
    "table-entries-list": with_first_update({"tail": 0, "head": 1, "entries": [["0", "1"]]}),
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


# ---------------------------------------------------------------------------
# Result rendering.


def reference_entry_docs(space, triples):
    """What `_entry_docs` renders: a stable sort on (linear-extension key, length, path)."""
    render = space.render or repr
    if space.leo_key is not None:
        key = lambda t: (space.leo_key(t[0]), t[2], t[1])  # noqa: E731
    else:
        key = lambda t: (json.dumps(render(t[0]), sort_keys=True, default=cli._json_default), t[2], t[1])  # noqa: E731
    return [
        {
            "weight": render(w),
            "path": list(path),
            "length": length,
            "feasible": space.infeasible is None or not space.infeasible(w),
        }
        for w, path, length in sorted(triples, key=key)
    ]


def assert_entry_docs_match_the_reference(instance, mode, seed):
    """All vertices' labels in one shuffled list, with repeats: ties in every key column."""
    result = bellman_solve(instance, mode)
    triples = [(lab.weight, reconstruct_path(lab), lab.length) for f in result.frontiers for lab in f]
    random.Random(seed).shuffle(triples)
    triples += triples[: len(triples) // 3]
    expected = reference_entry_docs(instance.space, triples)
    actual = cli._entry_docs(instance.space, triples)
    assert json.dumps(actual, default=cli._json_default) == json.dumps(expected, default=cli._json_default)
    return expected


@pytest.mark.parametrize("structure", MIN_STRUCTURES + MAX_STRUCTURES)
def test_entry_docs_equal_the_stable_sort_reference(structure):
    ties = 0
    for seed in range(4):
        instance = random_instance(structure, seed)
        for mode in SolveMode:
            docs = assert_entry_docs_match_the_reference(instance, mode, seed)
            weights = [json.dumps(d["weight"], default=cli._json_default) for d in docs]
            ties += len(weights) - len(set(weights))
    assert ties


def test_entry_docs_without_a_linear_extension_sort_by_rendered_weight():
    instance = posp.generators.kn_instance(3, 3)
    assert instance.space.leo_key is None
    assert_entry_docs_match_the_reference(instance, SolveMode.MIN, 0)


def test_entry_docs_render_fraction_mosp_costs_as_ratios():
    costs = {(0, 1): ["1/2", 1], (1, 2): [1, "0.25"], (0, 2): [2, 1]}
    instance = posp.build_instance(3, list(costs), 0, posp.weights.mosp_space(2, costs))
    docs = assert_entry_docs_match_the_reference(instance, SolveMode.MAX, 0)
    assert {"weight": ["3/2", "5/4"], "path": [0, 1, 2], "length": 2, "feasible": True} in docs


def test_a_document_that_is_not_utf8_exits_two_without_a_traceback(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'\xff{"a": 1}')
    r = run_cli("solve", str(path))
    assert r.returncode == 2
    assert r.stderr.startswith(f"validation error: {path} is not UTF-8: ")
    assert "Traceback" not in r.stderr
    assert r.stdout == ""


def with_unused_field(tmp_path, literal):
    """bottleneck_demo.json with one more field, "x", holding `literal` as written."""
    text = posp.fixture_path("bottleneck_demo.json").read_text().rstrip()
    path = tmp_path / "unused.json"
    path.write_text(f'{text[:-1]}, "x": {literal}}}')
    return path


@pytest.mark.parametrize("literal", ["1" * 4400, "0." + "0" * 4999 + "1"], ids=["integer", "decimal"])
def test_a_number_past_the_digit_limit_exits_two_naming_the_file(tmp_path, literal):
    path = with_unused_field(tmp_path, literal)
    r = run_cli("solve", str(path))
    assert r.returncode == 2
    assert r.stderr.startswith(f"validation error: {path} holds a number that cannot be read: ")
    assert "4300 digits" in r.stderr
    assert "Traceback" not in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("command", [("solve", "--force"), ("oracle",)], ids=["solve", "oracle"])
def test_a_result_number_past_the_digit_limit_exits_two_with_nothing_on_stdout(tmp_path, command):
    # Each cost can be read; their sum, 10^4300 * 2 - 2, cannot be written.
    nines = int("9" * 4300)
    doc = {
        "format_version": 1,
        "graph": {"vertex_count": 3, "arcs": [{"tail": t, "head": t + 1, "payload": [nines]} for t in (0, 1)]},
        "source": 0,
        "weight_space": {"kind": "mosp", "params": {"dimension": 1}},
    }
    r = run_cli(command[0], write_doc(tmp_path, doc), *command[1:])
    assert r.returncode == 2
    assert r.stderr.startswith("validation error: the result holds a number that cannot be written: ")
    assert "4300 digits" in r.stderr
    assert r.stderr.count("\n") == 1
    assert r.stdout == ""


def test_a_witness_number_past_the_digit_limit_still_exits_five(tmp_path):
    # A replenishment loop runs MDA's extraction order backwards at a cost
    # of 2 * (10^4300 - 1), which the witness cannot write.
    nines = int("9" * 4300)
    arcs = [(0, 2, nines, 4, False), (2, 1, nines, 5, False), (1, 1, 0, 2, True)]
    doc = {
        "format_version": 1,
        "graph": {
            "vertex_count": 3,
            "arcs": [
                {"tail": t, "head": h, "payload": {"w": w, "r": r, "replenish": rep}} for t, h, w, r, rep in arcs
            ],
        },
        "source": 0,
        "weight_space": {"kind": "wcspr", "params": {"limit": 20}},
    }
    r = run_cli("solve", write_doc(tmp_path, doc), "--algorithm", "mda", "--force")
    assert r.returncode == 5
    message, witness = r.stderr.splitlines()
    assert message == "monotonicity violation: extraction order ran backwards under the linear extension"
    assert witness.startswith("the witness holds a number that cannot be written: ")
    assert r.stdout == ""


# Read exactly, this exponent would take minutes: every further exponent
# digit multiplies the time by about 30, and seven digits take seconds.
HUGE = "1e100000000"


def test_a_huge_decimal_exponent_in_a_json_number_exits_two_at_once(tmp_path):
    path = with_unused_field(tmp_path, HUGE)
    r = run_cli("solve", str(path), timeout=30)
    assert r.returncode == 2
    assert r.stderr == (
        f"validation error: {path} holds a number that cannot be read: "
        f"exponent past {posp.weights.MAX_EXPONENT} in magnitude\n"
    )
    assert r.stdout == ""


def test_a_huge_decimal_exponent_in_a_string_exits_two_at_once(tmp_path):
    doc = json.loads(posp.fixture_path("bottleneck_demo.json").read_text())
    doc["graph"]["arcs"][0]["payload"]["additive"] = [HUGE]
    r = run_cli("solve", write_doc(tmp_path, doc), timeout=30)
    assert r.returncode == 2
    assert r.stderr == (
        f"validation error: graph.arcs[0].payload.additive: cannot parse rational {HUGE!r}: "
        f"exponent past {posp.weights.MAX_EXPONENT} in magnitude\n"
    )
    assert r.stdout == ""


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


@pytest.mark.parametrize(
    "side, field", [("first", "dimension"), ("second", "ground_set_size")]
)
def test_errors_inside_a_product_part_name_the_part(side, field, tmp_path, capsys):
    doc = fixture_doc("product_demo.json")
    doc["weight_space"]["params"][side]["params"] = {}
    assert cli.main(["solve", write_doc(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == (
        f"validation error: weight_space.params.{side}.params.{field}: missing required field\n"
    )


def test_errors_inside_a_nested_product_part_name_the_whole_path(tmp_path, capsys):
    doc = nested_product_doc(2)
    doc["weight_space"]["params"]["first"]["params"]["first"]["params"] = {"dimension": "two"}
    assert cli.main(["solve", write_doc(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == (
        "validation error: weight_space.params.first.params.first.params.dimension: "
        "expected an integer, got 'two'\n"
    )
    inner = doc["weight_space"]["params"]["first"]["params"]
    inner["first"]["params"] = {"dimension": 1}
    inner["second"]["kind"] = "vector"
    assert cli.main(["solve", write_doc(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.startswith(
        "validation error: weight_space.params.first.params.second.kind: unknown weight space kind 'vector'"
    )


# (fixture, arc index, payload, the error's path and message)
PAYLOAD_RANGE_ERRORS = [
    ("interval_demo.json", 0, {"c": 1, "w": -1}, "graph.arcs[0].payload.w: radius must be nonnegative"),
    (
        "interval_demo.json",
        3,
        {"c": 1, "w": 2},
        "graph.arcs[3].payload: center must be at least the radius (got c=1, w=2)",
    ),
    ("wcspr_demo.json", 2, {"w": -1, "r": 1}, "graph.arcs[2].payload: cost and resource must be nonnegative"),
    ("wcspr_demo.json", 0, {"w": 1, "r": -1}, "graph.arcs[0].payload: cost and resource must be nonnegative"),
    ("wcspr_demo.json", 5, {"w": 1, "r": 11}, "graph.arcs[5].payload.r: resource 11 exceeds the limit 10"),
    ("tourist_demo.json", 1, {"length": -2}, "graph.arcs[1].payload.length: length must be nonnegative"),
    ("subset_catchup.json", 4, [1, 9], "graph.arcs[4].payload: set contains elements outside 1..3: [9]"),
    # Arc 1 is a station loop without a payload; arc 3 is still the fourth.
    ("evsp_demo.json", 3, {"time": 0, "delta": 0}, "graph.arcs[3].payload.time: travel time must be positive"),
    # A payload given as an object of one field keeps the field in its path.
    ("fifo_demo.json", 0, {"breakpoints": [[0, -1]]}, "graph.arcs[0].payload.breakpoints[0]: negative travel time -1"),
    (
        "tourist_demo.json",
        0,
        {"length": "x"},
        "graph.arcs[0].payload.length: cannot parse rational 'x': Invalid literal for Fraction: 'x'",
    ),
    ("tourist_demo.json", 1, -2, "graph.arcs[1].payload: length must be nonnegative"),
    # Arc 1 is the loop at station 1, which charges and reads no payload.
    ("evsp_demo.json", 1, {"time": 1, "delta": 0.9}, "graph.arcs[1].payload: a station's loop takes no payload"),
]


@pytest.mark.parametrize("fixture, index, payload, error", PAYLOAD_RANGE_ERRORS)
def test_payload_range_errors_name_the_arc_payload(fixture, index, payload, error, tmp_path, capsys):
    doc = fixture_doc(fixture)
    doc["graph"]["arcs"][index]["payload"] = payload
    assert cli.main(["solve", write_doc(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"validation error: {error}\n"
    assert captured.out == ""


def as_first_part(doc):
    """`doc` with its weight space as the first part of a product with a `mosp` second part."""
    doc["weight_space"] = {
        "kind": "product",
        "params": {"first": doc["weight_space"], "second": {"kind": "mosp", "params": {"dimension": 1}}},
    }
    for arc in doc["graph"]["arcs"]:
        arc["payload"] = {"first": arc.get("payload"), "second": [1]}
    return doc


CURVE = [[0, 0], [1, 0.6], [2, 1]]

TOURIST_ON_THREE = {
    "kind": "tourist",
    "params": {"budget": 5, "values": [1, 2, 3], "categories": [0, 0, 1], "category_count": 2},
}

# A parameter error names the parameter's place under ``weight_space.params``.
# Any error quotes a string value as Python does and any other value as JSON.
PARAM_ERRORS = {
    "source-decimal": (minimal_doc(source=1.5), "source: expected an integer, got 1.5"),
    "vertex-count-decimal": (
        with_vertex_count("vector_demo.json", 2.0),
        "graph.vertex_count: expected an integer, got 2.0",
    ),
    # A decimal inside a list or an object reads as it does at top level.
    "source-decimal-in-list": (minimal_doc(source=[1.5]), "source: expected an integer, got [1.5]"),
    "vertex-count-decimal-in-object": (
        with_vertex_count("vector_demo.json", {"a": [1.0]}),
        'graph.vertex_count: expected an integer, got {"a": [1.0]}',
    ),
    "tail-null": (
        minimal_doc(graph={"vertex_count": 2, "arcs": [{"tail": None, "head": 1, "payload": [1]}]}),
        "graph.arcs[0].tail: expected an integer, got null",
    ),
    "format-version-true": (
        minimal_doc(format_version=True),
        "format_version: unsupported format version true",
    ),
    "format-version-1.0": (
        minimal_doc(format_version=1.0),
        "format_version: unsupported format version 1.0",
    ),
    "mosp-payload-true": (
        with_arc_payload("vector_demo.json", [True, 1]),
        "graph.arcs[0].payload: expected a number, got true",
    ),
    "mosp-payload-null": (
        with_arc_payload("vector_demo.json", [None, 1]),
        "graph.arcs[0].payload: expected a number, got null",
    ),
    "wcspr-replenish-decimal": (
        with_arc_payload("wcspr_demo.json", {"w": 1, "r": 6, "replenish": 0.5}),
        "graph.arcs[0].payload.replenish: expected true or false, got 0.5",
    ),
    "bottleneck-initial": (
        with_params("bottleneck_demo.json", initial_bottleneck=["x"]),
        "weight_space.params.initial_bottleneck: cannot parse rational 'x': Invalid literal for Fraction: 'x'",
    ),
    "bottleneck-negative-additive": (
        with_params("bottleneck_demo.json", additive_dimension=-1),
        "weight_space.params.additive_dimension: dimension must be nonnegative",
    ),
    "bottleneck-negative-bottleneck": (
        with_params("bottleneck_demo.json", bottleneck_dimension=-1),
        "weight_space.params.bottleneck_dimension: dimension must be nonnegative",
    ),
    "bottleneck-negative-without-arcs": (
        minimal_doc(
            graph={"vertex_count": 2, "arcs": []},
            weight_space={
                "kind": "bottleneck",
                "params": {"additive_dimension": -1, "bottleneck_dimension": -2},
            },
        ),
        "weight_space.params.additive_dimension: dimension must be nonnegative",
    ),
    "tourist-value": (
        with_params("tourist_demo.json", values=[3, "x", 2, 7]),
        "weight_space.params.values[1]: cannot parse rational 'x': Invalid literal for Fraction: 'x'",
    ),
    "tourist-category": (
        with_params("tourist_demo.json", categories=[0, 0, "1", 1]),
        "weight_space.params.categories[2]: expected an integer, got '1'",
    ),
    "evsp-station-point": (
        with_params("evsp_demo.json", stations={"1": [[0, 2], [1, 0.6], [2, 1]]}),
        "weight_space.params.stations.1[0]: state of charge 2 outside [0, 1]",
    ),
    "evsp-initial-soc": (
        with_params("evsp_demo.json", initial_soc=2),
        "weight_space.params.initial_soc: initial state of charge must lie in [0, 1]",
    ),
    "table-initial-in-a-product": (
        as_first_part(with_params("dependent_extension.json", initial="9")),
        "weight_space.params.first.params.initial: initial weight '9' not in weight set",
    ),
    "table-default": (
        with_first_update({"tail": 0, "head": 1, "default": "z"}),
        "weight_space.params.updates: default result 'z' unknown",
    ),
    "table-entries-false": (
        with_first_update({"tail": 0, "head": 1, "entries": False, "default": "1"}),
        "weight_space.params.updates[0].entries: expected an object of weight names",
    ),
    "table-relation-kind": (
        with_params("dependent_extension.json", relation_kind="total"),
        "weight_space.params.relation_kind: expected 'partial-order' or 'antisymmetric-quasi-transitive', got 'total'",
    ),
    "evsp-station-key": (
        with_params("evsp_demo.json", stations={"x": [[0, 0], [1, 0.6], [2, 1]]}),
        "weight_space.params.stations: station key 'x' is not a vertex",
    ),
    "evsp-station-key-repeated": (
        with_params("evsp_demo.json", stations={"1": CURVE, "01": CURVE}),
        "weight_space.params.stations.01: station key '01' repeats vertex 1",
    ),
    "evsp-station-key-too-large": (
        with_params("evsp_demo.json", stations={"1": CURVE, "99": CURVE}),
        "weight_space.params.stations.99: station key '99' names no vertex with a loop arc",
    ),
    "evsp-station-key-negative": (
        with_params("evsp_demo.json", stations={"-1": CURVE}),
        "weight_space.params.stations.-1: station key '-1' names no vertex with a loop arc",
    ),
    "evsp-station-without-loop": (
        with_params("evsp_demo.json", stations={"1": CURVE, "3": CURVE}),
        "weight_space.params.stations.3: station key '3' names no vertex with a loop arc",
    ),
    "evsp-epsilon": (
        with_params("evsp_demo.json", epsilon=0),
        "weight_space.params.epsilon: epsilon must be positive",
    ),
    "fifo-start-time": (
        with_params("fifo_demo.json", start_time=-1),
        "weight_space.params.start_time: start time must be nonnegative",
    ),
    "tourist-category-count": (
        with_params("tourist_demo.json", category_count=0),
        "weight_space.params.category_count: need at least one category",
    ),
    "tourist-budget": (
        with_params("tourist_demo.json", budget=-1),
        "weight_space.params.budget: budget must be nonnegative",
    ),
    "tourist-negative-value": (
        with_params("tourist_demo.json", values=[3, -5, 2, 7]),
        "weight_space.params.values[1]: vertex values must be nonnegative",
    ),
    "tourist-values-per-vertex": (
        with_params("tourist_demo.json", values=[3, 5, 2, 7, 1, 1], categories=[0, 0, 1, 1, 0, 0]),
        "weight_space.params.values: expected one entry per vertex (4), got 6",
    ),
    "tourist-categories-per-vertex": (
        with_params("tourist_demo.json", categories=[0, 0, 1, 1, 0, 0]),
        "weight_space.params.categories: expected one entry per vertex (4), got 6",
    ),
    # A graph error names the graph, also where a weight space reads
    # per-vertex parameters by the source or by an arc's endpoints.
    "tourist-source-out-of-range": (
        minimal_doc(graph={"vertex_count": 3, "arcs": []}, source=7, weight_space=TOURIST_ON_THREE),
        "source: source 7 out of range",
    ),
    "tourist-arc-out-of-range": (
        minimal_doc(
            graph={"vertex_count": 3, "arcs": [{"tail": 0, "head": 9, "payload": 1}]},
            weight_space=TOURIST_ON_THREE,
        ),
        "graph.arcs[0]: arc (0, 9) has an endpoint out of range",
    ),
    "mosp-dimension": (
        with_params("vector_demo.json", dimension=0),
        "weight_space.params.dimension: dimension must be at least 1",
    ),
    "subset-ground-set-size": (
        with_params("subset_catchup.json", ground_set_size=-1),
        "weight_space.params.ground_set_size: ground set size must be nonnegative",
    ),
}


@pytest.mark.parametrize("case", list(PARAM_ERRORS))
def test_param_errors_name_the_param(case, tmp_path, capsys):
    doc, error = PARAM_ERRORS[case]
    assert cli.main(["solve", write_doc(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"validation error: {error}\n"
    assert captured.out == ""


def test_a_table_update_with_only_a_default_solves_as_its_entry(tmp_path, capsys):
    # Only weight "0" reaches arc (0, 1), so defaulting to "1" there is the
    # fixture's own entry {"0": "1"}.
    assert cli.main(["solve", fixture_file("dependent_extension.json")]) == 0
    want = capsys.readouterr().out
    doc = with_first_update({"tail": 0, "head": 1, "default": "1"})
    assert cli.main(["solve", write_doc(tmp_path, doc)]) == 0
    assert capsys.readouterr().out == want


# Only a missing `params` means {}; a null is no object either.
@pytest.mark.parametrize("value", [[], 0, "", False, None], ids=repr)
@pytest.mark.parametrize("in_part", [False, True], ids=["top", "part"])
def test_params_that_are_not_an_object_exit_two(value, in_part, tmp_path, capsys):
    doc = fixture_doc("fifo_demo.json")
    where = "weight_space.params"
    if in_part:
        doc = as_first_part(doc)
        where = "weight_space.params.first.params"
    space = doc["weight_space"]["params"]["first"] if in_part else doc["weight_space"]
    del space["params"]
    assert cli.main(["solve", write_doc(tmp_path, doc)]) == 0
    capsys.readouterr()
    space["params"] = value
    assert cli.main(["solve", write_doc(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"validation error: {where}: expected an object\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "index, side, value, error",
    [
        (0, "first", [1, 2], "graph.arcs[0].payload.first: expected a list of 1 values"),
        (2, "second", [3], "graph.arcs[2].payload.second: set contains elements outside 1..2: [3]"),
        (1, "second", None, "graph.arcs[1].payload.second: needs a payload for this weight space"),
    ],
)
def test_payload_errors_inside_a_product_part_name_the_part(index, side, value, error, tmp_path, capsys):
    doc = fixture_doc("product_demo.json")
    doc["graph"]["arcs"][index]["payload"][side] = value
    assert cli.main(["solve", write_doc(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == f"validation error: {error}\n"


def test_payload_errors_inside_a_nested_product_part_name_the_whole_path(tmp_path, capsys):
    doc = nested_product_doc(3)
    doc["graph"]["arcs"][0]["payload"]["first"]["first"]["second"] = ["two"]
    assert cli.main(["solve", write_doc(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.startswith(
        "validation error: graph.arcs[0].payload.first.first.second: cannot parse rational 'two'"
    )
    doc["graph"]["arcs"][0]["payload"]["first"]["first"]["second"] = [2]
    doc["graph"]["arcs"][0]["payload"]["first"]["second"] = {"x": 1}
    assert cli.main(["solve", write_doc(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == (
        "validation error: graph.arcs[0].payload.first.second: expected a list of 1 values\n"
    )


@pytest.mark.parametrize("value", [0, -5])
def test_max_iterations_below_one_exits_two(value, tmp_path, capsys):
    doc = fixture_doc("vector_demo.json")
    doc["max_iterations"] = value
    assert cli.main(["solve", write_doc(tmp_path, doc)]) == 2
    assert cli.main(["solve", fixture_file("vector_demo.json"), "--max-iterations", str(value)]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("max_iterations: max_iterations must be at least 1") == 2
    assert captured.out == ""


def test_negative_mu_exits_two(tmp_path, capsys):
    doc = fixture_doc("vector_demo.json")
    doc["mu"] = -1
    assert cli.main(["solve", write_doc(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "validation error: mu: mu must be nonnegative\n"
    assert captured.out == ""


def test_a_product_is_infeasible_where_a_part_is(tmp_path, capsys):
    # The path 0-1-2 needs resource 12, over wcspr's limit of 10, which makes
    # the product weight infeasible although its mosp part has no such flag.
    path = write_doc(tmp_path, as_first_part(fixture_doc("wcspr_demo.json")))

    def entries(*options):
        assert cli.main(["solve", path, "--algorithm", "bellman", *options]) == 0
        return [(e["path"], e["feasible"]) for e in json.loads(capsys.readouterr().out)["frontiers"][2]["entries"]]

    assert entries() == [([0, 1, 2], False), ([0, 1, 4, 2], True), ([0, 3, 2], True)]
    assert entries("--drop-infeasible") == [([0, 1, 4, 2], True), ([0, 3, 2], True)]


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


# The top-level fields of an instance document; every validation error's path starts with one.
DOCUMENT_FIELDS = (
    "format_version",
    "graph",
    "source",
    "weight_space",
    "declared_properties",
    "mu",
    "max_iterations",
    "name",
)
DOCUMENT_PATH = re.compile(rf"validation error: ({'|'.join(DOCUMENT_FIELDS)})[.\[:]")


def test_fixtures_cover_every_weight_space_kind():
    # The wrong-shape runs reach a kind's reader only through a fixture of that kind.
    kinds = {fixture_doc(name)["weight_space"]["kind"] for name in ALL_FIXTURES}
    assert kinds == set(SPACE_READERS)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_wrong_shapes_end_in_a_documented_exit_code(name, tmp_path, capsys):
    # Every slot of the document (top-level fields, the graph, each arc, the
    # weight space with its params and payloads, an absent payload too) is
    # in turn deleted and given each wrong shape.  A validation error names
    # its place by a path in the document.
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
            for line in capsys.readouterr().err.splitlines():
                if line.startswith("validation error: "):
                    assert DOCUMENT_PATH.match(line), (slot, shape, line)


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
    # The table declares the quasi-transitive relation kind, which is read
    # and changes nothing: every table is a partial order.
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
    oracle = posp.algorithms.brute_force_frontier(inst, 8)
    got = [sorted(json.dumps(e["weight"]) for e in fr["entries"]) for fr in out["frontiers"]]
    want = [
        sorted(json.dumps(inst.space.render_weight(e.weight)) for e in oracle.entries[v])
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
    # A list that names nothing runs no checker: it is refused, not an empty report.
    for empty in (",", "", " , "):
        r = run_cli("check", fixture_file("improving_loop.json"), "--conditions", empty)
        assert (r.returncode, r.stdout) == (2, ""), empty
        assert r.stderr == "validation error: --conditions names no conditions\n", empty


def test_check_runs_a_condition_named_twice_once(capsys):
    # Repeats are dropped; the first appearance fixes the order.
    path = fixture_file("vector_demo.json")
    assert cli.main(["check", path, "--conditions", "weakly-independent,independent"]) == 0
    once = capsys.readouterr().out
    assert cli.main(["check", path, "--conditions", "weakly-independent,independent,weakly-independent"]) == 0
    twice = capsys.readouterr().out
    assert [rep["condition"] for rep in json.loads(twice)["reports"]] == ["weakly-independent", "independent"]
    assert twice == once


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


def test_check_linear_extension_exits_three_on_a_space_without_one():
    r = run_cli("check", fixture_file("nonsimple_witness.json"), "--conditions", "linear-extension")
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr == "no linear extension: weight space 'table' has no linear extension to check\n"
    # Both places that list the exit codes name the case.
    assert "`check --conditions linear-extension`" in README
    assert "linear-extension audit" in cli.__doc__


def test_check_and_oracle_reject_a_negative_depth(capsys):
    path = fixture_file("improving_loop.json")
    assert cli.main(["check", path, "--depth", "-2"]) == 2
    assert cli.main(["oracle", path, "--max-len", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--depth must be non-negative" in captured.err
    assert "--max-len must be non-negative" in captured.err
    assert cli.main(["bench", "--suite", "random", "--count", "-1"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "validation error: --count must be non-negative, got -1\n")
    assert cli.main(["check", path, "--depth", "0"]) == 0
    assert cli.main(["oracle", path, "--max-len", "0"]) == 0


def test_check_extends_no_path_past_its_depth(tmp_path, capsys):
    # The arc checks extend paths of at most depth - 1 arcs: at depth 0,
    # none, so the decreasing arc (0, 1) shows only from depth 1.
    doc = minimal_doc(
        graph={"vertex_count": 2, "arcs": [{"tail": 0, "head": 1, "payload": [-1, 0]}]},
        weight_space={"kind": "mosp", "params": {"dimension": 2}},
        declared_properties=["arc-increasing"],
    )
    path = write_doc(tmp_path, doc)
    selection = ["--conditions", "arc-increasing,linear-extension"]
    assert cli.main(["check", path, "--depth", "0", *selection]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [r["verdict"] for r in out["reports"]] == ["holds-to-depth"] * 2
    assert cli.main(["check", path, "--depth", "1", *selection]) == 5
    out = json.loads(capsys.readouterr().out)
    assert [r["verdict"] for r in out["reports"]] == ["violated"] * 2


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


@pytest.mark.parametrize(
    "fixture, selection",
    [
        ("vector_demo.json", []),
        ("subset_catchup.json", []),
        ("vector_demo.json", ["--conditions", "weakly-independent"]),
        ("vector_demo.json", ["--conditions", "weakly-independent,independent"]),
        ("vector_demo.json", ["--conditions", "independent,weakly-independent"]),
    ],
)
def test_check_walks_each_requested_condition_once_in_order(fixture, selection, monkeypatch, capsys):
    # Strict independence implies weak, but a holding strict report does not
    # stand in for the weak one: every requested name runs its own checker,
    # and the reports are those runs', in the order asked for.
    walked = []
    for checker in CHECKERS:

        def recorded(*args, walk=getattr(cli, checker), **kwargs):
            report = walk(*args, **kwargs)
            walked.append(report.name)
            return report

        monkeypatch.setattr(cli, checker, recorded)
    assert cli.main(["check", fixture_file(fixture), *selection]) == 0
    reports = [r["condition"] for r in json.loads(capsys.readouterr().out)["reports"]]
    assert walked == reports
    if selection:
        assert walked == selection[1].split(",")
    else:
        assert {"independent", "weakly-independent"} <= set(walked)
        assert len(set(walked)) == len(walked)


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
    [
        ([], CHECKERS),
        (["--conditions", "arc-increasing"], ("check_monotonicity",)),
        (["--conditions", "cycle-non-decreasing"], ("check_monotonicity",)),
    ],
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


ZERO_COST_CYCLE = {
    "format_version": 1,
    "name": "zero-cost-cycle",
    "graph": {
        "vertex_count": 3,
        "arcs": [
            {"tail": 0, "head": 1, "payload": [0, 0]},
            {"tail": 1, "head": 0, "payload": [0, 0]},
            {"tail": 0, "head": 2, "payload": [1, 2]},
            {"tail": 1, "head": 2, "payload": [2, 1]},
        ],
    },
    "source": 0,
    "weight_space": {"kind": "mosp", "params": {"dimension": 2}},
    "declared_properties": ["well-posed", "history-free", "leo-monotone"],
}


@pytest.mark.parametrize(
    "fixture, updates, raw_updates, comparisons",
    [
        ("evsp_demo.json", 20, 0, 180),
        ("subset_catchup.json", 6, 0, 8),
        ("nonsimple_witness.json", 18, 11, 8),
        # A zero-cost cycle through the source: 0 -> 1 -> 0 brings back a
        # weight equal to `space.initial` as a new object.
        pytest.param(ZERO_COST_CYCLE, 18, 14, 7, id="zero-cost-cycle"),
    ],
)
def test_check_evaluates_each_update_once(
    fixture, updates, raw_updates, comparisons, monkeypatch, capsys, tmp_path
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
    path = fixture_file(fixture) if isinstance(fixture, str) else write_doc(tmp_path, fixture)
    assert cli.main(["check", path]) == 0
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

    # Max mode, where equal weights are kept, on a generator instance and on
    # a product of a table and `mosp`.
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

    # `mosp` pairs and triples scan with a kernel of their comparator.  The
    # tracer replaces the comparator, so traced solves take the generic scan
    # through it and every comparison is seen; the counts are the kernel's.
    gen = load_perfbench("gen")
    grids = [gen.grid_doc(k, d, random.Random(f"traced:{d}"), f"grid-{d}") for d, k in ((2, 5), (3, 4))]
    untraced = [(bellman_solve(i), mda_solve(i)) for i in map(cli.parse_instance, grids)]
    solved, metrics = traced(
        lambda _tracer: [(cli.bellman_solve(i), cli.mda_solve(i)) for i in map(cli.parse_instance, grids)]
    )
    for solver, column in (("bellman", 0), ("mda", 1)):
        counts = [pair[column].stats.comparisons for pair in solved]
        assert counts == [pair[column].stats.comparisons for pair in untraced]
        assert metrics[f"algorithms.{solver}.comparisons"] == sum(counts) > 0


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


@pytest.mark.parametrize("value", ["1e6", "abc", "0", "-5", ""])
def test_malformed_budget_exits_two(value):
    for command in ("oracle", "check"):
        r = run_cli(command, fixture_file("vector_demo.json"), env_extra={"POSP_BUDGET": value})
        assert r.returncode == 2
        assert r.stderr == f"validation error: POSP_BUDGET: expected a positive integer, got {value!r}\n"
        assert r.stdout == ""


@pytest.mark.parametrize("budget, code", [("12", 2), ("13", 0), ("20", 0)])
def test_cycle_conditions_count_against_the_one_enumeration(budget, code, monkeypatch, capsys):
    # The sample holds 13 paths of at most 6 arcs; the cycle kinds walk no
    # further graph of their own, so nothing else counts against the budget.
    monkeypatch.setenv("POSP_BUDGET", budget)
    argv = ["check", fixture_file("nonsimple_witness.json"), "--conditions", "cycle-non-decreasing"]
    assert cli.main([*argv, "--depth", "6"]) == code
    err = capsys.readouterr().err
    if code:
        assert err == (
            "budget exceeded: path enumeration exceeded the budget of 12 nodes "
            "(set POSP_BUDGET to raise it)\n"
        )
    else:
        assert err == ""


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


@pytest.mark.parametrize(
    "n, m, message",
    [
        ("2", "100", f"--n 2 --m 100 predicts more than {cli.MAX_KN_SIZE} labels"),
        ("1", "1000000000", f"--n 1 --m 1000000000 predicts more than {cli.MAX_KN_SIZE} labels"),
        ("101", "1", f"--n 101 makes 10201 arcs; the limit is {cli.MAX_KN_SIZE}"),
    ],
)
def test_bench_kn_rejects_sizes_past_the_limit(n, m, message):
    r = run_cli("bench", "--suite", "kn-worst-case", "--n", n, "--m", m, timeout=60)
    assert r.returncode == 2
    assert message in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("n, m", [("0", "3"), ("3", "0"), ("-1", "3")])
def test_bench_kn_rejects_sizes_below_one(n, m, capsys):
    # `_check_kn_size` passes these on, so that `kn_space` names the error.
    assert cli.main(["bench", "--suite", "kn-worst-case", "--n", n, "--m", m]) == 2
    captured = capsys.readouterr()
    assert captured.err == "validation error: kn: need n >= 1 and m >= 1\n"
    assert captured.out == ""


def test_bench_kn_limit_counts_the_predicted_labels():
    # 1 + 2 + ... + 2^12 = 8191 and 1 + 3 + ... + 3^8 = 9841 fit; one more
    # round does not.
    for n, m in ((2, 13), (3, 9), (100, 2), (1, cli.MAX_KN_SIZE)):
        cli._check_kn_size(n, m)
    for n, m in ((2, 14), (3, 10), (100, 3), (1, cli.MAX_KN_SIZE + 1)):
        with pytest.raises(posp.ValidationError, match="predicts more than"):
            cli._check_kn_size(n, m)


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
    for empty in (",", ""):
        assert cli.main(["bench", "--suite", "random", "--structures", empty]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "validation error: --structures names no structures\n")


def test_bench_runs_a_structure_named_twice_once(capsys):
    argv = ["bench", "--suite", "random", "--count", "2", "--structures"]
    assert cli.main([*argv, "mosp,interval"]) == 0
    once = capsys.readouterr().out
    assert cli.main([*argv, "mosp,interval,mosp"]) == 0
    twice = capsys.readouterr().out
    assert len(twice.splitlines()) == 4
    assert twice == once


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
    assert tuple(re.findall(r"`([^`]+)`", kinds)) == tuple(SPACE_READERS)


def test_readme_library_example_prints_what_it_shows(capsys):
    example = README.split("```python\n", 1)[1].split("```", 1)[0]
    exec(example, {})
    shown = [line[2:] for line in example.splitlines() if line.startswith("# ")]
    assert capsys.readouterr().out.splitlines() == shown
