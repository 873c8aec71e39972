"""Workload inputs, operations and output checks.

A workload is a fixed list of operations (one round) built from the seed.
The benchmark repeats whole rounds, so every run attempts the same
operations in the same proportions.  Each operation is either an in-process
`posp.cli.main([...])` call on a written document or, for the worst-case
family, a direct `bellman_solve` call on a `generators.kn_instance`.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import gen
import reference

WORKLOADS = ("grid-mosp", "kn-worst-case", "structure-docs", "check-audit")

# (objectives, side, documents per round, median of the frontier work).
# The frontier work of a document is the sum over vertices of the squared
# Pareto-set size, which tracks the solvers' dominance checks.  A document is
# kept only when its frontier work lies within GRID_BAND of the class
# median, so the work in a round hardly depends on the seed.
GRID_CLASSES = (
    (2, 5, 3, 130),
    (2, 6, 4, 348),
    (2, 7, 4, 691),
    (2, 8, 5, 1094),
    (3, 4, 3, 162),
    (3, 5, 4, 663),
    (3, 6, 5, 1820),
)
GRID_BAND = 0.2

# Complete digraphs: round k of the label-correcting solver holds
# 1 + n + ... + n^k labels until the collapse at path length m.
KN_PAIRS = ((2, 7), (3, 5), (3, 6), (3, 7), (4, 4), (4, 5), (4, 6), (5, 3), (5, 4), (5, 5), (6, 3), (6, 4))

STRUCTURE_PER_STRATUM = 10

# check-audit cost grows with the number of distinct weights the checkers
# enumerate, cubically in the linear-extension audit, so documents are
# drawn per kind and variant with their depth-5 walk count inside a band.
AUDIT_PER_STRATUM = 3
AUDIT_WALK_DEPTH = 5
AUDIT_WALKS_CYCLIC = (15, 17)
AUDIT_WALKS_ACYCLIC = (9, 10)

ORACLE_DEPTH = 10


def fixture_dir(root: Path) -> Path:
    return root / "src" / "posp" / "fixtures"


def _write(workdir: Path, name: str, doc: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _cli_op(argv, check, **extra):
    return {"cmd": "cli", "argv": argv, "check": check, **extra}


def _grid_ops(seed, workdir):
    ops = []
    for d, k, count, target in GRID_CLASSES:
        lo, hi = target * (1 - GRID_BAND), target * (1 + GRID_BAND)
        accepted = 0
        attempt = 0
        while accepted < count:
            attempt += 1
            rng = random.Random(f"grid:{seed}:{d}:{k}:{attempt}")
            name = f"grid-d{d}-k{k}-{accepted}"
            doc = gen.grid_doc(k, d, rng, name)
            ref = reference.pareto_reference(doc)
            if not lo <= sum(len(ws) ** 2 for ws in ref) <= hi:
                continue
            accepted += 1
            path = _write(workdir, name, doc)
            ref_rows = [sorted(ws) for ws in ref]
            for algorithm in ("bellman", "mda"):
                ops.append(
                    _cli_op(["solve", path, "--algorithm", algorithm], "grid", doc=path, reference=ref_rows)
                )
    return ops


def _kn_ops(seed):
    pairs = list(KN_PAIRS)
    random.Random(f"kn:{seed}").shuffle(pairs)
    return [{"cmd": "kn", "n": n, "m": m, "check": "kn"} for n, m in pairs]


def _structure_ops(seed, workdir, root):
    ops = []
    for kind in gen.KINDS:
        for variant in gen.VARIANTS:
            for i in range(STRUCTURE_PER_STRATUM):
                rng = random.Random(f"structure:{seed}:{kind}:{variant}:{i}")
                name = f"{kind}-{variant}-{i}"
                path = _write(workdir, name, gen.structure_doc(kind, variant, rng, name))
                ops.append(_cli_op(["solve", path, "--variant", variant], "oracle", doc=path, variant=variant))
    for doc in gen.quasi_transitive_product_docs():
        path = _write(workdir, doc["name"], doc)
        ops.append(_cli_op(["solve", path], "oracle", doc=path, variant="min"))
    for fixture in sorted(fixture_dir(root).glob("*.json")):
        ops.append(_cli_op(["solve", str(fixture)], "oracle", doc=str(fixture), variant="min"))
    random.Random(f"structure-order:{seed}").shuffle(ops)
    return ops


def _audit_ops(seed, workdir, root):
    ops = []
    for kind in gen.KINDS:
        for variant in gen.VARIANTS:
            cyclic = variant == "min" and kind not in ("evsp", "tourist")
            lo, hi = AUDIT_WALKS_CYCLIC if cyclic else AUDIT_WALKS_ACYCLIC
            accepted = 0
            attempt = 0
            while accepted < AUDIT_PER_STRATUM:
                attempt += 1
                rng = random.Random(f"audit:{seed}:{kind}:{variant}:{attempt}")
                name = f"audit-{kind}-{variant}-{accepted}"
                doc = gen.structure_doc(kind, variant, rng, name)
                if not lo <= reference.walk_count(doc, AUDIT_WALK_DEPTH) <= hi:
                    continue
                accepted += 1
                ops.append(_cli_op(["check", _write(workdir, name, doc)], "audit-generated"))
    for fixture in sorted(fixture_dir(root).glob("*.json")):
        ops.append(_cli_op(["check", str(fixture)], "audit-fixture", fixture=fixture.name))
    random.Random(f"audit-order:{seed}").shuffle(ops)
    return ops


def build_ops(workload: str, seed: int, workdir: Path, root: Path) -> list[dict]:
    """Write the workload's documents into `workdir` and return one round of operations."""
    if workload == "grid-mosp":
        return _grid_ops(seed, workdir)
    if workload == "kn-worst-case":
        return _kn_ops(seed)
    if workload == "structure-docs":
        return _structure_ops(seed, workdir, root)
    if workload == "check-audit":
        return _audit_ops(seed, workdir, root)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Output checks.  Each returns a list of problems; empty means correct.


def check_grid(op: dict, code, out: str) -> list[str]:
    name = op["doc"]
    if code != 0:
        return [f"{name}: exit code {code}"]
    doc = json.loads(Path(op["doc"]).read_text())
    result = json.loads(out)
    problems = []
    if result["status"] != "converged" or result["algorithm"] != op["argv"][-1]:
        problems.append(f"{name}: status {result['status']} algorithm {result['algorithm']}")
    costs = {k: tuple(v) for k, v in reference.arc_payloads(doc).items()}
    for v, frontier in enumerate(result["frontiers"]):
        entries = frontier["entries"]
        got = sorted(tuple(e["weight"]) for e in entries)
        if got != [tuple(w) for w in op["reference"][v]]:
            problems.append(f"{name}: vertex {v} weight set differs from the integer reference")
        for e in entries:
            bad = reference.path_problem(e["path"], doc["source"], v, costs)
            if bad is None:
                total = [0] * len(e["weight"])
                for step in zip(e["path"], e["path"][1:]):
                    total = [x + y for x, y in zip(total, costs[step])]
                if total != e["weight"]:
                    bad = f"path {e['path']} costs {total}, reported {e['weight']}"
                elif e["length"] != len(e["path"]) - 1:
                    bad = f"path {e['path']} reported with length {e['length']}"
            if bad:
                problems.append(f"{name}: vertex {v}: {bad}")
                break
    return problems


def check_kn(op: dict, result) -> list[str]:
    n, m = op["n"], op["m"]
    problems = []
    for k in range(1, m):
        expected = 1 + sum(n**i for i in range(1, k + 1))
        if result.iteration_sizes[k - 1] != expected:
            problems.append(f"kn({n},{m}) round {k}: {result.iteration_sizes[k - 1]} labels, expected {expected}")
    if result.status != "converged":
        problems.append(f"kn({n},{m}): status {result.status}")
    if [len(f) for f in result.frontiers] != [1] * n or result.iteration_sizes[-1] != n:
        problems.append(f"kn({n},{m}): frontiers did not collapse to one label per vertex")
    return problems


def check_oracle(op: dict, code, out: str, posp) -> list[str]:
    """Weight sets (and, in max mode, path sets) equal the enumeration oracle."""
    name = op["doc"]
    if code != 0:
        return [f"{name}: exit code {code}"]
    algorithms = posp.algorithms
    doc = json.loads(Path(op["doc"]).read_text())
    instance = posp.cli.parse_instance(doc)
    mode = algorithms.SolveMode.MIN if op["variant"] == "min" else algorithms.SolveMode.MAX
    oracle = algorithms.brute_force_frontier(instance, ORACLE_DEPTH, mode)
    canon = lambda w: json.dumps(w, sort_keys=True)  # noqa: E731
    result = json.loads(out)
    arcs = reference.arc_payloads(doc)
    problems = []
    for v, frontier in enumerate(result["frontiers"]):
        entries = frontier["entries"]
        got = sorted(canon(e["weight"]) for e in entries)
        want = sorted(canon(instance.space.render_weight(e.weight)) for e in oracle.entries[v])
        if op["variant"] == "min":
            ok = got == sorted(set(want))
        else:
            ok = got == want and sorted(e["path"] for e in entries) == sorted(list(e.path) for e in oracle.entries[v])
        if not ok:
            problems.append(f"{name}: vertex {v} differs from the oracle ({len(got)} vs {len(want)} entries)")
        for e in entries:
            bad = reference.path_problem(e["path"], doc["source"], v, arcs)
            if bad:
                problems.append(f"{name}: {bad}")
                break
    return problems


# Refutations the fixtures are built to show, by report name.
FIXTURE_VIOLATIONS = {
    "improving_loop.json": ("subpath-optimal", "linear-extension"),
    "dependent_extension.json": ("weakly-independent",),
}


def check_audit(op: dict, code, out: str) -> list[str]:
    label = op.get("fixture") or op["argv"][1]
    result = json.loads(out)
    problems = []
    if result["depth"] != 6:
        problems.append(f"{label}: depth {result['depth']}")
    violated = {r["condition"] for r in result["reports"] if r["verdict"] == "violated"}
    if op["check"] == "audit-generated":
        if code != 0 or result["violated_declared"]:
            problems.append(f"{label}: declared properties refuted: {result['violated_declared']} (exit {code})")
    else:
        if code != (5 if result["violated_declared"] else 0):
            problems.append(f"{label}: exit code {code} with refuted {result['violated_declared']}")
        for condition in FIXTURE_VIOLATIONS.get(op["fixture"], ()):
            if condition not in violated:
                problems.append(f"{label}: no {condition} violation reported")
    return problems
