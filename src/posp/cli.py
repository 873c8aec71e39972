"""Command-line interface.

Commands read a JSON instance document and write JSON to stdout — a single
document on one line (one record per line for bench); diagnostics and wall
times go to stderr, so stdout is byte-deterministic for a given input and
option set.

Exit codes: 0 success; 2 validation/input error (including enumeration
budget); 3 no valid algorithm for the declared properties (or a requested
solver the weight space cannot support); 4 the iteration guard stopped a
solve; 5 a checker refuted a declared property (or a solve-time monotonicity
assertion failed).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Any

from .algorithms import (
    GUARD_HIT,
    SolveMode,
    SolveResult,
    bellman_solve,
    brute_force_frontier,
    iteration_guard,
    mda_solve,
)
from .conditions import (
    DEFAULT_DEPTH,
    PathSample,
    PropertySet,
    check_history_free,
    check_independence,
    check_linear_extension,
    check_monotonicity,
    check_subpath_optimality,
    evaluate_table,
    permitted_algorithms,
)
from .core import (
    BudgetExceededError,
    DomainMismatchError,
    Instance,
    LEO_MONOTONE,
    LeoMonotonicityError,
    MissingUpdateEntryError,
    NoLeoError,
    ValidationError,
    WeightSpace,
    build_instance,
    reconstruct_path,
)
from .generators import MAX_STRUCTURES, MIN_STRUCTURES, kn_instance, random_instance
from . import weights
from .weights import _as_int, _bounded_int, _req, build_space

FORMAT_VERSION = 1

# Largest `graph.vertex_count` a document may ask for; the instance and the
# solvers keep per-vertex lists.
MAX_VERTEX_COUNT = 100_000

WEIGHT_SPACE_KINDS = tuple(weights.SPACE_READERS)


def _err(message: str) -> None:
    print(message, file=sys.stderr)


def _json_default(obj: Any):
    if isinstance(obj, Fraction):
        return weights.render_rational(obj)
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _emit(doc: dict) -> None:
    print(json.dumps(doc, separators=(",", ":"), default=_json_default))


def parse_instance(doc: Any) -> Instance:
    """Validate an instance document and build the instance it describes."""
    if not isinstance(doc, dict):
        raise ValidationError("instance document must be a JSON object")
    fv = _req(doc, "format_version", "")
    if fv != FORMAT_VERSION:
        raise ValidationError(f"unsupported format version {fv!r}", "format_version")
    graph = _req(doc, "graph", "")
    n = _bounded_int(_req(graph, "vertex_count", "graph"), "graph.vertex_count", MAX_VERTEX_COUNT)
    arcs_raw = _req(graph, "arcs", "graph")
    if not isinstance(arcs_raw, list):
        raise ValidationError("arcs must be a list", "graph.arcs")
    arc_items = []
    for i, arc in enumerate(arcs_raw):
        path = f"graph.arcs[{i}]"
        tail = _as_int(_req(arc, "tail", path), f"{path}.tail")
        head = _as_int(_req(arc, "head", path), f"{path}.head")
        arc_items.append(((tail, head), arc.get("payload")))
    source = _as_int(_req(doc, "source", ""), "source")
    ws = _req(doc, "weight_space", "")
    kind = _req(ws, "kind", "weight_space")
    space = build_space(kind, ws.get("params", {}), arc_items, source)
    declared = doc.get("declared_properties", [])
    if not isinstance(declared, list) or not all(isinstance(d, str) for d in declared):
        raise ValidationError("declared_properties must be a list of names", "declared_properties")
    mu = doc.get("mu")
    if mu is not None:
        mu = _as_int(mu, "mu")
    max_iterations = doc.get("max_iterations")
    if max_iterations is not None:
        max_iterations = _as_int(max_iterations, "max_iterations")
    name = doc.get("name", "instance")
    if not isinstance(name, str):
        raise ValidationError("name must be a string", "name")
    return build_instance(
        vertex_count=n,
        arcs=[key for key, _payload in arc_items],
        source=source,
        space=space,
        declared=declared,
        mu=mu,
        max_iterations=max_iterations,
        name=name,
    )


def _load_document(path: str) -> Any:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}")
    try:
        # parse_float sees the literal text, so decimals stay exact.
        return json.loads(text, parse_float=Fraction)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}")
    except RecursionError:
        raise ValidationError(f"{path} nests too deeply to read") from None


# ---------------------------------------------------------------------------
# Result rendering.


def _entry_docs(space: WeightSpace, triples: list[tuple[Any, tuple[int, ...], int]]) -> list[dict]:
    """Render (weight, path, length) triples, sorted deterministically."""
    if space.leo_key is not None:
        key = lambda t: (space.leo_key(t[0]), t[2], t[1])  # noqa: E731
    else:
        key = lambda t: (  # noqa: E731
            json.dumps(space.render_weight(t[0]), sort_keys=True, default=_json_default),
            t[2],
            t[1],
        )
    out = []
    for w, path, length in sorted(triples, key=key):
        out.append(
            {
                "weight": space.render_weight(w),
                "path": list(path),
                "length": length,
                "feasible": not space.is_infeasible(w),
            }
        )
    return out


def _frontier_docs(instance: Instance, result: SolveResult) -> list[dict]:
    docs = []
    for v in range(instance.vertex_count):
        triples = [
            (lab.weight, reconstruct_path(lab), lab.length)
            for lab in result.frontiers[v]
        ]
        docs.append({"vertex": v, "entries": _entry_docs(instance.space, triples)})
    return docs


# ---------------------------------------------------------------------------
# Commands.


def _automatic_choice(permitted: dict[str, bool]) -> str | None:
    """The solver `solve --algorithm auto` runs: MDA if permitted, else Bellman."""
    return "mda" if permitted["mda"] else "bellman" if permitted["bellman"] else None


def cmd_solve(args: argparse.Namespace) -> int:
    instance = parse_instance(_load_document(args.file))
    variant = args.variant
    mode = SolveMode.MIN if variant == "min" else SolveMode.MAX
    permitted = permitted_algorithms(
        instance.declared, variant, instance.space.leo_key is not None
    )
    if args.algorithm == "auto":
        algorithm = _automatic_choice(permitted) or ("bellman" if args.force else None)
        if algorithm is None:
            _err(
                "no selection-table row permits any solver for the declared properties "
                f"(variant {variant}); use --force to run the label-correcting solver anyway"
            )
            return 3
    else:
        algorithm = args.algorithm
        if not permitted[algorithm] and not args.force:
            _err(
                f"declared properties do not permit the {algorithm} solver for variant "
                f"{variant}; use --force to run it anyway"
            )
            return 3

    if args.max_iterations is not None:
        instance = dataclasses.replace(instance, max_iterations=args.max_iterations)
    solve = bellman_solve if algorithm == "bellman" else mda_solve
    result = solve(instance, mode, drop_infeasible=args.drop_infeasible)

    doc = {
        "format_version": FORMAT_VERSION,
        "command": "solve",
        "instance": instance.name,
        "algorithm": algorithm,
        "variant": variant,
        "status": result.status,
        "final": result.status != GUARD_HIT,
        "frontiers": _frontier_docs(instance, result),
        "statistics": result.stats.to_dict(),
        "iteration_sizes": result.iteration_sizes,
    }
    _emit(doc)
    if result.status == GUARD_HIT:
        if algorithm == "bellman":
            reached = f"after {result.stats.iterations} rounds"
        else:
            reached = f"at paths of {iteration_guard(instance)} arcs"
        _err(f"iteration guard hit {reached}; frontiers are not final")
        return 4
    return 0


# Each runner looks its checker up in this module when called, so a wrapper
# installed on `cli.check_*` sees every call.
_CONDITION_RUNNERS = {
    "history-free": lambda inst, d, paths: check_history_free(inst, d, paths=paths),
    "independent": lambda inst, d, paths: check_independence(inst, d, "strict", paths),
    "weakly-independent": lambda inst, d, paths: check_independence(inst, d, "weak", paths),
    "arc-non-decreasing": lambda inst, d, paths: check_monotonicity(inst, d, "arc-non-decreasing", paths),
    "arc-increasing": lambda inst, d, paths: check_monotonicity(inst, d, "arc-increasing", paths),
    "strict-arc": lambda inst, d, paths: check_monotonicity(inst, d, "strict-arc", paths),
    "cycle-non-decreasing": lambda inst, d, paths: check_monotonicity(inst, d, "cycle-non-decreasing", paths),
    "cycle-increasing": lambda inst, d, paths: check_monotonicity(inst, d, "cycle-increasing", paths),
    "strict-cycle": lambda inst, d, paths: check_monotonicity(inst, d, "strict-cycle", paths),
    "subpath-optimal": lambda inst, d, paths: check_subpath_optimality(inst, d, "strong", paths),
    "weakly-subpath-optimal": lambda inst, d, paths: check_subpath_optimality(inst, d, "weak", paths),
    "linear-extension": lambda inst, d, paths: check_linear_extension(inst, d, paths=paths),
}

_DEFAULT_CONDITIONS = (
    "history-free",
    "independent",
    "weakly-independent",
    "arc-non-decreasing",
    "arc-increasing",
    "cycle-non-decreasing",
    "cycle-increasing",
    "subpath-optimal",
    "weakly-subpath-optimal",
)

def cmd_check(args: argparse.Namespace) -> int:
    depth = args.depth
    if depth < 0:
        raise ValidationError(f"--depth must be non-negative, got {depth}")
    instance = parse_instance(_load_document(args.file))
    if args.conditions:
        names = [c.strip() for c in args.conditions.split(",") if c.strip()]
        unknown = [c for c in names if c not in _CONDITION_RUNNERS]
        if unknown:
            raise ValidationError(
                f"unknown conditions: {', '.join(unknown)} "
                f"(available: {', '.join(sorted(_CONDITION_RUNNERS))})"
            )
    else:
        names = list(_DEFAULT_CONDITIONS)
        if instance.space.leo_key is not None:
            names.append("linear-extension")

    paths = PathSample(instance)
    reports = [_CONDITION_RUNNERS[name](instance, depth, paths) for name in names]
    # A violated report refutes the property of its own name, except the
    # linear-extension audit, which refutes leo-monotone.  The names that are
    # no property (arc-non-decreasing, strict-arc, strict-cycle) cannot be in
    # the closure: an instance rejects unknown declared properties.
    refuted = {
        LEO_MONOTONE if r.name == "linear-extension" else r.name
        for r in reports
        if not r.holds
    }
    violated_declared = sorted(refuted & PropertySet(instance.declared).closed())
    doc = {
        "format_version": FORMAT_VERSION,
        "command": "check",
        "instance": instance.name,
        "depth": depth,
        "declared": sorted(instance.declared),
        "reports": [r.to_dict() for r in reports],
        "violated_declared": violated_declared,
    }
    _emit(doc)
    if violated_declared:
        _err(f"declared properties refuted: {', '.join(violated_declared)}")
        return 5
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.max_len < 0:
        raise ValidationError(f"--max-len must be non-negative, got {args.max_len}")
    instance = parse_instance(_load_document(args.file))
    mode = SolveMode.MIN if args.variant == "min" else SolveMode.MAX
    result = brute_force_frontier(instance, args.max_len, mode)
    docs = []
    for v in range(instance.vertex_count):
        triples = [(e.weight, e.path, len(e.path) - 1) for e in result.entries[v]]
        docs.append({"vertex": v, "entries": _entry_docs(instance.space, triples)})
    _emit(
        {
            "format_version": FORMAT_VERSION,
            "command": "oracle",
            "instance": instance.name,
            "variant": args.variant,
            "max_len": result.max_len,
            "frontiers": docs,
            "node_count": result.node_count,
        }
    )
    return 0


def cmd_recommend(args: argparse.Namespace) -> int:
    instance = parse_instance(_load_document(args.file))
    variant = args.variant
    evaluations = evaluate_table(instance.declared, variant)
    closed = PropertySet(instance.declared).closed()
    permitted = permitted_algorithms(
        instance.declared, variant, instance.space.leo_key is not None
    )
    rows = []
    for ev in evaluations:
        row = ev.row
        rows.append(
            {
                "row": row.index,
                "algorithm": row.algorithm,
                "problem": row.problem,
                "guarantee": row.guarantee,
                "requires": sorted(row.required),
                "implies": sorted(row.implied),
                "leo": row.leo,
                "basis": list(row.basis),
                "satisfied": ev.satisfied,
                "missing": list(ev.missing),
            }
        )
    selected = _automatic_choice(permitted)
    _emit(
        {
            "format_version": FORMAT_VERSION,
            "command": "recommend",
            "instance": instance.name,
            "variant": variant,
            "declared": sorted(instance.declared),
            "closed": sorted(closed),
            "rows": rows,
            "permitted": permitted,
            "selected": selected,
        }
    )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    if args.suite == "kn-worst-case":
        n, m = args.n, args.m
        instance = kn_instance(n, m)
        result = bellman_solve(instance, SolveMode.MIN)
        for idx, total in enumerate(result.iteration_sizes):
            k = idx + 1
            prediction = sum(n**i for i in range(1, k + 1)) if k <= m - 1 else None
            nontrivial = total - 1
            _emit(
                {
                    "format_version": FORMAT_VERSION,
                    "command": "bench",
                    "suite": "kn-worst-case",
                    "n": n,
                    "m": m,
                    "record": "iteration",
                    "iteration": k,
                    "frontier_total": total,
                    "nontrivial": nontrivial,
                    "prediction": prediction,
                    "matches_prediction": (
                        nontrivial == prediction if prediction is not None else None
                    ),
                }
            )
        _emit(
            {
                "format_version": FORMAT_VERSION,
                "command": "bench",
                "suite": "kn-worst-case",
                "n": n,
                "m": m,
                "record": "final",
                "status": result.status,
                "sizes": [len(f) for f in result.frontiers],
                "statistics": result.stats.to_dict(),
            }
        )
    else:
        structures = (
            [s.strip() for s in args.structures.split(",") if s.strip()]
            if args.structures
            else list(MIN_STRUCTURES)
        )
        known = MIN_STRUCTURES + MAX_STRUCTURES
        unknown = [s for s in structures if s not in known]
        if unknown:
            raise ValidationError(
                f"unknown structures: {', '.join(unknown)} (available: {', '.join(sorted(known))})"
            )
        for structure in structures:
            for i in range(args.count):
                seed = args.seed_base + i
                instance = random_instance(structure, seed)
                bell = bellman_solve(instance, SolveMode.MIN)
                permitted = permitted_algorithms(
                    instance.declared, "min", instance.space.leo_key is not None
                )
                record = {
                    "format_version": FORMAT_VERSION,
                    "command": "bench",
                    "suite": "random",
                    "structure": structure,
                    "seed": seed,
                    "vertices": instance.vertex_count,
                    "arcs": len(instance.arcs),
                    "bellman": {
                        "status": bell.status,
                        "iteration_sizes": bell.iteration_sizes,
                        "statistics": bell.stats.to_dict(),
                    },
                    "mda": None,
                    "agree": None,
                }
                if permitted["mda"]:
                    mda = mda_solve(instance, SolveMode.MIN)
                    agree = all(
                        {lab.weight for lab in bell.frontiers[v]}
                        == {lab.weight for lab in mda.frontiers[v]}
                        for v in range(instance.vertex_count)
                    )
                    record["mda"] = {
                        "status": mda.status,
                        "statistics": mda.stats.to_dict(),
                    }
                    record["agree"] = agree
                _emit(record)
    _err(f"[bench] wall_time_s={time.perf_counter() - start:.3f}")
    return 0


# ---------------------------------------------------------------------------
# Entry point.


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="posp",
        description="Solvers and property checkers for partially ordered path weights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve an instance and print its frontiers")
    ps.add_argument("file", help="instance document (JSON)")
    ps.add_argument("--algorithm", choices=("bellman", "mda", "auto"), default="auto")
    ps.add_argument("--variant", choices=("min", "max"), default="min")
    ps.add_argument("--force", action="store_true", help="run even when no table row permits it")
    ps.add_argument("--max-iterations", type=int, default=None)
    ps.add_argument("--drop-infeasible", action="store_true")
    ps.set_defaults(func=cmd_solve)

    pc = sub.add_parser("check", help="audit conditions against an instance")
    pc.add_argument("file")
    pc.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    pc.add_argument(
        "--conditions",
        default=None,
        help="comma-separated condition names (default: all applicable)",
    )
    pc.set_defaults(func=cmd_check)

    po = sub.add_parser("oracle", help="exhaustive reference frontiers")
    po.add_argument("file")
    po.add_argument("--max-len", type=int, default=8)
    po.add_argument("--variant", choices=("min", "max"), default="min")
    po.set_defaults(func=cmd_oracle)

    pr = sub.add_parser("recommend", help="evaluate the algorithm selection table")
    pr.add_argument("file")
    pr.add_argument("--variant", choices=("min", "max"), default="min")
    pr.set_defaults(func=cmd_recommend)

    pb = sub.add_parser("bench", help="built-in benchmark suites")
    pb.add_argument("--suite", choices=("kn-worst-case", "random"), required=True)
    pb.add_argument("--n", type=int, default=3, help="vertices for kn-worst-case")
    pb.add_argument("--m", type=int, default=3, help="collapse length for kn-worst-case")
    pb.add_argument("--structures", default=None, help="structures for the random suite")
    pb.add_argument("--count", type=int, default=5)
    pb.add_argument("--seed-base", type=int, default=0)
    pb.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        _err(f"validation error: {exc}")
        return 2
    except (DomainMismatchError, MissingUpdateEntryError) as exc:
        _err(f"weight-space error: {exc}")
        return 2
    except BudgetExceededError as exc:
        _err(f"budget exceeded: {exc}")
        return 2
    except NoLeoError as exc:
        _err(f"no linear extension: {exc}")
        return 3
    except LeoMonotonicityError as exc:
        _err(f"monotonicity violation: {exc}")
        if exc.witness:
            _err(json.dumps(exc.witness, default=_json_default))
        return 5


if __name__ == "__main__":
    sys.exit(main())
