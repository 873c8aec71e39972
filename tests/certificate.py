"""A local optimality certificate for converged min-mode solves.

`certify(instance, result)` checks a solver's result directly, with no
length cap and no path enumeration, so it reaches instances the oracle
cannot.  A result passes when all of these hold:

1. Real paths: every label, and every label on its predecessor chain, has
   the weight `update(pred.weight, arc)` of the arc from its predecessor's
   vertex, and the root has the space's initial weight at the source.
2. Antichain: the labels at each vertex are pairwise INCOMPARABLE.
3. Closure: for every label at u and every arc (u, v) whose extension is
   feasible, some label at v is LESS than or EQUAL to the extension.

A closure failure names a real path that no label at v covers, so the
result is incomplete whatever the space.  When the space is weakly
independent and its order transitive, a pass proves completeness by
induction on path length.  Comparisons go through the space's comparator,
never through a solver's scan kernel.

    python tests/certificate.py SEED COUNT

solves COUNT seeded grid documents (`perfbench/gen.grid_doc`, k = 20-28
for d = 2 and k = 10-12 for d = 3) with both solvers, certifies each
result, prints every failure and exits 1 when there is one.
"""

from __future__ import annotations

import importlib.util
import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from posp.algorithms import CONVERGED  # noqa: E402
from posp.core import EQUAL, INCOMPARABLE, LESS, reconstruct_path  # noqa: E402


def certify(instance, result, drop_infeasible=False):
    """None when the converged min-mode `result` passes, else a witness dict.

    The witness names the failed check ("path", "antichain" or "closure"),
    the vertex, the offending label's path and weight, and for a closure
    failure the arc and the extended weight no label covers.  Pass the
    `drop_infeasible` the solve ran with: extensions the solve dropped as
    infeasible need no cover.  Raises ValueError on a result that is not
    converged, since its frontiers are not final.
    """
    if result.status != CONVERGED:
        raise ValueError(f"cannot certify a result with status {result.status!r}")
    space = instance.space
    cmp, update, render = space.comparator, space.update, space.render_weight

    def witness(check, label, **more):
        return {
            "check": check,
            "vertex": label.vertex,
            "path": list(reconstruct_path(label)),
            "weight": render(label.weight),
            **more,
        }

    checked = set()
    for frontier in result.frontiers:
        for label in frontier:
            while label is not None and id(label) not in checked:
                checked.add(id(label))
                pred = label.pred
                if pred is None:
                    real = label.vertex == instance.source and label.weight == space.initial
                else:
                    arc = instance.arc_between(pred.vertex, label.vertex)
                    real = arc is not None and update(pred.weight, arc) == label.weight
                if not real:
                    return witness("path", label)
                label = pred

    for v, frontier in enumerate(result.frontiers):
        for i, a in enumerate(frontier):
            if a.vertex != v:
                return witness("path", a, frontier=v)
            for b in frontier[i + 1 :]:
                if cmp(a.weight, b.weight) is not INCOMPARABLE:
                    return witness("antichain", b, other_path=list(reconstruct_path(a)))

    for frontier in result.frontiers:
        for label in frontier:
            for arc in instance.out_arcs(label.vertex):
                w = update(label.weight, arc)
                if drop_infeasible and space.is_infeasible(w):
                    continue
                cover = result.frontiers[arc.head]
                if not any(cmp(g.weight, w) in (LESS, EQUAL) for g in cover):
                    return witness("closure", label, arc=[arc.tail, arc.head], extended_weight=render(w))
    return None


def load_perfbench(name):
    """The benchmark module `perfbench/<name>.py`, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def grid_cases(seed, count):
    """(name, document) for the seed's first `count` certificate grids."""
    gen = load_perfbench("gen")
    for i in range(count):
        rng = random.Random(f"certificate:{seed}:{i}")
        d = rng.choice((2, 3))
        k = rng.randint(20, 28) if d == 2 else rng.randint(10, 12)
        name = f"grid-{seed}-{i}-d{d}-k{k}"
        yield name, gen.grid_doc(k, d, rng, name)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python tests/certificate.py SEED COUNT")
    from posp import parse_instance
    from posp.algorithms import bellman_solve, mda_solve

    failures = 0
    for name, doc in grid_cases(int(sys.argv[1]), int(sys.argv[2])):
        instance = parse_instance(doc)
        for solve in (bellman_solve, mda_solve):
            start = time.perf_counter()
            result = solve(instance)
            found = certify(instance, result)
            labels = sum(map(len, result.frontiers))
            verdict = "pass" if found is None else "FAIL " + json.dumps(found, default=str)
            print(f"{name} {solve.__name__} {labels} labels {time.perf_counter() - start:.2f} s {verdict}")
            failures += found is not None
    sys.exit(1 if failures else 0)
