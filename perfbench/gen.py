"""Seeded instance documents for every CLI weight kind, plus grid documents.

Every function takes a `random.Random` and returns a plain JSON-ready dict in
the instance-document format the `posp` CLI reads; the program under test
sees only these documents.  Parameter ranges mirror
`posp.generators.random_instance`, whose tuning keeps the depth-10
enumeration oracle exact: min-variant weights only grow along arcs, so every
nondominated weight is reached by a simple path, and max-variant graphs are
acyclic with mu = n - 1.

Declared properties hold by construction, so `posp check` must report no
refuted declaration.  Max variants declare `independent` (or, for tourist
tours, `subpath-optimal`): their arc data makes distinct paths differ in a
strictly increasing component (distinct powers of two, strict FIFO tables,
per-arc subset elements), which keeps strict dominance strict after any
common extension.
"""

from __future__ import annotations

import random
from fractions import Fraction

KINDS = (
    "mosp",
    "bottleneck",
    "subset",
    "interval",
    "fifo_time",
    "wcspr",
    "evsp",
    "tourist",
    "table",
    "product",
)
VARIANTS = ("min", "max")

WP = "well-posed"
HF = "history-free"
WI = "weakly-independent"
IND = "independent"
AI = "arc-increasing"
CWND = "cycle-non-decreasing"
SO = "subpath-optimal"
MU = "mu-bounded"
LEO = "leo-monotone"

INTERVAL_SETTINGS = ((-1, 1), (0, 0), ("-1/2", "1/2"))


def rat(q: Fraction) -> int | str:
    return int(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def random_graph(rng: random.Random, n: int, acyclic: bool) -> list[tuple[int, int]]:
    """Source chain 0 -> 1 -> ... plus sampled extra arcs, at most 20 arcs."""
    chain = [(i, i + 1) for i in range(n - 1)]
    have = set(chain)
    if acyclic:
        candidates = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in have]
    else:
        candidates = [(i, j) for i in range(n) for j in range(n) if (i, j) not in have]
    extra = min(len(candidates), rng.randint(1, n), 20 - len(chain))
    return chain + (rng.sample(candidates, extra) if extra > 0 else [])


def document(name, n, arcs, kind, params, declared, mu=None):
    doc = {
        "format_version": 1,
        "name": name,
        "graph": {
            "vertex_count": n,
            "arcs": [
                {"tail": t, "head": h} if p is None else {"tail": t, "head": h, "payload": p}
                for (t, h), p in arcs
            ],
        },
        "source": 0,
        "weight_space": {"kind": kind, "params": params},
        "declared_properties": sorted(declared),
    }
    if mu is not None:
        doc["mu"] = mu
    return doc


def _leaner(rng: random.Random, declared: set[str]) -> set[str]:
    """Half the documents omit the declarations that justify label setting,
    so automatic selection runs the label-correcting solver on them."""
    if rng.random() < 0.5:
        return declared - {LEO, AI}
    return declared


# ---------------------------------------------------------------------------
# Arc data per kind.  Each returns (n, [(arc key, payload)], params, declared, mu).


def _mosp(rng, variant):
    acyclic = variant == "max"
    n = rng.randint(3, 7) if acyclic else rng.randint(3, 8)
    keys = random_graph(rng, n, acyclic)
    d = rng.choice((2, 3))
    arcs = [(k, [rng.randint(0, 9) for _ in range(d)]) for k in keys]
    if acyclic:
        return n, arcs, {"dimension": d}, {WP, HF, IND, AI, MU, LEO}, n - 1
    return n, arcs, {"dimension": d}, {WP, HF, IND, AI, LEO}, None


def _bottleneck(rng, variant):
    acyclic = variant == "max"
    n = rng.randint(3, 7) if acyclic else rng.randint(3, 8)
    keys = random_graph(rng, n, acyclic)
    arcs = []
    for i, k in enumerate(keys):
        first = 2**i if acyclic else rng.randint(0, 9)
        add = [first, rng.randint(0, 9)]
        cap = [rng.randint(1, 9), rng.randint(1, 9)]
        arcs.append((k, {"additive": add, "bottleneck": cap}))
    params = {"additive_dimension": 2, "bottleneck_dimension": 2}
    if acyclic:
        return n, arcs, params, {WP, HF, IND, AI, MU, LEO}, n - 1
    return n, arcs, params, {WP, HF, WI, AI, LEO}, None


def _subset(rng, variant):
    acyclic = variant == "max"
    n = rng.randint(3, 7) if acyclic else rng.randint(3, 8)
    keys = random_graph(rng, n, acyclic)
    if acyclic:
        # One private element per arc: distinct paths never nest.
        shared = len(keys) + 2
        arcs = [
            (k, sorted({i + 1} | set(rng.sample(range(len(keys) + 1, shared + 1), rng.randint(0, 1)))))
            for i, k in enumerate(keys)
        ]
        return n, arcs, {"ground_set_size": shared}, {WP, HF, IND, AI, MU, LEO}, n - 1
    arcs = [(k, sorted(rng.sample(range(1, 5), rng.randint(0, 2)))) for k in keys]
    return n, arcs, {"ground_set_size": 4}, {WP, HF, WI, AI, LEO}, None


def _interval_params(rng):
    alpha, beta = INTERVAL_SETTINGS[rng.randrange(len(INTERVAL_SETTINGS))]
    return {"alpha": alpha, "beta": beta}


def _interval_payload(rng):
    w = rng.randint(0, 4)
    return {"c": w + rng.randint(0, 5), "w": w}


def _interval(rng, variant):
    acyclic = variant == "max"
    n = rng.randint(3, 7) if acyclic else rng.randint(3, 8)
    keys = random_graph(rng, n, acyclic)
    params = _interval_params(rng)
    arcs = [(k, _interval_payload(rng)) for k in keys]
    if acyclic:
        return n, arcs, params, {WP, HF, IND, AI, MU, LEO}, n - 1
    return n, arcs, params, {WP, HF, IND, AI, LEO}, None


def _fifo_table(rng, strict):
    taus = sorted(rng.sample(range(0, 9), rng.randint(1, 3)))
    bps = []
    prev = None
    for tau in taus:
        t = rng.randint(1, 6)
        if prev is not None and tau + t < prev + (1 if strict else 0):
            t = prev - tau + (1 if strict else 0)
        bps.append([tau, t])
        prev = tau + t
    return {"breakpoints": bps}


def _fifo_time(rng, variant):
    acyclic = variant == "max"
    n = rng.randint(3, 7) if acyclic else rng.randint(3, 8)
    keys = random_graph(rng, n, acyclic)
    # Max variant: strictly increasing arrival functions keep strict order.
    arcs = [(k, _fifo_table(rng, strict=acyclic)) for k in keys]
    params = {"start_time": 0}
    if acyclic:
        return n, arcs, params, {WP, HF, IND, AI, MU, LEO}, n - 1
    return n, arcs, params, {WP, HF, WI, AI, LEO}, None


def _wcspr(rng, variant):
    acyclic = variant == "max"
    n = rng.randint(3, 7) if acyclic else rng.randint(3, 8)
    keys = random_graph(rng, n, acyclic)
    limit = rng.randint(6, 10)
    arcs = []
    for i, k in enumerate(keys):
        w = 2**i if acyclic else rng.randint(1, 5)
        arcs.append((k, {"w": w, "r": rng.randint(0, limit), "replenish": rng.random() < 0.3}))
    if acyclic:
        return n, arcs, {"limit": limit}, {WP, HF, IND, MU, LEO}, n - 1
    return n, arcs, {"limit": limit}, {WP, HF, WI, CWND, LEO}, None


CURVES = ([[0, 0], [1, "3/5"], [2, 1]], [[0, 0], [1, "7/10"], [2, 1]])


def _evsp(rng, variant):
    n = rng.randint(4, 6)
    keys = random_graph(rng, n, acyclic=True)
    max_variant = variant == "max"
    arcs = []
    for i, k in enumerate(keys):
        t = 2**i if max_variant else rng.randint(1, 5)
        arcs.append((k, {"time": t, "delta": rat(Fraction(rng.randint(-2, 5), 10))}))
    stations = {}
    if not max_variant:
        count = rng.randint(0, 2)
        for v in (rng.sample(range(n), count) if count else []):
            stations[str(v)] = CURVES[rng.randint(0, 1)]
        arcs += [((int(v), int(v)), None) for v in sorted(stations, key=int)]
    params = {
        "initial_soc": rat(Fraction(rng.randint(3, 10), 10)),
        "epsilon": 1,
        "stations": stations,
    }
    if max_variant:
        return n, arcs, params, {WP, HF, IND, MU, LEO}, n - 1
    return n, arcs, params, {WP, HF, WI, MU, LEO}, 10


def _tourist(rng, variant):
    n = rng.randint(4, 7)
    keys = random_graph(rng, n, acyclic=True)
    arcs = [(k, {"length": 2**i}) for i, k in enumerate(keys)]
    total = 2 ** len(keys) - 1
    q = rng.randint(1, 2)
    params = {
        "budget": total // 2 if variant == "min" else total + 1,
        "values": [rng.randint(0, 9) for _ in range(n)],
        "categories": [rng.randint(0, q - 1) for _ in range(n)],
        "category_count": q,
    }
    if variant == "min":
        return n, arcs, params, {WP, HF, WI, MU, LEO}, n - 1
    return n, arcs, params, {WP, HF, WI, SO, MU, LEO}, n - 1


def table_chain(costs: dict, top: int, relation_kind: str | None = None) -> dict:
    """Table params for weights 0..top in a chain, arcs adding a cost capped at top."""
    names = [str(i) for i in range(top + 1)]
    params = {
        "weights": names,
        "strict_pairs": [[names[i], names[i + 1]] for i in range(top)],
        "initial": "0",
        "updates": [
            {
                "tail": t,
                "head": h,
                "entries": {str(w): str(min(w + c, top)) for w in range(top + 1)},
            }
            for (t, h), c in costs.items()
        ],
        "leo": names,
    }
    if relation_kind is not None:
        params["relation_kind"] = relation_kind
    return params


def table_grid(costs: dict, top: int) -> dict:
    """Table params for pairs in [0, top]^2, componentwise order, capped sums."""
    cells = [(x, y) for x in range(top + 1) for y in range(top + 1)]
    name = lambda c: f"{c[0]},{c[1]}"  # noqa: E731
    covers = [[name((x, y)), name((x + 1, y))] for x, y in cells if x < top]
    covers += [[name((x, y)), name((x, y + 1))] for x, y in cells if y < top]
    return {
        "weights": [name(c) for c in cells],
        "strict_pairs": covers,
        "initial": "0,0",
        "updates": [
            {
                "tail": t,
                "head": h,
                "entries": {
                    name((x, y)): name((min(x + cx, top), min(y + cy, top))) for x, y in cells
                },
            }
            for (t, h), (cx, cy) in costs.items()
        ],
        "leo": [name(c) for c in sorted(cells)],
    }


def _table(rng, variant):
    if variant == "max":
        n = rng.randint(3, 6)
        keys = random_graph(rng, n, acyclic=True)
        costs = {k: rng.randint(1, 3) for k in keys}
        # The cap exceeds every path sum, so sums stay strictly ordered.
        top = 3 * (n - 1)
        return n, [(k, None) for k in keys], table_chain(costs, top), {WP, HF, IND, AI, MU, LEO}, n - 1
    n = rng.randint(3, 6)
    keys = random_graph(rng, n, acyclic=False)
    costs = {k: (rng.randint(0, 2), rng.randint(0, 2)) for k in keys}
    return n, [(k, None) for k in keys], table_grid(costs, 3), {WP, HF, WI, AI, LEO}, None


def _product(rng, variant):
    acyclic = variant == "max"
    n = rng.randint(3, 7) if acyclic else rng.randint(3, 8)
    keys = random_graph(rng, n, acyclic)
    if acyclic:
        params = {
            "first": {"kind": "mosp", "params": {"dimension": 1}},
            "second": {"kind": "interval", "params": _interval_params(rng)},
        }
        arcs = [(k, {"first": [rng.randint(0, 9)], "second": _interval_payload(rng)}) for k in keys]
        return n, arcs, params, {WP, HF, IND, AI, MU, LEO}, n - 1
    d = rng.randint(1, 2)
    params = {
        "first": {"kind": "mosp", "params": {"dimension": d}},
        "second": {"kind": "subset", "params": {"ground_set_size": 3}},
    }
    arcs = [
        (k, {"first": [rng.randint(0, 9) for _ in range(d)], "second": sorted(rng.sample(range(1, 4), rng.randint(0, 2)))})
        for k in keys
    ]
    return n, arcs, params, {WP, HF, WI, AI, LEO}, None


BUILDERS = {
    "mosp": _mosp,
    "bottleneck": _bottleneck,
    "subset": _subset,
    "interval": _interval,
    "fifo_time": _fifo_time,
    "wcspr": _wcspr,
    "evsp": _evsp,
    "tourist": _tourist,
    "table": _table,
    "product": _product,
}


def structure_doc(kind: str, variant: str, rng: random.Random, name: str) -> dict:
    n, arcs, params, declared, mu = BUILDERS[kind](rng, variant)
    return document(name, n, arcs, kind, params, _leaner(rng, declared), mu)


def quasi_transitive_product_docs() -> list[dict]:
    """Fixed product documents pairing a quasi-transitive table with mosp.

    Their content never depends on the workload seed, so every run fails on
    exactly the same operations while `weights.product_space` cannot combine
    spaces whose relation kinds differ.
    """
    rng = random.Random("quasi-transitive-product")
    docs = []
    for i in range(4):
        n = rng.randint(3, 6)
        keys = random_graph(rng, n, acyclic=False)
        table = table_chain({k: rng.randint(0, 2) for k in keys}, 4, "antisymmetric-quasi-transitive")
        params = {
            "first": {"kind": "table", "params": table},
            "second": {"kind": "mosp", "params": {"dimension": 1}},
        }
        arcs = [(k, {"first": None, "second": [rng.randint(0, 9)]}) for k in keys]
        declared = {WP, HF, WI, AI, LEO} if i % 2 == 0 else {WP, HF, WI}
        docs.append(document(f"qt-product-{i}", n, arcs, "product", params, declared))
    return docs


def grid_doc(k: int, d: int, rng: random.Random, name: str) -> dict:
    """4-neighbour k x k grid, integer costs 1..9 in d objectives, source 0."""
    arcs = []
    for r in range(k):
        for c in range(k):
            v = r * k + c
            for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < k and 0 <= cc < k:
                    arcs.append(((v, rr * k + cc), [rng.randint(1, 9) for _ in range(d)]))
    return document(name, k * k, arcs, "mosp", {"dimension": d}, {WP, HF, IND, AI, LEO})
