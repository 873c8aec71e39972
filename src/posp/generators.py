"""Instance generators for benchmarks and randomized suites.

Everything here is deterministic in its arguments: a fixed seed yields a
fixed instance, independent of process or platform.  Random graphs embed a
source chain 0 -> 1 -> ... so frontiers are never trivially empty, then add
sampled extra arcs (cycles and loops included unless the structure needs an
acyclic graph).

Generator tuning keeps the enumeration oracle honest at depth 10: road
graphs for the charging and tour structures are acyclic and small, charging
curves saturate within two steps, and the resource structure gives every arc
positive cost, so every nondominated weight is reachable within ten arcs.
Tour arc lengths are distinct powers of two, which makes distinct paths have
distinct lengths and hence keeps efficient prefixes efficient.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .core import (
    ARC_INCREASING,
    CYCLE_NON_DECREASING,
    HISTORY_FREE,
    INDEPENDENT,
    Instance,
    LEO_MONOTONE,
    MU_BOUNDED,
    SUBPATH_OPTIMAL,
    WELL_POSED,
    WEAKLY_INDEPENDENT,
    build_instance,
)
from . import weights

# Each structure's vertex-count range, whether its graph is acyclic, and the
# properties it declares beyond the well-posed, history-free and leo-monotone
# that every structure declares.  A mu-bounded row gets mu = n - 1, except
# evsp, whose station loops can make efficient paths longer than that; it
# keeps mu = 10.  Max-mode structures end in "-max".
_STRUCTURES = {
    "mosp": (3, 8, False, (INDEPENDENT, ARC_INCREASING)),
    "bottleneck": (3, 8, False, (WEAKLY_INDEPENDENT, ARC_INCREASING)),
    "subset": (3, 8, False, (WEAKLY_INDEPENDENT, ARC_INCREASING)),
    "interval": (3, 8, False, (INDEPENDENT, ARC_INCREASING)),
    "fifo_time": (3, 8, False, (WEAKLY_INDEPENDENT, ARC_INCREASING)),
    "wcspr": (3, 8, False, (WEAKLY_INDEPENDENT, CYCLE_NON_DECREASING)),
    "evsp": (4, 6, True, (WEAKLY_INDEPENDENT, MU_BOUNDED)),
    "tourist": (4, 7, True, (WEAKLY_INDEPENDENT, MU_BOUNDED)),
    "mosp-max": (3, 7, True, (INDEPENDENT, ARC_INCREASING, SUBPATH_OPTIMAL, MU_BOUNDED)),
    "tourist-max": (4, 7, True, (WEAKLY_INDEPENDENT, SUBPATH_OPTIMAL, MU_BOUNDED)),
}
MIN_STRUCTURES = tuple(s for s in _STRUCTURES if not s.endswith("-max"))
MAX_STRUCTURES = tuple(s for s in _STRUCTURES if s.endswith("-max"))

INTERVAL_SETTINGS = (
    (Fraction(-1), Fraction(1)),
    (Fraction(0), Fraction(0)),
    (Fraction(-1, 2), Fraction(1, 2)),
)


def kn_instance(n: int, m: int) -> Instance:
    """Complete digraph on n vertices with all loops, worst-case weights.

    Every path of length below m keeps a distinct incomparable weight, so
    frontiers multiply by n each round until the collapse at length m.  The
    label-correcting solve needs m + 1 rounds, so the instance carries an
    iteration guard of max(4 * n, m + 1).
    """
    arcs = [(i, j) for i in range(n) for j in range(n)]
    space = weights.kn_space(n, m, source=0)
    return build_instance(
        vertex_count=n,
        arcs=arcs,
        source=0,
        space=space,
        declared={WELL_POSED, HISTORY_FREE, WEAKLY_INDEPENDENT},
        max_iterations=max(4 * n, m + 1),
        name=f"kn-{n}-{m}",
    )


def _random_graph(rng: random.Random, n: int, acyclic: bool) -> list[tuple[int, int]]:
    chain = [(i, i + 1) for i in range(n - 1)]
    have = set(chain)
    candidates = [
        (i, j) for i in range(n) for j in range(i + 1 if acyclic else 0, n) if (i, j) not in have
    ]
    extra_count = min(len(candidates), rng.randint(1, n), 20 - len(chain))
    extras = rng.sample(candidates, extra_count) if extra_count > 0 else []
    return chain + extras


def random_instance(structure: str, seed: int) -> Instance:
    """A seeded instance of the given weight structure.

    Draws come in a fixed order: the vertex count, the graph, then the
    structure's own data.
    """
    if structure not in _STRUCTURES:
        raise ValueError(f"unknown structure {structure!r}")
    low, high, acyclic, extra = _STRUCTURES[structure]
    rng = random.Random(seed)
    n = rng.randint(low, high)
    arc_keys = _random_graph(rng, n, acyclic)
    mu = n - 1 if MU_BOUNDED in extra else None
    kind = structure.removesuffix("-max")
    if kind == "mosp":
        d = 2 if seed % 2 == 0 else 3
        space = weights.mosp_space(d, {key: [rng.randint(0, 9) for _ in range(d)] for key in arc_keys})
    elif kind == "bottleneck":
        costs = {
            key: (
                [rng.randint(0, 9), rng.randint(0, 9)],
                [rng.randint(1, 9), rng.randint(1, 9)],
            )
            for key in arc_keys
        }
        space = weights.bottleneck_space(2, 2, costs)
    elif kind == "subset":
        ground = 4
        sets = {key: rng.sample(range(1, ground + 1), rng.randint(0, 2)) for key in arc_keys}
        space = weights.subset_space(ground, sets)
    elif kind == "interval":
        alpha, beta = INTERVAL_SETTINGS[seed % len(INTERVAL_SETTINGS)]
        ivs = {}
        for key in arc_keys:
            w = Fraction(rng.randint(0, 4))
            ivs[key] = (w + Fraction(rng.randint(0, 5)), w)
        space = weights.interval_space(alpha, beta, ivs)
    elif kind == "fifo_time":
        tables = {}
        for key in arc_keys:
            taus = sorted(rng.sample(range(0, 9), rng.randint(1, 3)))
            bps = []
            prev_arrival = None
            for tau in taus:
                t = rng.randint(1, 6)
                if prev_arrival is not None and tau + t < prev_arrival:
                    t = prev_arrival - tau
                bps.append((Fraction(tau), Fraction(t)))
                prev_arrival = tau + t
            tables[key] = bps
        space = weights.fifo_time_space(Fraction(0), tables)
    elif kind == "wcspr":
        limit = rng.randint(6, 10)
        data = {key: (rng.randint(1, 5), rng.randint(0, limit), rng.random() < 0.3) for key in arc_keys}
        space = weights.wcspr_space(limit, data)
    elif kind == "evsp":
        roads = {key: (Fraction(rng.randint(1, 5)), Fraction(rng.randint(-2, 5), 10)) for key in arc_keys}
        stations = rng.sample(range(n), rng.randint(0, 2))
        curve_presets = (
            [(0, 0), (1, Fraction(6, 10)), (2, 1)],
            [(0, 0), (1, Fraction(7, 10)), (2, 1)],
        )
        curves = {v: curve_presets[rng.randint(0, 1)] for v in stations}
        arc_keys = arc_keys + [(v, v) for v in sorted(curves)]
        space = weights.evsp_space(
            initial_soc=Fraction(rng.randint(3, 10), 10),
            road_arcs=roads,
            station_curves=curves,
            epsilon=Fraction(1),
        )
        mu = 10
    else:
        lengths = {key: 2**i for i, key in enumerate(arc_keys)}
        total = sum(lengths.values())
        q = rng.randint(1, 2)
        cats = [rng.randint(0, q - 1) for _ in range(n)]
        vals = [rng.randint(0, 9) for _ in range(n)]
        space = weights.tourist_space(
            budget=total // 2 if structure == "tourist" else total + 1,
            vertex_values=vals,
            vertex_categories=cats,
            category_count=q,
            arc_lengths=lengths,
            source=0,
        )
    declared = {WELL_POSED, HISTORY_FREE, LEO_MONOTONE, *extra}
    return build_instance(n, arc_keys, 0, space, declared, mu=mu, name=f"{structure}-{seed}")
