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

MIN_STRUCTURES = (
    "mosp",
    "bottleneck",
    "subset",
    "interval",
    "fifo_time",
    "wcspr",
    "evsp",
    "tourist",
)
MAX_STRUCTURES = ("mosp-max", "tourist-max")

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


def _random_graph(
    rng: random.Random, n: int, acyclic: bool, allow_loops: bool = True
) -> list[tuple[int, int]]:
    chain = [(i, i + 1) for i in range(n - 1)]
    have = set(chain)
    if acyclic:
        candidates = [
            (i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in have
        ]
    else:
        candidates = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if (i, j) not in have and (allow_loops or i != j)
        ]
    extra_count = min(len(candidates), rng.randint(1, n), 20 - len(chain))
    extras = rng.sample(candidates, extra_count) if extra_count > 0 else []
    return chain + extras


def random_instance(structure: str, seed: int) -> Instance:
    """A seeded instance of the given weight structure."""
    rng = random.Random(seed)
    name = f"{structure}-{seed}"
    if structure in ("mosp", "mosp-max"):
        maximal = structure == "mosp-max"
        n = rng.randint(3, 7 if maximal else 8)
        arc_keys = _random_graph(rng, n, acyclic=maximal)
        d = 2 if seed % 2 == 0 else 3
        costs = {
            key: [rng.randint(0, 9) for _ in range(d)] for key in arc_keys
        }
        space = weights.mosp_space(d, costs)
        declared = {WELL_POSED, HISTORY_FREE, INDEPENDENT, ARC_INCREASING, LEO_MONOTONE}
        if maximal:
            declared |= {SUBPATH_OPTIMAL, MU_BOUNDED}
        return build_instance(n, arc_keys, 0, space, declared, mu=n - 1 if maximal else None, name=name)

    if structure == "bottleneck":
        n = rng.randint(3, 8)
        arc_keys = _random_graph(rng, n, acyclic=False)
        costs = {
            key: (
                [rng.randint(0, 9), rng.randint(0, 9)],
                [rng.randint(1, 9), rng.randint(1, 9)],
            )
            for key in arc_keys
        }
        space = weights.bottleneck_space(2, 2, costs)
        declared = {WELL_POSED, HISTORY_FREE, WEAKLY_INDEPENDENT, ARC_INCREASING, LEO_MONOTONE}
        return build_instance(n, arc_keys, 0, space, declared, name=name)

    if structure == "subset":
        n = rng.randint(3, 8)
        arc_keys = _random_graph(rng, n, acyclic=False)
        ground = 4
        sets = {
            key: rng.sample(range(1, ground + 1), rng.randint(0, 2)) for key in arc_keys
        }
        space = weights.subset_space(ground, sets)
        declared = {WELL_POSED, HISTORY_FREE, WEAKLY_INDEPENDENT, ARC_INCREASING, LEO_MONOTONE}
        return build_instance(n, arc_keys, 0, space, declared, name=name)

    if structure == "interval":
        n = rng.randint(3, 8)
        arc_keys = _random_graph(rng, n, acyclic=False)
        alpha, beta = INTERVAL_SETTINGS[seed % len(INTERVAL_SETTINGS)]
        ivs = {}
        for key in arc_keys:
            w = Fraction(rng.randint(0, 4))
            c = w + Fraction(rng.randint(0, 5))
            ivs[key] = (c, w)
        space = weights.interval_space(alpha, beta, ivs)
        declared = {WELL_POSED, HISTORY_FREE, INDEPENDENT, ARC_INCREASING, LEO_MONOTONE}
        return build_instance(n, arc_keys, 0, space, declared, name=name)

    if structure == "fifo_time":
        n = rng.randint(3, 8)
        arc_keys = _random_graph(rng, n, acyclic=False)
        tables = {}
        for key in arc_keys:
            count = rng.randint(1, 3)
            taus = sorted(rng.sample(range(0, 9), count))
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
        declared = {WELL_POSED, HISTORY_FREE, WEAKLY_INDEPENDENT, ARC_INCREASING, LEO_MONOTONE}
        return build_instance(n, arc_keys, 0, space, declared, name=name)

    if structure == "wcspr":
        n = rng.randint(3, 8)
        arc_keys = _random_graph(rng, n, acyclic=False)
        limit = rng.randint(6, 10)
        data = {}
        for key in arc_keys:
            data[key] = (
                rng.randint(1, 5),  # every arc costs something
                rng.randint(0, limit),
                rng.random() < 0.3,
            )
        space = weights.wcspr_space(limit, data)
        declared = {
            WELL_POSED,
            HISTORY_FREE,
            WEAKLY_INDEPENDENT,
            CYCLE_NON_DECREASING,
            LEO_MONOTONE,
        }
        return build_instance(n, arc_keys, 0, space, declared, name=name)

    if structure == "evsp":
        n = rng.randint(4, 6)
        road_keys = _random_graph(rng, n, acyclic=True)
        roads = {}
        for key in road_keys:
            t = Fraction(rng.randint(1, 5))
            delta = Fraction(rng.randint(-2, 5), 10)
            roads[key] = (t, delta)
        station_count = rng.randint(0, 2)
        stations = rng.sample(range(n), station_count) if station_count else []
        curve_presets = (
            [(0, 0), (1, Fraction(6, 10)), (2, 1)],
            [(0, 0), (1, Fraction(7, 10)), (2, 1)],
        )
        curves = {v: curve_presets[rng.randint(0, 1)] for v in stations}
        arc_keys = road_keys + [(v, v) for v in sorted(curves)]
        space = weights.evsp_space(
            initial_soc=Fraction(rng.randint(3, 10), 10),
            road_arcs=roads,
            station_curves=curves,
            epsilon=Fraction(1),
        )
        declared = {WELL_POSED, HISTORY_FREE, WEAKLY_INDEPENDENT, MU_BOUNDED, LEO_MONOTONE}
        return build_instance(n, arc_keys, 0, space, declared, mu=10, name=name)

    if structure in ("tourist", "tourist-max"):
        n = rng.randint(4, 7)
        arc_keys = _random_graph(rng, n, acyclic=True)
        lengths = {key: 2**i for i, key in enumerate(arc_keys)}
        total = sum(lengths.values())
        q = rng.randint(1, 2)
        cats = [rng.randint(0, q - 1) for _ in range(n)]
        vals = [rng.randint(0, 9) for _ in range(n)]
        if structure == "tourist":
            budget = total // 2
            declared = {WELL_POSED, HISTORY_FREE, WEAKLY_INDEPENDENT, MU_BOUNDED, LEO_MONOTONE}
        else:
            budget = total + 1
            declared = {
                WELL_POSED,
                HISTORY_FREE,
                WEAKLY_INDEPENDENT,
                SUBPATH_OPTIMAL,
                MU_BOUNDED,
                LEO_MONOTONE,
            }
        space = weights.tourist_space(
            budget=budget,
            vertex_values=vals,
            vertex_categories=cats,
            category_count=q,
            arc_lengths=lengths,
            source=0,
        )
        return build_instance(n, arc_keys, 0, space, declared, mu=n - 1, name=name)

    raise ValueError(f"unknown structure {structure!r}")
