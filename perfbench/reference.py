"""Computations made apart from the program, used to select and check inputs."""

from __future__ import annotations

import heapq
from collections import defaultdict


def arc_payloads(doc: dict) -> dict[tuple[int, int], object]:
    return {(a["tail"], a["head"]): a.get("payload") for a in doc["graph"]["arcs"]}


def walk_count(doc: dict, depth: int) -> int:
    """Number of source walks of at most `depth` arcs (the checkers' enumeration size)."""
    out = defaultdict(list)
    for a in doc["graph"]["arcs"]:
        out[a["tail"]].append(a["head"])
    counts = {doc["source"]: 1}
    total = 1
    for _ in range(depth):
        nxt: dict[int, int] = defaultdict(int)
        for v, c in counts.items():
            for h in out[v]:
                nxt[h] += c
        counts = nxt
        total += sum(counts.values())
    return total


def pareto_reference(doc: dict) -> list[list[tuple[int, ...]]]:
    """Per-vertex Pareto sets of an integer mosp document with positive costs.

    Martins-style label setting in lexicographic order on plain int tuples.
    An extracted label is permanent unless a permanent label at its vertex
    weakly dominates it.  Every permanent label was extracted no later in
    lexicographic order, so its first component is never larger; the
    dominance test therefore needs only the trailing components, and for two
    objectives it reduces to a running minimum of the second one.
    """
    n = doc["graph"]["vertex_count"]
    d = doc["weight_space"]["params"]["dimension"]
    out = defaultdict(list)
    for a in doc["graph"]["arcs"]:
        out[a["tail"]].append((a["head"], tuple(a["payload"])))
    perm: list[list[tuple[int, ...]]] = [[] for _ in range(n)]

    if d == 2:
        best = [None] * n

        def dominated(v, w):
            return best[v] is not None and best[v] <= w[1]

        def settle(v, w):
            perm[v].append(w)
            best[v] = w[1]

    else:

        def dominated(v, w):
            tail = w[1:]
            return any(all(p <= q for p, q in zip(p_w[1:], tail)) for p_w in perm[v])

        def settle(v, w):
            perm[v].append(w)

    heap = [((0,) * d, doc["source"])]
    while heap:
        w, v = heapq.heappop(heap)
        if dominated(v, w):
            continue
        settle(v, w)
        for h, c in out[v]:
            nw = tuple(x + y for x, y in zip(w, c))
            if not dominated(h, nw):
                heapq.heappush(heap, (nw, h))
    return perm


def path_problem(path: list[int], source: int, vertex: int, arcs: dict) -> str | None:
    """Why `path` is not a source path to `vertex` along document arcs, if it is not."""
    if not path or path[0] != source:
        return f"path {path} does not start at the source"
    if path[-1] != vertex:
        return f"path {path} does not end at vertex {vertex}"
    for step in zip(path, path[1:]):
        if step not in arcs:
            return f"path {path} uses {step}, which is not a document arc"
    return None
