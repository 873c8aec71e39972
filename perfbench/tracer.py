"""Per-layer tracing from outside the program.

`Tracer.install` replaces public functions of the `posp` modules with
wrappers that open a span around each call, and wraps the weight space that
`cli.build_space` (or `generators.kn_instance`) returns so that every
`update`, `comparator` and `leo_key` call is counted and timed.  These hot
calls are not spans of their own: their counts and time go to the innermost
open span and roll up into its ancestors when it closes.  Finished spans stay
in memory until `write_spans` is called once at the end of the run.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import time
from collections import defaultdict

HOT = ("update", "compare", "leo_key")


class Frame:
    __slots__ = ("id", "parent", "name", "start", "hot_n", "hot_t", "counts")

    def __init__(self, span_id, parent, name, start):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.hot_n = [0, 0, 0]
        self.hot_t = [0.0, 0.0, 0.0]
        self.counts = defaultdict(int)


class Aggregate:
    """Totals for one span name, counting only outermost calls of that name."""

    __slots__ = ("calls", "seconds", "hot_n", "hot_t", "counts")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.hot_n = [0, 0, 0]
        self.hot_t = [0.0, 0.0, 0.0]
        self.counts = defaultdict(int)


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[tuple] = []
        self.op = -1
        self._ids = 0
        self._depth: dict[str, int] = defaultdict(int)
        self._restore: list[tuple] = []
        self.stack = [Frame(0, None, "run", self.clock())]
        self.agg: dict[str, Aggregate] = defaultdict(Aggregate)

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> Frame:
        self._ids += 1
        frame = Frame(self._ids, self.stack[-1].id, name, self.clock())
        self.stack.append(frame)
        self._depth[name] += 1
        return frame

    def close(self, frame: Frame) -> None:
        end = self.clock()
        self.stack.pop()
        parent = self.stack[-1]
        for i in range(3):
            parent.hot_n[i] += frame.hot_n[i]
            parent.hot_t[i] += frame.hot_t[i]
        for key, value in frame.counts.items():
            parent.counts[key] += value
        self._depth[frame.name] -= 1
        seconds = end - frame.start
        if self._depth[frame.name] == 0:
            agg = self.agg[frame.name]
            agg.calls += 1
            agg.seconds += seconds
            for i in range(3):
                agg.hot_n[i] += frame.hot_n[i]
                agg.hot_t[i] += frame.hot_t[i]
            for key, value in frame.counts.items():
                agg.counts[key] += value
        self.spans.append((frame.id, frame.parent, self.op, frame.name, frame.start, end))

    def reset_totals(self) -> None:
        self.agg = defaultdict(Aggregate)

    # -- wrapping ----------------------------------------------------------

    def _replace(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, owners, attr, name, on_result=None, after=None):
        """Span every call of `attr` on each of `owners` (they share one original)."""
        original = getattr(owners[0], attr)
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer.open(name)
            try:
                result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(frame, result)
            finally:
                tracer.close(frame)
            return after(result) if after is not None else result

        for owner in owners:
            self._replace(owner, attr, wrapper)

    def hot(self, fn, index):
        clock = self.clock
        stack = self.stack

        def traced(*args):
            t0 = clock()
            result = fn(*args)
            frame = stack[-1]
            frame.hot_t[index] += clock() - t0
            frame.hot_n[index] += 1
            return result

        return traced

    def traced_space(self, space):
        return dataclasses.replace(
            space,
            update=self.hot(space.update, 0),
            comparator=self.hot(space.comparator, 1),
            leo_key=None if space.leo_key is None else self.hot(space.leo_key, 2),
        )

    def install(self, posp) -> None:
        cli, algorithms, conditions, generators = (
            posp.cli,
            posp.algorithms,
            posp.conditions,
            posp.generators,
        )
        tracer = self
        self.wrap([cli], "build_parser", "cli.build_parser")
        self.wrap([cli], "_load_document", "cli.load")
        self.wrap([cli], "parse_instance", "cli.parse_instance")
        # build_space recurses for product spaces; wrap only the outermost result.
        self.wrap(
            [cli],
            "build_space",
            "cli.build_space",
            after=lambda space: space if tracer._depth["cli.build_space"] else tracer.traced_space(space),
        )
        self.wrap([cli], "_frontier_docs", "cli.render")
        self.wrap([cli], "_emit", "cli.emit")
        self.wrap([cli, generators], "build_instance", "core.build_instance")
        self.wrap(
            [generators],
            "kn_instance",
            "generators.kn_instance",
            after=lambda inst: dataclasses.replace(inst, space=tracer.traced_space(inst.space)),
        )

        def solve_stats(frame, result):
            frame.counts["rounds"] += result.stats.iterations
            frame.counts["extractions"] += result.stats.extractions
            frame.counts["insertions"] += result.stats.insertions

        self.wrap([cli, algorithms], "bellman_solve", "algorithms.bellman", on_result=solve_stats)
        self.wrap([cli], "mda_solve", "algorithms.mda", on_result=solve_stats)

        def enum_nodes(frame, result):
            frame.counts["nodes"] += result[1]

        self.wrap([algorithms, conditions], "enumerate_source_paths", "algorithms.enumerate", on_result=enum_nodes)
        for checker in (
            "check_history_free",
            "check_independence",
            "check_monotonicity",
            "check_subpath_optimality",
            "check_linear_extension",
        ):
            self.wrap([cli], checker, f"conditions.{checker}")
        self.wrap([cli], "permitted_algorithms", "conditions.table")
        self.wrap([cli], "evaluate_table", "conditions.table")
        self.wrap([conditions.PropertySet], "closed", "conditions.table")

        leo_pick = conditions.leo_pick

        def counted_leo_pick(space, a, b):
            tracer.stack[-1].counts["leo_picks"] += 1
            return leo_pick(space, a, b)

        self._replace(conditions, "leo_pick", counted_leo_pick)

        label_cls = algorithms.Label

        def counted_label(*args, **kwargs):
            tracer.stack[-1].counts["labels"] += 1
            return label_cls(*args, **kwargs)

        self._replace(algorithms, "Label", counted_label)
        self._replace(algorithms, "heapq", CountingHeap(self))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "op": op, "name": name, "start": start, "end": end}
                    )
                    + "\n"
                )


class CountingHeap:
    """Stand-in for the `heapq` module inside `posp.algorithms`.

    The label-setting solver keeps its queue entries as lists and its parked
    labels as tuples, which tells the two heaps apart; a queue entry whose
    label slot is None was displaced and is popped stale.
    """

    def __init__(self, tracer: Tracer):
        self._stack = tracer.stack

    def heappush(self, heap, item):
        self._stack[-1].counts["heap_pushes" if type(item) is list else "parked_pushes"] += 1
        heapq.heappush(heap, item)

    def heappop(self, heap):
        item = heapq.heappop(heap)
        counts = self._stack[-1].counts
        if type(item) is list:
            counts["heap_pops"] += 1
            if item[3] is None:
                counts["stale_pops"] += 1
        else:
            counts["parked_pops"] += 1
        return item


def layer_metrics(agg: dict[str, Aggregate]) -> dict[str, float]:
    """Per-layer figures for one round from the span totals."""

    def a(name):
        return agg.get(name) or Aggregate()

    out: dict[str, float] = {}
    for key, name in (
        ("build_parser", "cli.build_parser"),
        ("load", "cli.load"),
        ("parse_instance", "cli.parse_instance"),
        ("build_space", "cli.build_space"),
        ("render", "cli.render"),
        ("emit", "cli.emit"),
    ):
        out[f"cli.{key}_s"] = a(name).seconds
    op = a("op")
    for i, hot in enumerate(HOT):
        out[f"weights.{hot}_calls"] = op.hot_n[i]
        out[f"weights.{hot}_s"] = op.hot_t[i]

    bell = a("algorithms.bellman")
    created = bell.counts["labels"]
    out.update(
        {
            "algorithms.bellman.rounds": bell.counts["rounds"],
            "algorithms.bellman.updates": bell.hot_n[0],
            "algorithms.bellman.comparisons": bell.hot_n[1],
            "algorithms.bellman.labels_created": created,
            "algorithms.bellman.insertions": bell.counts["insertions"],
            "algorithms.bellman.useful_ratio": bell.counts["insertions"] / created if created else 0.0,
            "algorithms.bellman.self_s": bell.seconds - sum(bell.hot_t),
        }
    )
    mda = a("algorithms.mda")
    out.update(
        {
            "algorithms.mda.extractions": mda.counts["extractions"],
            "algorithms.mda.updates": mda.hot_n[0],
            "algorithms.mda.comparisons": mda.hot_n[1],
            "algorithms.mda.labels_created": mda.counts["labels"],
            "algorithms.mda.heap_pushes": mda.counts["heap_pushes"],
            "algorithms.mda.heap_pops": mda.counts["heap_pops"],
            "algorithms.mda.stale_pops": mda.counts["stale_pops"],
            "algorithms.mda.parked_pushes": mda.counts["parked_pushes"],
            "algorithms.mda.self_s": mda.seconds - sum(mda.hot_t),
        }
    )
    enum = a("algorithms.enumerate")
    out["algorithms.enumerate.calls"] = enum.calls
    out["algorithms.enumerate.nodes"] = enum.counts["nodes"]
    out["algorithms.enumerate_s"] = enum.seconds
    for checker in (
        "check_history_free",
        "check_independence",
        "check_monotonicity",
        "check_subpath_optimality",
        "check_linear_extension",
    ):
        out[f"conditions.{checker}_s"] = a(f"conditions.{checker}").seconds
    out["conditions.leo_picks"] = op.counts["leo_picks"]
    out["conditions.table_s"] = a("conditions.table").seconds
    out["core.build_instance_s"] = a("core.build_instance").seconds
    return out
