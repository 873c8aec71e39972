#!/usr/bin/env python3
"""Layered benchmark for posp.

Usage, from the repository root:

    python3 perfbench/run.py --workload grid-mosp --seed 1 --seconds 20 --trace 0

Each workload is a closed loop: one single-threaded caller runs one
operation at a time, in whole rounds of a fixed operation list, until
`--seconds` have passed and at least five rounds and 100 operations ran.
With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it runs
an untraced and a traced pass of half the time each and prints the
per-layer metrics (see tracer.py).  Outputs are checked after the timed
pass, apart from the program (workloads.py).  The last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.

Other tenants of a shared machine slow it by up to a half, in phases of
seconds and in drifts over minutes: the median of whole runs of one seed
moved by up to 60%.  Each operation's time is therefore its fastest over
the rounds of a run, and the end-to-end times are built from those.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
MIN_SAMPLES = 100
MIN_ROUNDS = 5
PROBE_TIMEOUT_S = 120


class Round(NamedTuple):
    times: list[float]  # seconds per operation
    failed: int
    layers: dict | None  # tracer totals of a traced round


def load_posp():
    """Import posp from this checkout's sources, never from elsewhere."""
    package = ROOT / "src" / "posp"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no posp sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import posp
    import posp.algorithms
    import posp.cli
    import posp.conditions
    import posp.generators

    if Path(posp.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"benchmark: imported posp from {posp.__file__}, not {package}")
    return posp


def comparable(outcome):
    """What must repeat exactly: exit code and stdout, or a solve's status and counters."""
    code, out = outcome
    if isinstance(out, str):
        return code, out
    return code, out.status, tuple(out.iteration_sizes), tuple(sorted(out.stats.to_dict().items()))


class Runner:
    """Runs whole rounds of operations and keeps the first round's outputs."""

    def __init__(self, posp, ops):
        self.posp = posp
        self.ops = ops
        self.kn = {
            i: posp.generators.kn_instance(op["n"], op["m"]) for i, op in enumerate(ops) if op["cmd"] == "kn"
        }
        self.first: list = [None] * len(ops)
        self.problems: list[str] = []

    def execute(self, i, op):
        if op["cmd"] == "kn":
            algorithms = self.posp.algorithms
            return 0, algorithms.bellman_solve(self.kn[i], algorithms.SolveMode.MIN)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.posp.cli.main(op["argv"])
        return code, out.getvalue()

    def record(self, i, outcome):
        if self.first[i] is None:
            self.first[i] = outcome
        elif comparable(outcome) != comparable(self.first[i]):
            self.problems.append(f"operation {i} gave a different result in a later round")

    def timed_pass(self, seconds, min_rounds, tracer=None) -> list[Round]:
        clock = time.perf_counter
        rounds = []
        start = clock()
        while True:
            if tracer is not None:
                tracer.reset_totals()
            failed = 0
            times = []
            for i, op in enumerate(self.ops):
                t0 = clock()
                if tracer is not None:
                    tracer.op = i
                    frame = tracer.open("op")
                try:
                    outcome = self.execute(i, op)
                except Exception as exc:  # a fault in the program: count it and go on
                    outcome = (None, f"{type(exc).__name__}: {exc}")
                    failed += 1
                finally:
                    if tracer is not None:
                        tracer.close(frame)
                times.append(clock() - t0)
                self.record(i, outcome)
            rounds.append(Round(times, failed, None if tracer is None else tracer.agg))
            if clock() - start >= seconds and len(rounds) >= min_rounds:
                return rounds

    def check(self):
        """Check every first-round output; returns the list of problems."""
        problems = list(self.problems)
        for i, (op, (code, out)) in enumerate(zip(self.ops, self.first)):
            if code is None:
                continue
            kind = op["check"]
            try:
                if kind == "grid":
                    problems += workloads.check_grid(op, code, out)
                elif kind == "kn":
                    problems += workloads.check_kn(op, out)
                elif kind == "oracle":
                    problems += workloads.check_oracle(op, code, out, self.posp)
                else:
                    problems += workloads.check_audit(op, code, out)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems.append(f"operation {i}: output not in the expected form: {exc!r}")
        return problems

    def solver_seconds(self, rounds):
        """Summed best times of the operations each solver ran."""
        algorithm = []
        for op, (code, out) in zip(self.ops, self.first):
            if op["cmd"] == "kn":
                algorithm.append("bellman")
            elif code is not None and op["argv"][0] == "solve":
                algorithm.append(json.loads(out)["algorithm"])
            else:
                algorithm.append(None)
        best = best_times(rounds)
        return {name: sum(t for t, a in zip(best, algorithm) if a == name) for name in ("bellman", "mda")}


def best_times(rounds) -> list[float]:
    """Each operation's fastest time over the rounds."""
    return [min(times) for times in zip(*(r.times for r in rounds))]


def counts(rounds, ops):
    return len(ops) * len(rounds), sum(r.failed for r in rounds)


def machine_note() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return f"cpu={cpu}; nproc={os.cpu_count()}; python={platform.python_version()}"


def probe_setup(workload, seed, workdir) -> float:
    """Seconds from starting a fresh interpreter until it is ready to time operations."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(workdir)]
    cmd += ["--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    if code != 0 or line.strip() != "ready":
        raise SystemExit(f"benchmark: set-up probe failed with exit code {code}")
    return elapsed


def setup_probe(args) -> None:
    posp = load_posp()
    ops = workloads.build_ops(args.workload, args.seed, args.setup_probe, ROOT)
    Runner(posp, ops)  # builds the kn instances, as the measuring process does
    (args.setup_probe / "manifest.json").write_text(json.dumps(ops))
    print("ready", flush=True)


def run_plain(args, workdir):
    setup = [probe_setup(args.workload, args.seed, workdir) for _ in range(SETUP_REPEATS)]
    posp = load_posp()
    ops = json.loads((workdir / "manifest.json").read_text())
    runner = Runner(posp, ops)
    gc.collect()
    rounds = runner.timed_pass(args.seconds, max(MIN_ROUNDS, math.ceil(MIN_SAMPLES / len(ops))))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = runner.check()
    best = best_times(rounds)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(best), "s"),
        "op_ms_p50": (1000 * statistics.median(best), "ms"),
        "op_ms_p90": (1000 * statistics.quantiles(best, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    note = f"{len(rounds)} rounds of {len(ops)} operations; {len(setup)} set-ups"
    return problems, counts(rounds, ops), metrics, note


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name == "trace.overhead":
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def run_traced(args, workdir):
    posp = load_posp()
    ops = workloads.build_ops(args.workload, args.seed, workdir, ROOT)
    half = args.seconds / 2
    plain = Runner(posp, ops)
    gc.collect()
    plain_rounds = plain.timed_pass(half, 2)

    tracer = tracing.Tracer()
    tracer.install(posp)
    try:
        frame = tracer.open("setup")
        traced = Runner(posp, ops)
        tracer.close(frame)
        setup_layers = tracer.agg
        gc.collect()
        traced_rounds = traced.timed_pass(half, 2, tracer)
    finally:
        tracer.uninstall()
    tracer.write_spans(ROOT / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl")

    problems = plain.check() + traced.problems
    output_bytes = 0
    for i, (a, b) in enumerate(zip(plain.first, traced.first)):
        if comparable(a) != comparable(b):
            problems.append(f"operation {i}: traced output differs from the untraced one")
        if a[0] is not None and isinstance(a[1], str):
            output_bytes += len(a[1].encode())

    per_round = [tracing.layer_metrics(r.layers) for r in traced_rounds]
    metrics = {}
    for name, value in per_round[0].items():
        if name.endswith("_s"):
            value = statistics.median(r[name] for r in per_round)
        elif any(r[name] != value for r in per_round):
            problems.append(f"per-layer count {name} changed between traced rounds")
        metrics[name] = value
    untraced_wall = sum(best_times(plain_rounds))
    traced_wall = sum(best_times(traced_rounds))
    solver = plain.solver_seconds(plain_rounds)
    metrics.update(
        {
            "cli.output_bytes": output_bytes,
            "generators.kn_instance_s": setup_layers["generators.kn_instance"].seconds,
            "bellman_s": solver["bellman"],
            "mda_s": solver["mda"],
            "trace.untraced_wall_s": untraced_wall,
            "trace.traced_wall_s": traced_wall,
            "trace.overhead": traced_wall / untraced_wall,
        }
    )
    note = (
        f"{len(plain_rounds)} untraced and {len(traced_rounds)} traced rounds of {len(ops)} operations; "
        f"{len(tracer.spans)} spans"
    )
    return problems, counts(plain_rounds + traced_rounds, ops), {k: (v, unit_of(k)) for k, v in metrics.items()}, note


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe is not None:
        setup_probe(args)
        return 0

    if not (ROOT / "src" / "posp" / "__init__.py").is_file():
        print(f"benchmark: no posp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_out" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = run_traced if args.trace else run_plain
        problems, (attempted, failed), metrics, note = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems[:20]:
        print(f"benchmark: check failed: {problem}", file=sys.stderr)
    print(f"# machine: {machine_note()}")
    print(f"# {args.workload} seed {args.seed}: {note}; attempted {attempted}, failed {failed}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
