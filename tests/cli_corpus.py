"""Digests of the CLI's output on a fixed corpus of documents.

The documents are the bundled fixtures and the seed-1 documents of the
`structure-docs` and `grid-mosp` benchmark workloads, rebuilt from
`perfbench/workloads.py`.  Every document goes through `solve` (automatic
choice, `--variant max`, forced `bellman` and `mda` in both variants, and
`--drop-infeasible` with the automatic choice and with forced `mda`) and
`recommend`, and every document but the grids through `check` and `oracle`,
in process, with `POSP_BUDGET` unset.  (On the grids those two take four
fifths of the corpus's time and exercise nothing the small documents do not.)

A run's digest covers its exit code, its stdout without the `statistics`
field, and its stderr.  The statistics get a digest of their own, so a change
to the solvers' work counters shows apart from a change to their output.

After an intended output change, rewrite tests/data/cli_corpus.json with

    python tests/cli_corpus.py
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORPUS = Path(__file__).resolve().parent / "data" / "cli_corpus.json"
SEED = 1

RUNS = (
    ("solve",),
    ("solve", "--variant", "max"),
    ("solve", "--algorithm", "bellman", "--force"),
    ("solve", "--algorithm", "bellman", "--force", "--variant", "max"),
    ("solve", "--algorithm", "mda", "--force"),
    ("solve", "--algorithm", "mda", "--force", "--variant", "max"),
    ("solve", "--drop-infeasible"),
    ("solve", "--algorithm", "mda", "--force", "--drop-infeasible"),
    ("recommend",),
)
AUDITS = (("check",), ("oracle",))

# The solve document's statistics object is flat: no braces inside it.
_STATISTICS = re.compile(r'"statistics":(\{[^{}]*\})')


def _workloads():
    """perfbench/workloads.py, which imports its siblings `gen` and `reference`
    by bare name; none of the three is left in sys.modules under that name."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
        for name in ("workloads", "gen", "reference"):
            sys.modules.pop(name, None)
    return workloads


def documents(workdir: Path) -> dict[str, str]:
    """Corpus document name -> path, writing the generated documents into `workdir`."""
    workloads = _workloads()
    paths: dict[str, str] = {}
    for workload in ("structure-docs", "grid-mosp"):
        for op in workloads.build_ops(workload, SEED, workdir, ROOT):
            paths[Path(op["doc"]).stem] = op["doc"]
    return dict(sorted(paths.items()))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_digests(main, path: str, command: tuple[str, ...]) -> list:
    """[digest of exit code, stdout without statistics and stderr; digest of the statistics or None]."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command[0], path, *command[1:]])
    stdout = out.getvalue()
    match = _STATISTICS.search(stdout)
    statistics = None
    if match is not None:
        statistics = _digest(match.group(1))
        stdout = stdout[: match.start()] + stdout[match.end() :]
    return [_digest(f"{code}\n{stdout}\n{err.getvalue()}"), statistics]


def corpus(main) -> dict[str, list]:
    """Run id ("<document> <command ...>") -> `run_digests` of that run."""
    with tempfile.TemporaryDirectory() as tmp:
        return {
            f"{name} {' '.join(command)}": run_digests(main, path, command)
            for name, path in documents(Path(tmp)).items()
            for command in RUNS + (() if name.startswith("grid-") else AUDITS)
        }


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    from posp import cli

    os.environ.pop("POSP_BUDGET", None)
    entries = corpus(cli.main)
    lines = (f"{json.dumps(run)}: {json.dumps(digests)}" for run, digests in sorted(entries.items()))
    CORPUS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(entries)} runs to {CORPUS.relative_to(ROOT)}")
