"""Seeded fuzzing of the CLI with mutated fixture documents.

Each document is one of the bundled fixtures with one or two mutations: a
key or list entry deleted, a value replaced by one from a small pool of JSON
values, or a numeric leaf nudged by one step.  The pool and the nudges keep
numbers small, so that no mutant asks for much more work than its fixture.
Every document goes through `solve`, `solve --variant max` (not forced),
`check`, `recommend` and `oracle --max-len 4`, in process.

A run passes when it ends with a documented exit code (0, 2, 3, 4 or 5)
and raises nothing out of `cli.main`, and an exit-2 run writes exactly one
line to stderr.  A run that takes longer than `ALARM_S` seconds fails too,
where the platform has `SIGALRM`.

    python tests/fuzz_documents.py SEED COUNT

prints a tally of exit codes and every failing run, and exits 1 when there
is one.  Document i of a seed is the same on every machine, so a failing
run is reproduced by its seed and index alone.
"""

from __future__ import annotations

import copy
import io
import json
import random
import signal
import sys
import tempfile
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = sorted((ROOT / "src" / "posp" / "fixtures").glob("*.json"))
COMMANDS = (
    ("solve",),
    ("solve", "--variant", "max"),
    ("check",),
    ("recommend",),
    ("oracle", "--max-len", "4"),
)
EXIT_CODES = (0, 2, 3, 4, 5)
ALARM_S = 5
POOL = (None, True, False, 0, 1, -1, 2, 0.5, "", "x", "1/2", [], {}, [0], [[0, 1]], {"a": 1})


def _places(node, out, where=()):
    """Every (container, key) under `node`, grouped by their path in the
    document with list indices left out, so that a field every arc has is
    one group and is drawn as often as a field the document has once."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        here = (*where, key if isinstance(node, dict) else "[]")
        out.setdefault(".".join(here).replace(".[]", "[]"), []).append((node, key))
        _places(child, out, here)
    return out


def _nudge(x, rng):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return rng.choice(POOL)
    return rng.choice((x - 1, x + 1, -x, x / 2))


def mutate(doc, rng):
    """`doc` with one or two mutations, and a description of each."""
    doc = copy.deepcopy(doc)
    done = []
    for _ in range(rng.choice((1, 1, 2))):
        places = _places(doc, {})
        if not places:
            break
        where = rng.choice(sorted(places))
        node, key = rng.choice(places[where])
        op = rng.choice(("delete", "replace", "nudge"))
        if op == "delete":
            del node[key]
            done.append(f"delete {where}")
        else:
            node[key] = rng.choice(POOL) if op == "replace" else _nudge(node[key], rng)
            done.append(f"{op} {where} -> {json.dumps(node[key])}")
    return doc, done


def documents(seed, count):
    """(index, fixture name, mutations, document) for the seed's first `count` mutants."""
    fixtures = [(path.name, json.loads(path.read_text())) for path in FIXTURES]
    for i in range(count):
        rng = random.Random(f"fuzz:{seed}:{i}")
        name, doc = rng.choice(fixtures)
        doc, done = mutate(doc, rng)
        yield i, name, done, doc


class _Alarm(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Alarm


def run(main, path, command):
    """(exit code or a failure's name, stderr) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    alarm = hasattr(signal, "SIGALRM")
    if alarm:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(ALARM_S)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command[0], str(path), *command[1:]])
    except _Alarm:
        code = "timeout"
    except SystemExit as exc:
        code = exc.code
    except Exception:  # any escape is what this looks for
        code = "traceback"
        err.write(traceback.format_exc())
    finally:
        if alarm:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


def fuzz(main, seed, count):
    """(Counter of exit codes, list of failing runs) over the seed's mutants."""
    codes, failures = Counter(), []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        for i, name, done, doc in documents(seed, count):
            path.write_text(json.dumps(doc))
            for command in COMMANDS:
                code, err = run(main, path, command)
                codes[code] += 1
                lines = err.splitlines()
                if code not in EXIT_CODES or (code == 2 and len(lines) != 1):
                    failures.append((seed, i, name, done, " ".join(command), code, lines[-3:]))
    return codes, failures


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python tests/fuzz_documents.py SEED COUNT")
    sys.path.insert(0, str(ROOT / "src"))
    from posp import cli

    codes, failures = fuzz(cli.main, int(sys.argv[1]), int(sys.argv[2]))
    print("exit codes:", dict(sorted(codes.items(), key=str)))
    for failure in failures:
        print("FAIL", json.dumps(failure, default=str))
    sys.exit(1 if failures else 0)
