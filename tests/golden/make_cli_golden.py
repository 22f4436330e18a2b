"""Write cli_golden.json: one SHA-256 per CLI argv, over the exit code,
stdout with the ``elapsed_ms`` value blanked, and stderr.

The argv cover every command, in human and ``--json`` form, on every
catalog group and on S4, Heis3 and C4xC4: ``factor`` on one seeded random
subset per size (every divisor; up to 4 on the extra groups) in every
``--side`` and ``--all`` form, ``strong-cfs`` with ``--budget 1`` and
``--canon L2``, ``tilde`` at every divisor and at n+1, and the usage-error
paths.  The digests freeze the
output of the code that wrote them, faults included: they guard
refactors and are not an oracle.

Run from the repository root, with the code to freeze on the path:

    PYTHONPATH=src python tests/golden/make_cli_golden.py

``tests/test_golden_cli.py`` recomputes every digest and names each argv
whose digest differs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
from pathlib import Path

from subsetfactor.cli import main
from subsetfactor.groups import SMALL_GROUP_CATALOG
from subsetfactor.notation import group_from_string, subset_words
from subsetfactor.subsets import Subset

GOLDEN = Path(__file__).with_name("cli_golden.json")
SEED = 20
EXTRA_GROUPS = ("S4", "Heis3", "C4xC4")
EXTRA_MAX_D = 4  # on the extra groups, lagrange at larger sizes takes seconds
FACTOR_FORMS = (
    (),
    ("--side", "left"),
    ("--side", "right"),
    ("--side", "both"),
    ("--side", "same"),
    ("--side", "left", "--all"),
    ("--side", "right", "--all"),
)
ERRORS = (
    ("factor", "C4", "--set=1,1", "--side", "left", "--all"),
    ("info", "C5000"),
    ("factor", "C4"),
    ("factor", "Zog", "--set", "1"),
    ("strong-cfs", "C8", "--budget", "-5"),
    ("lagrange", "C6", "-d", "4"),
    ("frobnicate",),
)
ELAPSED = re.compile(r'"elapsed_ms": [-+.e0-9]+')


def _random_subset(g, d: int, rng: random.Random) -> Subset:
    others = [x for x in range(g.order) if x != g.identity]
    if rng.random() < 0.8:  # mostly identity-containing; the rest take the hole path
        members = [g.identity, *rng.sample(others, d - 1)]
    else:
        members = rng.sample(range(g.order), d)
    return Subset.from_indices(g.order, members)


def golden_argvs() -> list[tuple[str, ...]]:
    rng = random.Random(SEED)
    catalog = [spec for _, spec in SMALL_GROUP_CATALOG]
    argvs: list[tuple[str, ...]] = [("verify-paper",), ("catalog",)]
    for spec in catalog + list(EXTRA_GROUPS):
        g = group_from_string(spec)
        n = g.order
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        argvs += [
            ("info", spec),
            ("strong-cfs", spec),
            ("strong-cfs", spec, "--budget", "1"),
            ("strong-cfs", spec, "--canon", "L2"),
            ("cfs", spec),
        ]
        sizes = divisors if spec in catalog else [d for d in divisors if d <= EXTRA_MAX_D]
        argvs += [("lagrange", spec, "-d", str(d)) for d in sizes]
        argvs += [("ball", spec, "-r", str(r)) for r in range(4)]
        argvs += [("tilde", spec, "-d", str(d)) for d in divisors + [n + 1]]
        for d in sizes:
            words = ",".join(subset_words(g, _random_subset(g, d, rng)))
            argvs += [("factor", spec, f"--set={words}", *form) for form in FACTOR_FORMS]
            argvs.append(("same-complement", spec, f"--set={words}"))
    argvs += ERRORS
    return [argv + tail for argv in argvs for tail in ((), ("--json",))]


def digest(argv: tuple[str, ...]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    stdout = ELAPSED.sub('"elapsed_ms": 0', out.getvalue())
    return hashlib.sha256(f"{code}\0{stdout}\0{err.getvalue()}".encode()).hexdigest()


def key(argv: tuple[str, ...]) -> str:
    return json.dumps(list(argv))


if __name__ == "__main__":
    os.environ.pop("SUBSETFACTOR_BUDGET", None)
    digests = {key(argv): digest(argv) for argv in golden_argvs()}
    GOLDEN.write_text(json.dumps(digests, indent=0) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
