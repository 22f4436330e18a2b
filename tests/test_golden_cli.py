"""The CLI's replies against the committed golden digests.

Each digest in ``tests/golden/cli_golden.json`` covers one argv's exit
code, stdout (``elapsed_ms`` blanked) and stderr.  A refactor of the CLI
must leave every one unchanged; a change that alters output on purpose
rewrites the file with ``tests/golden/make_cli_golden.py`` and says which
argv changed and why.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

_SCRIPT = Path(__file__).parent / "golden" / "make_cli_golden.py"
_spec = importlib.util.spec_from_file_location("make_cli_golden", _SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_cli_output_matches_golden_digests(monkeypatch):
    monkeypatch.delenv("SUBSETFACTOR_BUDGET", raising=False)
    expected = json.loads(golden.GOLDEN.read_text())
    changed = [key for key, want in expected.items() if golden.digest(tuple(json.loads(key))) != want]
    assert not changed, f"{len(changed)} of {len(expected)} argv changed output:\n" + "\n".join(changed)


def test_golden_argvs_are_the_committed_ones():
    assert [golden.key(argv) for argv in golden.golden_argvs()] == list(json.loads(golden.GOLDEN.read_text()))
