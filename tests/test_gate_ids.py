"""Every test id the mutation gate names is a test.

``tests/mutants.py`` gives each mutant the ids of the tests that must
fail once it is in.  A deleted or renamed test would show only when the
gate runs, after a minute.  This resolves each id to a file under
``tests/`` and a top-level ``def`` in it, ignoring any ``[...]``
parameter suffix, and runs nothing of the gate.
"""

import ast
from pathlib import Path

from mutants import MUTANTS

TESTS = Path(__file__).resolve().parent


def test_every_gate_id_names_a_test_function():
    defs = {}
    missing = []
    for test_id in sorted({test for mutant in MUTANTS for test in mutant.tests}):
        path, name = test_id.split("[", 1)[0].split("::")
        if path not in defs:
            source = (TESTS / path).read_text() if (TESTS / path).is_file() else ""
            defs[path] = {node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
        if name not in defs[path]:
            missing.append(test_id)
    assert missing == []
