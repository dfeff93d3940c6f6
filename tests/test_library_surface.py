"""Every function, method and class defined in src/kal1 has a caller there.

Library code that only tests use belongs in ``tests/``.  This parses
every module of the package with ``ast`` and collects the names that
code refers to (``name`` and ``obj.name``); a definition whose name
appears nowhere else in the package fails the test.  Dunder methods run
implicitly and are skipped.  Names that callers outside the package
need are allowed: ``kal1.__all__``, ``cli.main``, the public functions
of ``isd`` (the analysis entry points) and every target the benchmark's
tracer wraps.
"""

import ast
import importlib
import sys
from collections import Counter
from pathlib import Path

import kal1

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "kal1"
BENCH = ROOT / "bench"


def _import_tracer():
    # read-only, as test_bench_contract does: no bytecode under bench/
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path[:], sys.dont_write_bytecode = saved_path, saved_flag


def _allowed() -> set[str]:
    tracer = _import_tracer()
    allowed = set(kal1.__all__) | {"main"}
    allowed |= {attr for _, attr in tracer.FUNCTIONS.values()}
    allowed |= {attr for _, _, attr in tracer.METHODS.values()}
    allowed.add(tracer.BINOM[-1])
    isd = ast.parse((SRC / "isd.py").read_text())
    allowed |= {
        node.name
        for node in isd.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    return allowed


def _definitions_and_uses():
    """(defined name, module) pairs and a count of every referenced name."""
    defined = []
    used: Counter = Counter()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((node.name, path.name))
            elif isinstance(node, ast.Name):
                used[node.id] += 1
            elif isinstance(node, ast.Attribute):
                used[node.attr] += 1
    return defined, used


def test_every_definition_is_used_in_the_library():
    defined, used = _definitions_and_uses()
    allowed = _allowed()
    unused = sorted(
        f"{module}: {name}"
        for name, module in defined
        if not (name.startswith("__") and name.endswith("__"))
        and name not in allowed
        and not used[name]
    )
    assert not unused, "defined in src/kal1 but named nowhere else there:\n" + "\n".join(unused)

