"""Every function, method and class defined in src/kal1 has a caller
there, and every parameter default is an option the library uses.

Library code that only tests use belongs in ``tests/``.  This parses
every module of the package with ``ast`` and collects the names that
code refers to (``name`` and ``obj.name``); a definition whose name
appears nowhere else in the package fails the test.  Dunder methods run
implicitly and are skipped.  Names that callers outside the package
need are allowed: ``kal1.__all__``, ``cli.main``, the public functions
of ``isd`` (the analysis entry points) and every target the benchmark's
tracer wraps.

A parameter with a default is an option.  It fails when no call in the
package passes it (the default is its only value) or when every call
does (the default is dead, and a single constant is no option at all).
Calls are matched to definitions by name, ``Cls(...)`` to
``Cls.__init__``, with the same allow-list but for ``isd``: its entry
points are called from the CLI and the tests alone, so an option of
theirs that the CLI never passes is one only tests set.
"""

import ast
from collections import Counter
from pathlib import Path

import kal1

from reach import import_tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "kal1"


def _allowed() -> set[str]:
    tracer = import_tracer()
    allowed = set(kal1.__all__) | {"main"}
    allowed |= {attr for _, attr in tracer.FUNCTIONS.values()}
    allowed |= {attr for _, _, attr in tracer.METHODS.values()}
    allowed.add(tracer.BINOM[-1])
    return allowed


def _isd_entry_points() -> set[str]:
    isd = ast.parse((SRC / "isd.py").read_text())
    return {
        node.name
        for node in isd.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }


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
    allowed = _allowed() | _isd_entry_points()
    unused = sorted(
        f"{module}: {name}"
        for name, module in defined
        if not (name.startswith("__") and name.endswith("__"))
        and name not in allowed
        and not used[name]
    )
    assert not unused, "defined in src/kal1 but named nowhere else there:\n" + "\n".join(unused)



def _options():
    """(callable name, parameter, positional index or None, module) for
    every parameter with a default; methods and __init__ count their
    positional parameters after self."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owners = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    owners[item] = node.name
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            owner = owners.get(node)
            name = owner if node.name == "__init__" else node.name
            args = node.args
            positional = args.posonlyargs + args.args
            if owner is not None:
                positional = positional[1:]
            for i, arg in enumerate(positional):
                if i >= len(positional) - len(args.defaults):
                    out.append((name, arg.arg, i, path.name))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    out.append((name, arg.arg, None, path.name))
    return out


def _calls() -> dict[str, list[ast.Call]]:
    calls: dict[str, list[ast.Call]] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, param: str, index: int | None) -> bool:
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if index is None:
        return False
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index < len(call.args)


def test_every_default_is_a_used_option():
    allowed = _allowed()
    calls = _calls()
    bad = []
    for name, param, index, module in _options():
        if name in allowed:
            continue
        sites = calls.get(name, [])
        passing = sum(_passes(c, param, index) for c in sites)
        if passing == 0:
            bad.append(f"{module}: {name}({param}) is never passed")
        elif passing == len(sites):
            bad.append(f"{module}: {name}({param}) is passed by every call, so its default is dead")
    assert not bad, "one-value options in src/kal1:\n" + "\n".join(bad)
