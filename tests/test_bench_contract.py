"""Every name the benchmark's tracer wraps must exist in kal1.

``bench/tracer.py`` patches library functions and methods by name; a
change that deletes or renames one breaks the benchmark.  This imports
the tracer read-only (no bytecode is written under bench/) and resolves
each of its targets in the imported library.
"""

import functools
import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _import_tracer():
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path[:], sys.dont_write_bytecode = saved_path, saved_flag


tracer = _import_tracer()


@pytest.mark.parametrize("span", sorted(tracer.FUNCTIONS))
def test_traced_function_exists(span):
    mod, attr = tracer.FUNCTIONS[span]
    assert callable(getattr(importlib.import_module(mod), attr, None)), f"{mod}.{attr}"


@pytest.mark.parametrize("span", sorted(tracer.METHODS))
def test_traced_method_exists(span):
    mod, cls_name, attr = tracer.METHODS[span]
    cls = getattr(importlib.import_module(mod), cls_name)
    assert callable(cls.__dict__.get(attr)), f"{mod}.{cls_name}.{attr}"


def test_traced_binom_is_cached_property():
    _, mod, cls_name, attr = tracer.BINOM
    cls = getattr(importlib.import_module(mod), cls_name)
    assert isinstance(cls.__dict__.get(attr), functools.cached_property)
