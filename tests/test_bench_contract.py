"""Every name the benchmark's tracer wraps must exist in kal1.

``bench/tracer.py`` patches library functions and methods by name; a
change that deletes or renames one breaks the benchmark.  This imports
the tracer read-only (no bytecode is written under bench/) and resolves
each of its targets in the imported library.  The benchmark also pins
how often keygen calls ``is_irreducible``, so the count per code is
checked here with the name wrapped the way the tracer wraps it.  The
Patterson layers the tracer times must stay the functions ``goppa``
calls, and a headline decode must call each of them, counted the same
way; so must a headline decrypt call the code's one syndrome, which the
tracer wraps under its old class name.  The warm encrypt/decrypt path must build no Pascal table.
"""

import functools
import importlib
import random
import sys
from collections import Counter

import pytest

from kal1 import gf2m, goppa, niederreiter, scheme
from kal1.cw import CwParams
from kal1.errors import Kal1Error
from kal1.goppa import CodeParams, GoppaCode, generate_code
from kal1.rng import SeededRng

import oracles
from conftest import MID, seed_bytes
from reach import import_tracer

tracer = import_tracer()
HEADLINE = CodeParams(1024, 524, 50, 10)


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


PATTERSON_LAYERS = ("poly_inv_mod", "poly_sqrt_mod", "poly_eea_bounded", "sqrt_x_mod")


def test_goppa_calls_the_traced_is_irreducible():
    assert goppa.is_irreducible is gf2m.is_irreducible


@pytest.mark.parametrize("name", PATTERSON_LAYERS)
def test_goppa_calls_the_traced_patterson_layers(name):
    assert getattr(goppa, name) is getattr(gf2m, name)
    assert tracer.FUNCTIONS[f"gf2m.{name}"] == ("kal1.gf2m", name)


def count_calls(monkeypatch, names) -> list[tuple]:
    """Wrap each gf2m function like the tracer does, in every kal1
    namespace that binds it; each call appends (name, args) to the
    returned list."""
    calls = []
    for attr in names:
        inner = getattr(gf2m, attr)

        def counted(*args, _inner=inner, _attr=attr):
            calls.append((_attr, args))
            return _inner(*args)

        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "kal1" and getattr(mod, attr, None) is inner:
                monkeypatch.setattr(mod, attr, counted)
    return calls


# is_irreducible calls per generate_code(MID, SeededRng(seed_bytes(tag))),
# one per Goppa candidate, as counted with the division-based test that
# oracles.is_irreducible keeps
MID_IRREDUCIBLE_CALLS = {6: 17, 11: 16}


@pytest.mark.parametrize("tag, expected", sorted(MID_IRREDUCIBLE_CALLS.items()))
def test_is_irreducible_calls_per_code(monkeypatch, tag, expected):
    calls = count_calls(monkeypatch, ["is_irreducible"])
    code = generate_code(MID, SeededRng(seed_bytes(tag)))
    assert len(calls) == expected
    assert calls[-1] == ("is_irreducible", (code.field, code.goppa_poly))


def test_headline_decode_calls_every_patterson_layer(monkeypatch):
    code = generate_code(HEADLINE, SeededRng(seed_bytes(0x15)))
    rnd = random.Random(15)
    errors = [sum(1 << i for i in rnd.sample(range(HEADLINE.n), HEADLINE.t)) for _ in range(2)]
    calls = count_calls(monkeypatch, PATTERSON_LAYERS)
    # the first decode finds sqrt(x) mod g, whose g1^-1 is a poly_inv_mod
    assert code.decode(code.syndrome(errors[0])) == errors[0]
    first = Counter(name for name, _ in calls)
    assert first == {"poly_inv_mod": 2, "sqrt_x_mod": 1, "poly_sqrt_mod": 1, "poly_eea_bounded": 1}
    calls.clear()
    assert code.decode(code.syndrome(errors[1])) == errors[1]
    warm = Counter(name for name, _ in calls)
    assert warm == {"poly_inv_mod": 1, "poly_sqrt_mod": 1, "poly_eea_bounded": 1}


def test_traced_syndrome_is_the_codes_one_syndrome(monkeypatch):
    # the tracer wraps ParityCheckMatrix.syndrome on its class; that name
    # is GoppaCode's, so goppa.syndrome.ms times every syndrome
    _, cls_name, attr = tracer.METHODS["goppa.syndrome"]
    cls = getattr(goppa, cls_name)
    assert cls.__dict__[attr] is GoppaCode.syndrome
    # wrapped like the tracer wraps it: on the class, around the original
    inner = cls.__dict__[attr]
    calls = []

    def counted(self, e):
        calls.append(e)
        return inner(self, e)

    monkeypatch.setattr(cls, attr, counted)
    priv = niederreiter.keygen_private(HEADLINE, SeededRng(seed_bytes(0x72)))
    nk = HEADLINE.redundancy
    c = sum(1 << i for i in random.Random(72).sample(range(nk), HEADLINE.t))
    assert niederreiter.decrypt(priv, c) == c << HEADLINE.k
    # the ciphertext's syndrome, then decode's recheck of the error found
    assert calls == [c << HEADLINE.k, c << HEADLINE.k]


def test_headline_round_trip_builds_no_pascal_table(monkeypatch):
    # wrapped like the tracer wraps it: a cached_property around a counting function
    _, mod, cls_name, attr = tracer.BINOM
    cls = getattr(importlib.import_module(mod), cls_name)
    inner = cls.__dict__[attr].func
    builds = []

    def counted(self):
        builds.append(self)
        return inner(self)

    traced = functools.cached_property(counted)
    traced.__set_name__(cls, attr)
    monkeypatch.setattr(cls, attr, traced)

    params = CodeParams(1024, 524, 50, 10)
    pub, priv = scheme.keygen(params, scheme.DenseSeed(), SeededRng(seed_bytes(0x71)))
    rnd = random.Random(7)
    msg = rnd.getrandbits(scheme.cw_params(params).msg_bits)
    assert scheme.decrypt(priv, scheme.encrypt(pub, msg)) == msg
    with pytest.raises(Kal1Error):
        scheme.decrypt(priv, rnd.getrandbits(params.redundancy))
    assert builds == []
    # the wrapper counts: the table oracle builds the table once
    oracles.table_cw_encode(0, CwParams(8, 2))
    assert len(builds) == 1
