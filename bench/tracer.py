"""Outside-in tracing of the kal1 library for the benchmark.

The tracer wraps public functions and methods of an imported kal1 from
the outside.  A module-level function is replaced under every name that
binds it in any ``kal1.*`` module namespace, so both
``kal1.gf2m.is_irreducible`` and the copy imported into ``kal1.goppa``
record spans.  Methods are replaced on their class.  Per-element calls
such as ``Field.mul`` stay unwrapped, which keeps the overhead small.

A span is ``(name, start_ns, end_ns, parent, op_id, outcome)``: parent
is the index of the enclosing span (-1 for an op's root span), op_id is
-1 for calls made between ops, and outcome is ``"ok"``, ``"true"``/``"false"`` for a bool result, or the
class name of the exception the call raised.  Spans stay in memory
until the run ends.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

# span name -> (module, attribute) of a module-level function
FUNCTIONS = {
    "gf2m.is_irreducible": ("kal1.gf2m", "is_irreducible"),
    "gf2m.sqrt_x_mod": ("kal1.gf2m", "sqrt_x_mod"),
    "gf2m.poly_inv_mod": ("kal1.gf2m", "poly_inv_mod"),
    "gf2m.poly_sqrt_mod": ("kal1.gf2m", "poly_sqrt_mod"),
    "gf2m.poly_eea_bounded": ("kal1.gf2m", "poly_eea_bounded"),
    "goppa.generate_code": ("kal1.goppa", "generate_code"),
    "binmat.random_permutation": ("kal1.binmat", "random_permutation"),
    "binmat.matrix_times_vec": ("kal1.binmat", "matrix_times_vec"),
    "binmat.vec_times_matrix": ("kal1.binmat", "vec_times_matrix"),
    "niederreiter.decrypt": ("kal1.niederreiter", "decrypt"),
    "scheme.draw_seed_row": ("kal1.scheme", "draw_seed_row"),
    "scheme.expand_cyclic": ("kal1.scheme", "expand_cyclic"),
    "scheme.decrypt_with": ("kal1.scheme", "decrypt_with"),
    "cw.cw_encode": ("kal1.cw", "cw_encode"),
    "cw.cw_decode": ("kal1.cw", "cw_decode"),
    "keyio.regenerate": ("kal1.keyio", "regenerate"),
    "keyio.load_private_key": ("kal1.keyio", "load_private_key"),
    "keyio.serialize_public_key": ("kal1.keyio", "serialize_public_key"),
    "keyio.parse_public_key": ("kal1.keyio", "parse_public_key"),
    "keyio.kat_verify": ("kal1.keyio", "kat_verify"),
    "cli.main": ("kal1.cli", "main"),
}

# span name -> (module, class, attribute) of a method
METHODS = {
    "rng.read": ("kal1.rng", "SeededRng", "read"),
    "binmat.permute_columns": ("kal1.binmat", "BinaryMatrix", "permute_columns"),
    "binmat.invert": ("kal1.binmat", "BinaryMatrix", "invert"),
    "binmat.mul": ("kal1.binmat", "BinaryMatrix", "mul"),
    "binmat.transpose": ("kal1.binmat", "BinaryMatrix", "transpose"),
    "binmat.rank": ("kal1.binmat", "BinaryMatrix", "rank"),
    "goppa.parity_check": ("kal1.goppa", "GoppaCode", "parity_check"),
    "goppa.syndrome_poly": ("kal1.goppa", "GoppaCode", "syndrome_poly"),
    "goppa.decode": ("kal1.goppa", "GoppaCode", "decode"),
    "goppa.syndrome": ("kal1.goppa", "ParityCheckMatrix", "syndrome"),
}

# the Pascal table is a cached_property, so the function that builds it is wrapped
BINOM = ("cw.binom_build", "kal1.cw", "CwParams", "_binom")

# (metric, unit, how it is read from the spans); "self" metrics are self
# time in ms per op, "calls" are calls per op
LAYER_METRICS = [
    ("rng.read.calls", "count", ("calls", "rng.read")),
    ("rng.read.ms", "ms", ("self", "rng.read")),
    ("gf2m.is_irreducible.calls", "count", ("calls", "gf2m.is_irreducible")),
    ("gf2m.is_irreducible.ms", "ms", ("self", "gf2m.is_irreducible")),
    ("gf2m.is_irreducible.accept_ratio", "ratio", ("outcome", "gf2m.is_irreducible", "true")),
    ("gf2m.sqrt_x_mod.ms", "ms", ("self", "gf2m.sqrt_x_mod")),
    ("goppa.generate_code.ms", "ms", ("self", "goppa.generate_code")),
    ("goppa.generate_code.resamples", "count", ("resamples",)),
    ("goppa.parity_check.ms", "ms", ("self", "goppa.parity_check")),
    ("niederreiter.perm_draws", "count", ("calls", "binmat.random_permutation")),
    ("scheme.draw_seed_row.ms", "ms", ("self", "scheme.draw_seed_row")),
    ("binmat.permute_columns.ms", "ms", ("self", "binmat.permute_columns")),
    ("binmat.invert.ms", "ms", ("self", "binmat.invert")),
    ("binmat.invert.singular_ratio", "ratio", ("outcome", "binmat.invert", "SingularMatrixError")),
    ("binmat.mul.ms", "ms", ("self", "binmat.mul")),
    ("binmat.transpose.ms", "ms", ("self", "binmat.transpose")),
    ("binmat.rank.ms", "ms", ("self", "binmat.rank")),
    ("gf2m.poly_inv_mod.ms", "ms", ("self", "gf2m.poly_inv_mod")),
    ("gf2m.poly_sqrt_mod.ms", "ms", ("self", "gf2m.poly_sqrt_mod")),
    ("gf2m.poly_eea_bounded.ms", "ms", ("self", "gf2m.poly_eea_bounded")),
    ("goppa.syndrome_poly.ms", "ms", ("self", "goppa.syndrome_poly")),
    ("goppa.decode.self_ms", "ms", ("self", "goppa.decode")),
    ("goppa.syndrome.ms", "ms", ("self", "goppa.syndrome")),
    ("goppa.decode.fail_ratio", "ratio", ("outcome", "goppa.decode", "DecodingFailure")),
    ("binmat.matrix_times_vec.ms", "ms", ("self", "binmat.matrix_times_vec")),
    ("niederreiter.decrypt.self_ms", "ms", ("self", "niederreiter.decrypt")),
    ("scheme.decrypt_with.self_ms", "ms", ("self", "scheme.decrypt_with")),
    ("cw.cw_encode.ms", "ms", ("self", "cw.cw_encode")),
    ("cw.cw_decode.ms", "ms", ("self", "cw.cw_decode")),
    ("cw.binom_build.count", "count", ("calls", "cw.binom_build")),
    ("cw.binom_build.ms", "ms", ("self", "cw.binom_build")),
    ("scheme.expand_cyclic.ms", "ms", ("self", "scheme.expand_cyclic")),
    ("binmat.vec_times_matrix.ms", "ms", ("self", "binmat.vec_times_matrix")),
    ("keyio.regenerate.ms", "ms", ("self", "keyio.regenerate")),
    ("keyio.load_private_key.self_ms", "ms", ("self", "keyio.load_private_key")),
    ("keyio.serialize_public_key.ms", "ms", ("self", "keyio.serialize_public_key")),
    ("keyio.parse_public_key.ms", "ms", ("self", "keyio.parse_public_key")),
    ("keyio.kat_verify.self_ms", "ms", ("self", "keyio.kat_verify")),
    ("cli.main.self_ms", "ms", ("self", "cli.main")),
    # the op's own span: work between the benchmark and the first wrapped call
    ("bench.op.self_ms", "ms", ("op_self",)),
]


class Tracer:
    """Records spans for calls into an imported kal1 while installed."""

    def __init__(self):
        self.spans: list = []
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[idx] = (name, start, perf_counter_ns(), parent, self.op_id, type(exc).__name__)
                raise
            finally:
                stack.pop()
            outcome = ("true" if result else "false") if type(result) is bool else "ok"
            spans[idx] = (name, start, perf_counter_ns(), parent, self.op_id, outcome)
            return result

        return traced

    def install(self) -> None:
        """Wrap every listed function and method of the imported kal1."""
        modules = [m for n, m in list(sys.modules.items()) if n == "kal1" or n.startswith("kal1.")]
        for name, (mod, attr) in FUNCTIONS.items():
            orig = getattr(sys.modules[mod], attr)
            traced = self.wrap(name, orig)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, key, traced)
                        self._undo.append((module, key, orig))
        for name, (mod, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules[mod], cls_name)
            orig = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(name, orig))
            self._undo.append((cls, attr, orig))
        name, mod, cls_name, attr = BINOM
        cls = getattr(sys.modules[mod], cls_name)
        orig = cls.__dict__[attr]
        traced = functools.cached_property(self.wrap(name, orig.func))
        traced.__set_name__(cls, attr)
        setattr(cls, attr, traced)
        self._undo.append((cls, attr, orig))

    def uninstall(self) -> None:
        while self._undo:
            target, key, orig = self._undo.pop()
            setattr(target, key, orig)


def span_cost_ms(calls: int = 2000) -> float:
    """What wrapping adds to one call, in ms: a trivial function timed
    traced and untraced, each the fastest of five rounds."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap("noop", noop)

    def fastest(fn) -> float:
        rounds = []
        for _ in range(5):
            start = perf_counter_ns()
            for _ in range(calls):
                fn()
            rounds.append(perf_counter_ns() - start)
            tracer.spans.clear()
        return min(rounds) / calls

    return (fastest(traced) - fastest(noop)) / 1e6


def self_times(spans) -> list[int]:
    """Self time in ns of every span: duration minus direct children."""
    child = [0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _, _) in enumerate(spans)]


def op_counts(spans) -> dict[int, Counter]:
    """Exact per-op counts that pin the work keygen does."""
    out: dict[int, Counter] = defaultdict(Counter)
    for name, _, _, parent, op_id, _ in spans:
        if name == "gf2m.is_irreducible":
            out[op_id]["is_irreducible_calls"] += 1
        elif name == "binmat.random_permutation":
            out[op_id]["perm_draws"] += 1
        elif name == "binmat.rank" and parent >= 0 and spans[parent][0] == "goppa.generate_code":
            out[op_id]["resamples"] += 1
        elif name == "goppa.generate_code":
            out[op_id]["resamples"] -= 1
    return out


def layer_metrics(spans, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each normalized per op; spans outside any op
    (op_id -1) are left out."""
    selfs = self_times(spans)
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    outcomes: Counter = Counter()
    op_self = 0
    for (name, _, _, parent, op_id, outcome), own in zip(spans, selfs):
        if op_id < 0:
            continue
        if parent < 0:
            op_self += own
            continue
        self_ns[name] += own
        calls[name] += 1
        outcomes[name, outcome] += 1
    resamples = sum(c["resamples"] for op_id, c in op_counts(spans).items() if op_id >= 0)
    per_op = max(n_ops, 1)
    out = {}
    for metric, unit, (kind, *args) in LAYER_METRICS:
        if kind == "self":
            value = self_ns[args[0]] / 1e6 / per_op
        elif kind == "calls":
            value = calls[args[0]] / per_op
        elif kind == "outcome":
            value = outcomes[args[0], args[1]] / calls[args[0]] if calls[args[0]] else 0.0
        elif kind == "resamples":
            value = resamples / per_op
        else:
            value = op_self / 1e6 / per_op
        out[metric] = (value, unit)
    return out
