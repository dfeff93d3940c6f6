"""Mutation gate for the fast kernels: do the differential tests bite?

    python tests/mutants.py

Each mutant is one exact snippet in one module of src/kal1, what
replaces it, and the test ids that must fail once it is in.  For each
mutant the runner copies src/kal1 to a temporary directory, applies the
mutant there, and runs only its tests against the copy (the copy comes
first on PYTHONPATH; the runner checks that it is the one imported).
A mutant is killed when a test fails.  Before any mutant, the union of
the tests runs once on the unmutated copy and must pass, so a kill is
the mutant's doing; a mutant's run times out at twice that run's time
(at least 10 s), since its tests are a subset.  A mutant that times
out is reported as such and fails the gate: the Euclid test bounds each
example by an alarm, so a division that never cancels its top
coefficient fails there by assertion.  Every run of one invocation
writes its bytecode under one PYTHONPYCACHEPREFIX, a temporary
directory removed at exit, so the tests compile once, not per mutant.

The exit status is 1 if any mutant survives or times out, if a
snippet no longer occurs exactly once in its module, or if a run errs
otherwise (say, a test id that no longer exists).  Only the standard
library is used; the tests themselves need pytest and hypothesis, run
with a fixed hypothesis seed so that a verdict does not change from run
to run, and under conftest's "mutants" profile, which does not shrink a
failure and stops at the first failing example.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kal1"
MIN_TIMEOUT_S = 10


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/kal1
    snippet: str  # must occur exactly once in the module
    replacement: str
    tests: tuple[str, ...]  # ids under tests/, any of which must fail


EUCLID = "test_fast_kernels.py::test_packed_euclid_matches_oracle"
DIVMOD = "test_fast_kernels.py::test_poly_divmod_matches_oracle"
INV = "test_fast_kernels.py::test_poly_inv_mod_matches_oracle"
CONSTANT_G = "test_fast_kernels.py::test_poly_inv_mod_refuses_a_constant_modulus"
BUILT = "test_root_screen.py::test_is_irreducible_decides_each_labelled_case_like_the_oracle"
PLANES = "test_root_screen.py::test_power_planes_hold_f_at_every_element"
MUL_MOD = "test_fast_kernels.py::test_packed_mul_mod_matches_oracle"
DRAWS = "test_keygen_kernels.py::test_permutation_and_sample_match_the_unbuffered_oracle"
INTERLEAVED = "test_keygen_kernels.py::test_interleaved_draws_match_the_unbuffered_oracle"
ROW_COUNT = "test_keygen_kernels.py::test_eliminate_matches_oracle_at_every_row_count"
EDGES = "test_root_screen.py::test_packed_planes_and_irreducibility_match_the_list_oracles_at_the_edges"
SQUARES = "test_fast_kernels.py::test_squares_matches_oracle"
FROBENIUS = "test_fast_kernels.py::test_squares_and_sqrt_halves_match_their_oracles_at_every_m"
CODEC = "test_root_screen.py::test_codec_round_trips_with_the_old_bytes"
VALIDATIONS = "test_values.py::test_constructor_validation_messages"
WIRE_PROPERTY = "test_untrusted_input.py::test_a_kal1_key_is_refused_when_built_or_written_or_reads_back"
PRIVATE_IN_PLACE = "test_niederreiter.py::test_a_private_key_keeps_its_support_and_check"
REFUSAL = "test_keyio.py::test_each_refusal_is_raised_by_its_reader"

MUTANTS = [
    # the one Euclid loop and its set-bit tables
    Mutant(
        "bit-table-hi-offset",
        "gf2m.py",
        "bytes(lo_bits + s for s in b)",
        "bytes(s for s in b)",
        (PLANES, EUCLID),
    ),
    Mutant(
        "lead-inverse-sign",
        "gf2m.py",
        "lead_inv = q1 - log[b >> (m * db)]",
        "lead_inv = log[b >> (m * db)] - q1",
        (EUCLID,),
    ),
    Mutant(
        # the dividend's degree stepped down by one, not re-read: it goes
        # stale when a step cancels more than its top, and so does the
        # divisor degree carried to the next round
        "stale-carried-degree",
        "gf2m.py",
        "            d = (a.bit_length() - 1) // m\n        # a mod b",
        "            d -= 1\n        # a mod b",
        (EUCLID, DIVMOD),
    ),
    Mutant(
        "tops-one-coefficient-short",
        "gf2m.py",
        "tops = ((1 << m * ((a | b).bit_length() // m + 1)) - 1)",
        "tops = ((1 << m * ((a | b).bit_length() // m)) - 1)",
        (EUCLID,),
    ),
    Mutant(
        "euclid-stops-one-coefficient-early",
        "gf2m.py",
        "s + m * (dbound + 1))",
        "s + m * dbound)",
        (EUCLID,),
    ),
    Mutant(
        "gcd-zero-product-as-coprime",
        "gf2m.py",
        "if not _euclid(field, f, product, m * first)[1]:",
        "if product and not _euclid(field, f, product, m * first)[1]:",
        (BUILT,),
    ),
    Mutant(
        # a gcd of the block's first degree is taken for coprime
        "gcd-stops-one-level-late",
        "gf2m.py",
        "_euclid(field, f, product, m * first)",
        "_euclid(field, f, product, m * (first + 1))",
        (BUILT,),
    ),
    Mutant(
        # a lane squares c as c times alpha^s, not alpha^(2s), per bit s
        "lane-basis-odd-powers",
        "gf2m.py",
        "field.exp_table[: 2 * m : 2]",
        "field.exp_table[:m]",
        (BUILT,),
    ),
    Mutant(
        # every level's product is its own h - x: a block keeps only its last level
        "block-start-shortcut-past-the-start",
        "gf2m.py",
        "if product == 1:",
        "if product:",
        (BUILT,),
    ),
    Mutant(
        "inverse-constant-modulus-guard",
        "gf2m.py",
        "if not g >> field.m:",
        "if not g:",
        (CONSTANT_G,),
    ),
    Mutant(
        "inverse-unscaled",
        "gf2m.py",
        "return scale(field, v, field.inv(r))",
        "return v",
        (INV,),
    ),
    # power_planes
    Mutant(
        "planes-hi-bits-from-lo-table",
        "gf2m.py",
        "for j in hi[c >> lo_bits]:",
        "for j in lo[c >> lo_bits]:",
        (PLANES,),
    ),
    Mutant(
        # a coefficient read with every coefficient above it
        "planes-coefficient-unmasked",
        "gf2m.py",
        "c = f >> (m * i) & q1",
        "c = f >> (m * i)",
        (PLANES, EDGES),
    ),
    Mutant(
        # the top coefficient of packed f is left out
        "planes-one-coefficient-short",
        "gf2m.py",
        "count = (f.bit_length() + m - 1) // m",
        "count = (f.bit_length() - 1) // m",
        (PLANES, EDGES),
    ),
    Mutant(
        "planes-reduce-start-dropped",
        "gf2m.py",
        "functools.reduce(operator.xor, picks[j], acc)",
        "functools.reduce(operator.xor, picks[j], 0)",
        (PLANES,),
    ),
    Mutant(
        # alpha = 0 is never a root: f_0 = 0 passes Ben-Or's level 1, and
        # an error at alpha = 0 is not located
        "roots-drops-alpha-zero",
        "gf2m.py",
        " | (0 if f & q1 else 1 << q1)",
        "",
        (BUILT, "test_fast_kernels.py::test_locator_roots_match_scan",
         "test_fast_kernels.py::test_locator_roots_match_scan_on_partial_supports"),
    ),
    Mutant(
        "planes-tap-0-dropped",
        "gf2m.py",
        "taps = [s * q1 for s in field.taps]",
        "taps = [s * q1 for s in field.taps[1:]]",
        (PLANES,),
    ),
    Mutant(
        "power-cache-repeats-a-1",
        "gf2m.py",
        "        cur = prod[:m]\n",
        "        cur = list(base)\n",
        (PLANES,),
    ),
    Mutant(
        "power-cache-extends-from-a-1",
        "gf2m.py",
        "cur = [powers[-1] >> (b * q1) & lane for b in range(m)]",
        "cur = [powers[1] >> (b * q1) & lane for b in range(m)]",
        ("test_root_screen.py::test_extended_power_cache_equals_a_fresh_build",),
    ),
    # the other packed kernels
    Mutant(
        "mul-mod-fold-hi-dropped",
        "gf2m.py",
        "acc = (acc & full) ^ fold_lo[c & lo_mask] ^ fold_hi[c >> lo_bits]",
        "acc = (acc & full) ^ fold_lo[c & lo_mask]",
        (MUL_MOD,),
    ),
    Mutant(
        # the top-bit mask covers half the coefficients it must
        "alpha-tops-mask-too-narrow",
        "gf2m.py",
        "tops = _slots(m, (v.bit_length() // m).bit_length())[0]",
        "tops = _slots(m, (v.bit_length() // m).bit_length() - 1)[0]",
        (MUL_MOD, "test_fast_kernels.py::test_poly_mul_matches_oracle"),
    ),
    # Patterson's code-level stages
    Mutant(
        "syndrome-poly-horner-shift",
        "goppa.py",
        "return acc >> (m * t)",
        "return acc >> (m * (t - 1))",
        ("test_fast_kernels.py::test_syndrome_poly_matches_oracle_at_every_scale",),
    ),
    Mutant(
        # any g with a nonzero top, negative ones included, is let in
        "goppa-monic-check-admits-any-top",
        "goppa.py",
        "if goppa_poly >> (params.m * params.t) != 1:",
        "if goppa_poly >> (params.m * params.t) == 0:",
        ("test_goppa.py::test_code_constructor_validations",),
    ),
    Mutant(
        # the first m*t + 16 columns alone decide, so a code whose
        # shortfall is there is resampled though all n have full rank
        "full-rank-fallback-dropped",
        "goppa.py",
        " or (\n            len(first) < params.n and len(eliminate(cols, m * t, None)[0]) == m * t\n        )",
        "",
        ("test_fast_kernels.py::test_generate_code_picks_the_oracle_code_and_leaves_the_stream_there",),
    ),
    Mutant(
        # a code no longer than its first columns is ranked twice
        "full-rank-fallback-reranks-all-columns",
        "goppa.py",
        "len(first) < params.n and ",
        "",
        ("test_fast_kernels.py::test_generate_code_ranks_a_code_no_longer_than_its_first_columns_once",),
    ),
    Mutant(
        "permuted-rebuilds-sqrt-x",
        "goppa.py",
        "            _where=None,\n",
        "            _where=None,\n            _decoder=None,\n",
        ("test_goppa.py::test_permuted_code_shares_the_decoder_tables",),
    ),
    Mutant(
        "permuted-keeps-positions",
        "goppa.py",
        "_where=None,",
        "_where=self._where,",
        ("test_goppa.py::test_permuted_code_shares_the_decoder_tables",),
    ),
    # one Field per degree m, shared by every code over it
    Mutant(
        "code-builds-its-own-field",
        "goppa.py",
        "field = shared_field(params.m)",
        "field = shared_field.__wrapped__(params.m)",
        ("test_goppa.py::test_codes_over_one_degree_share_one_field",),
    ),
    Mutant(
        "generate-code-builds-its-own-field",
        "goppa.py",
        "field = shared_field(m)",
        "field = shared_field.__wrapped__(m)",
        ("test_goppa.py::test_codes_over_one_degree_share_one_field",),
    ),
    # keygen kernels: the one rejection loop of permutation and sample
    Mutant(
        "permutation-admits-n-of-minus-1",
        "rng.py",
        "if n < 0:",
        "if n < -1:",
        ("test_rng.py::test_permutation_of_a_negative_size_raises_before_any_read",),
    ),
    Mutant(
        "randbits-each-unmasked",
        "rng.py",
        "& mask for top, low",
        "for top, low",
        ("test_keygen_kernels.py::test_randbits_each_matches_the_unbuffered_oracle",),
    ),
    Mutant(
        "randbelow-admits-the-bound",
        "rng.py",
        "| low) & mask\n                        if v < b:",
        "| low) & mask\n                        if v <= b:",
        (DRAWS,),
    ),
    Mutant(
        "randbelow-admits-the-bound-in-byte-draws",
        "rng.py",
        "v &= mask\n                        if v < b:",
        "v &= mask\n                        if v <= b:",
        (DRAWS,),
    ),
    Mutant(
        "draw-width-range-one-bound-too-low",
        "rng.py",
        "stop = max(lo, 1 << (k - 1))",
        "stop = max(lo, (1 << (k - 1)) - 1)",
        (DRAWS,),
    ),
    Mutant(
        "draw-mask-one-bit-short",
        "rng.py",
        "mask = (1 << k) - 1\n            nbytes",
        "mask = (1 << k - 1) - 1\n            nbytes",
        (DRAWS,),
    ),
    Mutant(
        "bound-1-reads-a-byte",
        "rng.py",
        "append(0)",
        "append(read(1)[0] & 0)",
        (DRAWS,),
    ),
    # the batches of the rejection loop and of randbits_each
    Mutant(
        "draw-bytes-swapped",
        "rng.py",
        "v = (top << 8 | low)",
        "v = (low << 8 | top)",
        (DRAWS, INTERLEAVED),
    ),
    Mutant(
        # the extra draw's bytes are read and, when the round accepts all
        # it owes, the extra value is taken too
        "batch-one-draw-too-long",
        "rng.py",
        "read(need * nbytes)",
        "read((need + 1) * nbytes)",
        (DRAWS, INTERLEAVED),
    ),
    Mutant(
        # a round of wide draws tests its values against the bound it
        # started at, which is lowered only once the round is walked
        "bound-kept-through-the-round",
        "rng.py",
        "                            b -= 1\n        return out",
        "                            pass\n                b = hi - len(out)\n        return out",
        (DRAWS, INTERLEAVED),
    ),
    Mutant(
        "wide-draw-top-takes-its-low-byte",
        "rng.py",
        "data[i : i + nbytes - 1]",
        "data[i : i + nbytes]",
        ("test_keygen_kernels.py::test_randbits_each_matches_the_unbuffered_oracle", INTERLEAVED),
    ),
    Mutant(
        "eliminate-keeps-earlier-pivots",
        "binmat.py",
        "pivots[c] = p ^ reduced",
        "pivots[c] = p",
        ("test_keygen_kernels.py::test_kernels_match_oracle_at_every_width",),
    ),
    Mutant(
        "chunk-width-may-be-zero",
        "binmat.py",
        "chunk = max(1, min(CHUNK, len(rows).bit_length() - 1))",
        "chunk = min(CHUNK, len(rows).bit_length() - 1)",
        (ROW_COUNT,),
    ),
    Mutant(
        "combinations-skip-empty-pivot",
        "binmat.py",
        "if row else table",
        "if row else []",
        ("test_keygen_kernels.py::test_kernels_match_oracle_at_every_width",),
    ),
    Mutant(
        # the one set-bit XOR walk: syndromes, vector products, scale
        "xor-rows-ors",
        "binmat.py",
        "acc ^= rows[low.bit_length() - 1]",
        "acc |= rows[low.bit_length() - 1]",
        ("test_goppa.py::test_syndrome_trivia", "test_binmat.py::test_vector_products_match_matrix_forms"),
    ),
    # Patterson's packed spreads and the root positions
    Mutant(
        # each byte's spread lands one byte up, not at twice its position
        "squares-at-the-degree-not-twice",
        "gf2m.py",
        "    spread = bytearray(2 * len(src))\n"
        "    spread[0::2] = src.translate(_SPREAD_LO)\n"
        "    spread[1::2] = src.translate(_SPREAD_HI)\n"
        "    out = int.from_bytes(spread, \"little\")\n",
        "    out = int.from_bytes(src.translate(_SPREAD_LO), \"little\")"
        " ^ int.from_bytes(src.translate(_SPREAD_HI), \"little\") << 8\n",
        (SQUARES, FROBENIUS),
    ),
    Mutant(
        "squares-spread-table-entry",
        "gf2m.py",
        "_SPREAD_LO = bytes(combinations([1, 4, 16, 64, 0, 0, 0, 0]))",
        "_SPREAD_LO = bytes(combinations([1, 4, 16, 32, 0, 0, 0, 0]))",
        (SQUARES, FROBENIUS),
    ),
    Mutant(
        # m = 10 needs two passes and m = 16 four
        "squares-fold-one-pass",
        "gf2m.py",
        "    while high:\n",
        "    if high:\n",
        (SQUARES, FROBENIUS),
    ),
    Mutant(
        # the even and odd bits of the odd-index coefficients, whose
        # places an odd m swaps, read from each other's places
        "sqrt-halves-odd-and-even-swapped",
        "gf2m.py",
        "hi_ev, hi_od = (od, ev) if m & 1 else (ev, od)",
        "hi_ev, hi_od = (ev, od) if m & 1 else (od, ev)",
        ("test_fast_kernels.py::test_sqrt_halves_match_field_sqrt", FROBENIUS),
    ),
    Mutant(
        "sqrt-halves-root-of-alpha-exponent",
        "gf2m.py",
        "field.exp_table[1 << (m - 1)]",
        "field.exp_table[(1 << m) - 1 >> 1]",
        ("test_fast_kernels.py::test_sqrt_halves_match_field_sqrt", FROBENIUS),
    ),
    Mutant(
        "syndrome-poly-components-reversed",
        "goppa.py",
        "c = (synd >> (m * r)) & mask",
        "c = (synd >> (m * (t - 1 - r))) & mask",
        ("test_fast_kernels.py::test_syndrome_poly_matches_oracle_at_every_scale",),
    ),
    Mutant(
        "positions-put-zero-at-lane-0",
        "goppa.py",
        "where[log[a] if a else q1] = i",
        "where[log[a]] = i",
        ("test_fast_kernels.py::test_locator_roots_match_scan_on_partial_supports",),
    ),
    # the keyio wire codec
    Mutant(
        # each join level shifts by the field width, so joined fields
        # overlap the bits already placed
        "bit-writer-keeps-flushed-bits",
        "keyio.py",
        "        width *= 2\n",
        "",
        (CODEC,),
    ),
    Mutant(
        "join-drops-the-odd-field",
        "keyio.py",
        "for a, b in zip(fields[::2], fields[1::2])] + odd",
        "for a, b in zip(fields[::2], fields[1::2])]",
        (CODEC,),
    ),
    Mutant(
        "split-ignores-the-bit-offset",
        "keyio.py",
        '"little") >> (i & 7) & mask',
        '"little") & mask',
        (CODEC,),
    ),
    Mutant(
        "bit-reader-ignores-padding-bits",
        "keyio.py",
        'if int.from_bytes(data, "little") >> nbits:',
        "if False:",
        (f"{REFUSAL}[pk-padding-bit]", f"{REFUSAL}[ct-padding-bit-0]"),
    ),
    Mutant(
        "parse-skips-the-canonical-form-rule",
        "keyio.py",
        "(seed_row >> nk or seed_fields(sid, seed_row) != fields)",
        "seed_row >> nk",
        (f"{REFUSAL}[pk-descending-positions]", f"{REFUSAL}[pk-unsorted-positions]"),
    ),
    # write only what can be read back
    Mutant(
        "seed-fields-admit-a-row-with-no-ones",
        "keyio.py",
        "if not 1 <= len(positions) <= 255:",
        "if len(positions) > 255:",
        ("test_keyio.py::test_sparse_key_with_no_positions_is_refused_on_write",),
    ),
    Mutant(
        "private-writer-skips-the-policy-check",
        "keyio.py",
        "    policy = _header_policy(sid, w, run_start, run_len)\n    if policy is not None:\n        try:",
        "    policy = _header_policy(sid, w, run_start, run_len)\n    if False:\n        try:",
        (f"{REFUSAL}[sk-run-past-row]", f"{REFUSAL}[sk-sparse-weight-9]"),
    ),
    Mutant(
        # the header rules regenerate applies through _header_policy are
        # gone, so an unknown scheme id regenerates a Kal1-S2 key
        "regenerate-skips-the-scheme-fields",
        "keyio.py",
        "    if sid not in SCHEME_NAMES:\n        raise FormatError(f\"unknown scheme id {sid:#04x}\")\n"
        "    if sid != SCHEME_KAL1_S1 and w != 0:\n        raise FormatError(\"weight byte must be zero outside Kal1-S1\")\n"
        "    if sid != SCHEME_KAL1_S2 and (run_start != 0 or run_len != 0):\n"
        "        raise FormatError(\"run fields must be zero outside Kal1-S2\")\n",
        "",
        ("test_keyio.py::test_regenerate_refuses_scheme_fields_before_any_draw",),
    ),
    # the public key classes refuse, when built, what no reader returns
    Mutant(
        "public-key-skips-the-systematic-check",
        "niederreiter.py",
        "if check_t.cols != nk or check_t.row_ints[params.k :] != tuple(1 << i for i in range(nk)):",
        "if check_t.cols != nk:",
        (f"{REFUSAL}[pk-non-systematic]",),
    ),
    Mutant(
        # a list of rows could be changed in place after the check
        # passed; it also never equals the identity's tuple, so keygen
        # refuses its own key
        "matrix-rows-kept-as-a-list",
        "binmat.py",
        "row_ints=tuple(row_ints)",
        "row_ints=list(row_ints)",
        (
            "test_niederreiter.py::test_a_built_key_keeps_its_check_rows",
            # collected test by test, so the fault fails here too
            "test_values.py::test_frozen_values_hash_by_fields_and_refuse_assignment[<lambda>7]",
        ),
    ),
    # the private key is a value too: its support and its check's
    # columns are tuples, so an in-place edit raises TypeError
    Mutant(
        "support-kept-as-a-list",
        "goppa.py",
        "support=tuple(support)",
        "support=list(support)",
        (PRIVATE_IN_PLACE,),
    ),
    Mutant(
        "check-columns-kept-as-a-list",
        "goppa.py",
        'self.__dict__["_columns"] = tuple(cols)',
        'self.__dict__["_columns"] = cols',
        (PRIVATE_IN_PLACE,),
    ),
    Mutant(
        # the .pk goes into place before the .sk, so an .sk that cannot
        # be moved into place leaves a new .pk behind
        "keygen-places-the-pk-first",
        "cli.py",
        "reversed(list(zip(files, temps)))",
        "zip(files, temps)",
        ("test_cli.py::test_keygen_whose_sk_cannot_be_moved_leaves_no_new_pk",),
    ),
    Mutant(
        # a .pk path that is a directory fails only after the new .sk
        # has replaced the older key's
        "keygen-skips-the-directory-check",
        "cli.py",
        "if os.path.isdir(path):",
        "if False:",
        ("test_cli.py::test_keygen_that_cannot_write_a_file_leaves_no_new_pk",),
    ),
    Mutant(
        # a .pk that cannot be moved into place leaves the new .sk beside
        # the older .pk, or alone
        "keygen-skips-the-restore",
        "cli.py",
        "for done, older in placed:",
        "for done, older in ():",
        ("test_cli.py::test_keygen_whose_pk_cannot_be_moved_changes_neither_file",),
    ),
    Mutant(
        # the masking sum of a narrower cyclic_t is taken, not refused
        "masking-sum-skips-the-shape-check",
        "isd.py",
        "if (cyclic_t.rows, cyclic_t.cols) != (check_t.rows, check_t.cols):",
        "if cyclic_t.rows != check_t.rows:",
        ("test_binmat.py::test_add",),
    ),
    Mutant(
        # a syndrome wider than n-k bits is searched for, not refused
        "prange-skips-the-syndrome-check",
        "isd.py",
        "if syndrome < 0 or syndrome.bit_length() > nk:",
        "if syndrome < 0:",
        (VALIDATIONS,),
    ),
    Mutant(
        "kal1-row-check-one-bit-wide",
        "scheme.py",
        "if seed_row >> params.redundancy:",
        "if seed_row >> (params.redundancy + 1):",
        (VALIDATIONS,),
    ),
    Mutant(
        "kal1-key-skips-the-run-check",
        "scheme.py",
        "fits = 0 <= start and 0 <= length and seed_row == ((1 << length) - 1) << start",
        "fits = True",
        (WIRE_PROPERTY, VALIDATIONS),
    ),
    Mutant(
        "kal1-key-skips-the-sparse-count",
        "scheme.py",
        "fits = seed_row.bit_count() == policy.weight",
        "fits = True",
        (WIRE_PROPERTY, VALIDATIONS),
    ),
    # the one message-range rule, for encrypt and the message byte form
    Mutant(
        "in-capacity-one-bit-wide",
        "scheme.py",
        "if msg < 0 or msg >> cwp.msg_bits:",
        "if msg < 0 or msg >> (cwp.msg_bits + 1):",
        ("test_keyio.py::test_encode_message_refuses_what_decode_message_refuses",),
    ),
    # the constant-weight codec
    Mutant(
        "cw-encode-next-index-binomial",
        "cw.py",
        "b = b * j // c\n",
        "b = b * (j - 1) // c\n",
        ("test_cw.py::test_codec_matches_table_oracle_exhaustively",),
    ),
    Mutant(
        "cw-decode-rank-position",
        "cw.py",
        "rank += math.comb(low.bit_length() - 1, j)",
        "rank += math.comb(low.bit_length(), j)",
        ("test_cw.py::test_codec_matches_table_oracle_exhaustively",),
    ),
]


def copy_package(dest: Path) -> None:
    shutil.copytree(PACKAGE, dest / "kal1", ignore=shutil.ignore_patterns("__pycache__"))


def copy_env(tmp: Path, cache: Path) -> dict[str, str]:
    """The environment of a run on the copy in tmp: the copy first on the
    path, and bytecode written under cache, which every run of one gate
    invocation shares.  The test modules are then compiled once, and each
    copy of kal1 lives at its own path, so no run reads another copy's
    bytecode."""
    env = dict(os.environ, PYTHONPATH=str(tmp), PYTHONPYCACHEPREFIX=str(cache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def pytest_run(tmp: Path, cache: Path, tests, timeout: float) -> int | None:
    """pytest's exit status on the copy in tmp, or None on a timeout."""
    env = copy_env(tmp, cache)
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", "--hypothesis-profile=mutants", *(str(ROOT / "tests" / t) for t in tests)]
    try:
        # cwd is the copy, so hypothesis keeps its example database there
        done = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    return done.returncode


def imports_copy(tmp: Path, cache: Path) -> bool:
    env = copy_env(tmp, cache)
    out = subprocess.run([sys.executable, "-c", "import kal1; print(kal1.__file__)"],
                         cwd=tmp, env=env, capture_output=True, text=True, check=True)
    return Path(out.stdout.strip()).resolve().is_relative_to(tmp.resolve())


def run_mutant(mutant: Mutant, cache: Path, timeout: float) -> str:
    """killed, timeout, survived, stale (snippet not found exactly once),
    or error (pytest could not run the tests)."""
    with tempfile.TemporaryDirectory(prefix="kal1-mutant-") as name:
        tmp = Path(name)
        copy_package(tmp)
        path = tmp / "kal1" / mutant.module
        text = path.read_text()
        if text.count(mutant.snippet) != 1:
            return "stale"
        path.write_text(text.replace(mutant.snippet, mutant.replacement))
        status = pytest_run(tmp, cache, mutant.tests, timeout)
    if status is None:
        return "timeout"
    return {0: "survived", 1: "killed"}.get(status, f"error (pytest exit {status})")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="kal1-pycache-") as cache:
        return gate(Path(cache))


def gate(cache: Path) -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="kal1-mutant-") as name:
        tmp = Path(name)
        copy_package(tmp)
        if not imports_copy(tmp, cache):
            print("the copy of kal1 is not the one imported; is kal1 installed non-editable?")
            return 1
        tests = sorted({t for m in MUTANTS for t in m.tests})
        status = pytest_run(tmp, cache, tests, 600)
    if status != 0:
        print(f"the unmutated copy fails its tests (pytest exit {status}); no verdict")
        return 1
    baseline = time.perf_counter() - start
    timeout = max(MIN_TIMEOUT_S, 2 * baseline)
    print(f"unmutated copy passes {len(tests)} test ids in {baseline:.1f} s; "
          f"timeout {timeout:.0f} s per mutant")

    bad = []
    took = []
    for mutant in MUTANTS:
        t0 = time.perf_counter()
        verdict = run_mutant(mutant, cache, timeout)
        took.append(time.perf_counter() - t0)
        print(f"{verdict:9} {mutant.name:40} {took[-1]:5.1f} s", flush=True)
        if verdict != "killed":
            bad.append((mutant.name, verdict))
    total = time.perf_counter() - start
    print(f"{len(MUTANTS) - len(bad)} of {len(MUTANTS)} mutants killed in {total:.0f} s, "
          f"median {statistics.median(took):.1f} s per mutant")
    for name, verdict in bad:
        print(f"  {name}: {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
