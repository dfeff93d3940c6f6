"""SeededRng is the AES-128-CTR keystream, however its reads are cut,
and rejects bad arguments with a Kal1Error, as every library entry
point does."""

import pytest

from kal1 import Kal1Error, ParameterError, SeededRng

# AES-128 under the all-zero key of counter blocks 0 and 1; the first is
# the textbook encryption of the zero block under the zero key
ZERO_SEED_STREAM = "66e94bd4ef8a2c3b884cfa59ca342b2e58e2fccefa7e3061367f1d57a4e7455a"


def test_the_stream_is_aes_128_ctr_from_counter_zero():
    assert SeededRng(bytes(16)).read(32).hex() == ZERO_SEED_STREAM
    rng = SeededRng(bytes(16))
    assert b"".join(rng.read(n) for n in (1, 15, 0, 16)).hex() == ZERO_SEED_STREAM


@pytest.mark.parametrize("nbytes", [0, 15, 17])
def test_seed_of_wrong_length_raises_kal1_error(nbytes):
    with pytest.raises(Kal1Error):
        SeededRng(bytes(nbytes))


@pytest.mark.parametrize(
    "draw, args",
    [
        ("randbits", (-1,)),
        ("read", (-1,)),
        ("sample", (-1, 0)),
        ("sample", (3, 4)),
        ("sample", (3, -1)),
        ("randbits_each", (-1, 1)),
        ("randbits_each", (8, -1)),
    ],
)
def test_bad_draw_arguments_raise_kal1_error(draw, args):
    with pytest.raises(Kal1Error):
        getattr(SeededRng(bytes(16)), draw)(*args)


@pytest.mark.parametrize("n", [-1, -2, -1025])
def test_permutation_of_a_negative_size_raises_before_any_read(n):
    # as sample(-1, 0) does; the stream then goes on from its first byte
    rng = SeededRng(bytes(16))
    with pytest.raises(ParameterError, match="permutation size"):
        rng.permutation(n)
    assert rng.read(16) == SeededRng(bytes(16)).read(16)
