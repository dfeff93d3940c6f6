"""Deterministic byte stream for reproducible key material.

Fixtures and KAT files depend on the exact generator, so it is pinned
here: the stream is the AES-128-CTR keystream under the 16-byte seed
as key, counter blocks 0, 1, 2, ... encoded as 16-byte big-endian
integers.  Derived draws are defined on top of the raw stream:

* ``read(n)``      next n bytes of the keystream.
* ``randbits(k)``  read ceil(k/8) bytes, big-endian integer, masked
                   to the low k bits.
* ``randbits_each(k, count)``  ``randbits(k)`` count times, in order,
                   from one ``read`` of count * ceil(k/8) bytes; k = 0
                   reads nothing.
* ``randbelow(n)`` rejection-sample ``randbits((n-1).bit_length())``
                   until the value is below n; n = 1 reads nothing.
* ``permutation(n)``  Fisher-Yates over [0, n): for i from n-1 down
                   to 1, swap positions i and ``randbelow(i+1)``.
* ``sample(n, k)`` partial Fisher-Yates: for i in 0..k-1 swap
                   positions i and i + ``randbelow(n-i)``; return the
                   first k entries.

``randbelow`` is the rule, not a method: ``permutation`` and ``sample``
draw their descending bounds through one loop that follows it.  Within
each power-of-two range of bounds it reads the bytes of every value
still owed at once, walks them in order under the rejection rule, and
reads again only for what the rejections left owing; so every byte read
is one that drawing value by value would have examined.

Any change to these rules invalidates every stored fixture.
"""

from __future__ import annotations

import os

from .errors import ParameterError

SEED_BYTES = 16


def fresh_seed() -> bytes:
    """A 16-byte seed from the system entropy source."""
    return os.urandom(SEED_BYTES)


class SeededRng:
    """AES-128-CTR keystream generator; single-owner, not thread safe.

    Each ``read`` takes its bytes straight from the cipher.  A draw of
    many values takes their bytes with one ``read`` (a rejection loop
    with one per round), so the bytes and their order are those of
    reading the stream draw by draw.
    """

    def __init__(self, seed: bytes):
        if len(seed) != SEED_BYTES:
            raise ParameterError(f"seed must be exactly {SEED_BYTES} bytes, got {len(seed)}")
        # here, not at the top: a command that draws nothing loads no cipher
        from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
        self._stream = Cipher(algorithms.AES(bytes(seed)), modes.CTR(bytes(SEED_BYTES))).encryptor()

    def read(self, nbytes: int) -> bytes:
        if nbytes < 0:
            raise ParameterError("byte count must be non-negative")
        return self._stream.update(bytes(nbytes))

    def randbits(self, k: int) -> int:
        return self.randbits_each(k, 1)[0]

    def randbits_each(self, k: int, count: int) -> list[int]:
        """count k-bit values in draw order from one read of count *
        ceil(k/8) bytes, each big-endian and masked to k bits; randbits
        is one of them."""
        if k < 0:
            raise ParameterError("bit count must be non-negative")
        if count < 0:
            raise ParameterError("draw count must be non-negative")
        if k == 0:
            return [0] * count
        mask = (1 << k) - 1
        nbytes = (k + 7) // 8
        return [(top << 8 | low) & mask for top, low in _split(self.read(count * nbytes), nbytes)]

    def _below_each(self, hi: int, lo: int) -> list[int]:
        """randbelow(b) for b = hi, hi-1, ..., lo+1, in that order.

        Bounds in (2^(k-1), 2^k] share the draw width k, its byte count
        and its mask, so those are computed once per power of two.  Each
        round reads the bytes of the need values still owed in that
        range and walks them in order: an accepted value lowers the
        bound, a rejected one leaves it owing to the next round.  A round
        reads no byte past the last value it could accept.
        """
        out: list[int] = []
        append = out.append
        read = self.read
        b = hi
        while b > lo:
            k = (b - 1).bit_length()
            if not k:  # the bound 1, last of a full sample, reads nothing
                append(0)
                break
            mask = (1 << k) - 1
            nbytes = (k + 7) // 8
            stop = max(lo, 1 << (k - 1))  # width k ends at the bound 2^(k-1) + 1
            while (need := b - stop) > 0:
                data = read(need * nbytes)
                if nbytes == 1:  # the bytes are the draws
                    for v in data:
                        v &= mask
                        if v < b:
                            append(v)
                            b -= 1
                else:
                    for top, low in _split(data, nbytes):
                        v = (top << 8 | low) & mask
                        if v < b:
                            append(v)
                            b -= 1
        return out

    def permutation(self, n: int) -> list[int]:
        if n < 0:
            raise ParameterError("permutation size must be non-negative")
        arr = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), self._below_each(n, 1)):
            arr[i], arr[j] = arr[j], arr[i]
        return arr

    def sample(self, n: int, k: int) -> list[int]:
        """k distinct values from [0, n), order-sensitive and pinned."""
        if not 0 <= k <= n:
            raise ParameterError("sample size out of range")
        arr = list(range(n))
        for i, j in enumerate(self._below_each(n, n - k)):
            j += i
            arr[i], arr[j] = arr[j], arr[i]
        return arr[:k]


def _split(data: bytes, nbytes: int) -> zip:
    """The nbytes-wide big-endian draws in data, each as (top, low): the
    int of its bytes before the last, and its last byte."""
    lows = data[nbytes - 1 :: nbytes]
    if nbytes == 2:
        tops = data[::2]
    elif nbytes == 1:
        tops = bytes(len(lows))
    else:
        tops = [int.from_bytes(data[i : i + nbytes - 1], "big") for i in range(0, len(data), nbytes)]
    return zip(tops, lows)
