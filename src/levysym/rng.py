"""Counter-based random number streams for reproducible parallel simulation.

Implements a Philox-style 2x64 block cipher (10 rounds of multiply-hi/lo
mixing with a Weyl key schedule).  Each simulated path owns one stream,
keyed by ``(master seed, path index)``; the j-th event of a path reads
counter ``j`` and receives two independent uint64 words, i.e. two uniforms.
Because outputs are a pure function of (key, counter), results do not
depend on execution order, scheduling, or batch size: the same master seed
always reproduces the same ensemble bit for bit.  :func:`event_uniforms` is
the one reader of the event streams.  The lock-step engine calls it on a
tile of consecutive counters for all active path keys at once.  The per-path
engine calls it on counters 0 .. 255 for a group of path keys at once, and
for a path that runs past them on further blocks of 1 024 counters of its own
key.  Either way event j of path i is counter j of stream i, so drawing a
counter early, drawing it beside other keys' counters, or drawing one that no
event uses changes no result.

The 64x64 -> 128 bit multiply is emulated with 32-bit limbs, which keeps
everything inside NumPy uint64 vector arithmetic (exactness is covered by
a big-integer oracle in the tests).
"""

from __future__ import annotations

import numpy as np

_M = np.uint64(0xD2B74407B1CE6E93)      # multiplier
_W = np.uint64(0x9E3779B97F4A7C15)      # Weyl key increment (golden ratio)
_MASK32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_S11 = np.uint64(11)
_M_LO = _M & _MASK32
_M_HI = _M >> _S32

#: counter-word constant marking the "path key derivation" stream
_KEY_DOMAIN = np.uint64(0x5CA1AB1E)
#: counter-word constant marking the "event uniforms" stream
_EVENT_DOMAIN = np.uint64(0x0DDC0FFE)

ROUNDS = 10


def philox2x64(c0, c1, key, rounds: int = ROUNDS):
    """Return the two uint64 output words for counters (c0, c1) under key.

    All three arguments broadcast against each other; inputs are consumed
    as uint64.  The first round's multiply depends on c0 alone and runs on
    its shape; the other rounds work in place on full-shape buffers.
    """
    x0 = np.asarray(c0, dtype=np.uint64)
    x1 = np.asarray(c1, dtype=np.uint64)
    key = np.asarray(key, dtype=np.uint64)
    shape = np.broadcast_shapes(x0.shape, x1.shape, key.shape)
    k = np.broadcast_to(key, shape).copy()
    bl, bh, t, t2, hi, lo = (np.empty(x0.shape, np.uint64) for _ in range(6))
    with np.errstate(over="ignore"):
        for r in range(rounds):
            # hi,lo = (M * x0) as 128-bit product, via 32-bit limbs
            np.bitwise_and(x0, _MASK32, out=bl)
            np.right_shift(x0, _S32, out=bh)
            np.multiply(_M_LO, bl, out=t)
            np.right_shift(t, _S32, out=t)
            np.multiply(_M_LO, bh, out=t2)
            np.add(t2, t, out=t)
            np.multiply(_M_HI, bl, out=t2)
            np.bitwise_and(t, _MASK32, out=hi)
            np.add(t2, hi, out=t2)
            np.multiply(_M_HI, bh, out=hi)
            np.right_shift(t, _S32, out=t)
            np.add(hi, t, out=hi)
            np.right_shift(t2, _S32, out=t2)
            np.add(hi, t2, out=hi)
            np.multiply(_M, x0, out=lo)
            # feistel swap: x0' = hi ^ key ^ x1, x1' = lo
            if r == 0:  # from here on every word has the full shape
                x0, x1 = hi ^ k ^ x1, np.broadcast_to(lo, shape).copy()
                bl, bh, t, t2, hi, lo = (np.empty(shape, np.uint64) for _ in range(6))
            else:
                np.bitwise_xor(hi, k, out=t)
                np.bitwise_xor(t, x1, out=x0)
                x1, lo = lo, x1
            np.add(k, _W, out=k)
    return x0, x1


def _to_unit_interval(words):
    """Map uint64 words to floats strictly inside (0, 1)."""
    return ((words >> _S11).astype(np.float64) + 0.5) * 2.0**-53


def path_keys(master_seed: int, indices) -> np.ndarray:
    """Derive one independent stream key per path index from the master seed."""
    idx = np.asarray(indices, dtype=np.uint64)
    k0, _ = philox2x64(idx, _KEY_DOMAIN, np.uint64(master_seed & 0xFFFFFFFFFFFFFFFF))
    return k0


def event_uniforms(keys, counter):
    """Two uniform(0,1) arrays for event ``counter`` of the given path keys.

    ``keys`` and ``counter`` broadcast, and each output element depends only
    on its own (key, counter) pair: a column of counters against a row of
    keys gives a tile (counters x paths), as both engines draw them, and one
    key at a run of counters the per-path engine's later blocks.
    """
    w0, w1 = philox2x64(np.asarray(counter, dtype=np.uint64), _EVENT_DOMAIN, keys)
    return _to_unit_interval(w0), _to_unit_interval(w1)

