"""Counter-based random number streams for reproducible parallel simulation.

Implements a Philox-style 2x64 block cipher (10 rounds of multiply-hi/lo
mixing with a Weyl key schedule).  Each simulated path owns one stream,
keyed by ``(master seed, path index)``; the j-th event of a path reads
counter ``j`` and receives two independent uint64 words, i.e. two uniforms.
Because outputs are a pure function of (key, counter), results do not
depend on execution order, scheduling, or batch size: the same master seed
always reproduces the same ensemble bit for bit.  :func:`event_words` is
the one reader of the event streams, and word w maps to the uniform
((w >> 11) + 1/2) 2**-53 in (0, 1] (:func:`_to_unit_interval`).  The
per-path engine calls :func:`event_uniforms`, that reader plus the map of
both words: u1 gives the holding time, u2 the move.  It reads counters
0 .. 255 for a group of path keys at once, and for a path that runs past
them further blocks of its own key: 256, 512, then 1 024 counters at a
time.  The lock-step engine calls :func:`event_words` on a tile of
consecutive counters for all active path keys at once, maps the first word
to u1 and takes the move from the second word's top bit, which is 1 exactly
when u2 >= 0.5.  Either way event j of path i is counter j of stream i, so
drawing a counter early, drawing it beside other keys' counters, or drawing
one that no event uses changes no result.  A :func:`philox2x64` call
allocates its scratch in one block of six slots, each of its broadcast
size: four round temporaries, the one ``lo`` trades with the second output
word, and the key schedule; the two words it returns are fresh arrays.  The
schedule keeps the key's own shape (a scalar for key derivation and
per-path blocks, a row of keys in a tile) and is broadcast into each
round's xor, so advancing it costs one add on the key's shape per round.

The 64x64 -> 128 bit multiply is emulated with 32-bit limbs, which keeps
everything inside NumPy uint64 vector arithmetic (exactness is covered by
a big-integer oracle in the tests).  A round after the first makes 18
ufunc calls; each gets its output positionally and its constants as 0-d
uint64 arrays, the form NumPy dispatches fastest.
"""

from __future__ import annotations

import math

import numpy as np


def _u64(value) -> np.ndarray:
    """A 0-d uint64 array: ufuncs dispatch faster on it than on a NumPy scalar."""
    return np.array(value, dtype=np.uint64)


_M = _u64(0xD2B74407B1CE6E93)      # multiplier
_W = _u64(0x9E3779B97F4A7C15)      # Weyl key increment (golden ratio)
_MASK32 = _u64(0xFFFFFFFF)
_S32 = _u64(32)
_S11 = _u64(11)
_M_LO = _u64(int(_M) & 0xFFFFFFFF)
_M_HI = _u64(int(_M) >> 32)

#: counter-word constant marking the "path key derivation" stream
_KEY_DOMAIN = _u64(0x5CA1AB1E)
#: counter-word constant marking the "event uniforms" stream
_EVENT_DOMAIN = _u64(0x0DDC0FFE)

ROUNDS = 10
#: scratch slots of a philox2x64 call, each of the broadcast size
_WORK_SLOTS = 6


def _mulhilo(x, bl, bh, t, t2, lo):
    """The 128-bit product M * x via 32-bit limbs: its high word is returned
    in ``bl`` and its low word written to ``lo``; ``bl``, ``bh``, ``t`` and
    ``t2`` are scratch of x's shape."""
    np.bitwise_and(x, _MASK32, bl)
    np.right_shift(x, _S32, bh)
    np.multiply(_M_LO, bl, t)
    np.right_shift(t, _S32, t)
    np.multiply(_M_LO, bh, t2)
    np.add(t2, t, t)
    np.multiply(_M_HI, bl, t2)
    hi = bl  # bl is read for the last time above
    np.bitwise_and(t, _MASK32, hi)
    np.add(t2, hi, t2)
    np.multiply(_M_HI, bh, hi)
    np.right_shift(t, _S32, t)
    np.add(hi, t, hi)
    np.right_shift(t2, _S32, t2)
    np.add(hi, t2, hi)
    np.multiply(_M, x, lo)
    return hi


def philox2x64(c0, c1, key):
    """Return the two uint64 output words of ``ROUNDS`` rounds for counters
    (c0, c1) under key.

    All three arguments broadcast against each other; inputs are consumed
    as uint64.  The first round's multiply depends on c0 alone and runs on
    its shape; the other rounds work in place on full-shape buffers.  Those
    buffers and the key schedule, on the key's shape, are carved from one
    scratch allocation of ``_WORK_SLOTS`` x (broadcast size) words.
    """
    x0 = np.asarray(c0, dtype=np.uint64)
    x1 = np.asarray(c1, dtype=np.uint64)
    key = np.asarray(key, dtype=np.uint64)
    shape = np.broadcast_shapes(x0.shape, x1.shape, key.shape)
    size = math.prod(shape)
    out0, out1 = np.empty(shape, np.uint64), np.empty(shape, np.uint64)
    if not size:
        return out0, out1
    work = np.empty(_WORK_SLOTS * size, dtype=np.uint64)

    def slot(i, shp):  # slot i of work, a block of ``size`` words, as an array
        return work[i * size:i * size + math.prod(shp)].reshape(shp)

    k = slot(5, key.shape)
    np.copyto(k, key)
    # lo of round r >= 1 goes to los[r % 2]: x1 and lo trade buffers every
    # round, and ROUNDS is even, so the last round's lands in out1
    los = (slot(4, shape), out1)
    # round 0 runs on x0's shape and puts its lo, the next x1, at the front
    # of los[0]; feistel swap: x0' = hi ^ key ^ x1, x1' = lo
    lo = los[0].reshape(-1)[:x0.size].reshape(x0.shape)
    hi = _mulhilo(x0, *(slot(i, x0.shape) for i in range(4)), lo)
    np.bitwise_xor(hi, k, out0)
    np.bitwise_xor(out0, x1, out0)
    x0, x1 = out0, lo
    temps = [slot(i, shape) for i in range(4)]
    for r in range(1, ROUNDS):  # every word has the full shape
        np.add(k, _W, k)
        hi = _mulhilo(x0, *temps, los[r % 2])
        np.bitwise_xor(hi, k, hi)
        np.bitwise_xor(hi, x1, x0)
        x1 = los[r % 2]
    return x0, x1


def _to_unit_interval(words):
    """Map a uint64 array of words, in place, to floats in (0, 1]; return
    them, the words' own buffer viewed as float64 (a copy where the words
    are not contiguous).

    Word w becomes ((w >> 11) + 1/2) 2**-53, rounded to the nearest float
    (ties to even): 2**-54 at w = 0, 0.5 - 2**-54 just below 2**63 and 0.5
    at 2**63.  The largest value below 1 is 1 - 2**-52, and the 2**11 words
    from 2**64 - 2**11 up map to exactly 1.0, since 2**53 - 1/2 rounds to
    2**53.
    """
    flat = np.right_shift(words, _S11, words).reshape(-1)
    u = flat.view(np.float64)
    np.copyto(u, flat, casting="unsafe")  # one dimension: cast in place, no temporary
    np.add(u, 0.5, u)
    np.multiply(u, 2.0**-53, u)
    return u.reshape(words.shape)


def path_keys(master_seed: int, indices) -> np.ndarray:
    """Derive one independent stream key per path index from the master seed."""
    idx = np.asarray(indices, dtype=np.uint64)
    k0, _ = philox2x64(idx, _KEY_DOMAIN, np.uint64(master_seed & 0xFFFFFFFFFFFFFFFF))
    return k0


def event_words(keys, counter):
    """The two uint64 words of event ``counter`` of the given path keys.

    ``keys`` and ``counter`` broadcast, and each output element depends only
    on its own (key, counter) pair: a column of counters against a row of
    keys gives a tile (counters x paths), as both engines draw them, and one
    key at a run of counters the per-path engine's later blocks.
    """
    return philox2x64(np.asarray(counter, dtype=np.uint64), _EVENT_DOMAIN, keys)


def event_uniforms(keys, counter):
    """The two words of :func:`event_words` as uniforms in (0, 1].

    u1 is 1.0, and the event's holding time 0, with probability 2**-53 per
    event, in both engines alike.  Their passes need only non-decreasing
    times, and a clamp would cost a pass over every tile.
    """
    w0, w1 = event_words(keys, counter)
    return _to_unit_interval(w0), _to_unit_interval(w1)
