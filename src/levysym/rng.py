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
event uses changes no result.  Each ensemble owns one work buffer
(:func:`work_buffer`) and passes it to every Philox call it makes, so its
draws allocate no scratch memory; the words a call returns are fresh arrays
and never alias the buffer.

The 64x64 -> 128 bit multiply is emulated with 32-bit limbs, which keeps
everything inside NumPy uint64 vector arithmetic (exactness is covered by
a big-integer oracle in the tests).
"""

from __future__ import annotations

import math

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
#: full-shape words a philox2x64 call keeps in ``work``: the key schedule and
#: six round temporaries
_WORK_SLOTS = 7


def work_buffer(size: int) -> np.ndarray:
    """A ``work`` buffer for :func:`philox2x64` calls whose arguments
    broadcast to at most ``size`` elements."""
    return np.empty(_WORK_SLOTS * size, dtype=np.uint64)


def philox2x64(c0, c1, key, rounds: int = ROUNDS, work=None):
    """Return the two uint64 output words for counters (c0, c1) under key.

    All three arguments broadcast against each other; inputs are consumed
    as uint64.  The first round's multiply depends on c0 alone and runs on
    its shape; the other rounds work in place on full-shape buffers.  Those
    buffers and the key schedule are carved from ``work``, a 1-D writable
    uint64 array of at least ``_WORK_SLOTS`` x (broadcast size) entries (from
    :func:`work_buffer`; one is allocated when it is None), so a caller that
    passes the same buffer to every call allocates no scratch per call.  The
    two output words are fresh arrays and never alias ``work``.
    """
    x0 = np.asarray(c0, dtype=np.uint64)
    x1 = np.asarray(c1, dtype=np.uint64)
    key = np.asarray(key, dtype=np.uint64)
    shape = np.broadcast_shapes(x0.shape, x1.shape, key.shape)
    size = math.prod(shape)
    if work is None:
        work = work_buffer(size)
    elif not (isinstance(work, np.ndarray) and work.dtype == np.uint64 and work.ndim == 1
              and work.flags.c_contiguous and work.flags.writeable):
        raise ValueError("work must be a 1-D, C-contiguous, writable uint64 array")
    elif work.size < _WORK_SLOTS * size:
        raise ValueError(f"work holds {work.size} words, a call of size {size} needs "
                         f"{_WORK_SLOTS * size}")
    out0, out1 = np.empty(shape, np.uint64), np.empty(shape, np.uint64)
    if not size:
        return out0, out1

    def slot(i, shp):  # slot i of work, a block of ``size`` words, as an array
        return work[i * size:i * size + math.prod(shp)].reshape(shp)

    k = slot(0, shape)
    np.copyto(k, key)
    # round 0 runs on x0's shape; its bl sits in slot 6 and its lo in slot 1,
    # so that slot 6 is free for the full-shape x1 it copies lo into
    bl, bh, t, t2, hi, lo = (slot(i, x0.shape) for i in (6, 2, 3, 4, 5, 1))
    # x1 and lo trade buffers every later round: start x1 in the one of out1
    # and slot 6 from which the trades bring it to out1
    x1_full, lo_full = (slot(6, shape), out1) if rounds % 2 == 0 else (out1, slot(6, shape))
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
                np.bitwise_xor(hi, k, out=out0)
                np.bitwise_xor(out0, x1, out=out0)
                np.copyto(x1_full, lo)
                x0, x1 = out0, x1_full
                bl, bh, t, t2, hi = (slot(i, shape) for i in range(1, 6))
                lo = lo_full
            else:
                np.bitwise_xor(hi, k, out=t)
                np.bitwise_xor(t, x1, out=x0)
                x1, lo = lo, x1
            np.add(k, _W, out=k)
    return x0, x1


def _to_unit_interval(words):
    """Map uint64 words to floats strictly inside (0, 1)."""
    return ((words >> _S11).astype(np.float64) + 0.5) * 2.0**-53


def path_keys(master_seed: int, indices, work=None) -> np.ndarray:
    """Derive one independent stream key per path index from the master seed;
    ``work`` is passed to :func:`philox2x64`."""
    idx = np.asarray(indices, dtype=np.uint64)
    k0, _ = philox2x64(idx, _KEY_DOMAIN, np.uint64(master_seed & 0xFFFFFFFFFFFFFFFF),
                       ROUNDS, work)
    return k0


def event_uniforms(keys, counter, work=None):
    """Two uniform(0,1) arrays for event ``counter`` of the given path keys.

    ``keys`` and ``counter`` broadcast, and each output element depends only
    on its own (key, counter) pair: a column of counters against a row of
    keys gives a tile (counters x paths), as both engines draw them, and one
    key at a run of counters the per-path engine's later blocks.  ``work`` is
    passed to :func:`philox2x64`.
    """
    w0, w1 = philox2x64(np.asarray(counter, dtype=np.uint64), _EVENT_DOMAIN, keys,
                        ROUNDS, work)
    return _to_unit_interval(w0), _to_unit_interval(w1)

