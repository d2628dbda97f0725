"""Counter-based stream: exactness of the limb arithmetic, determinism,
stream independence."""

import math

import numpy as np
import pytest

from levysym import rng, simulate
from levysym.symbols import IncreasingDoublingApprox, LatticeUnit


def test_mulhilo_matches_bigint_oracle():
    gen = np.random.default_rng(0)
    a = gen.integers(0, 2**64, 500, dtype=np.uint64)
    a[:3] = 0, 1, 2**64 - 1
    lo = np.empty_like(a)
    hi = rng._mulhilo(a, *(np.empty_like(a) for _ in range(4)), lo)
    for x, h, l in zip(a.tolist(), hi.tolist(), lo.tolist()):
        assert (h << 64) | l == int(rng._M) * x


def _philox_oracle(c0: int, c1: int, key: int, rounds: int) -> tuple[int, int]:
    """Philox2x64 on Python ints: the 128-bit product is exact."""
    mask = (1 << 64) - 1
    for _ in range(rounds):
        prod = int(rng._M) * c0
        c0, c1 = (prod >> 64) ^ key ^ c1, prod & mask
        key = (key + int(rng._W)) & mask
    return c0, c1


_GEN = np.random.default_rng(3)


def _words(*shape):
    return _GEN.integers(0, 2**64, shape, dtype=np.uint64, endpoint=False)


@pytest.mark.parametrize("rounds", [rng.ROUNDS])
@pytest.mark.parametrize(
    "c0, c1, key",
    [
        # path keys and per-path blocks: a scalar key at a run of counters
        (_words(37), rng._KEY_DOMAIN, np.uint64(2**64 - 1)),
        # lock-step tiles and first draws: a row of keys at a column of
        # counters; then a row of counters against a row of keys
        (np.arange(7, dtype=np.uint64)[:, None], rng._EVENT_DOMAIN, _words(1, 40)),
        (_words(3, 1), rng._EVENT_DOMAIN, _words(1, 5)),
        (_words(1, 33), rng._EVENT_DOMAIN, _words(1, 33)),
        # a key of the full shape, and every word 0-d
        (_words(4, 6), _words(4, 6), _words(4, 6)),
        (np.uint64(3), np.uint64(4), np.uint64(5)),
    ],
    ids=["scalar-key", "key-row", "short-key-row", "row", "full-key", "0-d"],
)
def test_philox_matches_bigint_oracle(c0, c1, key, rounds):
    shape = np.broadcast_shapes(np.shape(c0), np.shape(c1), np.shape(key))
    work = rng.work_buffer(math.prod(shape))
    work.fill(0xDEADBEEF)  # stale words from an earlier call
    for words in (rng.philox2x64(c0, c1, key), rng.philox2x64(c0, c1, key, work)):
        assert all(w.shape == shape and w.dtype == np.uint64 for w in words)
        flat = [np.broadcast_to(np.asarray(a, dtype=np.uint64), shape).ravel().tolist()
                for a in (c0, c1, key)]
        expected = [_philox_oracle(*ints, rounds) for ints in zip(*flat)]
        assert list(zip(words[0].ravel().tolist(), words[1].ravel().tolist())) == expected


def test_deterministic_and_key_sensitive():
    c = np.arange(100, dtype=np.uint64)
    a0, a1 = rng.philox2x64(c, 0, 123)
    b0, b1 = rng.philox2x64(c, 0, 123)
    assert np.array_equal(a0, b0) and np.array_equal(a1, b1)
    c0, _ = rng.philox2x64(c, 0, 124)
    assert not np.array_equal(a0, c0)


def test_uniforms_open_interval_and_moments():
    keys = rng.path_keys(99, np.arange(2000))
    u1, u2 = rng.event_uniforms(keys, 5)
    for u in (u1, u2):
        assert np.all(u > 0.0) and np.all(u < 1.0)
        assert abs(u.mean() - 0.5) < 0.02
        assert abs(u.var() - 1.0 / 12.0) < 0.01


def test_path_keys_distinct():
    keys = rng.path_keys(7, np.arange(10_000))
    assert np.unique(keys).size == 10_000


def test_per_path_engine_reads_counter_j_across_blocks():
    # one move at rate 1: the jump times are the running sums of the
    # exponential variates, and about 2 000 events cross a 1 024-counter block
    rule = simulate.jump_rule_of(IncreasingDoublingApprox(LatticeUnit.parse("1"), 0))
    cfg = simulate.SimConfig(horizon=2000.0, seed=11, paths=4)
    path = simulate.simulate_path(rule, rule.initial_state(), cfg, path_index=3)
    J = len(path.times)
    assert J > 1024
    key = rng.path_keys(11, [3])[0]
    u1, _ = rng.event_uniforms(key, np.arange(J))
    assert np.array_equal(np.array(path.times), np.cumsum(-np.log(u1)))


def test_grouped_first_draws_read_counter_j_of_each_path():
    # one move at rate 1, as above, for 130 stored paths: paths 0 and 63 share
    # their first draw, 64 starts the next one and 129 the third, and about
    # 2 000 events run past counter 256 (the first draw) and 1 280 (a block)
    rule = simulate.jump_rule_of(IncreasingDoublingApprox(LatticeUnit.parse("1"), 0))
    cfg = simulate.SimConfig(horizon=2000.0, seed=13, paths=130, store_paths=True)
    res = simulate.simulate_ensemble(rule, rule.initial_state(), cfg)
    keys = rng.path_keys(13, np.arange(130))
    for i in (0, 63, 64, 129):
        J = len(res.paths[i].times)
        assert J > 1280
        u1, _ = rng.event_uniforms(keys[i], np.arange(J))
        assert np.array_equal(np.array(res.paths[i].times), np.cumsum(-np.log(u1)))


def test_order_independence_of_event_uniforms():
    keys = rng.path_keys(5, np.arange(64))
    direct = [rng.event_uniforms(keys[i : i + 1], 9)[0][0] for i in range(64)]
    batched = rng.event_uniforms(keys, 9)[0]
    assert np.array_equal(np.array(direct), batched)


@pytest.mark.parametrize(
    "c0, c1, key",
    [
        (np.arange(40, dtype=np.uint64)[:, None], rng._EVENT_DOMAIN,
         np.arange(1, 31, dtype=np.uint64)[None, :] * 0x9E37),
        (np.arange(50, dtype=np.uint64), np.arange(50, 100, dtype=np.uint64), 123),
        (np.arange(64, dtype=np.uint64), 0, np.uint64(2**64 - 1)),
        (3, 4, 5),
    ],
    ids=["tile", "pair", "scalar-key", "scalars"],
)
def test_work_buffer_gives_the_same_words(c0, c1, key):
    plain = rng.philox2x64(c0, c1, key)
    size = np.broadcast(np.asarray(c0), np.asarray(c1), np.asarray(key)).size
    work = rng.work_buffer(size + 5)  # larger than needed
    work.fill(0xDEADBEEF)  # stale words from an earlier call
    words = rng.philox2x64(c0, c1, key, work)
    again = rng.philox2x64(c0, c1, key, work)  # the buffer reused
    for w, a, p in zip(words, again, plain):
        assert w.shape == p.shape and np.array_equal(w, p) and np.array_equal(a, p)
        assert not np.shares_memory(w, work)
    kept = [w.copy() for w in words]
    work.fill(0)  # overwriting the buffer leaves the returned words alone
    assert all(np.array_equal(w, k) for w, k in zip(words, kept))


def test_event_uniforms_and_path_keys_pass_the_work_buffer_through():
    work = rng.work_buffer(16 * 8)
    keys = rng.path_keys(3, np.arange(8), work)
    assert np.array_equal(keys, rng.path_keys(3, np.arange(8)))
    counters = np.arange(16, dtype=np.uint64)[:, None]
    for a, b in zip(rng.event_uniforms(keys, counters, work), rng.event_uniforms(keys, counters)):
        assert np.array_equal(a, b)


WORDS_64 = rng._WORK_SLOTS * 64  # the work a call of 64 counters needs


@pytest.mark.parametrize(
    "work",
    [
        rng.work_buffer(63),
        np.zeros(WORDS_64, dtype=np.int64),
        np.zeros((rng._WORK_SLOTS, 64), dtype=np.uint64),
        np.zeros(2 * WORDS_64, dtype=np.uint64)[::2],
        np.zeros(WORDS_64, dtype=np.uint64).tolist(),
        np.frombuffer(bytes(8 * WORDS_64), dtype=np.uint64),
    ],
    ids=["too-small", "int64", "2-D", "strided", "list", "read-only"],
)
def test_unfit_work_buffer_is_rejected(work):
    with pytest.raises(ValueError, match="work"):
        rng.philox2x64(np.arange(64, dtype=np.uint64), 0, 5, work)
