"""Counter-based stream: exactness of the limb arithmetic, determinism,
stream independence."""

import numpy as np

from levysym import rng, simulate
from levysym.symbols import IncreasingDoublingApprox, LatticeUnit


def test_mulhilo_matches_bigint_oracle():
    gen = np.random.default_rng(0)
    a = gen.integers(0, 2**64, 500, dtype=np.uint64)
    # reach the multiply through one philox round with round count 1
    x0, x1 = rng.philox2x64(a, np.zeros_like(a), np.full_like(a, 7), rounds=1)
    mask = (1 << 64) - 1
    for i in range(a.size):
        prod = int(rng._M) * int(a[i])
        hi, lo = prod >> 64, prod & mask
        assert int(x1[i]) == lo
        assert int(x0[i]) == (hi ^ 7 ^ 0)


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
