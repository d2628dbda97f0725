"""Simulator: exact lattice closure, engine equivalence, determinism,
Poisson oracle, event budget, artifact formats."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levysym import rng, simulate
from levysym.errors import UnsupportedSpec
from levysym.mcstats import Sample, support_audit
from levysym.simulate import (
    ExactState,
    JumpRule,
    SimConfig,
    endpoint_csv,
    jump_rule_of,
    manifest_json,
    path_csv,
    simulate_ensemble,
    simulate_path,
)
from levysym.symbols import (
    ConstantSymbol,
    IncreasingDoublingApprox,
    LatticeUnit,
    SymmetricDoublingApprox,
    truncation,
)

K1 = LatticeUnit.parse("1")
KS2 = LatticeUnit.parse("sqrt2")


# ----------------------------------------------------------------------
# exact states
# ----------------------------------------------------------------------
def test_exact_state_canonical():
    s = ExactState("1", 1.0, 12, 4)  # 12/16 -> 3/4
    assert (s.m, s.s) == (3, 2)
    assert ExactState("1", 1.0, 0, 9).s == 0
    assert ExactState("1", 1.0, 8, 0).m == 8  # scale floor: stays


def test_exact_state_shift():
    s = ExactState("1", 1.0, 1, 2)  # 1/4
    t = s.shifted(1, 3)  # + 1/8 = 3/8
    assert (t.m, t.s) == (3, 3)
    back = t.shifted(-3, 3)
    assert back.is_zero


def test_exact_state_compare():
    s = ExactState("1", 1.0, 3, 2)  # 3/4
    assert s.compare_value(1, 0) < 0
    assert s.compare_value(3, 2) == 0
    assert s.compare_value(1, 1) > 0


# ----------------------------------------------------------------------
# rules
# ----------------------------------------------------------------------
def test_jump_rule_symmetric_rates():
    rule = jump_rule_of(SymmetricDoublingApprox(K1, 0))
    moves = rule.moves(rule.initial_state())
    assert len(moves) == 2
    assert moves[0][0] == pytest.approx(0.5)
    assert {m[1] for m in moves} == {(1, 0), (-1, 0)}
    # at x = k 2^z: rates 4^{-z}/(2 k^2)
    rule10 = jump_rule_of(SymmetricDoublingApprox(K1, 10))
    state = ExactState("1", 1.0, 1, 3)  # x = 2^-3
    moves = rule10.moves(state)
    assert moves[0][0] == pytest.approx(4.0**3 / 2.0)


def test_jump_rule_increasing_clamp():
    rule = jump_rule_of(IncreasingDoublingApprox(K1, 2))
    lo = rule.moves(rule.initial_state())
    assert lo == ((4.0, (1, 2)),)  # h = 1/4, rate 4
    hi = rule.moves(ExactState("1", 1.0, 100, 0))
    assert hi == ((0.25, (16, 2)),)  # h = 4, rate 1/4


def test_jump_rule_rejects_limit_symbols():
    with pytest.raises(UnsupportedSpec):
        jump_rule_of(ConstantSymbol())


# ----------------------------------------------------------------------
# engines
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "spec",
    [SymmetricDoublingApprox(K1, 6), SymmetricDoublingApprox(KS2, 5),
     IncreasingDoublingApprox(K1, 6)],
    ids=["sym-k1", "sym-sqrt2", "inc-k1"],
)
def test_lockstep_engine_matches_generic(spec):
    rule = jump_rule_of(spec)
    x0 = rule.initial_state()
    fast = simulate_ensemble(rule, x0, SimConfig(horizon=1.0, seed=99, paths=400))
    slow = simulate_ensemble(
        rule, x0, SimConfig(horizon=1.0, seed=99, paths=400, store_paths=True)
    )
    assert fast.endpoints == slow.endpoints
    assert fast.event_counts == slow.event_counts


@pytest.mark.parametrize(
    "spec, x0, horizon",
    [
        # 4**n does not fit int64
        (IncreasingDoublingApprox(K1, 32), ExactState("1", 1.0, 0, 0), 1.0),
        # mm passes 2**63 during the run
        (IncreasingDoublingApprox(K1, 31), ExactState("1", 1.0, 0, 0), 1e10),
        # m * m of x0 does not fit int64
        (SymmetricDoublingApprox(K1, 4), ExactState("1", 1.0, 1 << 32, 0), 1.0),
        # |m| doubles past 2**31 during the run
        (SymmetricDoublingApprox(K1, 4), ExactState("1", 1.0, 1 << 30, 0), 1e20),
    ],
    ids=["inc-n32", "inc-n31-long", "sym-x0-2^32", "sym-long"],
)
def test_engines_agree_beyond_int64_range(spec, x0, horizon):
    rule = jump_rule_of(spec)
    cfg = dict(horizon=horizon, seed=3, paths=64, max_events=2000)
    fast = simulate_ensemble(rule, x0, SimConfig(**cfg))
    slow = simulate_ensemble(rule, x0, SimConfig(**cfg, store_paths=True))
    assert fast.endpoints == slow.endpoints
    assert fast.event_counts == slow.event_counts
    assert fast.truncated_count == slow.truncated_count


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from([SymmetricDoublingApprox, IncreasingDoublingApprox]),
    k=st.sampled_from([K1, KS2]),
    n=st.integers(0, 8),
    m=st.integers(-40, 40),
    s=st.integers(0, 10),
    horizon=st.sampled_from([0.05, 0.5, 1.0, 2.0]),
    max_events=st.integers(0, 1000),
    paths=st.integers(2, 64),
    seed=st.integers(0, 2**64 - 1),
)
def test_lockstep_engine_agrees_with_per_path_engine(
    family, k, n, m, s, horizon, max_events, paths, seed
):
    # nonzero, negative and symmetric inner-region starts; truncation
    rule = jump_rule_of(family(k, n))
    x0 = rule.initial_state(m, s)
    cfg = dict(horizon=horizon, seed=seed, paths=paths, max_events=max_events)
    fast = simulate_ensemble(rule, x0, SimConfig(**cfg))
    slow = simulate_ensemble(rule, x0, SimConfig(**cfg, store_paths=True))
    assert fast.endpoints == slow.endpoints
    assert fast.event_counts == slow.event_counts
    assert fast.truncated_count == slow.truncated_count
    assert fast.m.tolist() == slow.m.tolist()
    assert fast.s.tolist() == slow.s.tolist()


def _engines_agree(rule, x0, **cfg):
    """Run both engines on one input, assert they agree; return the fast run."""
    fast = simulate_ensemble(rule, x0, SimConfig(**cfg))
    slow = simulate_ensemble(rule, x0, SimConfig(**cfg, store_paths=True))
    assert fast.m.tolist() == slow.m.tolist()
    assert fast.s.tolist() == slow.s.tolist()
    assert fast.event_counts == slow.event_counts
    assert fast.truncated_count == slow.truncated_count
    return fast


# the lock-step engine draws counters j .. j + B - 1 for all active paths in
# one call; these inputs put path ends, truncation and the int64 fallback at
# the edges and in the middle of such tiles
TILE_FAMILIES = [
    (SymmetricDoublingApprox(K1, 10), 4.0),
    (IncreasingDoublingApprox(K1, 0), 12_000.0),
]


@pytest.mark.parametrize("spec, horizon", TILE_FAMILIES, ids=["sym", "inc"])
@pytest.mark.parametrize("paths", [2, 3])
def test_lockstep_tiles_spanning_thousands_of_counters(spec, horizon, paths):
    rule = jump_rule_of(spec)
    fast = _engines_agree(rule, rule.initial_state(), horizon=horizon, seed=21,
                          paths=paths)
    assert fast.m.dtype == np.int64  # the lock-step engine ran
    assert max(fast.event_counts) > simulate._TILE // paths  # past the first tile


@pytest.mark.parametrize("spec, horizon", TILE_FAMILIES, ids=["sym", "inc"])
@pytest.mark.parametrize("paths", [3, 700])
def test_lockstep_truncates_inside_a_tile(spec, horizon, paths):
    rule = jump_rule_of(spec)
    fast = _engines_agree(rule, rule.initial_state(), horizon=horizon, seed=4,
                          paths=paths, max_events=37)
    assert fast.m.dtype == np.int64
    assert 0 < fast.truncated_count
    assert max(fast.event_counts) == 37


@pytest.mark.parametrize(
    "spec, horizon",
    [(SymmetricDoublingApprox(K1, 10), 0.002), (IncreasingDoublingApprox(K1, 0), 5.0)],
    ids=["sym", "inc"],
)
def test_lockstep_paths_ending_at_tile_edges(spec, horizon, monkeypatch):
    rule = jump_rule_of(spec)
    x0 = rule.initial_state()
    # every path ends at the first event of the first tile
    fast = _engines_agree(rule, x0, horizon=1e-9, seed=6, paths=3)
    assert fast.event_counts == (0, 0, 0)
    # tiles of one to nine counters: paths end on the first, middle and
    # last rows of a tile, and tiles widen as paths end
    for tile in (1, 5, 9):
        monkeypatch.setattr(simulate, "_TILE", tile)
        fast = _engines_agree(rule, x0, horizon=horizon, seed=6, paths=3,
                              max_events=200)
        assert fast.m.dtype == np.int64
        assert len(set(fast.event_counts)) == 3


@pytest.mark.parametrize("seed", [4, 8, 9, 10])
def test_lockstep_freezes_paths_that_end_inside_a_tile(seed):
    # from 2**29 some paths double to 2**30 and hold past the horizon while
    # another runs on near 0; stepped on, they would wrap m * m in int64
    rule = jump_rule_of(SymmetricDoublingApprox(K1, 4))
    x0 = ExactState("1", 1.0, 1 << 29, 0)
    fast = _engines_agree(rule, x0, horizon=6e17, seed=seed, paths=3, max_events=300)
    assert fast.m.dtype == np.int64
    assert 1 in fast.event_counts and max(fast.event_counts) > 1


@pytest.mark.parametrize(
    "spec, x0, horizon",
    [
        # |m| doubles from 2**30 past 2**31 at the second event
        (SymmetricDoublingApprox(K1, 4), ExactState("1", 1.0, 1 << 30, 0), 1e20),
        # m reaches 2**62 and the next jump of 4**31 would pass 2**63
        (IncreasingDoublingApprox(K1, 31), ExactState("1", 1.0, 0, 0), 1e10),
    ],
    ids=["sym-2^30", "inc-n31"],
)
def test_lockstep_int64_fallback_inside_a_tile(spec, x0, horizon):
    rule = jump_rule_of(spec)
    fast = _engines_agree(rule, x0, horizon=horizon, seed=8, paths=3,
                          max_events=2000)
    assert fast.m.dtype == object  # the per-path engine finished the run
    assert max(fast.event_counts) > 1


@pytest.mark.parametrize(
    "spec, horizon, seed",
    [(IncreasingDoublingApprox(K1, 0), 5.0, 2), (SymmetricDoublingApprox(K1, 1), 1.5, 3)],
    ids=["inc", "sym"],
)
def test_lockstep_freezes_paths_at_every_exit_of_a_tile(spec, horizon, seed, monkeypatch):
    # one tile holds events 0 .. 6 of all 16 paths: some paths end at its
    # first row, some at its last, and the rest truncate there
    calls = []
    draw = rng.event_uniforms
    monkeypatch.setattr(rng, "event_uniforms", lambda *a: calls.append(a) or draw(*a))
    monkeypatch.setattr(simulate, "_TILE", 7 * 16)
    rule = jump_rule_of(spec)
    x0 = rule.initial_state()
    cfg = dict(horizon=horizon, seed=seed, paths=16, max_events=6,
               observe=(horizon / 4, horizon / 2))
    fast = simulate_ensemble(rule, x0, SimConfig(**cfg))
    assert fast.m.dtype == np.int64 and len(calls) == 1
    slow = simulate_ensemble(rule, x0, SimConfig(**cfg, store_paths=True))
    assert fast.endpoints == slow.endpoints
    assert fast.event_counts == slow.event_counts
    assert fast.truncated_count == slow.truncated_count
    assert fast.m_at.tolist() == slow.m_at.tolist()
    assert fast.s_at.tolist() == slow.s_at.tolist()
    last_row = [n == 6 and not p.truncated for n, p in zip(slow.event_counts, slow.paths)]
    assert 0 in fast.event_counts and any(last_row) and fast.truncated_count > 0


@pytest.mark.parametrize("family", [SymmetricDoublingApprox, IncreasingDoublingApprox])
@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("store_paths", [False, True], ids=["lockstep", "perpath"])
def test_unit_two_at_n_plus_one_runs_as_unit_one_at_n(family, n, store_paths):
    # k**2 = 4 scales every rate by a power of two: (k = 2, n + 1) and
    # (k = 1, n) have the same rate floats, so the same draws give the same run
    cfg = SimConfig(horizon=1.0, seed=5, paths=3000 if not store_paths else 300,
                    store_paths=store_paths)
    one, two = (simulate_ensemble(rule, rule.initial_state(), cfg)
                for rule in (jump_rule_of(family(K1, n)),
                             jump_rule_of(family(LatticeUnit.parse("2"), n + 1))))
    assert one.m.dtype == two.m.dtype == (object if store_paths else np.int64)
    assert one.values.tolist() == two.values.tolist()
    assert one.event_counts == two.event_counts


@pytest.mark.parametrize("store_paths", [False, True], ids=["lockstep", "perpath"])
@pytest.mark.parametrize("family", [SymmetricDoublingApprox, IncreasingDoublingApprox])
def test_endpoints_share_one_state_per_point(family, store_paths):
    rule = jump_rule_of(family(K1, 4))
    res = simulate_ensemble(rule, rule.initial_state(),
                            SimConfig(horizon=1.0, seed=9, paths=300, store_paths=store_paths))
    fresh = [ExactState(res.unit_tag, res.k, m, s)
             for m, s in zip(res.m.tolist(), res.s.tolist())]
    assert list(res.endpoints) == fresh
    shared = {}
    for state in res.endpoints:  # equal states are one object
        assert shared.setdefault(state, state) is state
    assert len(shared) < len(fresh)


def test_lockstep_endpoints_are_at_most_one_object_per_level(monkeypatch):
    tables = []
    run = simulate._lockstep
    monkeypatch.setattr(simulate, "_lockstep",
                        lambda table, cfg: tables.append(table) or run(table, cfg))
    rule = jump_rule_of(SymmetricDoublingApprox(K1, 4))
    res = simulate_ensemble(rule, rule.initial_state(),
                            SimConfig(horizon=1.0, seed=1, paths=10_000))
    (table,) = tables
    assert len({id(state) for state in res.endpoints}) <= len(table.states)


@pytest.mark.parametrize("m, horizon", [(3, 50.0), (-5, 100.0), (7 << 10, 1e8)])
def test_lockstep_runs_symmetric_starts_off_the_ladder_of_0(m, horizon):
    # x0's own doubling ladder is tabulated beside the ladders of 0
    rule = jump_rule_of(SymmetricDoublingApprox(K1, 4))
    fast = _engines_agree(rule, rule.initial_state(m), horizon=horizon, seed=12,
                          paths=32, max_events=300)
    assert fast.m.dtype == np.int64
    assert max(fast.event_counts) > 1


def _chain_table(rule, x0, monkeypatch):
    """The table the lock-step engine builds to run rule from x0."""
    tables = []
    monkeypatch.setattr(simulate, "_lockstep", lambda table, cfg: tables.append(table))
    run = (simulate._ensemble_symmetric_doubling if rule.family == "symmetric_doubling"
           else simulate._ensemble_increasing_doubling)
    run(rule, x0, SimConfig(horizon=1.0, seed=0, paths=2))
    return tables[0]


def _carried(rule, state):
    """Whether the lock-step engine carries the state: |m| < 2**31 for the
    symmetric family; for the increasing family, a point of the int64 lattice
    of scale n that one more jump, at most 4**n, keeps on it."""
    (n,) = rule.family_params
    if rule.family == "symmetric_doubling":
        return abs(state.m) < 1 << 31
    return state.s <= n and -(1 << 63) <= state.m << (n - state.s) <= (1 << 63) - 1 - 4**n


@pytest.mark.parametrize("family", [SymmetricDoublingApprox, IncreasingDoublingApprox])
@pytest.mark.parametrize("k", ["1", "sqrt2", "cbrt2"])
@pytest.mark.parametrize("n", [0, 1, 8, 16, 31])
def test_chain_table_matches_the_rule(family, k, n, monkeypatch):
    rule = jump_rule_of(family(LatticeUnit.parse(k), n))
    for x0 in (rule.initial_state(), rule.initial_state(3)):
        table = _chain_table(rule, x0, monkeypatch)
        rate, succ = table.extend(300)
        up, down = succ.T
        built = len(table.rate)
        assert table.states[0] == x0
        assert len(set(table.states)) == len(table.states)
        for lev, state in enumerate(table.states[:built]):
            moves = rule.moves(state)
            total = 0.0
            for r, _ in moves:
                total += r
            assert rate[lev] == total
            for succ, (_, (dm, ds)) in ((up[lev], moves[0]), (down[lev], moves[-1])):
                after = state.shifted(dm, ds)
                if _carried(rule, after):
                    assert 0 <= succ and table.states[succ] == after
                else:
                    assert succ == -1
        # levels not expanded yet, and level -1
        assert np.isnan(rate[built:]).all()
        assert (up[built:] == -1).all() and (down[built:] == -1).all()
        if family is SymmetricDoublingApprox:
            assert table.depth == math.inf  # the ladders are finite
        else:  # level j is the state after j events
            assert built == min(300, len(table.states))
            assert up[:built].tolist() == down[:built].tolist()
            assert all(succ in (lev + 1, -1) for lev, succ in enumerate(up[:built]))


@pytest.mark.parametrize("family", [SymmetricDoublingApprox, IncreasingDoublingApprox])
def test_chain_levels_move_as_the_symbol_triplet(family, monkeypatch):
    # one dynamics: at every level of the engine's table the rule's moves,
    # mapped to (k dm 2^-ds, rate), are the jumps of the symbol's triplet,
    # with no diffusion and a drift that is all compensator, no true drift
    def close(a, b):
        return math.isclose(a, b, rel_tol=1e-15, abs_tol=0.0)

    for k in ("1", "sqrt2", "cbrt2"):
        for n in (0, 2, 4, 10):
            spec = family(LatticeUnit.parse(k), n)
            rule = jump_rule_of(spec)
            table = _chain_table(rule, rule.initial_state(), monkeypatch)
            table.extend(40)
            for state in table.states[:len(table.rate)]:
                chain = [(rule.k * math.ldexp(dm, -ds), r) for r, (dm, ds) in rule.moves(state)]
                trip = spec.triplet(state.value)
                assert trip.diffusion == 0.0
                assert len(chain) == len(trip.jumps)
                for (y, r), (ty, tr) in zip(chain, trip.jumps):
                    assert close(y, ty) and close(r, tr), (k, n, state)
                assert close(trip.drift, sum(r * truncation(y) for y, r in chain))


@pytest.mark.parametrize(
    "spec, budget",  # budget: about the median event count at t = 0.3
    [(SymmetricDoublingApprox(K1, 4), 12), (IncreasingDoublingApprox(K1, 6), 5)],
    ids=["sym", "inc"],
)
@pytest.mark.parametrize("truncate", [False, True], ids=["full", "truncated"])
@pytest.mark.parametrize("store_paths", [False, True], ids=["lockstep", "perpath"])
def test_observed_columns_are_endpoints_of_shorter_runs(spec, budget, truncate,
                                                        store_paths):
    rule = jump_rule_of(spec)
    x0 = rule.initial_state()
    cfg = dict(seed=13, paths=60, max_events=budget if truncate else 10_000_000)
    # the second jumps of paths 0 and 1 happen exactly at observation times;
    # path 1's passes another observation time on its way there, path 0's not
    a, b = (simulate_path(rule, x0, SimConfig(horizon=1.0, seed=13), i).times
            for i in (0, 1))
    observe = sorted({0.2, 0.5, a[1], (b[0] + b[1]) / 2.0, b[1], 0.8})
    assert not any(a[0] < tq < a[1] for tq in observe) and b[1] < 0.2
    run = simulate_ensemble(rule, x0, SimConfig(horizon=1.0, observe=observe,
                                                store_paths=store_paths, **cfg))
    plain = simulate_ensemble(rule, x0, SimConfig(horizon=1.0, store_paths=store_paths,
                                                  **cfg))
    assert run.m.dtype == (object if store_paths else np.int64)
    assert run.m.tolist() == plain.m.tolist()
    assert run.s.tolist() == plain.s.tolist()
    assert run.event_counts == plain.event_counts
    assert run.truncated_count == plain.truncated_count
    assert run.m_at.shape == run.s_at.shape == (len(observe), 60)
    truncations = []
    for q, tq in enumerate(observe):  # the per-path engine run to tq is the oracle
        oracle = simulate_ensemble(rule, x0, SimConfig(horizon=tq, store_paths=True, **cfg))
        assert run.m_at[q].tolist() == oracle.m.tolist()
        assert run.s_at[q].tolist() == oracle.s.tolist()
        truncations.append(oracle.truncated_count)
    if truncate:  # paths truncate between the observation times
        assert truncations[0] < truncations[-1] < run.truncated_count


@pytest.mark.parametrize("family", [SymmetricDoublingApprox, IncreasingDoublingApprox])
def test_per_path_engine_keeps_endpoints_beyond_int64(family):
    # no event happens before 1e-30: every path ends where it starts
    rule = jump_rule_of(family(K1, 4))
    for m, on_lattice in ((1 << 63, True), (1 << 70, True), (-(1 << 63) - 1, False)):
        x0 = rule.initial_state(m)
        res = simulate_ensemble(rule, x0, SimConfig(horizon=1e-30, seed=5, paths=3))
        assert [state.m for state in res.endpoints] == [m] * 3
        assert res.values.tolist() == [state.value for state in res.endpoints]
        audit = support_audit(Sample.from_ensemble(res), "1")
        assert (audit.off_lattice, audit.nonzero_total, audit.total) == (
            0 if on_lattice else 3, 3, 3)


def _three_moves(state):
    """+1, -1 and +2 at rates that depend on m; m = -3 absorbs (rate 0)."""
    m = state.m
    if m == -3:
        return ((0.0, (1, 0)), (0.0, (-1, 0)), (0.0, (2, 0)))
    return ((1.5 + 0.5 * (m % 3), (1, 0)), (1.5 + 0.25 * (m % 2), (-1, 0)),
            (0.25 + 0.125 * (m % 4), (2, 0)))


def _reference_path(cfg, i):
    """Path i of ``_three_moves`` from 0, event by event: (m, events,
    truncated, jump times, m at each observation time)."""
    u1, u2 = rng.event_uniforms(rng.path_keys(cfg.seed, [i])[0],
                                np.arange(cfg.max_events + 1))
    e1 = -np.log(u1)
    m, t, j, truncated = 0, 0.0, 0, False
    times, observed = [], []
    while True:
        moves = _three_moves(ExactState("1", 1.0, m, 0))
        total = 0.0
        for r, _ in moves:
            total += r
        if total <= 0.0:
            break
        t += float(e1[j]) / total  # event j reads counter j
        while len(observed) < len(cfg.observe) and t > cfg.observe[len(observed)]:
            observed.append(m)
        if t > cfg.horizon:
            break
        if j >= cfg.max_events:
            truncated = True
            break
        target, acc, (dm, _) = float(u2[j]) * total, 0.0, moves[-1][1]
        for r, (d, _) in moves:
            acc += r
            if acc > target:
                dm = d
                break
        m += dm
        j += 1
        times.append(t)
    observed += [m] * (len(cfg.observe) - len(observed))
    return m, j, truncated, times, observed


def test_generic_three_move_rule_matches_reference_loop():
    # family None runs per path without store_paths; paths absorb at -3, end
    # at the horizon or at the budget, some past counter 256 of the first draw
    rule = JumpRule(_three_moves, "1", 1.0)
    cfg = SimConfig(horizon=100.0, seed=21, paths=140, max_events=400,
                    observe=(1.0, 10.0, 40.0, 99.0))
    res = simulate_ensemble(rule, rule.initial_state(), cfg)
    refs = [_reference_path(cfg, i) for i in range(cfg.paths)]
    assert res.m.tolist() == [r[0] for r in refs]
    assert res.s.tolist() == [0] * cfg.paths
    assert res.event_counts == tuple(r[1] for r in refs)
    assert res.truncated_count == sum(r[2] for r in refs)
    assert res.m_at.T.tolist() == [r[4] for r in refs]
    absorbed = [r[0] == -3 for r in refs]
    assert 0 < sum(absorbed) and 0 < res.truncated_count
    assert 256 < max(res.event_counts[i] for i in range(cfg.paths) if not absorbed[i])
    for i in (5, 63, 64, 139):
        path = simulate_path(rule, rule.initial_state(), cfg, path_index=i)
        assert path.endpoint == res.endpoints[i]
        assert list(path.times) == refs[i][3]
        assert path.truncated == refs[i][2]


def test_single_path_equals_ensemble_member():
    rule = jump_rule_of(SymmetricDoublingApprox(K1, 5))
    x0 = rule.initial_state()
    ens = simulate_ensemble(rule, x0, SimConfig(horizon=1.0, seed=17, paths=20))
    for i in (0, 7, 19):
        path = simulate_path(rule, x0, SimConfig(horizon=1.0, seed=17), path_index=i)
        assert path.endpoint == ens.endpoints[i]


def test_determinism_and_order_independence():
    rule = jump_rule_of(IncreasingDoublingApprox(K1, 4))
    x0 = rule.initial_state()
    a = simulate_ensemble(rule, x0, SimConfig(horizon=1.0, seed=5, paths=100))
    b = simulate_ensemble(rule, x0, SimConfig(horizon=1.0, seed=5, paths=100))
    assert endpoint_csv(a) == endpoint_csv(b)
    # a smaller ensemble is a prefix: per-path streams do not interact
    c = simulate_ensemble(rule, x0, SimConfig(horizon=1.0, seed=5, paths=17))
    assert c.endpoints == a.endpoints[:17]


def test_paths_stay_on_exact_lattice():
    rule = jump_rule_of(SymmetricDoublingApprox(KS2, 8))
    x0 = rule.initial_state()
    res = simulate_ensemble(
        rule, x0, SimConfig(horizon=1.0, seed=3, paths=50, store_paths=True)
    )
    for path in res.paths:
        assert len(path.states) == len(path.times) + 1
        for state in path.states:
            assert state.unit_tag == "sqrt2"
            a = abs(state.m)  # a power of two, or zero
            assert a & (a - 1) == 0
        assert all(b > a for a, b in zip(path.times, path.times[1:]))


def test_increasing_paths_monotone():
    rule = jump_rule_of(IncreasingDoublingApprox(K1, 5))
    res = simulate_ensemble(
        rule, rule.initial_state(),
        SimConfig(horizon=1.0, seed=11, paths=40, store_paths=True),
    )
    for path in res.paths:
        vals = [s.value for s in path.states]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_poisson_oracle():
    # n = 0 clamps the jump to +1 at rate 1: X(1) ~ Poisson(1)
    rule = jump_rule_of(IncreasingDoublingApprox(K1, 0))
    res = simulate_ensemble(
        rule, rule.initial_state(), SimConfig(horizon=1.0, seed=123, paths=40_000)
    )
    vals = np.array([s.value for s in res.endpoints])
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - 1.0) < 4.0 * se
    assert abs(vals.var() - 1.0) < 0.05


def test_empty_rule_constant_path():
    rule = JumpRule(moves=lambda s: (), unit_tag="1", k=1.0)
    path = simulate_path(rule, rule.initial_state(), SimConfig(horizon=1.0, seed=1))
    assert path.times == ()
    assert path.endpoint.is_zero
    assert not path.truncated


def test_event_budget_truncates():
    rule = jump_rule_of(IncreasingDoublingApprox(K1, 0))
    cfg = SimConfig(horizon=1e9, seed=2, paths=1, max_events=10)
    path = simulate_path(rule, rule.initial_state(), cfg)
    assert path.truncated
    assert len(path.times) == 10
    ens = simulate_ensemble(rule, rule.initial_state(),
                            SimConfig(horizon=1e9, seed=2, paths=5, max_events=10))
    assert ens.truncated_count == 5


def test_sim_config_validation():
    for horizon in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            SimConfig(horizon=horizon, seed=1)
    with pytest.raises(ValueError):
        SimConfig(horizon=1.0, seed=1, max_events=-4)
    with pytest.raises(ValueError):
        SimConfig(horizon=1.0, seed=1, paths=0)
    assert SimConfig(horizon=1.0, seed=1, max_events=0).max_events == 0
    # observation times: unsorted, repeated, <= 0, >= horizon, NaN
    for observe in [(0.5, 0.25), (0.5, 0.5), (0.0, 0.5), (-0.1,), (1.0,), (0.5, 1.5),
                    (math.nan,)]:
        with pytest.raises(ValueError):
            SimConfig(horizon=1.0, seed=1, observe=observe)
    assert SimConfig(horizon=1.0, seed=1, observe=[0.25, 0.5]).observe == (0.25, 0.5)
    # seeds outside [0, 2**64) would wrap onto another seed's streams
    for seed in (-1, 2**64, 2**70):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(horizon=1.0, seed=seed)
    # seed, paths and max_events must be integers, bool excluded
    for field, value in [("seed", 1.0), ("seed", True), ("seed", "1"), ("paths", 2.5),
                         ("paths", True), ("max_events", 10.0), ("max_events", False),
                         ("paths", np.bool_(True))]:
        with pytest.raises(ValueError, match=field):
            SimConfig(**{"horizon": 1.0, "seed": 1, field: value})
    assert SimConfig(horizon=1.0, seed=np.uint64(7), paths=np.int64(3)).paths == 3


def test_in_range_seeds_keep_their_streams():
    rule = jump_rule_of(SymmetricDoublingApprox(K1, 4))
    for seed, head, total in [(0, (83, 70, 9, 37, 30, 87, 50, 20), 949),
                              (2**63, (29, 24, 8, 39, 25, 12, 13, 46), 706),
                              (2**64 - 1, (9, 51, 67, 7, 33, 38, 6, 49), 874)]:
        res = simulate_ensemble(rule, rule.initial_state(),
                                SimConfig(horizon=1.0, seed=seed, paths=20))
        assert res.event_counts[:8] == head and sum(res.event_counts) == total


def test_artifact_formats():
    rule = jump_rule_of(SymmetricDoublingApprox(K1, 3))
    cfg = SimConfig(horizon=1.0, seed=8, paths=3, store_paths=True)
    res = simulate_ensemble(rule, rule.initial_state(), cfg)
    csv = endpoint_csv(res)
    assert csv.splitlines()[0] == "path_index,t,value"
    assert len(csv.splitlines()) == 4
    pcsv = path_csv(res.paths)
    assert pcsv.splitlines()[0] == "path_index,jump_time,value_after"
    doc = json.loads(manifest_json({"variant": "ex31approx"}, cfg, res))
    assert doc["config"]["seed"] == 8
    assert doc["truncated_paths"] == 0
