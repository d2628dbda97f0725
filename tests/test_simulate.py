"""Simulator: exact lattice closure, engine equivalence, determinism,
Poisson oracle, event budget, artifact formats."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levysym import simulate
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


def test_exact_state_lattice_membership():
    assert ExactState("1", 1.0, 0, 0).in_geometric_lattice()
    assert ExactState("1", 1.0, 1, 7).in_geometric_lattice()
    assert ExactState("1", 1.0, -4, 0).in_geometric_lattice()
    assert not ExactState("1", 1.0, 3, 2).in_geometric_lattice()


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
            assert state.in_geometric_lattice()
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
