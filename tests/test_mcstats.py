"""Statistics layer: closed moments against big-integer oracles, CLT
estimates, ECF machinery, exact support audits, Dynkin residuals."""

import math
from fractions import Fraction

import numpy as np
import pytest

from levysym import mcstats, simulate
from levysym.errors import DegenerateSample, RepresentationLost
from levysym.mcstats import (
    DEFAULT_UGRID,
    Sample,
    closed_moment,
    dynkin_residual,
    ecf,
    ecf_distance,
    ecf_report_csv,
    moment_ci,
    moment_report_csv,
    support_audit,
)
from levysym.simulate import ExactState, SimConfig, jump_rule_of, simulate_ensemble
from levysym.symbols import (
    IncreasingDoublingApprox,
    LatticeUnit,
    SymmetricDoublingApprox,
    TestFunction,
    apply_generator,
)

K1 = LatticeUnit.parse("1")
KS2 = LatticeUnit.parse("sqrt2")


def _sample_of_floats(values, horizon=1.0):
    return Sample(tuple(values), horizon)


def _exact_sample(states, horizon=1.0):
    """Sample of an ensemble whose paths end at ``states``, all of one unit."""
    ((tag, k),) = {(state.unit_tag, state.k) for state in states}
    result = simulate.EnsembleResult(
        tag, k, np.array([state.m for state in states], dtype=object),
        np.array([state.s for state in states], dtype=np.int64), horizon, 0,
        (0,) * len(states), np.empty((0, len(states)), dtype=object),
        np.empty((0, len(states)), dtype=np.int64),
    )
    return Sample.from_ensemble(result)


# ----------------------------------------------------------------------
# closed moments
# ----------------------------------------------------------------------
def test_closed_moment_frozen_values():
    assert closed_moment("symmetric_doubling", 2, 1.0) == pytest.approx(1.0)
    assert closed_moment("symmetric_doubling", 3, 1.0) == 0.0
    assert closed_moment("symmetric_doubling", 4, 1.0) == pytest.approx(3.5)
    assert closed_moment("increasing_doubling", 2, 1.0) == pytest.approx(1.5)
    assert closed_moment("increasing_doubling", 3, 1.0) == pytest.approx(3.5)
    assert closed_moment("symmetric_doubling", 0, 0.3) == 1.0


def test_closed_moment_bigint_oracle():
    # independent exact-arithmetic evaluation of the product formulas
    for n in range(0, 13):
        for t in (0.25, 1.0, 2.0):
            if n % 2 == 0:
                half = n // 2
                prod = Fraction(1)
                for k in range(1, half + 1):
                    prod *= Fraction(2 ** (2 * k - 1) - 1)
                expect = float(prod / math.factorial(half)) * t**half
            else:
                expect = 0.0
            assert closed_moment("symmetric_doubling", n, t) == pytest.approx(expect)
            prod = Fraction(1)
            for k in range(1, n + 1):
                prod *= Fraction(2**k - 1)
            expect_inc = float(prod / math.factorial(n)) * t**n
            assert closed_moment("increasing_doubling", n, t) == pytest.approx(
                expect_inc
            )


def test_increasing_moments_grow_from_order_two():
    vals = [closed_moment("increasing_doubling", n, 1.0) for n in range(2, 8)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# ----------------------------------------------------------------------
# CLT estimates
# ----------------------------------------------------------------------
def test_moment_ci_constant_sample():
    est = moment_ci(_sample_of_floats([2.0] * 50), 3)
    assert est.mean == pytest.approx(8.0)
    assert est.se == 0.0
    # 0.1 * 7 / 7 != 0.1 in floats; the counted mean still returns 0.1 itself
    for sample in (_sample_of_floats([0.1] * 7),
                   _exact_sample((ExactState("sqrt2", math.sqrt(2.0), 3, 1),) * 9)):
        x = sample.to_floats()[0]
        est = moment_ci(sample, 1)
        assert (est.mean, est.se) == (x, 0.0)
        assert np.all(ecf(sample, [0.0, 1.3, -7.0]).se == 0.0)


def test_moment_ci_needs_two_points():
    with pytest.raises(DegenerateSample):
        moment_ci(_sample_of_floats([1.0]), 1)
    with pytest.raises(DegenerateSample):
        Sample((), 1.0)


def test_ecf_trivial_values():
    sample = _sample_of_floats([0.0, 0.0, 0.0])
    est = ecf(sample, [0.0, 1.0, 5.0])
    assert np.allclose(est.mean, 1.0)
    est2 = ecf(_sample_of_floats(np.random.default_rng(0).normal(size=100)), [0.0])
    assert est2.mean[0] == 1.0
    assert est2.se[0] == 0.0


def test_ecf_symmetric_sample_imag_small():
    rng = np.random.default_rng(1)
    xs = rng.normal(size=4000)
    xs = np.concatenate([xs, -xs])  # exactly symmetric
    est = ecf(_sample_of_floats(xs), [0.7, 2.0])
    assert np.max(np.abs(est.mean.imag)) < 1e-12


def test_ecf_distance_identical_is_zero():
    xs = np.random.default_rng(2).normal(size=500)
    a = _sample_of_floats(xs)
    rep = ecf_distance(a, _sample_of_floats(xs.copy()), refine=False)
    assert rep.distance == 0.0


def test_ecf_distance_requires_same_horizon():
    a = _sample_of_floats([0.0, 1.0], horizon=1.0)
    b = _sample_of_floats([0.0, 1.0], horizon=2.0)
    with pytest.raises(ValueError):
        ecf_distance(a, b)


def test_ecf_distance_needs_a_nonnegative_frequency():
    a = _sample_of_floats([0.0, 1.0], horizon=1.0)
    with pytest.raises(ValueError, match="u >= 0"):
        ecf_distance(a, a, ugrid=[-2.0, -1.0])


def test_ecf_distance_null_calibration():
    # independent ensembles of the same law: distance within 5x SE bound
    rng = np.random.default_rng(3)
    a = _sample_of_floats(rng.normal(size=4000))
    b = _sample_of_floats(rng.normal(size=4000))
    rep = ecf_distance(a, b)
    assert rep.distance <= 5.0 * rep.se_bound


def test_ecf_distance_separates_shifted_laws():
    rng = np.random.default_rng(4)
    a = _sample_of_floats(rng.normal(size=4000))
    b = _sample_of_floats(rng.normal(size=4000) + 1.0)
    rep = ecf_distance(a, b)
    assert rep.distance > 10.0 * rep.se_bound


# ----------------------------------------------------------------------
# support audits
# ----------------------------------------------------------------------
def test_support_audit_exactness():
    states = (
        ExactState("1", 1.0, 0, 0),
        ExactState("1", 1.0, 1, 5),
        ExactState("1", 1.0, -8, 0),
    )
    audit = support_audit(_exact_sample(states), "1")
    assert audit.off_lattice == 0 and audit.nonzero_total == 2
    # off-lattice mantissa
    audit2 = support_audit(_exact_sample(states + (ExactState("1", 1.0, 3, 1),)), "1")
    assert audit2.off_lattice == 1
    # cross-lattice: every nonzero state is off; zero belongs everywhere
    cross = support_audit(_exact_sample(states), "sqrt2")
    assert cross.off_lattice == 2
    # repeated states count once per observation
    many = _exact_sample(states * 3 + (ExactState("1", 1.0, 3, 1),) * 4)
    audit3 = support_audit(many, "1")
    assert (audit3.off_lattice, audit3.nonzero_total, audit3.total) == (4, 10, 13)


def test_support_audit_dyadic_kind():
    states = (ExactState("1", 1.0, 5, 3), ExactState("1", 1.0, 1, 0))
    audit = support_audit(_exact_sample(states), "1", kind="dyadic", scale=3)
    assert audit.off_lattice == 0
    neg = (ExactState("1", 1.0, -1, 2),)
    assert support_audit(_exact_sample(neg), "1", kind="dyadic", scale=3).off_lattice == 1
    mixed = _exact_sample(neg * 3 + states)
    assert support_audit(mixed, "1", kind="dyadic", scale=3).off_lattice == 3
    # the kind and the scale are checked before any state, even when all are zero
    zeros = _exact_sample((ExactState("1", 1.0, 0, 0),) * 3)
    with pytest.raises(ValueError, match="unknown lattice kind"):
        support_audit(zeros, "1", kind="bogus")
    with pytest.raises(ValueError, match="needs the lattice scale"):
        support_audit(zeros, "1", kind="dyadic")


def test_support_audit_rejects_floats():
    with pytest.raises(RepresentationLost):
        support_audit(_sample_of_floats([0.5, 1.0]), "1")


# ----------------------------------------------------------------------
# counted statistics against per-path oracles
# ----------------------------------------------------------------------
def _simulated(unit, seed, paths=3000):
    # n = 4: about 16 distinct endpoints among 3000 paths
    rule = jump_rule_of(SymmetricDoublingApprox(unit, 4))
    res = simulate_ensemble(
        rule, rule.initial_state(), SimConfig(horizon=1.0, seed=seed, paths=paths)
    )
    return Sample.from_ensemble(res)


def _repeated_floats(seed, counts):
    atoms = [-1.5, -0.0, 0.0, 0.25, 2.0, 3.75]
    xs = np.repeat(atoms, counts)
    np.random.default_rng(seed).shuffle(xs)
    return _sample_of_floats(xs.tolist())


def _oracle_ecf(xs, u):
    z = np.exp(1j * np.outer(np.atleast_1d(u), xs))
    se = np.hypot(z.real.std(axis=1, ddof=1), z.imag.std(axis=1, ddof=1))
    return z.mean(axis=1), se / math.sqrt(xs.size)


def _close(got, want, rel=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    return np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@pytest.fixture(scope="module")
def sample_pairs():
    return [(_simulated(K1, 61), _simulated(KS2, 62)),
            (_repeated_floats(63, [40, 70, 90, 200, 60, 15]),
             _repeated_floats(64, [90, 35, 25, 150, 110, 40]))]


def test_counted_view_has_repeats(sample_pairs):
    (sim, _), (flt, _) = sample_pairs
    assert sim.counted.size == 3000 and len(sim.counted.values) < 30
    assert sim.counted.counts.sum() == 3000
    xs = flt.to_floats()
    assert np.any((xs == 0.0) & np.signbit(xs)) and np.any((xs == 0.0) & ~np.signbit(xs))


def test_counted_moments_match_per_path(sample_pairs):
    for sample in (s for pair in sample_pairs for s in pair):
        xs = sample.to_floats()
        for p in (1, 2, 3, 4):
            est = moment_ci(sample, p)
            ys = xs**p
            assert est.n == xs.size
            assert _close(est.mean, ys.mean())
            assert _close(est.se, ys.std(ddof=1) / math.sqrt(xs.size))


def test_counted_ecf_matches_per_path(sample_pairs):
    u = np.linspace(-20.0, 20.0, 81)
    for sample in (s for pair in sample_pairs for s in pair):
        est = ecf(sample, u)
        mean, se = _oracle_ecf(sample.to_floats(), u)
        assert _close(est.mean, mean)
        assert _close(est.se, se)


def test_counted_ecf_distance_matches_per_path(sample_pairs):
    for a, b in sample_pairs:
        xa, xb = a.to_floats(), b.to_floats()
        ma, sa = _oracle_ecf(xa, DEFAULT_UGRID)
        mb, sb = _oracle_ecf(xb, DEFAULT_UGRID)
        gap = np.abs(ma - mb) / (1.0 + DEFAULT_UGRID**2)
        # the first arg max among u >= 0: the gap is even in u
        i = int(np.argmax(np.where(DEFAULT_UGRID >= 0.0, gap, -1.0)))
        grid = ecf_distance(a, b, refine=False)
        assert _close(grid.weighted_gap, gap)
        assert grid.u_at == DEFAULT_UGRID[i]
        assert _close(grid.distance, gap[i])
        assert _close(grid.se_bound, (sa[i] + sb[i]) / (1.0 + DEFAULT_UGRID[i] ** 2))

        fine = ecf_distance(a, b)
        assert fine.u_at >= 0.0
        (pa,), (ea,) = _oracle_ecf(xa, fine.u_at)
        (pb,), (eb,) = _oracle_ecf(xb, fine.u_at)
        weight = 1.0 / (1.0 + fine.u_at**2)
        assert fine.distance >= grid.distance
        assert _close(fine.distance, abs(pa - pb) * weight)
        assert _close(fine.se_bound, (ea + eb) * weight)


def test_counted_dynkin_matches_per_path(monkeypatch):
    ensembles = []
    real = simulate.simulate_ensemble

    def recording(rule, x0, cfg):
        result = real(rule, x0, cfg)
        ensembles.append((cfg, result))
        return result

    monkeypatch.setattr(simulate, "simulate_ensemble", recording)
    spec = SymmetricDoublingApprox(K1, 3)
    tf = TestFunction(lambda x: x**4, lambda x: 4.0 * x**3, lambda x: 12.0 * x * x)
    x0 = jump_rule_of(spec).initial_state()
    ts = np.linspace(0.0, 1.0, 5)
    rep = dynkin_residual(spec, tf, x0, 1.0, ts, 1500, 17)

    ((cfg, result),) = ensembles  # one ensemble, observed at the interior times
    assert cfg.observe == tuple(ts[1:-1]) and cfg.horizon == 1.0
    assert cfg.seed == mcstats._split_seed(17, ts.size)  # the terminal seed

    def value(m, s):
        return ExactState(result.unit_tag, result.k, m, s).value

    # columns[j][i]: path i at ts[j], plain Python from the exact columns
    columns = [[0.0] * 1500]
    for q in range(ts.size - 2):
        columns.append([value(m, s) for m, s in
                        zip(result.m_at[q].tolist(), result.s_at[q].tolist())])
    columns.append([e.value for e in result.endpoints])
    w = [(ts[1] - ts[0]) / 2.0] + [ts[1] - ts[0]] * (ts.size - 2) + [(ts[1] - ts[0]) / 2.0]
    gen = [[apply_generator(spec, tf, x) for x in col] for col in columns]
    pathwise = [
        tf.f(columns[-1][i]) - tf.f(0.0) - math.fsum(w[j] * gen[j][i] for j in range(ts.size))
        for i in range(1500)
    ]
    mean = math.fsum(pathwise) / 1500
    se = math.sqrt(math.fsum((d - mean) ** 2 for d in pathwise) / 1499 / 1500)
    mean_f = math.fsum(tf.f(x) for x in columns[-1]) / 1500
    g_means = [math.fsum(col) / 1500 for col in gen]
    assert _close(rep.generator_means, g_means)
    assert _close(rep.mean_f_terminal, mean_f)
    assert _close(rep.se, se)
    integral = math.fsum(wj * g for wj, g in zip(w, g_means))
    assert abs(rep.residual - mean) <= 1e-12 * max(abs(mean_f), abs(integral))


def test_law_converges_as_resolution_grows():
    # the limit law puts no mass on the origin (instant diffusion away);
    # the approximations hold ~2^-n of it there, the one statistic with a
    # visible trend in n -- polynomial-moment biases vanish identically.
    def zero_mass_median(n):
        fracs = []
        for seed in range(10):
            rule = jump_rule_of(SymmetricDoublingApprox(K1, n))
            res = simulate_ensemble(
                rule, rule.initial_state(),
                SimConfig(horizon=1.0, seed=3000 + seed, paths=2000),
            )
            fracs.append(sum(s.is_zero for s in res.endpoints) / 2000.0)
        return float(np.median(fracs))

    coarse, fine = zero_mass_median(4), zero_mass_median(10)
    assert coarse > 5.0 * fine
    # second moment stays pinned at the closed form at both resolutions
    for n in (4, 10):
        rule = jump_rule_of(SymmetricDoublingApprox(K1, n))
        res = simulate_ensemble(
            rule, rule.initial_state(), SimConfig(horizon=1.0, seed=77, paths=5000)
        )
        est = moment_ci(Sample.from_ensemble(res), 2)
        assert abs(est.mean - 1.0) <= 4.0 * est.se


def test_ecf_null_calibration_on_simulator_output():
    # two independent ensembles of the same law: distance within 5x SE bound
    rule = jump_rule_of(SymmetricDoublingApprox(K1, 6))
    def sample(seed):
        res = simulate_ensemble(
            rule, rule.initial_state(), SimConfig(horizon=1.0, seed=seed, paths=3000)
        )
        return Sample.from_ensemble(res)

    rep = ecf_distance(sample(501), sample(502))
    assert rep.distance <= 5.0 * rep.se_bound


def test_simulated_supports_are_disjoint():
    out = {}
    for token, unit in (("1", K1), ("sqrt2", KS2)):
        rule = jump_rule_of(SymmetricDoublingApprox(unit, 6))
        res = simulate_ensemble(
            rule, rule.initial_state(), SimConfig(horizon=1.0, seed=21, paths=500)
        )
        out[token] = Sample.from_ensemble(res)
    for own, other in (("1", "sqrt2"), ("sqrt2", "1")):
        own_audit = support_audit(out[own], own)
        assert own_audit.off_lattice == 0
        cross = support_audit(out[own], other)
        assert cross.off_lattice == cross.nonzero_total > 0


# ----------------------------------------------------------------------
# Dynkin residuals
# ----------------------------------------------------------------------
def test_dynkin_constant_function_is_exact():
    spec = IncreasingDoublingApprox(K1, 0)
    tf = TestFunction(lambda x: 3.0, lambda x: 0.0, lambda x: 0.0)
    rule = jump_rule_of(spec)
    rep = dynkin_residual(
        spec, tf, rule.initial_state(), 1.0, np.linspace(0.0, 1.0, 5), 200, 9
    )
    assert rep.residual == pytest.approx(0.0, abs=1e-14)
    assert rep.se == 0.0


def test_dynkin_poisson_identity():
    spec = IncreasingDoublingApprox(K1, 0)
    tf = TestFunction(lambda x: x, lambda x: 1.0, lambda x: 0.0)
    rule = jump_rule_of(spec)
    rep = dynkin_residual(
        spec, tf, rule.initial_state(), 1.0, np.linspace(0.0, 1.0, 6), 5000, 31
    )
    assert abs(rep.residual) <= 4.0 * rep.se + 1e-12
    assert rep.quadrature_error == pytest.approx(0.0, abs=1e-12)


def test_dynkin_reads_the_observation_columns():
    # f = x^4 under ex31approx: Af = 7 x^2 off 0 and Af(0) = 4^-n, so
    # E Af(X_t) = 7 t up to 4^-n, and the grid columns move the residual
    n, paths, seed = 6, 4000, 23
    spec = SymmetricDoublingApprox(K1, n)
    tf = TestFunction(lambda x: x**4, lambda x: 4.0 * x**3, lambda x: 12.0 * x * x)
    x0 = jump_rule_of(spec).initial_state()
    ts = np.linspace(0.0, 1.0, 11)
    rep = dynkin_residual(spec, tf, x0, 1.0, ts, paths, seed)
    assert abs(rep.residual) <= 4.0 * rep.se + rep.quadrature_error + 1e-2

    cfg = SimConfig(horizon=1.0, seed=mcstats._split_seed(seed, ts.size), paths=paths,
                    observe=tuple(ts[1:-1]))
    result = simulate_ensemble(jump_rule_of(spec), x0, cfg)
    x = np.vstack([np.zeros(paths), result.values_at, result.values])
    af = np.where(x == 0.0, 4.0**-n, 7.0 * x * x)
    assert np.allclose(af.mean(axis=1), rep.generator_means, rtol=1e-12, atol=0.0)
    column_se = af.std(axis=1, ddof=1) / math.sqrt(paths)
    assert np.all(np.abs(af.mean(axis=1) - 7.0 * ts) <= 4.0 * column_se + 4.0**-n)
    assert min(rep.generator_means[1:]) > 0.5  # not the constant Af of criterion 9


def test_dynkin_grid_validation():
    spec = IncreasingDoublingApprox(K1, 0)
    tf = TestFunction(lambda x: x, lambda x: 1.0, lambda x: 0.0)
    x0 = jump_rule_of(spec).initial_state()
    with pytest.raises(ValueError):
        dynkin_residual(spec, tf, x0, 1.0, [0.0, 0.5, 0.9], 100, 1)


def test_dynkin_needs_two_paths():
    spec = IncreasingDoublingApprox(K1, 0)
    tf = TestFunction(lambda x: x, lambda x: 1.0, lambda x: 0.0)
    x0 = jump_rule_of(spec).initial_state()
    with pytest.raises(DegenerateSample):
        dynkin_residual(spec, tf, x0, 1.0, np.linspace(0.0, 1.0, 3), 1, 1)


def test_dynkin_seed_is_checked_where_it_enters():
    # seeds outside [0, 2**64) used to wrap onto in-range ones (5 + 2**64 ran
    # as 5, -1 as 2**64 - 1); in-range seeds keep their residuals
    spec = SymmetricDoublingApprox(K1, 4)
    tf = TestFunction(lambda x: x * x, lambda x: 2.0 * x, lambda x: 2.0)
    x0 = jump_rule_of(spec).initial_state()
    ts = np.linspace(0.0, 1.0, 5)
    for seed in (5 + 2**64, -1, 2**64, 5.0, True):
        with pytest.raises(ValueError, match="seed must be an integer"):
            dynkin_residual(spec, tf, x0, 1.0, ts, 200, seed)
    for seed, residual, se in ((5, 0.4700390625, 0.342728109453538),
                               (2**64 - 1, -0.0344921875, 0.13047326383104954)):
        rep = dynkin_residual(spec, tf, x0, 1.0, ts, 200, seed)
        assert (rep.residual, rep.se) == (residual, se)


# ----------------------------------------------------------------------
# report formats
# ----------------------------------------------------------------------
def test_report_csvs():
    text = moment_report_csv([(2, 1.001, 0.01, 1.0, 0.001, True)])
    assert text.splitlines()[0] == "order,mc_mean,mc_se,closed_form,abs_error,pass"
    assert text.splitlines()[1].endswith(",true")
    a = ecf(_sample_of_floats([0.0, 1.0]), [0.0, 2.0])
    b = ecf(_sample_of_floats([0.5, 1.5]), [0.0, 2.0])
    csv = ecf_report_csv(a, b)
    assert csv.splitlines()[0] == "u,re_a,im_a,re_b,im_b,weighted_abs_diff"
    assert len(csv.splitlines()) == 3
