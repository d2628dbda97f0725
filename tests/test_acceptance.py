"""Acceptance suite: one test per criterion, at the stated tolerances.

Each criterion prints a PASS/FAIL line (run with ``pytest -s`` to stream
them).  Ensembles use frozen seeds; the heavy k=1 ensemble is shared
between the moment and the non-uniqueness criteria.

Criterion 7's dominance/K clause is implemented exactly as stated and is
expected to fail: windowed localization of the product-cosine symbol at
x0 = 0 cannot satisfy coefficient dominance because the comparison
exponent q(x0, .) vanishes identically there (the ellipticity premise of
the localization construction does not hold at that point), and its
wavenumber 2*pi*ell rescales the curvature constant far from the
closed-form value.  See notes/decisions.md in the reviewer material for
the full analysis; the reconstruction clause passes.
"""

import math

import numpy as np
import pytest

from levysym import checks, mcstats, selftest, simulate
from levysym.mcstats import Sample, closed_moment, ecf_distance, moment_ci, support_audit
from levysym.simulate import SimConfig, jump_rule_of, simulate_ensemble
from levysym.symbols import (
    BrownianNegative,
    IncreasingDoublingApprox,
    LatticeUnit,
    ProductCosine,
    SymmetricDoubling,
    SymmetricDoublingApprox,
    TestFunction,
    eval_symbol,
)

SEED = 20260808
N_PATHS = 50_000
K1 = LatticeUnit.parse("1")
KSQRT2 = LatticeUnit.parse("sqrt2")
PRODCOS = ProductCosine(BrownianNegative())

#: ECF-distance threshold frozen after null calibration (null pairs sit at
#: ~1x the SE bound, the cross-lattice pair at ~70x for N = 5e4)
ECF_DISTANCE_RATIO = 10.0


def _report(criterion: str, passed: bool, detail: str):
    print(f"{'PASS' if passed else 'FAIL'} {criterion}: {detail}")


@pytest.fixture(scope="module")
def symmetric_k1_sample():
    rule = jump_rule_of(SymmetricDoublingApprox(K1, 10))
    result = simulate_ensemble(
        rule, rule.initial_state(), SimConfig(horizon=1.0, seed=SEED, paths=N_PATHS)
    )
    assert result.truncated_count == 0
    return Sample.from_ensemble(result, label="k=1")


@pytest.fixture(scope="module")
def symmetric_sqrt2_sample():
    rule = jump_rule_of(SymmetricDoublingApprox(KSQRT2, 10))
    result = simulate_ensemble(
        rule, rule.initial_state(),
        SimConfig(horizon=1.0, seed=SEED + 1, paths=N_PATHS),
    )
    assert result.truncated_count == 0
    return Sample.from_ensemble(result, label="k=sqrt2")


def test_criterion_1_symmetric_moments(symmetric_k1_sample):
    sample = symmetric_k1_sample
    failures = []
    details = []
    for order, closed, band in (
        (2, 1.0, "even"), (4, 3.5, "even"), (1, 0.0, "odd"), (3, 0.0, "odd")
    ):
        est = moment_ci(sample, order)
        if band == "even":
            allowance = 0.05 if order == 2 else 0.1
            tol = 3.0 * est.se + allowance
        else:
            tol = 4.0 * est.se
        err = abs(est.mean - closed)
        details.append(f"E X^{order} = {est.mean:.4f} (|err| {err:.4f} <= {tol:.4f})")
        if err > tol:
            failures.append(order)
    _report("criterion 1 (symmetric-family moments)", not failures, "; ".join(details))
    assert not failures, details


def test_criterion_2_increasing_moments():
    rule = jump_rule_of(IncreasingDoublingApprox(K1, 10))
    result = simulate_ensemble(
        rule, rule.initial_state(), SimConfig(horizon=1.0, seed=SEED + 2, paths=N_PATHS)
    )
    sample = Sample.from_ensemble(result)
    failures = []
    details = []
    for order, allowance in ((1, 0.0), (2, 0.05), (3, 0.1)):
        est = moment_ci(sample, order)
        closed = closed_moment("increasing_doubling", order, 1.0)
        tol = 3.0 * est.se + allowance
        err = abs(est.mean - closed)
        details.append(f"E X^{order} = {est.mean:.4f} vs {closed} (|err| {err:.4f} <= {tol:.4f})")
        if err > tol:
            failures.append(order)
    _report("criterion 2 (increasing-family moments)", not failures, "; ".join(details))
    assert not failures, details


def test_criterion_3_nonuniqueness(symmetric_k1_sample, symmetric_sqrt2_sample):
    a, b = symmetric_k1_sample, symmetric_sqrt2_sample
    own_a = support_audit(a, "1")
    own_b = support_audit(b, "sqrt2")
    cross_a = support_audit(a, "sqrt2")
    cross_b = support_audit(b, "1")
    supports_ok = (
        own_a.off_lattice == 0
        and own_b.off_lattice == 0
        and cross_a.off_lattice == cross_a.nonzero_total
        and cross_b.off_lattice == cross_b.nonzero_total
    )
    m_a = moment_ci(a, 2)
    m_b = moment_ci(b, 2)
    moments_ok = abs(m_a.mean - m_b.mean) <= 3.0 * (m_a.se + m_b.se)
    dist = ecf_distance(a, b)
    distance_ok = dist.distance > ECF_DISTANCE_RATIO * dist.se_bound
    detail = (
        f"own off-lattice {own_a.off_lattice}/{own_b.off_lattice}, cross "
        f"{cross_a.off_lattice}/{cross_a.nonzero_total} and "
        f"{cross_b.off_lattice}/{cross_b.nonzero_total}; second moments "
        f"{m_a.mean:.4f} vs {m_b.mean:.4f}; d = {dist.distance:.5f} at u = "
        f"{dist.u_at:.2f} ({dist.distance / dist.se_bound:.0f}x SE bound)"
    )
    passed = supports_ok and moments_ok and distance_ok
    _report("criterion 3 (non-uniqueness demonstration)", passed, detail)
    assert supports_ok and moments_ok and distance_ok, detail


#: worst deviations of the criterion 4 and 5 sweeps as float.hex, recorded
#: before the measure algebra dropped its per-object work: speed never
#: changes results
ALGEBRA_WORST_HEX = {
    "commutative": "0x1.0000000000000p-50",
    "associative": "0x1.01fe03f61bad0p-49",
    "unit": "0x0.0p+0",
    "submultiplicative": "0x1.0000000000000p-49",
    "fourier_hom": "0x1.323a8a4bbaf84p-46",
    "tv_domination": "0x1.0000000000000p-50",
    "orthogonal_additivity": "0x0.0p+0",
    "atom_bound": "0x0.0p+0",
    "exp_mass": "0x1.26280b3476096p-47",
    "exp_first_moment": "0x1.5b32272a4d461p-40",
    "exp_second_moment": "0x1.9db7970a23740p-33",
    "odd_exp_tv_symmetry": "0x1.0000000000000p-51",
}
TERM_WORST_HEX = {
    "fourier": "0x1.c5f5370ffb5b4p-41",
    "tv_excess": "0x0.0p+0",
    "first_moment": "0x1.979770b8597cep-55",
    "second_excess": "0x0.0p+0",
}


def _hex(worst: dict) -> dict:
    return {key: float(val).hex() for key, val in worst.items()}


def test_criterion_4_measure_algebra_suite():
    result = selftest.measure_algebra_sweep(trials=500, seed=2024)
    worst_line = max(result.worst.items(), key=lambda kv: kv[1])
    _report(
        "criterion 4 (measure-algebra suite)", result.passed,
        f"500 random measures; worst deviation {worst_line[1]:.2e} ({worst_line[0]})",
    )
    assert result.passed, result.lines
    assert _hex(result.worst) == ALGEBRA_WORST_HEX


def test_criterion_5_term_measure_sweep():
    result = selftest.term_measure_sweep(trials=200, seed=2025)
    _report("criterion 5 (series-term measure sweep)", result.passed, result.lines[0])
    assert result.passed, result.lines
    assert _hex(result.worst) == TERM_WORST_HEX


def test_criterion_6_majorant_conditions():
    fs = checks.fourier_symbol_of_product_cosine(BrownianNegative())
    xgrid = np.linspace(-math.pi, math.pi, 101)
    failures = []
    worst_t_err = 0.0
    worst_mass_slack = math.inf
    for u in (0.5, 1.0, 5.0, 20.0):
        for t in (0.1, 0.5, 1.0):
            _, rep = checks.assemble_majorant(fs, u, t, 1, xgrid, tol=1e-6)
            worst_t_err = max(worst_t_err, rep.transform_error)
            if rep.transform_error > 1e-6:
                failures.append(("transform", u, t))
            if rep.weighted_mass > 1.0 + 0.5 * t + 1e-6:
                failures.append(("mass", u, t))
            worst_mass_slack = min(
                worst_mass_slack, 1.0 + 0.5 * t + 1e-6 - rep.weighted_mass
            )
    k_rep = checks.compute_K(fs)
    if not 0.49 <= k_rep.K <= 0.5:
        failures.append(("K", k_rep.K))
    dom = checks.check_dominance(fs)
    if not dom.passed:
        failures.append(("dominance", dom.worst_margin))
    detail = (
        f"transform residual <= {worst_t_err:.2e}, min mass slack "
        f"{worst_mass_slack:.2e}, K = {k_rep.K:.5f}, worst margin "
        f"{dom.worst_margin:.2e}"
    )
    _report("criterion 6 (uniqueness conditions, product-cosine)", not failures, detail)
    assert not failures, (failures, detail)


def test_criterion_7_localization_cross_validation():
    fs = checks.localize_fourierize(PRODCOS, 0.0, 1, nmax=64)
    recon_err = max(
        abs(fs.reconstruct(x, u) - eval_symbol(PRODCOS, x, u))
        for u in (0.25, 0.5, 1.0)
        for x in np.linspace(-0.25, 0.25, 41)
    )
    recon_ok = recon_err <= 1e-6
    dom = checks.check_dominance(fs)
    k_rep = checks.compute_K(fs)
    k_ok = abs(k_rep.K - 0.5) <= 0.05
    detail = (
        f"plateau reconstruction {recon_err:.2e} (tol 1e-6); dominance "
        f"{'pass' if dom.passed else f'FAIL (margin {dom.worst_margin:.3g})'}; "
        f"K = {k_rep.K:.3f} vs closed-form 0.5"
    )
    passed = recon_ok and dom.passed and k_ok
    _report("criterion 7 (localization cross-validation)", passed, detail)
    assert recon_ok, detail
    # Expected honest failure: dominance cannot hold at x0 = 0 (see module
    # docstring); asserted as specified rather than weakened.
    assert dom.passed and k_ok, detail


def test_criterion_8_ellipticity_soundness():
    counter = checks.audit_ellipticity(
        SymmetricDoubling(), BrownianNegative(), x0=0.0, radius=1e-3, max_order=1
    )
    counter_ok = counter.elliptic_ratio[1] > 100.0 and 1.7 <= counter.slope <= 2.3
    smooth = checks.audit_ellipticity(
        PRODCOS, BrownianNegative(), x0=0.0, radius=1e-3, max_order=1
    )
    ratios = list(smooth.elliptic_ratio.values()) + list(smooth.growth_ratio.values())
    smooth_ok = max(ratios) <= 1.1 and -0.2 <= smooth.slope <= 0.2
    detail = (
        f"counterexample ratio {counter.elliptic_ratio[1]:.1f} (>100), slope "
        f"{counter.slope:.2f}; product-cosine max ratio {max(ratios):.2e}, "
        f"slope {smooth.slope:.2f}"
    )
    _report("criterion 8 (smoothness-condition soundness)", counter_ok and smooth_ok, detail)
    assert counter_ok and smooth_ok, detail


@pytest.fixture(scope="module")
def criterion_9_reports():
    grid = np.linspace(0.0, 1.0, 11)
    x_sq = TestFunction(lambda x: x * x, lambda x: 2.0 * x, lambda x: 2.0)
    rep31 = mcstats.dynkin_residual(
        SymmetricDoublingApprox(K1, 10),
        x_sq,
        simulate.ExactState("1", 1.0, 0, 0),
        1.0, grid, 20_000, SEED + 3,
    )
    ident = TestFunction(lambda x: x, lambda x: 1.0, lambda x: 0.0)
    rep32 = mcstats.dynkin_residual(
        IncreasingDoublingApprox(K1, 0),
        ident,
        simulate.ExactState("1", 1.0, 0, 0),
        1.0, grid, 20_000, SEED + 4,
    )
    return rep31, rep32


def test_criterion_9_dynkin_residuals(criterion_9_reports):
    rep31, rep32 = criterion_9_reports
    ok31 = abs(rep31.residual) <= 4.0 * rep31.se + 1e-2 + rep31.quadrature_error
    ok32 = abs(rep32.residual) <= 4.0 * rep32.se + 1e-2 + rep32.quadrature_error
    detail = (
        f"symmetric f=x^2: residual {rep31.residual:+.5f} (4SE+0.01 = "
        f"{4 * rep31.se + 1e-2:.5f}); increasing f=x: residual "
        f"{rep32.residual:+.5f} (4SE+0.01 = {4 * rep32.se + 1e-2:.5f})"
    )
    _report("criterion 9 (martingale residuals)", ok31 and ok32, detail)
    assert ok31 and ok32, detail


#: float.hex of (residual, se, quadrature_error, mean_f_terminal) of criterion
#: 9's two runs; every generator mean of both is exactly 1.0
CRITERION_9_HEX = (
    ("0x1.1fde32e48e8a7p-7", "0x1.6b984280a0d0dp-7", "0x0.0p+0", "0x1.023fbc65c91d1p+0"),
    ("-0x1.0d844d013a92ap-6", "0x1.c81b255521fa9p-8", "0x0.0p+0", "0x1.f793dd97f62b6p-1"),
)


def test_criterion_9_runs_keep_their_bits(criterion_9_reports):
    for rep, pinned in zip(criterion_9_reports, CRITERION_9_HEX):
        fields = (rep.residual, rep.se, rep.quadrature_error, rep.mean_f_terminal)
        assert tuple(x.hex() for x in fields) == pinned
        assert [g.hex() for g in rep.generator_means] == [(1.0).hex()] * 11


def test_criterion_10_groenwall_tables():
    worst_excess = -math.inf
    all_ok = True
    for c in (0.5, 2.0):
        for steps in (10, 100, 1000):
            ts, phis = checks.groenwall_recursion_table(1.0, c, 1.0, steps)
            rep = checks.groenwall_verify(ts, phis, c)
            all_ok &= rep.conclusion_ok
            worst_excess = max(worst_excess, rep.max_conclusion_excess)
    ts0, phis0 = checks.groenwall_recursion_table(0.0, 2.0, 1.0, 1000)
    zero_ok = max(abs(p) for p in phis0) <= 1e-15
    detail = f"max conclusion excess {worst_excess:.3g}; zero-start sup {max(abs(p) for p in phis0):.1e}"
    _report("criterion 10 (discrete Groenwall bound)", all_ok and zero_ok, detail)
    assert all_ok and zero_ok, detail
