"""Fourier-symbol pipeline: constructors, dominance, K, term measures,
majorant assembly, localization, ellipticity, Groenwall."""

import cmath
import math

import numpy as np
import pytest

from levysym.checks import (
    FourierSymbol,
    assemble_majorant,
    audit_ellipticity,
    build_term_measure,
    check_dominance,
    compute_K,
    fd_derivative,
    fourier_symbol_of_product_cosine,
    groenwall_recursion_table,
    groenwall_verify,
    localize_fourierize,
    plateau_bump,
    term_measure,
    verify_term_measure,
)
from levysym.errors import UnsupportedSpec, ViolatedDominance
from levysym.measures import LatticeComplexMeasure, exp_measure
from levysym.symbols import (
    BrownianNegative,
    ConstantSymbol,
    IncreasingDoublingApprox,
    LatticeUnit,
    ProductCosine,
    SymmetricDoubling,
    SymmetricDoublingApprox,
    eval_symbol,
)

PRODCOS = ProductCosine(BrownianNegative())
XGRID = np.linspace(-math.pi, math.pi, 101)


def series(k, a0, terms):
    """FourierSymbol from a0(u) and {n: (a_n(u), b_n(u))} given per u."""
    n = sorted(terms)

    def coefficients(u):
        a = np.array([terms[m][0](u) for m in n], dtype=complex)
        b = np.array([terms[m][1](u) for m in n], dtype=complex)
        return complex(a0(u)), a, b, 0.0

    return FourierSymbol(k=k, n=np.array(n, dtype=int), coefficients=coefficients)


def constant_fourier_symbol(psi=None):
    psi = BrownianNegative() if psi is None else psi
    return series(1.0, psi.psi, {})


# ----------------------------------------------------------------------
# closed-form constructor
# ----------------------------------------------------------------------
def test_product_cosine_coefficients():
    fs = fourier_symbol_of_product_cosine(BrownianNegative())
    a0, a, b, residual = fs.coefficients(2.0)
    assert fs.n.tolist() == [-1, 1]
    assert a0 == pytest.approx(-2.0)
    assert a[1] == pytest.approx(1.0)
    assert a[0] == pytest.approx(1.0)
    assert b[1] == 0j
    assert residual == 0.0
    assert fs.coefficients(0.0)[0] == 0.0
    rng = np.random.default_rng(0)
    for _ in range(30):
        x = float(rng.uniform(-4, 4))
        u = float(rng.uniform(-6, 6))
        assert abs(fs.reconstruct(x, u) - eval_symbol(PRODCOS, x, u)) < 1e-14 * (
            1 + u * u
        )


# ----------------------------------------------------------------------
# dominance and K
# ----------------------------------------------------------------------
def test_dominance_constant_and_product():
    assert check_dominance(constant_fourier_symbol()).passed
    rep = check_dominance(fourier_symbol_of_product_cosine(BrownianNegative()))
    assert rep.passed  # sits exactly at equality
    assert rep.worst_margin == pytest.approx(0.0, abs=1e-12)


def test_dominance_constructed_violation():
    fs = series(1.0, lambda u: 0j, {1: (lambda u: 1.0 + 0j, lambda u: 0j)})
    rep = check_dominance(fs)
    assert not rep.passed
    assert rep.worst_margin == pytest.approx(-1.0)


def test_dominance_and_K_invariant_under_reindexing():
    # n -> -n with (a, b) -> (a, -b) leaves both checks unchanged
    def a1(u):
        return -0.25 * u * u + 0.1j

    def b1(u):
        return 0.05 * u + 0j

    a0 = lambda u: -u * u + 0j
    fs = series(1.3, a0, {2: (a1, b1)})
    flipped = series(1.3, a0, {-2: (a1, lambda u: -b1(u))})
    u = np.linspace(-10, 10, 41)
    da = check_dominance(fs, u)
    db = check_dominance(flipped, u)
    assert np.allclose(da.margin, db.margin)
    assert compute_K(fs, u).K == pytest.approx(compute_K(flipped, u).K)


def test_K_values():
    assert compute_K(constant_fourier_symbol()).K == 0.0
    fs = fourier_symbol_of_product_cosine(BrownianNegative())
    rep = compute_K(fs)
    assert 0.49 <= rep.K <= 0.5
    # doubling psi doubles K

    class Doubled:
        def psi(self, u):
            return -u * u

    rep2 = compute_K(fourier_symbol_of_product_cosine(Doubled()))
    assert rep2.K == pytest.approx(2.0 * rep.K)


# ----------------------------------------------------------------------
# term measures
# ----------------------------------------------------------------------
def test_build_term_measure_trivial_cases():
    from levysym.measures import dirac

    assert build_term_measure(0.0, "cos", 1.0, 1, 0.7)[0] == dirac(0, 1.0, "u1")
    P, _ = build_term_measure(1.5, "sin", 2.0, 1, 0.0)
    assert P == dirac(0, 2.0, "u2")


def test_term_measure_atom_oracle():
    # exp(mu) weight at 0 for mu = (delta_1 + delta_-1)/2: sum over even m of
    # (1/2)^m/m! * C(m, m/2), scaled by e^-1 -- brute-force big-int series
    P, _ = build_term_measure(1.0, "cos", 1.0, 1, 1.0, tol=1e-14)
    oracle = math.exp(-1.0) * sum(
        0.5**m / math.factorial(m) * math.comb(m, m // 2) for m in range(0, 60, 2)
    )
    assert P.weights[0].real == pytest.approx(oracle, abs=1e-12)
    assert oracle == pytest.approx(0.46575961, abs=5e-9)


def test_term_measure_fourier_identity():
    rng = np.random.default_rng(5)
    for kind in ("cos", "sin"):
        b = complex(rng.normal(), rng.normal())
        a = abs(b) + 0.3
        t, spacing = 0.6, 1.7
        P, _ = term_measure(a, b, kind, spacing, 1, t, tol=1e-13)
        trig = math.cos if kind == "cos" else math.sin
        for x in np.linspace(-2.0, 2.0, 21):
            target = cmath.exp(t * (b * trig(spacing * x) - a))
            assert abs(P.fourier(x) - target) < 1e-10


def test_verify_term_measure_flags_hypothesis_breach():
    # Re(a) < |b|: tv bound may fail, report must flag the breach
    rep_obj, _ = term_measure(0.1, 2.0, "cos", 1.0, 1, 1.0, tol=1e-12)
    rep = verify_term_measure(rep_obj, 0.1, 2.0, "cos", 1.0, 1.0, XGRID)
    assert not rep.hypothesis_ok
    assert rep.tv_norm > 1.0


def test_term_measure_rejects_bad_t():
    with pytest.raises(ValueError):
        term_measure(1.0, 1.0, "cos", 1.0, 1, 1.5)


def test_term_measure_on_a_sublattice_with_either_sign_of_index():
    b, a, t = 0.4 - 0.3j, 0.9, 0.8
    for kind, trig in (("cos", math.cos), ("sin", math.sin)):
        for index in (3, -3):
            spacing = index * 0.5
            P, _ = term_measure(a, b, kind, 0.5, index, t, tol=1e-13)
            for x in np.linspace(-2.0, 2.0, 9):
                target = cmath.exp(t * (b * trig(spacing * x) - a))
                assert abs(P.fourier(x) - target) < 1e-10


def test_term_measure_rejects_non_finite_factor_and_zero_index():
    with pytest.raises(ValueError, match="finite"):
        term_measure(1.0, complex(math.inf, 0.0), "cos", 1.0, 1, 0.5)
    with pytest.raises(ValueError, match="nonzero"):
        term_measure(1.0, 1.0, "cos", 1.0, 0, 0.5)


# ----------------------------------------------------------------------
# majorant assembly
# ----------------------------------------------------------------------
def test_majorant_constant_symbol():
    fs = constant_fourier_symbol()
    P, rep = assemble_majorant(fs, 2.0, 0.5, 1, XGRID)
    assert rep.all_ok
    assert P.total_mass() == pytest.approx(cmath.exp(0.5 * -2.0), abs=1e-12)
    assert rep.K_sigma == 0.0


def test_majorant_t_zero_is_identity():
    fs = fourier_symbol_of_product_cosine(BrownianNegative())
    P, rep = assemble_majorant(fs, 1.0, 0.0, 1, XGRID)
    assert rep.all_ok
    assert P.total_mass() == pytest.approx(1.0)
    assert P.moment(2) == pytest.approx(0.0)


def test_majorant_product_cosine_cross_validated():
    # independent check: numeric Fourier inversion of exp(t q(., u)) in x
    fs = fourier_symbol_of_product_cosine(BrownianNegative())
    u, t = 1.0, 0.5
    P, rep = assemble_majorant(fs, u, t, 1, XGRID, tol=1e-8)
    assert rep.all_ok
    # the transform is 2pi-periodic in x, so P's atoms on Z are the Fourier
    # coefficients of x -> exp(t q(x, u)); quadrature gives them independently
    M = 512
    xs = 2.0 * math.pi * np.arange(M) / M
    vals = np.array([cmath.exp(t * eval_symbol(PRODCOS, x, u)) for x in xs])
    for j in (-2, -1, 0, 1, 3):
        coeff = np.mean(vals * np.exp(-1j * j * xs))
        assert abs(P.weights.get(j, 0j) - coeff) < 1e-9
    assert rep.weighted_mass <= 1.0 + 0.5 * t + 1e-6


def test_majorant_rejects_broken_dominance():
    fs = series(1.0, lambda u: 1.0 + 0j, {1: (lambda u: 0.5 + 0j, lambda u: 0j)})
    with pytest.raises(ViolatedDominance):
        assemble_majorant(fs, 1.0, 1.0, 1, XGRID)


@pytest.mark.parametrize("fs, u, t, ncut", [
    (localize_fourierize(PRODCOS, math.pi, 1, nmax=64), 0.5, 1.0, 8),
    (fourier_symbol_of_product_cosine(BrownianNegative()), 3.0, 0.5, 1),
    (constant_fourier_symbol(), 2.0, 0.5, 1),
])
def test_majorant_reports_term_series(fs, u, t, ncut):
    _, rep = assemble_majorant(fs, u, t, ncut, XGRID)
    _, a, b, _ = fs.coefficients(u)
    reports = []
    for n, a_n, b_n in zip(fs.n.tolist(), a.tolist(), b.tolist()):
        if abs(n) > ncut:
            continue
        i = abs(n)
        for coef, base in ((a_n, {i: 0.5, -i: 0.5}),
                           (b_n if n > 0 else -b_n, {i: -0.5j, -i: 0.5j})):
            if abs(coef) > 0.0:
                mu = LatticeComplexMeasure(fs.k, "series", base).scale(t * coef)
                reports.append(exp_measure(mu, 1e-9)[1])
    assert rep.series_order == max((r.terms for r in reports), default=0)
    assert rep.series_tail == sum(r.tail_bound for r in reports)
    assert (rep.series_order > 0) == bool(fs.n.size)


def test_term_and_majorant_measures_share_one_lattice_tag():
    # one tag rule for the lattice unit * Z: a term measure and a majorant on
    # the same unit convolve, and the transform of the fold is the product
    fs = fourier_symbol_of_product_cosine(BrownianNegative())
    P, _ = assemble_majorant(fs, 1.0, 0.5, 1, XGRID)
    T, _ = build_term_measure(0.3 - 0.2j, "sin", fs.k, 2, 0.5)
    both = P.convolve(T)
    assert np.max(np.abs(both.fourier(XGRID) - P.fourier(XGRID) * T.fourier(XGRID))) < 1e-12


# ----------------------------------------------------------------------
# localization
# ----------------------------------------------------------------------
def test_bump_plateau_and_support():
    ys = np.linspace(0.26, 0.74, 25)
    assert np.allclose(plateau_bump(ys), 1.0)
    assert plateau_bump(np.array([0.0, 0.05, 0.95, 1.0])).max() == 0.0
    mid = plateau_bump(np.array([0.2, 0.8]))
    assert np.all((mid > 0.0) & (mid < 1.0))


def test_localize_constant_symbol():
    fs = localize_fourierize(ConstantSymbol(BrownianNegative()), 0.3, 2, nmax=16)
    a0, a, b, residual = fs.coefficients(2.0)
    assert a0 == pytest.approx(-2.0, abs=1e-12)
    worst = max(np.abs(a) + np.abs(b))
    assert worst < 1e-12
    assert check_dominance(fs).passed
    assert residual < 1e-10


def test_localize_plateau_reconstruction():
    fs = localize_fourierize(PRODCOS, 0.0, 1, nmax=64)
    for u in (0.25, 0.5, 1.0):
        for x in np.linspace(-0.25, 0.25, 17):
            assert abs(fs.reconstruct(x, u) - eval_symbol(PRODCOS, x, u)) <= 1e-6


def test_localize_reconstruction_consistent_with_reported_residual():
    fs = localize_fourierize(PRODCOS, 0.0, 1, nmax=64)
    for u in (0.5, 1.0, 2.0):
        worst = max(
            abs(fs.reconstruct(x, u) - eval_symbol(PRODCOS, x, u))
            for x in np.linspace(-0.25, 0.25, 17)
        )
        assert worst <= 3.0 * fs.coefficients(u)[3] + 1e-12


def test_localize_away_from_degenerate_point():
    # at x0 = pi the symbol is elliptic; reconstruction still exact on plateau
    fs = localize_fourierize(PRODCOS, math.pi, 1, nmax=64)
    for x in np.linspace(math.pi - 0.25, math.pi + 0.25, 9):
        assert abs(fs.reconstruct(x, 1.0) - eval_symbol(PRODCOS, x, 1.0)) <= 1e-6


def _scalar_localized_coefficients(x0, ell, nmax, u, quad_points=4096):
    """The per-state scalar loop plus FFT for the product-cosine symbol:
    (a0, n, a_n, b_n, residual) with q(x, u) = 2 sin^2(x/2) (-u^2/2)."""
    q = lambda x: 2.0 * math.sin(0.5 * x) ** 2 * (-0.5 * u * u)
    ys = np.arange(quad_points) / quad_points
    bump = plateau_bump(ys)
    states = (ys - 0.5) / ell + x0
    vals = np.array([q(float(x)) for x in states], dtype=complex)
    spectrum = np.fft.fft(bump * (vals - q(x0)) + q(x0)) / quad_points
    c = {n: complex(spectrum[n % quad_points]) for n in range(-nmax, nmax + 1)}
    ns = [n for n in range(-nmax, nmax + 1) if n != 0]
    phase = {n: cmath.exp(2j * math.pi * n * (0.5 - ell * x0)) for n in ns}
    a = [phase[n] * c[n] for n in ns]
    b = [1j * phase[n] * c[n] for n in ns]
    return c[0], ns, a, b, max(abs(c[-nmax]), abs(c[nmax])) * nmax


@pytest.mark.parametrize("ell", [1, 2])
@pytest.mark.parametrize("x0", [0.0, 1.0, math.pi])
def test_localized_coefficients_match_scalar_oracle(x0, ell):
    fs = localize_fourierize(PRODCOS, x0, ell, nmax=64)
    assert fs.k == 2.0 * math.pi * ell
    for u in (0.5, -3.0, 20.0):
        a0, ns, a, b, residual = _scalar_localized_coefficients(x0, ell, 64, u)
        got_a0, got_a, got_b, got_residual = fs.coefficients(u)
        scale = max(1.0, abs(a0))
        assert fs.n.tolist() == ns
        assert abs(got_a0 - a0) <= 1e-12 * scale
        assert np.max(np.abs(got_a - np.array(a))) <= 1e-12 * scale
        assert np.max(np.abs(got_b - np.array(b))) <= 1e-12 * scale
        assert abs(got_residual - residual) <= 1e-12 * scale


def test_dominance_and_K_match_row_sum_oracle():
    rng = np.random.default_rng(11)
    coef = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    random_series = series(
        0.7, lambda u: -(u * u) - 1.0 + 0.3j,
        {n: (lambda u, c=c: c[0] * u, lambda u, c=c: c[1] * u * u / 4.0)
         for n, c in zip((-3, 1, 2, 5), coef)},
    )
    ugrid = np.linspace(-20.0, 20.0, 41)
    for fs in (
        localize_fourierize(PRODCOS, math.pi, 1, nmax=64),
        localize_fourierize(PRODCOS, 0.0, 2, nmax=32),
        fourier_symbol_of_product_cosine(BrownianNegative()),
        constant_fourier_symbol(),
        random_series,
    ):
        dom = check_dominance(fs, ugrid)
        kr = compute_K(fs, ugrid)
        margins, ks = [], []
        for i, u in enumerate(ugrid):
            a0, _, _, residual = fs.coefficients(u)
            rows = fs.coefficient_rows(u)
            other = sum(abs(a) + abs(b) for _, a, b in rows)
            margins.append(-a0.real - other - residual)
            scale = abs(a0.real) + other + residual
            assert abs(dom.margin[i] - margins[-1]) <= 1e-12 * scale
            k_row = sum(n * n * (abs(a) + abs(b)) for n, a, b in rows)
            ks.append(fs.k * fs.k * k_row / (1.0 + u * u))
            assert abs(kr.integrand[i] - ks[-1]) <= 1e-12 * ks[-1]
        assert dom.passed == all(m >= -1e-10 * (1.0 + u * u) for m, u in zip(margins, ugrid))
        assert kr.K == pytest.approx(max(ks), rel=1e-12)


def test_localize_rejects_domain_exit():
    from levysym.errors import DomainError
    from levysym.symbols import IncreasingDoubling

    with pytest.raises(DomainError):
        localize_fourierize(IncreasingDoubling(), 0.0, 1, nmax=8)


@pytest.mark.parametrize("nmax", [-1, 0, 2048, 3000, 2.0, True])
def test_localize_rejects_nmax_outside_what_the_quadrature_resolves(nmax):
    # 4 096 nodes resolve |n| <= 2047; past that c_n repeats lower wavenumbers
    with pytest.raises(ValueError, match="nmax must be an integer in 1..2047"):
        localize_fourierize(PRODCOS, 3.14159, 1, nmax=nmax)


def test_localize_takes_the_largest_resolved_nmax():
    fs = localize_fourierize(PRODCOS, math.pi, 1, nmax=2047)
    assert fs.n.tolist() == [n for n in range(-2047, 2048) if n]
    assert len(fs.coefficients(1.0)[1]) == 4094


class CountingSpec:
    """Symbol wrapper that counts the evaluations on the quadrature states
    (array x) apart from the scalar ones at x0."""

    def __init__(self, spec):
        self.spec = spec
        self.state_calls = 0

    def value(self, x, u):
        self.state_calls += np.ndim(x) > 0
        return self.spec.value(x, u)


def test_localized_series_evaluates_each_frequency_once():
    spec = CountingSpec(PRODCOS)
    fs = localize_fourierize(spec, math.pi, 1, nmax=64)
    assert spec.state_calls == 2  # the u = 1 and u = 5 preconditions
    ugrid = np.linspace(-20.0, 20.0, 201)
    assert {1.0, 5.0} <= set(ugrid.tolist())
    check_dominance(fs, ugrid)
    compute_K(fs, ugrid)
    for u in ugrid:
        fs.coefficient_rows(u)
    for u in (0.25, 0.5, 1.0):
        for x in np.linspace(math.pi - 0.25, math.pi + 0.25, 41):
            fs.reconstruct(x, u)
    assert spec.state_calls == 203  # 201 grid points, 0.25 and 0.5


def test_localized_memo_rows_equal_fresh_rows():
    fs = localize_fourierize(PRODCOS, 1.0, 2, nmax=32)
    us = [0.0, -0.0, 1.0, 5.0, -3.25, 20.0, 1e-300]
    for _ in range(2):  # the second pass reads every row from the memo
        for u in us:
            got = fs.coefficients(u)
            want = localize_fourierize(PRODCOS, 1.0, 2, nmax=32).coefficients(u)
            assert got[0] == want[0] and got[3] == want[3]
            assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
    spec = CountingSpec(PRODCOS)
    fs = localize_fourierize(spec, 1.0, 2, nmax=32)
    fs.coefficients(0.0)
    fs.coefficients(-0.0)
    fs.coefficients(np.float64(-0.0))
    assert spec.state_calls == 2 + 2  # -0.0 is a frequency of its own


def test_localized_rows_are_read_only():
    fs = localize_fourierize(PRODCOS, math.pi, 1, nmax=64)
    a0, a, b, residual = fs.coefficients(2.0)
    with pytest.raises(ValueError):
        a[0] = 1.0
    b[:] = 7.0
    again = fs.coefficients(2.0)
    assert again[1] is a
    assert np.array_equal(again[2], 1j * a)


def test_localized_memo_is_bounded(monkeypatch):
    monkeypatch.setattr("levysym.checks.SERIES_MEMO_ROWS", 3)
    spec = CountingSpec(PRODCOS)
    fs = localize_fourierize(spec, math.pi, 1, nmax=64)  # rows at u = 1, 5
    fs.coefficients(2.0)  # three rows: full
    fs.coefficients(3.0)  # cleared, then one row
    fs.coefficients(3.0)
    assert spec.state_calls == 4
    fs.coefficients(1.0)  # gone with the clear
    assert spec.state_calls == 5


@pytest.mark.parametrize("ugrid, problem", [
    (np.array([]), "empty"),
    (np.zeros((3, 2)), "not one-dimensional"),
    (np.array(0.5), "not one-dimensional"),
    (np.linspace(-math.nan, math.nan, 5), "not finite"),
    (np.array([0.0, math.inf]), "not finite"),
])
def test_dominance_and_K_reject_bad_grids(ugrid, problem):
    fs = fourier_symbol_of_product_cosine(BrownianNegative())
    with pytest.raises(ValueError, match=f"the u grid of the dominance check is {problem}"):
        check_dominance(fs, ugrid)
    with pytest.raises(ValueError, match=f"the u grid of the K computation is {problem}"):
        compute_K(fs, ugrid)


def test_nan_margin_fails_dominance():
    fs = series(1.0, lambda u: math.nan if u == 2.0 else -(u * u) - 1.0, {})
    ugrid = np.linspace(-4.0, 4.0, 9)
    assert check_dominance(fs, ugrid[ugrid != 2.0]).passed
    dom = check_dominance(fs, ugrid)
    assert math.isnan(dom.margin[6]) and not dom.passed


# ----------------------------------------------------------------------
# ellipticity audit
# ----------------------------------------------------------------------
def _ex31_derivatives(x, u):
    """Orders 1..3 of (cos(ux) - 1)/x^2 by Leibniz's rule, x away from 0."""
    g = [np.cos(u * x) - 1.0] + [u**k * np.cos(u * x + k * math.pi / 2) for k in (1, 2, 3)]
    h = [(-1) ** j * math.factorial(j + 1) * x ** (-2.0 - j) for j in range(4)]
    return [sum(math.comb(p, k) * g[k] * h[p - k] for k in range(p + 1)) for p in (1, 2, 3)]


def _prodcos_derivatives(x, u):
    """Orders 1..3 of (1 - cos x)(-u^2/2)."""
    return [0.5 * u * u * np.cos(x + p * math.pi / 2) for p in (1, 2, 3)]


FD_CASES = {  # name: (f(z, u), states, frequencies, closed orders 1..3, tolerance(u))
    "polynomial": (lambda z, u: z**3 + 2.0 * z, np.array([1.5]), np.array([0.0]),
                   lambda x, u: [3.0 * x * x + 2.0, 6.0 * x, 6.0 + 0.0 * x],
                   lambda u: 1e-12),
    "cos300x": (lambda z, u: np.cos(300.0 * z), np.array([0.001]), np.array([300.0]),
                lambda x, u: [-300.0 * np.sin(300.0 * x), -300.0**2 * np.cos(300.0 * x),
                              300.0**3 * np.sin(300.0 * x)],
                lambda u: 1e-6),
    "zero": (lambda z, u: np.zeros_like(z), np.array([0.5]), np.array([0.0]),
             lambda x, u: [0.0 * x] * 3, lambda u: 0.0),
    "ex31": (lambda z, u: eval_symbol(SymmetricDoubling(), z, u),
             np.array([0.1, 0.52, 1.0, 2.5]), np.array([1.0, 8.91, 100.0, 1000.0]),
             _ex31_derivatives, lambda u: 1e-7 * (1.0 + u * u)),
    "prodcos": (lambda z, u: eval_symbol(PRODCOS, z, u),
                np.array([0.1, 0.52, 1.0, 2.5]), np.array([1.0, 8.91, 100.0, 1000.0]),
                _prodcos_derivatives, lambda u: 1e-7 * (1.0 + u * u)),
}


@pytest.mark.parametrize("case", sorted(FD_CASES))
def test_fd_derivative_matches_closed_forms(case):
    f, xs, us, closed, tol = FD_CASES[case]
    d = fd_derivative(f, xs, us[:, None], 3)  # one call on the (u, x) grid
    assert d.shape == (4, us.size, xs.size) and d.dtype == complex
    want = closed(xs, us[:, None])
    for p in (1, 2, 3):
        assert np.all(np.abs(d[p] - want[p - 1]) <= tol(us[:, None])), p


def test_fd_derivative_pinned_ex31_order3():
    # a 50-digit reference gives -7.920114082056394 at x = 0.52, u = 8.91
    d = fd_derivative(lambda z, u: eval_symbol(SymmetricDoubling(), z, u), 0.52, 8.91, 3)
    assert abs(d[3] - (-7.920114082056394)) <= 1e-9


@pytest.mark.parametrize("spec", [
    SymmetricDoublingApprox(LatticeUnit.parse("1"), 4),
    IncreasingDoublingApprox(LatticeUnit.parse("1"), 4),
])
def test_audit_rejects_symbols_not_entire_in_x(spec):
    with pytest.raises(UnsupportedSpec):
        audit_ellipticity(spec, BrownianNegative(), 0.5, 0.1)


@pytest.mark.parametrize("max_order", [0, 4])
def test_audit_rejects_orders_outside_one_to_three(max_order):
    with pytest.raises(ValueError, match="orders run from 1 to 3"):
        audit_ellipticity(PRODCOS, BrownianNegative(), 0.5, 0.1, max_order=max_order)


def test_audit_counterexample_fails_smoothness():
    audit = audit_ellipticity(
        SymmetricDoubling(), BrownianNegative(), 0.0, 1e-3, max_order=1
    )
    assert audit.elliptic_ratio[1] > 100.0
    assert 1.7 <= audit.slope <= 2.3


def test_audit_product_cosine_passes():
    audit = audit_ellipticity(PRODCOS, BrownianNegative(), 0.0, 1e-3, max_order=1)
    assert audit.elliptic_ratio[1] <= 1.1
    assert all(v <= 1.1 for v in audit.growth_ratio.values())
    assert -0.2 <= audit.slope <= 0.2


def test_audit_constant_symbol():
    audit = audit_ellipticity(
        ConstantSymbol(BrownianNegative()), BrownianNegative(), 0.0, 1.0,
        max_order=3, ugrid=np.geomspace(1.0, 50.0, 11),
    )
    assert audit.floor_ratio == pytest.approx(1.0)
    assert max(audit.growth_ratio.values()) < 1e-8


def test_audit_order3_stable_at_generic_point():
    audit = audit_ellipticity(
        PRODCOS, BrownianNegative(), 1.0, 0.5, max_order=3,
        ugrid=np.geomspace(1.0, 100.0, 15),
    )
    assert audit.elliptic_ratio[1] <= 1.0 + 1e-6
    assert audit.growth_ratio[3] <= 0.5 + 1e-6


def test_audit_order3_near_degenerate_point():
    # near x0 = pi the product symbol's odd x-derivatives nearly vanish
    audit = audit_ellipticity(
        PRODCOS, BrownianNegative(), 3.14159, 0.5, max_order=3,
        ugrid=np.geomspace(1.0, 50.0, 9),
    )
    assert audit.floor_ratio == pytest.approx(1.0 - math.cos(3.14159 - 0.5), abs=1e-6)
    assert audit.growth_ratio[2] <= 0.5 + 1e-9


def test_audit_rejects_zero_frequency():
    with pytest.raises(ValueError):
        audit_ellipticity(PRODCOS, BrownianNegative(), 0.0, 1.0,
                          ugrid=np.array([0.0, 1.0]))


@pytest.mark.parametrize("kwargs, match", [
    ({"ugrid": np.array([])}, "u grid .* is empty"),
    # x0 + radius and x0 - radius overflow
    ({"x0": 1e308, "radius": 1e308}, "x grid .* not finite"),
    ({"ugrid": np.array([1.0, np.inf])}, "u grid .* not finite"),
    ({"x0": -1e308, "radius": 1e308}, "x grid .* not finite"),
    ({"x0": np.inf}, "x0 and radius must be finite"),
    ({"radius": np.nan}, "x0 and radius must be finite"),
    ({"ugrid": np.ones((3, 4))}, "u grid .* not one-dimensional"),
])
def test_audit_rejects_empty_and_non_finite_grids(kwargs, match):
    args = {"x0": 0.5, "radius": 0.1} | kwargs
    with pytest.raises(ValueError, match=match):
        audit_ellipticity(PRODCOS, BrownianNegative(), **args)


# ----------------------------------------------------------------------
# Groenwall
# ----------------------------------------------------------------------
def test_groenwall_exponential_with_matching_beta():
    c, T = 1.3, 1.0
    ts = np.linspace(0.0, T, 21)
    phis = 2.0 * np.exp(c * ts)
    # e^{c d} <= 1 + c d + beta(d) with beta(d) = e^{cT} c^2 d^2 / 2 * phi-scale
    beta = lambda d: 2.0 * math.exp(c * T) * c * c * d * d / 2.0 * math.exp(c * T)
    rep = groenwall_verify(ts, phis, c, beta)
    assert rep.hypothesis_ok
    assert rep.conclusion_ok


def test_groenwall_flags_violating_table():
    ts = [0.0, 0.5, 1.0]
    phis = [1.0, 1.0 + 2 * 0.5 * 1.0, 1.0 + 2 * 1.0]  # phi = 1 + 2 c t, beta = 0
    rep = groenwall_verify(ts, phis, 1.0)
    assert not rep.hypothesis_ok
    assert rep.first_violation is not None


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_groenwall_rejects_a_rate_that_is_not_finite(c):
    # at c = nan every comparison is false, so both checks would read ok
    with pytest.raises(ValueError, match="rate c must be finite"):
        groenwall_verify([0.0, 0.5, 1.0], [1.0, 5.0, 50.0], c)


def test_groenwall_recursion_tables():
    for c in (0.5, 2.0):
        for steps in (10, 100, 1000):
            ts, phis = groenwall_recursion_table(1.0, c, 1.0, steps)
            rep = groenwall_verify(ts, phis, c)
            assert rep.conclusion_ok
            # (1 + c h)^2 > 1 + 2 c h: the first pair two steps apart fails
            assert not rep.hypothesis_ok and rep.first_violation == (0, 2)
    ts, phis = groenwall_recursion_table(0.0, 2.0, 1.0, 100)
    assert max(abs(p) for p in phis) <= 1e-15
    rep = groenwall_verify(ts, phis, 2.0)
    assert rep.conclusion_ok and rep.hypothesis_ok


@pytest.mark.parametrize("horizon, steps", [(1.0, 0), (1.0, -3), (math.nan, 10),
                                            (math.inf, 10), (0.0, 10), (-1.0, 10)])
def test_groenwall_recursion_rejects_bad_inputs(horizon, steps):
    with pytest.raises(ValueError, match="steps >= 1 and a finite positive horizon"):
        groenwall_recursion_table(1.0, 1.0, horizon, steps)


def test_groenwall_beta_as_table():
    ts = [0.0, 0.5]
    phis = [1.0, 1.4]
    rep = groenwall_verify(ts, phis, 0.5, beta={0.5: 0.2}.__getitem__)
    assert rep.hypothesis_ok    # 1.4 <= 1.25 + 0.2
    assert not rep.conclusion_ok  # 1.4 > e^0.25


@pytest.mark.parametrize("ts, phis", [
    ([], []),
    ([0.0, math.nan], [1.0, 1.0]),
    ([0.0, math.inf], [1.0, 1.0]),
    ([0.0, 1.0], [1.0, math.nan]),
    ([0.0, 1.0], [-math.inf, 1.0]),
])
def test_groenwall_rejects_tables_it_cannot_check(ts, phis):
    with pytest.raises(ValueError, match="non-empty|finite"):
        groenwall_verify(ts, phis, 1.0)
