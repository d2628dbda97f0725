"""Numerical audits of the sufficient uniqueness conditions.

The pipeline mirrors the structure of the uniqueness argument:

1.  A symbol is written as a trigonometric series in the state,
    q(x,u) = a_0(u) + sum_n a_n(u) cos(k n x) + b_n(u) sin(k n x)
    (``FourierSymbol``): an int array of the nonzero wavenumber indices n
    and one function of u that returns a_0 and the a_n, b_n as complex
    arrays aligned with n.  The series comes in closed form (product-cosine
    symbols) or from windowed localization around a point: one array
    evaluation of the symbol on the quadrature states and one FFT per u.
2.  ``check_dominance`` tests that -Re a_0(u) dominates the absolute sum of
    all other coefficients, and ``compute_K`` evaluates the curvature
    constant K = k^2 sup_u sum |n|^2 (|a_n|+|b_n|) / (1+u^2).
3.  Each series term gets an explicit complex measure with Fourier
    transform exp(t(b cos(snx) - a)) (or sin), built from the truncated
    convolution exponential; ``verify_term_measure`` audits its four
    defining properties and ``assemble_majorant`` convolves the terms into
    a measure whose transform is exp(t q(x,u)), checking the weighted-mass
    bound that drives the marginal-stability Groenwall argument.
4.  ``audit_ellipticity`` measures the smoothness/ellipticity ratios that
    decide whether the localized construction is applicable at all, and
    ``groenwall_verify`` checks the discrete Groenwall lemma on tables.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DerivativeUnstable,
    DomainError,
    QuadratureUnderresolved,
    ViolatedDominance,
)
from .measures import (
    LatticeComplexMeasure,
    _modulus,
    convolve_sequence,
    dirac,
    exp_measure,
)
from .symbols import eval_symbol

DEFAULT_UGRID = np.linspace(-20.0, 20.0, 201)


# ----------------------------------------------------------------------
# Fourier-series view of a symbol
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FourierSymbol:
    """Trigonometric series representation of a symbol in the state variable.

    ``n`` is the sorted int array of the nonzero wavenumber indices (the
    wavenumbers are k*n).  ``coefficients(u)`` returns ``(a0, a, b,
    residual)`` at one frequency u: the constant coefficient, the complex
    cosine and sine coefficient arrays aligned with ``n``, and a bound on
    the dropped coefficient tail (zero for closed forms).
    """

    k: float
    n: np.ndarray
    coefficients: Callable[[float], tuple[complex, np.ndarray, np.ndarray, float]]

    def reconstruct(self, x, u: float):
        """Evaluate the (truncated) series at state(s) x and frequency u."""
        a0, a, b, _ = self.coefficients(u)
        kx = self.k * np.multiply.outer(x, self.n)
        return a0 + np.cos(kx) @ a + np.sin(kx) @ b

    def coefficient_rows(self, u: float):
        """(n, a_n(u), b_n(u)) for all stored nonzero n."""
        _, a, b, _ = self.coefficients(u)
        return list(zip(self.n.tolist(), a.tolist(), b.tolist()))


def fourier_symbol_of_product_cosine(exponent_spec) -> FourierSymbol:
    """Closed-form series of q(x,u) = (1 - cos x) psi(u): a0 = psi,
    a_{+-1} = -psi/2, everything else zero, wavenumber 1."""

    def coefficients(u):
        psi = complex(exponent_spec.psi(u))
        return psi, np.full(2, -0.5 * psi), np.zeros(2, dtype=complex), 0.0

    return FourierSymbol(k=1.0, n=np.array([-1, 1]), coefficients=coefficients)


# ----------------------------------------------------------------------
# localization (window, bump, coefficients, phase shifts)
# ----------------------------------------------------------------------
def _exp_bump(s):
    return np.where(s > 0.0, np.exp(-1.0 / np.maximum(s, 1e-300)), 0.0)


def smoothstep(r):
    """C-infinity step: 0 for r <= 0, 1 for r >= 1."""
    a = _exp_bump(np.asarray(r, dtype=float))
    b = _exp_bump(1.0 - np.asarray(r, dtype=float))
    return a / (a + b)


def plateau_bump(y):
    """C-infinity bump on (0,1): constant 1 on [1/4, 3/4], support in
    (1/8, 7/8)."""
    y = np.asarray(y, dtype=float)
    return smoothstep(8.0 * (y - 0.125)) * smoothstep(8.0 * (0.875 - y))


def localize_fourierize(spec, x0: float, ell: int, nmax: int = 64,
                        quad_points: int = 4096, ugrid=None) -> FourierSymbol:
    """Window the symbol around x0 and extract its Fourier series.

    Builds q_l(y,u) = bump(y) (q(gamma(y),u) - psi(u)) + psi(u) on the unit
    interval, gamma(y) = (y - 1/2)/ell + x0 and psi = q(x0, .), computes
    c_n(u) by ``quad_points``-point periodic trapezoid for |n| <= nmax, and
    phases them into cosine/sine coefficients at wavenumber k = 2 pi ell:
    a_n = e^{2 pi i n (1/2 - ell x0)} c_n, b_n = i a_n.  Each call of the
    returned ``coefficients(u)`` makes one array evaluation of the symbol on
    the quadrature states and one FFT; nothing is cached.

    The reported residual is the heuristic decay estimate
    nmax * max(|c_{+-nmax}(u)|).  Raises QuadratureUnderresolved when the
    edge coefficients exceed 1e-3 of the total coefficient mass on the
    check grid.
    """
    if ell < 1:
        raise ValueError("window parameter ell must be a positive integer")
    # state-space precondition: the window must evaluate cleanly
    for x in (x0 - 0.5 / ell, x0 + 0.5 / ell):
        try:
            eval_symbol(spec, x, 1.0)
        except DomainError as err:
            raise DomainError(
                f"localization window [{x0 - 0.5 / ell}, {x0 + 0.5 / ell}] leaves "
                f"the symbol's state space: {err}"
            ) from err
    ys = np.arange(quad_points) / quad_points
    bump = plateau_bump(ys)
    states = (ys - 0.5) / ell + x0  # gamma_ell(y)
    idx = np.arange(-nmax, nmax + 1)
    n = idx[idx != 0]
    phase = np.exp(2j * math.pi * n * (0.5 - ell * x0))

    def spectrum(u: float) -> np.ndarray:
        """c_n(u) for n = -nmax..nmax (index shifted by nmax)."""
        psi_u = eval_symbol(spec, x0, u)
        windowed = bump * (eval_symbol(spec, states, u) - psi_u) + psi_u
        return (np.fft.fft(windowed) / quad_points)[idx % quad_points]

    check_grid = [1.0, 5.0] if ugrid is None else [float(u) for u in ugrid]
    for u in check_grid:
        c = spectrum(u)
        total = float(np.sum(np.abs(c)))
        edge = max(abs(c[0]), abs(c[-1]))
        if total > 0.0 and edge > 1e-3 * total:
            raise QuadratureUnderresolved(
                f"|c_(+-{nmax})| = {edge:.3g} exceeds 1e-3 of the coefficient "
                f"mass {total:.3g} at u = {u}"
            )

    def coefficients(u):
        c = spectrum(float(u))
        a = phase * np.delete(c, nmax)
        residual = float(max(abs(c[0]), abs(c[-1])) * nmax)
        return complex(c[nmax]), a, 1j * a, residual

    return FourierSymbol(k=2.0 * math.pi * ell, n=n, coefficients=coefficients)


# ----------------------------------------------------------------------
# dominance and curvature reports
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DominanceReport:
    """Per-frequency margins -Re a0 - sum(|a_n|+|b_n|) - residual."""

    u: np.ndarray
    margin: np.ndarray
    passed: bool
    worst_u: float
    worst_margin: float
    tolerance_note: str = "margins compared against -tol_eq(u); equality passes"


def default_dominance_tol(u: float) -> float:
    return 1e-10 * (1.0 + u * u)


def _coefficient_grid(fs: FourierSymbol, u: np.ndarray):
    """a0, |a_n| + |b_n| (one row per u) and the residual on the grid,
    computed one u at a time: the (u x state) grid is never held at once."""
    a0, a, b, residual = zip(*(fs.coefficients(v) for v in u.tolist()))
    weight = _modulus(np.array(a, dtype=complex)) + _modulus(np.array(b, dtype=complex))
    return np.array(a0, dtype=complex), weight, np.array(residual, dtype=float)


def check_dominance(fs: FourierSymbol, ugrid=None, tol_eq=None) -> DominanceReport:
    """Margins -Re a0(u) - sum(|a_n(u)| + |b_n(u)|) - residual(u) on the grid.

    ``tol_eq`` (default ``default_dominance_tol``) is called once, on the
    array of grid frequencies, and must return the allowance per u; a
    margin passes when it is at least -tol_eq(u).
    """
    u = np.asarray(DEFAULT_UGRID if ugrid is None else ugrid, dtype=float)
    tol = default_dominance_tol if tol_eq is None else tol_eq
    a0, weight, residual = _coefficient_grid(fs, u)
    margins = -a0.real - np.sum(weight, axis=1) - residual
    ok = not np.any(margins < -tol(u))
    j = int(np.argmin(margins))
    return DominanceReport(u, margins, ok, float(u[j]), float(margins[j]))


@dataclass(frozen=True)
class KReport:
    """K = k^2 max_u sum |n|^2 (|a_n(u)|+|b_n(u)|) / (1+u^2) on the grid."""

    K: float
    u_at: float
    u: np.ndarray
    integrand: np.ndarray
    note: str = "supremum taken over the finite grid only"


def compute_K(fs: FourierSymbol, ugrid=None) -> KReport:
    u = np.asarray(DEFAULT_UGRID if ugrid is None else ugrid, dtype=float)
    _, weight, _ = _coefficient_grid(fs, u)
    vals = fs.k * fs.k * np.sum(fs.n * fs.n * weight, axis=1) / (1.0 + u * u)
    j = int(np.argmax(vals))
    return KReport(float(vals[j]), float(u[j]), u, vals)


# ----------------------------------------------------------------------
# term measures (one series term -> one complex measure)
# ----------------------------------------------------------------------
def term_measure(a: complex, b: complex, kind: str, spacing: float, t: float,
                 tol: float = 1e-12, unit: float | None = None,
                 unit_tag: str | None = None, index: int = 1) -> LatticeComplexMeasure:
    """Measure with Fourier transform exp(t (b trig(spacing x) - a)).

    ``trig`` is cos or sin according to ``kind``.  The base measure is
    mu = (delta_{+spacing} + delta_{-spacing})/2 for cosine and
    (delta_{+spacing} - delta_{-spacing})/(2i) for sine; the result is
    e^{-t a} exp(t b mu).  Atoms land on the lattice of ``unit`` (defaults
    to the spacing itself) at index multiples of ``index``.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("term measures are built for t in [0, 1]")
    if unit is None:
        unit = spacing
    if unit_tag is None:
        unit_tag = f"u{unit:.17g}"
    if abs(index * unit - spacing) > 1e-12 * max(1.0, abs(spacing)):
        raise ValueError("spacing must equal index * unit on the shared lattice")
    if kind == "cos":
        base = {index: 0.5, -index: 0.5}
    elif kind == "sin":
        base = {index: -0.5j, -index: 0.5j}
    else:
        raise ValueError(f"kind must be 'cos' or 'sin', got {kind!r}")
    mu = LatticeComplexMeasure(unit, unit_tag, base).scale(t * b)
    return exp_measure(mu, tol).scale(cmath.exp(-t * complex(a)))


def build_term_measure(coef: complex, kind: str, spacing: float, t: float,
                       tol: float = 1e-12, **kwargs) -> LatticeComplexMeasure:
    """Dominance-rewrite term: transform exp(t(coef trig(spacing x) - |coef|))."""
    return term_measure(abs(coef), coef, kind, spacing, t, tol, **kwargs)


@dataclass(frozen=True)
class TermMeasureReport:
    """The four defining properties of a series-term measure.

    1. Fourier transform matches exp(t(b trig - a)) on the x grid.
    2. Total variation norm at most 1.
    3. The total variation measure is centered (first moment 0).
    4. Second absolute moment at most t |b| spacing^2.

    ``hypothesis_ok`` records whether Re(a) >= |b| held; when it fails the
    properties are not expected to hold and failures flag the hypothesis
    breach rather than the construction.
    """

    fourier_error: float
    fourier_ok: bool
    tv_norm: float
    tv_ok: bool
    first_abs_moment: float
    centered_ok: bool
    second_abs_moment: float
    second_moment_bound: float
    second_ok: bool
    hypothesis_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.fourier_ok and self.tv_ok and self.centered_ok and self.second_ok


def verify_term_measure(P: LatticeComplexMeasure, a: complex, b: complex,
                        kind: str, spacing: float, t: float, xgrid,
                        tol: float = 1e-8) -> TermMeasureReport:
    x = np.asarray(xgrid, dtype=float)
    trig = np.cos if kind == "cos" else np.sin
    target = np.exp(t * (complex(b) * trig(spacing * x) - complex(a)))
    worst = float(np.max(np.abs(P.fourier(x) - target), initial=0.0))
    tv = P.total_variation()
    tv_norm = P.tv_norm()
    m1 = abs(tv.moment(1))
    m2 = tv.moment(2).real
    bound = t * abs(b) * spacing * spacing
    return TermMeasureReport(
        fourier_error=worst,
        fourier_ok=worst <= tol,
        tv_norm=tv_norm,
        tv_ok=tv_norm <= 1.0 + 1e-10,
        first_abs_moment=m1,
        centered_ok=m1 <= 1e-10,
        second_abs_moment=m2,
        second_moment_bound=bound,
        second_ok=m2 <= bound + tol,
        hypothesis_ok=complex(a).real >= abs(b),
    )


# ----------------------------------------------------------------------
# majorant assembly (series terms -> one measure for exp(t q))
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MajorantReport:
    """Transform match and weighted-mass bound for the assembled measure."""

    u: float
    t: float
    transform_error: float
    transform_ok: bool
    weighted_mass: float
    weighted_mass_bound: float
    mass_ok: bool
    K_sigma: float
    rewritten_a0: complex

    @property
    def all_ok(self) -> bool:
        return self.transform_ok and self.mass_ok


def assemble_majorant(fs: FourierSymbol, u: float, t: float, ncut: int, xgrid,
                      tol: float = 1e-6, exp_tol: float = 1e-9,
                      ) -> tuple[LatticeComplexMeasure, MajorantReport]:
    """Convolve the per-term measures of the dominance rewrite.

    The series is rewritten with a0 absorbed into
    a0~ = a0 + sum(|a_n| + |b_n|), each cosine term contributing
    exp(t(a_n cos - |a_n|)) and each sine term exp(t(b_n sin - |b_n|)); the
    fold then has Fourier transform exp(t q_rec(x,u)) for the truncated
    reconstruction q_rec.  The report checks that transform identity on the
    x grid and the weighted mass sum (1+|u+v|^2)/(1+|u|^2) |P|(v)
    against 1 + K_sigma t with the curvature constant
    K_sigma = k^2 sum |n|^2 (|a_n|+|b_n|) / (1+u^2).
    """
    a0, a, b, _ = fs.coefficients(u)
    keep = np.abs(fs.n) <= ncut
    rows = list(zip(fs.n[keep].tolist(), a[keep].tolist(), b[keep].tolist()))
    a0_val = complex(a0)
    coeff_sum = sum(abs(a) + abs(b) for _, a, b in rows)
    rewritten = a0_val + coeff_sum
    if rewritten.real > default_dominance_tol(u):
        raise ViolatedDominance(
            f"rewritten constant coefficient has positive real part "
            f"{rewritten.real:.3g} at u = {u}; dominance fails"
        )
    unit = fs.k
    unit_tag = f"series-k{fs.k:.17g}"
    parts = [dirac(0, unit, unit_tag, cmath.exp(t * rewritten))]
    for n, a_n, b_n in rows:
        spacing = fs.k * abs(n)
        if abs(a_n) > 0.0:
            parts.append(
                build_term_measure(a_n, "cos", spacing, t, exp_tol,
                                   unit=unit, unit_tag=unit_tag, index=abs(n))
            )
        if abs(b_n) > 0.0:
            sin_coef = b_n if n > 0 else -b_n  # sin is odd: fold onto |n|
            parts.append(
                build_term_measure(sin_coef, "sin", spacing, t, exp_tol,
                                   unit=unit, unit_tag=unit_tag, index=abs(n))
            )
    P = convolve_sequence(parts)

    x = np.asarray(xgrid, dtype=float)
    q_rec = np.full(x.shape, a0_val)
    for n, a_n, b_n in rows:
        q_rec += a_n * np.cos(fs.k * n * x) + b_n * np.sin(fs.k * n * x)
    worst = float(np.max(np.abs(P.fourier(x) - np.exp(t * q_rec)), initial=0.0))
    tv = P.total_variation()
    mass = sum(
        (1.0 + (u + j * unit) ** 2) / (1.0 + u * u) * w.real
        for j, w in tv.weights.items()
    )
    k_sigma = (
        fs.k * fs.k * sum(n * n * (abs(a) + abs(b)) for n, a, b in rows)
        / (1.0 + u * u)
    )
    bound = 1.0 + k_sigma * t + tol
    report = MajorantReport(
        u=float(u), t=float(t), transform_error=worst, transform_ok=worst <= tol,
        weighted_mass=mass, weighted_mass_bound=bound, mass_ok=mass <= bound,
        K_sigma=k_sigma, rewritten_a0=rewritten,
    )
    return P, report


# ----------------------------------------------------------------------
# ellipticity / smoothness audit
# ----------------------------------------------------------------------
_RICHARDSON_RTOL = 1e-4
_FD_BASE_STEP = 2e-2


#: order -> ((multiple of h, coefficient), ...) of the central stencil,
#: whose weighted sum is divided by h**order
_STENCILS = {
    1: ((1.0, 0.5), (-1.0, -0.5)),
    2: ((1.0, 1.0), (0.0, -2.0), (-1.0, 1.0)),
    3: ((2.0, 0.5), (1.0, -1.0), (-1.0, 1.0), (-2.0, -0.5)),
}


def _fd_candidates(x: float, u_scale: float):
    base = _FD_BASE_STEP * (1.0 + abs(x))
    steps = {base / 4.0**j for j in range(7)}
    # rungs matched to the oscillation scale 1/u of frequency-coupled symbols
    steps.add(base / (1.0 + abs(u_scale)))
    steps.add(base / (4.0 * (1.0 + abs(u_scale))))
    return sorted(steps, reverse=True)


def fd_derivative(f, x: float, order: int, u_scale: float = 0.0,
                  abs_tol: float = 0.0) -> complex:
    """Central finite difference with Richardson halving and step adaptation.

    ``f`` maps an array of states to the array of its values (real or
    complex); it is called once, on the stencil points of every step of
    the ladder.  The ladder holds geometric rungs of 2e-2 (1+|x|), plus
    rungs scaled by 1/(1+u) for symbols oscillating at frequency u in the
    state; each candidate is judged by the relative disagreement of the
    halved step against a rounding-noise floor, and the most
    self-consistent one (the first, on ties) wins.  Raises
    DerivativeUnstable when no step agrees to 1e-4 relative while sitting
    above its noise floor; values indistinguishable from zero at noise
    level, or whose absolute disagreement is below ``abs_tol`` (too small
    to move whatever quotient the caller forms), are returned as computed
    rather than rejected.
    """
    if order not in _STENCILS:
        raise ValueError("finite differences implemented for orders 1..3")
    mults, coefs = np.array(_STENCILS[order]).T
    ladder = np.array(_fd_candidates(x, u_scale))
    hs = np.concatenate([ladder, ladder / 2.0])  # every rung, then its half step
    vals = np.asarray(f(x + np.multiply.outer(hs, mults)), dtype=complex)
    # real and imaginary parts apart: NumPy's complex / real rounds unlike Python's
    parts = np.stack([vals.real, vals.imag])
    denom = hs**order
    d1, d2 = np.split(np.sum(coefs * parts, axis=2) / denom, 2, axis=1)
    rich = (4.0 * d2 - d1) / 3.0
    fmax = np.max(np.hypot(*parts), axis=1)
    eps = float(np.finfo(float).eps)
    noise_floor = 80.0 * eps * np.maximum(*np.split(fmax, 2)) / denom[ladder.size:]
    disagreement = np.hypot(*(d1 - d2))
    size = np.hypot(*rich)
    score = disagreement / np.maximum(np.maximum(size, noise_floor), 1e-300)
    j = int(np.argmin(score))
    if (score[j] > _RICHARDSON_RTOL and disagreement[j] > abs_tol
            and size[j] > 10.0 * noise_floor[j]):
        raise DerivativeUnstable(
            f"order-{order} derivative at x={x:.6g} (u={u_scale:.6g}): best "
            f"step ladder disagreement is {score[j]:.3g} relative"
        )
    return complex(*rich[:, j])


@dataclass(frozen=True)
class EllipticityAudit:
    """Grid suprema of the smoothness/ellipticity quotients.

    ``elliptic_ratio`` holds sup |d^a_x q| / |Re psi(u)| per order a (the
    localization-smoothness condition, orders up to 1 in d = 1);
    ``growth_ratio`` holds sup |d^a_x q| / (1 + u^2) (orders up to 3);
    ``floor_ratio`` is the ellipticity floor min |Re q| / |psi(u)|;
    ``slope`` is the log-log growth rate of the order-1 elliptic ratio over
    the top frequency decade (near 0: bounded, near 2: the condition fails
    on every neighbourhood).
    """

    elliptic_ratio: dict
    growth_ratio: dict
    floor_ratio: float
    slope: float
    u: np.ndarray
    order1_ratio_per_u: np.ndarray
    max_order: int
    bound: float | None = None

    @property
    def elliptic_ok(self) -> bool | None:
        if self.bound is None:
            return None
        return all(v <= self.bound for v in self.elliptic_ratio.values())


def audit_ellipticity(spec, exponent_spec, x0: float, radius: float,
                      xgrid=None, ugrid=None, max_order: int = 3,
                      bound: float | None = None) -> EllipticityAudit:
    """Measure the sufficient-condition quotients around x0.

    ``exponent_spec`` supplies the comparison exponent psi (typically
    q(x0, .) or the underlying exponent of a product symbol); u = 0 is
    excluded from all quotient grids.
    """
    xs = (
        np.linspace(x0 - radius, x0 + radius, 21)
        if xgrid is None
        else np.asarray(xgrid, dtype=float)
    )
    us = (
        np.geomspace(1.0, 1e3, 61) if ugrid is None else np.asarray(ugrid, dtype=float)
    )
    if np.any(us == 0.0):
        raise ValueError("u = 0 must be excluded from quotient grids")
    psi = exponent_spec.psi(us)
    re_psi = np.abs(psi.real).tolist()
    abs_psi = _modulus(psi)
    q = eval_symbol(spec, xs, us[:, None])
    elliptic_u = abs_psi > 0.0
    floor = float(np.min(np.abs(q.real[elliptic_u]) / abs_psi[elliptic_u, None],
                         initial=math.inf))
    elliptic: dict[int, float] = {o: 0.0 for o in range(1, min(1, max_order) + 1)}
    growth: dict[int, float] = {o: 0.0 for o in range(1, max_order + 1)}
    ratio1 = np.zeros(us.size)
    for iu, u in enumerate(us.tolist()):
        f = lambda x, u=u: eval_symbol(spec, x, u)
        for x in xs.tolist():
            for order in range(1, max_order + 1):
                # disagreements below 1e-6 (1+u^2) cannot move any quotient
                d = abs(
                    fd_derivative(f, x, order, u_scale=u,
                                  abs_tol=1e-6 * (1.0 + u * u))
                )
                if order in elliptic and re_psi[iu] > 0.0:
                    r = d / re_psi[iu]
                    elliptic[order] = max(elliptic[order], r)
                    if order == 1:
                        ratio1[iu] = max(ratio1[iu], r)
                growth[order] = max(growth[order], d / (1.0 + u * u))
    # log-log slope over the top decade of |u|
    top = np.abs(us) >= np.max(np.abs(us)) / 10.0
    lu = np.log(np.abs(us[top]))
    lr = np.log(np.maximum(ratio1[top], 1e-300))
    slope = float(np.polyfit(lu, lr, 1)[0]) if np.sum(top) >= 2 else 0.0
    return EllipticityAudit(
        elliptic_ratio=elliptic,
        growth_ratio=growth,
        floor_ratio=floor,
        slope=slope,
        u=us,
        order1_ratio_per_u=ratio1,
        max_order=max_order,
        bound=bound,
    )


# ----------------------------------------------------------------------
# discrete Groenwall verification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GronwallReport:
    """Hypothesis and conclusion checks of the perturbed Groenwall lemma.

    Hypothesis: phi(t_j) <= (1 + (t_j - t_i) c) phi(t_i) + beta(t_j - t_i)
    on every grid pair i < j.  Conclusion: phi(t) <= phi(0) e^{c t} up to a
    1e-12 relative float allowance.
    """

    hypothesis_ok: bool
    first_violation: tuple[int, int] | None
    conclusion_ok: bool
    max_conclusion_excess: float


def groenwall_verify(ts, phis, c: float, beta=None) -> GronwallReport:
    ts = [float(t) for t in ts]
    phis = [float(p) for p in phis]
    if len(ts) != len(phis):
        raise ValueError("time and value tables must have equal length")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("time grid must be strictly increasing")
    if beta is None:
        beta_fn = lambda dt: 0.0
    elif callable(beta):
        beta_fn = beta
    else:
        table = dict(beta)
        def beta_fn(dt, table=table):
            for key, val in table.items():
                if abs(key - dt) <= 1e-12 * max(1.0, abs(key)):
                    return val
            raise KeyError(f"beta table has no entry for time difference {dt!r}")
    hypothesis_ok = True
    first = None
    for i in range(len(ts)):
        for j in range(i + 1, len(ts)):
            dt = ts[j] - ts[i]
            bound = (1.0 + dt * c) * phis[i] + beta_fn(dt)
            if phis[j] > bound * (1.0 + 1e-12) + 1e-300:
                hypothesis_ok = False
                first = (i, j)
                break
        if first is not None:
            break
    conclusion_ok = True
    excess = 0.0
    for t, p in zip(ts, phis):
        bound = phis[0] * math.exp(c * t) * (1.0 + 1e-12)
        if p > bound:
            conclusion_ok = False
        excess = max(excess, p - phis[0] * math.exp(c * t))
    return GronwallReport(hypothesis_ok, first, conclusion_ok, excess)


def groenwall_recursion_table(phi0: float, c: float, horizon: float, steps: int,
                              beta_step: float = 0.0):
    """Table from the discrete recursion phi_{m+1} = (1 + c h) phi_m + beta."""
    h = horizon / steps
    ts = [0.0]
    phis = [phi0]
    for _ in range(steps):
        ts.append(ts[-1] + h)
        phis.append((1.0 + c * h) * phis[-1] + beta_step)
    return ts, phis
