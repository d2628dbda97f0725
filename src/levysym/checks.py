"""Numerical audits of the sufficient uniqueness conditions.

The pipeline mirrors the structure of the uniqueness argument:

1.  A symbol is written as a trigonometric series in the state,
    q(x,u) = sum_n a_n(u) cos(k n x) + b_n(u) sin(k n x)   (``FourierSymbol``),
    either in closed form (product-cosine symbols) or by windowed
    localization around a point plus periodic-trapezoid coefficients.
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
from dataclasses import dataclass, field
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

    ``a0`` maps u to the constant coefficient; ``terms`` maps nonzero n to a
    pair of coefficient functions (cosine, sine) at wavenumber k*n;
    ``truncation_residual`` bounds the dropped coefficient tail (zero for
    closed forms).
    """

    k: float
    a0: Callable[[float], complex]
    terms: dict
    truncation_residual: Callable[[float], float] = field(
        default=lambda u: 0.0
    )

    def reconstruct(self, x: float, u: float) -> complex:
        """Evaluate the (truncated) series at (x, u)."""
        val = complex(self.a0(u))
        for n, (a_fn, b_fn) in self.terms.items():
            val += complex(a_fn(u)) * math.cos(self.k * n * x)
            val += complex(b_fn(u)) * math.sin(self.k * n * x)
        return val

    def coefficient_rows(self, u: float):
        """(n, a_n(u), b_n(u)) for all stored nonzero n."""
        return [
            (n, complex(a_fn(u)), complex(b_fn(u)))
            for n, (a_fn, b_fn) in sorted(self.terms.items())
        ]


def fourier_symbol_of_product_cosine(exponent_spec) -> FourierSymbol:
    """Closed-form series of q(x,u) = (1 - cos x) psi(u): a0 = psi,
    a_{+-1} = -psi/2, everything else zero, wavenumber 1."""
    psi = exponent_spec.psi

    def a0(u):
        return psi(u)

    def half_neg(u):
        return -0.5 * psi(u)

    def zero(u):
        return 0j

    return FourierSymbol(
        k=1.0,
        a0=a0,
        terms={1: (half_neg, zero), -1: (half_neg, zero)},
    )


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


class _LocalizedCoefficients:
    """Periodic-trapezoid Fourier coefficients of the windowed symbol,
    cached per frequency u."""

    def __init__(self, spec, x0: float, ell: int, nmax: int, quad_points: int):
        self.spec = spec
        self.x0 = x0
        self.ell = ell
        self.nmax = nmax
        ys = np.arange(quad_points) / quad_points
        self.ys = ys
        self.bump = plateau_bump(ys)
        self.states = (ys - 0.5) / ell + x0  # gamma_ell(y)
        self.quad_points = quad_points
        self._cache: dict[float, np.ndarray] = {}

    def coefficients(self, u: float) -> np.ndarray:
        """c_n(u) for n = -nmax..nmax (index shifted by nmax)."""
        u = float(u)
        hit = self._cache.get(u)
        if hit is not None:
            return hit
        psi_u = eval_symbol(self.spec, self.x0, u)
        vals = np.array(
            [eval_symbol(self.spec, x, u) for x in self.states], dtype=complex
        )
        windowed = self.bump * (vals - psi_u) + psi_u
        spectrum = np.fft.fft(windowed) / self.quad_points
        idx = np.arange(-self.nmax, self.nmax + 1) % self.quad_points
        c = spectrum[idx]
        self._cache[u] = c
        return c


def localize_fourierize(spec, x0: float, ell: int, nmax: int = 64,
                        quad_points: int = 4096, ugrid=None) -> FourierSymbol:
    """Window the symbol around x0 and extract its Fourier series.

    Builds q_l(y,u) = bump(y) (q(gamma(y),u) - psi(u)) + psi(u) on the unit
    interval, gamma(y) = (y - 1/2)/ell + x0 and psi = q(x0, .), computes
    c_n(u) by ``quad_points``-point periodic trapezoid for |n| <= nmax, and
    phases them into cosine/sine coefficients at wavenumber k = 2 pi ell:
    a_n = e^{2 pi i n (1/2 - ell x0)} c_n, b_n = i a_n.

    The reported ``truncation_residual`` is the heuristic decay estimate
    nmax * max(|c_{+-nmax}(u)|).  Raises QuadratureUnderresolved when the
    edge coefficients exceed 1e-3 of the total coefficient mass on the
    check grid.
    """
    if ell < 1:
        raise ValueError("window parameter ell must be a positive integer")
    coeffs = _LocalizedCoefficients(spec, x0, ell, nmax, quad_points)
    # state-space precondition: the window must evaluate cleanly
    for x in (x0 - 0.5 / ell, x0 + 0.5 / ell):
        try:
            eval_symbol(spec, x, 1.0)
        except DomainError as err:
            raise DomainError(
                f"localization window [{x0 - 0.5 / ell}, {x0 + 0.5 / ell}] leaves "
                f"the symbol's state space: {err}"
            ) from err
    check_grid = [1.0, 5.0] if ugrid is None else [float(u) for u in ugrid]
    for u in check_grid:
        c = coeffs.coefficients(u)
        total = float(np.sum(np.abs(c)))
        edge = max(abs(c[0]), abs(c[-1]))
        if total > 0.0 and edge > 1e-3 * total:
            raise QuadratureUnderresolved(
                f"|c_(+-{nmax})| = {edge:.3g} exceeds 1e-3 of the coefficient "
                f"mass {total:.3g} at u = {u}"
            )

    def a0(u, coeffs=coeffs, nmax=nmax):
        return complex(coeffs.coefficients(u)[nmax])

    def make_pair(n):
        phase = cmath.exp(2j * math.pi * n * (0.5 - ell * x0))

        def a_fn(u, n=n, phase=phase):
            return phase * complex(coeffs.coefficients(u)[nmax + n])

        def b_fn(u, n=n, phase=phase):
            return 1j * phase * complex(coeffs.coefficients(u)[nmax + n])

        return a_fn, b_fn

    terms = {n: make_pair(n) for n in range(-nmax, nmax + 1) if n != 0}

    def residual(u, coeffs=coeffs, nmax=nmax):
        c = coeffs.coefficients(u)
        return float(max(abs(c[0]), abs(c[-1])) * nmax)

    return FourierSymbol(k=2.0 * math.pi * ell, a0=a0, terms=terms,
                         truncation_residual=residual)


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


def check_dominance(fs: FourierSymbol, ugrid=None, tol_eq=None) -> DominanceReport:
    u = np.asarray(DEFAULT_UGRID if ugrid is None else ugrid, dtype=float)
    tol = default_dominance_tol if tol_eq is None else tol_eq
    margins = np.empty(u.size)
    ok = True
    for i, uu in enumerate(u):
        other = sum(
            abs(a) + abs(b) for _, a, b in fs.coefficient_rows(uu)
        )
        margins[i] = -fs.a0(uu).real - other - fs.truncation_residual(uu)
        if margins[i] < -tol(uu):
            ok = False
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
    vals = np.empty(u.size)
    for i, uu in enumerate(u):
        vals[i] = (
            fs.k
            * fs.k
            * sum(
                n * n * (abs(a) + abs(b)) for n, a, b in fs.coefficient_rows(uu)
            )
            / (1.0 + uu * uu)
        )
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
    rows = [(n, a, b) for n, a, b in fs.coefficient_rows(u) if abs(n) <= ncut]
    a0_val = complex(fs.a0(u))
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


def _stencil(order: int, h: float):
    if order == 1:
        return ((1.0, 0.5), (-1.0, -0.5)), h
    if order == 2:
        return ((1.0, 1.0), (0.0, -2.0), (-1.0, 1.0)), h * h
    if order == 3:
        return ((2.0, 0.5), (1.0, -1.0), (-1.0, 1.0), (-2.0, -0.5)), h**3
    raise ValueError("finite differences implemented for orders 1..3")


def _fd_once(f, x: float, order: int, h: float) -> tuple[complex, float]:
    offsets, denom = _stencil(order, h)
    acc = 0j
    fmax = 0.0
    for mult, coef in offsets:
        val = f(x + mult * h)
        fmax = max(fmax, abs(val))
        acc += coef * val
    return acc / denom, fmax


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

    A ladder of steps is tried (geometric rungs of 2e-2 (1+|x|), plus rungs
    scaled by 1/(1+u) for symbols oscillating at frequency u in the state);
    each candidate is judged by the relative disagreement of the halved
    step against a rounding-noise floor, and the most self-consistent one
    wins.  Raises DerivativeUnstable when no step agrees to 1e-4 relative
    while sitting above its noise floor; values indistinguishable from zero
    at noise level, or whose absolute disagreement is below ``abs_tol``
    (too small to move whatever quotient the caller forms), are returned
    as computed rather than rejected.
    """
    eps = float(np.finfo(float).eps)
    best = None  # (score, abs disagreement, value, above_floor)
    for h in _fd_candidates(x, u_scale):
        d1, fmax1 = _fd_once(f, x, order, h)
        d2, fmax2 = _fd_once(f, x, order, h / 2.0)
        rich = (4.0 * d2 - d1) / 3.0
        _, denom = _stencil(order, h / 2.0)
        noise_floor = 80.0 * eps * max(fmax1, fmax2) / abs(denom)
        above = abs(rich) > 10.0 * noise_floor
        score = abs(d1 - d2) / max(abs(rich), noise_floor, 1e-300)
        if best is None or score < best[0]:
            best = (score, abs(d1 - d2), rich, above)
    score, disagreement, value, above = best
    if score > _RICHARDSON_RTOL and disagreement > abs_tol and above:
        raise DerivativeUnstable(
            f"order-{order} derivative at x={x:.6g} (u={u_scale:.6g}): best "
            f"step ladder disagreement is {score:.3g} relative"
        )
    return value


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
    psi = exponent_spec.psi
    elliptic: dict[int, float] = {o: 0.0 for o in range(1, min(1, max_order) + 1)}
    growth: dict[int, float] = {o: 0.0 for o in range(1, max_order + 1)}
    floor = math.inf
    ratio1 = np.zeros(us.size)
    for iu, u in enumerate(us):
        re_psi = abs(psi(u).real)
        abs_psi = abs(psi(u))
        f = lambda x, u=u: eval_symbol(spec, x, u)
        for x in xs:
            if abs_psi > 0.0:
                floor = min(floor, abs(eval_symbol(spec, x, u).real) / abs_psi)
            for order in range(1, max_order + 1):
                # disagreements below 1e-6 (1+u^2) cannot move any quotient
                d = abs(
                    fd_derivative(f, x, order, u_scale=u,
                                  abs_tol=1e-6 * (1.0 + u * u))
                )
                if order in elliptic and re_psi > 0.0:
                    r = d / re_psi
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
