"""Numerical audits of the sufficient uniqueness conditions.

The pipeline mirrors the structure of the uniqueness argument:

1.  A symbol is written as a trigonometric series in the state,
    q(x,u) = a_0(u) + sum_n a_n(u) cos(k n x) + b_n(u) sin(k n x)
    (``FourierSymbol``): an int array of the nonzero wavenumber indices n
    and one function of u that returns a_0 and the a_n, b_n as complex
    arrays aligned with n.  The series comes in closed form (product-cosine
    symbols) or from windowed localization around a point: one array
    evaluation of the symbol on the quadrature states and one FFT per
    distinct u, kept in the series' own memo of coefficient rows.
2.  ``check_dominance`` tests that -Re a_0(u) dominates the absolute sum of
    all other coefficients, and ``compute_K`` evaluates the curvature
    constant K = k^2 sup_u sum |n|^2 (|a_n|+|b_n|) / (1+u^2) on the grid.
3.  Each series term gets an explicit complex measure on the lattice (k, n)
    alone, with Fourier transform exp(t(b cos(k n x) - a)) (or sin), built from
    the truncated convolution exponential; ``verify_term_measure`` audits its
    four defining properties and ``assemble_majorant`` convolves the terms into
    a measure of transform exp(t q(x,u)), checking the weighted-mass bound that
    drives the marginal-stability Groenwall argument.
4.  ``audit_ellipticity`` measures the smoothness/ellipticity ratios that
    decide whether the localized construction is applicable at all.  It
    takes the x-derivatives of a symbol entire in x from Cauchy's integral
    on a small circle around each state (``fd_derivative``: a 32-node
    trapezoid sum, one FFT for every order).  ``groenwall_verify`` checks
    the discrete Groenwall lemma (perturbation beta = 0) on a table of times
    and values: one array comparison per row of time pairs for the
    hypothesis, one against phi(0) e^{c t} for the conclusion.  Each check
    has one fixed setting (dominance allowance, exp-series tail, state grid).
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DomainError,
    QuadratureUnderresolved,
    UnsupportedSpec,
    ViolatedDominance,
)
from .measures import (
    LatticeComplexMeasure,
    _index,
    _modulus,
    convolve_sequence,
    dirac,
    exp_measure,
)
from .symbols import ConstantSymbol, ProductCosine, SymmetricDoubling, eval_symbol

#: default frequency grid for the dominance and K scans
DEFAULT_UGRID = np.linspace(-20.0, 20.0, 201)

#: the one tag of the lattice unit * Z, shared by term measures and majorants
_LATTICE_TAG = "u{:.17g}"

#: rows a localized series keeps (about 2.2 KiB each at nmax = 64); its
#: memo is cleared when full
SERIES_MEMO_ROWS = 512


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
    the dropped coefficient tail (zero for closed forms).  Callers treat
    ``a`` and ``b`` as read-only: a localized series hands out the same
    read-only ``a`` from its memo on every call at one u (``b`` is a fresh
    array each call), so ``reconstruct``, ``coefficient_rows``, the
    dominance and K scans and the majorant all share one computation per
    frequency.
    """

    k: float
    n: np.ndarray
    coefficients: Callable[[float], tuple[complex, np.ndarray, np.ndarray, float]]

    def reconstruct(self, x, u: float):
        """Evaluate the (truncated) series at state(s) x and frequency u."""
        a0, a, b, _ = self.coefficients(u)
        return _series_value(self.k, self.n, a0, a, b, x)

    def coefficient_rows(self, u: float):
        """(n, a_n(u), b_n(u)) for all stored nonzero n."""
        _, a, b, _ = self.coefficients(u)
        return list(zip(self.n.tolist(), a.tolist(), b.tolist()))


def _series_value(k: float, n: np.ndarray, a0: complex, a: np.ndarray,
                  b: np.ndarray, x):
    """a0 + sum_n a_n cos(k n x) + b_n sin(k n x) at state(s) x."""
    kx = k * np.multiply.outer(x, n)
    return a0 + np.cos(kx) @ a + np.sin(kx) @ b


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


def localize_fourierize(spec, x0: float, ell: int, nmax: int = 64) -> FourierSymbol:
    """Window the symbol around x0 and extract its Fourier series.

    Builds q_l(y,u) = bump(y) (q(gamma(y),u) - psi(u)) + psi(u) on the unit
    interval, gamma(y) = (y - 1/2)/ell + x0 and psi = q(x0, .), computes
    c_n(u) by 4096-point periodic trapezoid for |n| <= nmax, an integer in
    1..2047 (the wavenumbers the quadrature resolves without aliasing), and
    phases them into cosine/sine coefficients at wavenumber k = 2 pi ell:
    a_n = e^{2 pi i n (1/2 - ell x0)} c_n, b_n = i a_n.

    The returned series memoizes its rows by frequency: the first
    ``coefficients(u)`` at a u makes one array evaluation of the symbol on
    the quadrature states and one FFT, and keeps ``(a0, a, residual)`` with
    ``a`` read-only; later calls at the same float u (-0.0 apart from 0.0)
    return that row and a fresh ``b = 1j * a``.  The memo belongs to the
    series, holds at most ``SERIES_MEMO_ROWS`` rows and is cleared when
    full.

    The reported residual is the heuristic decay estimate
    nmax * max(|c_{+-nmax}(u)|).  Raises QuadratureUnderresolved when the
    edge coefficients exceed 1e-3 of the total coefficient mass at u = 1
    or u = 5; the rows of both frequencies go into the memo.
    """
    if isinstance(ell, bool) or not isinstance(ell, numbers.Integral) or ell < 1:
        raise ValueError(f"window parameter ell must be a positive integer, got {ell!r}")
    nodes = 4096
    if (isinstance(nmax, bool) or not isinstance(nmax, numbers.Integral)
            or not 1 <= nmax < nodes // 2):
        raise ValueError(f"nmax must be an integer in 1..{nodes // 2 - 1}, got {nmax!r}")
    # x0 reaches NumPy only with finite phases 2 pi n (1/2 - ell x0), |n| <= nmax
    if not math.isfinite(2 * math.pi * nmax * (0.5 - ell * x0)):
        raise ValueError(f"x0 must be finite and keep the phases finite, got {x0!r}")
    # state-space precondition: the window must evaluate cleanly
    for x in (x0 - 0.5 / ell, x0 + 0.5 / ell):
        try:
            eval_symbol(spec, x, 1.0)
        except DomainError as err:
            raise DomainError(
                f"localization window [{x0 - 0.5 / ell}, {x0 + 0.5 / ell}] leaves "
                f"the symbol's state space: {err}"
            ) from err
    ys = np.arange(nodes) / nodes
    bump = plateau_bump(ys)
    states = (ys - 0.5) / ell + x0  # gamma_ell(y)
    idx = np.arange(-nmax, nmax + 1)
    pick = idx % nodes  # FFT bins of n = -nmax..nmax
    n = idx[idx != 0]
    phase = np.exp(2j * math.pi * n * (0.5 - ell * x0))
    rows: dict[str, tuple[complex, np.ndarray, float]] = {}

    def spectrum(u: float) -> np.ndarray:
        """c_n(u) for n = -nmax..nmax (index shifted by nmax)."""
        psi_u = eval_symbol(spec, x0, u)
        windowed = bump * (eval_symbol(spec, states, u) - psi_u) + psi_u
        return np.fft.fft(windowed)[pick] / nodes

    def remember(u: float, c: np.ndarray):
        """Store and return the row (a0, a, residual) of the spectrum c at u."""
        a = phase * np.delete(c, nmax)
        a.flags.writeable = False
        if len(rows) >= SERIES_MEMO_ROWS:
            rows.clear()
        residual = float(max(abs(c[0]), abs(c[-1])) * nmax)
        row = rows[u.hex()] = complex(c[nmax]), a, residual
        return row

    for u in (1.0, 5.0):
        c = spectrum(u)
        total = float(np.sum(np.abs(c)))
        edge = max(abs(c[0]), abs(c[-1]))
        if total > 0.0 and edge > 1e-3 * total:
            raise QuadratureUnderresolved(
                f"|c_(+-{nmax})| = {edge:.3g} exceeds 1e-3 of the coefficient "
                f"mass {total:.3g} at u = {u}"
            )
        remember(u, c)

    def coefficients(u):
        u = float(u)
        a0, a, residual = rows.get(u.hex()) or remember(u, spectrum(u))
        return a0, a, 1j * a, residual

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


def default_dominance_tol(u: float) -> float:
    return 1e-10 * (1.0 + u * u)


def _coefficient_grid(fs: FourierSymbol, u: np.ndarray):
    """a0, |a_n| + |b_n| (one row per u) and the residual on the grid.

    The rows are filled one u at a time into preallocated arrays, so the
    (u x state) grid is never held at once; a localized series serves each
    u from its memo, so a second scan of the same grid evaluates no symbol.
    """
    a0 = np.empty(u.size, dtype=complex)
    weight = np.empty((u.size, fs.n.size))
    residual = np.empty(u.size)
    for i, v in enumerate(u.tolist()):
        a0[i], a, b, residual[i] = fs.coefficients(v)
        weight[i] = _modulus(a) + _modulus(b)
    return a0, weight, residual


def _frequency_grid(ugrid, scan: str) -> np.ndarray:
    """The u grid of a dominance, K or ellipticity scan (default ``DEFAULT_UGRID``):
    ValueError unless it is a non-empty, one-dimensional, finite array."""
    u = np.asarray(DEFAULT_UGRID if ugrid is None else ugrid, dtype=float)
    if u.ndim != 1:
        raise ValueError(f"the u grid of the {scan} is not one-dimensional")
    if u.size == 0:
        raise ValueError(f"the u grid of the {scan} is empty")
    if not np.all(np.isfinite(u)):
        raise ValueError(f"the u grid of the {scan} is not finite")
    return u


def _k_integrand(k: float, n: np.ndarray, weight: np.ndarray, u):
    """k^2 sum |n|^2 (|a_n|+|b_n|) / (1+u^2), given the weights |a_n| + |b_n|
    on the last axis."""
    return k * k * np.sum(n * n * weight, axis=-1) / (1.0 + u * u)


def check_dominance(fs: FourierSymbol, ugrid=None) -> DominanceReport:
    """Margins -Re a0(u) - sum(|a_n(u)| + |b_n(u)|) - residual(u) on the grid.

    The check passes when every margin is at least
    -``default_dominance_tol(u)``, so equality passes and a NaN margin fails
    it.  Raises ValueError for a grid that is empty, not one-dimensional or
    not finite.
    """
    u = _frequency_grid(ugrid, "dominance check")
    a0, weight, residual = _coefficient_grid(fs, u)
    margins = -a0.real - np.sum(weight, axis=1) - residual
    ok = bool(np.all(margins >= -default_dominance_tol(u)))
    j = int(np.argmin(margins))
    return DominanceReport(u, margins, ok, float(u[j]), float(margins[j]))


@dataclass(frozen=True)
class KReport:
    """K = k^2 max_u sum |n|^2 (|a_n(u)|+|b_n(u)|) / (1+u^2) on the grid."""

    K: float
    u_at: float
    u: np.ndarray
    integrand: np.ndarray


def compute_K(fs: FourierSymbol, ugrid=None) -> KReport:
    """K on the grid; ValueError for a grid that is empty, not
    one-dimensional or not finite."""
    u = _frequency_grid(ugrid, "K computation")
    _, weight, _ = _coefficient_grid(fs, u)
    vals = _k_integrand(fs.k, fs.n, weight, u)
    j = int(np.argmax(vals))
    return KReport(float(vals[j]), float(u[j]), u, vals)


# ----------------------------------------------------------------------
# term measures (one series term -> one complex measure)
# ----------------------------------------------------------------------
def _is_cos(kind: str) -> bool:
    """True for the term kind 'cos', False for 'sin'; ValueError for any other."""
    if kind not in ("cos", "sin"):
        raise ValueError(f"kind must be 'cos' or 'sin', got {kind!r}")
    return kind == "cos"


def term_measure(a: complex, b: complex, kind: str, unit: float, index: int,
                 t: float, tol: float = 1e-12):
    """Measure with Fourier transform exp(t (b trig(index unit x) - a)) and
    the ``ExpSeriesReport`` of its exp series.

    ``trig`` is cos or sin according to ``kind``.  With s = index * unit the
    base measure is mu = (delta_{+s} + delta_{-s})/2 for cosine and
    (delta_{+s} - delta_{-s})/(2i) for sine; the result is
    e^{-t a} exp(t b mu) on the lattice of ``unit``.  A negative index
    reverses the ends, which for sine is the odd term -b sin(|s| x).
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("term measures are built for t in [0, 1]")
    if (index := _index(index)) == 0:
        raise ValueError("term measures need a nonzero lattice index")
    ends = (0.5, 0.5) if _is_cos(kind) else (0.5j, -0.5j)  # weights at -index, +index
    z = complex(t * b)
    if not cmath.isfinite(z):
        raise ValueError(f"scale factor must be finite, got {z!r}")
    base = np.zeros(2 * abs(index) + 1, dtype=np.complex128)
    base[0], base[-1] = ends if index > 0 else ends[::-1]
    mu = LatticeComplexMeasure.from_array(unit, _LATTICE_TAG.format(unit), -abs(index), base * z)
    series, report = exp_measure(mu, tol)
    return series.scale(cmath.exp(-t * complex(a))), report


def build_term_measure(coef: complex, kind: str, unit: float, index: int, t: float,
                       tol: float = 1e-12):
    """Dominance-rewrite term: transform exp(t(coef trig(index unit x) - |coef|)),
    with its ``ExpSeriesReport``."""
    return term_measure(abs(coef), coef, kind, unit, index, t, tol)


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
    """Audit P; the oracle takes ``spacing`` from its caller, never from P, and
    rejects the kinds ``term_measure`` rejects."""
    x = np.asarray(xgrid, dtype=float)
    trig = np.cos if _is_cos(kind) else np.sin
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
    """Transform match and weighted-mass bound for the assembled measure.

    ``series_order`` is the largest truncation order of the term measures'
    exp series and ``series_tail`` the sum of their tail bounds (0 and 0.0
    when no term enters).
    """

    u: float
    t: float
    transform_error: float
    transform_ok: bool
    weighted_mass: float
    weighted_mass_bound: float
    mass_ok: bool
    K_sigma: float
    series_order: int
    series_tail: float

    @property
    def all_ok(self) -> bool:
        return self.transform_ok and self.mass_ok


def assemble_majorant(fs: FourierSymbol, u: float, t: float, ncut: int, xgrid,
                      tol: float = 1e-6) -> tuple[LatticeComplexMeasure, MajorantReport]:
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
    n, a, b = fs.n[keep], a[keep], b[keep]
    weight = _modulus(a) + _modulus(b)
    rewritten = complex(a0) + float(np.sum(weight))
    if rewritten.real > default_dominance_tol(u):
        raise ViolatedDominance(
            f"rewritten constant coefficient has positive real part "
            f"{rewritten.real:.3g} at u = {u}; dominance fails"
        )
    unit = fs.k
    parts = [dirac(0, unit, _LATTICE_TAG.format(unit), cmath.exp(t * rewritten))]
    series = []
    for n_j, a_n, b_n in zip(n.tolist(), a.tolist(), b.tolist()):
        for coef, kind in ((a_n, "cos"), (b_n, "sin")):
            if abs(coef) > 0.0:
                P_n, rep = build_term_measure(coef, kind, unit, n_j, t, 1e-9)
                parts.append(P_n)
                series.append(rep)
    P = convolve_sequence(parts)

    x = np.asarray(xgrid, dtype=float)
    q_rec = _series_value(fs.k, n, a0, a, b, x)
    worst = float(np.max(np.abs(P.fourier(x) - np.exp(t * q_rec)), initial=0.0))
    j, w = P.total_variation().atoms()
    terms = (1.0 + (u + j * unit) ** 2) / (1.0 + u * u) * w.real
    mass = float(np.cumsum(terms)[-1]) if terms.size else 0.0  # by ascending index
    k_sigma = float(_k_integrand(fs.k, n, weight, u))
    bound = 1.0 + k_sigma * t + tol
    report = MajorantReport(
        u=float(u), t=float(t), transform_error=worst, transform_ok=worst <= tol,
        weighted_mass=mass, weighted_mass_bound=bound, mass_ok=mass <= bound,
        K_sigma=k_sigma,
        series_order=max((r.terms for r in series), default=0),
        series_tail=sum(r.tail_bound for r in series),
    )
    return P, report


# ----------------------------------------------------------------------
# ellipticity / smoothness audit
# ----------------------------------------------------------------------
#: trapezoid nodes on the Cauchy circle: the rule is exact up to the Taylor
#: term M orders above the one it computes
_CAUCHY_NODES = 32
#: the symbols the audit accepts: entire in x, so the circle may leave the real line
_ENTIRE_IN_X = (SymmetricDoubling, ProductCosine, ConstantSymbol)


def fd_derivative(f, x, u, max_order: int) -> np.ndarray:
    """x-derivatives of orders 0..max_order from Cauchy's integral formula.

    ``f(z, u)`` maps complex states z and frequencies u, broadcast against
    each other, to values analytic in z.  It is called once, on the M = 32
    states x + r e^{2 pi i j/M} around every point of the broadcast of x and
    u, with radius r = 2/(1+|u|) matched to the oscillation scale 1/u of the
    audited symbols.  One FFT along the node axis gives the trapezoid sums
    c_p = f^(p)(x) r^p / p!, each exact up to the aliased Taylor term M
    orders higher, and the order-p derivative is p! c_p / r^p: a complex
    finite-difference stencil with spectral accuracy.  Orders run along the
    leading axis of the complex result; ``d[p]`` has the broadcast shape of
    x and u.
    """
    x, u = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(u, dtype=float))
    r = 2.0 / (1.0 + np.abs(u[..., None]))
    nodes = np.exp(2j * math.pi * np.arange(_CAUCHY_NODES) / _CAUCHY_NODES)
    vals = np.asarray(f(x[..., None] + r * nodes, u[..., None]), dtype=complex)
    c = np.fft.fft(vals, axis=-1)[..., : max_order + 1] / _CAUCHY_NODES
    p = np.arange(max_order + 1)
    factorials = np.array([math.factorial(k) for k in p.tolist()], dtype=float)
    return np.moveaxis(c * factorials / r**p, -1, 0)


@dataclass(frozen=True)
class EllipticityAudit:
    """Grid suprema of the smoothness/ellipticity quotients.

    ``elliptic_ratio`` holds sup |d^a_x q| / |Re psi(u)| per order a (the
    localization-smoothness condition, orders up to 1 in d = 1);
    ``growth_ratio`` holds sup |d^a_x q| / (1 + u^2) (orders up to 3);
    ``floor_ratio`` is the ellipticity floor min |Re q| / |psi(u)|;
    ``slope`` is the log-log growth rate of the order-1 elliptic ratio over
    the top frequency decade (near 0: bounded, near 2: the condition fails
    on every neighbourhood).  The derivatives d^a_x q are Cauchy-circle
    trapezoid sums (``fd_derivative``), accurate to about 1e-7 (1 + u^2)
    absolute for a = 1..3, so the growth ratios carry about seven digits.
    """

    elliptic_ratio: dict
    growth_ratio: dict
    floor_ratio: float
    slope: float
    u: np.ndarray


def audit_ellipticity(spec, exponent_spec, x0: float, radius: float,
                      ugrid=None, max_order: int = 3) -> EllipticityAudit:
    """Measure the sufficient-condition quotients around x0.

    ``exponent_spec`` supplies the comparison exponent psi (typically
    q(x0, .) or the underlying exponent of a product symbol); u = 0 is
    excluded from all quotient grids.  The x-derivatives of orders
    1..max_order (at most 3) come from one ``fd_derivative`` call on the
    whole (u, x) grid, so ``spec`` must be one of the symbols entire in x:
    ``SymmetricDoubling``, ``ProductCosine`` or ``ConstantSymbol``.
    """
    if not isinstance(spec, _ENTIRE_IN_X):
        raise UnsupportedSpec(
            f"the ellipticity audit differentiates on complex states and needs a "
            f"symbol entire in x, not {type(spec).__name__}"
        )
    if not 1 <= max_order <= 3:
        raise ValueError(f"audit orders run from 1 to 3, got {max_order}")
    if not (math.isfinite(x0) and math.isfinite(radius)):
        raise ValueError(f"x0 and radius must be finite, got {x0} and {radius}")
    if not math.isfinite(abs(x0) + abs(radius)):  # x0 +- radius overflows
        raise ValueError("the x grid of the ellipticity audit is not finite")
    xs = np.linspace(x0 - radius, x0 + radius, 21)
    us = _frequency_grid(np.geomspace(1.0, 1e3, 61) if ugrid is None else ugrid,
                         "ellipticity audit")
    if np.any(us == 0.0):
        raise ValueError("u = 0 must be excluded from quotient grids")
    psi = exponent_spec.psi(us)
    re_psi = np.abs(psi.real)
    abs_psi = _modulus(psi)
    q = eval_symbol(spec, xs, us[:, None])
    elliptic_u = abs_psi > 0.0
    floor = float(np.min(np.abs(q.real[elliptic_u]) / abs_psi[elliptic_u, None],
                         initial=math.inf))
    d = np.abs(fd_derivative(lambda z, u: eval_symbol(spec, z, u), xs, us[:, None],
                             max_order))
    scale = 1.0 + us[:, None] ** 2
    growth = {o: float(np.max(d[o] / scale, initial=0.0)) for o in range(1, max_order + 1)}
    ratio1 = np.divide(np.max(d[1], axis=1, initial=0.0), re_psi,
                       out=np.zeros(us.size), where=re_psi > 0.0)
    elliptic = {1: float(np.max(ratio1, initial=0.0))}
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
    )


# ----------------------------------------------------------------------
# discrete Groenwall verification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GronwallReport:
    """Hypothesis and conclusion checks of the discrete Groenwall lemma.

    Hypothesis: phi(t_j) <= (1 + (t_j - t_i) c) phi(t_i) on every grid pair
    i < j, with beta = 0 (ROADMAP item 8: report the least beta instead);
    ``first_violation`` is the first failing pair in row order.  Conclusion:
    phi(t) <= phi(0) e^{c t} up to a 1e-12 relative float allowance.

    A recursion table (``groenwall_recursion_table``: phi_{m+1} = (1 + c h)
    phi_m) with c h > 0 and phi_0 > 0 fails the hypothesis on pairs m >= 2
    steps apart, as (1 + c h)^m > 1 + m c h beyond the float allowance, and
    meets the conclusion, as (1 + c h)^m <= e^{m c h}; checks of recursion
    tables (acceptance criterion 10, the benchmark) read only ``conclusion_ok``.
    """

    hypothesis_ok: bool
    first_violation: tuple[int, int] | None
    conclusion_ok: bool
    max_conclusion_excess: float


def _grown(phi0: float, ct: float) -> float:
    """phi0 e^(ct): ``phi0 * math.exp(ct)`` while e^(ct) is a float, and past
    that e^(ct + log|phi0|) with phi0's sign (0 for phi0 = 0), inf where that
    passes the float range too."""
    try:
        return phi0 * math.exp(ct)
    except OverflowError:
        if phi0 == 0.0:
            return 0.0
        try:
            return math.copysign(math.exp(ct + math.log(abs(phi0))), phi0)
        except OverflowError:
            return math.copysign(math.inf, phi0)


def groenwall_verify(ts, phis, c: float) -> GronwallReport:
    """The report of the table (ts, phis) at the rate c, one row of pairs at a time."""
    ts, phis = np.asarray(ts, dtype=float), np.asarray(phis, dtype=float)
    if (ts.ndim != 1 or ts.shape != phis.shape or not ts.size
            or not np.isfinite([ts, phis]).all()):
        raise ValueError("time and value tables must be one-dimensional, non-empty, "
                         "finite and equally long")
    if not math.isfinite(c):
        raise ValueError(f"the Groenwall rate c must be finite, got {c!r}")
    if np.any(ts[1:] <= ts[:-1]):
        raise ValueError("time grid must be strictly increasing")
    first = None
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan as in float math
        for i in range(ts.size - 1):  # row i: the pairs (i, j > i)
            bound = (1.0 + (ts[i + 1:] - ts[i]) * c) * phis[i]
            bad = phis[i + 1:] > bound * (1.0 + 1e-12) + 1e-300
            if bad.any():
                first = (i, i + 1 + int(np.argmax(bad)))
                break
        grown = np.array([_grown(float(phis[0]), c * t) for t in ts.tolist()])
        excess = phis - grown
        return GronwallReport(first is None, first, not np.any(phis > grown * (1.0 + 1e-12)),
                              float(np.max(excess, where=excess > 0.0, initial=0.0)))


def groenwall_recursion_table(phi0: float, c: float, horizon: float, steps: int):
    """Arrays (ts, phis) of phi_{m+1} = (1 + c h) phi_m from (0, phi0), h = horizon
    / steps, accumulated in order; needs a finite positive horizon, steps >= 1,
    a finite c and phi0, and a table inside the float range."""
    if steps < 1 or not 0.0 < horizon < math.inf:
        raise ValueError(f"recursion tables need steps >= 1 and a finite positive "
                         f"horizon, got steps = {steps}, horizon = {horizon!r}")
    if not (math.isfinite(c) and math.isfinite(phi0)):
        raise ValueError(f"recursion tables need a finite c and phi0, got c = {c!r}, "
                         f"phi0 = {phi0!r}")
    h = horizon / steps
    ts, phis = np.full(steps + 1, h), np.full(steps + 1, 1.0 + c * h)
    ts[0], phis[0] = 0.0, phi0
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply.accumulate(phis, out=phis)
    if not np.isfinite(phis).all():
        raise ValueError(f"phi0 (1 + c h)^m leaves the float range for c = {c!r}, "
                         f"horizon = {horizon!r}, steps = {steps}")
    return np.add.accumulate(ts), phis
