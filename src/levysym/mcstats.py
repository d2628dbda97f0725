"""Monte Carlo statistics bridging simulations and closed-form claims.

Covers the closed-form moments of the two doubling families, CLT-based
moment estimates, empirical characteristic functions, the weighted
sup-distance sup_u |phi_A(u) - phi_B(u)| / (1 + u^2) between two ensembles
(on the fixed grid ``ECF_UGRID``, refined about its arg max), exact
audits of the geometric lattice supports, and the martingale (Dynkin)
residual E f(X(T)) - f(x0) - int_0^T E[Af(X(s))] ds.

A :class:`Sample` is one float array; the support audit reads the exact
mantissa column of its ensemble, and every other statistic runs on its counted
view (:class:`Counted`): the distinct values with their multiplicities, built
once.  A finite-n endpoint law has few atoms (a 10 000-path sample at n = 4
holds about 16 distinct values), so each cost scales with the number of
distinct values rather than the number of paths.  The Dynkin residual reads
one ensemble observed at every grid time and evaluates f and Af once per
distinct value over all its columns.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import rng, simulate
from .errors import DegenerateSample, RepresentationLost
from .measures import _modulus
from .simulate import ExactState, SimConfig
from .symbols import TestFunction, apply_generator

#: frequency grid of the ECF distance (its own window, apart from the dominance
#: and K scan grid of ``checks``)
ECF_UGRID = np.linspace(-20.0, 20.0, 201)


@dataclass(frozen=True, eq=False)
class Counted:
    """Distinct values of a sample with their multiplicities.

    ``values[d]`` occurs ``counts[d]`` times, in the order of first
    occurrence; ``size`` is the number of observations.
    """

    values: np.ndarray
    counts: np.ndarray
    size: int

    @staticmethod
    def of(values: np.ndarray) -> "Counted":
        xs, first, counts = np.unique(values, return_index=True, return_counts=True)
        order = np.argsort(first)
        return Counted(xs[order], counts[order], values.size)

    def mean(self, terms: np.ndarray) -> np.ndarray:
        """Mean over the last axis of per-value terms, weighted by the counts.

        Centred on the first column, so a row with a single distinct term
        (a constant sample, or u = 0 in an ECF) averages to it exactly.
        """
        ref = terms[..., :1]
        return ref[..., 0] + ((terms - ref) @ self.counts) / self.size

    def se(self, terms: np.ndarray, mean: np.ndarray) -> np.ndarray:
        """CLT standard error of ``mean``: sqrt(sum |term - mean|^2 / (N - 1) / N).

        For complex terms this is the euclidean norm of the real and
        imaginary standard errors.
        """
        dev = terms - mean[..., None]
        sq = np.square(dev.real)
        if np.iscomplexobj(dev):
            sq += np.square(dev.imag)
        return np.sqrt((sq @ self.counts) / (self.size - 1)) / math.sqrt(self.size)


@dataclass(frozen=True, eq=False)
class Sample:
    """Endpoint sample of an ensemble at a fixed time.

    ``values`` is the per-path float array; ``ensemble`` is the
    EnsembleResult the sample was taken from, whose exact ``m`` column
    :func:`support_audit` needs, or None for a sample of plain floats.
    ``counted`` is the counted view of the values, built once here; every
    statistic of this module runs on it.
    """

    values: np.ndarray
    horizon: float
    label: str = ""
    ensemble: simulate.EnsembleResult | None = None
    counted: Counted = field(init=False, repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.size == 0:
            raise DegenerateSample("sample is empty")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "counted", Counted.of(values))

    @staticmethod
    def from_ensemble(result: simulate.EnsembleResult, label: str = "") -> "Sample":
        return Sample(result.values, result.horizon, label, result)

    def to_floats(self) -> np.ndarray:
        return self.values


# ----------------------------------------------------------------------
# closed-form moments of the doubling families
# ----------------------------------------------------------------------
def closed_moment(family: str, n: int, t: float) -> float:
    """n-th moment at time t of the doubling-family laws started at 0.

    * ``symmetric_doubling``: 0 for odd n, else
      t^(n/2)/(n/2)! * prod_{k=1}^{n/2} (2^(2k-1) - 1).
    * ``increasing_doubling``: t^n/n! * prod_{k=1}^{n} (2^k - 1).

    The integer products are evaluated exactly before the float cast.
    """
    if n < 0:
        raise ValueError("moment order must be nonnegative")
    if n == 0:
        return 1.0
    if family == "symmetric_doubling":
        if n % 2 == 1:
            return 0.0
        half = n // 2
        coeff = Fraction(1, math.factorial(half))
        for k in range(1, half + 1):
            coeff *= 2 ** (2 * k - 1) - 1
        return float(coeff) * t**half
    if family == "increasing_doubling":
        coeff = Fraction(1, math.factorial(n))
        for k in range(1, n + 1):
            coeff *= 2**k - 1
        return float(coeff) * t**n
    raise ValueError(f"unknown moment family {family!r}")


# ----------------------------------------------------------------------
# CLT estimates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MomentEstimate:
    mean: float
    se: float
    n: int


def moment_ci(sample: Sample, p: int) -> MomentEstimate:
    """Sample mean of X^p with its CLT standard error."""
    if p < 1:
        raise ValueError("moment order must be >= 1")
    view = sample.counted
    if view.size < 2:
        raise DegenerateSample("need at least two observations for a standard error")
    ys = view.values ** p
    mean = view.mean(ys)
    return MomentEstimate(float(mean), float(view.se(ys, mean)), view.size)


@dataclass(frozen=True)
class EcfEstimate:
    """Empirical characteristic function on a frequency grid."""

    u: np.ndarray
    mean: np.ndarray
    se: np.ndarray  # euclidean norm of the componentwise standard errors


def _ecf_terms(view: Counted, u: np.ndarray) -> np.ndarray:
    """exp(i u x) per frequency (rows) and distinct value (columns)."""
    return np.exp(1j * np.outer(u, view.values))


def ecf(sample: Sample, ugrid) -> EcfEstimate:
    u = np.asarray(ugrid, dtype=float)
    view = sample.counted
    z = _ecf_terms(view, u)
    mean = view.mean(z)
    se = view.se(z, mean) if view.size > 1 else np.zeros_like(u)
    return EcfEstimate(u, mean, se)


def _weighted_gap(mean_a: np.ndarray, mean_b: np.ndarray, u: np.ndarray) -> np.ndarray:
    """|phi_A(u) - phi_B(u)| / (1 + u^2) from the two ECF means on grid u."""
    return _modulus(mean_a - mean_b) / (1.0 + u * u)


@dataclass(frozen=True)
class EcfDistanceReport:
    """Weighted sup-distance between two empirical characteristic functions."""

    distance: float
    u_at: float
    se_bound: float  # sum of the two per-u standard errors at the arg max
    u: np.ndarray
    weighted_gap: np.ndarray
    ecf_a: EcfEstimate  # both samples' ECFs on u
    ecf_b: EcfEstimate


def ecf_distance(sample_a: Sample, sample_b: Sample) -> EcfDistanceReport:
    """max over u of |phi_A(u) - phi_B(u)| / (1 + u^2), with SE bound.

    The gap of real samples is even in u (phi(-u) = conj phi(u)), so the
    argmax on ``ECF_UGRID`` is taken over u >= 0 and, inside the grid,
    polished by a golden-section pass on the bracketing interval: ``u_at``
    is never negative.  The SE bound stays conservative (sum of both per-u
    standard errors, same weighting as the distance).
    """
    if sample_a.horizon != sample_b.horizon:
        raise ValueError("samples must share the same horizon")
    u = ECF_UGRID
    ecf_a, ecf_b = ecf(sample_a, u), ecf(sample_b, u)
    gap = _weighted_gap(ecf_a.mean, ecf_b.mean, u)
    u_half, gap_half = u[u >= 0.0], gap[u >= 0.0]
    i = int(np.argmax(gap_half))
    best_u, best = u_half[i], float(gap_half[i])
    if 0 < i < u_half.size - 1:
        va, vb = sample_a.counted, sample_b.counted

        def gap_at(v):  # the golden steps need the means only, not the SEs
            uv = np.asarray([v], dtype=float)
            mean_a = va.mean(_ecf_terms(va, uv))
            mean_b = vb.mean(_ecf_terms(vb, uv))
            return float(_weighted_gap(mean_a, mean_b, uv)[0])

        u_fine, fine = _golden_max(gap_at, u_half[i - 1], u_half[i + 1])
        if fine >= best:
            best_u, best = u_fine, fine
    ga = ecf(sample_a, [best_u])
    gb = ecf(sample_b, [best_u])
    se_bound = float((ga.se[0] + gb.se[0]) / (1.0 + best_u * best_u))
    return EcfDistanceReport(best, float(best_u), se_bound, u, gap, ecf_a, ecf_b)


def _golden_max(f, lo: float, hi: float, iters: int = 40) -> tuple[float, float]:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


# ----------------------------------------------------------------------
# exact lattice support audit
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SupportAudit:
    off_lattice: int
    total: int
    nonzero_total: int


def support_audit(sample: Sample, unit_tag: str) -> SupportAudit:
    """Count sample values outside the lattice M_k = k {+-2^z} u {0} of the
    named unit, exactly.

    Membership: the canonical mantissa is 0 or a power of two.  Zero belongs
    to every lattice; any nonzero state whose unit tag differs is off-lattice
    by incommensurability, no float comparison involved.  The test runs on
    the ensemble's integer ``m`` column.
    """
    ens = sample.ensemble
    if ens is None:
        raise RepresentationLost("support audit needs exact endpoints, not floats")
    m = ens.m
    nonzero = m != 0
    if ens.unit_tag != unit_tag:
        off = nonzero
    else:
        a = np.abs(m)  # in int64 |-2**63| wraps to -2**63, which the bit test still passes
        off = (a & (a - 1)) != 0
    return SupportAudit(int(np.count_nonzero(off)), m.size, int(np.count_nonzero(nonzero)))


# ----------------------------------------------------------------------
# Dynkin martingale residual
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DynkinReport:
    """Pathwise mean of f(X(T)) - f(x0) - trapezoid of Af(X(s)) over the time
    grid, with its sample standard error, from one ensemble observed at every
    grid time; ``mean_f_terminal`` is the mean of f(X(T)) and
    ``generator_means[j]`` the mean of Af(X(t_j)) over the same paths."""

    residual: float
    se: float
    quadrature_error: float
    mean_f_terminal: float
    generator_means: tuple[float, ...]


def dynkin_residual(spec, tf: TestFunction, x0: ExactState, horizon: float,
                    timegrid, paths: int, seed: int) -> DynkinReport:
    """Monte Carlo check that f(X(t)) - int Af(X(s)) ds is a martingale.

    One ensemble runs to the horizon and records each path's state at the
    interior grid times in the same pass (seed split off the master seed,
    an integer in [0, 2**64)).
    Each path gives f(X(T)) - f(x0) - sum_j w_j Af(X(t_j)) with trapezoid
    weights w; the residual is its mean and the SE its sample standard
    error, so the correlation between grid times is accounted for.  f and Af
    run once per distinct state value.
    """
    if (isinstance(seed, bool) or not isinstance(seed, numbers.Integral)
            or not 0 <= seed < 1 << 64):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    if paths < 2:
        raise DegenerateSample("need at least two paths for a standard error")
    ts = [float(t) for t in timegrid]
    if not ts or ts[0] != 0.0 or ts[-1] != horizon or any(
        b <= a for a, b in zip(ts, ts[1:])
    ):
        raise ValueError("time grid must increase from 0 to the horizon")
    rule = simulate.jump_rule_of(spec)
    cfg = SimConfig(horizon=horizon, seed=_split_seed(seed, len(ts)), paths=paths,
                    observe=ts[1:-1])
    result = simulate.simulate_ensemble(rule, x0, cfg)
    xs, at = np.unique(np.vstack([result.values_at, result.values]), return_inverse=True)
    at = at.reshape(len(ts) - 1, paths)  # row j: the distinct value at ts[j + 1]
    af = np.array([apply_generator(spec, tf, x) for x in xs.tolist()])
    f = np.array([tf.f(x) for x in xs.tolist()])
    terminal = Counted.of(result.values)  # mean of f(X(T)) as moment_ci takes means
    mean_f = float(terminal.mean(f[np.searchsorted(xs, terminal.values)]))

    ts_arr = np.array(ts)
    w = np.convolve(np.diff(ts_arr), [0.5, 0.5])  # trapezoid weights
    g0 = apply_generator(spec, tf, x0.value)
    g = af[at]
    pathwise = f[at[-1]] - tf.f(x0.value) - w[0] * g0 - w[1:] @ g
    residual = float(pathwise.mean())
    se = float(pathwise.std(ddof=1)) / math.sqrt(paths)
    g_arr = np.concatenate([[g0], g.mean(axis=1)])
    # Euler-Maclaurin estimate: |error| ~ h^2/12 |g'(T) - g'(0)|
    h = float(np.max(np.diff(ts_arr)))
    slope0 = (g_arr[1] - g_arr[0]) / (ts_arr[1] - ts_arr[0])
    slope1 = (g_arr[-1] - g_arr[-2]) / (ts_arr[-1] - ts_arr[-2])
    quad = h * h / 12.0 * abs(slope1 - slope0)
    return DynkinReport(residual, se, quad, mean_f, tuple(g_arr.tolist()))


def _split_seed(seed: int, index: int) -> int:
    return int(rng.path_keys(seed ^ 0xD1B54A32D192ED03, [index])[0])
