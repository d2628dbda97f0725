"""Monte Carlo statistics bridging simulations and closed-form claims.

Covers the closed-form moments of the two doubling families, CLT-based
moment estimates, empirical characteristic functions, the weighted
sup-distance sup_u |phi_A(u) - phi_B(u)| / (1 + u^2) between two ensembles,
exact lattice-support audits, and the martingale (Dynkin) residual
E f(X(T)) - f(x0) - int_0^T E[Af(X(s))] ds.

A :class:`Sample` is one float array; the support audit reads the exact
(m, s) columns of its ensemble, and every other statistic runs on its counted
view (:class:`Counted`): the distinct values with their multiplicities, built
once.  A finite-n endpoint law has few atoms (a 10 000-path sample at n = 4
holds about 16 distinct values), so each cost scales with the number of
distinct values rather than the number of paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import simulate
from .checks import DEFAULT_UGRID
from .errors import DegenerateSample, RepresentationLost
from .measures import _modulus
from .simulate import ExactState, SimConfig
from .symbols import TestFunction, apply_generator


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
    EnsembleResult the sample was taken from, whose exact ``(m, s)`` columns
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


def ecf_distance(sample_a: Sample, sample_b: Sample, ugrid=None,
                 refine: bool = True) -> EcfDistanceReport:
    """max over u of |phi_A(u) - phi_B(u)| / (1 + u^2), with SE bound.

    The grid argmax is polished by a golden-section pass on the bracketing
    interval; the SE bound stays conservative (sum of both per-u standard
    errors, same weighting as the distance).
    """
    if sample_a.horizon != sample_b.horizon:
        raise ValueError("samples must share the same horizon")
    u = np.asarray(DEFAULT_UGRID if ugrid is None else ugrid, dtype=float)
    gap = _weighted_gap(ecf(sample_a, u).mean, ecf(sample_b, u).mean, u)
    i = int(np.argmax(gap))
    best_u, best = u[i], float(gap[i])
    if refine and 0 < i < u.size - 1:
        va, vb = sample_a.counted, sample_b.counted

        def gap_at(v):  # the golden steps need the means only, not the SEs
            uv = np.asarray([v], dtype=float)
            mean_a = va.mean(_ecf_terms(va, uv))
            mean_b = vb.mean(_ecf_terms(vb, uv))
            return float(_weighted_gap(mean_a, mean_b, uv)[0])

        u_fine, fine = _golden_max(gap_at, u[i - 1], u[i + 1])
        if fine >= best:
            best_u, best = u_fine, fine
    ga = ecf(sample_a, [best_u])
    gb = ecf(sample_b, [best_u])
    se_bound = float((ga.se[0] + gb.se[0]) / (1.0 + best_u * best_u))
    return EcfDistanceReport(best, float(best_u), se_bound, u, gap)


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

    @property
    def clean(self) -> bool:
        return self.off_lattice == 0


def support_audit(sample: Sample, unit_tag: str, kind: str = "geometric",
                  scale: int | None = None) -> SupportAudit:
    """Count sample values outside the named lattice, exactly.

    ``geometric`` audits against M_k = k {+-2^z} u {0} (membership: the
    canonical mantissa is 0 or a power of two); ``dyadic`` audits against
    {k m 2^-scale : m in N}.  Zero belongs to every lattice; any nonzero
    state whose unit tag differs is off-lattice by incommensurability,
    no float comparison involved.  The tests run on the ensemble's integer
    ``(m, s)`` columns.
    """
    if kind not in ("geometric", "dyadic"):
        raise ValueError(f"unknown lattice kind {kind!r}")
    if kind == "dyadic" and scale is None:
        raise ValueError("dyadic audit needs the lattice scale")
    ens = sample.ensemble
    if ens is None:
        raise RepresentationLost("support audit needs exact endpoints, not floats")
    m, s = ens.m, ens.s
    nonzero = m != 0
    if ens.unit_tag != unit_tag:
        off = nonzero
    elif kind == "geometric":
        a = np.abs(m)  # in int64 |-2**63| wraps to -2**63, which the bit test still passes
        off = (a & (a - 1)) != 0
    else:
        off = nonzero & ((s > scale) | (m < 0))
    return SupportAudit(int(np.count_nonzero(off)), m.size, int(np.count_nonzero(nonzero)))


# ----------------------------------------------------------------------
# Dynkin martingale residual
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DynkinReport:
    """E f(X(T)) - f(x0) - trapezoid of E[Af(X(s))] over the time grid."""

    residual: float
    se: float
    quadrature_error: float
    mean_f_terminal: float
    generator_means: tuple[float, ...]
    time_grid: tuple[float, ...]
    finite_difference_derivatives: bool


def dynkin_residual(spec, tf: TestFunction, x0: ExactState, horizon: float,
                    timegrid, paths: int, seed: int) -> DynkinReport:
    """Monte Carlo check that f(X(t)) - int Af(X(s)) ds is a martingale.

    Fresh independent ensembles are simulated to every grid time (snapshot
    seeds are split off the master seed), plus one more for the terminal
    expectation, so all quantities are statistically independent.
    """
    if paths < 2:
        raise DegenerateSample("need at least two paths for a standard error")
    ts = [float(t) for t in timegrid]
    if ts[0] != 0.0 or ts[-1] != horizon or any(
        b <= a for a, b in zip(ts, ts[1:])
    ):
        raise ValueError("time grid must increase from 0 to the horizon")
    rule = simulate.jump_rule_of(spec)
    g_means = []
    g_ses = []
    for i, t_snap in enumerate(ts):
        if t_snap == 0.0:
            g_means.append(apply_generator(spec, tf, x0.value))
            g_ses.append(0.0)
            continue
        cfg = SimConfig(horizon=t_snap, seed=_split_seed(seed, i), paths=paths)
        mean, se = _endpoint_mean(rule, x0, cfg, lambda x: apply_generator(spec, tf, x))
        g_means.append(mean)
        g_ses.append(se)
    cfg = SimConfig(horizon=horizon, seed=_split_seed(seed, len(ts)), paths=paths)
    mean_f, se_f = _endpoint_mean(rule, x0, cfg, tf.f)

    ts_arr = np.array(ts)
    g_arr = np.array(g_means)
    integral = float(np.trapezoid(g_arr, ts_arr))
    residual = mean_f - tf.f(x0.value) - integral
    # trapezoid weights for the SE combination
    w = np.zeros(len(ts))
    w[0] = (ts_arr[1] - ts_arr[0]) / 2.0
    w[-1] = (ts_arr[-1] - ts_arr[-2]) / 2.0
    w[1:-1] = (ts_arr[2:] - ts_arr[:-2]) / 2.0
    se = math.sqrt(se_f**2 + float(np.sum((w * np.array(g_ses)) ** 2)))
    # Euler-Maclaurin estimate: |error| ~ h^2/12 |g'(T) - g'(0)|
    h = float(np.max(np.diff(ts_arr)))
    slope0 = (g_arr[1] - g_arr[0]) / (ts_arr[1] - ts_arr[0])
    slope1 = (g_arr[-1] - g_arr[-2]) / (ts_arr[-1] - ts_arr[-2])
    quad = h * h / 12.0 * abs(slope1 - slope0)
    return DynkinReport(
        residual, se, quad, mean_f, tuple(g_means), tuple(ts),
        tf.finite_difference,
    )


def _endpoint_mean(rule, x0: ExactState, cfg: SimConfig, fn) -> tuple[float, float]:
    """Mean of fn(X(T)) over one ensemble, with its CLT standard error.

    fn runs once per distinct endpoint value.
    """
    view = Sample.from_ensemble(simulate.simulate_ensemble(rule, x0, cfg)).counted
    vals = np.array([fn(x) for x in view.values.tolist()])
    mean = view.mean(vals)
    return float(mean), float(view.se(vals, mean))


def _split_seed(seed: int, index: int) -> int:
    from . import rng

    return int(rng.path_keys(seed ^ 0xD1B54A32D192ED03, [index])[0])


# ----------------------------------------------------------------------
# report CSVs
# ----------------------------------------------------------------------
def moment_report_csv(rows) -> str:
    """rows: iterables of (order, mc_mean, mc_se, closed_form, abs_error, passed)."""
    lines = ["order,mc_mean,mc_se,closed_form,abs_error,pass"]
    for order, mean, se, closed, err, passed in rows:
        lines.append(
            f"{order},{mean:.17g},{se:.17g},{closed:.17g},{err:.17g},{str(bool(passed)).lower()}"
        )
    return "\n".join(lines) + "\n"


def ecf_report_csv(ea: EcfEstimate, eb: EcfEstimate) -> str:
    lines = ["u,re_a,im_a,re_b,im_b,weighted_abs_diff"]
    gap = _weighted_gap(ea.mean, eb.mean, ea.u)
    for u, a, b, diff in zip(ea.u, ea.mean, eb.mean, gap):
        lines.append(
            f"{u:.17g},{a.real:.17g},{a.imag:.17g},"
            f"{b.real:.17g},{b.imag:.17g},{diff:.17g}"
        )
    return "\n".join(lines) + "\n"
