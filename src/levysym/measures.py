"""Finite atomic complex measures on a one-dimensional lattice.

A measure holds its complex weights on the grid ``{j * unit}`` as one dense
array: ``_a[i]`` is the weight at integer index ``_lo + i``.  The form is
canonical: weights of modulus at most ``PRUNE_THRESHOLD`` are exact zeros,
the first and last entries are atoms, and the zero measure is the empty
array at ``_lo = 0``.  The array allocates the span, not the atoms, so no
measure spans more than ``MAX_SPAN`` indices.  The ``unit_tag`` is an opaque
token naming the base lattice symbolically, so that e.g. the spacing-1
lattice and the spacing-sqrt(2) lattice stay incommensurable even when their
floating units happen to collide; every binary operation requires matching
tags.

The class closes under the convolution Banach-algebra operations: addition,
scalar multiple, convolution (exact integer index addition, which is why
only a single shared lattice is supported), total variation (atom-wise
modulus, exact for atomic measures), Fourier transform, first and second
moments, and a truncated power-series exponential with an explicit tail
bound.  Kept free of any symbol- or simulation-level concepts on purpose.
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import BudgetExceeded, UnitMismatch

#: stored weights below this modulus are dropped (true zeros only;
#: small weights carry tail information and must survive)
PRUNE_THRESHOLD = 1e-300

#: hard cap on the number of power-series terms in ``exp_measure``
EXP_TERM_CAP = 512

#: hard cap on a measure's span (last index - first index + 1); the widest
#: measure any check builds spans a few thousand indices
MAX_SPAN = 1 << 20

#: default relative tolerance for symmetry classification
SYMMETRY_RTOL = 1e-12


def _modulus(a: np.ndarray) -> np.ndarray:
    """Entry-wise |a|, rounded as Python's abs(complex) rounds (np.abs is not)."""
    return np.hypot(a.real, a.imag)


def _check_span(span: int) -> None:
    if span > MAX_SPAN:
        raise BudgetExceeded(f"measure span {span} exceeds MAX_SPAN = {MAX_SPAN}")


class LatticeComplexMeasure:
    """Immutable finite complex measure on the lattice ``{j * unit : j in Z}``.

    Built from a mapping index -> weight; weights must be finite.
    """

    __slots__ = ("unit", "unit_tag", "_lo", "_a")

    def __init__(self, unit: float, unit_tag: str, weights):
        if not unit > 0.0:
            raise ValueError(f"lattice unit must be positive, got {unit!r}")
        if not unit_tag or any(ch.isspace() for ch in unit_tag):
            raise ValueError(f"unit_tag must be a non-empty token, got {unit_tag!r}")
        object.__setattr__(self, "unit", float(unit))
        object.__setattr__(self, "unit_tag", str(unit_tag))
        weights = dict(weights)
        keys = [int(j) for j in weights]
        lo = min(keys, default=0)
        span = max(keys) - lo + 1 if keys else 0
        _check_span(span)
        a = np.zeros(span, dtype=np.complex128)
        a[[j - lo for j in keys]] = [complex(z) for z in weights.values()]
        self._store(lo, a)

    def _store(self, lo: int, a) -> None:
        """Set the canonical form of the weights ``a`` starting at index ``lo``."""
        a = np.asarray(a, dtype=np.complex128)
        mod = _modulus(a)
        if not np.isfinite(mod.max(initial=0.0)):
            raise ValueError("measure weights must be finite")
        keep = mod > PRUNE_THRESHOLD
        nz = keep.nonzero()[0]
        if nz.size:
            first, last = int(nz[0]), int(nz[-1]) + 1
            a = a[first:last]
            if np.count_nonzero(a) > nz.size:  # nonzero weights to prune
                a = np.where(keep[first:last], a, 0j)
            lo += first
        else:
            lo, a = 0, np.zeros(0, dtype=np.complex128)
        a.flags.writeable = False
        object.__setattr__(self, "_lo", int(lo))
        object.__setattr__(self, "_a", a)

    def _of(self, lo: int, a) -> "LatticeComplexMeasure":
        """Measure on this lattice with weights ``a`` starting at index ``lo``."""
        mu = object.__new__(LatticeComplexMeasure)
        object.__setattr__(mu, "unit", self.unit)
        object.__setattr__(mu, "unit_tag", self.unit_tag)
        mu._store(lo, a)
        return mu

    def __setattr__(self, name, value):
        raise AttributeError("LatticeComplexMeasure is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through _store, not the blocked __setattr__
        return LatticeComplexMeasure, (self.unit, self.unit_tag, {}), (self._lo, self._a)

    def __setstate__(self, state) -> None:
        self._store(*state)

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """Lattice indices and weights of the atoms, by ascending index."""
        nz = np.flatnonzero(self._a)
        return self._lo + nz, self._a[nz]

    @property
    def weights(self):
        """Read-only index -> weight map of the atoms, built on each access."""
        index, weight = self.atoms()
        return MappingProxyType(dict(zip(index.tolist(), weight.tolist())))

    def _locations(self) -> np.ndarray:
        """Location j * unit of every array entry."""
        return np.arange(self._lo, self._lo + self._a.size, dtype=float) * self.unit

    def __len__(self) -> int:
        return int(np.count_nonzero(self._a))

    def __repr__(self) -> str:
        return (
            f"LatticeComplexMeasure(unit={self.unit!r}, tag={self.unit_tag!r}, "
            f"atoms={len(self)}, mass={self.total_mass():.6g})"
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LatticeComplexMeasure)
            and self.unit == other.unit
            and self.unit_tag == other.unit_tag
            and self._lo == other._lo
            and np.array_equal(self._a, other._a)
        )

    def _require_same_lattice(self, other: "LatticeComplexMeasure"):
        if self.unit_tag != other.unit_tag or self.unit != other.unit:
            raise UnitMismatch(
                f"cannot combine lattice ({self.unit!r}, {self.unit_tag!r}) "
                f"with ({other.unit!r}, {other.unit_tag!r})"
            )

    # ------------------------------------------------------------------
    # mass, variation, norms
    # ------------------------------------------------------------------
    def total_mass(self) -> complex:
        """Measure of the whole line, sum of all weights."""
        return complex(self._a.sum())

    def total_variation(self) -> "LatticeComplexMeasure":
        """Atom-wise modulus measure |mu| (exact: atoms cannot be split)."""
        return self._of(self._lo, _modulus(self._a))

    def tv_norm(self) -> float:
        """Total variation norm, sum of atom moduli."""
        return float(_modulus(self._a).sum())

    # ------------------------------------------------------------------
    # linear structure
    # ------------------------------------------------------------------
    def add(self, other: "LatticeComplexMeasure") -> "LatticeComplexMeasure":
        self._require_same_lattice(other)
        if not other._a.size:
            return self
        if not self._a.size:
            return other
        lo = min(self._lo, other._lo)
        hi = max(self._lo + self._a.size, other._lo + other._a.size)
        _check_span(hi - lo)
        total = np.zeros(hi - lo, dtype=np.complex128)
        for mu in (self, other):
            total[mu._lo - lo:mu._lo - lo + mu._a.size] += mu._a
        return self._of(lo, total)

    def scale(self, z: complex) -> "LatticeComplexMeasure":
        z = complex(z)
        if not cmath.isfinite(z):
            raise ValueError(f"scale factor must be finite, got {z!r}")
        return self._of(self._lo, self._a * z)

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(other.scale(-1.0))

    def __mul__(self, z):
        return self.scale(z)

    __rmul__ = __mul__

    # ------------------------------------------------------------------
    # convolution algebra
    # ------------------------------------------------------------------
    def convolve(self, other: "LatticeComplexMeasure") -> "LatticeComplexMeasure":
        """Convolution: weight at m is sum over j+l=m of self[j]*other[l]."""
        self._require_same_lattice(other)
        if not self._a.size or not other._a.size:
            return self._of(0, ())
        _check_span(self._a.size + other._a.size - 1)
        return self._of(self._lo + other._lo, np.convolve(self._a, other._a))

    # ------------------------------------------------------------------
    # transforms and moments
    # ------------------------------------------------------------------
    def fourier(self, u):
        """Fourier transform sum of w_j * exp(i*u*j*unit) at frequency u, a
        number or an array of frequencies (then an array of u's shape).

        One complex (u x span) array is allocated: the phases u * j * unit
        go into its imaginary part and the exponential is taken in place.
        """
        loc = self._locations()
        z = np.zeros(np.shape(u) + loc.shape, dtype=np.complex128)
        np.multiply.outer(u, loc, out=z.imag)
        value = np.exp(z, out=z) @ self._a
        return complex(value) if np.ndim(u) == 0 else value

    def moment(self, p: int) -> complex:
        """p-th moment (p in {1, 2}); for p = 2 the location enters as |x|^2."""
        if p not in (1, 2):
            raise ValueError(f"only moments p in {{1, 2}} are supported, got {p}")
        return complex(self._a @ self._locations() ** p)

    # ------------------------------------------------------------------
    # symmetry
    # ------------------------------------------------------------------
    def symmetry_class(self, tol: float | None = None) -> str:
        """Classify as 'symmetric', 'antisymmetric' or 'neither'.

        Symmetric wins the tie on the zero measure.  Default tolerance is
        SYMMETRY_RTOL relative to the total variation norm.  The span cap
        applies to the window about index 0 that holds the support.
        """
        if tol is None:
            tol = SYMMETRY_RTOL * self.tv_norm()
        mirror = self._of(-(self._lo + self._a.size - 1), self._a[::-1])
        if _modulus((self - mirror)._a).max(initial=0.0) <= tol:
            return "symmetric"
        if _modulus((self + mirror)._a).max(initial=0.0) <= tol:
            return "antisymmetric"
        return "neither"


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------
def dirac(index: int, unit: float = 1.0, unit_tag: str = "unit",
          weight: complex = 1.0) -> LatticeComplexMeasure:
    """Point mass ``weight * delta_{index * unit}``."""
    return LatticeComplexMeasure(unit, unit_tag, {index: weight})


# ----------------------------------------------------------------------
# power-series exponential
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExpSeriesReport:
    """Truncation order and the tail bound actually achieved."""

    terms: int
    tail_bound: float


def _series_order(norm: float, tol: float, cap: int) -> tuple[int, float]:
    """Smallest M with sum_{m>M} norm^m/m! <= tol (geometric tail majorant)."""
    term = 1.0  # norm^0 / 0!
    for m in range(cap + 1):
        term *= norm / (m + 1)  # now norm^(m+1)/(m+1)!
        if norm < m + 2:
            tail = term / (1.0 - norm / (m + 2))
            if tail <= tol:
                return m, tail
    raise BudgetExceeded(
        f"exp series needs more than {cap} terms for norm {norm:.3g}, tol {tol:.3g}"
    )


def exp_measure(mu: LatticeComplexMeasure, tol: float = 1e-12,
                max_terms: int = EXP_TERM_CAP, with_report: bool = False):
    """Truncated convolution exponential sum_{m<=M} mu^{*m} / m!.

    M is the smallest order whose crude tail bound sum_{m>M} ||mu||^m/m!
    falls below ``tol``; raises BudgetExceeded when that would take more
    than ``max_terms`` terms (the norm is too large for the tolerance).
    The terms and their sum stay raw arrays; term m starts at index m * lo,
    so the sum spans [min(0, M lo), max(0, M hi)] and is canonicalized once.
    """
    order, tail = _series_order(mu.tv_norm(), tol, max_terms)
    lo, hi = mu._lo, mu._lo + mu._a.size - 1
    start = min(0, order * lo)
    span = max(0, order * hi) - start + 1
    _check_span(span)
    total = np.zeros(span, dtype=np.complex128)
    term = np.ones(1, dtype=np.complex128)  # the m = 0 term, delta_0
    total[-start] = 1.0
    for m in range(1, order + 1):
        term = np.convolve(term, mu._a) * complex(1.0 / m)
        first = m * lo - start
        total[first:first + term.size] += term
    result = mu._of(start, total)
    return (result, ExpSeriesReport(order, tail)) if with_report else result


# ----------------------------------------------------------------------
# sequence convolution with truncation diagnostics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ConvolveSequenceReport:
    """Diagnostics for a finite convolution of a measure sequence.

    ``second_moment_sum`` is the finiteness diagnostic sum over terms of the
    second absolute moments; ``centered_violations`` lists positions whose
    total variation has first moment larger than the tolerance (the
    hypothesis under which infinite convolutions converge).
    """

    second_moment_sum: float
    centered_violations: tuple[int, ...]


def convolve_sequence(measures, tol: float = 1e-9, unit: float = 1.0,
                      unit_tag: str = "unit", with_report: bool = False):
    """Left-fold convolution of an ordered, already-truncated sequence."""
    measures = list(measures)
    if measures:
        unit, unit_tag = measures[0].unit, measures[0].unit_tag
    result = dirac(0, unit, unit_tag)
    second_sum = 0.0
    violations = []
    for pos, mu in enumerate(measures):
        tv = mu.total_variation()
        if abs(tv.moment(1)) > tol:
            violations.append(pos)
        second_sum += tv.moment(2).real
        result = result.convolve(mu)
    if violations:
        warnings.warn(
            f"convolve_sequence: |mu| not centered at positions {violations} "
            f"(first absolute moment above {tol:g})",
            stacklevel=2,
        )
    if with_report:
        return result, ConvolveSequenceReport(second_sum, tuple(violations))
    return result


# ----------------------------------------------------------------------
# CSV serialization
# ----------------------------------------------------------------------
def to_csv(mu: LatticeComplexMeasure) -> str:
    """Serialize: metadata comment line, header, one row per atom."""
    lines = [f"# unit={mu.unit:.17g} tag={mu.unit_tag}", "index,weight_re,weight_im"]
    for j, z in mu.weights.items():  # ascending index
        lines.append(f"{j},{z.real:.17g},{z.imag:.17g}")
    return "\n".join(lines) + "\n"

