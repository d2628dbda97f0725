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

There are two constructors.  ``LatticeComplexMeasure(unit, tag, mapping)``
takes an index -> weight mapping (user input: demos, tests);
``LatticeComplexMeasure.from_array(unit, tag, lo, weights)`` takes the
dense weights starting at index ``lo`` and is what the library builds
with (``dirac``, the term measures, the self-test).  Lattice indices must
be integers; a float, string or bool index is a ``ValueError``, never
truncated.

Each result pays for at most one canonical-form pass (``_store``: the entry
moduli, the finiteness test, the pruning and the trim).  Both constructors,
``add``, ``-``, ``scale``, ``convolve`` and ``exp_measure`` run it, because
their raw arrays can overflow, cancel to zero or underflow below the
threshold.  ``shift``, ``mirror`` and ``total_variation`` skip it: the
moduli of a canonical array are finite, its pruned entries are exact zeros
whose modulus is zero, and translating, reversing or taking moduli keeps
the end atoms atoms, so those arrays are canonical by construction.  Past
the float range a weight or modulus is the pass's ``ValueError`` and a norm
or mass is ``inf``, never a NumPy warning (at most one ``np.errstate`` per
result).

The class closes under the convolution Banach-algebra operations: addition,
scalar multiple, convolution (exact integer index addition, which is why
only a single shared lattice is supported), total variation (atom-wise
modulus, exact for atomic measures), Fourier transform, first and second
moments, the mirror image, and a truncated power-series exponential with an
explicit tail bound.  Kept free of any symbol- or simulation-level concepts
on purpose.
"""

from __future__ import annotations

import cmath
import math
import numbers
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


def _modulus(a: np.ndarray) -> np.ndarray:
    """Entry-wise |a|, rounded as Python's abs(complex) rounds (np.abs is not)."""
    return np.hypot(a.real, a.imag)


def _check_span(span: int) -> None:
    if span > MAX_SPAN:
        raise BudgetExceeded(f"measure span {span} exceeds MAX_SPAN = {MAX_SPAN}")


def _index(j) -> int:
    """A lattice index as an int; ValueError for anything not integral
    (floats, strings, bools), which would otherwise be truncated or parsed."""
    if isinstance(j, bool) or not isinstance(j, numbers.Integral):
        raise ValueError(f"lattice indices must be integers, got {j!r}")
    return int(j)


class LatticeComplexMeasure:
    """Immutable finite complex measure on the lattice ``{j * unit : j in Z}``.

    Built from a mapping index -> weight, or by ``from_array`` from dense
    weights; weights must be finite.
    """

    __slots__ = ("unit", "unit_tag", "_lo", "_a")

    def __init__(self, unit: float, unit_tag: str, weights):
        self._set_lattice(unit, unit_tag)
        weights = dict(weights)
        keys = [_index(j) for j in weights]
        lo = min(keys, default=0)
        span = max(keys) - lo + 1 if keys else 0
        _check_span(span)
        a = np.zeros(span, dtype=np.complex128)
        a[[j - lo for j in keys]] = [complex(z) for z in weights.values()]
        with np.errstate(over="ignore"):  # as in _store
            self._store(lo, a)

    @classmethod
    def from_array(cls, unit: float, unit_tag: str, lo: int,
                   weights) -> "LatticeComplexMeasure":
        """Measure with weight ``weights[i]`` at index ``lo + i``.

        The weights are copied (the stored array is read-only and never
        aliases the caller's) and go through the canonical-form pass once.
        """
        mu = object.__new__(cls)
        mu._set_lattice(unit, unit_tag)
        lo = _index(lo)
        a = np.array(weights, dtype=np.complex128)
        if a.ndim != 1:
            raise ValueError(f"weights must be one-dimensional, got shape {a.shape}")
        _check_span(a.size)
        with np.errstate(over="ignore"):  # as in _store
            mu._store(lo, a)
        return mu

    def _set_lattice(self, unit: float, unit_tag: str) -> None:
        """Check and set the lattice: a positive finite unit, a token tag."""
        if not 0.0 < unit < math.inf:
            raise ValueError(f"lattice unit must be positive and finite, got {unit!r}")
        if not unit_tag or any(ch.isspace() for ch in unit_tag):
            raise ValueError(f"unit_tag must be a non-empty token, got {unit_tag!r}")
        object.__setattr__(self, "unit", float(unit))
        object.__setattr__(self, "unit_tag", str(unit_tag))

    def _store(self, lo: int, a) -> None:
        """Set the canonical form of the weights ``a`` starting at index ``lo``.

        This is the one canonical-form pass: it rejects non-finite weights,
        turns weights of modulus at most ``PRUNE_THRESHOLD`` into exact
        zeros and trims the array to its first and last atoms.  The moduli
        are computed once and give both the finiteness test and the kept
        entries; when those form one contiguous run nothing is pruned, so
        the count and the copy are skipped.  Both constructors, ``add``,
        ``-``, ``scale``, ``convolve`` and ``exp_measure`` run it; results
        canonical by construction (``shift``, ``mirror``,
        ``total_variation``) go to ``_set`` directly.  Callers whose moduli can
        pass the float range run it under ``np.errstate(over="ignore")``.
        """
        a = np.asarray(a, dtype=np.complex128)
        mod = _modulus(a)
        if not mod.max(initial=0.0) < math.inf:  # an inf or NaN weight
            raise ValueError("measure weights must be finite")
        keep = mod > PRUNE_THRESHOLD
        nz = keep.nonzero()[0]
        if nz.size:
            first, last = int(nz[0]), int(nz[-1]) + 1
            a = a[first:last]
            if last - first > nz.size and np.count_nonzero(a) > nz.size:
                a = np.where(keep[first:last], a, 0j)  # nonzero weights to prune
            lo += first
        else:
            lo, a = 0, np.zeros(0, dtype=np.complex128)
        self._set(lo, a)

    def _set(self, lo: int, a: np.ndarray) -> None:
        """Set weights ``a`` that are already in canonical form, read-only."""
        a.flags.writeable = False
        object.__setattr__(self, "_lo", int(lo))
        object.__setattr__(self, "_a", a)

    def _of(self, lo: int, a, canonical: bool = False) -> "LatticeComplexMeasure":
        """Measure on this lattice with weights ``a`` starting at index ``lo``;
        ``canonical`` skips the canonical-form pass for arrays already in it."""
        mu = object.__new__(LatticeComplexMeasure)
        object.__setattr__(mu, "unit", self.unit)
        object.__setattr__(mu, "unit_tag", self.unit_tag)
        if canonical:
            mu._set(lo, a)
        else:
            mu._store(lo, a)
        return mu

    def __setattr__(self, name, value):
        raise AttributeError("LatticeComplexMeasure is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through from_array, not the blocked __setattr__
        return LatticeComplexMeasure.from_array, (self.unit, self.unit_tag, self._lo, self._a)

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
        with np.errstate(over="ignore"):
            return complex(self._a.sum())

    def total_variation(self) -> "LatticeComplexMeasure":
        """Atom-wise modulus measure |mu| (exact: atoms cannot be split).

        Canonical by construction: the moduli of canonical weights are
        finite, pruned entries stay zero and the end atoms stay atoms.
        """
        return self._of(self._lo, _modulus(self._a).astype(np.complex128), canonical=True)

    def tv_norm(self) -> float:
        """Total variation norm, sum of atom moduli."""
        with np.errstate(over="ignore"):
            return float(_modulus(self._a).sum())

    def sup_norm(self) -> float:
        """Largest atom modulus, 0 for the zero measure."""
        return float(_modulus(self._a).max(initial=0.0))

    # ------------------------------------------------------------------
    # linear structure
    # ------------------------------------------------------------------
    def _combine(self, other: "LatticeComplexMeasure", op) -> "LatticeComplexMeasure":
        """``op(self, other)`` on the joint span in one aligned pass, for
        ``op`` one of ``np.add`` and ``np.subtract``."""
        self._require_same_lattice(other)
        if not other._a.size:
            return self
        if not self._a.size:
            return other if op is np.add else other.scale(-1.0)
        lo = min(self._lo, other._lo)
        hi = max(self._lo + self._a.size, other._lo + other._a.size)
        _check_span(hi - lo)
        total = np.zeros(hi - lo, dtype=np.complex128)
        total[self._lo - lo:self._lo - lo + self._a.size] += self._a
        part = total[other._lo - lo:other._lo - lo + other._a.size]
        # an overflow in the sum or in _store's moduli is _store's ValueError,
        # not a NumPy warning
        with np.errstate(over="ignore", invalid="ignore"):
            op(part, other._a, out=part)
            return self._of(lo, total)

    def add(self, other: "LatticeComplexMeasure") -> "LatticeComplexMeasure":
        return self._combine(other, np.add)

    def scale(self, z: complex) -> "LatticeComplexMeasure":
        z = complex(z)
        if not cmath.isfinite(z):
            raise ValueError(f"scale factor must be finite, got {z!r}")
        with np.errstate(over="ignore", invalid="ignore"):  # as in _combine
            return self._of(self._lo, self._a * z)

    def shift(self, k: int) -> "LatticeComplexMeasure":
        """Translate by ``k`` lattice steps (convolution with ``dirac(k)``),
        canonical by construction and sharing the read-only weights."""
        k = _index(k)
        if not self._a.size:
            return self
        return self._of(self._lo + k, self._a, canonical=True)

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

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
        with np.errstate(over="ignore"):  # as in _store
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
    def mirror(self) -> "LatticeComplexMeasure":
        """The reflection x -> -x, canonical by construction."""
        if not self._a.size:
            return self
        return self._of(-(self._lo + self._a.size - 1), self._a[::-1], canonical=True)


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------
def dirac(index: int, unit: float = 1.0, unit_tag: str = "unit",
          weight: complex = 1.0) -> LatticeComplexMeasure:
    """Point mass ``weight * delta_{index * unit}``."""
    return LatticeComplexMeasure.from_array(unit, unit_tag, index, (weight,))


# ----------------------------------------------------------------------
# power-series exponential
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExpSeriesReport:
    """Truncation order and the tail bound actually achieved."""

    terms: int
    tail_bound: float


def _series_order(norm: float, tol: float) -> tuple[int, float]:
    """Smallest M with sum_{m>M} norm^m/m! <= tol (geometric tail majorant)."""
    term = 1.0  # norm^0 / 0!
    for m in range(EXP_TERM_CAP + 1):
        term *= norm / (m + 1)  # now norm^(m+1)/(m+1)!
        if norm < m + 2:
            tail = term / (1.0 - norm / (m + 2))
            if tail <= tol:
                return m, tail
    raise BudgetExceeded(
        f"exp series needs more than {EXP_TERM_CAP} terms for norm {norm:.3g}, tol {tol:.3g}"
    )


def exp_measure(mu: LatticeComplexMeasure, tol: float = 1e-12):
    """Truncated convolution exponential sum_{m<=M} mu^{*m} / m! and the
    ``ExpSeriesReport`` of M and its tail bound.

    M is the smallest order whose crude tail bound sum_{m>M} ||mu||^m/m!
    falls below ``tol``; raises BudgetExceeded when that would take more
    than ``EXP_TERM_CAP`` terms (the norm is too large for the tolerance) and
    ValueError for a NaN or negative ``tol``.
    The terms and their sum stay raw arrays; term m starts at index m * lo,
    so the sum spans [min(0, M lo), max(0, M hi)] and is canonicalized once.
    The terms come from ``np.convolve``, whose accumulation order fixes the
    bits of every exp-series result.
    """
    if not tol >= 0.0:
        raise ValueError(f"exp series tolerance must be >= 0, got {tol!r}")
    order, tail = _series_order(mu.tv_norm(), tol)
    a, lo = mu._a, mu._lo
    start = min(0, order * lo)
    span = max(0, order * (lo + a.size - 1)) - start + 1
    _check_span(span)
    total = np.zeros(span, dtype=np.complex128)
    term = np.ones(1, dtype=np.complex128)  # the m = 0 term, delta_0
    first = -start  # where term m starts in the sum
    total[first] = 1.0
    for m in range(1, order + 1):
        term = np.convolve(term, a)
        term *= complex(1.0 / m)
        first += lo
        part = total[first:first + term.size]
        part += term
    return mu._of(start, total), ExpSeriesReport(order, tail)  # |weights| <= e^norm


# ----------------------------------------------------------------------
# sequence convolution
# ----------------------------------------------------------------------
def convolve_sequence(measures) -> LatticeComplexMeasure:
    """Left-fold convolution of a non-empty, already-truncated sequence;
    warns on parts whose |mu| has first moment above 1e-9 (not centered)."""
    measures = list(measures)
    if not measures:
        raise ValueError("convolve_sequence needs at least one measure")
    result = dirac(0, measures[0].unit, measures[0].unit_tag)
    violations = []
    for pos, mu in enumerate(measures):
        if abs(mu.total_variation().moment(1)) > 1e-9:
            violations.append(pos)
        result = result.convolve(mu)
    if violations:
        warnings.warn(
            f"convolve_sequence: |mu| not centered at positions {violations} "
            f"(first absolute moment above 1e-9)",
            stacklevel=2,
        )
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

