"""State-dependent Levy exponents ("symbols") and their jump triplets.

A symbol q(x, u) assigns to every state x a Levy exponent in the frequency
variable u, determined by a drift/diffusion/jump triplet relative to the
fixed truncation function chi(y) = y for |y| <= 1, 0 otherwise.  The module
provides the built-in families used throughout the package:

* ``SymmetricDoubling`` - q(x,u) = (cos(xu) - 1)/x^2 (Brownian point at 0);
  jumps of size +-x at rate 1/(2 x^2), i.e. the state doubles or dies.
* ``SymmetricDoublingApprox(k, n)`` - the finite-activity regularization
  that replaces the region |x| < k 2^-n by jumps of +-(k 2^-n).
* ``IncreasingDoubling`` - q(x,u) = (e^{iux} - 1)/x on x >= 0; one jump of
  size +x at rate 1/x, a pure-birth doubling process.
* ``IncreasingDoublingApprox(k, n)`` - jump size clamped to
  [k 2^-n, k 2^n], totally defined on R.
* ``ProductCosine(psi)`` - q(x,u) = (1 - cos x) psi(u).
* ``ConstantSymbol(psi)`` - state-independent exponent.

Evaluations use cancellation-free closed forms (sinc-squared and phased
sinc), so the symbols stay accurate near x = 0 and for large |xu|.  Every
``value(x, u)`` and ``psi(u)`` broadcasts over NumPy arrays of x and u.  The
symbols entire in x (``SymmetricDoubling``, ``ProductCosine`` and
``ConstantSymbol``) also take complex states, which the ellipticity audit's
Cauchy-circle derivatives evaluate; real states give the same floats as a
real-only evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError

SQRT2 = math.sqrt(2.0)

#: symbolic lattice units: token -> numeric value
NAMED_UNITS = {
    "1": 1.0,
    "2": 2.0,
    "sqrt2": SQRT2,
    "cbrt2": 2.0 ** (1.0 / 3.0),
    "cbrt4": 4.0 ** (1.0 / 3.0),
}


def truncation(y: float) -> float:
    """Fixed truncation function: identity on |y| <= 1, zero outside."""
    return y if abs(y) <= 1.0 else 0.0


def _sinc(z):
    """sin(z)/z elementwise, 1 at z = 0; real z give float, complex z complex."""
    z = np.asarray(z)
    z = z.astype(np.result_type(z, float), copy=False)
    return np.divide(np.sin(z), z, out=np.ones_like(z), where=z != 0.0)


@dataclass(frozen=True)
class LatticeUnit:
    """A lattice spacing with a symbolic tag.

    Tags make incommensurable units (k = 1 versus k = sqrt(2)) distinct at
    the type level; all exact-lattice bookkeeping compares tags, never
    floating values.
    """

    value: float
    tag: str

    def __post_init__(self):
        if not 0.0 < self.value < math.inf:
            raise ValueError(f"lattice unit must be positive and finite, got {self.value!r}")

    @staticmethod
    def parse(token) -> "LatticeUnit":
        if isinstance(token, LatticeUnit):
            return token
        token = str(token)
        if token in NAMED_UNITS:
            return LatticeUnit(NAMED_UNITS[token], token)
        value = float(token)
        return LatticeUnit(value, token)


@dataclass(frozen=True)
class LevyTriplet:
    """Drift, diffusion coefficient and a finite-activity jump measure.

    ``jumps`` lists (location, rate) pairs; locations are nonzero and rates
    positive, so the second moment of the jump measure is automatically
    finite.
    """

    drift: float = 0.0
    diffusion: float = 0.0
    jumps: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.diffusion < 0.0:
            raise ValueError("diffusion coefficient must be nonnegative")
        for y, r in self.jumps:
            if y == 0.0:
                raise ValueError("jump measure cannot charge the origin")
            if r <= 0.0:
                raise ValueError("jump rates must be positive")

    def exponent(self, u):
        """Levy-Khintchine exponent of this triplet at frequency u (or an
        array of them)."""
        q = 1j * u * self.drift - 0.5 * u * u * self.diffusion
        for y, r in self.jumps:
            q += r * (np.exp(1j * u * y) - 1.0 - 1j * u * truncation(y))
        return q


# ----------------------------------------------------------------------
# exponent specifications (the psi in product/constant symbols)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BrownianNegative:
    """psi(u) = -u^2/2, the exponent of standard Brownian motion."""

    def psi(self, u):
        u = np.asarray(u, dtype=float)
        return (-0.5 * u * u).astype(complex)


@dataclass(frozen=True)
class TripletExponent:
    """Exponent of a fixed finite-activity triplet."""

    triplet: LevyTriplet

    def psi(self, u):
        return self.triplet.exponent(u)


# ----------------------------------------------------------------------
# symbol variants
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SymmetricDoubling:
    """q(x,u) = (cos(xu)-1)/x^2 for x != 0, -u^2/2 at x = 0."""

    wire_name = "ex31"

    def value(self, x, u):
        s = _sinc(0.5 * x * u)
        return (-0.5 * u * u * s * s).astype(complex)

    def triplet(self, x: float) -> LevyTriplet:
        if x == 0.0:
            return LevyTriplet(diffusion=1.0)
        rate = 1.0 / (2.0 * x * x)
        return LevyTriplet(jumps=((x, rate), (-x, rate)))


@dataclass(frozen=True)
class SymmetricDoublingApprox:
    """Finite-activity regularization of SymmetricDoubling.

    Outside |x| >= k 2^-n the symbol is unchanged; inside, the jump measure
    is frozen to +-(k 2^-n) at rate 4^n/(2 k^2): the exact symbol at the
    floor state k 2^-n.  Drift vanishes everywhere because the jump measure
    is symmetric and the truncation function is anti-symmetric.
    """

    k: LatticeUnit
    n: int

    wire_name = "ex31approx"

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("approximation index n must be nonnegative")

    @property
    def floor(self) -> float:
        return self.k.value * 2.0 ** -self.n

    def value(self, x, u):
        return SymmetricDoubling().value(np.maximum(np.abs(x), self.floor), u)

    def triplet(self, x: float) -> LevyTriplet:
        h = self.floor
        return SymmetricDoubling().triplet(x if abs(x) >= h else h)


@dataclass(frozen=True)
class IncreasingDoubling:
    """q(x,u) = (e^{iux}-1)/x for x > 0, iu at x = 0; state space [0, inf)."""

    def value(self, x, u):
        x = np.asarray(x, dtype=float)
        if np.any(x < 0.0):
            raise DomainError(
                f"state space of the increasing symbol is x >= 0, got {x.min()}"
            )
        z = 0.5 * u * x
        return 1j * u * np.exp(1j * z) * _sinc(z)

    def triplet(self, x: float) -> LevyTriplet:
        if x < 0.0:
            raise DomainError(f"state space of the increasing symbol is x >= 0, got {x}")
        if x == 0.0:
            return LevyTriplet(drift=1.0)
        return LevyTriplet(drift=truncation(x) / x, jumps=((x, 1.0 / x),))


@dataclass(frozen=True)
class IncreasingDoublingApprox:
    """Clamped version: jump size h(x) = (x v k 2^-n) ^ k 2^n, defined on R."""

    k: LatticeUnit
    n: int

    wire_name = "ex32approx"

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("approximation index n must be nonnegative")

    def clamp(self, x):
        """Jump size h(x), elementwise over an array of states."""
        return np.clip(x, self.k.value * 2.0 ** -self.n, self.k.value * 2.0**self.n)

    def value(self, x, u):
        return IncreasingDoubling().value(self.clamp(x), u)

    def triplet(self, x: float) -> LevyTriplet:
        return IncreasingDoubling().triplet(float(self.clamp(x)))


@dataclass(frozen=True)
class ProductCosine:
    """q(x,u) = (1 - cos x) psi(u): elliptic except at multiples of 2 pi."""

    exponent_spec: BrownianNegative | TripletExponent = field(
        default_factory=BrownianNegative
    )

    wire_name = "prodcos"

    def value(self, x, u):
        s = np.sin(0.5 * x)
        return 2.0 * s * s * self.exponent_spec.psi(u)

    def triplet(self, x: float) -> LevyTriplet:
        lam = 2.0 * math.sin(0.5 * x) ** 2
        base = _base_triplet(self.exponent_spec)
        return LevyTriplet(
            drift=lam * base.drift,
            diffusion=lam * base.diffusion,
            jumps=tuple((y, lam * r) for y, r in base.jumps) if lam > 0.0 else (),
        )


@dataclass(frozen=True)
class ConstantSymbol:
    """State-independent symbol q(x,u) = psi(u)."""

    exponent_spec: BrownianNegative | TripletExponent = field(
        default_factory=BrownianNegative
    )

    def value(self, x, u):
        return self.exponent_spec.psi(u) * np.ones_like(x, dtype=float)

    def triplet(self, x: float) -> LevyTriplet:
        return _base_triplet(self.exponent_spec)


def _base_triplet(exponent_spec) -> LevyTriplet:
    if isinstance(exponent_spec, BrownianNegative):
        return LevyTriplet(diffusion=1.0)
    if isinstance(exponent_spec, TripletExponent):
        return exponent_spec.triplet
    raise TypeError(f"unsupported exponent spec {exponent_spec!r}")


# ----------------------------------------------------------------------
# spec-level operations
# ----------------------------------------------------------------------
def eval_symbol(spec, x, u):
    """Evaluate q(x, u), elementwise over the broadcast of x and u.

    Always q(x, 0) = 0 and Re q <= 0.
    """
    return spec.value(x, u)


@dataclass(frozen=True)
class TestFunction:
    """A test function with caller-supplied first and second derivatives."""

    __test__ = False  # "Test" prefix is domain vocabulary, not a pytest class

    f: Callable[[float], float]
    grad: Callable[[float], float]
    hess: Callable[[float], float]


def apply_generator(spec, tf: TestFunction, x: float) -> float:
    """Apply the integro-differential generator of the symbol to tf at x.

    grad(x) b(x) + 1/2 hess(x) c(x)
        + sum of rate * (f(x + y) - f(x) - grad(x) chi(y)).
    """
    trip = spec.triplet(x)
    out = tf.grad(x) * trip.drift + 0.5 * tf.hess(x) * trip.diffusion
    fx = tf.f(x)
    gx = tf.grad(x)
    for y, r in trip.jumps:
        out += r * (tf.f(x + y) - fx - gx * truncation(y))
    return out
