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
* ``TripletField(fn)`` - arbitrary user map x -> LevyTriplet.

Evaluations use cancellation-free closed forms (sinc-squared and phased
sinc), so the symbols stay accurate near x = 0 and for large |xu|; the
finite-difference audits downstream rely on this.  Every ``value(x, u)`` and
``psi(u)`` broadcasts over NumPy arrays of x and u.
"""

from __future__ import annotations

import json
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
    """sin(z)/z elementwise, 1 at z = 0."""
    z = np.asarray(z, dtype=float)
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
        if not self.value > 0.0:
            raise ValueError(f"lattice unit must be positive, got {self.value!r}")

    @staticmethod
    def parse(token) -> "LatticeUnit":
        if isinstance(token, LatticeUnit):
            return token
        token = str(token)
        if token in NAMED_UNITS:
            return LatticeUnit(NAMED_UNITS[token], token)
        value = float(token)
        return LatticeUnit(value, token)

    def to_json(self) -> dict:
        return {"value": self.value, "tag": self.tag}

    @staticmethod
    def from_json(obj: dict) -> "LatticeUnit":
        return LatticeUnit(float(obj["value"]), str(obj["tag"]))


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

    @property
    def finite_activity(self) -> bool:
        """True when the triplet is directly simulable (no diffusion part)."""
        return self.diffusion == 0.0

    def exponent(self, u):
        """Levy-Khintchine exponent of this triplet at frequency u (or an
        array of them)."""
        q = 1j * u * self.drift - 0.5 * u * u * self.diffusion
        for y, r in self.jumps:
            q += r * (np.exp(1j * u * y) - 1.0 - 1j * u * truncation(y))
        return q

    def second_jump_moment(self) -> float:
        return sum(r * y * y for y, r in self.jumps)

    def activity_bound(self) -> float:
        """g(x) = |b| + c + integral of y^2 against the jump measure."""
        return abs(self.drift) + self.diffusion + self.second_jump_moment()


# ----------------------------------------------------------------------
# exponent specifications (the psi in product/constant symbols)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BrownianNegative:
    """psi(u) = -u^2/2, the exponent of standard Brownian motion."""

    def psi(self, u):
        u = np.asarray(u, dtype=float)
        return (-0.5 * u * u).astype(complex)

    def to_json(self) -> dict:
        return {"variant": "brownian"}


@dataclass(frozen=True)
class TripletExponent:
    """Exponent of a fixed finite-activity triplet."""

    triplet: LevyTriplet

    def psi(self, u):
        return self.triplet.exponent(u)

    def to_json(self) -> dict:
        return {
            "variant": "triplet",
            "b": self.triplet.drift,
            "c": self.triplet.diffusion,
            "jumps": [[y, r] for y, r in self.triplet.jumps],
        }


def exponent_from_json(obj: dict):
    variant = obj["variant"]
    if variant == "brownian":
        return BrownianNegative()
    if variant == "triplet":
        return TripletExponent(
            LevyTriplet(
                drift=float(obj.get("b", 0.0)),
                diffusion=float(obj.get("c", 0.0)),
                jumps=tuple((float(y), float(r)) for y, r in obj.get("jumps", [])),
            )
        )
    raise ValueError(f"unknown exponent variant {variant!r}")


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

    def to_json(self) -> dict:
        return {"variant": self.wire_name}


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

    def to_json(self) -> dict:
        return {"variant": self.wire_name, "k": self.k.to_json(), "n": self.n}


@dataclass(frozen=True)
class IncreasingDoubling:
    """q(x,u) = (e^{iux}-1)/x for x > 0, iu at x = 0; state space [0, inf)."""

    wire_name = "ex32"

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

    def to_json(self) -> dict:
        return {"variant": self.wire_name}


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

    def to_json(self) -> dict:
        return {"variant": self.wire_name, "k": self.k.to_json(), "n": self.n}


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

    def to_json(self) -> dict:
        return {"variant": self.wire_name, "psi": self.exponent_spec.to_json()}


@dataclass(frozen=True)
class ConstantSymbol:
    """State-independent symbol q(x,u) = psi(u)."""

    exponent_spec: BrownianNegative | TripletExponent = field(
        default_factory=BrownianNegative
    )

    wire_name = "constant"

    def value(self, x, u):
        return self.exponent_spec.psi(u) * np.ones_like(x, dtype=float)

    def triplet(self, x: float) -> LevyTriplet:
        return _base_triplet(self.exponent_spec)

    def to_json(self) -> dict:
        return {"variant": self.wire_name, "psi": self.exponent_spec.to_json()}


@dataclass(frozen=True)
class TripletField:
    """Symbol given directly by a user-supplied state -> triplet map."""

    triplet_fn: Callable[[float], LevyTriplet]

    wire_name = "tripletfield"

    def value(self, x, u):
        # the user's map takes one state at a time
        xb, ub = np.broadcast_arrays(np.asarray(x, dtype=float),
                                     np.asarray(u, dtype=float))
        q = [self.triplet(float(xi)).exponent(ui) for xi, ui in zip(xb.flat, ub.flat)]
        return np.array(q, dtype=complex).reshape(xb.shape)[()]

    def triplet(self, x: float) -> LevyTriplet:
        return self.triplet_fn(x)

    def to_json(self) -> dict:
        raise TypeError("TripletField symbols hold a callable and do not serialize")


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


def triplet_of(spec, x: float) -> LevyTriplet:
    """Levy-Khintchine triplet of q(x, .); check ``finite_activity`` before
    handing it to a jump simulator."""
    return spec.triplet(x)


@dataclass(frozen=True)
class TestFunction:
    """A test function with caller-supplied first and second derivatives.

    ``from_finite_differences`` builds the derivatives numerically (central,
    step 1e-5 * (1 + |x|)); results computed that way carry the
    ``finite_difference`` flag so reports can qualify their accuracy.
    """

    __test__ = False  # "Test" prefix is domain vocabulary, not a pytest class

    f: Callable[[float], float]
    grad: Callable[[float], float]
    hess: Callable[[float], float]
    finite_difference: bool = False

    @staticmethod
    def from_finite_differences(f) -> "TestFunction":
        def grad(x, f=f):
            h = 1e-5 * (1.0 + abs(x))
            return (f(x + h) - f(x - h)) / (2.0 * h)

        def hess(x, f=f):
            h = 1e-5 * (1.0 + abs(x))
            return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)

        return TestFunction(f, grad, hess, finite_difference=True)


def apply_generator(spec, tf: TestFunction, x: float) -> float:
    """Apply the integro-differential generator of the symbol to tf at x.

    grad(x) b(x) + 1/2 hess(x) c(x)
        + sum of rate * (f(x + y) - f(x) - grad(x) chi(y)).
    """
    trip = triplet_of(spec, x)
    out = tf.grad(x) * trip.drift + 0.5 * tf.hess(x) * trip.diffusion
    fx = tf.f(x)
    gx = tf.grad(x)
    for y, r in trip.jumps:
        out += r * (tf.f(x + y) - fx - gx * truncation(y))
    return out


@dataclass(frozen=True)
class BoundednessReport:
    """Grid audit of g(x) = |b(x)| + c(x) + int y^2 F(x, dy)."""

    xs: tuple[float, ...]
    g_values: tuple[float, ...]
    sup: float
    arg_sup: float


def boundedness_audit(spec, xgrid) -> BoundednessReport:
    xs = [float(x) for x in xgrid]
    gs = [triplet_of(spec, x).activity_bound() for x in xs]
    i = int(np.argmax(gs))
    return BoundednessReport(tuple(xs), tuple(gs), gs[i], xs[i])


@dataclass(frozen=True)
class HoelderRow:
    x: float
    y: float
    modulus: float
    closed_bound: float | None


def hoelder_modulus(spec, xpairs, ugrid, sup_q_norm: float | None = None,
                    sup_dq_norm: float | None = None) -> list[HoelderRow]:
    """Empirical Hoelder modulus sup_u |q(x,u) - q(y,u)| / (1 + u^2) per pair.

    When the caller supplies bounds on sup |q|/(1+u^2) and on
    sup |d_x q|/(1+u^2), the closed-form bound
    min(2 sup_q_norm, |x-y| sup_dq_norm) is evaluated alongside.
    """
    u = np.asarray(ugrid, dtype=float)
    pairs = np.array(list(xpairs), dtype=float).reshape(-1, 2)
    gap = eval_symbol(spec, pairs[:, :1], u) - eval_symbol(spec, pairs[:, 1:], u)
    worst = np.max(np.hypot(gap.real, gap.imag) / (1.0 + u * u), axis=1)
    rows = []
    for (x, y), w in zip(pairs.tolist(), worst):
        bound = None
        if sup_q_norm is not None and sup_dq_norm is not None:
            bound = min(2.0 * sup_q_norm, abs(x - y) * sup_dq_norm)
        rows.append(HoelderRow(float(x), float(y), float(w), bound))
    return rows


# ----------------------------------------------------------------------
# JSON wire format
# ----------------------------------------------------------------------
_WIRE_CLASSES = {
    "ex31": SymmetricDoubling,
    "ex32": IncreasingDoubling,
}


def spec_to_json(spec) -> str:
    return json.dumps(spec.to_json(), sort_keys=True)


def spec_from_json(obj) -> object:
    """Rebuild a symbol spec from its JSON object (or JSON text)."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    variant = obj["variant"]
    if variant in _WIRE_CLASSES:
        return _WIRE_CLASSES[variant]()
    if variant == "ex31approx":
        return SymmetricDoublingApprox(LatticeUnit.from_json(obj["k"]), int(obj["n"]))
    if variant == "ex32approx":
        return IncreasingDoublingApprox(LatticeUnit.from_json(obj["k"]), int(obj["n"]))
    if variant == "prodcos":
        return ProductCosine(exponent_from_json(obj["psi"]))
    if variant == "constant":
        return ConstantSymbol(exponent_from_json(obj["psi"]))
    raise ValueError(f"unknown symbol variant {variant!r}")
