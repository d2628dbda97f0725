"""Symbol evaluations against triplets, generator closed forms, audits,
and the JSON wire format."""

import cmath
import math

import numpy as np
import pytest

from levysym.errors import DomainError
from levysym.symbols import (
    BrownianNegative,
    ConstantSymbol,
    IncreasingDoubling,
    IncreasingDoublingApprox,
    LatticeUnit,
    LevyTriplet,
    ProductCosine,
    SymmetricDoubling,
    SymmetricDoublingApprox,
    TestFunction,
    TripletExponent,
    apply_generator,
    eval_symbol,
    truncation,
)

K1 = LatticeUnit.parse("1")
KS2 = LatticeUnit.parse("sqrt2")

ALL_SPECS = [
    SymmetricDoubling(),
    SymmetricDoublingApprox(K1, 3),
    SymmetricDoublingApprox(KS2, 10),
    IncreasingDoubling(),
    IncreasingDoublingApprox(K1, 4),
    ProductCosine(BrownianNegative()),
    ConstantSymbol(BrownianNegative()),
    ProductCosine(TripletExponent(LevyTriplet(drift=0.2, jumps=((1.5, 0.7),)))),
]


def test_truncation_function():
    assert truncation(0.5) == 0.5
    assert truncation(-1.0) == -1.0
    assert truncation(1.5) == 0.0


def test_symmetric_closed_values():
    q = SymmetricDoubling()
    assert q.value(0.0, 2.0) == pytest.approx(-2.0)
    assert q.value(1.0, math.pi).real == pytest.approx(-2.0)
    assert q.value(1.0, math.pi).imag == 0.0


def test_increasing_domain():
    q = IncreasingDoubling()
    assert q.value(0.0, 3.0) == pytest.approx(3j)
    with pytest.raises(DomainError):
        q.value(-0.1, 1.0)
    with pytest.raises(DomainError):
        q.triplet(-1.0)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def _sin2_over(h, u):
    """(cos(hu) - 1)/h^2 = -2 sin^2(hu/2)/h^2, and -u^2/2 at h = 0."""
    return -0.5 * u * u if h == 0.0 else -2.0 * math.sin(0.5 * h * u) ** 2 / (h * h)


def _birth(h, u):
    """(e^{iuh} - 1)/h = 2i e^{iuh/2} sin(uh/2)/h, and iu at h = 0."""
    if h == 0.0:
        return 1j * u
    return 2j * cmath.exp(0.5j * u * h) * math.sin(0.5 * u * h) / h


def _jump_psi(u):
    # drift 0.2, one jump of size 1.5 (outside the truncation) at rate 0.7
    return 0.2j * u + 0.7 * (cmath.exp(1.5j * u) - 1.0)


def _clamp(x, lo, hi):
    return min(max(x, lo), hi)


#: (spec, scalar closed form q(x, u), whether negative states are allowed)
BROADCAST_CASES = [
    (SymmetricDoubling(), lambda x, u: _sin2_over(x, u), True),
    (SymmetricDoublingApprox(K1, 3),
     lambda x, u: _sin2_over(max(abs(x), 2.0**-3), u), True),
    (SymmetricDoublingApprox(KS2, 10),
     lambda x, u: _sin2_over(max(abs(x), math.sqrt(2.0) * 2.0**-10), u), True),
    (IncreasingDoubling(), lambda x, u: _birth(x, u), False),
    (IncreasingDoublingApprox(K1, 4),
     lambda x, u: _birth(_clamp(x, 2.0**-4, 2.0**4), u), True),
    (ProductCosine(BrownianNegative()),
     lambda x, u: (1.0 - math.cos(x)) * (-0.5 * u * u), True),
    (ConstantSymbol(BrownianNegative()), lambda x, u: -0.5 * u * u, True),
    (ProductCosine(TripletExponent(LevyTriplet(drift=0.2, jumps=((1.5, 0.7),)))),
     lambda x, u: (1.0 - math.cos(x)) * _jump_psi(u), True),
]


@pytest.mark.parametrize("spec, closed, signed", BROADCAST_CASES,
                         ids=[f"{type(c[0]).__name__}{i}" for i, c in enumerate(BROADCAST_CASES)])
def test_array_value_matches_scalar_closed_form(spec, closed, signed):
    # states on both sides of every floor (2^-10 sqrt2, 2^-4, 2^-3) and of
    # the clamp ceiling 2^4; |x u| reaches 1e3
    xs = np.array([0.0, 1e-9, 1e-3, 0.05, 0.1, 0.2, 1.0, math.pi, 5.0, 15.0, 17.0])
    if signed:
        xs = np.concatenate([xs, -xs[1:]])
    us = np.array([0.0, 0.5, -0.5, 3.0, -20.0, 66.0, 200.0])
    grid = spec.value(xs[:, None], us[None, :])
    assert grid.shape == (xs.size, us.size) and grid.dtype == complex
    for i, x in enumerate(xs.tolist()):
        assert spec.value(x, us).shape == us.shape
        for j, u in enumerate(us.tolist()):
            want = complex(closed(x, u))
            assert abs(grid[i, j] - want) <= 1e-12 * (1.0 + u * u), (x, u)
            assert eval_symbol(spec, x, u) == grid[i, j]


@pytest.mark.parametrize("spec, closed", [
    (SymmetricDoubling(), lambda z, u: (cmath.cos(z * u) - 1.0) / (z * z)),
    (ProductCosine(BrownianNegative()), lambda z, u: (1.0 - cmath.cos(z)) * (-0.5 * u * u)),
    (ConstantSymbol(BrownianNegative()), lambda z, u: -0.5 * u * u + 0j),
], ids=["ex31", "prodcos", "constant"])
def test_entire_symbols_take_complex_states(spec, closed):
    zs = np.array([0.3 + 0.2j, 1.0 - 0.5j, 2.0 + 1e-3j, 0.05j])
    us = np.array([0.5, 3.0, 40.0])
    grid = spec.value(zs[:, None], us)
    assert grid.dtype == complex
    for i, z in enumerate(zs.tolist()):
        for j, u in enumerate(us.tolist()):
            want = closed(z, u)
            assert abs(grid[i, j] - want) <= 1e-12 * (1.0 + u * u) * max(1.0, abs(want))


def test_increasing_rejects_array_with_negative_state():
    with pytest.raises(DomainError, match="-0.5"):
        IncreasingDoubling().value(np.array([0.0, 1.0, -0.25, 2.0, -0.5]), 1.0)
    with pytest.raises(DomainError):
        eval_symbol(IncreasingDoubling(), np.array([3.0, -1e-12]), np.ones(2))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_symbol_axioms(spec):
    rng = np.random.default_rng(3)
    for _ in range(40):
        x = float(rng.uniform(0.0, 4.0))  # stay in every state space
        u = float(rng.uniform(-8.0, 8.0))
        q = eval_symbol(spec, x, u)
        assert eval_symbol(spec, x, 0.0) == 0.0
        assert q.real <= 1e-12
        # hermitian symmetry
        assert cmath.isclose(
            eval_symbol(spec, x, -u), q.conjugate(), abs_tol=1e-12, rel_tol=1e-12
        )


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_eval_matches_triplet_exponent(spec):
    rng = np.random.default_rng(7)
    for _ in range(60):
        x = float(rng.uniform(0.0, 4.0))
        u = float(rng.uniform(-8.0, 8.0))
        trip = spec.triplet(x)
        if trip.diffusion != 0.0 and not isinstance(
            spec, (SymmetricDoubling, ConstantSymbol, ProductCosine)
        ):
            continue
        assert abs(eval_symbol(spec, x, u) - trip.exponent(u)) < 1e-10 * (1 + u * u)


def test_symmetric_triplet_at_zero_not_simulable():
    trip = SymmetricDoubling().triplet(0.0)
    assert trip.diffusion == 1.0
    assert SymmetricDoublingApprox(K1, 2).triplet(0.0).diffusion == 0.0


def test_approx_triplet_frozen_region():
    spec = SymmetricDoublingApprox(K1, 0)
    trip = spec.triplet(0.0)
    assert trip.jumps == ((1.0, 0.5), (-1.0, 0.5))
    assert trip.drift == 0.0
    spec2 = IncreasingDoublingApprox(K1, 0)
    trip2 = spec2.triplet(5.0)  # clamped to h = 1
    assert trip2.jumps == ((1.0, 1.0),)


def _sinc_oracle(z):
    return np.divide(np.sin(z), z, out=np.ones_like(z), where=z != 0.0)


def test_approx_symbols_match_their_own_formulas():
    # the approximations written out on their own: frozen rate 4^n/(2 k^2)
    # inside the floor k 2^-n, and the clamp of the jump size to [k 2^-n, k 2^n]
    u = np.array([-7.5, -1.0, 0.0, 0.3, 2.0, 40.0])
    for k in (1.0, math.sqrt(2.0), 0.37):
        unit = LatticeUnit(k, f"k{k!r}")
        for n in range(41):
            lo, hi = k * 2.0**-n, k * 2.0**n
            xs = np.array([0.0, lo / 3.0, -lo / 2.0, lo, -lo, 0.7, -2.5, hi, 3.0 * hi])
            sym = SymmetricDoublingApprox(unit, n)
            s = _sinc_oracle(0.5 * np.maximum(np.abs(xs[:, None]), lo) * u)
            assert np.array_equal(sym.value(xs[:, None], u), (-0.5 * u * u * s * s).astype(complex))
            inc = IncreasingDoublingApprox(unit, n)
            h = np.clip(xs, lo, hi)
            z = 0.5 * u * h[:, None]
            assert np.array_equal(inc.value(xs[:, None], u),
                                  1j * u * np.exp(1j * z) * _sinc_oracle(z))
            for x in xs.tolist():
                if abs(x) >= lo:
                    rate = 1.0 / (2.0 * x * x)
                    jumps = ((x, rate), (-x, rate))
                else:
                    rate = 4.0**n / (2.0 * k**2)
                    jumps = ((lo, rate), (-lo, rate))
                assert sym.triplet(x) == LevyTriplet(jumps=jumps)
                c = min(max(x, lo), hi)
                assert inc.triplet(x) == LevyTriplet(drift=truncation(c) / c,
                                                     jumps=((c, 1.0 / c),))


def test_generator_closed_forms():
    x_sq = TestFunction(lambda x: x * x, lambda x: 2.0 * x, lambda x: 2.0)
    ident = TestFunction(lambda x: x, lambda x: 1.0, lambda x: 0.0)
    const = TestFunction(lambda x: 4.0, lambda x: 0.0, lambda x: 0.0)
    spec31 = SymmetricDoublingApprox(K1, 6)
    spec32 = IncreasingDoublingApprox(K1, 6)
    for x in (0.0, 2.0**-6, 0.375, 1.0, -3.0, 17.25):
        assert apply_generator(spec31, x_sq, x) == pytest.approx(1.0, abs=1e-12)
        assert apply_generator(spec31, const, x) == pytest.approx(0.0, abs=1e-12)
    for x in (0.0, 0.25, 1.0, 3.5, 100.0):
        assert apply_generator(spec32, ident, x) == pytest.approx(1.0, abs=1e-12)
    # outer region matches the printed difference quotients exactly
    f = TestFunction(
        lambda x: math.sin(x), lambda x: math.cos(x), lambda x: -math.sin(x)
    )
    x = 0.75
    expected = (math.sin(2 * x) - 2 * math.sin(x) + math.sin(0.0)) / (2 * x * x)
    assert apply_generator(spec31, f, x) == pytest.approx(expected, abs=1e-12)
    h = IncreasingDoublingApprox(K1, 6).clamp(x)
    expected32 = (math.sin(x + h) - math.sin(x)) / h
    assert apply_generator(spec32, f, x) == pytest.approx(expected32, abs=1e-12)


def test_lattice_unit_tokens():
    assert LatticeUnit.parse("sqrt2").value == pytest.approx(math.sqrt(2.0))
    assert LatticeUnit.parse("1.5").tag == "1.5"
    assert LatticeUnit.parse("cbrt2").value == pytest.approx(2.0 ** (1 / 3))
    with pytest.raises(ValueError):
        LatticeUnit.parse("-2")
    for token in ("inf", "nan"):
        with pytest.raises(ValueError, match="positive and finite"):
            LatticeUnit.parse(token)
