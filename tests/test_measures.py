"""Lattice measure algebra: frozen examples, algebra laws, exponential
identities, symmetry, CSV round trip."""

import cmath
import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levysym.errors import BudgetExceeded, UnitMismatch
from levysym.measures import (
    EXP_TERM_CAP,
    MAX_SPAN,
    OVERFLOW_GUARD,
    PRUNE_THRESHOLD,
    ExpSeriesReport,
    LatticeComplexMeasure,
    _modulus,
    convolve_sequence,
    dirac,
    exp_measure,
    to_csv,
)


def meas(weights, unit=1.0, tag="unit"):
    return LatticeComplexMeasure(unit, tag, weights)


ZERO = meas({})


# ----------------------------------------------------------------------
# frozen examples
# ----------------------------------------------------------------------
def test_total_mass_examples():
    assert ZERO.total_mass() == 0
    assert meas({3: 1 + 1j}).total_mass() == 1 + 1j
    assert meas({1: 0.5, -1: 0.5}).total_mass() == 1.0


def test_total_variation_examples():
    tv = meas({2: 1 + 1j}).total_variation()
    assert tv.weights[2] == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert len(ZERO.total_variation()) == 0


def test_tv_norm_examples():
    assert dirac(0).tv_norm() == 1.0
    assert meas({4: 1j, -2: -1j}).tv_norm() == pytest.approx(2.0)


def test_add_scale_examples():
    mu = meas({1: 2.0, 5: -1j})
    assert mu.add(ZERO) == mu
    assert len(mu.scale(0.0)) == 0
    assert dirac(1).add(dirac(1)).weights[1] == 2.0


def test_unit_mismatch_is_hard_error():
    with pytest.raises(UnitMismatch):
        meas({0: 1.0}, tag="a").add(meas({0: 1.0}, tag="b"))
    with pytest.raises(UnitMismatch):
        meas({0: 1.0}, unit=1.0).convolve(meas({0: 1.0}, unit=2.0, tag="other"))


def test_convolve_examples():
    assert dirac(1).convolve(dirac(2)) == dirac(3)
    mu = meas({0: 1.0, 2: -0.25j})
    assert mu.convolve(dirac(0)) == mu


def test_fourier_examples():
    assert dirac(0).fourier(3.7) == 1.0
    mu = meas({1: 0.5, -1: 0.5}, unit=0.75)
    for u in (0.0, 1.0, -2.5):
        assert mu.fourier(u) == pytest.approx(math.cos(0.75 * u), abs=1e-15)
    assert meas({3: 1j, -4: 2.0}).fourier(0.0) == meas({3: 1j, -4: 2.0}).total_mass()


def test_fourier_matches_phase_grid_oracle():
    # the in-place complex grid gives the bits of exp(1j * outer) @ weights
    rng = np.random.default_rng(17)
    for _ in range(50):
        lo = int(rng.integers(-40, 40))
        weights = {lo + j: complex(*rng.normal(size=2))
                   for j in range(int(rng.integers(1, 60))) if rng.random() < 0.7}
        mu = meas(weights, unit=float(rng.uniform(0.1, 3.0)))
        locations = np.arange(mu._lo, mu._lo + mu._a.size) * mu.unit
        us = rng.normal(scale=10.0, size=int(rng.integers(0, 20)))
        oracle = np.exp(1j * np.multiply.outer(us, locations)) @ mu._a
        assert np.array_equal(mu.fourier(us), oracle)
        for u in us[:3].tolist() + [0.0, -0.0]:
            got = mu.fourier(u)
            assert type(got) is complex
            assert got == complex(np.exp(1j * np.multiply.outer(u, locations)) @ mu._a)
    grid = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
    assert ZERO.fourier(grid).shape == (2, 3) and not ZERO.fourier(grid).any()


def test_moment_examples():
    assert dirac(0).moment(1) == 0.0
    mu = meas({1: 0.5, -1: 0.5}, unit=1.5)
    assert mu.moment(1) == 0.0
    assert mu.moment(2) == pytest.approx(1.5**2)


def test_exp_measure_mass_and_moment():
    mu = meas({1: 0.5, -1: 0.5})
    e, _ = exp_measure(mu, tol=1e-13)
    assert e.total_mass().real == pytest.approx(math.e, abs=1e-11)
    assert e.moment(2).real == pytest.approx(math.e, abs=1e-10)
    assert exp_measure(ZERO)[0] == dirac(0)


def test_exp_measure_atom_against_series_oracle():
    # independent oracle: weight of exp(t b mu) at index 0 is the even-term
    # double sum over paths returning to the origin
    e, _ = exp_measure(meas({1: 0.5, -1: 0.5}), tol=1e-15)
    oracle = sum(
        0.5**m / math.factorial(m) * math.comb(m, m // 2)
        for m in range(0, 60, 2)
    )
    assert e.weights[0].real == pytest.approx(oracle, abs=1e-13)


def test_exp_measure_budget():
    # the geometric tail majorant needs an order past the norm
    big = meas({1: float(EXP_TERM_CAP + 1)})
    with pytest.raises(BudgetExceeded, match=f"more than {EXP_TERM_CAP} terms"):
        exp_measure(big, tol=1e-12)


def test_exp_report():
    _, report = exp_measure(meas({1: 1.0}), tol=1e-10)
    assert report.tail_bound <= 1e-10
    assert report.terms > 0


def _per_term_series(mu, tol):
    """Oracle: the series summed one canonical term measure at a time."""
    _, report = exp_measure(mu, tol)
    term = total = dirac(0, mu.unit, mu.unit_tag)
    for m in range(1, report.terms + 1):
        term = term.convolve(mu).scale(1.0 / m)
        total = total.add(term)
    return total


def test_exp_series_matches_per_term_recurrence():
    gen = np.random.default_rng(17)
    for case in range(300):
        size = int(gen.integers(0, 6))
        lo = (
            int(gen.integers(-6, 7)),  # straddling 0 or not
            int(gen.integers(1, 5)),  # positive support only
            -size - int(gen.integers(0, 4)),  # negative support only
        )[case % 3]
        moduli = gen.uniform(1e-2, 1.0, size)
        w = moduli * np.exp(2j * np.pi * gen.random(size))
        mu = meas({lo + i: z for i, z in enumerate(w)}, unit=0.5, tag="t")
        tol = 10.0 ** gen.uniform(-15, -4)
        assert exp_measure(mu, tol)[0] == _per_term_series(mu, tol)
    assert exp_measure(ZERO, 1e-12)[0] == _per_term_series(ZERO, 1e-12)


def _symmetry(mu):
    """'symmetric' when mu equals its mirror, 'antisymmetric' when it equals
    minus its mirror (the zero measure is symmetric), else 'neither'."""
    mirror = mu.mirror()
    if mirror == mu:
        return "symmetric"
    return "antisymmetric" if mirror == mu.scale(-1.0) else "neither"


def test_symmetry_class():
    assert _symmetry(meas({1: 0.5, -1: 0.5})) == "symmetric"
    assert _symmetry(meas({2: -0.5j, -2: 0.5j})) == "antisymmetric"
    assert _symmetry(meas({1: 1.0, -1: 0.5})) == "neither"
    assert _symmetry(ZERO) == "symmetric"


def test_exp_preserves_symmetry():
    mu = meas({3: 0.2 - 0.7j, -3: 0.2 - 0.7j, 0: 1.1j})
    assert _symmetry(mu) == "symmetric"
    e, _ = exp_measure(mu, 1e-13)
    assert (e - e.mirror()).sup_norm() <= 1e-12 * e.tv_norm()


def test_convolve_sequence():
    with pytest.raises(ValueError, match="at least one measure"):
        convolve_sequence([])
    with pytest.warns(UserWarning):  # translation Diracs are legitimately uncentered
        assert convolve_sequence([dirac(1), dirac(2), dirac(3)]) == dirac(6)
    mus = [meas({1: 0.3, -1: 0.3}, unit=0.5, tag="h"), meas({2: 0.2, -2: 0.2}, unit=0.5, tag="h")]
    fold = convolve_sequence(mus)  # centered parts: no warning
    assert fold == mus[0].convolve(mus[1])
    assert fold.tv_norm() <= mus[0].tv_norm() * mus[1].tv_norm() + 1e-12


def test_convolve_sequence_warns_on_uncentered():
    with pytest.warns(UserWarning, match=r"positions \[1\]"):
        convolve_sequence([meas({1: 0.5, -1: 0.5}), meas({1: 1.0})])


def test_csv_round_trip():
    mu = meas({-3: 0.1 + 0.25j, 7: -1.75e-5}, unit=math.sqrt(2.0), tag="sqrt2")
    lines = to_csv(mu).splitlines()
    assert lines[0] == f"# unit={math.sqrt(2.0):.17g} tag=sqrt2"
    assert lines[1] == "index,weight_re,weight_im"
    rows = [line.split(",") for line in lines[2:]]
    back = {int(j): complex(float(re), float(im)) for j, re, im in rows}
    assert back == dict(mu.weights)


@pytest.mark.parametrize(
    "round_trip",
    [lambda m: pickle.loads(pickle.dumps(m)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_pickle_and_copy_round_trip(round_trip):
    for mu in (
        dirac(1),
        ZERO,
        meas({-3: 0.1 + 0.25j, 7: -1.75e-5}, unit=math.sqrt(2.0), tag="sqrt2"),
    ):
        back = round_trip(mu)
        assert back == mu
        assert back.weights == mu.weights
        with pytest.raises(AttributeError):
            back.unit = 2.0
        assert back.convolve(mu) == mu.convolve(mu)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_non_finite_weights_rejected(bad):
    with pytest.raises(ValueError):
        meas({0: bad, 1: 1.0})
    with pytest.raises(ValueError):
        dirac(0).scale(bad)


@pytest.mark.parametrize("unit", [0.0, -1.0, math.inf, math.nan])
def test_bad_lattice_unit_rejected(unit):
    with pytest.raises(ValueError, match="lattice unit"):
        meas({1: 1.0}, unit=unit)


@pytest.mark.parametrize("tol", [math.nan, -1e-12, -math.inf])
def test_exp_measure_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance"):
        exp_measure(meas({1: 0.5}), tol=tol)


def test_exp_measure_zero_tolerance_sums_until_terms_vanish():
    # tol = 0 stays valid: the series runs until the tail bound underflows
    mu = meas({1: 0.5, -1: 0.25j})
    e, report = exp_measure(mu, tol=0.0)
    assert report == ExpSeriesReport(terms=168, tail_bound=0.0)
    assert abs(e.total_mass() - cmath.exp(mu.total_mass())) <= 1e-15


def test_span_guard():
    # a dense array allocates the span: the guard must fire before NumPy
    # is asked for 2**40 entries
    with pytest.raises(BudgetExceeded):
        meas({0: 1.0, 2**40: 1.0})
    with pytest.raises(BudgetExceeded):
        meas({-(2**40): 1.0, 1: 1.0})
    with pytest.raises(BudgetExceeded):
        dirac(0).add(dirac(MAX_SPAN))
    half = meas({0: 1.0, MAX_SPAN // 2: 1.0})
    with pytest.raises(BudgetExceeded):
        half.convolve(half)
    # far from the origin is fine: only the span counts
    assert dirac(2**40).convolve(dirac(-(2**40))) == dirac(0)
    assert dirac(2**40).add(dirac(2**40 + 3)).tv_norm() == 2.0


# ----------------------------------------------------------------------
# property tests
# ----------------------------------------------------------------------
complex_weights = st.complex_numbers(
    min_magnitude=1e-6, max_magnitude=2.0, allow_nan=False, allow_infinity=False
)
measures_st = st.dictionaries(
    st.integers(min_value=-6, max_value=6), complex_weights, min_size=1, max_size=5
).map(lambda w: meas(w))


@settings(max_examples=60, deadline=None)
@given(measures_st, measures_st, st.floats(-10, 10))
def test_fourier_is_algebra_homomorphism(mu, nu, u):
    conv = mu.convolve(nu)
    bound = mu.tv_norm() * nu.tv_norm()
    assert abs(conv.fourier(u) - mu.fourier(u) * nu.fourier(u)) <= 1e-12 * max(
        1.0, bound
    )
    assert conv.tv_norm() <= bound * (1 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(measures_st, measures_st)
def test_convolution_commutes(mu, nu):
    ab = mu.convolve(nu)
    ba = nu.convolve(mu)
    assert (ab - ba).tv_norm() <= 1e-12 * max(1.0, ab.tv_norm())


@settings(max_examples=40, deadline=None)
@given(measures_st)
def test_exp_mass_identity(mu):
    mu = mu.scale(min(1.0, 3.0 / max(mu.tv_norm(), 1e-9)))
    e, _ = exp_measure(mu, tol=1e-12)
    assert abs(e.total_mass() - cmath.exp(mu.total_mass())) < 1e-8


@settings(max_examples=40, deadline=None)
@given(
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    st.integers(min_value=1, max_value=5),
)
def test_tv_of_exp_of_odd_measure_is_symmetric(z, s):
    mu = meas({s: z, -s: -z})
    tv = exp_measure(mu, tol=1e-12)[0].total_variation()
    for j in set(tv.weights) | {-i for i in tv.weights}:
        assert abs(tv.weights.get(j, 0j) - tv.weights.get(-j, 0j)) <= 1e-12 * max(
            1.0, tv.tv_norm()
        )


# ----------------------------------------------------------------------
# dict oracle: the index -> weight double loop, on wide sparse supports
# ----------------------------------------------------------------------
def _oracle_convolve(x, y):
    w = {}
    for j, a in x.items():
        for l, b in y.items():
            w[j + l] = w.get(j + l, 0j) + a * b
    return w


def _oracle_add(x, y):
    w = dict(x)
    for j, z in y.items():
        w[j] = w.get(j, 0j) + z
    return w


def _oracle_symmetry(x):
    indices = set(x) | {-j for j in x}
    if all(x.get(j, 0j) == x.get(-j, 0j) for j in indices):
        return "symmetric"
    if all(x.get(j, 0j) == -x.get(-j, 0j) for j in indices):
        return "antisymmetric"
    return "neither"


def _atoms(w):
    return {j: z for j, z in w.items() if abs(z) > PRUNE_THRESHOLD}


def _gap(x, y):
    return max((abs(x.get(j, 0j) - y.get(j, 0j)) for j in set(x) | set(y)), default=0.0)


ORACLE_UNIT = 0.75
# wide sparse supports mixed with clustered ones, so that products of atom
# counts pass 4 096 and convolutions both overlap and leave gaps
wide_dicts = st.integers(1, 100).flatmap(
    lambda size: st.dictionaries(
        st.one_of(st.integers(-5000, 5000), st.integers(-20, 20)),
        complex_weights, min_size=size, max_size=size,
    )
)


@st.composite
def mirrored_dicts(draw):
    w = draw(wide_dicts)
    sign = draw(st.sampled_from([0, 1, -1]))
    if sign:
        w = {**w, **{-j: sign * z for j, z in w.items() if j > 0}}
        if sign < 0:
            w.pop(0, None)
    return w


@settings(max_examples=60, deadline=None)
@given(mirrored_dicts(), st.integers(-950, 1022))
# the two measures {1: 1e308, -1: -1e308} and {1: 1e308, 0: 1e308, -1: 1.0}
@example({1: 1e308 * 2.0**-1000, -1: -1e308 * 2.0**-1000}, 1000)
@example({1: 1e308 * 2.0**-1000, 0: 1e308 * 2.0**-1000, -1: 2.0**-1000}, 1000)
def test_symmetry_class_holds_up_to_the_float_range(x, k):
    # scaling every weight by 2**k is exact and keeps the class: the mirror
    # and the negation are exact, also where mu - mirror(mu), mu + mirror(mu)
    # or the total variation overflow
    mu = meas({j: z * 2.0**k for j, z in x.items()})
    assert _symmetry(mu) == _oracle_symmetry(x)


@settings(max_examples=40, deadline=None)
@given(mirrored_dicts(), wide_dicts, st.floats(-10, 10))
def test_dense_measure_matches_dict_oracle(x, y, u):
    mx = meas(x, unit=ORACLE_UNIT)
    my = meas(y, unit=ORACLE_UNIT)
    assert dict(mx.weights) == _atoms(x)
    assert len(mx) == len(_atoms(x))
    assert dict(mx.add(my).weights) == _atoms(_oracle_add(x, y))
    assert dict(mx.total_variation().weights) == {j: abs(z) for j, z in x.items()}
    assert dict(mx.mirror().weights) == {-j: z for j, z in _atoms(x).items()}

    conv = mx.convolve(my)
    tv_x = sum(abs(z) for z in x.values())
    tv_y = sum(abs(z) for z in y.values())
    assert _gap(dict(conv.weights), _oracle_convolve(x, y)) <= 1e-12 * tv_x * tv_y

    four = sum(z * cmath.exp(1j * u * (j * ORACLE_UNIT)) for j, z in x.items())
    assert abs(mx.fourier(u) - four) <= 1e-12 * tv_x
    us = [u, -u, 0.5 * u]
    batch = mx.fourier(np.array(us))
    assert batch.shape == (3,)
    for got, v in zip(batch, us):
        assert abs(got - mx.fourier(v)) <= 1e-12 * tv_x
    for p in (1, 2):
        moment = sum(z * (j * ORACLE_UNIT) ** p for j, z in x.items())
        scale = sum(abs(z) * abs(j * ORACLE_UNIT) ** p for j, z in x.items())
        assert abs(mx.moment(p) - moment) <= 1e-12 * scale


# ----------------------------------------------------------------------
# canonical form of every result: each operation's result equals the full
# canonical-form pass (``_store``) over the raw array it stands for
# ----------------------------------------------------------------------
#: weights at and around the prune threshold (also through hypot), signed
#: zeros, and weights whose sums, products or multiples overflow
EDGE_WEIGHTS = [
    PRUNE_THRESHOLD, -PRUNE_THRESHOLD * 1j,
    float(np.nextafter(PRUNE_THRESHOLD, 1.0)), float(np.nextafter(PRUNE_THRESHOLD, 0.0)),
    complex(PRUNE_THRESHOLD / math.sqrt(2.0), -PRUNE_THRESHOLD / math.sqrt(2.0)),
    1e-150, -1e-150j, 1e-160,
    0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
    1e154, -1e300j, 1e308, complex(-1e308, 1e308),
    # bounds just below, at and just above OVERFLOW_GUARD (G = 2**1000): sums
    # of two halves, products of two 2**500 (and their sums over two
    # entries), a single weight (norms, scaling by one)
    OVERFLOW_GUARD / 2, OVERFLOW_GUARD / 2 * (1.0 - 2.0**-52),
    -1j * float(np.nextafter(OVERFLOW_GUARD / 2, math.inf)),
    2.0**500, float(np.nextafter(2.0**500, 0.0)), -float(np.nextafter(2.0**500, math.inf)),
    float(np.nextafter(OVERFLOW_GUARD, 0.0)), OVERFLOW_GUARD * 1j,
]
EDGE_FACTORS = [0.0, -0.0, -1.0, 1j, 1e-150, 1e-300, 1e-310, 1e150, 1e300,
                1.0, float(np.nextafter(1.0, 0.0)), 2.0**500, -1j * 2.0**500]
edge_dicts = st.dictionaries(
    st.integers(-4, 4), st.one_of(complex_weights, st.sampled_from(EDGE_WEIGHTS)),
    max_size=6,
)


@st.composite
def cancelling_pairs(draw):
    """Weights of two measures that share some entries exactly, with either
    sign, so sums and differences cancel to exact zeros at the ends and inside."""
    x = draw(edge_dicts)
    y = draw(edge_dicts)
    shared = draw(st.sets(st.sampled_from(sorted(x)))) if x else set()
    sign = draw(st.sampled_from([1.0, -1.0]))
    y.update({j: sign * x[j] for j in shared})
    return x, y


def _dense(mu, lo, hi):
    """mu's weights on the index window [lo, hi) as a raw array."""
    out = np.zeros(hi - lo, dtype=np.complex128)
    out[mu._lo - lo:mu._lo - lo + mu._a.size] = mu._a
    return out


def _raw_exp_series(mu, tol):
    """exp_measure's sum as the raw term-by-term array, before any pass."""
    _, report = exp_measure(mu, tol)
    lo, hi = mu._lo, mu._lo + mu._a.size - 1
    start = min(0, report.terms * lo)
    total = np.zeros(max(0, report.terms * hi) - start + 1, dtype=np.complex128)
    term = np.ones(1, dtype=np.complex128)
    total[-start] = 1.0
    for m in range(1, report.terms + 1):
        term = np.convolve(term, mu._a) * complex(1.0 / m)
        total[m * lo - start:m * lo - start + term.size] += term
    return start, total


def _bits(x):
    return np.array(x).tobytes()


def _assert_canonical(mu):
    assert not mu._a.flags.writeable
    modulus = _modulus(mu._a)
    assert np.all(np.isfinite(modulus))
    if mu._a.size:
        assert modulus[0] > PRUNE_THRESHOLD and modulus[-1] > PRUNE_THRESHOLD
        assert np.all((modulus == 0.0) | (modulus > PRUNE_THRESHOLD))
    else:
        assert mu._lo == 0
    # the stored moduli, the norms and the mass equal their recomputation
    # from the weights, bit for bit, and the stored bound is at least the
    # largest modulus, to within rounding
    assert not mu._mod.flags.writeable
    assert mu._mod.dtype == np.float64 and _bits(mu._mod) == _bits(modulus)
    assert mu._bound >= modulus.max(initial=0.0) * (1.0 - 1e-15)
    assert type(mu.sup_norm()) is float
    assert _bits(mu.sup_norm()) == _bits(modulus.max(initial=0.0))
    with np.errstate(over="ignore", invalid="ignore"):
        tv, mass = float(modulus.sum()), complex(mu._a.sum())
    assert _bits(mu.tv_norm()) == _bits(tv)
    assert _bits(mu.total_mass()) == _bits(mass)


def _assert_result_is_full_pass(result, lo, raw):
    """``result()`` equals the canonical pass over ``raw`` at ``lo``, or both
    raise ValueError (a weight overflowed)."""
    try:
        with np.errstate(over="ignore"):  # the oracle's hypot may overflow
            expected = ZERO._of(lo, raw)
    except ValueError:
        with pytest.raises(ValueError, match="finite"):
            result()
        return
    got = result()
    assert got._lo == expected._lo
    assert np.array_equal(got._a, expected._a)
    _assert_canonical(got)


@settings(max_examples=300, deadline=None)
@given(cancelling_pairs(), st.one_of(complex_weights, st.sampled_from(EDGE_FACTORS)),
       st.integers(-3, 3))
def test_every_result_is_in_canonical_form(pair, z, k):
    # the raw oracle arrays may overflow; add, - and scale run under the
    # suite's error::RuntimeWarning filter and must raise ValueError
    x, y = (meas(w) for w in pair)
    lo = min(x._lo, y._lo)
    hi = max(x._lo + x._a.size, y._lo + y._a.size)
    with np.errstate(over="ignore", invalid="ignore"):
        raw_sum = _dense(x, lo, hi) + _dense(y, lo, hi)
        raw_diff = _dense(x, lo, hi) - _dense(y, lo, hi)
        raw_scaled = x._a * complex(z)
        raw_conv = np.convolve(x._a, y._a) if x._a.size and y._a.size else None
    _assert_result_is_full_pass(lambda: x.add(y), lo, raw_sum)
    _assert_result_is_full_pass(lambda: x - y, lo, raw_diff)
    _assert_result_is_full_pass(lambda: x.scale(z), x._lo, raw_scaled)
    if raw_conv is not None:
        _assert_result_is_full_pass(lambda: x.convolve(y), x._lo + y._lo, raw_conv)
    _assert_result_is_full_pass(x.total_variation, x._lo, _modulus(x._a).astype(complex))
    _assert_result_is_full_pass(
        x.mirror, -(x._lo + x._a.size - 1), np.array(x._a[::-1])
    )
    _assert_result_is_full_pass(lambda: x.shift(k), x._lo + k, np.array(x._a))
    padded = _dense(y, y._lo - 2, y._lo + y._a.size + 1)  # zeros at both ends
    _assert_result_is_full_pass(
        lambda: LatticeComplexMeasure.from_array(1.0, "unit", y._lo - 2, padded),
        y._lo - 2, padded,
    )
    # moduli passed on, not recomputed: of a mirror's mirror, a shift's
    # shift, and the total variation of a mirror and a total variation
    _assert_canonical(x.mirror().mirror())
    _assert_canonical(x.shift(k).shift(-k).mirror())
    _assert_canonical(x.mirror().total_variation().total_variation())
    if x.sup_norm() <= 4.0:  # larger weights overflow the series
        start, raw = _raw_exp_series(x, 1e-12)
        _assert_result_is_full_pass(lambda: exp_measure(x, 1e-12)[0], start, raw)


@pytest.mark.parametrize("op", [
    lambda: meas({0: 1e308}) + meas({0: 1e308}),
    lambda: meas({0: 1e308, 1: 1.0}) - meas({0: -1e308}),
    lambda: meas({0: complex(1e308, 1e308)}).scale(1e10),
    lambda: meas({0: complex(1e308, 1e308), 2: 1.0}).scale(complex(1e308, 1e308)),
    lambda: meas({0: 1e308}).scale(1.5 + 1j),
    lambda: meas({0: 1e200}).convolve(meas({0: 1e200})),
    lambda: meas({0: 1.5e308}).convolve(meas({0: 1 + 1j})),
    lambda: meas({0: complex(1.5e308, 1.5e308)}),
    lambda: LatticeComplexMeasure.from_array(1.0, "unit", 0, [complex(1.5e308, 1.5e308)]),
], ids=["add", "sub", "scale", "scale-inf-minus-inf", "scale-modulus", "convolve",
        "convolve-modulus", "mapping-modulus", "array-modulus"])
def test_overflow_raises_value_error_not_runtime_warning(op):
    # the suite turns RuntimeWarnings into errors: NumPy's overflow warning
    # must not pre-empt the typed error
    with pytest.raises(ValueError, match="finite"):
        op()


G = OVERFLOW_GUARD


def _count_errstates(monkeypatch) -> list:
    """The keywords of every ``np.errstate`` entered from now on."""
    entered = []
    errstate = np.errstate
    monkeypatch.setattr(np, "errstate", lambda **kw: entered.append(kw) or errstate(**kw))
    return entered


# a constructed measure's bound b is its largest modulus
@pytest.mark.parametrize("x, y, op, guarded", [
    # |x + y| <= b(x) + b(y): just below G, at G
    ({0: G / 2}, {0: G / 2 * (1.0 - 2.0**-52)}, "add", False),
    ({0: G / 2}, {1: G / 2}, "add", True),
    ({0: G / 2}, {0: -G / 4j}, "sub", False),
    ({0: G / 2}, {0: G / 2}, "sub", True),
    # |z x| <= |z| b(x)
    ({0: float(np.nextafter(G, 0.0)), 3: 1.0}, 1.0, "scale", False),
    ({0: G / 2}, 2.0, "scale", True),
    # |x * y| <= min(len) b(x) b(y)
    ({0: 2.0**500}, {0: float(np.nextafter(2.0**500, 0.0))}, "convolve", False),
    ({0: 2.0**500}, {0: 2.0**500}, "convolve", True),
    ({0: 2.0**499, 1: 2.0**499}, {0: 2.0**500, 1: 1.0}, "convolve", True),
    # a sum over a measure is at most its length times b
    ({0: float(np.nextafter(G, 0.0))}, None, "tv_norm", False),
    ({0: G / 2, 1: G / 2}, None, "tv_norm", True),
    ({0: float(np.nextafter(G, 0.0))}, None, "total_mass", False),
    ({0: G / 2, 1: -G / 2}, None, "total_mass", True),
])
def test_overflow_guard_runs_only_where_the_bound_reaches_it(x, y, op, guarded, monkeypatch):
    mx = meas(x)
    other = meas(y) if isinstance(y, dict) else y
    run = {
        "add": lambda: mx + other, "sub": lambda: mx - other,
        "scale": lambda: mx.scale(other), "convolve": lambda: mx.convolve(other),
        "tv_norm": mx.tv_norm, "total_mass": mx.total_mass,
    }[op]
    expected = run()
    entered = _count_errstates(monkeypatch)
    got = run()
    assert len(entered) == guarded
    # both paths compute the same thing
    if op in ("tv_norm", "total_mass"):
        assert _bits(got) == _bits(expected)
    else:
        assert got == expected
        if guarded:  # the pass stores the largest modulus as the bound
            assert got._bound == got.sup_norm()


def test_a_loose_bound_gives_way_to_the_largest_modulus(monkeypatch):
    # x - y cancels to 2**947 under a bound just below G; doubling that bound
    # passes G, so x - y + (x - y) runs guarded and stores its true maximum
    x, y = meas({0: 2.0**999}), meas({0: 2.0**999 - 2.0**947})
    assert x._bound == 2.0**999
    diff = x - y
    assert diff.sup_norm() == 2.0**947 and 2.0**999 < diff._bound < G
    entered = _count_errstates(monkeypatch)
    total = diff + diff
    assert len(entered) == 1
    assert total == meas({0: 2.0**948}) and total._bound == 2.0**948


# ----------------------------------------------------------------------
# array constructor, shift and mirror
# ----------------------------------------------------------------------
#: raw weights for ``from_array``: ordinary values, exact and signed zeros
#: (at the ends and inside) and values at and just past the prune threshold
array_weights = st.lists(
    st.one_of(
        complex_weights,
        st.sampled_from([
            0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
            PRUNE_THRESHOLD, -PRUNE_THRESHOLD * 1j,
            float(np.nextafter(PRUNE_THRESHOLD, 1.0)),
            float(np.nextafter(PRUNE_THRESHOLD, 0.0)),
        ]),
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(st.integers(-50, 50), array_weights)
def test_from_array_equals_mapping_construction(lo, weights):
    raw = np.array(weights, dtype=np.complex128)
    mu = LatticeComplexMeasure.from_array(0.5, "half", lo, raw)
    expected = meas({lo + i: w for i, w in enumerate(weights)}, unit=0.5, tag="half")
    assert mu == expected
    assert mu._lo == expected._lo and np.array_equal(mu._a, expected._a)
    _assert_canonical(mu)
    # the measure holds its own copy
    raw[:] = 7.0
    assert mu == expected
    # and so does a measure built from a list or a NumPy integer index
    assert LatticeComplexMeasure.from_array(0.5, "half", np.int64(lo), weights) == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_from_array_rejects_non_finite_weights(bad):
    with pytest.raises(ValueError, match="finite"):
        LatticeComplexMeasure.from_array(1.0, "unit", 0, [1.0, bad, 0.0])


def test_from_array_span_guard():
    with pytest.raises(BudgetExceeded):
        LatticeComplexMeasure.from_array(1.0, "unit", 0, np.zeros(MAX_SPAN + 1))
    wide = LatticeComplexMeasure.from_array(1.0, "unit", -3, np.ones(MAX_SPAN))
    assert wide._lo == -3 and len(wide) == MAX_SPAN


@pytest.mark.parametrize("unit,tag,match", [
    (0.0, "unit", "lattice unit"), (-1.0, "unit", "lattice unit"),
    (math.inf, "unit", "lattice unit"), (math.nan, "unit", "lattice unit"),
    (1.0, "", "unit_tag"), (1.0, "a b", "unit_tag"),
])
def test_from_array_rejects_bad_lattice_as_init_does(unit, tag, match):
    with pytest.raises(ValueError, match=match):
        meas({0: 1.0}, unit=unit, tag=tag)
    with pytest.raises(ValueError, match=match):
        LatticeComplexMeasure.from_array(unit, tag, 0, [1.0])


@pytest.mark.parametrize("bad", [0.5, 2.9, 1.0, "4", True, None, np.float64(3.0)])
def test_non_integer_indices_rejected(bad):
    with pytest.raises(ValueError, match="integers"):
        meas({0: 1.0, bad: 2.0})
    with pytest.raises(ValueError, match="integers"):
        dirac(bad)
    with pytest.raises(ValueError, match="integers"):
        LatticeComplexMeasure.from_array(1.0, "unit", bad, [1.0])
    with pytest.raises(ValueError, match="integers"):
        dirac(0).shift(bad)


def test_numpy_integer_indices_accepted():
    assert meas({np.int64(2): 1.0, np.int32(-1): 0.5}) == meas({2: 1.0, -1: 0.5})
    assert dirac(np.int64(3)) == dirac(3)
    assert dirac(1).shift(np.int16(-4)) == dirac(-3)


@settings(max_examples=100, deadline=None)
@given(edge_dicts, st.integers(-40, 40))
def test_shift_is_convolution_with_a_point_mass(w, k):
    mu = meas(w)
    shifted = mu.shift(k)
    assert shifted == mu.convolve(dirac(k))
    assert shifted.shift(-k) == mu
    assert mu.mirror().mirror() == mu
    assert mu.mirror().shift(-k) == mu.shift(k).mirror()


def test_norms_past_the_float_range_are_inf():
    # the sums overflow; under the suite's error::RuntimeWarning filter a
    # NumPy overflow warning would pre-empt the inf
    mu = meas({0: 1e308, 1: 1e308})
    assert mu.tv_norm() == math.inf
    assert mu.total_mass() == complex(math.inf, 0.0)
    assert "mass=inf" in repr(mu)
