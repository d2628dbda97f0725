"""Lattice measure algebra: frozen examples, algebra laws, exponential
identities, symmetry, CSV round trip."""

import cmath
import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levysym.errors import BudgetExceeded, UnitMismatch
from levysym.measures import (
    MAX_SPAN,
    PRUNE_THRESHOLD,
    ConvolveSequenceReport,
    LatticeComplexMeasure,
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


def test_moment_examples():
    assert dirac(0).moment(1) == 0.0
    mu = meas({1: 0.5, -1: 0.5}, unit=1.5)
    assert mu.moment(1) == 0.0
    assert mu.moment(2) == pytest.approx(1.5**2)


def test_exp_measure_mass_and_moment():
    mu = meas({1: 0.5, -1: 0.5})
    e = exp_measure(mu, tol=1e-13)
    assert e.total_mass().real == pytest.approx(math.e, abs=1e-11)
    assert e.moment(2).real == pytest.approx(math.e, abs=1e-10)
    assert exp_measure(ZERO) == dirac(0)


def test_exp_measure_atom_against_series_oracle():
    # independent oracle: weight of exp(t b mu) at index 0 is the even-term
    # double sum over paths returning to the origin
    e = exp_measure(meas({1: 0.5, -1: 0.5}), tol=1e-15)
    oracle = sum(
        0.5**m / math.factorial(m) * math.comb(m, m // 2)
        for m in range(0, 60, 2)
    )
    assert e.weights[0].real == pytest.approx(oracle, abs=1e-13)


def test_exp_measure_budget():
    big = meas({1: 400.0})
    with pytest.raises(BudgetExceeded):
        exp_measure(big, tol=1e-12, max_terms=64)


def test_exp_report():
    _, report = exp_measure(meas({1: 1.0}), tol=1e-10, with_report=True)
    assert report.tail_bound <= 1e-10
    assert report.terms > 0


def _per_term_series(mu, tol):
    """Oracle: the series summed one canonical term measure at a time."""
    _, report = exp_measure(mu, tol, with_report=True)
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
        assert exp_measure(mu, tol) == _per_term_series(mu, tol)
    assert exp_measure(ZERO, 1e-12) == _per_term_series(ZERO, 1e-12)


def test_symmetry_class():
    assert meas({1: 0.5, -1: 0.5}).symmetry_class() == "symmetric"
    assert meas({2: -0.5j, -2: 0.5j}).symmetry_class() == "antisymmetric"
    assert meas({1: 1.0, -1: 0.5}).symmetry_class() == "neither"
    assert ZERO.symmetry_class() == "symmetric"


def test_exp_preserves_symmetry():
    mu = meas({3: 0.2 - 0.7j, -3: 0.2 - 0.7j, 0: 1.1j})
    assert mu.symmetry_class() == "symmetric"
    assert exp_measure(mu, 1e-13).symmetry_class() == "symmetric"


def test_convolve_sequence():
    assert convolve_sequence([]) == dirac(0)
    with pytest.warns(UserWarning):  # translation Diracs are legitimately uncentered
        assert convolve_sequence([dirac(1), dirac(2), dirac(3)]) == dirac(6)
    mus = [meas({1: 0.3, -1: 0.3}), meas({2: 0.2, -2: 0.2})]
    fold, report = convolve_sequence(mus, with_report=True)
    assert isinstance(report, ConvolveSequenceReport)
    assert fold.tv_norm() <= mus[0].tv_norm() * mus[1].tv_norm() + 1e-12
    assert report.second_moment_sum == pytest.approx(0.6 * 1 + 0.4 * 4)
    assert report.centered_violations == ()


def test_convolve_sequence_warns_on_uncentered():
    with pytest.warns(UserWarning):
        convolve_sequence([meas({1: 1.0})], tol=1e-9)


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
    e = exp_measure(mu, tol=1e-12)
    assert abs(e.total_mass() - cmath.exp(mu.total_mass())) < 1e-8


@settings(max_examples=40, deadline=None)
@given(
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    st.integers(min_value=1, max_value=5),
)
def test_tv_of_exp_of_odd_measure_is_symmetric(z, s):
    mu = meas({s: z, -s: -z})
    tv = exp_measure(mu, tol=1e-12).total_variation()
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
    tol = 1e-12 * sum(abs(z) for z in x.values())
    indices = set(x) | {-j for j in x}
    if all(abs(x.get(j, 0j) - x.get(-j, 0j)) <= tol for j in indices):
        return "symmetric"
    if all(abs(x.get(j, 0j) + x.get(-j, 0j)) <= tol for j in indices):
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


@settings(max_examples=40, deadline=None)
@given(mirrored_dicts(), wide_dicts, st.floats(-10, 10))
def test_dense_measure_matches_dict_oracle(x, y, u):
    mx = meas(x, unit=ORACLE_UNIT)
    my = meas(y, unit=ORACLE_UNIT)
    assert dict(mx.weights) == _atoms(x)
    assert len(mx) == len(_atoms(x))
    assert dict(mx.add(my).weights) == _atoms(_oracle_add(x, y))
    assert dict(mx.total_variation().weights) == {j: abs(z) for j, z in x.items()}
    assert mx.symmetry_class() == _oracle_symmetry(x)

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
