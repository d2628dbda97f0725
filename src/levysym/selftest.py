"""Randomized property sweeps over the measure algebra and term measures.

Shared by the CLI self-test command and the acceptance suite.  Each sweep
draws reproducible random inputs, checks the algebra laws / moment
identities / measure properties at fixed tolerances, and reports one line
per property family.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import checks
from .measures import LatticeComplexMeasure, _modulus, dirac, exp_measure

ALGEBRA_TOL = 1e-12
EXP_IDENTITY_TOL = 1e-8


@dataclass(frozen=True)
class SweepResult:
    passed: bool
    lines: tuple[str, ...]
    worst: dict


def _random_measure(rng, max_atoms: int = 6, span: int = 8,
                    norm_cap: float = 3.0) -> LatticeComplexMeasure:
    count = int(rng.integers(1, max_atoms + 1))
    idx = rng.integers(-span, span + 1, size=count)
    w = rng.normal(size=count) + 1j * rng.normal(size=count)
    lo = int(idx.min())
    a = np.zeros(int(idx.max()) - lo + 1, dtype=np.complex128)
    for j, z in zip(idx.tolist(), w.tolist()):  # a repeated index keeps its last draw
        a[j - lo] = z
    tv = float(_modulus(a).sum())
    if tv > norm_cap:
        a *= complex(norm_cap * rng.uniform(0.2, 1.0) / tv)
    return LatticeComplexMeasure.from_array(1.0, "unit", lo, a)


def _max_gap(x: LatticeComplexMeasure, y: LatticeComplexMeasure) -> float:
    """Largest atom-wise modulus of x - y."""
    return (x - y).sup_norm()


def _check_trials(trials) -> None:
    if isinstance(trials, bool) or not isinstance(trials, numbers.Integral) or trials < 1:
        raise ValueError(f"a sweep needs an integer trial count >= 1, got {trials!r}")


def measure_algebra_sweep(trials: int = 500, seed: int = 2024) -> SweepResult:
    """Banach-algebra laws, Fourier homomorphism, total-variation laws,
    exponential moment identities, and total-variation symmetry."""
    _check_trials(trials)
    rng = np.random.default_rng(seed)
    delta0 = dirac(0)
    worst = {
        "commutative": 0.0, "associative": 0.0, "unit": 0.0,
        "submultiplicative": 0.0, "fourier_hom": 0.0, "tv_domination": 0.0,
        "orthogonal_additivity": 0.0, "atom_bound": 0.0,
        "exp_mass": 0.0, "exp_first_moment": 0.0, "exp_second_moment": 0.0,
        "odd_exp_tv_symmetry": 0.0,
    }
    for _ in range(trials):
        mu = _random_measure(rng)
        nu = _random_measure(rng)
        rho = _random_measure(rng, max_atoms=3)
        u = float(rng.uniform(-10.0, 10.0))

        ab = mu.convolve(nu)
        ba = nu.convolve(mu)
        worst["commutative"] = max(worst["commutative"], _max_gap(ab, ba))
        lhs = ab.convolve(rho)
        rhs = mu.convolve(nu.convolve(rho))
        worst["associative"] = max(worst["associative"], _max_gap(lhs, rhs))
        worst["unit"] = max(worst["unit"], _max_gap(mu.convolve(delta0), mu))
        worst["submultiplicative"] = max(
            worst["submultiplicative"], ab.tv_norm() - mu.tv_norm() * nu.tv_norm()
        )
        worst["fourier_hom"] = max(
            worst["fourier_hom"], abs(ab.fourier(u) - mu.fourier(u) * nu.fourier(u))
        )
        # |mu * nu| <= |mu| * |nu| atom-wise
        tv_mu = mu.total_variation()
        tv_conv = ab.total_variation()
        conv_tv = tv_mu.convolve(nu.total_variation())
        _, excess = (tv_conv - conv_tv).atoms()
        worst["tv_domination"] = max(
            worst["tv_domination"], float(excess.real.max(initial=0.0))
        )
        # orthogonal (disjoint-support) additivity of total variation
        far = nu.shift(int(rng.integers(30, 60)))
        both = mu.add(far).total_variation()
        split = tv_mu.add(far.total_variation())
        worst["orthogonal_additivity"] = max(
            worst["orthogonal_additivity"], _max_gap(both, split)
        )
        # |mu({x})| <= |mu|({x})
        _, w = mu.atoms()
        _, tv_w = tv_mu.atoms()
        worst["atom_bound"] = max(
            worst["atom_bound"], float((_modulus(w) - tv_w.real).max(initial=0.0))
        )
        # exponential moment identities (mass / first / second); the series
        # tail is amplified by atom locations squared in the second moment,
        # so the truncation runs well below the identity tolerance
        emu, _ = exp_measure(mu, 1e-14)
        mass = mu.total_mass()
        m1 = mu.moment(1)
        m2 = mu.moment(2)
        worst["exp_mass"] = max(
            worst["exp_mass"], abs(emu.total_mass() - np.exp(mass))
        )
        worst["exp_first_moment"] = max(
            worst["exp_first_moment"], abs(emu.moment(1) - m1 * np.exp(mass))
        )
        worst["exp_second_moment"] = max(
            worst["exp_second_moment"],
            abs(emu.moment(2) - (m2 + m1 * m1) * np.exp(mass)),
        )
        # |exp(z(delta_s - delta_-s))| is symmetric
        z = complex(rng.normal(), rng.normal())
        if abs(z) > 1.5:
            z *= 1.5 / abs(z)
        s_idx = int(rng.integers(1, 6))
        odd_a = np.zeros(2 * s_idx + 1, dtype=np.complex128)
        odd_a[0], odd_a[-1] = -z, z
        odd = LatticeComplexMeasure.from_array(1.0, "unit", -s_idx, odd_a)
        tv_exp = exp_measure(odd, 1e-12)[0].total_variation()
        worst["odd_exp_tv_symmetry"] = max(
            worst["odd_exp_tv_symmetry"], (tv_exp - tv_exp.mirror()).sup_norm()
        )
    exp_keys = {"exp_mass", "exp_first_moment", "exp_second_moment"}
    lines = []
    passed = True
    for key, val in worst.items():
        tol = EXP_IDENTITY_TOL if key in exp_keys else ALGEBRA_TOL
        ok = val <= tol
        passed &= ok
        lines.append(
            f"{'PASS' if ok else 'FAIL'} measure[{key}]: worst {val:.3e} (tol {tol:.0e})"
        )
    return SweepResult(passed, tuple(lines), worst)


def term_measure_sweep(trials: int = 200, seed: int = 2025) -> SweepResult:
    """Random (a, b, spacing, t) with Re(a) >= |b|: the four term-measure
    properties on a 101-point x grid."""
    _check_trials(trials)
    rng = np.random.default_rng(seed)
    worst = {"fourier": 0.0, "tv_excess": 0.0, "first_moment": 0.0,
             "second_excess": 0.0}
    passed = True
    for _ in range(trials):
        b = complex(rng.normal(), rng.normal())
        if abs(b) > 2.0:
            b *= 2.0 * rng.uniform(0.1, 1.0) / abs(b)
        a = complex(abs(b) + rng.uniform(0.0, 2.0), rng.normal())
        spacing = float(rng.uniform(0.2, 3.0))
        t = float(rng.uniform(0.0, 1.0))
        kind = "cos" if rng.uniform() < 0.5 else "sin"
        P, _ = checks.term_measure(a, b, kind, spacing, 1, t, tol=1e-12)
        xgrid = np.linspace(-3.0 / spacing, 3.0 / spacing, 101)
        rep = checks.verify_term_measure(P, a, b, kind, spacing, t, xgrid)
        worst["fourier"] = max(worst["fourier"], rep.fourier_error)
        worst["tv_excess"] = max(worst["tv_excess"], rep.tv_norm - 1.0)
        worst["first_moment"] = max(worst["first_moment"], rep.first_abs_moment)
        worst["second_excess"] = max(
            worst["second_excess"], rep.second_abs_moment - rep.second_moment_bound
        )
        passed &= rep.all_ok and rep.hypothesis_ok
    lines = (
        f"{'PASS' if passed else 'FAIL'} term_measure sweep ({trials} draws): "
        f"fourier {worst['fourier']:.3e}, tv excess {worst['tv_excess']:.3e}, "
        f"centering {worst['first_moment']:.3e}, second-moment excess "
        f"{worst['second_excess']:.3e}",
    )
    return SweepResult(passed, lines, worst)
