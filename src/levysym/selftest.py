"""Randomized property sweeps over the measure algebra and term measures.

Shared by the CLI self-test command and the acceptance suite.  Each sweep
draws reproducible random inputs, checks the algebra laws / moment
identities / measure properties at fixed tolerances, and reports one line
per property family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import checks
from .measures import LatticeComplexMeasure, dirac, exp_measure

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
    mu = LatticeComplexMeasure(1.0, "unit", dict(zip((int(i) for i in idx), w)))
    tv = mu.tv_norm()
    if tv > norm_cap:
        mu = mu.scale(norm_cap * rng.uniform(0.2, 1.0) / tv)
    return mu


def _max_gap(x: LatticeComplexMeasure, y: LatticeComplexMeasure) -> float:
    """Largest atom-wise modulus of x - y."""
    return max((abs(w) for w in (x - y).weights.values()), default=0.0)


def measure_algebra_sweep(trials: int = 500, seed: int = 2024) -> SweepResult:
    """Banach-algebra laws, Fourier homomorphism, total-variation laws,
    exponential moment identities, and total-variation symmetry."""
    rng = np.random.default_rng(seed)
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
        worst["unit"] = max(worst["unit"], _max_gap(mu.convolve(dirac(0)), mu))
        worst["submultiplicative"] = max(
            worst["submultiplicative"], ab.tv_norm() - mu.tv_norm() * nu.tv_norm()
        )
        worst["fourier_hom"] = max(
            worst["fourier_hom"], abs(ab.fourier(u) - mu.fourier(u) * nu.fourier(u))
        )
        # |mu * nu| <= |mu| * |nu| atom-wise
        tv_conv = ab.total_variation()
        conv_tv = mu.total_variation().convolve(nu.total_variation())
        worst["tv_domination"] = max(
            worst["tv_domination"],
            max((w.real for w in (tv_conv - conv_tv).weights.values()), default=0.0),
        )
        # orthogonal (disjoint-support) additivity of total variation
        shift = int(rng.integers(30, 60))
        far = LatticeComplexMeasure(
            1.0, "unit", {j + shift: w for j, w in nu.weights.items()}
        )
        both = mu.add(far).total_variation()
        split = mu.total_variation().add(far.total_variation())
        worst["orthogonal_additivity"] = max(
            worst["orthogonal_additivity"], _max_gap(both, split)
        )
        # |mu({x})| <= |mu|({x})
        tv_mu = mu.total_variation().weights
        worst["atom_bound"] = max(
            worst["atom_bound"],
            max((abs(w) - tv_mu[j].real for j, w in mu.weights.items()), default=0.0),
        )
        # exponential moment identities (mass / first / second); the series
        # tail is amplified by atom locations squared in the second moment,
        # so the truncation runs well below the identity tolerance
        emu = exp_measure(mu, 1e-14)
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
        odd = LatticeComplexMeasure(1.0, "unit", {s_idx: z, -s_idx: -z})
        tv_exp = exp_measure(odd, 1e-12).total_variation().weights
        worst["odd_exp_tv_symmetry"] = max(
            worst["odd_exp_tv_symmetry"],
            max(
                (abs(w - tv_exp.get(-j, 0j)) for j, w in tv_exp.items()),
                default=0.0,
            ),
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


def term_measure_sweep(trials: int = 200, seed: int = 2025,
                       fourier_tol: float = 1e-8) -> SweepResult:
    """Random (a, b, spacing, t) with Re(a) >= |b|: the four term-measure
    properties on a 101-point x grid."""
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
        P = checks.term_measure(a, b, kind, spacing, t, tol=1e-12)
        xgrid = np.linspace(-3.0 / spacing, 3.0 / spacing, 101)
        rep = checks.verify_term_measure(P, a, b, kind, spacing, t, xgrid,
                                         tol=fourier_tol)
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
