"""Uniqueness conditions for the product-cosine symbol, end to end.

q(x,u) = (1 - cos x)(-u^2/2) has the two-term series a0 = psi,
a_{+-1} = -psi/2.  Its dominance margin is identically zero (the example
sits exactly on the boundary), the curvature constant is K = 1/2, each
series term carries an explicit complex measure, and the convolved
majorant has transform exp(t q(., u)) with weighted mass at most 1 + K t.
"""

import math

import numpy as np

from levysym import (
    BrownianNegative,
    assemble_majorant,
    build_term_measure,
    check_dominance,
    compute_K,
    fourier_symbol_of_product_cosine,
    verify_term_measure,
)

fs = fourier_symbol_of_product_cosine(BrownianNegative())
dom = check_dominance(fs)
print(f"dominance: {'pass' if dom.passed else 'fail'} "
      f"(worst margin {dom.worst_margin:.2e} at u = {dom.worst_u})")
k_rep = compute_K(fs)
print(f"curvature constant K = {k_rep.K:.6f} (grid sup, attained at u = {k_rep.u_at})")

P, series = build_term_measure(1.0, "cos", 1.0, 1, 1.0, tol=1e-13)
rep = verify_term_measure(P, 1.0, 1.0, "cos", 1.0, 1.0, np.linspace(-3, 3, 101))
print(
    f"\nterm measure (cos, unit 1, index 1, t=1, {series.terms} series terms): "
    f"transform error {rep.fourier_error:.1e}, "
    f"tv {rep.tv_norm:.12f} <= 1, centered to {rep.first_abs_moment:.1e}, "
    f"second moment {rep.second_abs_moment:.6f} <= {rep.second_moment_bound}"
)

xgrid = np.linspace(-math.pi, math.pi, 101)
for u, t in ((1.0, 0.5), (20.0, 1.0)):
    P, mrep = assemble_majorant(fs, u, t, 1, xgrid)
    print(
        f"majorant u={u:>4}, t={t}: {len(P)} atoms, transform error "
        f"{mrep.transform_error:.1e}, weighted mass {mrep.weighted_mass:.6f} "
        f"<= {1 + 0.5 * t:.3f}"
    )
