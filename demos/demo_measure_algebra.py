"""Tour of the lattice complex-measure algebra.

Convolution is exact (integer index addition), the Fourier transform is an
algebra homomorphism, the total variation of an atomic measure is the
atom-wise modulus, and the truncated convolution exponential obeys the
mass/moment identities with an explicit tail bound.
"""

import cmath

from levysym import LatticeComplexMeasure, exp_measure
from levysym.measures import to_csv

half = LatticeComplexMeasure(1.0, "unit", {1: 0.5, -1: 0.5})
print("mu = (delta_1 + delta_-1)/2")
print("  tv norm      :", half.tv_norm())
print("  fourier(2.0) :", half.fourier(2.0), " (= cos 2)")

conv = half.convolve(half)
print("mu * mu weights:", dict(conv.weights))

e, report = exp_measure(half, tol=1e-12)
print(f"\nexp(mu): {len(e)} atoms from {report.terms} series terms "
      f"(tail bound {report.tail_bound:.1e})")
print("  mass          :", e.total_mass(), " (= e)")
print("  second moment :", e.moment(2), " (= e, since mu is centered, var 1)")
print("  fourier(u) = exp(cos u):",
      abs(e.fourier(0.7) - cmath.exp(cmath.cos(0.7))) < 1e-12)

odd = LatticeComplexMeasure(1.0, "unit", {2: 0.3 - 1j, -2: -(0.3 - 1j)})
tv = exp_measure(odd, 1e-12)[0].total_variation()
print("\n|exp(z(delta_s - delta_-s))| minus its mirror, largest atom:",
      (tv - tv.mirror()).sup_norm())

print("\nCSV form of mu:")
print(to_csv(half))
