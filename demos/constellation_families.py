"""Tour of the four unit-variance constellation families.

Each family discretizes a standard normal in a different way: a uniform
lattice, distribution quantiles, a scaled random walk (binomial weights),
and Gauss-Hermite quadrature nodes.  The Gauss-Hermite rule is the only
one that reproduces Gaussian moments exactly up to order 2m-1, which is
what drives its exponentially small chi-square divergence.
"""

import math

import numpy as np
from numpy.polynomial import hermite_e

from thermalcomm import KINDS, make_constellation

M = 5

for kind in KINDS:
    c = make_constellation(kind, M)
    print(f"\n{kind} (m = {M})")
    print("  points:", np.array2string(c.points, precision=4))
    print("  probs: ", np.array2string(c.probs, precision=4))
    mean = float(np.dot(c.probs, c.points))
    var = float(np.dot(c.probs, c.points ** 2))
    print(f"  mean = {mean:+.2e}   variance = {var:.12f}")

print("\nNormalised Hermite moments E[He_k]/sqrt(k!) (zero = Gaussian-like):")
header = "  k:    " + "".join(f"{k:>10d}" for k in range(1, 11))
print(header)
for kind in KINDS:
    c = make_constellation(kind, M)
    cells = []
    for k in range(1, 11):
        he_k = hermite_e.hermeval(c.points, [0] * k + [1])
        val = float(c.probs @ he_k) * math.exp(-0.5 * math.lgamma(k + 1))
        cells.append(f"{val:>10.1e}")
    print(f"  {kind:<14s}" + "".join(cells))

print(f"\nThe gauss_hermite row vanishes through k = {2 * M - 1}; the others"
      f"\npick up errors from k = 3 or 4 on.")
