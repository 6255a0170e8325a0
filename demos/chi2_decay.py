"""Chi-square divergence and the capacity-gap bound vs constellation size.

The classical chi-square of an m-point Gauss-Hermite output against the
Gaussian output starts at series order 2m (all lower moments are exact),
so the gap bound decays geometrically in m.  The realized entropy gap
delta_B sits well under the bound.  Both are printed with their local
log-slopes so the decay rates can be read off directly.
"""

import math

import thermalcomm as tc

p = tc.channel_params(0.8, 0.0, 7.0)
print(f"channel SNR s = {p.s:.4f},  r = s/(1+s) = {p.s / (1 + p.s):.4f}")
print(f"per-step log-decay of the series head: 2 ln(1/r) = "
      f"{2 * math.log((1 + p.s) / p.s):.4f}\n")

print(f"{'m':>3s} {'chi2':>12s} {'bound':>12s} {'delta_B(nats)':>14s} "
      f"{'bound slope':>12s}")
prev_bound = None
for m in range(2, 13):
    c = tc.make_constellation("gauss_hermite", m)
    chi2 = tc.classical_chi2_kernel(c, p.s)
    bound = tc.delta_B_bound(p, c)
    Q = tc.product_constellation(c, p.N)
    db, _ = tc.delta_B(p, Q)
    slope = "" if prev_bound is None else f"{math.log(bound / prev_bound):>12.4f}"
    print(f"{m:>3d} {chi2:>12.4e} {bound:>12.4e} "
          f"{db * math.log(2):>14.4e} {slope:>12s}")
    prev_bound = bound

print("\nThe bound's log-slope settles near -0.39, about twice the"
      "\nseries-head constant -0.20: the first surviving series term has"
      "\norder 2m, so the bound decays like exp(-2cm).")
