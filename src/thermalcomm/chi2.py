"""The chi-square bound on the Holevo-information gap.

On a product constellation the quantum chi-square kernel of rho_m^B against
tau_N' factorizes into one classical AWGN kernel per quadrature, so
1 + chi^2 is the square of the classical 1 + chi^2; the gap bound rests on
that factorization and needs only the classical kernel.
"""

from __future__ import annotations

from .channel import ChannelParams
from .constellations import RealConstellation, classical_chi2_kernel


def delta_B_bound(p: ChannelParams, c: RealConstellation) -> float:
    """Upper bound on the Holevo-information gap:
    (1 + chi^2(P_{Y_m}, P_Y))^2 - 1, both quadratures contributing one
    classical factor each."""
    return _gap_bound(classical_chi2_kernel(c, p.s))


def _gap_bound(x: float) -> float:
    """(1 + x)^2 - 1 for the classical chi-square x of one quadrature,
    computed as x (x + 2) to avoid cancellation."""
    return x * (x + 2.0)
