"""The quantum chi-square of a constellation's channel output and the
chi-square bound on the Holevo-information gap.

The quantum chi-square of rho_m^B against tau_N' is a double sum over the
constellation of a Gaussian kernel R, evaluated in extended precision by the
same routine as the classical kernel double sum.  On a product
constellation R factorizes into one classical AWGN kernel per quadrature, so
1 + chi^2 is the square of the classical 1 + chi^2; the gap bound rests on
that factorization and needs only the classical kernel.
"""

from __future__ import annotations

from mpmath import mp, mpf

from .channel import ChannelParams
from .constellations import (_DPS, ComplexConstellation, RealConstellation,
                             _gaussian_kernel_chi2, classical_chi2_kernel)


def quantum_chi2_constellation(p: ChannelParams, Q: ComplexConstellation) -> float:
    """chi^2(rho_m^B, tau_N') by the constellation double sum
    1 + chi^2 = sum_{z z'} Q(z) Q(z') R_{N'}(z, z').

    High-precision accumulation: the sum is O(1) while chi^2 can be far below
    double-precision resolution of the trailing -1.  The kernel coefficients
    are re-derived in working precision from (k, N0, N) and the -1 is folded
    into each term as Q_i Q_j (R_ij - 1); both steps keep input-rounding
    effects quadratic instead of linear, which matters once chi^2 drops
    under ~1e-16.
    """
    with mp.workdps(_DPS):
        k2 = mpf(p.k) ** 2
        Nc = (1 - k2) * mpf(p.N0)
        Np = k2 * mpf(p.N) + Nc
        denom = Np + 2 * Np * Nc - Nc * Nc
        result = _gaussian_kernel_chi2(
            Q.points, Q.probs, Np * (Np + 1) / denom,
            k2 * (Np - Nc) / denom, k2 * mp.sqrt(Np * (Np + 1)) / denom)
    if result < -1e-12:
        raise ValueError(f"quantum chi-square came out negative: {result}")
    return result


def delta_B_bound(p: ChannelParams, c: RealConstellation) -> float:
    """Upper bound on the Holevo-information gap:
    (1 + chi^2(P_{Y_m}, P_Y))^2 - 1, both quadratures contributing one
    classical factor each."""
    return _gap_bound(classical_chi2_kernel(c, p.s))


def _gap_bound(x: float) -> float:
    """(1 + x)^2 - 1 for the classical chi-square x of one quadrature,
    computed as x (x + 2) to avoid cancellation."""
    return x * (x + 2.0)
