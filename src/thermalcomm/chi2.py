"""Closed-form chi-square kernels and the constellation double-sum quantum
chi-square.

Three kernels appear: ``kernel_K`` for the classical AWGN divergence,
``kernel_C`` for the quantum divergence of a positive-P state from a thermal
state, and ``kernel_R`` for the thermal-channel output of a coherent-state
mixture.  ``kernel_R`` factorizes into a product of ``kernel_K`` factors on
product constellations, which ties the quantum gap bound to purely classical
constellation moments.
"""

from __future__ import annotations

import math

import numpy as np
from mpmath import mp, mpf
from scipy.integrate import quad
from scipy.special import logsumexp

from .channel import ChannelParams
from .constellations import (_DPS, ComplexConstellation, RealConstellation,
                             _gaussian_kernel_chi2, classical_chi2_kernel)


def kernel_K(s: float, x: float, xp: float) -> float:
    """Classical AWGN chi-square kernel
    K_s(x, x') = (1+s)/sqrt(1+2s) exp[-s/(2(1+2s)) (s (x-x')^2 - 2 x x')]."""
    if s <= 0.0:
        raise ValueError(f"s must be > 0, got {s}")
    pref = (1.0 + s) / math.sqrt(1.0 + 2.0 * s)
    expo = -s / (2.0 * (1.0 + 2.0 * s)) * (s * (x - xp) ** 2 - 2.0 * x * xp)
    return pref * math.exp(expo)


def kernel_K_quadrature(s: float, x: float, xp: float) -> float:
    """Independent check of kernel_K by direct 1-D quadrature of
    int phi_{1+s}(y)^{-1} phi_1(y - sqrt(s) x) phi_1(y - sqrt(s) x') dy."""

    rs = math.sqrt(s)

    def integrand(y):
        # log-domain: the direct quotient of Gaussian densities is 0/0 in
        # the far tails
        log_val = (-(y - rs * x) ** 2 / 2.0 - (y - rs * xp) ** 2 / 2.0
                   + y * y / (2.0 * (1.0 + s))
                   - math.log(2.0 * math.pi)
                   + 0.5 * math.log(2.0 * math.pi * (1.0 + s)))
        return math.exp(log_val)

    # integrand is a single Gaussian bump; a wide finite window around the
    # displaced means is exact to below quadrature tolerance
    center = rs * (x + xp) / 2.0
    pad = 40.0 * max(1.0, math.sqrt(1.0 + s))
    val, _ = quad(integrand, center - pad, center + pad,
                  points=[rs * x, rs * xp], limit=200)
    return val


def classical_one_plus_chi2_quadrature(c: RealConstellation, s: float) -> float:
    """1 + chi^2(P_{Y'}, P_Y) by direct quadrature of the output densities;
    the independent oracle for the series and kernel paths."""

    rs = math.sqrt(s)
    logp = np.log(c.probs)

    def integrand(y):
        # log-domain ratio p_out(y)^2 / p_ref(y); the direct quotient
        # underflows to 0/0 in the far tails.
        log_out = logsumexp(logp - (y - rs * c.points) ** 2 / 2.0) \
            - 0.5 * math.log(2.0 * math.pi)
        log_ref = -y * y / (2.0 * (1.0 + s)) \
            - 0.5 * math.log(2.0 * math.pi * (1.0 + s))
        return math.exp(2.0 * log_out - log_ref)

    # The integrand decays at least like exp(-y^2 * s/(2(1+s))) away from
    # the outermost displaced mean, so a fixed-width window is exact to
    # well below quadrature tolerance.
    pad = 40.0 * max(1.0, math.sqrt(1.0 + s))
    lo = float(rs * c.points[0]) - pad
    hi = float(rs * c.points[-1]) + pad
    val, _ = quad(integrand, lo, hi,
                  points=list(rs * c.points), limit=400)
    return val


def kernel_C(N: float, z: complex, zp: complex) -> float:
    """Quantum chi-square kernel against tau_N for positive-P states:
    C_N(z, z') = (N+1) exp[-|z|^2 - |z'|^2 + t_N (z conj(z') + conj(z) z')]."""
    if N <= 0.0:
        raise ValueError(f"N must be > 0, got {N}")
    t = math.sqrt((N + 1.0) / N)
    expo = -abs(z) ** 2 - abs(zp) ** 2 + 2.0 * t * (z * zp.conjugate()).real
    return (N + 1.0) * math.exp(expo)


def _R_coeffs(p: ChannelParams) -> tuple[float, float, float, float]:
    """(prefactor, denominator, c, d) of the R kernel."""
    denom = p.Nprime + 2.0 * p.Nprime * p.Nc - p.Nc * p.Nc  # = d^2 - c^2
    pref = p.Nprime * (p.Nprime + 1.0) / denom
    return pref, denom, p.cgap, p.dgap


def kernel_R(p: ChannelParams, z: complex, zp: complex) -> float:
    """Thermal-channel output kernel: the inner Gaussian integral of
    C_{N'} over the two displaced-thermal P functions, in closed form.
    Its prefactor equals (1+s)^2/(1+2s)."""
    pref, denom, c, d = _R_coeffs(p)
    expo = -p.k * p.k * (
        c * (abs(z) ** 2 + abs(zp) ** 2) - d * 2.0 * (z * zp.conjugate()).real
    ) / denom
    return pref * math.exp(expo)


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
