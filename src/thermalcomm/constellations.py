"""Finite constellations approximating a standard normal, and their
chi-square divergence through an AWGN channel.

Four real constellations are provided (equilattice, quantile, random walk,
Gauss-Hermite).  Each has mean 0 and variance 1 exactly, so the derived
complex product constellation matches the first two moments of the thermal
state it emulates.  The chi-square divergence of the constellation's AWGN
output from the Gaussian output is computed by a closed-form kernel double
sum in extended precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure

_DPS = 50  # digits for the kernel double sums; chi2 can be ~1e-30


@dataclass(frozen=True, eq=False)
class RealConstellation:
    """``m`` real points with probabilities approximating N(0, 1)."""

    points: np.ndarray
    probs: np.ndarray
    kind: str
    m = property(lambda self: len(self.points))


@dataclass(frozen=True, eq=False)
class ComplexConstellation:
    """m^2 complex points emulating the P function of a thermal state."""

    points: np.ndarray
    probs: np.ndarray


def _finalize(points: np.ndarray, probs: np.ndarray, kind: str) -> RealConstellation:
    points = np.asarray(points, dtype=float)
    probs = np.asarray(probs, dtype=float)
    # a weight that underflows to 0 silently drops its point
    if not np.all(probs > 0.0):
        raise NumericFailure(f"{kind} weights underflow at m = {len(probs)}")
    points.setflags(write=False)
    probs.setflags(write=False)
    return RealConstellation(points=points, probs=probs, kind=kind)


def _check_m(m: int) -> None:
    if m < 2:
        raise ValueError(f"constellation needs m >= 2 points, got {m}")


def make_equilattice(m: int) -> RealConstellation:
    """m equally-spaced, equally-likely points with unit variance."""
    _check_m(m)
    delta = math.sqrt(12.0 / (m * m - 1.0))
    points = delta * (np.arange(m) - (m - 1) / 2.0)
    probs = np.full(m, 1.0 / m)
    return _finalize(points, probs, "equilattice")


def make_quantile(m: int) -> RealConstellation:
    """Midpoint-quantile points of the standard normal, equally likely,
    rescaled by a single factor so the variance is exactly 1."""
    from scipy.special import ndtri

    _check_m(m)
    raw = ndtri((2.0 * np.arange(1, m + 1) - 1.0) / (2.0 * m))
    raw = (raw - raw[::-1]) / 2.0  # enforce exact symmetry
    probs = np.full(m, 1.0 / m)
    var = float(probs @ raw**2)
    return _finalize(raw / math.sqrt(var), probs, "quantile")


def make_random_walk(m: int) -> RealConstellation:
    """Positions of an (m-1)-step symmetric random walk, rescaled to unit
    variance; probabilities are exact binomial weights."""
    _check_m(m)
    j = np.arange(m)
    points = (2.0 * j - (m - 1)) / math.sqrt(m - 1)
    # int true division: correctly rounded, and finite where 2.0**(m-1) is not
    probs = np.array([math.comb(m - 1, int(i)) / 2 ** (m - 1) for i in j])
    return _finalize(points, probs, "random_walk")


def make_gauss_hermite(m: int) -> RealConstellation:
    """Gauss-Hermite nodes and weights for the standard normal weight
    (probabilists' convention), via the Jacobi-matrix eigenproblem."""
    from scipy.linalg import eigh_tridiagonal

    _check_m(m)
    try:
        nodes, vecs = eigh_tridiagonal(np.zeros(m), np.sqrt(np.arange(1.0, m)))
    except np.linalg.LinAlgError as e:  # pragma: no cover - scipy is robust here
        raise NumericFailure("Gauss-Hermite eigensolver did not converge") from e
    weights = vecs[0] ** 2
    # restore exact +/- symmetry (eigensolver output is symmetric only to
    # machine precision)
    nodes = (nodes - nodes[::-1]) / 2.0
    weights = (weights + weights[::-1]) / 2.0
    weights /= weights.sum()
    return _finalize(nodes, weights, "gauss_hermite")


_MAKERS = {
    "equilattice": make_equilattice,
    "quantile": make_quantile,
    "random_walk": make_random_walk,
    "gauss_hermite": make_gauss_hermite,
}
KINDS = tuple(_MAKERS)


def make_constellation(kind: str, m: int) -> RealConstellation:
    """Dispatch on the constellation kind name."""
    if kind not in _MAKERS:
        raise ValueError(f"unknown constellation kind {kind!r}; choose from {KINDS}")
    return _MAKERS[kind](m)


def classical_chi2_kernel(c: RealConstellation, s: float) -> float:
    """chi^2 of the constellation's AWGN(s) output from the Gaussian output,
    by the closed-form kernel double sum
    1 + chi^2 = sum_ij p_i p_j K_s(x_i, x_j).

    Evaluated in high precision: the sum is O(1) while chi^2 itself can be
    as small as 1e-30, so the trailing -1 cancels catastrophically in double
    (see ``_gaussian_kernel_chi2``).
    """
    from mpmath import mp, mpf

    if s <= 0.0:
        raise ValueError(f"signal-to-noise ratio s must be > 0, got {s}")
    with mp.workdps(_DPS):
        ss = mpf(s)
        a = ss / (2 * (1 + 2 * ss))
        # -a (s (x - x')^2 - 2 x x') = -a s (x^2 + x'^2) + 2 a (1 + s) x x'
        return _gaussian_kernel_chi2(c.points, c.probs,
                                     (1 + ss) / mp.sqrt(1 + 2 * ss),
                                     a * ss, a * (1 + ss))


def _gaussian_kernel_chi2(points, probs, pref, A, B) -> float:
    """sum_ij p_i p_j (pref exp(-A (|u_i|^2 + |u_j|^2) + 2 B <u_i, u_j>) - 1)
    over real or complex points u, accumulated at ``_DPS`` digits.

    Every chi-square kernel double sum has this form.  The -1 is folded into
    each term, so the (sum p)^2 - 1 rounding offset of the stored
    probabilities never enters: that offset is linear in the input rounding
    while every other term enters squared.  Call inside ``mp.workdps(_DPS)``
    with ``pref``, ``A`` and ``B`` already derived in working precision.

    The sum runs on libmp's mpf tuples at ``mp.prec``, rounding to nearest.
    e_i = exp(-A |u_i|^2) and p_i are formed once per point, so term (i, j)
    is p_i p_j (pref e_i e_j exp(2B <u_i, u_j>) - 1).  Each unordered pair
    i <= j is summed once.  The mirror fold: when points[::-1] == -points
    and probs[::-1] == probs hold exactly, as for every constellation and
    product constellation, term (i, j) equals term (n-1-j, n-1-i) at every
    digit, so row i needs only j <= n-1-i, and each term off that
    antidiagonal counts twice.  The reciprocal pair: then u_{n-1-j} = -u_j
    exactly, so <u_i, u_{n-1-j}> = -<u_i, u_j>, e_{n-1-j} = e_j and
    p_{n-1-j} = p_j, and term (i, n-1-j), which takes the same weight as
    (i, j), is p_i p_j (pref e_i e_j / exp(2B <u_i, u_j>) - 1).  So j runs
    only to the middle, j <= n-1-j, and one exponential serves j and its
    partner n-1-j.  Both steps reorder the 50-digit sum only; any other
    input takes the full loop, one exponential per pair.  The total is
    rounded to the nearest double, as ``float(mpf)`` does: libmp's
    ``to_float`` rounds down by default.
    """
    from mpmath import mp
    from mpmath.libmp import (fone, fzero, from_float, mpf_add, mpf_div,
                              mpf_exp, mpf_mul, mpf_shift, mpf_sub, to_float)

    pts, wts = np.asarray(points), np.asarray(probs)
    mirror = np.array_equal(pts[::-1], -pts) and np.array_equal(wts[::-1], wts)
    prec = mp.prec

    def dot(a, b):
        return mpf_add(mpf_mul(a[0], b[0], prec, "n"),
                       mpf_mul(a[1], b[1], prec, "n"), prec, "n")

    u = [(from_float(z.real), from_float(z.imag)) for z in map(complex, pts)]
    p = [from_float(q) for q in wts.tolist()]
    e = [mpf_exp(mpf_mul((-A)._mpf_, dot(v, v), prec, "n"), prec, "n")
         for v in u]
    two_b, n = mpf_shift(B._mpf_, 1), len(u)
    stop = (n + 1) // 2 if mirror else n
    total = fzero
    for i in range(stop):
        ei = mpf_mul(pref._mpf_, e[i], prec, "n")
        for j in range(i, stop):
            c = mpf_exp(mpf_mul(two_b, dot(u[i], u[j]), prec, "n"), prec, "n")
            ee, pp = mpf_mul(ei, e[j], prec, "n"), mpf_mul(p[i], p[j], prec, "n")
            kernels = [mpf_mul(ee, c, prec, "n")]
            if mirror and j != n - 1 - j:
                kernels.append(mpf_div(ee, c, prec, "n"))
            # weight 2 off the diagonal, times 2 off the fold's antidiagonal
            log2_weight = (j != i) + (mirror and j != n - 1 - i)
            for kij in kernels:
                term = mpf_mul(pp, mpf_sub(kij, fone, prec, "n"), prec, "n")
                total = mpf_add(total, mpf_shift(term, log2_weight), prec, "n")
    return to_float(total, rnd="n")


def product_constellation(c: RealConstellation, N: float) -> ComplexConstellation:
    """Complex constellation sqrt(N/2) (x_j + i x_k) with product weights,
    emulating the P function of a thermal state of mean photon number N."""
    if N <= 0.0:
        raise ValueError(f"mean photon number N must be > 0, got {N}")
    scale = math.sqrt(N / 2.0)
    zx, zy = np.meshgrid(c.points, c.points, indexing="ij")
    points = scale * (zx + 1j * zy).ravel()
    probs = np.outer(c.probs, c.probs).ravel()
    points.setflags(write=False)
    probs.setflags(write=False)
    return ComplexConstellation(points=points, probs=probs)
