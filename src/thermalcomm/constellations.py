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

KINDS = ("equilattice", "quantile", "random_walk", "gauss_hermite")

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


def make_constellation(kind: str, m: int) -> RealConstellation:
    """Dispatch on the constellation kind name."""
    makers = {
        "equilattice": make_equilattice,
        "quantile": make_quantile,
        "random_walk": make_random_walk,
        "gauss_hermite": make_gauss_hermite,
    }
    if kind not in makers:
        raise ValueError(f"unknown constellation kind {kind!r}; choose from {KINDS}")
    return makers[kind](m)


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

    Each unordered pair i <= j is summed once.  The mirror fold: when
    points[::-1] == -points and probs[::-1] == probs hold exactly, as for
    every constellation and product constellation, term (i, j) equals term
    (n-1-j, n-1-i) at every digit, so j stops at n-1-i and each term off
    that antidiagonal counts twice.  That reorders the 50-digit sum only;
    any other input takes the full loop.
    """
    from mpmath import mp, mpf

    pts, wts = np.asarray(points), np.asarray(probs)
    mirror = np.array_equal(pts[::-1], -pts) and np.array_equal(wts[::-1], wts)
    u = [(mpf(complex(z).real), mpf(complex(z).imag)) for z in points]
    p = [mpf(q) for q in probs]
    r2 = [x * x + y * y for x, y in u]
    n = len(u)
    total = mpf(0)
    for i in range(n):
        for j in range(i, n - i if mirror else n):
            cross = u[i][0] * u[j][0] + u[i][1] * u[j][1]
            kij = pref * mp.exp(-A * (r2[i] + r2[j]) + 2 * B * cross) - 1
            weight = ((1 if i == j else 2)
                      * (2 if mirror and j != n - 1 - i else 1))
            total += weight * p[i] * p[j] * kij
    return float(total)


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
