"""Finite constellations approximating a standard normal, and their
chi-square divergence through an AWGN channel.

Four real constellations are provided (equilattice, quantile, random walk,
Gauss-Hermite).  Each has mean 0 and variance 1 exactly, so the derived
complex product constellation matches the first two moments of the thermal
state it emulates.  The chi-square divergence of the constellation's AWGN
output from the Gaussian output is computed by a closed-form kernel double
sum over the real points in extended precision.  The quantum chi-square of
a product constellation needs no sum over its complex points: its kernel
factorizes into one such classical kernel per quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure

_DPS = 50  # digits for the kernel double sums; chi2 can be ~1e-30


@dataclass(frozen=True, eq=False)
class RealConstellation:
    """``m`` real points with probabilities approximating N(0, 1).  Points
    and probs that are not real, finite and 1-D of one length raise
    ``ValueError``: the kernel sum would return NaN or a wrong number."""

    points: np.ndarray
    probs: np.ndarray
    kind: str
    m = property(lambda self: len(self.points))

    def __post_init__(self):
        x, q = np.asarray(self.points), np.asarray(self.probs)
        if not (x.ndim == 1 and x.shape == q.shape and all(
                np.isrealobj(a) and np.isfinite(a).all() for a in (x, q))):
            raise ValueError("points and probs must be real, finite and 1-D "
                             f"of one length, got {x!r} and {q!r}")


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


# cephes ndtri's rational approximations, highest power first: P0/Q0 in
# y - 1/2, then P1/Q1 and P2/Q2 in 1/sqrt(-2 log y), split at 8
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
             -5.66762857469070293439e1, 1.39312609387279679503e1,
             -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
             8.63602421390890590575e1, -2.25462687854119370527e2,
             2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
             5.71628192246421288162e1, 4.40805073893200834700e1,
             1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2,
             -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
             4.13172038254672030440e1, 1.50425385692907503408e1,
             2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
             3.93881025292474443415e0, 1.33303460815807542389e0,
             2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6,
             6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0,
             1.37702099489081330271e0, 2.16236993594496635890e-1,
             1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)


def _polevl(x: float, coef, lead: float = 0.0) -> float:
    """cephes' ``polevl`` by Horner, or with ``lead`` 1 its ``p1evl``, whose
    leading coefficient 1 is implied: 0 x + c and 1 x + c are exact, so the
    first step rounds as cephes' does."""
    for c in coef:
        lead = lead * x + c
    return lead


def _ndtri(y0: float) -> float:
    """The standard normal quantile of y0 in [0, 1], bit for bit
    ``scipy.special.ndtri``: the algorithm of cephes' ``ndtri`` (S. L.
    Moshier, Cephes Math Library, ndtri.c), which scipy runs.  Within
    exp(-2) of neither end, y0 - 1/2 goes through P0/Q0; nearer an end,
    x = sqrt(-2 log y) of the nearer tail y goes through P1/Q1 in 1/x below
    x = 8 and P2/Q2 above.  ``math.log``, since numpy's vectorized log may
    round differently from libm's."""
    if y0 <= 0.0 or y0 >= 1.0:  # a NaN y0 runs on, as in cephes
        return -math.inf if y0 == 0.0 else math.inf if y0 == 1.0 else math.nan
    upper = y0 > 1.0 - _EXP_M2
    y = 1.0 - y0 if upper else y0
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0, 1.0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    p, q = (_NDTRI_P1, _NDTRI_Q1) if x < 8.0 else (_NDTRI_P2, _NDTRI_Q2)
    x = x - math.log(x) / x - z * _polevl(z, p) / _polevl(z, q, 1.0)
    return x if upper else -x


def make_quantile(m: int) -> RealConstellation:
    """Midpoint-quantile points of the standard normal, equally likely,
    rescaled by a single factor so the variance is exactly 1."""
    _check_m(m)
    y = (2.0 * np.arange(1, m + 1) - 1.0) / (2.0 * m)
    raw = np.array([_ndtri(y0) for y0 in y.tolist()])
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
    (probabilists' convention), via the Jacobi-matrix eigenproblem: its
    subdiagonal is sqrt(1), ..., sqrt(m - 1), and ``np.linalg.eigh`` reads
    the lower triangle.  Its nodes and squared first eigenvector components
    have the bits of ``scipy.linalg.eigh_tridiagonal``'s."""
    _check_m(m)
    try:
        nodes, vecs = np.linalg.eigh(np.diag(np.sqrt(np.arange(1.0, m)), -1))
    except np.linalg.LinAlgError as e:  # pragma: no cover - LAPACK is robust here
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
    1 + chi^2 = sum_ij p_i p_j K_s(x_i, x_j), with
    K_s(x, x') = pref exp(-A (x^2 + x'^2) + 2 B x x'),
    pref = (1 + s) / sqrt(1 + 2s), A = a s, B = a (1 + s), a = s / (2 + 4s).

    Evaluated at ``_DPS`` digits: the sum is O(1) while chi^2 itself can be
    as small as 1e-30, so the trailing -1 cancels catastrophically in
    double.  The -1 is folded into each term, p_i p_j (K_ij - 1), so the
    (sum p)^2 - 1 rounding offset of the stored probabilities never enters:
    that offset is linear in the input rounding while every other term
    enters squared.  mpmath is imported here, on the first call, so a run
    that takes no chi-square loads none.

    The sum runs on libmp's mpf values at the working precision, rounding
    to nearest.  e_i = exp(-A x_i^2) and p_i are formed once per point, so
    term (i, j) is p_i p_j (pref e_i e_j exp(2B x_i x_j) - 1).  Each
    unordered pair i <= j is summed once.  The mirror fold: when
    points[::-1] == -points and probs[::-1] == probs hold exactly, as for
    every constellation of the four kinds, term (i, j) equals term
    (n-1-j, n-1-i) at every digit, so row i needs only j <= n-1-i, and
    each term off that antidiagonal counts twice.  The reciprocal pair:
    then x_{n-1-j} = -x_j exactly, so e_{n-1-j} = e_j, p_{n-1-j} = p_j,
    and term (i, n-1-j), which takes the same weight as (i, j), is
    p_i p_j (pref e_i e_j / exp(2B x_i x_j) - 1).  So j runs only to the
    middle, j <= n-1-j, and one exponential serves j and its partner
    n-1-j.  Both steps reorder the 50-digit sum only; any other
    constellation takes the full loop, one exponential per pair.  The
    total is rounded to the nearest double, as ``float(mpf)`` does:
    libmp's ``to_float`` rounds down by default.
    """
    from mpmath import mp, mpf
    from mpmath.libmp import (fone, fzero, from_float, mpf_add, mpf_div,
                              mpf_exp, mpf_mul, mpf_shift, mpf_sub, to_float)

    if not 0.0 < s < math.inf:
        raise ValueError(f"SNR s must be finite and > 0, got {s}")
    pts, wts = np.asarray(c.points), np.asarray(c.probs)
    mirror = np.array_equal(pts[::-1], -pts) and np.array_equal(wts[::-1], wts)
    with mp.workdps(_DPS):
        prec, ss = mp.prec, mpf(s)
        a = ss / (2 * (1 + 2 * ss))
        pref = ((1 + ss) / mp.sqrt(1 + 2 * ss))._mpf_
        neg_a, two_b = (-(a * ss))._mpf_, mpf_shift((a * (1 + ss))._mpf_, 1)
    x = [from_float(v) for v in pts.tolist()]
    p = [from_float(q) for q in wts.tolist()]
    e = [mpf_exp(mpf_mul(neg_a, mpf_mul(v, v, prec, "n"), prec, "n"),
                 prec, "n") for v in x]
    n = len(x)
    stop = (n + 1) // 2 if mirror else n
    total = fzero
    for i in range(stop):
        ei = mpf_mul(pref, e[i], prec, "n")
        for j in range(i, stop):
            g = mpf_exp(mpf_mul(two_b, mpf_mul(x[i], x[j], prec, "n"), prec,
                                "n"), prec, "n")
            ee, pp = mpf_mul(ei, e[j], prec, "n"), mpf_mul(p[i], p[j], prec, "n")
            kernels = [mpf_mul(ee, g, prec, "n")]
            if mirror and j != n - 1 - j:
                kernels.append(mpf_div(ee, g, prec, "n"))
            # weight 2 off the diagonal, times 2 off the fold's antidiagonal
            log2_weight = (j != i) + (mirror and j != n - 1 - i)
            for kij in kernels:
                term = mpf_mul(pp, mpf_sub(kij, fone, prec, "n"), prec, "n")
                total = mpf_add(total, mpf_shift(term, log2_weight), prec, "n")
    return to_float(total, rnd="n")


def product_constellation(c: RealConstellation, N: float) -> ComplexConstellation:
    """Complex constellation sqrt(N/2) (x_j + i x_k) with product weights,
    emulating the P function of a thermal state of mean photon number N."""
    if not 0.0 < N < math.inf:
        raise ValueError(f"photon number N must be finite and > 0, got {N}")
    scale = math.sqrt(N / 2.0)
    zx, zy = np.meshgrid(c.points, c.points, indexing="ij")
    points = scale * (zx + 1j * zy).ravel()
    probs = np.outer(c.probs, c.probs).ravel()
    points.setflags(write=False)
    probs.setflags(write=False)
    return ComplexConstellation(points=points, probs=probs)
