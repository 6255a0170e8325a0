"""Independent reference implementations the tests check the library
against, and the test-only wrappers around it.  Nothing in ``thermalcomm``
calls these; each oracle computes its quantity a different way from the
library path it checks:

- ``ErasureChannel``, ``bec_bhattacharyya`` and ``bec_frozen_set``: a binary
  erasure channel and its exact frozen set, the oracle for Monte-Carlo
  polar code construction;
- ``polar_transform``: a wrapper, not an oracle: one row through the
  library butterfly, so the transform's algebraic property tests and the
  row-by-row encoding checks exercise the batched transform itself;
- ``sc_g_update``: the SC g-update b + (1 - 2u) a as one float expression,
  against the library's product with the int8 sign 1 - 2u;
- ``classical_chi2_series`` (with ``hermite_moment`` and the moment stream
  both share): the classical chi-square by the Hermite moment series,
  against the library's kernel double sum;
- ``classical_one_plus_chi2_quadrature``: the classical chi-square by direct
  quadrature of the output densities, against the series and kernel paths;
- ``gaussian_kernel_chi2_unfolded``: the chi-square kernel double sum over
  every pair i <= j, against the library's mirror-folded sum;
- ``quantum_chi2_constellation``: the quantum chi-square by the
  constellation double sum over the complex Gaussian kernel, against the
  square of the classical kernel value and the direct Fock summation;
- ``quantum_chi2_direct``: the quantum chi-square by direct summation in the
  number basis, against the constellation kernel double sum;
- ``relative_entropy_eigh_overlap``: D(rho || sigma) from both
  eigendecompositions and their overlaps |<u_i|v_j>|^2, against the
  library's -S(rho) less sum_k <v_k|rho|v_k> log2 lambda_k over sigma's
  eigenpairs, which it takes from ``eigh`` for a non-diagonal sigma and
  reads off the diagonal of a diagonal one;
- ``annihilation_matrix``: the truncated annihilation operator, for moment
  and matrix-exponential checks of the Fock layer;
- ``_laguerre_table``: one radius's Laguerre table by its own recurrence
  over every k, against the library's batched recurrence over all radii;
- ``inverse_gray``: the amplitude index of each Gray label by prefix XOR,
  against the labels and their inverse the induced channel holds.

Not collected by pytest (no ``test_`` prefix); test modules import it by
name from the tests directory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf
from scipy.integrate import quad
from scipy.special import gammaln, logsumexp

from thermalcomm.channel import ChannelParams
from thermalcomm.constellations import (_DPS, ComplexConstellation,
                                        RealConstellation,
                                        _gaussian_kernel_chi2)
from thermalcomm.errors import NumericFailure, SupportError, TruncationError
from thermalcomm.fock import EIG_FLOOR, SUPPORT_TOL, DensityOperator
from thermalcomm.polar import _check_power_of_two, _transform_batch

_LLR_BIG = 1000.0
_SERIES_TOL = 1e-30  # term envelope the Hermite series stops below
_SERIES_KMAX = 100_000  # order by which the Hermite series must stop


@dataclass(frozen=True)
class ErasureChannel:
    """BEC fixture for construction tests: one bit level, LLR 0 on erasure,
    +/- large otherwise."""

    eps: float
    levels: int = 1

    def sample_level(self, rng: np.random.Generator, level: int,
                     n: int) -> tuple[np.ndarray, np.ndarray]:
        bits = rng.integers(0, 2, size=n).astype(np.int8)
        erased = rng.random(n) < self.eps
        llr = np.where(erased, 0.0, (1.0 - 2.0 * bits) * _LLR_BIG)
        return bits, llr


def bec_bhattacharyya(eps: float, n: int) -> np.ndarray:
    """Exact Bhattacharyya parameters of the n synthetic BEC channels, in
    the decoder's natural index order (z- = 2z - z^2, z+ = z^2)."""
    stages = _check_power_of_two(n, "blocklength")
    z = np.array([eps])
    for _ in range(stages):
        out = np.empty(2 * len(z))
        out[0::2] = 2.0 * z - z * z
        out[1::2] = z * z
        z = out
    return z


def bec_frozen_set(eps: float, n: int, target_rate: float) -> np.ndarray:
    """Frozen set from the exact BEC recursion: worst channels frozen."""
    z = bec_bhattacharyya(eps, n)
    n_frozen = n - int(round(target_rate * n))
    order = np.lexsort((-np.arange(n), z))[::-1]  # worst first, low index wins ties
    return np.sort(order[:n_frozen])


def inverse_gray(v: np.ndarray) -> np.ndarray:
    """Invert the Gray code g = j ^ (j >> 1) elementwise: j is the XOR of
    every right shift of g."""
    out = v.copy()
    shift = 1
    while shift < 64:
        out = out ^ (out >> shift)
        shift <<= 1
    return out


def polar_transform(u: np.ndarray) -> np.ndarray:
    """x = u F^{x log2 n} over GF(2) in natural order; self-inverse."""
    u = np.asarray(u, dtype=np.int8) % 2
    return _transform_batch(u[None, :])[0]


def sc_g_update(a: np.ndarray, b: np.ndarray, u: np.ndarray) -> np.ndarray:
    """b + (1 - 2u) a with the sign formed in float, for decided bits u."""
    return b + (1.0 - 2.0 * u) * a


def _normalized_moment_stream(c: RealConstellation):
    """Yield (k, E[he_k], max_j he_k(x_j)^2) for k = 0, 1, 2, ... where
    he_k = He_k / sqrt(k!) is the orthonormal Hermite polynomial.

    Evaluated in extended precision: the moments of symmetric constellations
    cancel catastrophically for large k.
    """
    x = c.points.astype(np.longdouble)
    p = c.probs.astype(np.longdouble)
    h_prev = np.ones_like(x)
    h = x.copy()
    yield 0, np.longdouble(1.0), np.longdouble(1.0)
    k = 1
    while True:
        yield k, p @ h, np.max(h * h)
        h_prev, h = h, (x * h - np.sqrt(np.longdouble(k)) * h_prev) / np.sqrt(
            np.longdouble(k + 1)
        )
        k += 1


def hermite_moment(c: RealConstellation, k: int) -> float:
    """E[He_k(X)] for probabilists' Hermite polynomials.

    Internally uses the orthonormal recurrence in 80-bit precision and scales
    back by sqrt(k!); overflows to inf for k beyond roughly 300.
    """
    if k < 0:
        raise ValueError(f"Hermite order must be >= 0, got {k}")
    for kk, mom, _ in _normalized_moment_stream(c):
        if kk == k:
            scale = np.exp(np.longdouble(0.5) * np.longdouble(math.lgamma(k + 1)))
            return float(mom * scale)


def classical_chi2_series(c: RealConstellation, s: float) -> float:
    """chi^2 of the constellation's AWGN(s) output from the Gaussian output,
    by the Hermite moment series.

    The series is sum_{k>=1} (s/(1+s))^k E[he_k]^2 with nonnegative terms, so
    the running sum is a lower bound; summation stops once the geometric
    envelope (s/(1+s))^k max_j he_k(x_j)^2 stays below ``_SERIES_TOL`` for
    5 consecutive orders; ``NumericFailure`` if that has not happened by
    order ``_SERIES_KMAX``.
    """
    if s <= 0.0:
        raise ValueError(f"signal-to-noise ratio s must be > 0, got {s}")
    r = np.longdouble(s) / np.longdouble(1.0 + s)
    total = np.longdouble(0.0)
    rk = np.longdouble(1.0)
    below = 0
    for k, mom, hmax in _normalized_moment_stream(c):
        if k == 0:
            continue
        rk *= r
        term = rk * mom * mom
        if not np.isfinite(term):
            raise NumericFailure(f"chi-square series term overflowed at order {k}")
        total += term
        if rk * hmax < _SERIES_TOL:
            below += 1
            if below >= 5:
                return float(total)
        else:
            below = 0
        if k >= _SERIES_KMAX:
            raise NumericFailure(
                f"chi-square series did not converge by order {_SERIES_KMAX}")


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


def annihilation_matrix(dim: int) -> np.ndarray:
    """Truncated annihilation operator: sqrt(n) at (n-1, n)."""
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1).astype(complex)


def _laguerre_table(r: float, dim: int) -> np.ndarray:
    """The real values <m|D(alpha)|n> e^{-i(m-n) arg alpha} at |alpha| = r > 0
    for every pair m >= n, in ``np.tril_indices(dim)`` order: one table
    L_n^{(k)}(r^2) by the three-term recurrence, then the Laguerre closed form
    in the log domain on all pairs at k = m - n as whole arrays."""
    x = r ** 2
    # L[n, k] = L_n^{(k)}(x) by the three-term recurrence, vectorized over k.
    k = np.arange(dim, dtype=np.longdouble)
    xl = np.longdouble(x)
    lag = np.zeros((dim, dim), dtype=np.longdouble)
    lag[0] = 1.0
    if dim > 1:
        lag[1] = 1.0 + k - xl
    for n in range(1, dim - 1):
        lag[n + 1] = ((2 * n + 1 + k - xl) * lag[n] - (n + k) * lag[n - 1]) / (n + 1)

    gl = gammaln(np.arange(dim) + 1.0)
    m, n = np.tril_indices(dim)
    kk = m - n
    # log magnitude of sqrt(n!/m!) r^k e^{-x/2}
    logpref = (0.5 * (gl[n] - gl[m]) + kk * math.log(r) - x / 2.0
               ).astype(np.longdouble)
    lvals = lag[n, kk]
    with np.errstate(divide="ignore"):
        loglag = np.log(np.abs(lvals))
    mag = np.exp(logpref + loglag).astype(float)
    return np.sign(lvals).astype(float) * mag


def gaussian_kernel_chi2_unfolded(points, probs, pref, A, B) -> float:
    """sum_ij p_i p_j (pref exp(-A (|u_i|^2 + |u_j|^2) + 2 B <u_i, u_j>) - 1)
    over every pair i <= j, off-diagonal terms doubled, at the caller's
    working precision: the same terms as the library's kernel sum, without
    its mirror fold."""
    u = [(mpf(complex(z).real), mpf(complex(z).imag)) for z in points]
    p = [mpf(q) for q in probs]
    r2 = [x * x + y * y for x, y in u]
    total = mpf(0)
    for i in range(len(u)):
        for j in range(i, len(u)):
            cross = u[i][0] * u[j][0] + u[i][1] * u[j][1]
            kij = pref * mp.exp(-A * (r2[i] + r2[j]) + 2 * B * cross) - 1
            w = p[i] * p[j]
            total += w * kij if i == j else 2 * w * kij
    return float(total)


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


def quantum_chi2_direct(rho: DensityOperator, Nprime: float,
                        dim: int | None = None) -> float:
    """chi^2(rho, tau_N') = Tr[(rho tau_N'^{-1/2})^2] - 1 by direct summation
    in the number basis.

    tau^{-1/2} is diagonal with exponentially growing entries, so the sum is
    reliable only when rho's truncation tail is well below the growth; a
    ``TruncationError`` is raised if the per-level contributions are still
    growing at the cutoff.
    """
    if Nprime <= 0.0:
        raise ValueError(f"N' must be > 0, got {Nprime}")
    dim = rho.dim if dim is None else min(dim, rho.dim)
    t = math.sqrt((Nprime + 1.0) / Nprime)
    logw = np.arange(dim) * math.log(t)
    w = np.exp(logw)
    absq = np.abs(rho.matrix[:dim, :dim]) ** 2
    contrib = w * (absq @ w)  # per-row weighted contribution
    total = (Nprime + 1.0) * float(contrib.sum())
    tail = contrib[-5:]
    if np.argmax(contrib) >= dim - 5 and tail[-1] > 1e-12 * contrib.sum():
        raise TruncationError(
            "chi-square terms still growing at the truncation cutoff; "
            "increase dim or reduce N'")
    result = total - 1.0
    if result < -1e-10:
        raise NumericFailure(f"chi-square came out negative: {result}")
    return result


def relative_entropy_eigh_overlap(rho: DensityOperator,
                                  sigma: DensityOperator) -> float:
    """D(rho || sigma) = Tr[rho (log2 rho - log2 sigma)], bits, from the
    eigendecompositions of both operators and the overlaps |<u_i|v_j>|^2;
    ``SupportError`` if rho carries more than ``SUPPORT_TOL`` weight on
    sigma's numerical null space."""
    if rho.dim != sigma.dim:
        raise ValueError("operators must share the truncation dimension")
    try:
        lam_r, U = np.linalg.eigh(rho.matrix)
        lam_s, V = np.linalg.eigh(sigma.matrix)
    except np.linalg.LinAlgError as e:
        raise NumericFailure("eigensolver failed") from e

    overlap = np.abs(U.conj().T @ V) ** 2  # |<u_i|v_j>|^2
    lam_r_pos = np.clip(lam_r, 0.0, None)
    null_mass = float(lam_r_pos @ overlap[:, lam_s <= EIG_FLOOR].sum(axis=1))
    if null_mass > SUPPORT_TOL:
        raise SupportError(
            f"rho has mass {null_mass:.2e} outside sigma's numerical support")

    keep_r = lam_r > EIG_FLOOR
    keep_s = lam_s > EIG_FLOOR
    tr_rho_log_rho = float(np.sum(lam_r[keep_r] * np.log2(lam_r[keep_r])))
    tr_rho_log_sigma = float(
        lam_r[keep_r] @ overlap[np.ix_(keep_r, keep_s)] @ np.log2(lam_s[keep_s]))
    return tr_rho_log_rho - tr_rho_log_sigma
