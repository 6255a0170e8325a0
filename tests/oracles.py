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
- ``sc_decode_reference``: plain SC, descending into every subtree,
  frozen ones included, deciding each info input from its own LLR and
  each frozen input 0, against the library decoder's two closed-form
  rules, rate-0 (with its frozen-left-half fold) and guarded rate-1, told
  apart by prefix counts of the frozen inputs, bit for bit;
- ``genie_sc_reference``: genie-aided SC as a decoder whose every
  decision is forced to the true input, the inputs the transform of the
  codeword and the partial sums re-encoded from the decisions, against
  the library's walk, which decides nothing and takes each node's partial
  sums from the codeword; it also counts the hard-decision errors;
- ``sample_level_reference``: the induced channel's genie-aided draw in
  one piece, every int64 amplitude index, then every noise value, the
  outcomes k times the amplitude plus the noise and one demapper call,
  against the library sampler, which narrows each slice of frames'
  indices to their Gray labels and forms outcomes and LLRs a slice at a
  time, written into one (n, batch) array;
- ``genie_error_probs_reference``: the genie-aided construction chunk by
  chunk, each chunk drawn in one piece and walked out of place by
  ``genie_sc_reference``, against the library's walk of the sampler's
  (n, batch) LLRs in place, bit for bit;
- ``msb_llr``: a wrapper, not an oracle: the library's LLR of the first
  level for one heterodyne outcome, for the closed-form BPSK checks;
- ``oracle_level_llrs``: one level's LLRs by brute force over the Gray
  labels, a scipy logsumexp per outcome, against the table-driven
  demapper;
- ``whole_batch_simulate``: the link simulation with every trial of every
  level held at once and each level's decisions re-encoded, against the
  sliced ``simulate``, bit for bit;
- ``classical_chi2_series`` (with ``hermite_moment`` and the moment stream
  both share): the classical chi-square by the Hermite moment series,
  against the library's kernel double sum;
- ``classical_one_plus_chi2_quadrature``: the classical chi-square by direct
  quadrature of the output densities, against the series and kernel paths;
- ``gaussian_kernel_chi2_unfolded``: the chi-square kernel double sum over
  every pair i <= j, one exponential each on ``mpf`` objects, against the
  library's mirror-folded sum on libmp tuples, which forms the per-point
  factors once and one exponential per mirror pair;
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
  against the labels and their inverse the induced channel holds;
- ``coherent_mixture_entropy_gram``: the entropy of a coherent-state
  mixture from the spectrum of its Gram matrix, with no Fock truncation,
  against the library's truncated average state.

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
                                        _gaussian_kernel_chi2,
                                        make_constellation)
from thermalcomm.errors import NumericFailure, SupportError, TruncationError
from thermalcomm.fock import EIG_FLOOR, SUPPORT_TOL, DensityOperator
from thermalcomm.polar import (InducedChannel, _check_power_of_two, _f, _g,
                               _transform_batch, sc_decode_batch)

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


def sc_decode_reference(code, llr):
    """SC-decode each row of a (batch, n) LLR array with the library's f-
    and g-updates, descending into every subtree: every info input is
    decided as its own LLR < 0, every frozen one 0, and written into u as
    it is decided.  Returns (u, x) as (batch, n) arrays, x the partial
    sums."""
    frozen = np.isin(np.arange(code.n), code.frozen)
    llr = np.ascontiguousarray(np.asarray(llr, dtype=float).T)
    u = np.zeros(llr.shape, dtype=np.int8)

    def decide(i, row):
        u[i] = (row < 0) & ~frozen[i]
        return u[i]

    x = _sc_forced(llr, 0, decide)
    return u.T, x.T


def genie_sc_reference(llr, x):
    """Genie-aided SC over a (batch, n) LLR array whose frames carried the
    codewords ``x``: the true inputs u are the transform of x, every
    decision is forced to them and the partial sums are re-encoded from
    the decisions.  Returns per-index (soft, hard) error counts: the soft
    one sums 1/(1 + e^|L|) as the library does, the hard one the 0/1
    errors of the decision L < 0, a tie at L = 0 counting half."""
    llr = np.ascontiguousarray(np.asarray(llr, dtype=float).T)
    u = np.ascontiguousarray(_transform_batch(np.asarray(x, np.int8)).T)
    soft, hard = np.zeros(len(llr)), np.zeros(len(llr))

    def decide(i, row):
        e = np.exp(-np.abs(row))
        soft[i] += np.sum(e / (1.0 + e))
        hard[i] += np.sum(np.where(row == 0.0, 0.5, (row < 0) != u[i]))
        return u[i]

    _sc_forced(llr, 0, decide)
    return soft, hard


def sample_level_reference(ch, rng, level, n):
    """Draw ``n`` genie-aided uses of one level of an induced channel in
    one piece: all n amplitude indices (int64), then all n noise values;
    the outcomes are k times the amplitude plus the noise, and the LLRs
    one ``level_llrs`` call.  Returns (bits of the level, LLRs)."""
    bpos = level % ch.nbits
    j = rng.integers(0, len(ch.amplitudes), size=n)
    yq = ch.params.k * ch.amplitudes[j] + rng.normal(
        scale=math.sqrt(ch.noise_var), size=n)
    label = ch.labels[j]
    return ((label >> (ch.nbits - 1 - bpos)) & 1,
            ch.level_llrs(level, label >> (ch.nbits - bpos), yq))


def genie_error_probs_reference(ch, level, n, mc_budget, rng, chunk_samples):
    """Per-index error probabilities of the genie-aided construction in
    chunks of ``chunk_samples // n`` frames, the last one ragged, as the
    library groups its sums.  Each chunk is one draw, by
    ``sample_level_reference`` for an ``InducedChannel`` and by the
    channel's own ``sample_level`` otherwise, walked on a frame-major copy
    by ``genie_sc_reference``, which writes nothing into its input."""
    draw = (sample_level_reference if isinstance(ch, InducedChannel)
            else type(ch).sample_level)
    chunk = max(1, chunk_samples // n)
    counts = np.zeros(n)
    for start in range(0, mc_budget, chunk):
        b = min(chunk, mc_budget - start)
        bits, llr = draw(ch, rng, level, b * n)
        counts += genie_sc_reference(llr.reshape(b, n), bits.reshape(b, n))[0]
    return counts / mc_budget


def _sc_forced(llr, idx0, decide):
    """Plain SC over an (n, batch) LLR array, ``decide(i, llr_row)`` giving
    the batch's bits at input i; returns the (n, batch) partial sums."""
    n = len(llr)
    if n == 1:
        return decide(idx0, llr[0]).astype(np.int8)[None]
    a, b = llr[:n // 2], llr[n // 2:]
    x_left = _sc_forced(_f(a, b), idx0, decide)
    x_right = _sc_forced(_g(a, b, x_left), idx0 + n // 2, decide)
    return np.concatenate([x_left ^ x_right, x_right])


def msb_llr(ch, y):
    """LLR of the real quadrature's first level for heterodyne outcome y."""
    return float(ch.level_llrs(0, np.zeros(1, dtype=int),
                               np.array([y.real]))[0])


def oracle_level_llrs(m, level, prefix, yq, p: ChannelParams):
    """Brute force: for each outcome, scipy logsumexp over the points of the
    ``m``-point equilattice channel at ``p`` whose Gray-label bits begin
    with those its integer prefix spells, split by the level's bit."""
    nbits = int(math.log2(m))
    bpos = level % nbits
    labels = [[((i ^ (i >> 1)) >> (nbits - 1 - b)) & 1
               for b in range(nbits)] for i in range(m)]
    centers = p.k * math.sqrt(p.N / 2.0) * make_constellation(
        "equilattice", m).points
    var = (p.Nc + 1.0) / 2.0
    out = np.empty(len(yq))
    for t, (pre, y) in enumerate(zip(prefix, yq)):
        pri = [(int(pre) >> (bpos - 1 - b)) & 1 for b in range(bpos)]
        match = [i for i in range(m) if labels[i][:bpos] == pri]
        e = {bit: [-(y - centers[i]) ** 2 / (2.0 * var) for i in match
                   if labels[i][bpos] == bit] for bit in (0, 1)}
        out[t] = logsumexp(e[0]) - logsumexp(e[1])
    return out


def whole_batch_simulate(ch, codes, trials, seed):
    """The link simulation with every trial of every level held at once and
    each level's decisions re-encoded: the reference the sliced
    ``simulate`` must reproduce bit for bit."""
    n = codes[0].n
    rng = np.random.default_rng(seed)
    bit_errors = np.zeros(ch.levels)
    info_bits = np.array([c.n - len(c.frozen) for c in codes])
    frame_bad = np.zeros(trials, dtype=bool)
    if trials:
        u_levels, x_levels = [], []
        for code in codes:
            u = np.zeros((trials, n), dtype=np.int8)
            u[:, code.info_set] = rng.integers(
                0, 2, size=(trials, len(code.info_set)))
            u_levels.append(u)
            x_levels.append(_transform_batch(u))
        amp_index = inverse_gray(np.arange(len(ch.amplitudes)))
        ys = []
        for q in range(2):
            label = np.zeros((trials, n), dtype=np.int64)
            for b in range(ch.nbits):
                label = (label << 1) | x_levels[q * ch.nbits + b]
            ys.append(ch.params.k * ch.amplitudes[amp_index[label]]
                      + rng.normal(scale=math.sqrt(ch.noise_var),
                                   size=label.shape))
        for q in range(2):
            prefix = np.zeros(trials * n, dtype=np.int64)
            for b in range(ch.nbits):
                lv = q * ch.nbits + b
                llr = ch.level_llrs(lv, prefix, ys[q].reshape(-1)
                                    ).reshape(trials, n)
                u_hat = sc_decode_batch(codes[lv], llr)[0]
                info = codes[lv].info_set
                nerr = np.sum(u_hat[:, info] != u_levels[lv][:, info], axis=1)
                bit_errors[lv] += int(nerr.sum())
                frame_bad |= nerr > 0
                prefix = (prefix << 1) | _transform_batch(u_hat).reshape(-1)
    fer = float(np.mean(frame_bad)) if trials else None
    sum_rate = float(info_bits.sum()) / n
    return {
        "trials": trials, "seed": seed, "blocklength": n,
        "levels": ch.levels, "level_rates": [c.rate for c in codes],
        "level_ber": [float(b / (k * trials)) if k else 0.0
                      for b, k in zip(bit_errors, info_bits)] if trials else None,
        "fer": fer, "sum_rate_bits_per_mode": sum_rate,
        "throughput_bits_per_mode": sum_rate * (1.0 - fer) if trials else None,
    }


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
    working precision: the same terms as the library's kernel sum, each
    with its own exponential of the whole exponent, without the library's
    mirror fold, reciprocal pairs or per-point factors."""
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


def coherent_mixture_entropy_gram(points, probs):
    """Independent entropy oracle for a mixture of coherent states: the
    nonzero spectrum of sum q |z><z| equals that of the Gram matrix
    G_ij = sqrt(q_i q_j) <z_i|z_j>."""
    z = np.asarray(points)
    q = np.asarray(probs)
    ov = np.exp(-0.5 * np.abs(z[:, None] - z[None, :]) ** 2
                + 1j * np.imag(z[:, None] * np.conj(z[None, :])))
    G = np.sqrt(np.outer(q, q)) * ov
    ev = np.linalg.eigvalsh(G)
    ev = ev[ev > 1e-15]
    return float(-np.sum(ev * np.log2(ev)))
