"""Independent reference implementations the tests check the library
against.  Nothing in ``thermalcomm`` calls these; each computes its quantity
a different way from the library path it checks:

- ``ErasureChannel``, ``bec_bhattacharyya`` and ``bec_frozen_set``: a binary
  erasure channel and its exact frozen set, the oracle for Monte-Carlo
  polar code construction;
- ``classical_one_plus_chi2_quadrature``: the classical chi-square by direct
  quadrature of the output densities, against the series and kernel paths;
- ``quantum_chi2_direct``: the quantum chi-square by direct summation in the
  number basis, against the constellation kernel double sum;
- ``annihilation_matrix``: the truncated annihilation operator, for moment
  and matrix-exponential checks of the Fock layer;
- ``inverse_gray``: the amplitude index of each Gray label by prefix XOR,
  against the labels and their inverse the induced channel holds.

Not collected by pytest (no ``test_`` prefix); test modules import it by
name from the tests directory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import logsumexp

from thermalcomm.constellations import RealConstellation
from thermalcomm.errors import NumericFailure, TruncationError
from thermalcomm.fock import DensityOperator
from thermalcomm.polar import _check_power_of_two

_LLR_BIG = 1000.0


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
