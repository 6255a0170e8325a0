"""Truncated Fock-space numerics: coherent and thermal states, displacement
operators, entropies and relative entropy.

All constructors work at a caller-chosen truncation dimension;
``default_dim`` gives a conservative choice.  The Laguerre tables work in
the log domain; ``coherent_state``'s recurrence does not, and overflows
once |z|^2 exceeds about 1,424.

``coherent_state`` takes an array of points, so a pure-loss ensemble is
one call; each column has the bits of that point's own call.  A state
holds only its matrix, finite (else ``NumericFailure``) and read-only; its
dimension and trace deficit are read off it, its entropy kept with it.
``relative_entropy`` is -S(rho) from ``von_neumann_entropy`` less
sum_k <v_k|rho|v_k> log2 lam_k over sigma's eigenpairs (lam_k, v_k), read
off the diagonal of a diagonal sigma in the order ``np.linalg.eigh`` gives.

Displacement matrices rest on the phase identity
<m|D(alpha)|n> = e^{i(m-n) arg alpha} f_mn(|alpha|), f real (the Laguerre
closed form of Cahill & Glauber, Phys. Rev. 177, 1857 (1969)): the costly
Laguerre table depends on |alpha| alone, so one table per radius serves
every point on that circle, and each point adds only its phase powers.
``_laguerre_tables`` runs one recurrence for all of a caller's radii.

For a non-real numpy complex center z, displaced_thermal(conj z) equals
displaced_thermal(z).matrix.conj() in every value; the bits differ at most
in the sign of exact zeros, which a sum starting from +0.0 absorbs.  So
``rates.ensemble_average_state`` builds one state per conjugate pair, and
its average state keeps every bit.  Real centers are never shared: past
dim 100, where numpy's complex power leaves repeated squaring, a negative
real center's conjugate state differs from its state's conjugate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import gammaln

from .errors import NumericFailure, SupportError, TruncationWarning

EIG_FLOOR = 1e-14
SUPPORT_TOL = 1e-9  # largest weight D(rho || sigma) lets rho put off sigma


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian PSD matrix on a truncated Fock space; its ``dim`` and
    ``trace_deficit``, max(0, 1 - Re Tr M), are read off the matrix.  A NaN
    or inf entry raises ``NumericFailure`` (an eigensolve may not).  The
    matrix is made read-only, so the entropy kept with it cannot go stale."""

    matrix: np.ndarray
    dim = property(lambda self: self.matrix.shape[0])
    trace_deficit = property(
        lambda self: max(0.0, 1.0 - float(np.trace(self.matrix).real)))

    def __post_init__(self):
        if not np.isfinite(self.matrix).all():
            raise NumericFailure(f"non-finite state entry at dim {self.dim}")
        self.matrix.setflags(write=False)

    @cached_property
    def _entropy(self) -> float:
        try:
            lam = np.linalg.eigvalsh(self.matrix)
        except np.linalg.LinAlgError as e:
            raise NumericFailure("eigensolver failed") from e
        lam = lam[lam > EIG_FLOOR]
        return float(-(lam * np.log2(lam)).sum())


def default_dim(mu: float) -> int:
    """Truncation dimension for states of mean photon number up to ``mu``:
    mu + 8 sigma headroom + 20.  Poisson/geometric tails make this
    conservative."""
    return math.ceil(mu + 8.0 * math.sqrt(mu + 1.0) + 20.0)


def coherent_state(z, dim: int) -> np.ndarray:
    """Number-basis amplitudes of the coherent state |z>, shape
    ``(dim,) + np.shape(z)``: a vector for a scalar ``z``, one column per
    point for an array.

    a_n = exp(-|z|^2/2) z^n / sqrt(n!), built by a stable multiplicative
    recurrence (one cumulative product down the columns); |a_n|^2 is
    Poisson with mean |z|^2.  Each column equals the scalar call's vector
    bit for bit.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    z = np.asarray(z)
    r2 = [abs(w) ** 2 for w in z.flat]
    if max(r2, default=0.0) > dim:
        warnings.warn(
            f"coherent state with |z|^2 = {max(r2):.1f} at dim = {dim}: "
            "severe truncation", TruncationWarning, stacklevel=2)
    steps = np.sqrt(np.arange(1, dim)).reshape((-1,) + (1,) * z.ndim)
    amps = np.empty((dim,) + z.shape, dtype=complex)
    amps[0] = 1.0
    amps[1:] = np.cumprod(z / steps, axis=0)
    # math.exp per point: numpy's vectorized exp may round differently
    amps *= np.reshape([math.exp(-x / 2.0) for x in r2], z.shape)
    return amps


def thermal_state(N: float, dim: int) -> DensityOperator:
    """Thermal state of mean photon number ``N``: diagonal geometric weights
    (1/(N+1)) (N/(N+1))^n."""
    if N < 0.0:
        raise ValueError(f"mean photon number must be >= 0, got {N}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if N == 0.0:
        diag = np.zeros(dim)
        diag[0] = 1.0
    else:
        ratio = N / (N + 1.0)
        diag = np.exp(np.arange(dim) * math.log(ratio)) / (N + 1.0)
    return DensityOperator(matrix=np.diag(diag.astype(complex)))


def _laguerre_tables(radii, dim: int) -> np.ndarray:
    """Row i holds the real values <m|D(alpha)|n> e^{-i(m-n) arg alpha} at
    |alpha| = radii[i] > 0 for every pair m >= n, in ``np.tril_indices(dim)``
    order: L_n^{(k)}(r^2) by one three-term recurrence over all radii, then
    the Laguerre closed form in the log domain at k = m - n."""
    xs = [r ** 2 for r in radii]
    m, n = np.tril_indices(dim)
    kk = m - n
    # L_{d+1}^{(k)} = ((2d + 1 + k - x) L_d^{(k)} - (d + k) L_{d-1}^{(k)})
    # / (d + 1) for every radius (rows), at k < dim - d - 1 only: the pairs
    # of degree n read k < dim - n.  Each degree's row goes straight to its
    # pairs, at tril positions m (m + 1) / 2 + n for m = n + k.  The integer
    # terms are exact in longdouble, so j - x is taken once for every j.
    j = np.arange(2 * dim, dtype=np.longdouble)
    j_minus_x = j - np.array(xs, dtype=np.longdouble)[:, None]
    tri = np.cumsum(np.arange(dim))
    lvals = np.empty((len(xs), len(m)), dtype=np.longdouble)
    prev = np.ones((len(xs), dim), dtype=np.longdouble)
    lvals[:, tri] = prev
    if dim > 1:
        cur = j_minus_x[:, 1:dim]
        lvals[:, tri[1:] + 1] = cur
    for d in range(1, dim - 1):
        w = dim - d - 1
        prev, cur = cur, (j_minus_x[:, 2 * d + 1:2 * d + 1 + w] * cur[:, :w]
                          - j[d:d + w] * prev[:, :w]) / (d + 1)
        lvals[:, tri[d + 1:] + d + 1] = cur

    gl = gammaln(np.arange(dim) + 1.0)
    half_log_ratio = 0.5 * (gl[n] - gl[m])
    out = np.empty((len(xs), len(m)))
    # one radius at a time keeps the longdouble temporaries to one row
    for i, (r, x) in enumerate(zip(radii, xs)):
        # log magnitude of sqrt(n!/m!) r^k e^{-x/2}; math.log, since numpy's
        # vectorized log may round differently from libm's
        logpref = (half_log_ratio + kk * math.log(r) - x / 2.0
                   ).astype(np.longdouble)
        with np.errstate(divide="ignore"):
            loglag = np.log(np.abs(lvals[i]))
        mag = np.exp(logpref + loglag).astype(float)
        out[i] = np.sign(lvals[i]).astype(float) * mag
    return out


def displacement_operator(alpha: complex, dim: int, *,
                          _table: np.ndarray | None = None) -> np.ndarray:
    """Matrix of D(alpha) on the truncated space, via the Laguerre closed
    form; unitary on the retained subspace up to truncation error.
    <m|D(alpha)|n> = e^{i(m-n) arg alpha} f_mn(|alpha|) with f real: the
    table f depends on |alpha| alone, so a caller displacing by many points
    of one radius builds it once (a row of ``_laguerre_tables``) and
    passes it as ``_table``.  It serves both triangles, since
    D(alpha)^dag = D(-alpha) and <m|D(-alpha)|n> = (-1)^(m-n) <m|D(alpha)|n>
    for m >= n."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if abs(alpha) ** 2 > dim:
        warnings.warn(
            f"displacement with |alpha|^2 = {abs(alpha)**2:.1f} at dim = {dim}: "
            "severe truncation", TruncationWarning, stacklevel=2)
    if alpha == 0:
        return np.eye(dim, dtype=complex)
    if _table is None:
        _table = _laguerre_tables([abs(alpha)], dim)[0]
    m, n = np.tril_indices(dim)
    phase = alpha / abs(alpha)
    # rates passes np.complex128 centers, so the division above and these
    # powers are numpy scalar arithmetic, whose bits (pinned by the thermal
    # rate golden) differ from CPython complex's: keep centers numpy-typed
    phase_pow = np.array([phase ** d for d in range(dim)])
    lower = _table * phase_pow[m - n]
    out = np.empty((dim, dim), dtype=complex)
    out[n, m] = np.where((m - n) % 2 == 1, -lower, lower).conj()
    out[m, n] = lower  # after the mirror, so the diagonal is not conjugated
    return out


def displaced_thermal(alpha: complex, Nbar: float, dim: int, *,
                      _table: np.ndarray | None = None) -> DensityOperator:
    """D(alpha) tau_Nbar D(alpha)^dag, for every Nbar >= 0 (Nbar = 0 gives
    the coherent state |alpha><alpha|).  ``_table`` is the Laguerre table of
    |alpha| at ``dim``, passed on to ``displacement_operator``."""
    p = thermal_state(Nbar, dim).matrix.real.diagonal()
    scaled = displacement_operator(alpha, dim, _table=_table) * np.sqrt(p)
    return _density_operator(scaled @ scaled.conj().T)


def _density_operator(mat: np.ndarray) -> DensityOperator:
    """Wrap an assembled state matrix, Hermitized: (M + M^dag)/2 mirrors
    each entry as its exact conjugate, so the state reads it as it is."""
    return DensityOperator(matrix=(mat + mat.conj().T) / 2.0)


def von_neumann_entropy(rho: DensityOperator) -> float:
    """-sum lambda log2 lambda over eigenvalues above the floor, in bits;
    computed on a state's first call and kept with it."""
    return rho._entropy


def relative_entropy(rho: DensityOperator, sigma: DensityOperator) -> float:
    """D(rho || sigma) = -S(rho) - Tr[rho log2 sigma], bits.

    S(rho) is ``von_neumann_entropy``, kept with rho.  With sigma's
    eigenpairs (lam_k, v_k) and w_k = <v_k|rho|v_k>, Tr[rho log2 sigma] =
    sum w_k log2 lam_k over lam_k above the floor; the other w_k sum to
    rho's weight on sigma's numerical null space, and ``SupportError`` is
    raised above SUPPORT_TOL.  A diagonal sigma (a thermal state) is not
    eigensolved: lam_k and w_k are the two diagonals, stably sorted into
    the ascending order ``eigh`` returns, so the sums run in its order.
    """
    if rho.dim != sigma.dim:
        raise ValueError("operators must share the truncation dimension")
    diag = sigma.matrix.diagonal().real
    if np.count_nonzero(sigma.matrix) == np.count_nonzero(diag):  # diagonal
        order = np.argsort(diag, kind="stable")
        lam, w = diag[order], rho.matrix.diagonal().real[order]
    else:
        try:
            lam, V = np.linalg.eigh(sigma.matrix)
        except np.linalg.LinAlgError as e:
            raise NumericFailure("eigensolver failed") from e
        w = np.einsum("ij,ij->j", V.conj(), rho.matrix @ V).real
    keep = lam > EIG_FLOOR
    null_mass = float(w[~keep].sum())
    if null_mass > SUPPORT_TOL:
        raise SupportError(
            f"rho has mass {null_mass:.2e} outside sigma's numerical support")
    return -von_neumann_entropy(rho) - float(w[keep] @ np.log2(lam[keep]))
