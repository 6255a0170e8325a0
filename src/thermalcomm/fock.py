"""Truncated Fock-space numerics: coherent and thermal states, displacement
operators, entropies and relative entropy.

All constructors work at a caller-chosen truncation dimension;
``default_dim`` gives a conservative choice.  The Laguerre tables work in
the log domain; ``coherent_state``'s recurrence does not: past |z|^2 of
about 1,424 its amplitudes overflow, and it raises ``NumericFailure``.

``coherent_state`` takes an array of points, so a pure-loss ensemble is
one call; each column has the bits of that point's own call.  A state
holds only its matrix, finite (else ``NumericFailure``) and read-only; its
dimension and trace deficit are read off it, its entropy kept with it.
``relative_entropy`` takes a sigma diagonal in the number basis, as the
thermal reference of every gap is: -S(rho) from ``von_neumann_entropy``
less sum_k <k|rho|k> log2 <k|sigma|k>, in ascending order of sigma's
diagonal, the order ``np.linalg.eigh`` would give.

Displacement matrices rest on the phase identity
<m|D(alpha)|n> = e^{i(m-n) arg alpha} f_mn(|alpha|), f real (the Laguerre
closed form of Cahill & Glauber, Phys. Rev. 177, 1857 (1969)): the costly
Laguerre table depends on |alpha| alone, so one table per radius serves
every point on that circle, and each point adds only its phase powers,
from one ``np.power`` call at alpha taken as ``np.complex128``
(``_phase_powers``), so every caller gets numpy's bits.
A ``_Basis`` holds what a dimension's displacements share: the lower
triangle's layout and one table per radius, from a single recurrence over
all radii (``_laguerre_tables``).  ``_mixture`` builds every ensemble
average state sum_j q_j theta_j, one basis per call, and one displaced
thermal state per orbit {z, conj z, -z, -conj z} of the centers: conj z
takes the conjugate state, and -z the state times the checkerboard
(-1)^(m+n) (D(-z) = P D(z) P, P = diag((-1)^n)), where ``_parity_holds``
finds that the same ``_phase_powers`` flip sign exactly, below power 100.
Both shares keep every value, so every bit of the sum.
``_density_operator`` Hermitizes by halving the float parts, with the bits
of the complex division by 2 on every input without a -0 part, and
divides on the rest.

The layer imports only numpy and math: the tables' log-factorials come
from ``_log_factorials``, cephes' log-gamma at the integers, with the bits
of ``scipy.special.gammaln``, so no run needs scipy.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericFailure, SupportError, TruncationWarning

EIG_FLOOR = 1e-14
SUPPORT_TOL = 1e-9  # largest weight D(rho || sigma) lets rho put off sigma


@dataclass(frozen=True, eq=False)
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
    bit for bit.  Past |z|^2 of about 1,424 the running product overflows,
    and ``NumericFailure`` is raised.
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
    with np.errstate(over="ignore", invalid="ignore"):
        amps[1:] = np.cumprod(z / steps, axis=0)
        # math.exp per point: numpy's vectorized exp may round differently
        amps *= np.reshape([math.exp(-x / 2.0) for x in r2], z.shape)
    # a product that overflows stays non-finite down its column
    if not np.isfinite(amps[-1]).all():
        raise NumericFailure(
            f"non-finite coherent amplitude at |z|^2 = {max(r2):.1f}")
    return amps


def thermal_state(N: float, dim: int) -> DensityOperator:
    """Thermal state of mean photon number ``N``: diagonal geometric weights
    (1/(N+1)) (N/(N+1))^n."""
    return DensityOperator(matrix=np.diag(
        _thermal_diagonal(N, dim).astype(complex)))


def _thermal_diagonal(N: float, dim: int) -> np.ndarray:
    """The diagonal of ``thermal_state(N, dim)``, as real numbers."""
    if N < 0.0:
        raise ValueError(f"mean photon number must be >= 0, got {N}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if N == 0.0:
        diag = np.zeros(dim)
        diag[0] = 1.0
        return diag
    ratio = N / (N + 1.0)
    return np.exp(np.arange(dim) * math.log(ratio)) / (N + 1.0)


_Basis = namedtuple("_Basis", "k odd lower upper tables")


def _make_basis(dim: int, radii) -> _Basis:
    """For the pairs m >= n of a dim x dim matrix in ``np.tril_indices``
    order: the offsets k = m - n, the odd-offset mask, the flat positions
    of (m, n) and of its mirror (n, m); and ``tables``, each radius's row
    of ``_laguerre_tables`` keyed by the radius."""
    m, n = np.tril_indices(dim)
    k = m - n
    tables = dict(zip(radii, _laguerre_tables(radii, dim, m, n, k)))
    return _Basis(k, k % 2 == 1, m * dim + n, n * dim + m, tables)


def _laguerre_tables(radii, dim: int, m: np.ndarray, n: np.ndarray,
                     kk: np.ndarray) -> np.ndarray:
    """Row i holds the real values <m|D(alpha)|n> e^{-i(m-n) arg alpha} at
    |alpha| = radii[i] > 0 for every pair m >= n, in ``np.tril_indices(dim)``
    order (its m, n and k = m - n given): L_n^{(k)}(r^2) by one three-term
    recurrence over all radii, then the Laguerre closed form in the log
    domain, its log-factorials from ``_log_factorials``."""
    xs = [r ** 2 for r in radii]
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

    gl = _log_factorials(dim)
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


# cephes lgam's Stirling constants: log sqrt(2 pi) and the 1/x^2 series
_LS2PI = 0.91893853320467274178
_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
             7.93650340457716943945e-4, -2.77777777730099687205e-3,
             8.33333333333331927722e-2)


def _log_factorials(dim: int) -> np.ndarray:
    """log n! for n < dim, bit for bit ``scipy.special.gammaln(n + 1.0)``:
    the algorithm of cephes' ``lgam`` (S. L. Moshier, Cephes Math Library,
    gamma.c), which scipy runs, at the integers x = n + 1 below 10^8.  Below
    13 it is the log of the exact factorial; from there the Stirling form
    (x - 1/2) log x - x + log sqrt(2 pi) plus cephes' five-term series in
    1/x^2, over x.  (cephes cuts the series to three terms from x = 1000;
    the bits agree at every integer up to 3 million.)  ``math.log``, since
    numpy's vectorized log may round differently from libm's;
    ``math.lgamma`` differs from gammaln at 2,162 of the integers up to
    4,001."""
    out = np.empty(dim)
    for n in range(dim):
        x = n + 1.0
        if x < 13.0:
            out[n] = math.log(math.factorial(n))
            continue
        p, series = 1.0 / (x * x), 0.0
        for a in _STIRLING:
            series = series * p + a
        out[n] = (x - 0.5) * math.log(x) - x + _LS2PI + series / x
    return out


def displacement_operator(alpha: complex, dim: int, *,
                          _basis: _Basis | None = None) -> np.ndarray:
    """Matrix of D(alpha) on the truncated space, via the Laguerre closed
    form; unitary on the retained subspace up to truncation error.
    <m|D(alpha)|n> = e^{i(m-n) arg alpha} f_mn(|alpha|) with f real: the
    table f depends on |alpha| alone, so a caller displacing by many points
    passes one ``_make_basis(dim, radii)`` as ``_basis`` for all of them.
    The table serves both triangles, since D(alpha)^dag = D(-alpha) and
    <m|D(-alpha)|n> = (-1)^(m-n) <m|D(alpha)|n> for m >= n.  alpha is
    taken as ``np.complex128``, so its phase and phase powers
    (``_phase_powers``) have numpy's bits whatever its type: CPython's
    complex division, and its complex power past 100, round differently."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    alpha = np.complex128(alpha)
    if abs(alpha) ** 2 > dim:
        warnings.warn(
            f"displacement with |alpha|^2 = {abs(alpha)**2:.1f} at dim = {dim}: "
            "severe truncation", TruncationWarning, stacklevel=2)
    if alpha == 0:
        return np.eye(dim, dtype=complex)
    if _basis is None:
        _basis = _make_basis(dim, [abs(alpha)])
    lower = _basis.tables[abs(alpha)] * _phase_powers(alpha, dim)[_basis.k]
    out = np.empty((dim, dim), dtype=complex)
    flat = out.reshape(-1)
    flat[_basis.upper] = np.where(_basis.odd, -lower, lower).conj()
    flat[_basis.lower] = lower  # after the mirror: the diagonal stays as is
    return out


def displaced_thermal(alpha: complex, Nbar: float, dim: int, *,
                      _basis: _Basis | None = None) -> DensityOperator:
    """D(alpha) tau_Nbar D(alpha)^dag, for every Nbar >= 0 (Nbar = 0 gives
    the coherent state |alpha><alpha|): D(alpha) sqrt(tau) times its
    adjoint.  ``_basis`` is passed on to ``displacement_operator``."""
    weights = np.sqrt(_thermal_diagonal(Nbar, dim))
    scaled = displacement_operator(alpha, dim, _basis=_basis) * weights
    return _density_operator(scaled @ scaled.conj().T)


def _density_operator(mat: np.ndarray) -> DensityOperator:
    """Wrap an assembled state matrix, Hermitized: (M + M^dag)/2 mirrors
    each entry as its exact conjugate, so the state reads it as it is.
    Built in one buffer with the bits of ``(mat + mat.conj().T) / 2.0``:
    the sum commutes exactly, and each float part is halved in place.
    numpy divides a + bi by 2 + 0i as ((a + b*0) * 0.5, (b - a*0) * 0.5),
    which is (0.5a, 0.5b) bit for bit unless a part is -0 (the division
    can make it +0); a NaN or inf part stays non-finite either way and is
    refused.  So the complex division runs only when some part of
    M + M^dag is -0, which no state of the rate tables has."""
    out = np.conj(mat.T, order="C")
    out += mat
    parts = out.view(float)
    # -0.0 is the one double whose bits, read as an int64, are the least
    if parts.view(np.int64).min() == np.iinfo(np.int64).min:
        out /= 2.0
    else:
        parts *= 0.5
    return DensityOperator(matrix=out)


def _phase_powers(z: np.complex128, dim: int) -> np.ndarray:
    """(z/|z|)^d for d < ``dim`` at a nonzero ``np.complex128`` z, from one
    ``np.power`` call, as ``displacement_operator`` takes them.  numpy
    raises a complex number to an integer power below 100 by repeated
    squaring and from 100 on by exp-log; the values have the bits of its
    scalar powers (z/|z|) ** d."""
    return np.power(z / abs(z), np.arange(dim))


def _parity_holds(z: np.complex128, dim: int) -> bool:
    """Whether ``displacement_operator`` at -z takes (-1)^d times each
    phase power it takes at z, d < ``dim``: (-p) ** d equals p ** d at
    even d and -(p ** d) at odd d in value, with p = z/|z| and -p = (-z)/|z|
    as ``_phase_powers`` forms them for both.  Repeated squaring commutes
    exactly with a sign flip, and exp-log does not; so it holds at
    dim <= 100.  z is an ``np.complex128`` center, as ``_mixture`` passes
    and as ``displacement_operator`` takes every alpha."""
    p_pow, even = _phase_powers(z, dim), np.arange(dim) % 2 == 0
    return bool(np.all(_phase_powers(-z, dim)
                       == np.where(even, p_pow, -p_pow)))


def _mixture(probs, centers, Nbar: float, dim: int) -> DensityOperator:
    """sum_j q_j D(z_j) tau_Nbar D(z_j)^dag over ``probs`` q and ``centers``
    z, Hermitized.  At Nbar = 0 it is one product of the weighted amplitude
    columns of one ``coherent_state`` call with their adjoint.  Otherwise
    one ``_make_basis`` over every distinct nonzero |z| serves each
    ``displaced_thermal``, and a built state also serves the next later
    occurrence of each other center of its orbit {z, conj z, -z, -conj z}:

    - conj z, for a non-real numpy complex z, takes the state's conjugate:
      displaced_thermal(conj z) equals displaced_thermal(z).matrix.conj()
      in every value.  Real centers never share by conjugation: past dim
      100 a negative real center's conjugate state differs from its
      state's conjugate.
    - -z, for z != 0 where ``_parity_holds``, takes the state times the
      checkerboard (-1)^(m+n).  D(-z) = P D(z) P with P = diag((-1)^n), the
      (-1)^(m-n) symmetry of the Laguerre form; given the phase powers,
      every later step (table products, the product of D sqrt(tau) with
      its adjoint, the Hermitization) commutes exactly with sign flips, so
      each value is the checkerboard's image of z's.
    - -conj z takes the conjugate times the checkerboard, by both.

    A shared state's bits differ from a built one's at most in the sign of
    exact zeros, which the sum, starting from +0.0, absorbs; so the average
    state keeps every bit.  Each such center holds the source state and its
    transform, not a derived copy, until its turn: the sum keeps its order,
    and one matrix per orbit stays alive (for an m x m product
    constellation at dim <= 100, about m^2/4 at once).  A repeat of a built
    center is built again."""
    if Nbar == 0.0:
        cols = np.sqrt(probs) * coherent_state(centers, dim)
        return _density_operator(cols @ cols.conj().T)
    basis = _make_basis(dim, list({abs(z) for z in centers} - {0.0}))
    sign = np.ones(dim)
    sign[1::2] = -1.0
    checkerboard = np.outer(sign, sign)
    last = {z: j for j, z in enumerate(centers)}
    held = {}  # center -> (source state, conjugate it?, checkerboard it?)
    mat = np.zeros((dim, dim), dtype=complex)
    for j, (q, z) in enumerate(zip(probs, centers)):
        source, conj, flip = held.pop(z, (None, False, False))
        if source is None:
            source = displaced_thermal(z, Nbar, dim, _basis=basis).matrix
            parity = z != 0 and _parity_holds(z, dim)
            for w, c, f in ((z.conjugate(), True, False), (-z, False, True),
                            (-z.conjugate(), True, True)):
                if ((z.imag != 0.0 or not c) and (parity or not f)
                        and last.get(w, -1) > j):
                    held[w] = (source, c, f)
        state = source.conj() if conj else source
        mat += q * (state * checkerboard if flip else state)
    return _density_operator(mat)


def von_neumann_entropy(rho: DensityOperator) -> float:
    """-sum lambda log2 lambda over eigenvalues above the floor, in bits;
    computed on a state's first call and kept with it."""
    return rho._entropy


def relative_entropy(rho: DensityOperator, sigma: DensityOperator) -> float:
    """D(rho || sigma) = -S(rho) - Tr[rho log2 sigma], bits, for a sigma
    diagonal in the number basis (a thermal state); any other sigma is a
    ``ValueError``.

    S(rho) is ``von_neumann_entropy``, kept with rho.  sigma's eigenvalues
    lam_k are its diagonal and w_k = <k|rho|k> rho's, both stably sorted
    into ascending lam_k, so Tr[rho log2 sigma] = sum w_k log2 lam_k over
    lam_k above the floor; the other w_k sum to rho's weight on sigma's
    numerical null space, and ``SupportError`` is raised above
    SUPPORT_TOL.
    """
    if rho.dim != sigma.dim:
        raise ValueError("operators must share the truncation dimension")
    diag = sigma.matrix.diagonal().real
    if np.count_nonzero(sigma.matrix) != np.count_nonzero(diag):
        raise ValueError("sigma must be diagonal in the number basis")
    order = np.argsort(diag, kind="stable")
    lam, w = diag[order], rho.matrix.diagonal().real[order]
    keep = lam > EIG_FLOOR
    null_mass = float(w[~keep].sum())
    if null_mass > SUPPORT_TOL:
        raise SupportError(
            f"rho has mass {null_mass:.2e} outside sigma's numerical support")
    return -von_neumann_entropy(rho) - float(w[keep] @ np.log2(lam[keep]))
