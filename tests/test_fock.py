import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import gammaln
from scipy.stats import poisson

from oracles import (_laguerre_table, annihilation_matrix, quantum_chi2_direct,
                     relative_entropy_eigh_overlap)
from thermalcomm import (DensityOperator, coherent_state, default_dim,
                         displaced_thermal, displacement_operator,
                         relative_entropy, thermal_state, von_neumann_entropy)
from thermalcomm import fock
from thermalcomm.errors import (NumericFailure, SupportError,
                                TruncationError, TruncationWarning)
from thermalcomm.fock import (_density_operator, _log_factorials,
                              _make_basis)


def test_coherent_state_is_poisson():
    z = 1.3 - 0.4j
    vec = coherent_state(z, 80)
    assert np.vdot(vec, vec).real == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(np.abs(vec) ** 2,
                               poisson.pmf(np.arange(80), abs(z) ** 2),
                               atol=1e-14)


def test_coherent_vacuum():
    vec = coherent_state(0j, 10)
    assert vec[0] == 1.0
    assert np.all(vec[1:] == 0.0)


@pytest.mark.parametrize("build", [
    lambda dim: coherent_state(0.5, dim),
    lambda dim: displacement_operator(0.5, dim),
    lambda dim: thermal_state(1.0, dim),
    lambda dim: displaced_thermal(0.5, 1.0, dim),
], ids=["coherent_state", "displacement_operator", "thermal_state",
        "displaced_thermal"])
@pytest.mark.parametrize("dim", [0, -1])
def test_fock_builders_refuse_a_dim_below_1(build, dim):
    # rates.ensemble_dim checks first, so only a library caller reaches these
    with pytest.raises(ValueError, match=f"dim must be >= 1, got {dim}"):
        build(dim)


@pytest.mark.parametrize("build", [
    lambda N: thermal_state(N, 10),
    lambda N: displaced_thermal(0.5, N, 10),
], ids=["thermal_state", "displaced_thermal"])
@pytest.mark.parametrize("N", [-1e-12, -1.0])
def test_thermal_builders_refuse_a_negative_photon_number(build, N):
    # channel_params keeps the CLI from these; a library caller reaches them
    with pytest.raises(ValueError,
                       match=f"mean photon number must be >= 0, got {N}"):
        build(N)


# the origin, every axis point with either zero sign, and 12 seeded random
# points of scale 2
_COHERENT_POINTS = [
    0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
    complex(1.3, 0.0), complex(1.3, -0.0), complex(-1.3, 0.0),
    complex(-1.3, -0.0), complex(0.0, 0.9), complex(-0.0, 0.9),
    complex(0.0, -0.9), complex(-0.0, -0.9),
    *(complex(z) for z in
      2.0 * np.random.default_rng(5).standard_normal(24).view(complex))]


@pytest.mark.parametrize("dim", [1, 2, 40, 330])
@pytest.mark.parametrize("scalar", [np.complex128, complex],
                         ids=["numpy", "python"])
def test_coherent_state_columns_match_scalar_calls_bitwise(dim, scalar):
    # the width-0 ensemble build takes all its points in one call; each
    # column must be the scalar call's vector, signed zeros included
    points = [scalar(z) for z in _COHERENT_POINTS]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        cols = coherent_state(np.array(points), dim)
        grid = coherent_state(np.array(points).reshape(4, -1), dim)
        want = np.stack([coherent_state(z, dim) for z in points], axis=1)
    assert cols.shape == (dim, len(points))
    assert np.array_equal(cols.view(np.uint64), want.view(np.uint64))
    assert grid.shape == (dim, 4, len(points) // 4)
    assert np.array_equal(grid.reshape(dim, -1).view(np.uint64),
                          want.view(np.uint64))


def test_coherent_state_array_warns_once_with_largest_energy():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        coherent_state(np.array([0.5, 3.0 + 0j, -4.0j, 3.5]), 10)
        assert len(caught) == 1
        coherent_state(np.array([0.5, 1.0j]), 10)
        coherent_state(np.array([], dtype=complex), 10)
    assert len(caught) == 1
    assert caught[0].category is TruncationWarning
    assert "|z|^2 = 16.0 at dim = 10" in str(caught[0].message)


def test_coherent_state_overflow_is_a_numeric_failure_without_warnings():
    # the running product overflows past |z|^2 of about 1,424; the caller
    # gets the typed error alone, not numpy's overflow warnings first
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericFailure, match="non-finite"):
            coherent_state(np.array([1.0, 38.0 + 0j]), 1873)
        assert np.isfinite(coherent_state(37.0 + 0j, 1873)).all()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_thermal_state_geometric_and_entropy():
    N = 2.5
    tau = thermal_state(N, 200)
    diag = np.diag(tau.matrix).real
    ratio = N / (N + 1.0)
    np.testing.assert_allclose(diag, ratio ** np.arange(200) / (N + 1.0),
                               rtol=1e-12)
    # H(tau_N) = g(N)
    g = (N + 1) * math.log2(N + 1) - N * math.log2(N)
    assert von_neumann_entropy(tau) == pytest.approx(g, abs=1e-9)


def test_unit_thermal_entropy_is_two_bits():
    for dim in (60, 100):
        tau = thermal_state(1.0, dim)
        assert von_neumann_entropy(tau) == pytest.approx(2.0, abs=1e-6)


def test_default_dim_grows_with_energy():
    dims = [default_dim(mu) for mu in (0.0, 1.0, 10.0, 100.0)]
    assert all(a < b for a, b in zip(dims, dims[1:]))
    assert dims[0] >= 8


def test_displacement_matches_expm():
    # expm of the truncated generator is itself only approximate, so compare
    # on an interior block with generous headroom
    alpha = 0.6 + 0.3j
    dim = 60
    D = displacement_operator(alpha, dim)
    a = annihilation_matrix(dim)
    ref = expm(alpha * a.conj().T - np.conj(alpha) * a)
    np.testing.assert_allclose(D[:20, :20], ref[:20, :20], atol=1e-10)


def test_displacement_first_column_is_coherent_state():
    alpha = 0.9 - 1.1j
    D = displacement_operator(alpha, 70)
    np.testing.assert_allclose(D[:, 0], coherent_state(alpha, 70), atol=1e-12)


def test_displacement_unitary_on_interior():
    D = displacement_operator(1.2j, 90)
    prod = D.conj().T @ D
    np.testing.assert_allclose(prod[:30, :30], np.eye(30), atol=1e-10)


def _oracle_lower_triangle(alpha, dim):
    """<m|D(alpha)|n> for m >= n, one offset m - n at a time: the Laguerre
    closed form with its own recurrence table per call, its phase powers
    numpy's scalar powers, with alpha taken as ``np.complex128`` as the
    library takes it."""
    alpha = np.complex128(alpha)
    x = abs(alpha) ** 2
    n_idx = np.arange(dim)
    k = np.arange(dim, dtype=np.longdouble)
    xl = np.longdouble(x)
    lag = np.zeros((dim, dim), dtype=np.longdouble)
    lag[0] = 1.0
    if dim > 1:
        lag[1] = 1.0 + k - xl
    for n in range(1, dim - 1):
        lag[n + 1] = ((2 * n + 1 + k - xl) * lag[n] - (n + k) * lag[n - 1]) / (n + 1)
    gl = gammaln(n_idx + 1.0)
    out = np.zeros((dim, dim), dtype=complex)
    log_abs_alpha = math.log(abs(alpha)) if alpha != 0 else -math.inf
    phase = alpha / abs(alpha) if alpha != 0 else 1.0
    for kk in range(dim):
        n = n_idx[: dim - kk]
        m = n + kk
        logpref = (0.5 * (gl[n] - gl[m]) + kk * log_abs_alpha - x / 2.0
                   ).astype(np.longdouble)
        lvals = lag[n, kk]
        with np.errstate(divide="ignore"):
            loglag = np.log(np.abs(lvals))
        mag = np.exp(logpref + loglag).astype(float)
        vals = np.sign(lvals).astype(float) * mag * phase ** kk
        if kk == 0 and alpha == 0:
            vals = np.ones(dim)
        out[m, n] = vals
    return out


def _oracle_displacement(alpha, dim):
    """D(alpha) from two independent triangles: D(alpha)_{mn} for m >= n,
    and conj(D(-alpha)_{nm}) above the diagonal."""
    lower = _oracle_lower_triangle(alpha, dim)
    upper = _oracle_lower_triangle(-alpha, dim).conj().T
    out = lower + upper
    out[np.diag_indices(dim)] -= np.diag(upper)
    return out


# 0, real, imaginary, complex, and 20 seeded random points of scale 2
_ORACLE_ALPHAS = [0j, 1.1, -1j, 0.3 - 0.2j,
                  *2.0 * np.random.default_rng(11).standard_normal(40).view(complex)]


# 120 and 168 are past dim 100, where numpy's complex power leaves repeated
# squaring for exp-log: there (-phase)^k is no longer (-1)^k phase^k bit for
# bit, so D(-alpha)'s own per-offset build meets the upper triangle only to
# rounding, and the upper triangle is checked against the exact mirror
@pytest.mark.parametrize("dim", [1, 2, 5, 44, 77, 90, 120, 168])
def test_displacement_matches_per_offset_oracle_bitwise(dim):
    # one shared table, one layout and whole-triangle arithmetic must
    # reproduce the per-offset build exactly, not just to a tolerance: the
    # lower triangle, and above it the lower triangle's exact mirror
    m, n = np.tril_indices(dim)
    above = m > n
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        for alpha in _ORACLE_ALPHAS:
            got = displacement_operator(alpha, dim)
            lower = _oracle_lower_triangle(alpha, dim)[m, n]
            mirror = np.where((m - n) % 2 == 1, -lower, lower).conj()
            assert np.array_equal(got[m, n], lower), alpha
            assert np.array_equal(got[n, m][above], mirror[above]), alpha
            two_tables = _oracle_displacement(alpha, dim)
            if dim <= 100:
                assert np.array_equal(got, two_tables), alpha
            else:
                np.testing.assert_allclose(got, two_tables, rtol=1e-12,
                                           atol=0.0, err_msg=str(alpha))


# -1j and 6 seeded points of scale 2, each as a Python complex
_PYTHON_ALPHAS = [-1j, *(complex(a) for a in 2.0 * np.random.default_rng(17)
                         .standard_normal(12).view(complex))]


@pytest.mark.parametrize("dim", [40, 120, 168])
def test_displacement_of_python_and_numpy_complex_alpha_is_bitwise_equal(dim):
    # displacement_operator takes alpha as np.complex128, so a Python
    # complex gets numpy's phase and phase powers.  A Python complex once
    # got other last bits: CPython's complex division by |alpha| rounds
    # differently at about half of all points, and past power 100, where
    # CPython's complex power and numpy's each leave repeated squaring for
    # their own exp-log, so does the power
    for a in _PYTHON_ALPHAS:
        got = displacement_operator(a, dim)
        want = displacement_operator(np.complex128(a), dim)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), a


@pytest.mark.parametrize("dim", [1, 2, 3, 40, 57, 100, 168, 250])
def test_batched_laguerre_tables_match_per_radius_oracle_bitwise(dim):
    # one recurrence over all radii, each degree cut to the k the pairs
    # read, must reproduce each radius's own full recurrence exactly
    radii = np.geomspace(1e-3, 12.0, 25)
    tables = _make_basis(dim, list(radii)).tables
    assert list(tables) == list(radii)
    for r, row in tables.items():
        assert row.shape == (dim * (dim + 1) // 2,)
        assert np.array_equal(row.view(np.uint64),
                              _laguerre_table(r, dim).view(np.uint64)), r


def test_log_factorials_match_gammaln_bitwise():
    # every dimension up to rates.MAX_DIM, well past x = 1000, where cephes
    # cuts its series; the Laguerre oracles above keep scipy's gammaln
    n = 100_000
    got = _log_factorials(n)
    want = gammaln(np.arange(n) + 1.0)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# exact zeros of either sign, subnormals and normal numbers, in every pair
_SIGNED_ZEROS = [0.0, -0.0, 5e-324, -5e-324, 3e-310, -3e-310, 1.0, -2.5]


@pytest.mark.parametrize("dim", [1, 2, 57, 168, 330, "signed_zeros"])
def test_density_operator_hermitizes_with_the_bits_of_the_plain_form(dim):
    rng = np.random.default_rng(11)
    if dim == "signed_zeros":
        parts = rng.choice(_SIGNED_ZEROS, (2, 40, 40))
    else:
        parts = rng.standard_normal((2, dim, dim))
    # set the parts directly: x + 1j * y would drop some zero signs
    mat = np.empty(parts.shape[1:], dtype=complex)
    mat.real, mat.imag = parts
    got = _density_operator(mat).matrix
    want = (mat + mat.conj().T) / 2.0
    # the bits of every real and imaginary part, signs of zeros included
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# non-real numpy centers: imaginary-axis points of either zero sign, both
# diagonals and 16 seeded random points of scale 2
_CONJUGATE_CENTERS = np.array(
    [2.1j, -0.4j, complex(-0.0, 1.1), 1 + 1j, -1.5 + 1.5j, 0.3 - 2.2j,
     *2.0 * np.random.default_rng(3).standard_normal(32).view(complex)])


@pytest.mark.parametrize("dim", [2, 17, 60, 120, 168])
def test_displaced_thermal_of_conjugate_center_is_conjugate_state(dim):
    # the identity ensemble_average_state shares states by, at dims on both
    # sides of 100, where numpy's complex power leaves repeated squaring.
    # The values are equal; bits may differ only in the sign of exact zeros
    # (the Hermitized diagonal's imaginary +0.0), which a sum that starts
    # from +0.0 absorbs.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        for z in _CONJUGATE_CENTERS:
            assert type(z) is np.complex128 and z.imag != 0.0
            for nbar in (0.05, 0.5, 2.3):
                got = displaced_thermal(z.conjugate(), nbar, dim).matrix
                want = displaced_thermal(z, nbar, dim).matrix.conj()
                assert np.array_equal(got, want), (z, nbar)
                flipped = got.view(np.uint64) != want.view(np.uint64)
                assert np.all(got.view(float)[flipped] == 0.0), (z, nbar)


@pytest.mark.parametrize("alpha", [0.7, 2j, 0.3 - 0.2j, -1.4 + 0.9j])
def test_displacement_negated_alpha_is_checkerboard_on_lower_triangle(alpha):
    dim = 60
    m, n = np.tril_indices(dim)
    sign = (-1.0) ** (m - n)
    assert np.array_equal(displacement_operator(-alpha, dim)[m, n],
                          sign * displacement_operator(alpha, dim)[m, n])


@pytest.mark.parametrize("dim", [2, 99, 100, 101, 150, 199])
def test_parity_holds_takes_the_scalar_phase_powers_bitwise(dim):
    # _parity_holds and displacement_operator take each sign's phase
    # powers from one np.power call over np.arange(dim), _phase_powers, at
    # np.complex128 centers (the operator takes every alpha so, and
    # _mixture's centers are so): its values have the bits of numpy's
    # scalar powers p ** d, which the per-offset oracle takes, on both
    # sides of d = 100, where numpy leaves repeated squaring for exp-log,
    # and the check's verdict is the scalar powers', True up to dim 100
    rng = np.random.default_rng(dim)
    centers = [*2.0 * rng.standard_normal(40).view(complex),
               np.complex128(-0.7), np.complex128(1.3)]
    verdicts = []
    for z in centers:
        for c in (z, -z):
            p = c / abs(c)
            want = np.array([p ** d for d in range(dim)])
            got = fock._phase_powers(c, dim)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), z
        p, minus_p = z / abs(z), -z / abs(z)
        verdicts.append(all(minus_p ** d == (p ** d if d % 2 == 0 else -p ** d)
                            for d in range(1, dim)))
        assert fock._parity_holds(z, dim) is verdicts[-1], z
    assert all(verdicts) == (dim <= 100)


def test_displaced_thermal_moments():
    alpha, N = 1.1 + 0.5j, 0.7
    rho = displaced_thermal(alpha, N, default_dim(abs(alpha) ** 2 + N))
    a = annihilation_matrix(rho.dim)
    mean_a = np.trace(rho.matrix @ a)
    assert mean_a == pytest.approx(alpha, abs=1e-8)
    nbar = np.trace(rho.matrix @ (a.conj().T @ a)).real
    assert nbar == pytest.approx(abs(alpha) ** 2 + N, rel=1e-7)
    assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("alpha", [0.0, 0.8, -1.1 + 0.4j])
def test_displaced_thermal_zero_width_is_pure(alpha):
    rho = displaced_thermal(alpha, 0.0, 40)
    vec = coherent_state(alpha, 40)
    np.testing.assert_allclose(rho.matrix, np.outer(vec, vec.conj()),
                               atol=1e-12)


@pytest.mark.parametrize("build", [
    lambda: thermal_state(0.7, 30),
    lambda: displaced_thermal(1.1 + 0.5j, 0.7, 30),
    lambda: displaced_thermal(-0.9 + 0.3j, 0.0, 30),
], ids=["thermal", "displaced_thermal", "displaced_zero_width"])
def test_states_are_exactly_hermitian(build):
    # the entropies read the matrix as built, without Hermitizing it again
    rho = build()
    assert np.array_equal(rho.matrix, rho.matrix.conj().T)


@pytest.mark.parametrize("build", [
    lambda: thermal_state(0.7, 30),
    lambda: displaced_thermal(1.1 + 0.5j, 0.7, 30),
    lambda: DensityOperator(matrix=np.diag(np.full(30, 1 / 30 + 0j))),
], ids=["thermal", "displaced_thermal", "constructed"])
def test_state_is_read_only_and_its_entropy_taken_once(build, monkeypatch):
    # the entropy is kept with the state, so its matrix must not change
    rho = build()
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 0.5
    first = von_neumann_entropy(rho)
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda *a, **k: calls.append(a) or eigvalsh(*a, **k))
    assert von_neumann_entropy(rho) == first
    assert calls == []


def _diag_with(entry, at):
    mat = np.diag(np.full(3, 1 / 3 + 0j))
    mat[at] = entry
    return mat


@pytest.mark.parametrize("entry, at", [
    (np.nan, (0, 0)), (np.inf, (0, 2)), (complex(0.1, -np.inf), (2, 1)),
], ids=["nan_diagonal", "inf_off_diagonal", "inf_imaginary"])
def test_state_refuses_non_finite_matrix(entry, at):
    # an eigensolve of a NaN diagonal need not raise: the entropy of
    # diag(NaN, 1/3, 1/3) would come out as a finite 0.528 bits
    with pytest.raises(NumericFailure, match="dim 3"):
        DensityOperator(matrix=_diag_with(entry, at))


def test_state_dimension_is_its_matrix_shape():
    rho = DensityOperator(matrix=np.diag(np.full(3, 1 / 3 + 0j)))
    assert rho.dim == rho.matrix.shape[0] == 3
    assert thermal_state(0.5, 7).dim == 7
    with pytest.raises(TypeError):
        DensityOperator(matrix=np.eye(3, dtype=complex) / 3, dim=5)


@pytest.mark.parametrize("build", [
    lambda: thermal_state(0.7, 30),
    lambda: thermal_state(0.0, 4),
    lambda: displaced_thermal(1.1 + 0.5j, 0.7, 30),
    lambda: DensityOperator(matrix=np.diag([0.5 + 0j, 0.25, 0.125])),
], ids=["thermal", "vacuum", "displaced_thermal", "constructed"])
def test_trace_deficit_is_read_off_the_matrix(build):
    rho = build()
    want = max(0.0, 1.0 - float(np.trace(rho.matrix).real))
    assert rho.trace_deficit == want
    with pytest.raises(AttributeError):
        rho.trace_deficit = 0.0
    with pytest.raises(TypeError):
        DensityOperator(matrix=rho.matrix, truncation_tol=0.0)


def test_relative_entropy_of_different_dimensions_is_a_value_error():
    # the dimensions compared are the matrices' own, so a mismatch is a
    # typed error before any index runs past a matrix
    with pytest.raises(ValueError, match="truncation dimension"):
        relative_entropy(thermal_state(0.5, 3), thermal_state(0.5, 5))


def test_support_error_is_a_numeric_failure():
    # so the CLI reports it with exit 3, not as a usage error
    assert issubclass(SupportError, NumericFailure)
    assert not issubclass(SupportError, ValueError)


def test_relative_entropy_thermal_oracle():
    # geometric distributions give D(tau_M || tau_N) in closed form
    M, N = 1.2, 3.0
    rho, sigma = thermal_state(M, 250), thermal_state(N, 250)
    rm, rn = M / (M + 1), N / (N + 1)
    expect = (math.log2((N + 1) / (M + 1))
              + M * math.log2(rm / rn))
    assert relative_entropy(rho, sigma) == pytest.approx(expect, abs=1e-8)


def test_relative_entropy_self_is_zero():
    tau = thermal_state(0.5, 100)
    assert relative_entropy(tau, tau) == pytest.approx(0.0, abs=1e-10)


def test_relative_entropy_support_violation():
    vec = coherent_state(0j, 30)
    pure = DensityOperator(matrix=np.outer(vec, vec.conj()))
    mixed = thermal_state(1.0, 30)
    with pytest.raises(SupportError):
        relative_entropy(mixed, pure)


@pytest.mark.parametrize("order", ["reversed", "shuffled", "ties"])
def test_relative_entropy_diagonal_sigma_in_any_order_matches_overlap_oracle(
        order):
    # a diagonal sigma is read off its diagonal, whose entries need not be
    # sorted or distinct; each lam_k must stay paired with rho's <k|rho|k>
    weights = np.diag(thermal_state(20.0, 60).matrix).real
    if order == "reversed":
        weights = weights[::-1]
    elif order == "shuffled":
        weights = np.random.default_rng(7).permutation(weights)
    else:
        weights = np.repeat(weights[:30:2], 4)[:60]
        weights = weights / weights.sum()
    sigma = DensityOperator(matrix=np.diag(weights.astype(complex)))
    rho = displaced_thermal(0.9 - 0.4j, 0.8, 60)
    got = relative_entropy(rho, sigma)
    assert got > 0.01
    assert got == pytest.approx(relative_entropy_eigh_overlap(rho, sigma),
                                abs=1e-10)


def test_relative_entropy_refuses_a_non_diagonal_sigma():
    # sigma is always a thermal reference, diagonal in the number basis; a
    # sigma with any off-diagonal entry is refused, not eigensolved
    rho = thermal_state(0.6, 30)
    sigma = displaced_thermal(0.7 - 0.4j, 0.0, 30)
    with pytest.raises(ValueError, match="diagonal"):
        relative_entropy(rho, sigma)
    one_entry = thermal_state(0.6, 30).matrix.copy()
    one_entry[3, 2] = one_entry[2, 3] = 1e-300
    with pytest.raises(ValueError, match="diagonal"):
        relative_entropy(rho, DensityOperator(matrix=one_entry))


def test_quantum_chi2_thermal_oracle():
    # diagonal rho = tau_M against tau_N':
    # chi2 = (N'+1) sum_n p_n^2 t^{2n} - 1 sums as a geometric series
    M, Np = 0.8, 2.0
    rho = thermal_state(M, 400)
    t2 = (Np + 1.0) / Np
    q = (M / (M + 1.0)) ** 2 * t2
    assert q < 1.0
    expect = (Np + 1.0) / ((M + 1.0) ** 2 * (1.0 - q)) - 1.0
    assert quantum_chi2_direct(rho, Np) == pytest.approx(expect, rel=1e-10)


def test_quantum_chi2_detects_divergence():
    # tau_M against a much narrower reference: the series diverges and the
    # truncated sum keeps growing with dim
    rho = thermal_state(3.0, 200)
    with pytest.raises(TruncationError):
        quantum_chi2_direct(rho, 0.2)


def test_quantum_chi2_rejects_bad_reference():
    rho = thermal_state(1.0, 50)
    with pytest.raises(ValueError):
        quantum_chi2_direct(rho, 0.0)
