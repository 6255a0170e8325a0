import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import classical_chi2_series, hermite_moment
from thermalcomm import (KINDS, RealConstellation, classical_chi2_kernel,
                         make_constellation, product_constellation)
from thermalcomm.constellations import _EXP_M2, _ndtri
from thermalcomm.errors import NumericFailure

SQ3 = math.sqrt(3.0)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("m", [2, 3, 4, 7, 12])
def test_unit_variance_zero_mean(kind, m):
    c = make_constellation(kind, m)
    assert np.dot(c.probs, c.points) == pytest.approx(0.0, abs=1e-12)
    assert np.dot(c.probs, c.points ** 2) == pytest.approx(1.0, abs=1e-12)


def test_point_count_is_the_number_of_points():
    c = RealConstellation(points=np.array([-1.0, 1.0]),
                          probs=np.array([0.5, 0.5]), kind="pair")
    assert c.m == 2
    assert make_constellation("quantile", 7).m == 7
    with pytest.raises(TypeError):
        RealConstellation(points=np.array([-1.0, 1.0]),
                          probs=np.array([0.5, 0.5]), kind="pair", m=3)


@pytest.mark.parametrize("points, probs", [
    ([-1j, 1j], [0.5, 0.5]),
    ([-1.0, 1.0], [0.5 + 0j, 0.5 + 0j]),
    ([-np.inf, np.inf], [0.5, 0.5]),
    ([-1.0, np.nan], [0.5, 0.5]),
    ([-1.0, 1.0], [np.inf, 0.5]),
    ([-1.0, 0.0, 1.0], [0.5, 0.5]),
    ([[-1.0, 1.0]], [[0.5, 0.5]]),
], ids=["complex_points", "complex_probs", "infinite_points", "nan_point",
        "infinite_prob", "three_points_two_probs", "two_dimensional"])
def test_constellation_refuses_points_and_probs_not_real_finite_1d(points,
                                                                   probs):
    # built directly, such a constellation gave a NaN or a wrong chi-square
    # and a product constellation of mismatched sizes
    with pytest.raises(ValueError, match="real, finite and 1-D"):
        RealConstellation(np.array(points), np.array(probs), "bad")


@given(kind=st.sampled_from(KINDS), m=st.integers(2, 40))
@settings(max_examples=60, deadline=None)
def test_basic_invariants(kind, m):
    c = make_constellation(kind, m)
    assert c.m == m == len(c.points) == len(c.probs)
    assert np.all(np.diff(c.points) > 0)          # strictly increasing
    assert np.all(c.probs > 0)
    assert np.sum(c.probs) == pytest.approx(1.0, abs=1e-12)
    # all four families are symmetric about the origin
    np.testing.assert_allclose(c.points, -c.points[::-1], atol=1e-12)
    np.testing.assert_allclose(c.probs, c.probs[::-1], atol=1e-12)


@pytest.mark.parametrize("kind, m_last", [("gauss_hermite", 150),
                                          ("random_walk", 1075)])
def test_weight_underflow_raises_from_the_first_m_it_reaches(kind, m_last):
    # the smallest weight of m_last points is still a positive double; one
    # point more and it rounds to 0, which would drop that point
    assert make_constellation(kind, m_last).probs.min() > 0.0
    with pytest.raises(NumericFailure,
                       match=f"{kind} weights underflow at m = {m_last + 1}"):
        make_constellation(kind, m_last + 1)


def test_equilattice_m2_is_bpsk():
    c = make_constellation("equilattice", 2)
    np.testing.assert_allclose(c.points, [-1.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(c.probs, [0.5, 0.5])
    # He_4(+-1) = 1 - 6 + 3 = -2: the first moment a 2-point lattice misses
    assert hermite_moment(c, 3) == pytest.approx(0.0, abs=1e-12)
    assert hermite_moment(c, 4) == pytest.approx(-2.0, rel=1e-12)


def test_equilattice_spacing():
    for m in (2, 3, 5, 8):
        c = make_constellation("equilattice", m)
        delta = math.sqrt(12.0 / (m * m - 1))
        np.testing.assert_allclose(np.diff(c.points), delta, rtol=1e-12)


def test_gauss_hermite_m3_closed_form():
    c = make_constellation("gauss_hermite", 3)
    np.testing.assert_allclose(c.points, [-SQ3, 0.0, SQ3], atol=1e-12)
    np.testing.assert_allclose(c.probs, [1 / 6, 2 / 3, 1 / 6], atol=1e-12)


def test_gauss_hermite_m2_closed_form():
    c = make_constellation("gauss_hermite", 2)
    np.testing.assert_allclose(c.points, [-1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(c.probs, [0.5, 0.5], atol=1e-12)


@pytest.mark.parametrize("m", range(2, 13))
def test_gauss_hermite_moment_matching(m):
    c = make_constellation("gauss_hermite", m)
    for k in range(1, 2 * m):
        # normalised moment: E[He_k]/sqrt(k!), the well-conditioned quantity
        norm = hermite_moment(c, k) * math.exp(-0.5 * math.lgamma(k + 1))
        assert abs(norm) < 1e-12, (k, norm)
    # order 2m must NOT vanish -- the quadrature rule is exactly degree 2m-1
    norm_2m = hermite_moment(c, 2 * m) * math.exp(-0.5 * math.lgamma(2 * m + 1))
    assert abs(norm_2m) > 1e-6


def test_random_walk_is_binomial():
    m = 5
    c = make_constellation("random_walk", m)
    expect = np.array([math.comb(m - 1, j) for j in range(m)]) / 2 ** (m - 1)
    np.testing.assert_allclose(c.probs, expect, atol=1e-15)
    np.testing.assert_allclose(
        c.points, (2 * np.arange(m) - (m - 1)) / math.sqrt(m - 1), atol=1e-15)


@pytest.mark.parametrize("m", [2, 5, 6, 64, 512])
def test_quantile_points_are_gaussian_quantiles(m):
    from scipy.stats import norm
    c = make_constellation("quantile", m)
    raw = norm.ppf((2 * np.arange(1, m + 1) - 1) / (2 * m))
    scale = 1.0 / math.sqrt(np.mean(raw ** 2))
    np.testing.assert_allclose(c.points, raw * scale, atol=1e-12)


def test_ndtri_matches_scipy_bitwise():
    # every quantile input up to m = 3,000, then seeded random points, both
    # tails down to the subnormals, each branch's edges, the endpoints and
    # inputs off [0, 1]; scipy's cephes ndtri is the reference
    from scipy.special import ndtri
    quantile = [(2.0 * np.arange(1, m + 1) - 1.0) / (2.0 * m)
                for m in range(2, 3001)]
    rng = np.random.default_rng(36)
    edges = [_EXP_M2, 1.0 - _EXP_M2, math.exp(-32.0), 0.5, 0.0, -0.0, 1.0,
             5e-324, -0.5, 1.5, -math.inf, math.inf, math.nan]
    edges += [np.nextafter(y, side) for y in edges[:4] for side in (0, 1)]
    y = np.concatenate(quantile + [
        rng.random(100_000), np.exp(-rng.uniform(2.0, 745.0, 100_000)),
        -np.expm1(-rng.uniform(2.0, 37.0, 100_000)), edges])
    got = np.array([_ndtri(y0) for y0 in y.tolist()])
    assert np.array_equal(got.view(np.uint64), ndtri(y).view(np.uint64))


def test_gauss_hermite_eigh_matches_eigh_tridiagonal_bitwise(monkeypatch):
    # the nodes and squared first components the build gets from numpy's
    # dense eigh are those of scipy's tridiagonal solver, past the m = 151
    # where the weights underflow and the build refuses.  Every build runs
    # before scipy's first call: two OpenBLAS thread pools taking turns on
    # the cores slow both.
    from scipy.linalg import eigh_tridiagonal
    eigh, got = np.linalg.eigh, []

    def recording(*args, **kwargs):
        nodes, vecs = eigh(*args, **kwargs)
        got.append(np.concatenate([nodes, vecs[0] ** 2]))
        return nodes, vecs

    monkeypatch.setattr(np.linalg, "eigh", recording)
    ms = range(2, 401)
    for m in ms:
        try:
            make_constellation("gauss_hermite", m)
        except NumericFailure:
            assert m > 150
    assert len(got) == len(ms)
    for m, rule in zip(ms, got):
        nodes, vecs = eigh_tridiagonal(np.zeros(m), np.sqrt(np.arange(1.0, m)))
        want = np.concatenate([nodes, vecs[0] ** 2])
        assert np.array_equal(rule.view(np.uint64), want.view(np.uint64)), m


def test_unknown_kind_and_bad_m():
    with pytest.raises(ValueError):
        make_constellation("hexagonal", 4)
    with pytest.raises(ValueError):
        make_constellation("equilattice", 1)
    with pytest.raises(ValueError):
        make_constellation("equilattice", 0)


@given(kind=st.sampled_from(KINDS), m=st.integers(2, 8),
       s=st.floats(0.05, 20.0))
@settings(max_examples=40, deadline=None)
def test_chi2_series_nonnegative_and_matches_kernel(kind, m, s):
    c = make_constellation(kind, m)
    ser = classical_chi2_series(c, s)
    assert ser >= 0.0
    ker = classical_chi2_kernel(c, s)
    assert ker == pytest.approx(ser, rel=1e-10, abs=1e-25)


def test_chi2_decreases_with_gauss_hermite_size():
    s = 9.435
    vals = [classical_chi2_series(make_constellation("gauss_hermite", m), s)
            for m in range(2, 12)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_chi2_rejects_bad_s():
    c = make_constellation("equilattice", 4)
    with pytest.raises(ValueError):
        classical_chi2_series(c, 0.0)
    with pytest.raises(ValueError):
        classical_chi2_kernel(c, -1.0)


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_kernel_refuses_an_snr_not_finite_and_positive(s):
    # a NaN or infinite s would otherwise give a NaN chi-square
    with pytest.raises(ValueError, match="finite and > 0"):
        classical_chi2_kernel(make_constellation("equilattice", 4), s)


def test_chi2_series_fails_typed_without_convergence(monkeypatch):
    # a series still above its envelope tolerance at the last order raises
    # instead of returning the partial sum
    monkeypatch.setattr(oracles, "_SERIES_KMAX", 3)
    with pytest.raises(NumericFailure, match="by order 3"):
        classical_chi2_series(make_constellation("equilattice", 4), 9.435)


def test_product_constellation_layout():
    c = make_constellation("equilattice", 2)
    Q = product_constellation(c, 8.0)
    assert len(Q.points) == 4
    # points are sqrt(N/2) (x_j + i x_k) over the grid
    expect = {2.0 * (a + 1j * b) for a in (-1, 1) for b in (-1, 1)}
    got = {complex(round(z.real, 9), round(z.imag, 9)) for z in Q.points}
    assert got == expect
    np.testing.assert_allclose(Q.probs, 0.25)
    # mean photon number of the ensemble equals the input budget N
    assert sum(q * abs(z) ** 2 for q, z in zip(Q.probs, Q.points)) == \
        pytest.approx(8.0, rel=1e-12)


@pytest.mark.parametrize("N", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_product_constellation_refuses_an_n_not_finite_and_positive(N):
    # a NaN or infinite N would otherwise give NaN and infinite points
    # with only a RuntimeWarning
    with pytest.raises(ValueError, match="finite and > 0"):
        product_constellation(make_constellation("equilattice", 4), N)


def test_constellation_arrays_are_read_only():
    c = make_constellation("quantile", 4)
    with pytest.raises(ValueError):
        c.points[0] = 0.0
