"""Cross-checks between the classical chi^2 series and kernel paths, the
quadrature oracle, and the quantum kernel."""

import math

import numpy as np
import pytest
from mpmath import mp, mpf

import oracles
from oracles import (classical_chi2_series,
                     classical_one_plus_chi2_quadrature,
                     gaussian_kernel_chi2_unfolded,
                     quantum_chi2_constellation)
from thermalcomm import (KINDS, ComplexConstellation, RealConstellation,
                         channel_params, classical_chi2_kernel, constellations,
                         delta_B_bound, make_constellation,
                         product_constellation)
from thermalcomm.constellations import _DPS, _gaussian_kernel_chi2


def pure_loss_with_snr(s, k=0.8):
    """Channel with N0 = 0 whose derived SNR equals ``s`` exactly:
    invert s = u/(sqrt(u(u+1)) - u) for u = k^2 N."""
    N = s * s / ((1.0 + 2.0 * s) * k * k)
    p = channel_params(k, 0.0, N)
    assert abs(p.s - s) <= 1e-10 * s
    return p


@pytest.mark.parametrize("s", [0.3, 2.0, 9.435])
@pytest.mark.parametrize("x,xp", [(0.0, 0.0), (1.2, -0.7), (2.5, 2.5)])
def test_kernel_K_against_quadrature(s, x, xp):
    # the classical kernel double sum on the equally likely points {x, x'}
    points = np.unique([x, xp])
    c = RealConstellation(points=points,
                          probs=np.full(len(points), 1.0 / len(points)),
                          kind="pair")
    assert 1.0 + classical_chi2_kernel(c, s) == pytest.approx(
        classical_one_plus_chi2_quadrature(c, s), rel=1e-9)


def test_quadrature_returns_one_plus_chi2():
    c = make_constellation("equilattice", 4)
    s = 2.0
    assert classical_one_plus_chi2_quadrature(c, s) == pytest.approx(
        1.0 + classical_chi2_series(c, s), rel=1e-10)


@pytest.mark.parametrize("kind", KINDS)
def test_three_way_agreement_spot(kind):
    c = make_constellation(kind, 5)
    for s in (0.5, 9.435):
        ser = classical_chi2_series(c, s)
        ker = classical_chi2_kernel(c, s)
        qua = classical_one_plus_chi2_quadrature(c, s) - 1.0
        assert ker == pytest.approx(ser, rel=1e-10, abs=1e-25)
        assert qua == pytest.approx(ser, rel=1e-7, abs=1e-12)


def test_kernel_R_prefactor_identity():
    # R(0,0) = N'(N'+1)/(N' + 2 N' Nc - Nc^2) = (1+s)^2/(1+2s): the quantum
    # double sum over the one-point constellation at the origin is R(0, 0)
    for (k, N0, N) in [(0.8, 0.0, 7.0), (0.7, 1.2, 3.0), (0.95, 0.3, 10.0)]:
        p = channel_params(k, N0, N)
        origin = ComplexConstellation(points=np.array([0j]),
                                      probs=np.array([1.0]))
        expect = (1.0 + p.s) ** 2 / (1.0 + 2.0 * p.s)
        assert 1.0 + quantum_chi2_constellation(p, origin) == pytest.approx(
            expect, rel=1e-12)


def test_quantum_kernel_factorizes_over_quadratures():
    # product-form constellation => 1 + chi2_quantum = (1 + chi2_classical)^2
    for kind in ("equilattice", "gauss_hermite"):
        for s in (0.1, 1.0, 9.435):
            p = pure_loss_with_snr(s)
            c = make_constellation(kind, 3)
            Q = product_constellation(c, p.N)
            xq = quantum_chi2_constellation(p, Q)
            xc = classical_chi2_kernel(c, p.s)
            assert xq == pytest.approx(xc * (xc + 2.0), rel=1e-11,
                                       abs=1e-28)


def test_factorization_with_thermal_environment():
    p = channel_params(0.75, 0.8, 5.0)
    c = make_constellation("quantile", 4)
    Q = product_constellation(c, p.N)
    xq = quantum_chi2_constellation(p, Q)
    xc = classical_chi2_kernel(c, p.s)
    assert xq == pytest.approx(xc * (xc + 2.0), rel=1e-11)


def test_delta_B_bound_is_chi2_of_product():
    p = channel_params(0.8, 0.0, 7.0)
    c = make_constellation("gauss_hermite", 5)
    x = classical_chi2_kernel(c, p.s)
    assert delta_B_bound(p, c) == pytest.approx(x * (x + 2.0), rel=1e-12)


def test_delta_B_bound_monotone_in_m():
    p = channel_params(0.8, 0.0, 7.0)
    vals = [delta_B_bound(p, make_constellation("gauss_hermite", m))
            for m in range(2, 12)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# ------------------------------------------------ mirror-folded kernel sum

def _is_mirror_symmetric(points, probs):
    return (np.array_equal(points[::-1], -points)
            and np.array_equal(probs[::-1], probs))


def _as_bits(values):
    return np.array(values, dtype=float).view(np.uint64)


@pytest.mark.parametrize("k", [0.3, 0.6, 0.8, 0.95])
def test_folded_kernel_matches_unfolded_oracle_bitwise(k, monkeypatch):
    # every constellation is exactly mirror-symmetric, so the library sums
    # each mirror pair once; that reorders the 50-digit sum, and the double
    # it rounds to must not move
    grid = [(channel_params(k, 0.0, N).s, make_constellation(kind, m))
            for N in (1.0, 7.0, 30.0) for kind in KINDS for m in range(2, 25)]
    assert all(_is_mirror_symmetric(c.points, c.probs) for _, c in grid)
    folded = [classical_chi2_kernel(c, s) for s, c in grid]
    monkeypatch.setattr(constellations, "_gaussian_kernel_chi2",
                        gaussian_kernel_chi2_unfolded)
    unfolded = [classical_chi2_kernel(c, s) for s, c in grid]
    assert np.array_equal(_as_bits(folded), _as_bits(unfolded))


@pytest.mark.parametrize("points, probs, mirror", [
    ([-0.7, 1.2], [0.5, 0.5], False),
    ([-1.0, 0.2, 0.9], [0.3, 0.3, 0.4], False),
    ([-1.0, 0.0, 1.0], [0.2, 0.5, 0.3], False),
    ([-1.5, -0.5, 0.5, 1.5], [0.1, 0.2, 0.3, 0.4], False),
    ([0.4], [1.0], False),
    ([0.0], [1.0], True),
    ([-1.0, -0.0, 1.0], [0.25, 0.5, 0.25], True),
    ([-1.5, -0.5, 0.5, 1.5], [0.1, 0.4, 0.4, 0.1], True),
], ids=["asymmetric_pair", "asymmetric_triple", "asymmetric_probs",
        "asymmetric_probs_even", "one_point", "one_point_at_origin",
        "signed_zero_center", "symmetric_even"])
def test_kernel_sum_matches_unfolded_oracle_off_the_fold(points, probs,
                                                          mirror):
    # inputs the fold must not take, and the small cases at its edges
    points, probs = np.array(points), np.array(probs)
    assert _is_mirror_symmetric(points, probs) == mirror
    with mp.workdps(_DPS):
        s = mpf(9.435)
        a = s / (2 * (1 + 2 * s))
        args = (points, probs, (1 + s) / mp.sqrt(1 + 2 * s), a * s,
                a * (1 + s))
        got = _gaussian_kernel_chi2(*args)
        want = gaussian_kernel_chi2_unfolded(*args)
    assert np.array_equal(_as_bits([got]), _as_bits([want]))


@pytest.mark.parametrize("k, N0, N", [(0.8, 0.0, 7.0), (0.75, 0.8, 5.0),
                                      (0.95, 0.3, 10.0)])
def test_folded_kernel_on_complex_product_points_bitwise(k, N0, N,
                                                         monkeypatch):
    # the quantum oracle's input: point a m + b is sqrt(N/2)(x_a + i x_b),
    # so the reversed list is the negated one and the fold applies
    p = channel_params(k, N0, N)
    Qs = [product_constellation(make_constellation(kind, m), p.N)
          for kind in KINDS for m in range(2, 7)]
    assert all(_is_mirror_symmetric(Q.points, Q.probs) for Q in Qs)
    folded = [quantum_chi2_constellation(p, Q) for Q in Qs]
    monkeypatch.setattr(oracles, "_gaussian_kernel_chi2",
                        gaussian_kernel_chi2_unfolded)
    unfolded = [quantum_chi2_constellation(p, Q) for Q in Qs]
    assert np.array_equal(_as_bits(folded), _as_bits(unfolded))
