"""Cross-checks between the classical chi^2 series and kernel paths, the
quadrature oracle, and the quantum kernel."""

import math

import numpy as np
import pytest

from oracles import (classical_chi2_series, classical_chi2_unfolded,
                     classical_one_plus_chi2_quadrature,
                     quantum_chi2_constellation)
from thermalcomm import (KINDS, ComplexConstellation, RealConstellation,
                         channel_params, classical_chi2_kernel, delta_B_bound,
                         make_constellation, product_constellation)


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
def test_folded_kernel_matches_unfolded_oracle_bitwise(k):
    # every constellation is exactly mirror-symmetric, so the library sums
    # each mirror pair once; that reorders the 50-digit sum, and the double
    # it rounds to must not move
    grid = [(channel_params(k, 0.0, N).s, make_constellation(kind, m))
            for N in (1.0, 7.0, 30.0) for kind in KINDS for m in range(2, 25)]
    assert all(_is_mirror_symmetric(c.points, c.probs) for _, c in grid)
    folded = [classical_chi2_kernel(c, s) for s, c in grid]
    unfolded = [classical_chi2_unfolded(c, s) for s, c in grid]
    assert np.array_equal(_as_bits(folded), _as_bits(unfolded))


# perfbench/workloads.py's PURE_LOSS_K_GRID, copied so that this test does
# not import the harness
BENCHMARK_K_GRID = ("0.790", "0.7925", "0.795", "0.7975", "0.800", "0.8025",
                    "0.805", "0.8075", "0.810")


def test_folded_kernel_matches_unfolded_oracle_on_the_benchmark_grid():
    # every kernel sum a pure_loss_tables pass takes: N = 7, m <= 16
    grid = [(channel_params(float(k), 0.0, 7.0).s, make_constellation(kind, m))
            for k in BENCHMARK_K_GRID for kind in KINDS for m in range(2, 17)]
    folded = [classical_chi2_kernel(c, s) for s, c in grid]
    unfolded = [classical_chi2_unfolded(c, s) for s, c in grid]
    assert np.array_equal(_as_bits(folded), _as_bits(unfolded))


# ids kind-m-None: m real points, not a product constellation of photon
# number N
@pytest.mark.parametrize("kind, m", [
    (kind, m) for kind in KINDS for m in (2, 3, 15, 16)],
    ids=[f"{kind}-{m}-None" for kind in KINDS for m in (2, 3, 15, 16)])
def test_kernel_sum_takes_one_exponential_per_mirror_pair(kind, m,
                                                          monkeypatch):
    # m mirror-symmetric points: one exp per point, then one per mirror
    # pair (i, j), (i, m-1-j) with i <= j <= m-1-j, so at most
    # m + h(h+1)/2 with h = ceil(m/2); mpf_exp reaches exp_basecase at 50
    # digits, and an exp of 0 reaches it not at all
    from mpmath.libmp import libelefun

    c = make_constellation(kind, m)
    basecase, calls = libelefun.exp_basecase, []

    def counted(*args):
        calls.append(args)
        return basecase(*args)

    monkeypatch.setattr(libelefun, "exp_basecase", counted)
    classical_chi2_kernel(c, 9.435)
    h = (m + 1) // 2
    assert 0 < len(calls) <= m + h * (h + 1) // 2


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
    # inputs the fold must not take, and the small cases at its edges: a
    # constellation built directly need not be mirror-symmetric
    c = RealConstellation(np.array(points), np.array(probs), "test")
    assert _is_mirror_symmetric(c.points, c.probs) == mirror
    got = classical_chi2_kernel(c, 9.435)
    want = classical_chi2_unfolded(c, 9.435)
    assert np.array_equal(_as_bits([got]), _as_bits([want]))
