import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

from thermalcomm import (PolarCode, bec_bhattacharyya, bec_frozen_set,
                         channel_params, construct_code,
                         construct_multilevel, induced_channel,
                         make_constellation, polar_transform, sc_decode,
                         simulate)
from thermalcomm.polar import (ErasureChannel, _inverse_gray, _sc_batch,
                               estimate_level_mi, genie_error_counts,
                               sc_decode_batch)

P = channel_params(0.8, 0.0, 7.0)


def make_channel(m=4, p=P):
    return induced_channel(p, make_constellation("equilattice", m))


# ---------------------------------------------------------------- transform

def test_transform_examples():
    # x = u F^{(x) log2 n} with F = [[1, 0], [1, 1]]: the last input row is
    # the all-ones row
    np.testing.assert_array_equal(polar_transform(np.array([0, 0, 0, 1])),
                                  [1, 1, 1, 1])
    np.testing.assert_array_equal(polar_transform(np.array([1, 0, 0, 0])),
                                  [1, 0, 0, 0])
    np.testing.assert_array_equal(polar_transform(np.array([1, 1])), [0, 1])


def test_transform_is_involution_exhaustive():
    for n in (2, 4, 8):
        for bits in itertools.product((0, 1), repeat=n):
            u = np.array(bits, dtype=np.int8)
            np.testing.assert_array_equal(
                polar_transform(polar_transform(u)), u)


@given(st.integers(0, 2 ** 16 - 1), st.integers(0, 2 ** 16 - 1))
@settings(max_examples=50, deadline=None)
def test_transform_linearity(a, b):
    ua = np.array([(a >> i) & 1 for i in range(16)], dtype=np.int8)
    ub = np.array([(b >> i) & 1 for i in range(16)], dtype=np.int8)
    lhs = polar_transform((ua + ub) % 2)
    rhs = (polar_transform(ua) + polar_transform(ub)) % 2
    np.testing.assert_array_equal(lhs, rhs)


def test_transform_rejects_bad_length():
    with pytest.raises(ValueError):
        polar_transform(np.array([1, 0, 1]))


# ------------------------------------------------------------ BEC recursion

def test_bec_children():
    np.testing.assert_allclose(bec_bhattacharyya(0.5, 2), [0.75, 0.25])


def test_bec_recursion_preserves_mean():
    for eps in (0.1, 0.5, 0.9):
        z = bec_bhattacharyya(eps, 256)
        assert np.mean(z) == pytest.approx(eps, abs=1e-12)
        assert np.all((z >= 0) & (z <= 1))


def test_bec_frozen_set_matches_capacity_ordering():
    # at rate just under capacity the frozen set must contain every channel
    # with erasure probability above 1/2
    eps = 0.4
    frozen = bec_frozen_set(eps, 512, 0.5)
    z = bec_bhattacharyya(eps, 512)
    bad = np.nonzero(z > 0.5)[0]
    assert np.all(np.isin(bad, frozen))


def test_mc_construction_agrees_with_bec_oracle_small():
    code = construct_code(ErasureChannel(0.5), 0, 128, 0.25, 4000, seed=3)
    oracle = bec_frozen_set(0.5, 128, 0.25)
    overlap = len(np.intersect1d(code.frozen, oracle)) / len(oracle)
    assert overlap >= 0.9


def test_genie_soft_and_hard_agree_on_bec():
    # on the BEC all LLRs are 0 or +-large, so the soft conditional error
    # probability collapses to the tie-counting hard rule
    rng = np.random.default_rng(11)
    ch = ErasureChannel(0.5)
    bits, llr = ch.sample_level(rng, 0, 64 * 200)
    bits = bits.reshape(200, 64).astype(np.int8)
    llr = llr.reshape(200, 64)
    u = np.stack([polar_transform(row) for row in bits])
    hard = genie_error_counts(llr, u)
    soft = genie_error_counts(llr, u, soft=True)
    np.testing.assert_allclose(soft, hard, atol=1e-6)


# ------------------------------------------------------- induced channel

def test_induced_channel_shape():
    ch = make_channel(4)
    assert ch.levels == 4
    assert ch.noise_var == pytest.approx((P.Nc + 1.0) / 2.0)
    chm2 = make_channel(2)
    assert chm2.levels == 2


def test_induced_channel_rejects_bad_input():
    c = make_constellation("random_walk", 4)   # non-uniform probabilities
    with pytest.raises(ValueError):
        induced_channel(P, c)
    with pytest.raises(ValueError):
        induced_channel(P, make_constellation("equilattice", 3))


def test_heterodyne_noise_variance():
    ch = make_channel(4)
    rng = np.random.default_rng(0)
    j = np.full(40_000, 3)  # one fixed amplitude per quadrature
    y = ch._heterodyne(rng, j) + 1j * ch._heterodyne(rng, j)
    assert np.mean(y.real) == pytest.approx(P.k * ch.amplitudes[3], abs=0.02)
    target = (P.Nc + 1.0) / 2.0
    assert np.var(y.real) == pytest.approx(target, rel=0.02)
    assert np.var(y.imag) == pytest.approx(target, rel=0.02)


def msb_llr(ch, y):
    """LLR of the real quadrature's first level for heterodyne outcome y."""
    return float(ch.level_llrs(0, np.zeros((1, 0)), np.array([y.real]))[0])


def test_bpsk_llr_closed_form():
    # m=2 per quadrature: the MSB of the real quadrature sees antipodal
    # signalling at amplitude a = k sqrt(N/2), so LLR = 2 a Re(y) / var
    p = P
    ch = make_channel(2)
    a = p.k * math.sqrt(p.N / 2.0)
    var = (p.Nc + 1.0) / 2.0
    for y in (0.4 + 0.2j, -1.3 - 0.9j, 2.0 + 0j):
        got = msb_llr(ch, y)
        want = 2.0 * a * y.real / var
        assert abs(got) == pytest.approx(abs(want), rel=1e-9)
        assert math.copysign(1, got) * math.copysign(1, want) in (-1.0, 1.0)


def test_bpsk_llr_sign_consistency():
    # a strongly positive observation must favour one bit value and a
    # strongly negative observation the other
    ch = make_channel(2)
    lp = msb_llr(ch, 5.0 + 0j)
    lm = msb_llr(ch, -5.0 + 0j)
    assert lp * lm < 0


def oracle_level_llrs(m, level, priors, yq, p=P):
    """Brute force: for each outcome, scipy logsumexp over the points whose
    Gray-label prefix equals its priors, split by the level's bit."""
    nbits = int(math.log2(m))
    bpos = level % nbits
    labels = [[((i ^ (i >> 1)) >> (nbits - 1 - b)) & 1
               for b in range(nbits)] for i in range(m)]
    centers = p.k * math.sqrt(p.N / 2.0) * make_constellation(
        "equilattice", m).points
    var = (p.Nc + 1.0) / 2.0
    out = np.empty(len(yq))
    for t, (pri, y) in enumerate(zip(priors, yq)):
        match = [i for i in range(m) if labels[i][:bpos] == list(pri)]
        e = {bit: [-(y - centers[i]) ** 2 / (2.0 * var) for i in match
                   if labels[i][bpos] == bit] for bit in (0, 1)}
        out[t] = logsumexp(e[0]) - logsumexp(e[1])
    return out


@pytest.mark.parametrize("m", [2, 4, 8, 16])
def test_level_llrs_match_brute_force_oracle(m):
    ch = make_channel(m)
    rng = np.random.default_rng(100 + m)
    for level in range(ch.levels):
        bpos = level % ch.nbits
        yq = np.concatenate([
            P.k * ch.amplitudes[rng.integers(0, m, 150)]
            + rng.normal(scale=math.sqrt(ch.noise_var), size=150),
            rng.uniform(-30.0, 30.0, 50)])
        priors = rng.integers(0, 2, size=(len(yq), bpos)).astype(np.int8)
        got = ch.level_llrs(level, priors, yq)
        want = oracle_level_llrs(m, level, priors, yq)
        tol = 1e-12 * np.maximum(1.0, np.abs(want))
        assert np.all(np.abs(got - want) <= tol)


def test_estimate_level_mi_in_unit_interval():
    ch = make_channel(4)
    rng = np.random.default_rng(5)
    for lv in range(ch.levels):
        mi = estimate_level_mi(ch, lv, 4000, rng)
        assert -0.01 <= mi <= 1.0


def test_inverse_gray_roundtrip():
    v = np.arange(64)
    gray = v ^ (v >> 1)
    np.testing.assert_array_equal(_inverse_gray(gray), v)


# ---------------------------------------------------------------- decoding

def test_sc_decode_noiseless_roundtrip():
    n = 64
    rng = np.random.default_rng(9)
    frozen = np.sort(rng.choice(n, size=n // 2, replace=False))
    code = PolarCode(n=n, frozen=frozen)
    u = np.zeros(n, dtype=np.int8)
    info = code.info_set
    u[info] = rng.integers(0, 2, size=len(info))
    x = polar_transform(u)
    llr = 40.0 * (1.0 - 2.0 * x.astype(float))
    np.testing.assert_array_equal(sc_decode(code, llr), u)


def test_sc_decode_batch_matches_scalar():
    n = 32
    rng = np.random.default_rng(21)
    frozen = np.sort(rng.choice(n, size=n // 2, replace=False))
    code = PolarCode(n=n, frozen=frozen)
    llr = rng.normal(size=(8, n)) * 3.0
    batch = sc_decode_batch(code, llr)
    for i in range(8):
        np.testing.assert_array_equal(batch[i], sc_decode(code, llr[i]))


def test_sc_partial_sums_are_the_transform_of_the_decisions():
    # whatever the decisions, the partial sums SC carries up the butterfly
    # must be the polar transform of the decided inputs
    rng = np.random.default_rng(5)
    llr = rng.normal(size=(16, 64))
    flips = rng.integers(0, 2, size=(16, 64)).astype(np.int8)
    u, x = _sc_batch(llr, lambda i, col: (col < 0) ^ flips[:, i], 0)
    for row_u, row_x in zip(u, x):
        np.testing.assert_array_equal(row_x, polar_transform(row_u))


def test_polar_code_validation():
    with pytest.raises(ValueError):
        PolarCode(n=12, frozen=np.array([0]))
    with pytest.raises(ValueError):
        PolarCode(n=8, frozen=np.array([0, 9]))


def test_code_rate_property():
    code = PolarCode(n=8, frozen=np.array([0, 1, 2]))
    assert code.rate == pytest.approx(5 / 8)
    np.testing.assert_array_equal(code.info_set, [3, 4, 5, 6, 7])


# ---------------------------------------------------------------- pipeline

def test_simulate_deterministic():
    ch = make_channel(2)
    codes = construct_multilevel(ch, 128, 0.8, 500, seed=4)
    r1 = simulate(ch, codes, 50, seed=17)
    r2 = simulate(ch, codes, 50, seed=17)
    assert r1 == r2


def test_simulate_trials_zero_reports_construction_only():
    ch = make_channel(2)
    codes = construct_multilevel(ch, 64, 0.5, 500, seed=4)
    rep = simulate(ch, codes, 0, seed=17)
    assert rep["fer"] is None
    assert rep["level_ber"] is None
    assert rep["blocklength"] == 64
    assert rep["sum_rate_bits_per_mode"] == pytest.approx(
        sum(c.rate for c in codes))


def test_simulate_low_rate_is_reliable():
    # far below the level MI every frame should decode
    ch = make_channel(2)
    codes = construct_multilevel(ch, 256, 0.3, 1000, seed=8)
    rep = simulate(ch, codes, 100, seed=3)
    assert rep["fer"] <= 0.02


def test_construct_multilevel_respects_budget():
    ch = make_channel(4)
    codes = construct_multilevel(ch, 128, 1.5, 500, seed=1)
    total_info = sum(len(c.info_set) for c in codes)
    assert total_info == round(1.5 * 128)
    with pytest.raises(ValueError):
        construct_multilevel(ch, 128, 4.5, 500, seed=1)
