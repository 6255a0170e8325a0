import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

from oracles import (ErasureChannel, bec_bhattacharyya, bec_frozen_set,
                     inverse_gray, polar_transform)
from thermalcomm import (InducedChannel, PolarCode, channel_params,
                         construct_multilevel, induced_channel,
                         make_constellation, simulate)
from thermalcomm import polar
from thermalcomm.polar import (_sc_batch, _transform_batch,
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
    code = construct_multilevel(ErasureChannel(0.5), 128, 0.25, 4000,
                                seed=3)[0]
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
    hard = np.zeros(64)

    def decide(i, col):
        # 0/1 hard-decision errors, a tie at LLR 0 counting half
        hard[i] += np.sum((col < 0) != u[:, i]) + 0.5 * np.sum(
            (col == 0.0) * (1.0 - 2.0 * (u[:, i] != 0)))
        return u[:, i]

    _sc_batch(llr, decide, 0)
    soft = genie_error_counts(llr, u)
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


def test_induced_channel_derives_its_labels_from_the_point_count():
    # nbits, the Gray labels and their tables follow from m alone
    amplitudes = make_channel(8).amplitudes
    direct = InducedChannel(P, amplitudes)
    assert direct.nbits == 3
    for got, want in zip((direct.labels, *direct.label_tables),
                         (make_channel(8).labels, *make_channel(8).label_tables)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    with pytest.raises(ValueError, match="power of 2, got 6"):
        InducedChannel(P, np.linspace(-1.0, 1.0, 6))
    for derived in ({"nbits": 3}, {"labels": direct.labels},
                    {"label_tables": direct.label_tables}):
        with pytest.raises(TypeError):
            InducedChannel(P, amplitudes, **derived)


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
    return float(ch.level_llrs(0, np.zeros(1, dtype=int),
                               np.array([y.real]))[0])


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


def oracle_level_llrs(m, level, prefix, yq, p=P):
    """Brute force: for each outcome, scipy logsumexp over the points whose
    Gray-label bits begin with those its integer prefix spells, split by
    the level's bit."""
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
        prefix = rng.integers(0, 1 << bpos, size=len(yq))
        got = ch.level_llrs(level, prefix, yq)
        want = oracle_level_llrs(m, level, prefix, yq)
        tol = 1e-12 * np.maximum(1.0, np.abs(want))
        assert np.all(np.abs(got - want) <= tol)


@pytest.mark.parametrize("level, bad", [(0, 1), (2, 4), (2, -1)])
def test_level_llrs_rejects_prefix_outside_its_table(level, bad):
    # level 2 of 8 points per quadrature has a 2-bit prefix, level 0 none
    ch = make_channel(8)
    prefix = np.array([0, bad, 0])
    with pytest.raises(ValueError, match="prefix values"):
        ch.level_llrs(level, prefix, np.zeros(3))
    assert np.all(np.isfinite(ch.level_llrs(level, np.zeros(3, dtype=int),
                                            np.zeros(3))))


@pytest.mark.parametrize("prefix_len", [0, 1, 2, 4])
def test_level_llrs_refuses_a_prefix_of_another_length(prefix_len):
    # one prefix per outcome: a single prefix is not broadcast over them
    ch = make_channel(8)
    prefix = np.zeros(prefix_len, dtype=int)
    with pytest.raises(ValueError, match=rf"prefix of shape \({prefix_len},\) "
                                         r"for outcomes of shape \(3,\)"):
        ch.level_llrs(2, prefix, np.zeros(3))


@pytest.mark.parametrize("slice_", [1, 7, 300])
def test_level_llrs_sliced_match_unsliced_bitwise(monkeypatch, slice_):
    ch = make_channel(8)
    rng = np.random.default_rng(31)
    yq = rng.normal(scale=4.0, size=1000)
    for level in range(ch.levels):
        prefix = rng.integers(0, 1 << (level % ch.nbits), size=len(yq))
        whole = ch.level_llrs(level, prefix, yq)
        monkeypatch.setattr(polar, "_SLICE", slice_)
        sliced = ch.level_llrs(level, prefix, yq)
        monkeypatch.undo()
        np.testing.assert_array_equal(sliced.view(np.uint64),
                                      whole.view(np.uint64))


def test_estimate_level_mi_in_unit_interval():
    ch = make_channel(4)
    rng = np.random.default_rng(5)
    for lv in range(ch.levels):
        mi = estimate_level_mi(ch, lv, 4000, rng)
        assert -0.01 <= mi <= 1.0


def test_inverse_gray_roundtrip():
    v = np.arange(64)
    gray = v ^ (v >> 1)
    np.testing.assert_array_equal(inverse_gray(gray), v)


@pytest.mark.parametrize("m", [2, 4, 8, 16])
def test_labels_are_gray_in_a_one_byte_dtype(m):
    # one byte per label keeps sample_level's per-sample gathers small
    ch = make_channel(m)
    assert ch.labels.dtype.itemsize == 1
    np.testing.assert_array_equal(inverse_gray(ch.labels.astype(np.int64)),
                                  np.arange(m))
    for b, table in enumerate(ch.label_tables):
        # row r of bit position b holds the points with label prefix r,
        # split by the value of bit b
        pre = ch.labels[table] >> (ch.nbits - 1 - b)
        want = 2 * np.arange(1 << b)[:, None, None] + np.arange(2)[:, None]
        np.testing.assert_array_equal(pre, np.broadcast_to(want, pre.shape))


@pytest.mark.parametrize("m", [2, 8])
def test_sample_level_bits_and_llrs_follow_the_gray_labels(m):
    # replay the draw: amplitude indices, then heterodyne outcomes
    ch = make_channel(m)
    for level in range(ch.levels):
        bpos = level % ch.nbits
        bits, llr = ch.sample_level(np.random.default_rng(level), level, 300)
        rng = np.random.default_rng(level)
        j = rng.integers(0, m, size=300)
        yq = ch._heterodyne(rng, j)
        gray = j ^ (j >> 1)
        np.testing.assert_array_equal(bits, (gray >> (ch.nbits - 1 - bpos)) & 1)
        want = oracle_level_llrs(m, level, gray >> (ch.nbits - bpos), yq)
        tol = 1e-12 * np.maximum(1.0, np.abs(want))
        assert np.all(np.abs(llr - want) <= tol)


def test_sample_level_frees_its_index_before_the_llrs():
    # 2^20 samples at the study channel peak at 43 MiB when the int64
    # amplitude index (8 MiB) is dropped after the label gather, and at
    # 51 MiB when it stays live through level_llrs
    ch = make_channel(4)
    tracemalloc.start()
    try:
        ch.sample_level(np.random.default_rng(3), 0, 1 << 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 47 * 2 ** 20, peak / 2 ** 20


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
    np.testing.assert_array_equal(sc_decode_batch(code, llr[None])[0][0], u)


def test_sc_decode_batch_matches_scalar():
    n = 32
    rng = np.random.default_rng(21)
    frozen = np.sort(rng.choice(n, size=n // 2, replace=False))
    code = PolarCode(n=n, frozen=frozen)
    llr = rng.normal(size=(8, n)) * 3.0
    u, x = sc_decode_batch(code, llr)
    for i in range(8):
        np.testing.assert_array_equal(
            u[i], sc_decode_batch(code, llr[i][None])[0][0])
        np.testing.assert_array_equal(x[i], polar_transform(u[i]))


@pytest.mark.parametrize("n", [1, 2, 64])
def test_sc_decode_batch_skips_frozen_subtrees_exactly(n):
    # descending into every subtree, frozen ones included, decides the same
    rng = np.random.default_rng(n)
    llr = rng.normal(size=(16, n)) * 3.0
    for frozen in (np.arange(n), np.arange(n // 2), np.arange(n // 2, n),
                   np.sort(rng.choice(n, size=n // 2, replace=False)),
                   np.array([], dtype=int)):
        code = PolarCode(n=n, frozen=frozen)
        is_frozen = np.isin(np.arange(n), frozen)
        u = np.zeros((16, n), dtype=np.int8)

        def decide(i, col):
            u[:, i] = (col < 0) & ~is_frozen[i]
            return u[:, i]

        x = _sc_batch(llr, decide, 0)
        for g, w in zip(sc_decode_batch(code, llr), (u, x)):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("frozen", [[0], []], ids=["frozen", "free"])
def test_sc_decode_length_one_code(frozen):
    # the one input is the root subtree: frozen, it is 0 whatever its LLR;
    # free, it is the hard decision
    code = PolarCode(n=1, frozen=np.array(frozen, dtype=int))
    llr = np.array([[-2.0], [3.0], [-0.5], [0.0]])
    want = np.zeros((4, 1), dtype=np.int8) if frozen else np.array(
        [[1], [0], [1], [0]], dtype=np.int8)
    for got in sc_decode_batch(code, llr):
        assert got.dtype == np.int8
        np.testing.assert_array_equal(got, want)


def test_sc_partial_sums_are_the_transform_of_the_decisions():
    # whatever the decisions, the partial sums SC carries up the butterfly
    # must be the polar transform of the decided inputs
    rng = np.random.default_rng(5)
    llr = rng.normal(size=(16, 64))
    flips = rng.integers(0, 2, size=(16, 64)).astype(np.int8)
    u = np.zeros((16, 64), dtype=np.int8)

    def decide(i, col):
        u[:, i] = (col < 0) ^ flips[:, i]
        return u[:, i]

    x = _sc_batch(llr, decide, 0)
    for row_u, row_x in zip(u, x):
        np.testing.assert_array_equal(row_x, polar_transform(row_u))


def test_polar_code_validation():
    with pytest.raises(ValueError):
        PolarCode(n=12, frozen=np.array([0]))
    with pytest.raises(ValueError):
        PolarCode(n=8, frozen=np.array([0, 9]))


@pytest.mark.parametrize("frozen", [
    np.array([0.5]), np.array([0.0, 1.0]), np.array([True, False]),
    np.array([[0, 1], [2, 3]]), np.array(3)],
    ids=["half", "whole_floats", "mask", "2d", "0d"])
def test_polar_code_refuses_a_frozen_set_not_1d_integer(frozen):
    # a float frozen set once gave rate 0.875 with all 8 positions in the
    # info set, and a 2-D one failed on numpy's ambiguous truth value
    with pytest.raises(ValueError, match="1-D integer array"):
        PolarCode(n=8, frozen=frozen)


@pytest.mark.parametrize("frozen", [np.array([]), np.array([], dtype=np.int8),
                                    np.array([], dtype=np.uint64), []])
def test_polar_code_takes_an_empty_frozen_set_of_any_dtype(frozen):
    code = PolarCode(n=8, frozen=frozen)
    assert code.rate == 1.0
    np.testing.assert_array_equal(code.info_set, np.arange(8))


@pytest.mark.parametrize("shape", [(8,), (2, 4), (2, 16), (1, 2, 8)])
def test_sc_decode_batch_refuses_llrs_not_batch_by_n(shape):
    code = PolarCode(n=8, frozen=np.array([0, 1]))
    with pytest.raises(ValueError, match=re.escape(
            f"LLRs must be of shape (batch, 8), got {shape}")):
        sc_decode_batch(code, np.zeros(shape))


@pytest.mark.parametrize("llr_shape, u_shape", [
    ((4, 8), (4, 4)), ((4, 8), (2, 8)), ((8,), (8,)), ((4, 8), (8,))])
def test_genie_error_counts_refuses_mismatched_shapes(llr_shape, u_shape):
    with pytest.raises(ValueError, match=re.escape(
            f"llr of shape {llr_shape} and u_true of shape {u_shape}")):
        genie_error_counts(np.zeros(llr_shape),
                           np.zeros(u_shape, dtype=np.int8))


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
            ys.append(ch._heterodyne(rng, amp_index[label]))
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


@pytest.mark.parametrize("trials", [0, 1, 7, 33])
@pytest.mark.parametrize("slice_", [40, 5 * 64 + 3])
def test_sliced_simulate_matches_whole_batch_bitwise(monkeypatch, trials,
                                                     slice_):
    # slices of 1 or 5 frames, so 7 and 33 trials end on a ragged chunk,
    # and LLR slices that straddle frame boundaries
    ch = make_channel(4)
    codes = construct_multilevel(ch, 64, 1.6, 200, seed=6)
    want = whole_batch_simulate(ch, codes, trials, seed=19)
    monkeypatch.setattr(polar, "_SLICE", slice_)
    got = simulate(ch, codes, trials, seed=19)
    assert got == want
    if trials >= 7:
        assert 0.0 < got["fer"] < 1.0  # both outcomes were compared


def _simulate_peak_bytes(ch, codes, trials):
    tracemalloc.start()
    try:
        simulate(ch, codes, trials, seed=2)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_working_set_does_not_grow_with_trials(monkeypatch):
    # only the int8 info bits and one flag per frame scale with the trials;
    # the noise, labels, LLRs and SC state are one chunk's worth
    monkeypatch.setattr(polar, "_SLICE", 64 * 64)
    ch = make_channel(4)
    codes = construct_multilevel(ch, 64, 1.6, 200, seed=6)
    one = _simulate_peak_bytes(ch, codes, 64)
    for chunks in (4, 16):
        more = _simulate_peak_bytes(ch, codes, chunks * 64)
        # the extra trials may add their int8 info bits, one byte per level
        # and position, and their flags, and nothing else
        extra = (chunks - 1) * 64 * (ch.levels * 64 + 1)
        assert more - one <= extra, (chunks, one, more, extra)


@pytest.mark.parametrize("rows", [(7,), (3, 4), (1, 5, 2), (4, 4, 4, 1)])
@pytest.mark.parametrize("width", [1, 6, 33])
def test_info_bit_draws_in_row_chunks_are_one_draw(rows, width):
    # simulate draws each level's info bits a chunk of rows at a time; the
    # bits are those of one draw of every row only because numpy's stream
    # for consecutive integer draws does not depend on how they are split
    whole = np.random.default_rng(5)
    want = whole.integers(0, 2, size=(sum(rows), width))
    parts = np.random.default_rng(5)
    got = np.concatenate([parts.integers(0, 2, size=(r, width))
                          for r in rows])
    np.testing.assert_array_equal(got, want)
    # and the draws after them continue from the same point
    assert parts.integers(0, 2, size=11).tolist() == whole.integers(
        0, 2, size=11).tolist()
    assert parts.normal() == whole.normal()


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
