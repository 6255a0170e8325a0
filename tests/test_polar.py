import gc
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import betaincinv

from oracles import (ErasureChannel, bec_bhattacharyya, bec_frozen_set,
                     genie_error_probs_reference, genie_sc_reference,
                     inverse_gray, msb_llr, oracle_level_llrs,
                     polar_transform, sample_level_reference,
                     sc_decode_reference, sc_g_update, whole_batch_simulate)
from thermalcomm import (InducedChannel, PolarCode, channel_params,
                         construct_multilevel, induced_channel,
                         make_constellation, simulate)
from thermalcomm import polar
from thermalcomm.polar import (_f, _g, _transform, estimate_level_mi,
                               genie_error_counts, sc_decode_batch)

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
    with pytest.raises(ValueError, match="power of 2, got 3"):
        _transform(np.zeros((3, 2), dtype=np.uint8))


@pytest.mark.parametrize("n", [1, 2, 64, 1024])
@pytest.mark.parametrize("planes", [1, 2, 4])
def test_transform_of_packed_labels_is_each_planes_transform(n, planes):
    # XOR acts on every bit of an element at once, so the transform of
    # labels packing several levels' inputs, one bit plane each, is each
    # level's codeword in its plane; done in place, frames on columns
    rng = np.random.default_rng(n + planes)
    u = rng.integers(0, 2, size=(planes, 5, n), dtype=np.uint8)
    label = np.zeros((n, 5), dtype=np.uint8)
    for plane in u:
        label <<= 1
        label |= plane.T
    assert _transform(label) is label
    for p, plane in enumerate(u):
        got = (label >> (planes - 1 - p)) & 1
        np.testing.assert_array_equal(got.T, polar_transform(plane))


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
    bits, llr = bits.reshape(200, 64), llr.reshape(200, 64)
    hard = genie_sc_reference(llr, bits)[1]
    soft = genie_error_counts(llr, bits)
    np.testing.assert_allclose(soft, hard, atol=1e-6)


@pytest.mark.parametrize("n", [1, 2, 64, 1024])
def test_genie_error_counts_match_decided_genie_sc_bitwise(n):
    # the walk flips each LLR's sign by its codeword bit and walks with no
    # partial sums, where the oracle re-encodes its forced decisions;
    # exact zeros of both signs and +-40 LLRs sit among the Gaussian ones,
    # so f-updates give zeros and g-updates cancel exactly
    rng = np.random.default_rng(30 + n)
    batch = 8 if n == 1024 else 40
    llr = rng.normal(size=(batch, n)) * rng.choice([0.05, 1.0, 8.0],
                                                   size=(batch, 1))
    hit = rng.random(llr.shape)
    llr[hit < 0.025] = -0.0
    llr[(hit >= 0.025) & (hit < 0.05)] = 0.0
    llr[(hit >= 0.05) & (hit < 0.1)] = 40.0
    llr[(hit >= 0.1) & (hit < 0.15)] = -40.0
    x = rng.integers(0, 2, size=llr.shape).astype(np.int8)
    want = genie_sc_reference(llr, x)[0]
    # the walk runs on the (n, batch) transpose of its llr: a row-major
    # llr, and a view with a stride between its values, are copied once
    # and left as they were; the transpose of a frame-major array is
    # walked, and overwritten, in place, so it is a copy of llr.  The
    # codeword bits come row-major, as the transpose of an (n, batch)
    # array, as sample_level draws them, and as bool
    strided = np.empty((batch, 2 * n))[:, ::2]
    strided[...] = llr
    for bits in (x, np.ascontiguousarray(x.T).T, x.astype(bool)):
        for given in (llr, np.ascontiguousarray(llr.T).T, strided):
            before = given.copy()
            got = genie_error_counts(given, bits)
            np.testing.assert_array_equal(got.view(np.int64),
                                          want.view(np.int64))
            if not given.T.flags.c_contiguous:
                np.testing.assert_array_equal(given.view(np.int64),
                                              before.view(np.int64))


def test_construction_encodes_nothing(monkeypatch):
    # the genie walk takes the drawn codeword bits as they are, so the
    # construction never runs the polar transform
    calls = []
    transform = polar._transform
    monkeypatch.setattr(polar, "_transform",
                        lambda x: calls.append(x.shape) or transform(x))
    construct_multilevel(make_channel(4), 64, 1.6, 200, seed=6)
    assert calls == []


def test_genie_construction_in_ragged_chunks_is_pinned_bitwise(monkeypatch):
    # 3 frames of n = 64 per chunk, so a budget of 100 frames runs 33 full
    # chunks and a ragged one of 1 frame, each drawn as a (frames, n)
    # size; the soft error sums are grouped by chunk, so the reference sums
    # the same draws chunk by chunk, drawn flat and handed over row-major
    monkeypatch.setattr(polar, "_GENIE_SAMPLES", 3 * 64)
    ch, n, budget, seed = make_channel(4), 64, 100, 5
    chunks = [3] * 33 + [1]
    sample_level = InducedChannel.sample_level
    sizes = []

    def recording(self, rng, level, size):
        sizes.append(size)
        return sample_level(self, rng, level, size)

    monkeypatch.setattr(InducedChannel, "sample_level", recording)
    want = np.empty((ch.levels, n))
    for lv in range(ch.levels):
        sizes.clear()
        got = polar._genie_error_probs(ch, lv, n, budget,
                                       np.random.default_rng(seed + lv))
        assert sizes == [(b, n) for b in chunks]
        rng = np.random.default_rng(seed + lv)
        counts = np.zeros(n)
        for b in chunks:
            bits, llr = sample_level(ch, rng, lv, b * n)
            counts += genie_error_counts(llr.reshape(b, n),
                                         bits.reshape(b, n))
        want[lv] = counts / budget
        np.testing.assert_array_equal(got.view(np.int64),
                                      want[lv].view(np.int64))
    # the pooled construction keeps the round(1.6 n) smallest error
    # probabilities over all levels, ties to the lower level and index
    order = sorted(range(want.size), key=lambda i: (want.flat[i], i))
    info = np.zeros(want.size, dtype=bool)
    info[order[:round(1.6 * n)]] = True
    codes = construct_multilevel(ch, n, 1.6, budget, seed)
    for code, row in zip(codes, info.reshape(want.shape)):
        np.testing.assert_array_equal(code.frozen, np.nonzero(~row)[0])


# frames per chunk at each blocklength in the several-chunk and ragged cases
_GRID_CHUNK = {1: 1000, 2: 500, 64: 100, 1024: 7, 4096: 2}


@pytest.mark.parametrize("chunks", ["one", "several", "ragged"])
@pytest.mark.parametrize("n", sorted(_GRID_CHUNK))
@pytest.mark.parametrize("m", [2, 4, 8, "bec"])
def test_genie_error_probs_match_the_one_piece_reference_bitwise(
        monkeypatch, m, n, chunks):
    # c frames a chunk: one chunk holds the whole budget, several split it
    # evenly, and a ragged last chunk holds one frame; the level is the
    # first, a middle and the last one in turn.  Sampler slices of 997
    # samples, a prime, end ragged in every chunk, and bound the walk's
    # butterfly blocks too
    c = _GRID_CHUNK[n]
    budget = {"one": c, "several": 2 * c, "ragged": c + 1}[chunks]
    if chunks != "one":
        monkeypatch.setattr(polar, "_GENIE_SAMPLES", c * n)
    monkeypatch.setattr(polar, "_WORK_SLICE", 997)
    ch = ErasureChannel(0.4) if m == "bec" else make_channel(m)
    level = {"one": 0, "several": ch.levels // 2,
             "ragged": ch.levels - 1}[chunks]
    got = polar._genie_error_probs(ch, level, n, budget,
                                   np.random.default_rng(level + n))
    want = genie_error_probs_reference(ch, level, n, budget,
                                       np.random.default_rng(level + n),
                                       polar._GENIE_SAMPLES)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("m", [2, 4, 8])
def test_sample_level_matches_the_one_piece_reference_bitwise(monkeypatch, m):
    # drawn in slices, the indices first, the bits, LLRs and the stream's
    # next state are those of one draw: counts below, at and past one
    # slice, and 2^17 + 777 at the default slice of 2^16.  A (batch, n)
    # size slices whole frames, 15 of n = 64 in 997 samples and one of
    # n = 1024 or 2^17 at a time, past the slice; its bits and its LLRs
    # are each the transpose of an (n, batch) array
    ch = make_channel(m)
    for slice_, size in [(997, 1), (997, 996), (997, 997), (997, 3000),
                         (polar._WORK_SLICE, (1 << 17) + 777),
                         (997, (1, 64)), (997, (31, 64)), (997, (3, 1024)),
                         (polar._WORK_SLICE, (3, 1 << 17))]:
        monkeypatch.setattr(polar, "_WORK_SLICE", slice_)
        for level in range(ch.levels):
            rng = np.random.default_rng(level)
            ref = np.random.default_rng(level)
            bits, llr = ch.sample_level(rng, level, size)
            want_bits, want_llr = (a.reshape(size) for a in
                                   sample_level_reference(
                                       ch, ref, level, int(np.prod(size))))
            assert bits.dtype == want_bits.dtype
            assert bits.T.flags.c_contiguous and llr.T.flags.c_contiguous
            np.testing.assert_array_equal(bits, want_bits)
            np.testing.assert_array_equal(llr.view(np.int64),
                                          want_llr.view(np.int64))
            assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("n", [32, 64, 1024])
def test_genie_construction_peaks_below_two_copies_of_its_llrs(n):
    # one level over one full chunk, 2^22 / n frames, is 32 MiB of LLRs,
    # drawn as one (n, batch) array and walked in place there: it peaks at
    # 1.252 of them at every n (the LLRs and the chunk's one-byte bits and
    # signs, as the signs flip the LLRs).  Cutting the bits from a copy of
    # the labels and checking them on two bool temporaries took it to
    # 1.375; a frame-major copy of the chunk's nodes 64 inputs wide, all
    # of it at n = 32 and 64, to 2.34 and 2.30
    ch, frames = make_channel(4), polar._GENIE_SAMPLES // n
    tracemalloc.start()
    try:
        polar._genie_error_probs(ch, 0, n, frames, np.random.default_rng(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * frames * n * 8, peak / (frames * n * 8)


@pytest.mark.parametrize("bad", [2, -1, 0.9], ids=["two", "minus_one",
                                                  "fraction"])
def test_genie_error_counts_refuses_bits_not_0_or_1(bad):
    # the int8 conversion once truncated 0.9 to 0 and XORed 2s as they
    # came: 2 * bits gave 0.259 at index 3 of a 16-QAM level, where the
    # bits themselves give 0.858, with no error.  Refused before any work,
    # so the LLRs are still as given
    rng = np.random.default_rng(12)
    llr = rng.normal(size=(5, 8))
    x = rng.integers(0, 2, size=llr.shape).astype(type(bad))
    x[2, 3] = bad
    before = llr.copy()
    with pytest.raises(ValueError, match="0 or 1"):
        genie_error_counts(llr, x)
    np.testing.assert_array_equal(llr, before)


@pytest.mark.parametrize("n", [0, 3, 6])
def test_genie_error_counts_refuses_a_width_not_a_power_of_two(n):
    # width 0 once recursed until RecursionError, and 3 and 6 failed in
    # numpy's broadcasting; refused before any work, so the LLRs are
    # still as given
    rng = np.random.default_rng(14)
    llr = rng.normal(size=(4, n))
    x = rng.integers(0, 2, size=llr.shape)
    before = llr.copy()
    with pytest.raises(ValueError, match="power of 2"):
        genie_error_counts(llr, x)
    np.testing.assert_array_equal(llr, before)


def test_genie_error_counts_of_no_frames_are_zero():
    # the butterfly once sized its blocks by the frame count and divided
    # by 0; it now slices values, so zero frames count zero errors
    for llr in (np.zeros((0, 4)), np.zeros((4, 0)).T):
        got = genie_error_counts(llr, np.zeros((0, 4), dtype=np.int8))
        np.testing.assert_array_equal(got, np.zeros(4))


def test_sc_decode_batch_of_no_frames_is_empty():
    # the transform once reshaped its zero-size stages with a -1 axis, an
    # ambiguous shape numpy refuses
    u, x = sc_decode_batch(PolarCode(n=8, frozen=np.array([0, 1])),
                           np.zeros((0, 8)))
    for got in (u, x):
        assert got.shape == (0, 8) and got.dtype == np.int8


def test_genie_error_counts_takes_bits_of_any_dtype():
    # bool, unsigned, wide and float 0s and 1s all walk as int8 bits
    rng = np.random.default_rng(13)
    llr = rng.normal(size=(6, 128)) * 3.0
    x = rng.integers(0, 2, size=llr.shape)
    want = genie_error_counts(llr.copy(), x.astype(np.int8))
    for dtype in (bool, np.uint8, np.int64, float):
        got = genie_error_counts(llr.copy(), x.astype(dtype))
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


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


def test_induced_channel_refuses_a_single_amplitude():
    # 1 = 2^0 is a power of two, but it leaves no bit level to code
    with pytest.raises(ValueError, match="constellation size m must be >= 2, "
                                         "got 1"):
        InducedChannel(P, np.array([0.0]))
    assert InducedChannel(P, np.array([-1.0, 1.0])).levels == 2


def test_heterodyne_noise_variance():
    ch = make_channel(4)
    rng = np.random.default_rng(0)
    # one fixed amplitude per quadrature, given by its Gray label
    label = np.full(40_000, ch.labels[3])
    y = ch._heterodyne(rng, label) + 1j * ch._heterodyne(rng, label)
    assert np.mean(y.real) == pytest.approx(P.k * ch.amplitudes[3], abs=0.02)
    target = (P.Nc + 1.0) / 2.0
    assert np.var(y.real) == pytest.approx(target, rel=0.02)
    assert np.var(y.imag) == pytest.approx(target, rel=0.02)


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
        want = oracle_level_llrs(m, level, prefix, yq, P)
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
        monkeypatch.setattr(polar, "_WORK_SLICE", slice_)
        sliced = ch.level_llrs(level, prefix, yq)
        monkeypatch.undo()
        np.testing.assert_array_equal(sliced.view(np.uint64),
                                      whole.view(np.uint64))


@pytest.mark.parametrize("m", [2, 4, 8, 16])
def test_level_llrs_at_bit_position_zero_are_the_plain_expression_bitwise(m):
    # a level with no prefix bits subtracts each candidate center as a
    # scalar; its bits are those of the log-sum-exp written out
    ch = make_channel(m)
    yq = np.random.default_rng(40 + m).normal(scale=4.0, size=500)
    scale = -1.0 / (2.0 * ch.noise_var)
    lse = []
    for c in P.k * ch.amplitudes[ch.label_tables[0][0]]:
        acc = (yq - c[0]) ** 2 * scale
        for ci in c[1:]:
            acc = np.logaddexp(acc, (yq - ci) ** 2 * scale)
        lse.append(acc)
    want = lse[0] - lse[1]
    for level in (0, ch.nbits):
        got = ch.level_llrs(level, np.zeros(len(yq), dtype=np.int8), yq)
        np.testing.assert_array_equal(got.view(np.uint64),
                                      want.view(np.uint64))


def test_estimate_level_mi_in_unit_interval():
    ch = make_channel(4)
    rng = np.random.default_rng(5)
    for lv in range(ch.levels):
        mi = estimate_level_mi(ch, lv, 4000, rng)
        assert -0.01 <= mi <= 1.0


@pytest.mark.parametrize("samples", [0, -3])
def test_estimate_level_mi_refuses_no_samples_before_drawing(samples):
    # no samples once gave nan from the mean of an empty slice
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="samples must be >= 1"):
        estimate_level_mi(make_channel(4), 0, samples, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("size", [(3, 0), (0, 0), (2, -4)])
def test_sample_level_refuses_frames_of_no_uses_before_drawing(size):
    # (3, 0) once raised ZeroDivisionError from the slice's frame count
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=re.escape(f"got size {size}")):
        make_channel(4).sample_level(rng, 0, size)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("level, size", [(7, 0), (4, 10), (-1, (2, 8))])
def test_sample_level_refuses_a_level_out_of_range_before_drawing(level,
                                                                   size):
    # 16-QAM has levels 0-3: level 7 with no samples once returned two
    # empty arrays, and level 4 raised only after drawing the indices
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"level must be in \[0, 4\)"):
        make_channel(4).sample_level(rng, level, size)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("n, sum_rate, mc_budget, bad", [
    (0, 1.6, 200, "blocklength must be a power of 2, got 0"),
    (48, 1.6, 200, "blocklength must be a power of 2, got 48"),
    (64, -0.1, 200, r"sum rate must be in \[0, 4\), got -0.1"),
    (64, 4, 200, r"sum rate must be in \[0, 4\), got 4"),
    (64, math.nan, 200, r"sum rate must be in \[0, 4\), got nan"),
    (64, 1.6, 99, "mc_budget must be >= 100, got 99"),
])
def test_construct_multilevel_refuses_bad_input_before_sampling(
        monkeypatch, n, sum_rate, mc_budget, bad):
    # cmd_polar checks these first, so only a library caller reaches them
    def no_draw(*args):
        raise AssertionError("sample_level called before the input check")
    monkeypatch.setattr(InducedChannel, "sample_level", no_draw)
    with pytest.raises(ValueError, match=bad):
        construct_multilevel(make_channel(4), n, sum_rate, mc_budget, seed=6)


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
        yq = P.k * ch.amplitudes[j] + rng.normal(
            scale=math.sqrt(ch.noise_var), size=300)
        gray = j ^ (j >> 1)
        np.testing.assert_array_equal(bits, (gray >> (ch.nbits - 1 - bpos)) & 1)
        want = oracle_level_llrs(m, level, gray >> (ch.nbits - bpos), yq, P)
        tol = 1e-12 * np.maximum(1.0, np.abs(want))
        assert np.all(np.abs(llr - want) <= tol)


def test_sample_level_frees_its_index_before_the_llrs():
    # 2^20 samples at the study channel peak at 11.8 MiB: the LLRs and the
    # one-byte labels, 9 MiB, with one slice's transients; the bits are
    # cut from the labels in place.
    # Each slice's int64 amplitude index is narrowed to its labels as it
    # is drawn; an int64 index of the whole draw would add 8 MiB
    ch = make_channel(4)
    tracemalloc.start()
    try:
        ch.sample_level(np.random.default_rng(3), 0, 1 << 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 13 * 2 ** 20, peak / 2 ** 20


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
    # plain SC, descending into every subtree, frozen ones included,
    # decides the same; n = 1 is the one length the bitwise test below
    # does not run
    rng = np.random.default_rng(n)
    llr = rng.normal(size=(16, n)) * 3.0
    for frozen in (np.arange(n), np.arange(n // 2), np.arange(n // 2, n),
                   np.sort(rng.choice(n, size=n // 2, replace=False)),
                   np.array([], dtype=int)):
        _assert_matches_plain_sc(PolarCode(n=n, frozen=frozen), llr)


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
    # the partial sums plain SC carries up the butterfly, and those the
    # decoder's closed-form rules return, are the polar transform of the
    # decided inputs, on random decisions of both
    rng = np.random.default_rng(5)
    llr = rng.normal(size=(16, 64))
    for frozen in (np.array([], dtype=int), bec_frozen_set(0.5, 64, 0.5)):
        code = PolarCode(n=64, frozen=frozen)
        for u, x in (sc_decode_reference(code, llr),
                     sc_decode_batch(code, llr)):
            for row_u, row_x in zip(u, x):
                np.testing.assert_array_equal(row_x, polar_transform(row_u))


def _assert_matches_plain_sc(code, llr):
    # SC runs on the (n, batch) transpose of its llr: a row-major llr, and
    # a view with a stride between its values, are copied and left as
    # they were; the transpose of an (n, batch) array is decoded as it is
    want = sc_decode_reference(code, llr)
    strided = np.empty((len(llr), 2 * code.n))[:, ::2]
    strided[...] = llr
    for given in (llr, strided, np.ascontiguousarray(llr.T).T):
        before = given.copy()
        for got, w in zip(sc_decode_batch(code, given), want):
            assert got.dtype == w.dtype == np.int8
            np.testing.assert_array_equal(got, w)
        if not given.T.flags.c_contiguous:
            np.testing.assert_array_equal(given.view(np.int64),
                                          before.view(np.int64))


def _random_frozen_sets(n, rng):
    # reliability-ordered sets, as a construction gives, hold long rate-1
    # subtrees and subtrees frozen but for their last input; random subsets
    # hold short ones
    sets = [np.arange(n), np.array([], dtype=int), np.arange(n // 2),
            np.arange(n // 2, n)]
    for rate in (0.25, 0.5, 0.9):
        sets.append(bec_frozen_set(0.5, n, rate))
    # two structured families, for block lengths 2^j: every input frozen
    # but the last of each block, so such subtrees stand side by side, and
    # the upper half of each block frozen, so rate-0 right halves sit under
    # left halves that are not rate-0
    idx = np.arange(n)
    for block in (2, 4, 8):
        if block <= n:
            sets.append(idx[idx % block != block - 1])
            sets.append(idx[idx % block >= block // 2])
    for _ in range(3):
        size = int(rng.integers(0, n + 1))
        sets.append(np.sort(rng.choice(n, size=size, replace=False)))
    return sets


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256])
def test_sc_decode_batch_matches_plain_sc_bitwise(monkeypatch, n):
    # the closed-form nodes decide as plain SC does, in u and in x; zeros
    # and subnormals sprinkled into some frames make the rate-1 guard fall
    # back at every length, and the test checks that it also passes.  63,
    # 65 and 130 frames are no multiple of a power-of-two block of frames
    rng = np.random.default_rng(700 + n)
    tiny = np.array([0.0, -0.0, 5e-324, -5e-324, -1e-310, 1e-200])
    guard = []
    exact = polar._hard_decisions_exact
    monkeypatch.setattr(polar, "_hard_decisions_exact",
                        lambda llr: guard.append(exact(llr)) or guard[-1])
    for frozen in _random_frozen_sets(n, rng):
        code = PolarCode(n=n, frozen=frozen)
        for scale, batch in ((0.05, 63), (1.0, 65), (30.0, 130)):
            llr = rng.normal(size=(batch, n)) * scale
            _assert_matches_plain_sc(code, llr)
            hit = rng.random(llr.shape) < 0.03
            llr[hit] = rng.choice(tiny, size=hit.sum())
            _assert_matches_plain_sc(code, llr)
    assert True in guard and False in guard


@pytest.mark.parametrize("llr, sc_x", [
    ([[-1.0, 0.0], [-1.0, -0.0]], [[1, 1], [1, 1]]),
    # halving 5e-324 gives 0, and tanh(-5e-311) tanh(1e-320) underflows
    # to -0; the third row's f-update stays subnormal, so SC keeps its sign
    ([[5e-324, -5e-324], [-1e-310, 1e-320], [3.0, -4e-322]],
     [[0, 0], [1, 1], [0, 1]])], ids=["signed_zeros", "subnormal"])
def test_sc_decode_rate1_guard_keeps_plain_sc_on_tiny_llrs(llr, sc_x):
    # an f-update rounds to +-0 here, so plain SC does not decide the hard
    # decisions llr < 0; only the guard keeps the rate-1 shortcut off
    code = PolarCode(n=2, frozen=np.array([], dtype=int))
    llr = np.array(llr)
    np.testing.assert_array_equal(sc_decode_reference(code, llr)[1], sc_x)
    assert np.any(np.array(sc_x) != (llr < 0))
    _assert_matches_plain_sc(code, llr)


def test_sc_decode_rate1_guard_catches_an_underflowing_f_chain():
    # 64 LLRs of magnitude 1e-6: the f-updates' tanh product reaches 1e-403
    # at the first leaf and rounds to +-0, so the first decision is not the
    # parity of the signs; an odd number of negatives makes that parity 1
    rng = np.random.default_rng(3)
    signs = np.ones((8, 64))
    for row in signs:
        row[rng.choice(64, size=2 * rng.integers(0, 32) + 1,
                       replace=False)] = -1.0
    llr = 1e-6 * signs
    code = PolarCode(n=64, frozen=np.array([], dtype=int))
    u, x = sc_decode_reference(code, llr)
    assert np.all(u[:, 0] == 0)
    assert np.any(x != (llr < 0))
    _assert_matches_plain_sc(code, llr)


def test_sc_decode_batch_leaves_no_cyclic_garbage():
    # a reference cycle in the decoder (a recursive closure, say) would be
    # freed only when the collector runs, so the memory a call leaves
    # behind would depend on when that is
    code = PolarCode(n=256, frozen=bec_frozen_set(0.5, 256, 0.5))
    llr = np.random.default_rng(2).normal(size=(32, 256)) * 3.0
    gc.collect()
    gc.disable()
    try:
        sc_decode_batch(code, llr)
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


@pytest.mark.parametrize("bit", [0, 1])
def test_g_update_is_the_float_expression_bitwise(bit):
    # the int8 sign 1 - 2u multiplies exactly, so every product and sum,
    # signed zeros, infinities and subnormals included, keeps its bits
    special = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                        2.5e-310, -1e-308, 2.2250738585072014e-308, 1.0,
                        -1.5, 3.0e300, -1.7e308])
    values = np.concatenate([special,
                             np.random.default_rng(4).normal(size=8) * 9.0])
    a, b = (g.ravel()[:, None] for g in np.meshgrid(values, values))
    a, b = np.repeat(a, 3, axis=1), np.repeat(b, 3, axis=1)
    u = np.full(a.shape, bit, dtype=np.int8)
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = _g(a, b, u), sc_g_update(a, b, u)
    assert got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_f_update_is_odd_in_each_argument_bitwise():
    # the genie walk flips LLR signs by the codeword bits before its
    # f-updates, exact only because each flips f's sign and nothing else:
    # signed zeros, subnormals, values whose tanh rounds to 1 and
    # infinities included
    special = np.array([0.0, 5e-324, 2.5e-310, 2.2250738585072014e-308,
                        1e-200, 0.3, 1.0, 37.4, 710.0, np.inf])
    rand = np.random.default_rng(6).normal(size=10) * 9.0
    values = np.concatenate([special, -special, rand])
    a, b = (g.ravel() for g in np.meshgrid(values, values))
    want = -_f(a, b)
    for got in (_f(-a, b), _f(a, -b)):
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    np.testing.assert_array_equal(_f(-a, -b).view(np.int64),
                                  _f(a, b).view(np.int64))


@pytest.mark.parametrize("call", ["genie", "decode"])
def test_sc_takes_a_frame_contiguous_view_without_a_second_copy(call):
    # handed the (batch, n) transposes of (n, batch) arrays, SC runs on
    # them as they are: its traced peak stays within one copy of the LLRs
    # (1.0 of it decoding, and 0.25 in the genie walk, which multiplies
    # the LLRs in place by frame-major one-byte signs of the codeword
    # bits, 0.125 of them, freed before the walk, and overwrites them
    # through f-update blocks of 2^16 values, two at a time, 0.25), where
    # a second (n, batch) copy would take it to 2.0.  A third live block,
    # the previous block's f-update, took the walk to 0.50
    n, batch = 256, 2048
    rng = np.random.default_rng(8)
    llr = np.ascontiguousarray(rng.normal(size=(batch, n)).T * 3.0).T
    code = PolarCode(n=n, frozen=np.arange(n // 2))
    x = np.ascontiguousarray(
        rng.integers(0, 2, size=(n, batch)).astype(np.int8)).T
    tracemalloc.start()
    try:
        if call == "genie":
            genie_error_counts(llr, x)
        else:
            sc_decode_batch(code, llr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (0.3 if call == "genie" else 1.5) * llr.nbytes, (
        peak / llr.nbytes)


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


@pytest.mark.parametrize("frozen", [np.array([]), np.array([], dtype=np.int8),
                                    np.array([], dtype=np.uint64), []])
def test_sc_decode_batch_takes_an_empty_frozen_set_of_any_dtype(frozen):
    # a float one once failed as an index into the kind map's mask
    llr = np.random.default_rng(8).normal(size=(4, 8))
    got = sc_decode_batch(PolarCode(n=8, frozen=frozen), llr)
    want = sc_decode_reference(PolarCode(n=8, frozen=np.arange(0)), llr)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("shape", [(8,), (2, 4), (2, 16), (1, 2, 8)])
def test_sc_decode_batch_refuses_llrs_not_batch_by_n(shape):
    code = PolarCode(n=8, frozen=np.array([0, 1]))
    with pytest.raises(ValueError, match=re.escape(
            f"LLRs must be of shape (batch, 8), got {shape}")):
        sc_decode_batch(code, np.zeros(shape))


@pytest.mark.parametrize("llr_shape, u_shape", [
    ((4, 8), (4, 4)), ((4, 8), (2, 8)), ((8,), (8,)), ((4, 8), (8,))])
def test_genie_error_counts_refuses_mismatched_shapes(llr_shape, u_shape):
    # u_shape is the shape of the codeword bits x
    with pytest.raises(ValueError, match=re.escape(
            f"llr of shape {llr_shape} and x of shape {u_shape}")):
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


@pytest.mark.parametrize("trials", [0, 1, 7, 33])
@pytest.mark.parametrize("slice_", [40, 5 * 64 + 3])
def test_sliced_simulate_matches_whole_batch_bitwise(monkeypatch, trials,
                                                     slice_):
    # chunks of 1 or 5 frames, so 7 and 33 trials end on a ragged chunk,
    # and transient slices of a third as many values, 13 or 107: a chunk
    # of 5 frames draws its outcomes frame by frame, the demapper's slices
    # straddle frame boundaries, and a 64-use frame's centers are added
    # 13 at a time; m = 2, 4 and 8 pack 1 to 3 levels per quadrature into
    # the labels, one bit plane each, at sum rates where some frames fail
    # and some decode.  The last case freezes the whole of 16-QAM's level
    # 0, so one level packs no info bits, beside levels whose packed rows
    # end in a padded byte
    for m, sum_rate, freeze in [(2, 1.9, False), (4, 1.6, False),
                                (8, 1.2, False), (4, 1.6, True)]:
        ch = make_channel(m)
        codes = construct_multilevel(ch, 64, sum_rate, 200, seed=6)
        if freeze:
            codes[0] = PolarCode(n=64, frozen=np.arange(64))
            ks = [64 - len(c.frozen) for c in codes]
            assert ks[0] == 0 and any(k % 8 for k in ks), ks
        want = whole_batch_simulate(ch, codes, trials, seed=19)
        with monkeypatch.context() as patch:
            patch.setattr(polar, "_SLICE", slice_)
            patch.setattr(polar, "_FLOOR_FRAMES", 1)  # no floor above 1
            patch.setattr(polar, "_WORK_SLICE", slice_ // 3)
            assert polar._link_frames(64) == {40: 1, 5 * 64 + 3: 5}[slice_]
            got = simulate(ch, codes, trials, seed=19)
        assert got == want, m
        if trials >= 7:
            assert 0.0 < got["fer"] < 1.0, m  # both outcomes were compared


def _simulate_peak_bytes(ch, codes, trials):
    tracemalloc.start()
    try:
        simulate(ch, codes, trials, seed=2)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# what a longer run may hold beside its per-trial arrays: a few ints past
# 256 (row offsets, counters) that a one-chunk run keeps as cached small
# ints, but no byte per trial
_RUN_BOOKKEEPING_BYTES = 256


def test_simulate_working_set_does_not_grow_with_trials(monkeypatch):
    # only the packed info bits and one flag per frame scale with the
    # trials; the unpacked bits, noise, labels, LLRs and SC state are one
    # chunk's worth
    monkeypatch.setattr(polar, "_SLICE", 64 * 64)
    monkeypatch.setattr(polar, "_FLOOR_FRAMES", 0)  # no floor
    assert polar._link_frames(64) == 64
    ch = make_channel(4)
    codes = construct_multilevel(ch, 64, 1.6, 200, seed=6)
    # an untraced run first: a process's first simulate makes allocations
    # that outlive it (first-use caches), and neither peak may carry them
    simulate(ch, codes, 64, seed=2)
    one = _simulate_peak_bytes(ch, codes, 64)
    # ceil(k/8) bytes a trial for each level of k info bits: 15 here,
    # where one int8 byte per level and position would be 256
    packed = sum((c.n - len(c.frozen) + 7) // 8 for c in codes)
    for chunks in (4, 16, 64):
        more = _simulate_peak_bytes(ch, codes, chunks * 64)
        # the extra trials may add their packed info bits and their flags,
        # and nothing else
        extra = (chunks - 1) * 64 * (packed + 1)
        assert more - one <= extra + _RUN_BOOKKEEPING_BYTES, (
            chunks, one, more, extra)


@pytest.mark.parametrize("n", [64, 1024])
def test_one_chunk_of_the_link_peaks_within_its_llr_budget(n):
    # one full chunk of 16-QAM frames, 2^19 uses and 4 MiB of LLRs: the
    # run holds the chunk's noise outcomes and one level's LLRs, SC's
    # f-updates (about one more copy) and one-byte prefixes and
    # decisions, 3.54-3.57 of the LLRs in all.  Keeping the labels and
    # each level's unpacked (frames, n) int8 input bits through the
    # decode took it to 3.90-3.94; every trial's int8 info bits and the
    # demapper's 2^20-sample work arrays, to 5.0
    ch = make_channel(4)
    codes = construct_multilevel(ch, n, 2.0, 200, seed=6)
    frames = polar._link_frames(n)
    simulate(ch, codes, 8, seed=2)  # first-use caches, untraced
    peak = _simulate_peak_bytes(ch, codes, frames)
    assert peak <= 3.65 * frames * n * 8, peak / (frames * n * 8)


@pytest.mark.parametrize("n, frames", [(16, 32768), (1024, 512), (4096, 128),
                                       (8192, 128), (16384, 64),
                                       (1 << 20, 1)])
def test_link_chunk_is_half_a_mebisample_above_its_floor(n, frames):
    # 2^19 samples a chunk, but at least min(128, 2^20 // n) frames: from
    # n = 8,192 up the floor keeps the chunk of 2^20 samples, and a frame
    # of 2^20 uses or more goes alone
    assert polar._link_frames(n) == frames
    assert frames * n <= max(n, 1 << 20)


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


# ------------------------------------------------ FER against the genie

# SC's frame error probability is at least the genie-aided error
# probability of any info index (a genie error there is a frame error,
# whether or not SC erred before it) and at most their sum (Arikan's union
# bound), over every level's info indices.  The probabilities come from an
# estimate independent of the construction's own, which is biased low over
# the set it picked.  Sum rates are a fraction of the level-MI sum of each
# channel (estimate_level_mi, 20,000 samples a level), keyed by (m, N0)
_FER_LEVEL_MI = {(2, 0.0): 1.868, (2, 0.5): 1.805,
                 (4, 0.0): 2.335, (4, 0.5): 2.164}


def _fer_case(m, n0, n, fraction):
    """A study-channel link at environment photon number n0, its codes at
    ``fraction`` of the level-MI sum, and its genie bounds: the largest of
    the info set's genie error probabilities and their sum, each with its
    standard error.  The probabilities are the means of 8 batches of 64
    frames a level, drawn from streams 1000 + level, and the errors come
    from the spread of those batch means."""
    ch = induced_channel(channel_params(0.8, n0, 7.0),
                         make_constellation("equilattice", m))
    codes = construct_multilevel(ch, n, fraction * _FER_LEVEL_MI[m, n0],
                                 200, seed=1)
    means, ses, total, total_var = [], [], 0.0, 0.0
    for lv, code in enumerate(codes):
        rng = np.random.default_rng(1000 + lv)
        p = np.empty((8, n))
        for row in p:
            bits, llr = ch.sample_level(rng, lv, (64, n))
            row[:] = genie_error_counts(llr, bits) / 64
        p = p[:, code.info_set]
        means.append(p.mean(axis=0))
        ses.append(p.std(axis=0, ddof=1) / math.sqrt(len(p)))
        total += p.sum(axis=1).mean()
        total_var += p.sum(axis=1).var(ddof=1) / len(p)
    means, ses = np.concatenate(means), np.concatenate(ses)
    top = np.argmax(means)
    return ch, codes, (means[top], ses[top], total, math.sqrt(total_var))


def _fer_meets_genie_bounds(ch, codes, bounds, trials=400):
    """Whether the link's FER over ``trials`` frames, as a two-sided 99.9%
    Clopper-Pearson interval, meets [max - 3 sigma, sum + 3 sigma]."""
    top, top_se, total, total_se = bounds
    errors = round(simulate(ch, codes, trials, seed=7)["fer"] * trials)
    lo = betaincinv(errors, trials - errors + 1, 5e-4) if errors else 0.0
    hi = (betaincinv(errors + 1, trials - errors, 1 - 5e-4)
          if errors < trials else 1.0)
    return hi >= top - 3 * top_se and lo <= total + 3 * total_se


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("n0", [0.0, 0.5])
@pytest.mark.parametrize("m", [2, 4])
def test_link_fer_meets_its_genie_bounds(m, n0, n):
    # at 0.9 of the level-MI sum at m = 2 and 0.7 at m = 4 the FER reads
    # 0.045-0.135 and 0.155-0.435.  At m = 4 the FER runs up to 1.2 times
    # the sum and meets the bounds only through its interval; where the
    # sum is tight it does not (the xfail below)
    ch, codes, bounds = _fer_case(m, n0, n, {2: 0.9, 4: 0.7}[m])
    assert _fer_meets_genie_bounds(ch, codes, bounds)


@pytest.mark.xfail(strict=True, reason=(
    "the genie draws uniform i.i.d. bits on every level, but the link "
    "sends each level's polar codeword with its frozen bits 0, so a level "
    "that marginalizes the next level's bits sees other interference "
    "than the construction modelled: at n = 64 the first level of each "
    "16-QAM quadrature fails its blocks 2.3-2.8 times as often as its "
    "genie sum"))
@pytest.mark.parametrize("n0", [0.0, 0.5])
def test_link_fer_meets_its_genie_bounds_where_they_are_tight(n0):
    # at 0.6 of the level-MI sum the sum of 16-QAM's genie probabilities
    # is 0.10-0.12 and the FER 0.18-0.23 (20,000 frames).  With the second
    # level of each quadrature sending uniform i.i.d. bits (a rate-1
    # code), the first level's block error falls from 2.3-2.8 times its
    # genie sum to 0.90-1.02 times it
    ch, codes, bounds = _fer_case(4, n0, 64, 0.6)
    assert _fer_meets_genie_bounds(ch, codes, bounds)


@pytest.mark.parametrize("mutant", ["prefix_ignored", "u_fed_forward"])
@pytest.mark.parametrize("n0", [0.0, 0.5])
def test_fer_check_fails_a_broken_demapper_or_decision_feed(monkeypatch,
                                                           mutant, n0):
    # a demapper that takes every prefix as 0, and a decoder that feeds
    # the next level its decided inputs u in place of their codeword x,
    # each take the FER to 1; m = 2 has no prefix for either to break
    ch, codes, bounds = _fer_case(4, n0, 64, 0.7)
    if mutant == "prefix_ignored":
        level_llrs = InducedChannel.level_llrs
        monkeypatch.setattr(
            InducedChannel, "level_llrs", lambda self, level, prefix, yq:
            level_llrs(self, level, np.zeros_like(prefix), yq))
    else:
        decode = polar.sc_decode_batch
        monkeypatch.setattr(polar, "sc_decode_batch",
                            lambda code, llr: (decode(code, llr)[0],) * 2)
    assert not _fer_meets_genie_bounds(ch, codes, bounds)
