"""Binary polar coding over the classical channel induced by a uniform
coherent-state constellation, the thermal channel, and heterodyne detection.

Heterodyne detection gives a closed-form Gaussian likelihood, so the whole
pipeline (modulator, channel, demapper, multilevel polar decoding) runs as an
ordinary Monte-Carlo link simulation.  Note this front-end achieves the
heterodyne rate, which is strictly below the Holevo rate the quantum decoder
would reach; the rates module computes the latter.

The demapper is table-driven: each bit position has a table of the points
under every label prefix (the integer a label's leading bits spell), so one
level's LLRs are a gather of candidate centers and a logaddexp pass.
Successive cancellation carries only the partial sums of decided bits up
the butterfly; the decoder returns the decided inputs as the transform of
those sums.  It decodes two kinds of subtree in closed form, bit for bit
as plain SC would (simplified SC, Alamdar-Yazdi & Kschischang 2011): all
frozen (rate-0) and all info (rate-1), told apart by the count of frozen
inputs in the subtree, a difference of two prefix sums.  A rate-1
subtree's hard decisions are SC's only while no f-update in it rounds to
+-0, so that shortcut is guarded: it is taken only when every LLR of the
block is large enough in magnitude that none can (the proof is in
``sc_decode_batch``).  The genie-aided construction knows the codeword
the channel carried, so it decides nothing: it flips each LLR's sign by
its codeword bit once and walks every subtree for every input's LLR as
on the all-zero codeword, f-updates and sums with no partial sums, bit
for bit the genie-aided SC of that codeword (the proof is in
``genie_error_counts``).

SC and the polar transform run on (n, batch) arrays, one frame per column,
so every butterfly half is one contiguous block and every operation on it
one pass over the whole batch (the inter-frame layout of software polar
decoders).  The public functions keep their (batch, n) interface and
take their inputs with ``np.ascontiguousarray(a.T)``, which copies only
an input that is not already the transpose of an (n, batch) array;
every array the library hands them is one.  The link simulation hands
the decoder its LLRs that way, and the decoder returns (batch, n) views
of (n, batch) arrays.  The genie walk takes its LLRs the same way and
overwrites them in place, and makes its (n, batch) signs from the
codeword bits' transpose; the construction's sampler draws its labels
and writes its LLRs as (n, batch) arrays, so the walk copies no LLRs and
its signs are one contiguous pass.  The transform runs in place on an
(n, batch) array its caller owns: the link simulation packs every level
of a quadrature into one array of labels, one bit plane per level, and
transforms it once, since XOR acts on every plane at once.

The link simulation sends ``_SLICE`` samples a chunk, but never fewer
than ``_FLOOR_FRAMES`` frames unless that would exceed ``_FLOOR_SLICE``
samples (``_link_frames``), and keeps each level's info bits packed, so
only those bits, ceil(k/8) bytes a trial for a level of k, and one flag
per frame grow with the trials.  A chunk unpacks them straight into its
labels' bit planes, frees its labels once the outcomes are drawn, and
counts each level's errors against its sent bits, unpacked again, with
no unpacked bits kept through the decode.  Inside a chunk every transient
is a slice of ``_WORK_SLICE`` values: the demapper evaluates its
log-sum-exp, and the link draws its heterodyne outcomes, one slice at a
time.  Every chunk loop, here and in the genie-aided construction, is a
plain walk ``range(0, total, chunk)`` over row slices ``[s:s + chunk]``,
the last one ragged.
Every step inside a slice is element-wise or row-independent, and the noise
is drawn slice by slice from the same stream, so a fixed seed gives the same
bits whatever the chunk and slice sizes.  The genie-aided construction
keeps about one copy of a chunk's LLRs: its sampler narrows each slice of
symbol indices to one-byte labels as it draws them, writes its labels
and LLRs slice by slice into (n, batch) arrays and cuts the level's bits
from the labels in place, and its walk overwrites the LLRs in place.

Conventions: natural-order (non-bit-reversed) transform, Gray labeling per
quadrature, quadratures handled as independent bit-level groups with the real
quadrature's levels first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import ChannelParams
from .constellations import RealConstellation

_TANH_CLIP = 1.0 - 1e-16
# Samples one chunk of the link simulation aims at: simulate sends, demaps
# and decodes _link_frames(n) frames at a time.  Batched SC costs the same
# per frame from 512 frames a call up, so 2^19 samples cost n = 1024 no
# time, and holding half of 2^20 cuts the decode's peak
_SLICE = 1 << 19
# The chunk's floor, min(_FLOOR_FRAMES, _FLOOR_SLICE // n) frames: below
# about 128 frames a call SC's per-call overhead shows (halving the
# 64-frame chunk of n = 16,384 took simulate +22%), so long codes keep
# the chunk of 2^20 samples, and no chunk holds more than that
_FLOOR_FRAMES = 128
_FLOOR_SLICE = 1 << 20
# Samples one chunk of the genie-aided construction draws.  Its soft error
# counts are summed per chunk, so another value regroups the sums and
# changes the last bits of the error probabilities, and so can change a
# frozen set.
_GENIE_SAMPLES = 1 << 22
# Values one transient holds: sample_level and _send_chunk draw their
# outcomes max(1, _WORK_SLICE // n) frames at a time, and _heterodyne,
# level_llrs and the genie walk's butterfly work this many values at a
# time; bounds their transients, changes no bit
_WORK_SLICE = 1 << 16
MIN_MC_BUDGET = 100  # fewest Monte-Carlo frames a construction may use
# -ln of the smallest tanh(|LLR|/2) product the rate-1 shortcut admits
_GUARD_B = 600.0


@dataclass(frozen=True, eq=False)
class PolarCode:
    """Blocklength and sorted frozen index set, a 1-D integer array (an
    empty one of any dtype); frozen bits are zero."""

    n: int
    frozen: np.ndarray

    def __post_init__(self):
        _check_power_of_two(self.n, "blocklength")
        frozen = np.asarray(self.frozen)
        if frozen.ndim != 1 or (frozen.size and frozen.dtype.kind not in "iu"):
            raise ValueError("frozen set must be a 1-D integer array, got "
                             f"shape {frozen.shape} of {frozen.dtype}")
        if len(self.frozen) and (
                self.frozen[0] < 0 or self.frozen[-1] >= self.n
                or np.any(np.diff(self.frozen) <= 0)):
            raise ValueError("frozen set must be sorted, unique and in range")

    @property
    def rate(self) -> float:
        return (self.n - len(self.frozen)) / self.n

    @property
    def info_set(self) -> np.ndarray:
        return np.setdiff1d(np.arange(self.n), self.frozen)


def _link_frames(n: int) -> int:
    """Frames one chunk of the link simulation sends at blocklength n:
    ``_SLICE // n``, at least min(``_FLOOR_FRAMES``, ``_FLOOR_SLICE // n``)
    and at least 1."""
    return max(1, _SLICE // n, min(_FLOOR_FRAMES, _FLOOR_SLICE // n))


def _check_power_of_two(n: int, what: str) -> int:
    if n < 1 or n & (n - 1):
        raise ValueError(f"{what} must be a power of 2, got {n}")
    return int(math.log2(n))


def _transform(x: np.ndarray) -> np.ndarray:
    """x F^{x log2 n} over GF(2) in natural order, in place on an (n, batch)
    C-contiguous array of bits, one frame per column, which it returns;
    self-inverse.  XOR acts on every bit of an element at once, so an
    array whose elements pack several bit arrays, one bit plane each, is
    transformed plane by plane."""
    n, batch = x.shape
    for s in range(_check_power_of_two(n, "transform length")):
        pairs = x.reshape(n >> s + 1, 2, 1 << s, batch)
        pairs[:, 0] ^= pairs[:, 1]
    return x


@dataclass(frozen=True, eq=False)
class InducedChannel:
    """Discrete-input channel: uniform product constellation, thermal
    channel, heterodyne detection; 2 log2(m) bit levels, Gray-labeled per
    quadrature (real-quadrature levels first, MSB first).  m must be a
    power of two of at least 2, else ValueError; the labels and their
    tables are built from it on use."""

    params: ChannelParams
    amplitudes: np.ndarray  # per-quadrature real amplitudes, ascending

    nbits = property(lambda self: len(self.amplitudes).bit_length() - 1)
    levels = property(lambda self: 2 * self.nbits)

    def __post_init__(self):
        m = len(self.amplitudes)
        if _check_power_of_two(m, "constellation size m") < 1:
            raise ValueError(f"constellation size m must be >= 2, got {m}")

    @cached_property
    def labels(self) -> np.ndarray:
        # Gray label of each amplitude index, MSB first; the smallest dtype
        # keeps the per-sample label gathers small
        m = len(self.amplitudes)
        j = np.arange(m, dtype=np.min_scalar_type(m - 1))
        return j ^ (j >> 1)

    @cached_property
    def label_tables(self) -> tuple[np.ndarray, ...]:
        # per bit position b: (2**b, 2, m >> (b+1)) point indices, stably
        # sorted by label prefix: row r holds prefix r, split by bit b
        return tuple(np.argsort(self.labels >> (self.nbits - 1 - b),
                                kind="stable").reshape(1 << b, 2, -1)
                     for b in range(self.nbits))

    @property
    def noise_var(self) -> float:
        """Per-quadrature heterodyne variance (Nc + 1)/2."""
        return (self.params.Nc + 1.0) / 2.0

    def sample_level(self, rng: np.random.Generator, level: int,
                     size) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``size`` independent uses, an int or a (batch, n) pair of
        frames: uniform symbols, heterodyne outputs, and the exact LLRs of
        the given level's bit with the true lower-level bits as priors (the
        genie-aided bit channel).  A level outside [0, levels), or frames
        of n < 1 uses, raise ValueError before any draw.

        Every symbol is drawn first, ``max(1, _WORK_SLICE // n)`` frames
        at a time (an int size is frames of n = 1), each slice's amplitude
        index narrowed at once to its one-byte Gray labels and written
        transposed into one (n, batch) array; then the noise and LLRs are
        made slice by slice, each slice's LLRs written transposed into one
        (n, batch) array, the only full-size float array; the level's bits
        are then cut from the labels in place.  numpy's stream for
        consecutive draws is that of one draw, so the bits are those of
        drawing every index, then every noise value, in row order.

        Returns the level's transmitted bits and the LLRs, both of shape
        ``size`` and each the transpose of its (n, batch) array, which SC
        and the genie walk take as it is.
        """
        bpos = self._bit_position(level)
        batch, n = (size, 1) if np.ndim(size) == 0 else size
        if n < 1:
            raise ValueError(f"frames must hold n >= 1 uses, got size {size}")
        step = max(1, _WORK_SLICE // n)
        label = np.empty((n, batch), dtype=self.labels.dtype)
        for s in range(0, batch, step):
            part = label[:, s:s + step].T
            part[...] = self.labels[rng.integers(0, len(self.amplitudes),
                                                 size=part.shape)]
        llr = np.empty((n, batch))
        for s in range(0, batch, step):
            part = label[:, s:s + step].T
            llr[:, s:s + step] = self.level_llrs(
                level, (part >> (self.nbits - bpos)).reshape(-1),
                self._heterodyne(rng, part).reshape(-1)).reshape(-1, n).T
        label >>= self.nbits - 1 - bpos  # the level's bit, in place
        label &= 1
        return label.T.reshape(size), llr.T.reshape(size)

    def _bit_position(self, level: int) -> int:
        # the level's bit position in its quadrature's labels; a level
        # outside [0, levels) raises ValueError
        if not 0 <= level < self.levels:
            raise ValueError(f"level must be in [0, {self.levels}), got {level}")
        return level % self.nbits

    def _heterodyne(self, rng: np.random.Generator,
                    label: np.ndarray) -> np.ndarray:
        """One heterodyne quadrature outcome per Gray label in ``label``:
        Gaussian noise of variance (Nc + 1)/2, drawn in ``label``'s shape,
        plus k times the labelled amplitude (the Husimi Q function of the
        output state), gathered and added ``_WORK_SLICE`` values at a
        time."""
        centers = (self.params.k * self.amplitudes)[np.argsort(self.labels)]
        out = rng.normal(scale=math.sqrt(self.noise_var), size=label.shape)
        flat, label = out.reshape(-1), label.reshape(-1)
        for s in range(0, len(flat), _WORK_SLICE):
            flat[s:s + _WORK_SLICE] += centers[label[s:s + _WORK_SLICE]]
        return out

    def level_llrs(self, level: int, prefix: np.ndarray,
                   yq: np.ndarray) -> np.ndarray:
        """Vectorized LLRs for one level: log-ratio of the Gaussian
        likelihoods marginalized over the points whose label begins with
        the outcome's ``prefix`` of lower-level bits.  ``yq`` is the
        relevant quadrature of y.

        The prefix indexes the level's point table, so each outcome gathers
        the centers of its two candidate subsets and reduces each with
        np.logaddexp, ``_WORK_SLICE`` outcomes at a time.  A prefix not of
        ``yq``'s shape, or outside the table, raises ValueError."""
        bpos = self._bit_position(level)
        yq = np.asarray(yq, dtype=float)
        prefix = np.asarray(prefix)
        if prefix.shape != yq.shape:
            raise ValueError(f"prefix of shape {prefix.shape} for outcomes "
                             f"of shape {yq.shape}")
        centers = self.params.k * self.amplitudes[self.label_tables[bpos]]
        if len(prefix) and not (0 <= prefix.min() and
                                prefix.max() < len(centers)):
            raise ValueError(f"prefix values must be in [0, {len(centers)})")
        scale = -1.0 / (2.0 * self.noise_var)
        out = np.empty(len(yq))
        # bit 0's log-sum-exp runs in its slice of out, bit 1's in work[0],
        # a second candidate's exponent in work[-1] and the gather indices
        # in idx: allocated once and reused by every slice and candidate,
        # so no slice-sized array is freed and requested again.  A table of
        # one row (bit position 0) has one center per candidate, which is
        # subtracted as a scalar, with no gather: the same IEEE subtraction
        width = min(len(yq), _WORK_SLICE)
        work = np.empty((1 + (centers.shape[2] > 1), width))
        idx = np.empty(width, dtype=np.intp) if len(centers) > 1 else None
        for start in range(0, len(yq), _WORK_SLICE):
            part = slice(start, start + _WORK_SLICE)
            y = yq[part]
            if idx is not None:
                np.copyto(idx[:len(y)], prefix[part])
            lse = (out[part], work[0, :len(y)])
            for bit, acc in enumerate(lse):
                # fold each candidate's exponent -(y - c)^2 / (2 var) into a
                # running log-sum-exp
                for i, c in enumerate(centers[:, bit, :].T):
                    dst = work[-1, :len(y)] if i else acc
                    if idx is None:
                        np.subtract(y, c[0], out=dst)
                    else:
                        # checked above, so clip never clips; unlike the
                        # default mode it gathers without a buffer
                        np.take(c, idx[:len(y)], out=dst, mode="clip")
                        np.subtract(y, dst, out=dst)
                    np.square(dst, out=dst)
                    dst *= scale
                    if i:
                        np.logaddexp(acc, dst, out=acc)
            np.subtract(*lse, out=lse[0])
        return out


def induced_channel(p: ChannelParams, c: RealConstellation) -> InducedChannel:
    """Build the induced channel from a uniform-probability constellation
    with a power-of-two point count, at the channel's photon budget."""
    if not np.allclose(c.probs, 1.0 / c.m, atol=1e-12):
        raise ValueError("induced channel requires a uniform-probability "
                         f"constellation, got kind {c.kind!r}")
    return InducedChannel(p, math.sqrt(p.N / 2.0) * c.points)


def _f(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # 2 artanh(tanh(a/2) tanh(b/2)) in two fresh buffers; a and b are views
    # of the caller's LLRs, so nothing is written into them
    prod, tanh_b = a / 2.0, b / 2.0
    np.tanh(prod, out=prod)
    prod *= np.tanh(tanh_b, out=tanh_b)
    np.clip(prod, -_TANH_CLIP, _TANH_CLIP, out=prod)
    np.arctanh(prod, out=prod)
    prod *= 2.0
    return prod


def _g(a: np.ndarray, b: np.ndarray, u: np.ndarray) -> np.ndarray:
    # b + (1 - 2u) a: the int8 sign multiplies exactly, so the bits are
    # those of the float expression; the product takes one fresh buffer
    # and the sum goes into it
    prod = np.multiply(a, 1 - 2 * u, dtype=float)
    return np.add(prod, b, out=prod)


def _sc_batch(llr: np.ndarray, idx0: int, nfrozen: list) -> np.ndarray:
    """SC recursion over an (n, batch) LLR array, one frame per column,
    for the inputs [idx0, idx0 + n); ``nfrozen[i]`` counts the frozen
    inputs below i, so a subtree's count of frozen inputs is a difference
    of two entries.  Trials are independent, so the whole batch moves
    through the butterfly together, and with the frames on the contiguous
    axis every half of the butterfly is one contiguous block.

    Returns the (n, batch) partial sums x = u F^{x log2 n} of the decided
    inputs u; each half's x comes back up the recursion, so no subtree is
    re-encoded.  Rate-0 and rate-1 subtrees, and nodes whose left half is
    rate-0, are decoded in closed form, with the bits SC would give (see
    ``sc_decode_batch``); an info input is decided as its LLR < 0."""
    n = len(llr)
    frozen = nfrozen[idx0 + n] - nfrozen[idx0]
    if frozen == n:
        return np.zeros(llr.shape, dtype=np.int8)
    if frozen == 0 and (n == 1 or _hard_decisions_exact(llr)):
        return (llr < 0).view(np.int8)
    half = n // 2
    a, b = llr[:half], llr[half:]
    if nfrozen[idx0 + half] - nfrozen[idx0] == half:
        x_right = _sc_batch(a + b, idx0 + half, nfrozen)
        return np.concatenate([x_right, x_right], axis=0)
    x_left = _sc_batch(_f(a, b), idx0, nfrozen)
    x_right = _sc_batch(_g(a, b, x_left), idx0 + half, nfrozen)
    return np.concatenate([x_left ^ x_right, x_right], axis=0)


def _hard_decisions_exact(llr: np.ndarray) -> bool:
    """Whether every |LLR| of an (n, batch) block is at least
    t_n = 2 artanh(e^{-_GUARD_B / n}), tested on bool temporaries."""
    t = 2.0 * math.atanh(math.exp(-_GUARD_B / len(llr)))
    ok = llr >= t
    ok |= llr <= -t
    return bool(ok.all())


def sc_decode_batch(code: PolarCode,
                    llr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SC-decode each row of a (batch, n) LLR array; returns the full
    input-bit estimates u, frozen positions zero, and their codewords
    x = u F^{x log2 n}, the partial sums SC formed on the way.  u is the
    transform of x (the transform is its own inverse).  LLRs not of shape
    (batch, n) raise ValueError.

    The frozen inputs below each index are counted once, so the number of
    them in a subtree [i, i + N) is nfrozen[i + N] - nfrozen[i], and two
    kinds of subtree are decoded in closed form, bit for bit as SC would
    (simplified SC):

    - rate-0, a count of N: x = 0, checked once at node entry.  A node
      whose left half is rate-0 hands its right half a + b, the bits of
      the g-update with x_left = 0, and returns x = (x_right, x_right),
      computing no f-update; a subtree frozen but for its last input is
      decoded by this rule alone, level by level.  A rate-0 right half
      meets the entry check after its g-update, which it discards.
    - rate-1, a count of 0: x is the hard decisions llr < 0, when every
      |LLR| of the (length N, batch) block is at least
      t_N = 2 artanh(e^{-B/N}), B = ``_GUARD_B`` = 600; otherwise SC
      descends as usual.  Proof: an f-update gives tanh(|v|/2) =
      tanh(|a|/2) tanh(|b|/2), and a g-update inside a rate-1 node adds
      its halves with matching signs (the left half's x is their sign
      difference), so |v| >= max(|a|, |b|).  By induction every value v
      inside the node has tanh(|v|/2) >= prod_i tanh(|a_i|/2) >= e^{-B}
      over its N inputs a_i: about 2.6e-261, a factor e^108 above the
      smallest normal double, far more than the relative rounding of the
      few operations per level.  So no f-update rounds to +-0, each keeps
      the product of its input signs, and SC's x is the hard decisions of
      the node's LLRs (the f-update's sign gives x_left = x(a) ^ x(b), and
      the g-update's sign x_right = x(b)).  Without the guard this fails:
      at N = 2 the LLRs (-1, 0) give f = -0, so SC decides x = (1, 1)
      where the hard decisions are (1, 0).  A single info input is the
      hard decision of its LLR, with no guard.

    SC runs on ``np.ascontiguousarray(llr.T)``, the (n, batch) transpose
    of ``llr``, copied unless ``llr`` is already the transpose of such an
    array; u and x are (batch, n) views of their (n, batch) arrays."""
    llr = np.asarray(llr, dtype=float)
    if llr.ndim != 2 or llr.shape[1] != code.n:
        raise ValueError(f"LLRs must be of shape (batch, {code.n}), "
                         f"got {llr.shape}")
    # nfrozen[i], the frozen inputs below i, from the sorted frozen set
    nfrozen = np.searchsorted(code.frozen, np.arange(code.n + 1)).tolist()
    x = _sc_batch(np.ascontiguousarray(llr.T), 0, nfrozen)
    return _transform(x.copy()).T, x.T


def genie_error_counts(llr: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Genie-aided SC over a (batch, n) LLR array whose frames carried the
    codewords ``x``; returns per-index soft error counts.

    The genie knows every input, so SC decides nothing.  With genie
    feeding, the LLR seen at index i is the exact posterior of the i-th
    synthetic channel, so its hard decision errs with probability
    1/(1 + e^|L|) given the observation.  Summing that conditional
    probability instead of the 0/1 outcome estimates the same error count
    with much lower variance.  ``llr`` and ``x`` must share one (batch, n)
    shape, n a power of 2, and ``x`` hold only 0s and 1s, else
    ValueError, raised before any work.

    Each LLR's sign is flipped once by its codeword bit, and the walk then
    runs as on the all-zero codeword, with no partial sums: each node
    hands its left half f(a, b) and its right half a + b, the g-update
    with u = 0.  This is the genie-aided SC of the codeword x bit for bit,
    for any channel, because the reduction is applied to the computed
    LLRs and not assumed of the channel.  Proof: write s = 1 - 2x for a
    bit's sign, so a node whose halves carry the codeword bits (x_a, x_b)
    sees the flipped LLRs (s_a a, s_b b), and its left child's codeword
    x_a ^ x_b has the sign s_u = s_a s_b.  f is odd in each argument to
    the bit: halving, numpy's tanh and arctanh (tested to the bit), the
    symmetric clip and doubling are odd, and the product of the two tanh
    factors takes the product of their signs exactly, so f(s_a a, s_b b)
    = s_u f(a, b).  Under round-to-nearest the rounded sum of negated
    operands is the negated rounded sum, so fl(s_a a + s_b b) =
    s_b fl(b + s_u a), the right child's g-update times its sign s_b.
    The one exception is the sign of a zero: an exact cancellation rounds
    to +0 either way, and a zero stays a zero through f and adds as
    nothing in a + b, so signed zeros move only signs.  By induction
    every node's flipped LLRs are its genie-aided LLRs times its
    codeword's signs, up to the signs of zeros, and each leaf reads only
    |L|.

    The walk runs on ``np.ascontiguousarray(llr.T)``, as SC does, and
    overwrites it in place: the sign flip is one multiplication by the
    int8 signs s, exact since x * -1.0 is -x for every double, +-0 and
    +-inf included, and each node writes f and a + b over its own halves,
    ``_WORK_SLICE`` values at a time, so no whole level is ever
    allocated.  A float64 ``llr`` that already is the transpose of an
    (n, batch) array, as ``sample_level`` returns it, is that array and is
    overwritten; any other is copied once, and left as it was.  The signs
    are one byte per bit, (n, batch), made in place from the bool mask
    x.T == 1, one contiguous pass on bits laid out as ``sample_level``
    returns them, which also checks the bits: they are 0s and 1s when x
    has as many nonzeros as the mask, so no other full-size array is made.
    """
    llr = np.asarray(llr, dtype=float)
    x = np.asarray(x)
    if llr.ndim != 2 or x.shape != llr.shape:
        raise ValueError(f"llr of shape {llr.shape} and x of shape "
                         f"{x.shape}; need one (batch, n) shape")
    _check_power_of_two(llr.shape[1], "genie walk width")
    # the (n, batch) mask x == 1, as int8; x holds only 0s and 1s when its
    # nonzeros are exactly the mask's
    sign = np.equal(x.T, 1, order="C").view(np.int8)
    if np.count_nonzero(x) != np.count_nonzero(sign):
        raise ValueError("codeword bits x must all be 0 or 1")
    llr = np.ascontiguousarray(llr.T)
    # the mask becomes the sign 1 - 2x in place
    sign *= -2
    sign += 1
    np.multiply(llr, sign, out=llr)
    del sign
    errs = np.zeros(len(llr))
    _genie_walk(llr, 0, errs)
    return errs


def _genie_walk(llr: np.ndarray, idx0: int, errs: np.ndarray) -> None:
    """Add the soft error counts of the inputs [idx0, idx0 + w) of a
    C-contiguous (w, batch) array of sign-flipped LLRs into ``errs``,
    overwriting it."""
    if len(llr) == 1:
        e = np.exp(-np.abs(llr[0]))
        errs[idx0] += np.sum(e / (1.0 + e))
        return
    half = len(llr) // 2
    a, b = llr[:half], llr[half:]
    _butterfly(a, b)
    _genie_walk(a, idx0, errs)
    _genie_walk(b, idx0 + half, errs)


def _butterfly(a: np.ndarray, b: np.ndarray) -> None:
    """Overwrite the C-contiguous (h, batch) arrays a with f(a, b) and b
    with a + b, ``_WORK_SLICE`` values at a time."""
    a, b = a.reshape(-1), b.reshape(-1)
    for s in range(0, len(a), _WORK_SLICE):
        blk = slice(s, s + _WORK_SLICE)
        f = _f(a[blk], b[blk])
        b[blk] += a[blk]
        a[blk] = f
        del f  # before the next block's _f asks for its two buffers


def _genie_error_probs(ch, level: int, n: int, mc_budget: int,
                       rng) -> np.ndarray:
    """Monte-Carlo per-index error probabilities via genie-aided SC.

    Trials are processed in chunks of ``_GENIE_SAMPLES // n`` frames, the
    last one ragged, each drawn by one ``sample_level`` call as (n, batch)
    LLRs and walked in place there by ``genie_error_counts``, so large
    budgets keep a working set of about one chunk's LLRs, its one-byte
    bits and its one-byte sign mask.
    """
    chunk = max(1, _GENIE_SAMPLES // n)
    counts = np.zeros(n)
    for start in range(0, mc_budget, chunk):
        bits, llr = ch.sample_level(rng, level,
                                    (min(chunk, mc_budget - start), n))
        counts += genie_error_counts(llr, bits)
    return counts / mc_budget


def construct_multilevel(ch, n: int, sum_rate: float, mc_budget: int,
                         seed: int) -> list:
    """Construct one polar code per bit level under a shared rate budget.

    Estimates per-index error probabilities for every bit level of the
    induced channel, pools them, and assigns the ``round(sum_rate * n)``
    most reliable positions across all levels as information bits.  This
    spends the total rate where the synthetic channels are actually good
    instead of forcing the same fraction onto every level.
    """
    _check_power_of_two(n, "blocklength")
    if not 0.0 <= sum_rate < ch.levels:
        raise ValueError(
            f"sum rate must be in [0, {ch.levels}), got {sum_rate}")
    if mc_budget < MIN_MC_BUDGET:
        raise ValueError(f"mc_budget must be >= {MIN_MC_BUDGET}, got {mc_budget}")
    p_err = np.empty((ch.levels, n))
    for lv in range(ch.levels):
        rng = np.random.default_rng(seed + lv)
        p_err[lv] = _genie_error_probs(ch, lv, n, mc_budget, rng)
    k_total = int(round(sum_rate * n))
    info = np.zeros(p_err.shape, dtype=bool)
    info.flat[np.argsort(p_err, axis=None, kind="stable")[:k_total]] = True
    return [PolarCode(n=n, frozen=np.nonzero(~row)[0]) for row in info]


def estimate_level_mi(ch, level: int, samples: int,
                      rng: np.random.Generator) -> float:
    """Monte-Carlo estimate of the level's conditional mutual information in
    bits, from the exact LLRs: I = 1 - E[log2(1 + e^{-(1-2b) LLR})].
    Fewer than one sample raises ValueError, before any draw."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    bits, llr = ch.sample_level(rng, level, samples)
    signed = np.clip((1.0 - 2.0 * bits) * llr, -700.0, 700.0)
    return 1.0 - float(np.mean(np.log2(1.0 + np.exp(-signed))))


def _send_chunk(ch: InducedChannel, levels: range, codes: list[PolarCode],
                rows: list[np.ndarray],
                rng: np.random.Generator) -> np.ndarray:
    """Send one chunk of frames over the quadrature whose bit levels are
    ``levels`` and decode it level by level; ``rows`` holds the chunk's
    packed info bits of each of those levels, (frames, ceil(k/8)) bytes
    for a level of k info bits.  Returns the (levels, frames) info-bit
    error counts: the decided info bits that differ from the sent ones,
    which are unpacked again for the count.  The chunk's arrays are freed
    on return, before the next chunk asks for its own."""
    b, n = len(rows[0]), codes[levels.start].n
    info_sets = [codes[lv].info_set for lv in levels]
    # map the label bits to symbols and sample the heterodyne outcomes;
    # labels and prefixes are built in place, in the labels' dtype, and
    # like SC's arrays they are (n, b), frames on the contiguous axis.
    # Each level's info bits, unpacked, fill its info rows of one bit
    # plane of the labels, and one transform of the labels turns every
    # plane into its level's codeword, the label bits the symbols carry
    label = np.zeros((n, b), dtype=ch.labels.dtype)
    for info, packed in zip(info_sets, rows):
        label <<= 1
        label[info] |= np.unpackbits(packed, axis=1, count=len(info)).T
    _transform(label)
    # the noise is drawn frame by frame, in the order of every other
    # layout, max(1, _WORK_SLICE // n) frames at a time (numpy's stream is
    # that of one draw), and each slice's outcomes are written transposed
    # into one frame-major array; the labels are needed no further
    yq = np.empty((n, b))
    step = max(1, _WORK_SLICE // n)
    for s in range(0, b, step):
        yq[:, s:s + step] = ch._heterodyne(rng, label[:, s:s + step].T).T
    del label
    yq = yq.reshape(-1)
    # decode level by level, feeding decisions forward as the label prefix
    prefix = np.zeros(b * n, dtype=ch.labels.dtype)
    nerr = np.empty((len(levels), b), dtype=np.int64)
    for i, (lv, info, packed) in enumerate(zip(levels, info_sets, rows)):
        u_hat, x_hat = sc_decode_batch(
            codes[lv], ch.level_llrs(lv, prefix, yq).reshape(n, b).T)
        # a frame's errors are its decided info bits that differ from the
        # sent ones, unpacked again as the labels took them; u_hat.T is
        # SC's (n, b) array, so [info] gathers rows
        nerr[i] = np.count_nonzero(u_hat.T[info] != np.unpackbits(
            packed, axis=1, count=len(info)).T, axis=0)
        prefix <<= 1
        prefix |= x_hat.T.reshape(-1).astype(prefix.dtype)
    return nerr


def simulate(ch: InducedChannel, codes: list[PolarCode], trials: int,
             seed: int) -> dict:
    """Multilevel polar-coded transmission over the induced channel.

    ``codes`` holds one code per bit level, all of the same blocklength.
    Levels are decoded in order, each level's decided codeword (the SC
    partial sums) feeding the next level's LLRs as priors.  The work goes
    in chunks of ``_link_frames(n)`` frames, 2^19 samples, but at least
    min(128, 2^20 // n) frames: every level's info bits are drawn first,
    a chunk at a time (numpy's stream does not depend on how consecutive
    draws split the rows), and kept packed, ceil(k/8) bytes per trial for
    a level of k info bits; then each quadrature's chunk of packed rows
    is modulated, sent and decoded by ``_send_chunk``, which unpacks each
    level's rows into its bit plane of the labels and counts each level's
    decided info bits that differ from the sent ones, so one chunk's
    arrays are freed before the next chunk's are made.  Only the packed
    bits and one flag per frame grow with the trials.  Returns a report
    dict with per-level BER, frame error rate and effective throughput in
    bits/mode.
    """
    if len(codes) != ch.levels:
        raise ValueError(f"need {ch.levels} codes, got {len(codes)}")
    n = codes[0].n
    if any(c.n != n for c in codes):
        raise ValueError("all level codes must share the blocklength")
    rng = np.random.default_rng(seed)
    bit_errors = np.zeros(ch.levels)
    info_sets = [c.info_set for c in codes]
    info_bits = np.array([len(info) for info in info_sets])
    frame_bad = np.zeros(trials, dtype=bool)
    chunk = _link_frames(n)
    starts = range(0, trials, chunk)
    packed = [np.empty((trials, (len(info) + 7) // 8), dtype=np.uint8)
              for info in info_sets]
    for bits, info in zip(packed, info_sets):
        for s in starts:
            part = bits[s:s + chunk]
            part[:] = np.packbits(
                rng.integers(0, 2, size=(len(part), len(info))), axis=1)
    for q in range(2):
        levels = range(q * ch.nbits, (q + 1) * ch.nbits)
        for s in starts:
            nerr = _send_chunk(ch, levels, codes,
                               [packed[lv][s:s + chunk] for lv in levels], rng)
            bit_errors[levels.start:levels.stop] += nerr.sum(axis=1)
            frame_bad[s:s + chunk] |= np.any(nerr > 0, axis=0)

    fer = float(np.mean(frame_bad)) if trials else None
    sum_rate = float(info_bits.sum()) / n
    return {
        "trials": trials,
        "seed": seed,
        "blocklength": n,
        "levels": ch.levels,
        "level_rates": [c.rate for c in codes],
        "level_ber": [float(b / (k * trials)) if k else 0.0
                      for b, k in zip(bit_errors, info_bits)] if trials else None,
        "fer": fer,
        "sum_rate_bits_per_mode": sum_rate,
        "throughput_bits_per_mode": sum_rate * (1.0 - fer) if trials else None,
    }
