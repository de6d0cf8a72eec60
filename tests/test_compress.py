import heapq
import itertools
import re
import struct
import tracemalloc
import weakref
import zlib
from dataclasses import replace

import numpy as np
import pytest

from convdse import compress, huffman, properties, refexec, zoo
from convdse.cli import main
from convdse.compress import (CompressedFormatError, compress_model, compression_report,
                              decode_model, encode, kmeans_quantize, prune_magnitude,
                              quantization_mse, quantize_model, read_sdnc, write_sdnc)
from convdse.weights import (WeightFormatError, WeightTensor, read_sdnw, save_sdnw,
                             write_sdnw)


def wt(values, name="t", shape=None):
    values = np.asarray(values, dtype=np.float32)
    return WeightTensor(name, shape or (values.size,), values)


def prune_reference(tensor, target_sparsity):
    """Stable-argsort pruning: the floor(s * N) smallest magnitudes become
    +0.0, ties lowest flat index first; every other entry keeps its bits."""
    values = tensor.values.copy()
    n_prune = int(np.floor(target_sparsity * values.size))
    values[np.argsort(np.abs(values), kind="stable")[:n_prune]] = 0.0
    return values


def kmeans_reference(tensor, bits):
    """Lloyd's k-means over the unsorted nonzeros, one O(n) assignment and
    two bincounts per step; returns (codebook, positions, assignments)."""
    positions = np.nonzero(tensor.values)[0].astype(np.int64)
    if positions.size == 0:
        return np.zeros(0, dtype=np.float32), positions, np.zeros(0, dtype=np.int64)
    nz = tensor.values[positions].astype(np.float64)
    k = 1 << bits
    centroids = np.linspace(nz.min(), nz.max(), k)

    def assign(cents):
        if cents.size == 1:
            return np.zeros(nz.size, dtype=np.int64)
        return np.searchsorted((cents[:-1] + cents[1:]) / 2.0, nz, side="left").astype(np.int64)

    for _ in range(50):
        labels = assign(centroids)
        new_centroids = centroids.copy()
        counts = np.bincount(labels, minlength=k)
        sums = np.bincount(labels, weights=nz, minlength=k)
        occupied = counts > 0
        new_centroids[occupied] = sums[occupied] / counts[occupied]
        movement = np.max(np.abs(new_centroids - centroids))
        centroids = new_centroids
        if movement < 1e-8:
            break
    labels = assign(centroids)
    keep = ~(centroids.astype(np.float32) == 0.0)[labels]
    positions, labels = positions[keep], labels[keep]
    used = np.unique(labels)
    remap = np.full(k, -1, dtype=np.int64)
    remap[used] = np.arange(used.size)
    return centroids[used].astype(np.float32), positions, remap[labels]


def kmeans_sort_search(tensor, bits, steps=None):
    """The earlier sorted-run k-means: the same Lloyd steps over the sorted
    float64 nonzeros, then one ``searchsorted`` of every nonzero into the
    final midpoints and ``np.unique`` of the labels; returns (codebook,
    positions, assignments) and appends the number of Lloyd steps taken to
    ``steps`` if given. Its run sums are ``reduceat`` sums, so it is a
    bit-exact reference on large tensors, where the bincount sums of
    ``kmeans_reference`` round differently."""
    positions = np.nonzero(tensor.values)[0].astype(np.int64)
    if positions.size == 0:
        return np.zeros(0, dtype=np.float32), positions, np.zeros(0, dtype=np.int64)
    nz = tensor.values[positions].astype(np.float64)
    ordered = np.sort(nz)
    k = 1 << bits
    centroids = np.linspace(ordered[0], ordered[-1], k)
    bounds = np.empty(k + 1, dtype=np.int64)
    bounds[0], bounds[k] = 0, ordered.size
    for step in range(1, 51):
        bounds[1:k] = np.searchsorted(ordered, (centroids[:-1] + centroids[1:]) / 2.0,
                                      side="right")
        counts = np.diff(bounds)
        occupied = counts > 0
        new_centroids = centroids.copy()
        new_centroids[occupied] = (np.add.reduceat(ordered, bounds[:-1][occupied])
                                   / counts[occupied])
        movement = np.max(np.abs(new_centroids - centroids))
        centroids = new_centroids
        if movement < 1e-8:
            break
    if steps is not None:
        steps.append(step)
    labels = np.searchsorted((centroids[:-1] + centroids[1:]) / 2.0, nz,
                             side="left").astype(np.int64, copy=False)
    zero = centroids.astype(np.float32) == 0.0
    if zero.any():
        keep = ~zero[labels]
        positions, labels = positions[keep], labels[keep]
    used = np.unique(labels)
    remap = np.full(k, -1, dtype=np.int64)
    remap[used] = np.arange(used.size)
    return centroids[used].astype(np.float32), positions, remap[labels]


def assert_same_quantization(qt, expected):
    codebook, positions, assignments = expected
    assert np.array_equal(qt.codebook, codebook) and qt.codebook.dtype == codebook.dtype
    assert np.array_equal(qt.positions, positions) and qt.positions.dtype == np.int32
    assert np.array_equal(qt.assignments, assignments) and qt.assignments.dtype == np.int16


def assert_matches_reference(t, sparsity, bits):
    pruned = prune_magnitude(t, sparsity)
    expected = prune_reference(t, sparsity)
    # bytes, not array_equal: -0.0 == +0.0 would hide a flipped zero sign
    assert pruned.values.dtype == expected.dtype
    assert pruned.values.tobytes() == expected.tobytes()
    qt = kmeans_quantize(pruned, bits)
    assert_same_quantization(qt, kmeans_reference(pruned, bits))
    assert_same_quantization(qt, kmeans_sort_search(pruned, bits))


def equivalence_cases():
    """(values, sparsity, bits): seeded tensors plus the edge cases of
    pruning ties and k-means midpoints."""
    rng = np.random.default_rng(40)
    normal = rng.standard_normal(5000)
    halves = rng.integers(-6, 7, size=3000) / 2.0  # many ties at every magnitude
    zeros_run = normal.copy()
    zeros_run[:2000] = 0.0  # the 30% cut lies inside this run of zeros
    # a few levels, each repeated hundreds of times and shuffled: every run
    # bound falls between two blocks of equal values, and the sort may
    # swap equal values
    levels = rng.permutation(np.repeat([-2.0, -1.0, -0.25, 0.75, 1.0, 3.0],
                                       [400, 1, 250, 600, 2, 350]))
    # -1 and 2 repeated, with their midpoint 0.5 repeated between them
    midpoint_block = rng.permutation(np.repeat([-1.0, 0.5, 2.0], [300, 300, 300]))
    # 100,000 weights with the cut magnitude repeated all through them; at
    # sparsity 0.462 the last pruned tie sits past flat index 80,000
    spread_ties = rng.integers(-24, 25, size=100_000) / 8.0
    # 3,000 zeros, a third of them -0.0, against a cut of 1,500
    signed_zeros = normal.copy()
    signed_zeros[rng.permutation(5000)[:3000]] = rng.choice([0.0, 0.0, -0.0], size=3000)
    mixed_sign_ties = rng.choice([-1.0, 1.0, -0.5, 0.5, 2.0], size=4000)
    cases = {
        "normal_s0": (normal, 0.0, 6),
        "normal_b1": (normal, 0.7, 1),
        "normal_b8": (normal, 0.7, 8),
        "normal_scaled_b8": (normal * 0.01, 0.5, 8),
        "halves_b1": (halves, 0.3, 1),
        "halves_b3": (halves, 0.55, 3),
        "halves_b8": (halves, 0.9, 8),
        "cut_in_zero_run": (zeros_run, 0.3, 4),
        "threshold_repeats": ([3.0, -1.0, 1.0, 2.0, -1.0, 1.0, 0.5, 1.0], 0.5, 2),
        "all_equal": (np.full(64, -0.75), 0.5, 4),
        "single_nonzero": ([0.0, 0.0, 2.5, 0.0], 0.25, 8),
        "on_midpoint_pair_b1": ([-1.0, 1.0], 0.0, 1),
        "on_midpoint_pair_b8": ([-1.0, 1.0], 0.0, 8),
        "on_midpoint_triple_b1": ([-1.0, 0.5, 2.0], 0.0, 1),  # 0.5 is the midpoint
        "on_midpoint_triple_b2": ([-1.0, 0.5, 2.0], 0.0, 2),  # mids -0.5, 0.5, 1.5
        "zero_centroid": ([-0.1, 0.1, 5.0, 10.0], 0.0, 1),
        "zero_centroid_block": (np.repeat([-0.1, 0.1, 5.0, 10.0], 200), 0.0, 1),
        "tied_levels_b1": (levels, 0.0, 1),
        "tied_levels_b2": (levels, 0.2, 2),
        "tied_levels_b8": (levels, 0.0, 8),
        "midpoint_block_b1": (midpoint_block, 0.0, 1),
        "midpoint_block_b2": (midpoint_block, 0.0, 2),
        "all_zero": (np.zeros(10), 0.4, 3),
        "spread_ties": (spread_ties, 0.462, 4),
        "signed_zeros_exceed_cut": (signed_zeros, 0.3, 5),
        "signed_zeros_past_cut": (signed_zeros, 0.8, 5),
        "mixed_sign_ties": (mixed_sign_ties, 0.5, 2),
    }
    return [pytest.param(*case, id=name) for name, case in cases.items()]


@pytest.mark.parametrize("values, sparsity, bits", equivalence_cases())
def test_prune_and_quantize_match_the_reference(values, sparsity, bits):
    assert_matches_reference(wt(values), sparsity, bits)


def test_prune_and_quantize_match_the_reference_on_random_tensors():
    rng = np.random.default_rng(41)
    for i in range(40):
        n = int(rng.integers(1, 3000))
        values = rng.standard_normal(n) * rng.uniform(0.01, 3)
        if i % 2:
            values = np.round(values * 4) / 4  # coarse grid: ties everywhere
        sparsity = float(rng.choice([0.0, rng.uniform(0, 0.95)]))
        assert_matches_reference(wt(values), sparsity, bits=i % 8 + 1)


@pytest.mark.parametrize("bits", [6, 8])
def test_quantize_matches_the_sort_search_formulation_bit_for_bit(bits):
    values = np.random.default_rng(42).standard_normal(1 << 18).astype(np.float32) * 0.1
    t = wt(values)
    assert np.count_nonzero(t.values) == 1 << 18
    assert_same_quantization(kmeans_quantize(t, bits), kmeans_sort_search(t, bits))


def batch_tensors():
    """Every equivalence case's tensor pruned at its sparsity, then two
    whose prefix sums would round in float64: values spanning 12 decades,
    and three levels from 1e-7 to 250 repeated."""
    tensors = []
    for case in equivalence_cases():
        values, sparsity, _ = case.values
        tensors.append(prune_magnitude(wt(values, name=case.id), sparsity))
    rng = np.random.default_rng(44)
    wide = rng.standard_normal(3000) * 10.0 ** rng.uniform(-6, 6, 3000)
    levels = rng.permutation(np.repeat([1e-7, 3.0, -250.0], [700, 200, 100]))
    return tensors + [wt(wide, name="wide_range"), wt(levels, name="far_levels")]


@pytest.mark.parametrize("bits", range(1, 9))
def test_one_batch_matches_the_sort_search_formulation(bits, monkeypatch):
    tensors = batch_tensors()
    exact = []
    prefix_sums = compress._prefix_sums
    monkeypatch.setattr(compress, "_prefix_sums",
                        lambda ordered: exact.append(prefix_sums(ordered) is not None)
                        or prefix_sums(ordered))
    batch = quantize_model(iter(tensors), bits)
    assert exact.count(False) == 2 and exact.count(True) == len(tensors) - 3  # all_zero: none
    steps = []
    for t, qt in zip(tensors, batch, strict=True):
        assert (qt.name, qt.shape) == (t.name, t.shape)
        assert_same_quantization(qt, kmeans_sort_search(t, bits, steps))
        alone = kmeans_quantize(t, bits)
        assert_same_quantization(qt, (alone.codebook, alone.positions, alone.assignments))
    sizes = [np.count_nonzero(t.values) for t in tensors]
    assert 0 in sizes and 1 in sizes
    assert len(set(steps)) > 1  # the tensors left the loop at different steps


class TestPrune:
    def test_four_value_example(self):
        pruned = prune_magnitude(wt([0.1, -0.5, 0.3, 0.0]), 0.5)
        assert np.array_equal(pruned.values,
                              np.array([0.0, -0.5, 0.3, 0.0], dtype=np.float32))
        assert (pruned.values != 0).tolist() == [False, True, True, False]

    def test_zero_sparsity_is_identity(self):
        t = wt([0.1, -0.5, 0.3, 0.0])
        pruned = prune_magnitude(t, 0.0)
        assert np.array_equal(pruned.values, t.values)

    def test_nonzero_count(self):
        rng = np.random.default_rng(0)
        t = wt(rng.standard_normal(10_000))
        pruned = prune_magnitude(t, 0.7)
        expected_nnz = 10_000 - int(np.floor(0.7 * 10_000))
        assert int((pruned.values != 0).sum()) == expected_nnz

    def test_ties_prune_lower_flat_index_first(self):
        pruned = prune_magnitude(wt([2.0, 1.0, 1.0, 1.0]), 0.5)
        assert pruned.values.tolist() == [2.0, 0.0, 0.0, 1.0]

    def test_idempotent_at_same_sparsity(self):
        rng = np.random.default_rng(1)
        t = wt(rng.standard_normal(501))
        once = prune_magnitude(t, 0.7)
        twice = prune_magnitude(once, 0.7)
        assert np.array_equal(once.values, twice.values)

    def test_float32_sparsity_prunes_the_count_of_the_python_value(self):
        # floor(np.float32(0.7) * 90) is 63 in float32 arithmetic, floor(0.7 * 90) is 62
        t = wt(np.arange(1.0, 91.0))
        for sparsity in (np.float32(0.7), 0.7):
            assert int((prune_magnitude(t, sparsity).values == 0).sum()) == 62

    @pytest.mark.parametrize("values, sparsity",
                             [pytest.param(*case.values[:2], id=case.id)
                              for case in equivalence_cases()])
    def test_input_is_never_written(self, values, sparsity):
        # the cases hold ties, -0.0 and sparsity 0; a read-only input makes
        # any write into it raise, and its bytes are compared besides
        t = wt(values)
        t.values.setflags(write=False)
        before = t.values.tobytes()
        pruned = prune_magnitude(t, sparsity)
        assert t.values.tobytes() == before
        assert not np.shares_memory(pruned.values, t.values)
        assert pruned.values.flags.writeable

    def test_sparsity_range(self):
        with pytest.raises(ValueError):
            prune_magnitude(wt([1.0]), 1.0)
        with pytest.raises(ValueError):
            prune_magnitude(wt([1.0]), -0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus_inf"])
    @pytest.mark.parametrize("sparsity", [0.0, 0.5])
    def test_non_finite_weights_are_refused(self, bad, sparsity):
        with pytest.raises(ValueError, match=re.escape("t: weights contain NaN or infinity")):
            prune_magnitude(wt([1.0, bad, 2.0, 3.0]), sparsity)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus_inf"])
    def test_non_finite_last_weight_of_a_large_tensor_is_refused_at_sparsity_0(self, bad):
        values = np.arange(1, 70_001, dtype=np.float32)
        values[-1] = bad
        with pytest.raises(ValueError, match=re.escape("t: weights contain NaN or infinity")):
            prune_magnitude(wt(values), 0.0)


class TestKmeans:
    def test_symmetric_pair_is_a_fixed_point(self):
        qt = kmeans_quantize(wt([-1.0, -1.0, 1.0, 1.0]), bits=1)
        assert qt.codebook.tolist() == [-1.0, 1.0]
        assert qt.assignments.tolist() == [0, 0, 1, 1]

    def test_enough_bits_means_zero_error(self):
        values = [0.5, -2.0, 3.25, 0.5, -2.0, 1.0]  # 4 distinct values
        t = wt(values)
        qt = kmeans_quantize(t, bits=2)
        assert quantization_mse(t, qt) == 0.0
        assert np.array_equal(qt.dequantize().values, t.values)

    def test_more_bits_never_hurt(self):
        rng = np.random.default_rng(2)
        t = wt(rng.standard_normal(4000))
        mse4 = quantization_mse(t, kmeans_quantize(t, bits=4))
        mse6 = quantization_mse(t, kmeans_quantize(t, bits=6))
        assert mse6 <= mse4

    def test_operates_on_nonzeros_only(self):
        t = wt([0.0, 5.0, 0.0, -3.0])
        qt = kmeans_quantize(t, bits=2)
        assert qt.positions.tolist() == [1, 3]
        assert 0.0 not in qt.codebook.tolist()
        assert qt.dequantize().values.tolist() == [0.0, 5.0, 0.0, -3.0]

    def test_zero_centroid_members_are_pruned(self):
        # with one bit the lower centroid is the mean of -0.1 and 0.1
        qt = kmeans_quantize(wt([-0.1, 0.1, 5.0, 10.0]), bits=1)
        assert qt.codebook.tolist() == [7.5]
        assert qt.positions.tolist() == [2, 3]
        model = encode([qt])
        decoded = decode_model(read_sdnc(write_sdnc(model)))[0]
        assert model.records[0].nonzero_count == np.count_nonzero(decoded.values) == 2

    def test_all_zero_tensor(self):
        qt = kmeans_quantize(wt([0.0, 0.0, 0.0]), bits=3)
        assert qt.codebook.size == 0 and qt.positions.size == 0
        assert qt.dequantize().values.tolist() == [0.0, 0.0, 0.0]

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        t = wt(rng.standard_normal(2000))
        a = kmeans_quantize(t, bits=5)
        b = kmeans_quantize(t, bits=5)
        assert np.array_equal(a.codebook, b.codebook)
        assert np.array_equal(a.assignments, b.assignments)

    def test_bits_range(self):
        with pytest.raises(ValueError):
            kmeans_quantize(wt([1.0]), bits=0)
        with pytest.raises(ValueError):
            kmeans_quantize(wt([1.0]), bits=9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus_inf"])
    def test_non_finite_weights_are_refused(self, bad):
        with pytest.raises(ValueError, match=re.escape("t: weights contain NaN or infinity")):
            kmeans_quantize(wt([1.0, bad, 2.0, 3.0]), 2)
        with pytest.raises(ValueError, match=re.escape("b: weights contain NaN or infinity")):
            quantize_model([wt([1.0, 2.0], name="a"), wt([bad, 0.0], name="b")], 2)

    def test_bits_are_checked_before_any_tensor_is_read(self):
        def tensors():
            raise AssertionError("a tensor was read")
            yield
        with pytest.raises(ValueError, match=re.escape("bits must be in [1, 8], got 0")):
            quantize_model(tensors(), 0)


class ArgsortNonzeros(compress._SortedNonzeros):
    """The quantizer state as it was built before the packed-key sort: an
    argsort of the nonzeros, a gather of them in that order, and a widening
    to float64. Equal values may come out of the argsort in any order."""

    def __init__(self, name, shape, positions, nz):
        self.name, self.shape, self.positions = name, shape, positions
        self.order = np.argsort(nz).astype(positions.dtype)
        self.ordered = nz[self.order].astype(np.float64)
        self.prefix = None
        if self.ordered.size:
            if not (np.isfinite(self.ordered[0]) and np.isfinite(self.ordered[-1])):
                raise ValueError(f"{self.name}: weights contain NaN or infinity")
            self.prefix = compress._prefix_sums(self.ordered)


def float32_bits(*words):
    return np.array(words, dtype=np.uint32).view(np.float32)


FLT_MAX = np.finfo(np.float32).max
FLT_MIN = np.finfo(np.float32).tiny  # the smallest normal
SIGN_BOUNDARY = np.concatenate([
    [FLT_MAX, -FLT_MAX, FLT_MIN, -FLT_MIN, 1.0, -1.0, 0.0, -0.0],
    float32_bits(0x00000001, 0x80000001,    # the smallest denormals
                 0x007FFFFF, 0x807FFFFF,    # the largest denormals
                 0x7F7FFFFE, 0xFF7FFFFE)])  # one step inside FLT_MAX


class TestSortKey:
    """``_SortedNonzeros`` sorts one int64 key per nonzero; each case's
    expected result comes from ``ArgsortNonzeros``, the argsort it replaced."""

    @staticmethod
    def states(nz, positions_dtype=np.int32):
        nz = np.asarray(nz, dtype=np.float32)
        positions = np.flatnonzero(nz).astype(positions_dtype)
        return [cls("t", (nz.size,), positions, nz[positions])
                for cls in (compress._SortedNonzeros, ArgsortNonzeros)]

    @staticmethod
    def by_argsort(tensors, bits):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(compress, "_SortedNonzeros", ArgsortNonzeros)
            return quantize_model(tensors, bits)

    def assert_sorts_like_the_argsort(self, nz, positions_dtype=np.int32):
        state, expected = self.states(nz, positions_dtype)
        assert state.ordered.dtype == np.float64
        assert state.ordered.tobytes() == expected.ordered.tobytes()
        assert (state.prefix is None) == (expected.prefix is None)
        if state.prefix is not None:
            assert state.prefix.tobytes() == expected.prefix.tobytes()
        # every key is distinct: equal values keep their index order
        assert state.order.dtype == positions_dtype
        nonzeros = np.asarray(nz, dtype=np.float32)[state.positions]
        assert np.array_equal(state.order, np.argsort(nonzeros, kind="stable"))

    def assert_quantizes_like_the_argsort(self, tensors, bits):
        for qt, expected in zip(quantize_model(tensors, bits),
                                self.by_argsort(tensors, bits), strict=True):
            assert_same_quantization(qt, (expected.codebook, expected.positions,
                                          expected.assignments))
        assert (write_sdnc(encode(quantize_model(tensors, bits)))
                == write_sdnc(encode(self.by_argsort(tensors, bits))))

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_values_either_side_of_the_sign_boundary(self, bits):
        rng = np.random.default_rng(60)
        values = rng.permutation(np.repeat(SIGN_BOUNDARY, rng.integers(1, 40, SIGN_BOUNDARY.size)))
        self.assert_sorts_like_the_argsort(values)
        state, _ = self.states(values)
        # both zeros are left out, and the denormals sit next to them
        assert state.ordered.size == np.count_nonzero(values)
        assert state.ordered[0] == -FLT_MAX and state.ordered[-1] == FLT_MAX
        i = int(np.searchsorted(state.ordered, 0.0))
        assert state.ordered[i - 1:i + 1].tolist() == [-float(float32_bits(1)[0]),
                                                       float(float32_bits(1)[0])]
        tensors = [wt(values, "boundary"), wt(values[np.abs(values) < 1e-30], "denormals"),
                   wt(values[values > 0], "positive"), wt(values[values < 0], "negative")]
        self.assert_quantizes_like_the_argsort(tensors, bits)

    @pytest.mark.parametrize("word", [0x7FC00000, 0xFFC00000, 0xFF800001, 0x7F800001],
                             ids=["nan", "minus_nan", "minus_signalling_nan", "signalling_nan"])
    def test_nan_of_either_sign_is_refused(self, word):
        # a NaN with the sign bit set keys below -inf, so it sorts first
        nan = float32_bits(word)[0]
        for values in ([nan], [1.0, nan, -2.0, 0.0], [-np.inf, nan, np.inf]):
            message = re.escape("t: weights contain NaN or infinity")
            with pytest.raises(ValueError, match=message):
                quantize_model([wt(values)], 4)
            # the argsort state's cast of a signalling NaN also warned
            with pytest.raises(ValueError, match=message), np.errstate(invalid="ignore"):
                self.by_argsort([wt(values)], 4)

    @pytest.mark.parametrize("bits", [1, 2, 5, 8])
    def test_heavy_ties(self, bits):
        rng = np.random.default_rng(61)
        levels = rng.permutation(np.repeat([-3.5, -0.125, 0.5, 0.75, 7.0],
                                           [40_000, 3, 25_000, 1, 35_000]))
        self.assert_sorts_like_the_argsort(levels)
        self.assert_sorts_like_the_argsort(np.full(5000, -2.0))
        self.assert_quantizes_like_the_argsort([wt(levels, "levels"),
                                                wt(np.full(5000, -2.0), "equal")], bits)

    def test_int64_positions_take_the_index_by_mask(self, monkeypatch):
        rng = np.random.default_rng(62)
        values = np.round(rng.standard_normal(3000) * 4) / 4
        self.assert_sorts_like_the_argsort(values, np.int64)
        tensors = [prune_magnitude(wt(case.values[0], case.id), case.values[1])
                   for case in equivalence_cases()]
        narrow = write_sdnc(encode(quantize_model(tensors, 5)))
        monkeypatch.setattr(compress, "_index_dtype", lambda size: np.int64)
        assert write_sdnc(encode(quantize_model(tensors, 5))) == narrow

    def test_more_nonzeros_than_a_key_can_index_are_refused_naming_the_tensor(self):
        # zero strides: neither array holds more than one element
        nz = np.broadcast_to(np.float32(1.0), (1 << 32,))
        positions = np.broadcast_to(np.int64(0), (1 << 32,))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape(
                    "fc6.weight: 4294967296 nonzeros, more than the 2**32 - 1 "
                    "a sort key can index")):
                compress._SortedNonzeros("fc6.weight", (1 << 32,), positions, nz)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_quantize_peak_is_28_bytes_per_nonzero(self):
        # the argsort state peaked at 28: int32 positions and order, the
        # float32 nonzeros, float64 sorted values and prefix sums
        values = np.random.default_rng(63).standard_normal(1 << 18).astype(np.float32)
        pruned = prune_magnitude(wt(values), 0.7)
        nonzeros = int(np.count_nonzero(pruned.values))
        quantize_model([pruned], 6)  # numpy's first-use allocations stay out of the count
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            quantize_model([pruned], 6)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 28 * nonzeros + (16 << 10), (peak, nonzeros)


# quiet and signalling NaN of either sign, and both infinities, as float32 words
NON_FINITE = {"nan": 0x7FC00000, "minus_nan": 0xFFC00000,
              "minus_signalling_nan": 0xFF800001, "signalling_nan": 0x7F800001,
              "inf": 0x7F800000, "minus_inf": 0xFF800000}


@pytest.mark.parametrize("word", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_every_codec_route_refuses_non_finite_weights_before_any_quantizer_state(
        word, monkeypatch):
    def no_state(*args):
        raise AssertionError("a quantizer state was built")
    monkeypatch.setattr(compress, "_SortedNonzeros", no_state)
    # 1.0, the word, 0.0, -2.0
    bad = wt(float32_bits(0x3F800000, word, 0, 0xC0000000), "conv1.weight")
    routes = [lambda: quantize_model([bad], 4), lambda: quantize_model((t for t in [bad]), 4),
              lambda: kmeans_quantize(bad, 4)]
    for sparsity in (0.0, 0.5):
        routes += [lambda s=sparsity: compress_model([bad], s, 4),
                   lambda s=sparsity: compress_model((t for t in [bad]), s, 4)]
    for route in routes:
        with pytest.raises(ValueError, match=re.escape(
                "conv1.weight: weights contain NaN or infinity")):
            route()


# each codec entry point with one setting of the wrong kind: a fractional
# width, a bool width, a string sparsity
CODEC_CALLS = {
    "compress_model": lambda target_sparsity=0.5, bits=4, rel_index_bits=4: compress_model(
        [wt(np.arange(10.0))], target_sparsity, bits, rel_index_bits=rel_index_bits),
    "quantize_model": lambda bits: quantize_model([wt(np.arange(10.0))], bits),
    "prune_magnitude": lambda target_sparsity: prune_magnitude(wt(np.arange(10.0)),
                                                               target_sparsity),
    "encode": lambda rel_index_bits: encode([], rel_index_bits),
}


def test_codec_settings_may_be_numpy_scalars():
    tensors = [wt(np.arange(10.0))]
    assert (write_sdnc(compress_model(tensors, np.float32(0.5), np.int64(4),
                                      rel_index_bits=np.int64(3)))
            == write_sdnc(compress_model(tensors, 0.5, 4, rel_index_bits=3)))


def parity_cases():
    """The equivalence cases, plus signed zeros at sparsity 0 (nothing
    pruned) and -0.0 kept under a cut of 0."""
    signed = np.random.default_rng(64).standard_normal(600)
    signed[::3], signed[1::5] = -0.0, 0.0
    return equivalence_cases() + [
        pytest.param(signed, 0.0, 4, id="signed_zeros_s0"),
        pytest.param([-0.0] * 10 + [1.0, -2.0, 3.0], 0.2, 2, id="minus_zeros_kept"),
    ]


@pytest.mark.parametrize("values, sparsity, bits", parity_cases())
def test_compress_model_codes_like_prune_then_quantize(values, sparsity, bits):
    # compress_model reads each tensor's survivors off its keep mask
    tensors = [wt(values, "t")]
    expected = encode(quantize_model(map(prune_magnitude, tensors, itertools.repeat(sparsity)),
                                     bits))
    assert write_sdnc(compress_model(tensors, sparsity, bits)) == write_sdnc(expected)


def test_parity_cases_keep_signed_zeros_under_a_cut_of_zero():
    kept = []
    for case in parity_cases():
        values, sparsity, _ = case.values
        t = wt(values)
        keep, cut = compress._keep_mask(t, sparsity)
        if cut == 0:
            survivors = t.values if keep is None else t.values[keep]
            kept.append((keep is None, bool(np.any(np.signbit(survivors) & (survivors == 0)))))
    assert (True, True) in kept and (False, True) in kept


class TestStreaming:
    """``compress_model`` reads its tensors once, in order, and holds each
    only until it is pruned."""

    SPECS = [("a", (3000,)), ("zeros", (5, 8)), ("b", (7, 100)), ("c", (1,))]

    def values(self):
        rng = np.random.default_rng(16)
        return [np.zeros(shape) if name == "zeros" else rng.standard_normal(shape)
                for name, shape in self.SPECS]

    def test_one_shot_generator_codes_like_the_list(self):
        listed = write_sdnc(compress_model([wt(v.ravel(), name, v.shape) for (name, _), v
                                            in zip(self.SPECS, self.values())], 0.7, 6))
        pulled, inputs = [], []

        def one_shot():
            for (name, _), v in zip(self.SPECS, self.values()):
                # every tensor pulled before this one was pruned and dropped
                assert [ref() for ref in inputs] == [None] * len(inputs)
                t = wt(v.ravel(), name, v.shape)
                pulled.append(name)
                inputs.append(weakref.ref(t.values))
                yield t
                del t

        assert write_sdnc(compress_model(one_shot(), 0.7, 6)) == listed
        assert pulled == [name for name, _ in self.SPECS]

    def test_empty_generator_codes_like_the_empty_list(self):
        model = compress_model(iter(()), 0.7, 6)
        assert model.records == ()
        assert write_sdnc(model) == write_sdnc(compress_model([], 0.7, 6))


def test_uint8_widths_code_like_python_ints():
    # 1 << np.uint8(8) is a uint8 0: each width must become an int first
    tensors = [wt(np.random.default_rng(15).standard_normal(3000), "a"),
               wt(np.arange(1.0, 41.0), "b", (5, 8))]
    assert (write_sdnc(compress_model(tensors, 0.5, np.uint8(8),
                                      rel_index_bits=np.uint8(16)))
            == write_sdnc(compress_model(tensors, 0.5, 8, rel_index_bits=16)))


@pytest.mark.parametrize("function, setting, value", [
    ("compress_model", "bits", 2.5), ("compress_model", "bits", True),
    ("compress_model", "rel_index_bits", 2.5), ("compress_model", "target_sparsity", "0.5"),
    ("quantize_model", "bits", 2.5), ("quantize_model", "bits", True),
    ("prune_magnitude", "target_sparsity", "0.5"), ("encode", "rel_index_bits", 2.5),
])
def test_codec_setting_of_the_wrong_kind_is_refused_naming_it(function, setting, value):
    with pytest.raises(ValueError, match=f"^{setting} must be an? (integer|number), "
                                         f"got {re.escape(repr(value))}$"):
        CODEC_CALLS[function](**{setting: value})


class TestEncodeDecode:
    def test_four_value_round_trip(self):
        pruned = prune_magnitude(wt([0.1, -0.5, 0.3, 0.0]), 0.5)
        qt = kmeans_quantize(pruned, bits=1)
        model = encode([qt])
        decoded = decode_model(model)[0]
        assert np.array_equal(decoded.values,
                              np.array([0.0, -0.5, 0.3, 0.0], dtype=np.float32))

    def test_container_round_trip_preserves_everything(self):
        rng = np.random.default_rng(4)
        tensors = [wt(rng.standard_normal(300), name="a", shape=(10, 30)),
                   wt(rng.standard_normal(64), name="b", shape=(4, 4, 4))]
        model = compress_model(tensors, 0.6, 4)
        restored = read_sdnc(write_sdnc(model))
        assert write_sdnc(restored) == write_sdnc(model)
        for a, b in zip(decode_model(model), decode_model(restored)):
            assert a.name == b.name and a.shape == b.shape
            assert np.array_equal(a.values, b.values)

    def test_long_zero_runs_need_fillers(self):
        values = np.zeros(100, dtype=np.float32)
        values[0] = 1.0
        values[99] = -2.0  # gap of 98 zeros with 4-bit fields
        qt = kmeans_quantize(wt(values), bits=1)
        model = encode([qt], rel_index_bits=4)
        assert model.records[0].record_count > 2  # fillers were emitted
        decoded = decode_model(read_sdnc(write_sdnc(model)))[0]
        assert np.array_equal(decoded.values, values)

    def test_gap_exactly_at_field_limit(self):
        for gap in (14, 15, 16, 17, 31, 32):
            values = np.zeros(gap + 2, dtype=np.float32)
            values[0] = 1.0
            values[gap + 1] = 2.0
            qt = kmeans_quantize(wt(values), bits=1)
            decoded = decode_model(encode([qt], rel_index_bits=4))[0]
            assert np.array_equal(decoded.values, values), f"gap {gap}"

    def test_all_zero_tensor_is_tiny(self):
        name = "layers.stack.weight"
        qt = kmeans_quantize(wt(np.zeros(100_000), name=name), bits=6)
        data = write_sdnc(encode([qt]))
        assert len(data) < 64 + len(name)
        decoded = decode_model(read_sdnc(data))[0]
        assert not decoded.values.any()

    def test_trailing_zeros_are_implicit(self):
        values = np.zeros(50, dtype=np.float32)
        values[3] = 7.0
        qt = kmeans_quantize(wt(values), bits=1)
        decoded = decode_model(encode([qt]))[0]
        assert np.array_equal(decoded.values, values)

    # entries are checked as written, in float32, where 1e-60 is zero
    @pytest.mark.parametrize("entry, shown", [
        (0.0, "0.0"), (-0.0, "-0.0"), (np.nan, "nan"), (np.inf, "inf"), (1e-60, "0.0"),
    ], ids=["zero", "negative_zero", "nan", "inf", "underflow"])
    def test_zero_or_non_finite_codebook_entry_is_refused(self, entry, shown):
        qt = kmeans_quantize(wt(np.arange(20) % 3), bits=2)
        codebook = qt.codebook.astype(np.float64)
        codebook[1] = entry
        qt = replace(qt, codebook=codebook)
        with pytest.raises(ValueError, match=re.escape(
                f"t: codebook entry 1 is {shown}, not a finite nonzero")):
            encode([qt])

    # kmeans_quantize keeps 13 of the 20 elements of 0..19 mod 3, at
    # positions 1, 2, 4, 5, ..., 17, 19, with codebook [1, 2]; each case
    # edits one column
    @pytest.mark.parametrize("field, edit, message", [
        ("positions", lambda c: np.r_[c[:-1], 20], "t: nonzero position out of range"),
        ("assignments", lambda c: np.r_[c[:-1], 2], "t: assignment out of codebook range"),
        ("assignments", lambda c: np.r_[c[:-1], -1], "t: assignment out of codebook range"),
        ("positions", lambda c: np.r_[5, 3, c[2:]],
         "t: nonzero positions not ascending: 5 then 3 at index 1"),
        ("positions", lambda c: np.r_[2, 2, c[2:]],
         "t: nonzero positions not ascending: 2 then 2 at index 1"),
        ("positions", lambda c: np.r_[c[:-2], 19, 17],
         "t: nonzero positions not ascending: 19 then 17 at index 12"),
        ("positions", lambda c: np.r_[-1, 4, c[2:]], "t: nonzero position -1 is negative"),
        # 5 - (-2**31) - 1 wraps in int32 to a gap of 2**31 - 6, and every
        # later gap is non-negative
        ("positions", lambda c: np.array([5, -2**31, -1, 3, *c[4:]], dtype=np.int32),
         "t: nonzero positions not ascending: 5 then -2147483648 at index 1"),
        ("positions", lambda c: np.r_[1.7, 4.2, c[2:]],
         "t: positions are float64, not integers within int64"),
        ("positions", lambda c: c.astype(bool),
         "t: positions are bool, not integers within int64"),
        ("positions", lambda c: c.astype(np.uint64),
         "t: positions are uint64, not integers within int64"),
        ("assignments", lambda c: np.r_[0.9, c[1:]],
         "t: assignments are float64, not integers within int64"),
        ("assignments", lambda c: c.astype(bool),
         "t: assignments are bool, not integers within int64"),
    ], ids=["position_past_the_end", "assignment_past_the_codebook", "negative_assignment",
            "positions_out_of_order", "repeated_position", "last_positions_out_of_order",
            "negative_position", "wrapped_gaps", "float_positions", "bool_positions",
            "uint64_positions", "float_assignment", "bool_assignments"])
    def test_out_of_range_nonzero_is_refused(self, field, edit, message):
        qt = kmeans_quantize(wt(np.arange(20) % 3), bits=1)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            encode([replace(qt, **{field: edit(getattr(qt, field))})])

    # the quantizer's int32 positions and int16 assignments, and every other
    # integer dtype that holds them, code alike; 3-bit gaps need fillers
    @pytest.mark.parametrize("positions", [np.int32, np.int64])
    @pytest.mark.parametrize("assignments", [np.uint8, np.int16, np.int32, np.int64])
    def test_any_integer_dtype_writes_the_same_bytes(self, positions, assignments):
        rng = np.random.default_rng(37)
        # 3,000-odd nonzeros spread evenly enough to fill all 256 slots
        qt = kmeans_quantize(wt(rng.uniform(1.0, 2.0, 20_000) * (rng.random(20_000) < 0.15)),
                             bits=8)
        assert qt.positions.dtype == np.int32 and qt.assignments.dtype == np.int16
        assert qt.assignments.max() == 255 and np.diff(qt.positions).max() > 8
        held = replace(qt, positions=qt.positions.astype(positions),
                       assignments=qt.assignments.astype(assignments))
        assert (write_sdnc(encode([held], rel_index_bits=3))
                == write_sdnc(encode([qt], rel_index_bits=3)))

    def test_rel_index_bits_range(self):
        qt = kmeans_quantize(wt([1.0]), bits=1)
        with pytest.raises(ValueError):
            encode([qt], rel_index_bits=0)
        with pytest.raises(ValueError):
            encode([qt], rel_index_bits=17)

    def test_random_round_trips(self):
        rng = np.random.default_rng(5)
        for i in range(30):
            n = int(rng.integers(1, 500))
            t = wt(rng.standard_normal(n) * rng.uniform(0.01, 10), name=f"r{i}")
            sparsity = float(rng.uniform(0, 0.95))
            bits = int(rng.integers(1, 9))
            pruned = prune_magnitude(t, sparsity)
            qt = kmeans_quantize(pruned, bits)
            decoded = decode_model(read_sdnc(write_sdnc(encode([qt]))))[0]
            assert np.array_equal(decoded.values, qt.dequantize().values)


class TestIntegrity:
    def make_container(self):
        rng = np.random.default_rng(6)
        return write_sdnc(compress_model([wt(rng.standard_normal(200))], 0.5, 4))

    def test_bad_magic(self):
        data = bytearray(self.make_container())
        data[0] ^= 0xFF
        with pytest.raises(CompressedFormatError, match="magic"):
            read_sdnc(bytes(data))

    def test_truncation(self):
        data = self.make_container()
        with pytest.raises(CompressedFormatError, match="offset"):
            read_sdnc(data[:len(data) // 2])

    def test_flipped_bytes_never_decode_silently(self):
        data = self.make_container()
        reference = decode_model(read_sdnc(data))[0]
        rng = np.random.default_rng(7)
        for offset in rng.choice(len(data), size=40, replace=False):
            corrupted = bytearray(data)
            corrupted[offset] ^= 0x55
            try:
                decoded = decode_model(read_sdnc(bytes(corrupted)))
            except CompressedFormatError:
                continue  # detected: fine
            # undetected decode must mean the flip was outside the record
            # payload (it never is: every body byte is checksummed)
            assert np.array_equal(decoded[0].values, reference.values), (
                f"silent corruption at offset {offset}")


class TestReport:
    def test_sizes_read_off_the_given_container(self):
        rng = np.random.default_rng(8)
        model = compress_model([wt(rng.standard_normal(300)), wt(rng.standard_normal(50))],
                               0.6, 5)
        container = write_sdnc(model)
        report = compression_report(1400, model, container)
        assert report == compression_report(1400, model)
        assert report.compressed_bytes == len(container)
        assert sum(r.compressed_bytes for r in report.rows) == len(container) - 12

    def test_another_models_container_is_refused(self):
        rng = np.random.default_rng(10)
        two = compress_model([wt(rng.standard_normal(300), "a"),
                              wt(rng.standard_normal(50), "b")], 0.6, 5)
        one = write_sdnc(compress_model([wt(rng.standard_normal(300), "a")], 0.6, 5))
        with pytest.raises(ValueError, match="container holds 1 frames, model has 2 records"):
            compression_report(1400, two, one)
        with pytest.raises(ValueError, match="container holds 2 frames, model has 0 records"):
            compression_report(0, encode([]), write_sdnc(two))

    def test_empty_model_ratio_is_undefined(self):
        report = compression_report(0, encode([]))
        assert report.ratio is None

    def test_arithmetic_oracle_quarter_density(self):
        # 10**6 weights at 25% nonzero, 6-bit codebook, 4-bit gaps:
        # every record costs 10 bits before entropy coding, so the payload
        # alone pins the ratio near 4 MB / 312.5 KB = 12.8; Huffman and the
        # skewed gap distribution only improve on that
        rng = np.random.default_rng(8)
        t = wt(rng.standard_normal(1_000_000))
        pruned = prune_magnitude(t, 0.75)
        qt = kmeans_quantize(pruned, bits=6)
        model = encode([qt], rel_index_bits=4)
        rec = model.records[0]
        nnz = 250_000
        assert rec.nonzero_count == nnz
        assert nnz <= rec.record_count <= int(nnz * 1.05)  # few filler records
        pre_huffman_bits = rec.record_count * (6 + 4)
        assert pre_huffman_bits == pytest.approx(2_500_000, rel=0.05)
        dense = 4_000_000
        assert dense / (pre_huffman_bits / 8) == pytest.approx(12.8, rel=0.05)
        report = compression_report(dense, model)
        assert report.ratio >= 12.8 * 0.95

    def test_ratio_strictly_increases_with_sparsity(self):
        rng = np.random.default_rng(9)
        tensors = [wt(rng.standard_normal(20_000))]
        dense = 4 * 20_000
        ratios = [compression_report(dense, compress_model(tensors, s, 6)).ratio
                  for s in (0.5, 0.7, 0.9)]
        assert ratios[0] < ratios[1] < ratios[2]


def huffman_encode_reference(symbols, lengths):
    """The array-of-bits encoder: every code spread into one uint8 per
    output bit, packed once; returns (payload bytes, exact bit count)."""
    symbols = np.asarray(symbols)
    if symbols.size == 0:
        return b"", 0
    huffman.check_lengths(lengths)
    if symbols.min() < 0:
        raise ValueError(f"symbol {int(symbols.min())} has no code")
    codes = huffman.canonical_codes(lengths)
    code_of = np.zeros(max(max(codes), int(symbols.max())) + 1, dtype=np.uint64)
    len_of = np.zeros(code_of.size, dtype=np.int64)
    for sym, (code, length) in codes.items():
        code_of[sym], len_of[sym] = code, length
    n = len_of[symbols]
    if not n.all():
        raise ValueError(f"symbol {int(symbols[n == 0][0])} has no code")
    ends = np.cumsum(n)
    # the bit at stream position t inside a code ending at e is bit e-1-t
    shift = (np.repeat(ends - 1, n) - np.arange(ends[-1])).astype(np.uint64)
    bits = (np.repeat(code_of[symbols], n) >> shift) & np.uint64(1)
    return np.packbits(bits.astype(np.uint8)).tobytes(), int(ends[-1])


def encode_outcome(encoder, symbols, lengths):
    try:
        return encoder(symbols, lengths)
    except ValueError as exc:
        return str(exc)


# lengths 1..k-1 plus two k-bit codes: a complete code whose longest code
# is k bits
def staircase(k):
    return {sym: sym + 1 for sym in range(k - 1)} | {k - 1: k, k: k}


class TestEncodeMatchesTheBitArrayReference:
    """``huffman.encode`` against the array-of-bits encoder."""

    @staticmethod
    def assert_same(symbols, lengths):
        want = encode_outcome(huffman_encode_reference, symbols, lengths)
        assert encode_outcome(huffman.encode, symbols, lengths) == want
        return want

    def test_random_prefix_codes(self):
        rng = np.random.default_rng(15)
        longest, odd, multi_word = set(), 0, 0
        for _ in range(300):
            lengths = properties.random_code_lengths(rng)
            symbols = rng.choice(list(lengths), size=int(rng.integers(0, 700)))
            _, bits = self.assert_same(symbols, lengths)
            longest.add(max(lengths.values()) > 32)
            odd += symbols.size % 2
            multi_word += bits > 64
        # codes shorter and longer than half a word
        assert len(longest) == 2 and odd and multi_word

    @pytest.mark.parametrize("lengths, symbols", [
        ({5: 1}, [5] * 77),
        ({0: 1, 1: 1}, []),
        ({}, []),
        (staircase(57), list(range(58)) * 3 + [57, 56, 57]),
        (staircase(28), list(range(29)) * 5 + [28]),
        (staircase(29), list(range(30)) * 5),
        ({sym: 8 for sym in range(256)}, list(range(256)) * 2 + [255]),
        ({sym: 9 for sym in range(300)}, list(range(300))[::-1] * 2 + [7]),
        ({0: 1, 1: 3, 2: 3}, [0, 1, 2] * 71),
        ({3: 7, 9: 7}, [3, 9] * 64 + [3]),
        ({0: 1, 1: 2, 2: 2}, np.array([2, 0, 1, 2] * 33, dtype=np.uint64)),
        ({0: 1, 1: 2, 2: 2}, np.array([2, 0, 1, 2] * 33, dtype=np.uint16)),
    ], ids=["one_symbol_odd", "empty_input", "empty_input_empty_table", "57_bit_codes",
            "28_bit_codes", "29_bit_codes", "byte_aligned_256",
            "alphabet_past_256", "incomplete_odd", "7_bit_codes_cross_words",
            "uint64_symbols", "uint16_symbols"])
    def test_edge_cases(self, lengths, symbols):
        self.assert_same(symbols, lengths)

    def test_bool_symbols_code_as_zero_and_one(self):
        lengths = {0: 1, 1: 2, 2: 2}
        assert (huffman.encode(np.array([True, False, True, True]), lengths)
                == huffman.encode([1, 0, 1, 1], lengths))

    @pytest.mark.parametrize("symbols, message", [
        ([1, -2, 0, 5], "symbol -2 has no code"),
        ([0, 2, 1, 3, 5], "symbol 1 has no code"),
        ([0, 2, 0, 1], "symbol 1 has no code"),
        ([0, 2, 3, 0, 1], "symbol 1 has no code"),
        ([0, 2, 9, 2], "symbol 9 has no code"),
    ], ids=["negative", "first_missing_in_stream", "missing_second",
            "missing_last", "missing_past_the_table"])
    def test_a_symbol_without_a_code_is_named(self, symbols, message):
        lengths = {0: 1, 2: 2, 3: 2}
        assert self.assert_same(symbols, lengths) == message

    @pytest.mark.parametrize("symbols, message", [
        ([0, 2**40], "symbol 1099511627776 has no code"),
        ([0, 1, 2**40], "symbol 1 has no code"),
        (np.array([0, 2**63], dtype=np.uint64), "symbol 9223372036854775808 has no code"),
    ], ids=["far_past_the_table", "first_missing_before_it", "past_intp"])
    def test_a_symbol_far_past_the_table_is_named_without_allocating(self, symbols, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            huffman.encode(symbols, {0: 1, 2: 2, 3: 2})


def code_lengths_reference(symbols):
    """The list-merging Huffman lengths: every heap entry carries its
    subtree's symbols, and a merge lengthens each of them by one bit."""
    symbols = np.asarray(symbols)
    if symbols.size == 0:
        return {}
    counts = np.bincount(symbols.ravel())
    present = np.flatnonzero(counts)
    freqs = dict(zip(present.tolist(), counts[present].tolist()))
    if len(freqs) == 1:
        return {next(iter(freqs)): 1}
    heap = [(w, sym, [sym]) for sym, w in freqs.items()]
    heapq.heapify(heap)
    lengths = {sym: 0 for sym in freqs}
    while len(heap) > 1:
        w1, t1, syms1 = heapq.heappop(heap)
        w2, t2, syms2 = heapq.heappop(heap)
        for s in syms1 + syms2:
            lengths[s] += 1
        heapq.heappush(heap, (w1 + w2, min(t1, t2), syms1 + syms2))
    return lengths


class TestCodeLengthsMatchTheListMergingReference:
    @staticmethod
    def draws(rng, count):
        """Seeded symbol arrays: uniform, geometric and tied weights over
        alphabets of 1 to 300 symbols, as uint8, uint16 or int64."""
        for i in range(count):
            n = int(rng.integers(1, 400))
            kind = i % 4
            if kind == 0:
                symbols = rng.integers(0, int(rng.integers(1, 256)), size=n)
            elif kind == 1:
                symbols = np.minimum(rng.geometric(rng.uniform(0.05, 0.9), size=n) - 1, 299)
            elif kind == 2:
                # each symbol repeated one of a few counts: weights tie,
                # and merged subtrees tie with leaves
                alphabet = rng.permutation(int(rng.integers(1, 300)))[:int(rng.integers(1, 40))]
                symbols = rng.permutation(np.repeat(alphabet, rng.choice([1, 2, 4], alphabet.size)))
            else:
                # one- and two-symbol alphabets
                symbols = rng.choice(rng.integers(0, 300, size=2)[:1 + i % 8 // 4], size=n)
            dtype = (np.uint8, np.uint16, np.int64)[i % 3]
            if symbols.max() > np.iinfo(dtype).max:
                dtype = np.uint16
            yield symbols.astype(dtype)

    def test_seeded_draws(self):
        rng = np.random.default_rng(46)
        sizes = set()
        for symbols in self.draws(rng, 3200):
            expected = code_lengths_reference(symbols)
            assert huffman.code_lengths(symbols) == expected, symbols
            sizes.add(len(expected))
        assert {1, 2} <= sizes and max(sizes) > 150

    def test_streams_counted_over_several_slices(self):
        # symbols first seen in a later slice, and a count that spans slices
        rng = np.random.default_rng(35)
        size = huffman._COUNT_SLICE
        for dtype, high in ((np.uint8, 256), (np.uint16, 3000), (np.int64, 70000)):
            symbols = np.concatenate([rng.integers(0, 5, size), [high - 1],
                                      rng.integers(0, high, 2 * size + 7)]).astype(dtype)
            assert huffman.code_lengths(symbols) == code_lengths_reference(symbols), dtype

    def test_counting_never_widens_the_whole_stream(self):
        # np.bincount of the whole uint16 stream would copy it to intp: 4x its bytes
        symbols = np.random.default_rng(36).integers(0, 1000, 4_000_000).astype(np.uint16)
        tracemalloc.start()
        try:
            lengths = huffman.code_lengths(symbols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(lengths) == 1000
        assert peak < symbols.nbytes / 4, (peak, symbols.nbytes)

    def test_both_streams_of_a_squeezenet_size_model(self):
        tensors = refexec.random_weights(zoo.squeezenet(), np.random.default_rng(47))
        assert sum(t.size for t in tensors) == 1_248_424
        quantized = quantize_model((prune_magnitude(t, 0.7) for t in tensors), 6)
        for qt in quantized:
            for stream in compress._gap_index_symbols(qt, 4):
                assert huffman.code_lengths(stream) == code_lengths_reference(stream), qt.name


class TestHuffman:
    def test_uniform_distribution_gains_nothing(self):
        symbols = list(range(64)) * 10
        lengths = huffman.code_lengths(symbols)
        assert sum(lengths[s] for s in symbols) == len(symbols) * 6

    def test_skewed_distribution_strictly_shrinks(self):
        symbols = [0] * 1000 + list(range(1, 64)) * 10
        lengths = huffman.code_lengths(symbols)
        assert sum(lengths[s] for s in symbols) < len(symbols) * 6

    def test_never_beats_fixed_width_plus_table(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            alphabet = int(rng.integers(1, 70))
            n = int(rng.integers(1, 1500))
            probs = rng.random(alphabet) ** rng.uniform(0.3, 5)
            probs /= probs.sum()
            symbols = rng.choice(alphabet, size=n, p=probs).tolist()
            lengths = huffman.code_lengths(symbols)
            fixed = n * max(1, (alphabet - 1).bit_length())
            assert sum(lengths[s] for s in symbols) <= fixed + alphabet * 8

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        symbols = rng.integers(0, 17, size=500).tolist()
        lengths = huffman.code_lengths(symbols)
        payload, bits = huffman.encode(symbols, lengths)
        assert huffman.decode(payload, bits, lengths, len(symbols)).tolist() == symbols

    def test_empty_table_names_the_first_symbol(self):
        with pytest.raises(ValueError, match=r"^symbol 3 has no code$"):
            huffman.encode([3, 1], {})

    def test_single_symbol_alphabet(self):
        symbols = [5] * 20
        lengths = huffman.code_lengths(symbols)
        assert lengths == {5: 1}
        payload, bits = huffman.encode(symbols, lengths)
        assert bits == 20
        assert huffman.decode(payload, bits, lengths, 20).tolist() == symbols

    def test_complete_table_with_40_bit_codes_round_trips(self):
        # lengths 1..39 plus two 40-bit codes: the Kraft sum is exactly 1
        lengths = {sym: sym + 1 for sym in range(39)} | {39: 40, 40: 40}
        symbols = np.random.default_rng(12).integers(0, 41, size=5000).tolist()
        payload, bits = huffman.encode(symbols, lengths)
        assert bits > 3 * 32768  # codes straddle several decode chunks
        assert huffman.decode(payload, bits, lengths, len(symbols)).tolist() == symbols

    def test_long_skewed_stream_round_trips_across_chunks(self):
        rng = np.random.default_rng(13)
        symbols = np.minimum(rng.geometric(0.3, size=200_000), 40).astype(np.uint16)
        lengths = huffman.code_lengths(symbols)
        payload, bits = huffman.encode(symbols, lengths)
        assert bits == sum(lengths[s] for s in symbols.tolist())
        assert np.array_equal(huffman.decode(payload, bits, lengths, symbols.size), symbols)

    @pytest.mark.parametrize("lengths, message", [
        ({0: 1, 1: 1, 2: 1}, "over-subscribe the Kraft sum"),
        ({0: 1, 1: 58}, "code lengths must be in 1..57"),
        ({0: 0, 1: 1}, "code lengths must be in 1..57"),
    ], ids=["over_subscribed", "past_window", "zero_length"])
    def test_undecodable_length_table_is_refused(self, lengths, message):
        with pytest.raises(ValueError, match=message):
            huffman.decode(b"\x00" * 8, 64, lengths, 3)
        with pytest.raises(ValueError, match=message):
            huffman.encode([0, 1], lengths)

    @staticmethod
    def pack(bits: str) -> bytes:
        return np.packbits(np.array([int(b) for b in bits], dtype=np.uint8)).tobytes()

    def test_multi_chunk_streams_match_the_per_bit_reference(self, monkeypatch):
        monkeypatch.setattr(huffman, "_CHUNK_BITS", 64)
        rng = np.random.default_rng(14)
        for _ in range(60):
            lengths = properties.random_code_lengths(rng)
            symbols = rng.choice(list(lengths), size=int(rng.integers(20, 200))).tolist()
            payload, bits = huffman.encode(symbols, lengths)
            flipped = bytearray(payload)
            flipped[int(rng.integers(len(payload)))] ^= int(rng.integers(1, 256))
            for data, bit_count, count in [(payload, bits, len(symbols)),
                                           (payload, bits, len(symbols) // 2),
                                           (payload, bits - 1, len(symbols)),
                                           (bytes(flipped), bits, len(symbols))]:
                try:
                    want = properties.huffman_decode_reference(data, bit_count, lengths, count)
                except ValueError:
                    with pytest.raises(ValueError):
                        huffman.decode(data, bit_count, lengths, count)
                else:
                    assert huffman.decode(data, bit_count, lengths, count).tolist() == want

    # {0: 1, 1: 3, 2: 3} is 0, 100, 101: a word starting 11 is invalid. 45
    # symbols (0, 1, 2) * 15 take 105 bits: 28 in the first 64-bit chunk,
    # then 17 (not a multiple of 8) in the second
    SHORT_CODE = {0: 1, 1: 3, 2: 3}
    SHORT_STREAM = "0100101" * 15

    def test_invalid_code_word_inside_a_hop_past_the_first_chunk(self, monkeypatch):
        monkeypatch.setattr(huffman, "_CHUNK_BITS", 64)
        data = self.pack(self.SHORT_STREAM + "110")
        with pytest.raises(ValueError, match=r"^invalid code word at bit 105$"):
            huffman.decode(data, 108, self.SHORT_CODE, 46)
        # the last window reaches past the bit count: exhausted, not invalid
        with pytest.raises(ValueError, match=r"^bit stream exhausted$"):
            huffman.decode(data, 107, self.SHORT_CODE, 46)
        # the count is reached just before the invalid code word
        assert huffman.decode(data, 108, self.SHORT_CODE, 45).tolist() == [0, 1, 2] * 15

    def test_last_code_past_the_bit_count_is_exhausted(self, monkeypatch):
        monkeypatch.setattr(huffman, "_CHUNK_BITS", 64)
        data = self.pack(self.SHORT_STREAM)
        with pytest.raises(ValueError, match=r"^bit stream exhausted$"):
            huffman.decode(data, 104, self.SHORT_CODE, 45)
        assert huffman.decode(data, 104, self.SHORT_CODE, 44).tolist() == [0, 1, 2] * 14 + [0, 1]

    def test_codes_longer_than_the_table(self, monkeypatch):
        # lengths 1..39 and one 40-bit code (1 x 39, 0): the all-ones 40-bit
        # word is invalid
        monkeypatch.setattr(huffman, "_CHUNK_BITS", 64)
        lengths = {sym: sym + 1 for sym in range(39)} | {39: 40}
        stream = "1" * 13 + "0" + "1" * 39 + "0" + "0" * 20 + "1" * 40 + "0"
        data = self.pack(stream)
        with pytest.raises(ValueError, match=r"^invalid code word at bit 74$"):
            huffman.decode(data, len(stream), lengths, 23)
        assert huffman.decode(data, len(stream), lengths, 22).tolist() == [13, 39] + [0] * 20
        with pytest.raises(ValueError, match=r"^bit stream exhausted$"):
            huffman.decode(data, 52, lengths, 2)

    def test_decode_matches_the_per_bit_reference_on_bad_streams(self):
        lengths = {0: 1, 1: 3, 2: 3}  # incomplete: prefix 11 is no code word
        for data, bits, count in [(b"\x20", 3, 3), (b"\xc0", 8, 1), (b"\x00", 8, 9),
                                  (b"\x40", 3, 2), (b"", 0, 1)]:
            with pytest.raises(ValueError):
                properties.huffman_decode_reference(data, bits, lengths, count)
            with pytest.raises(ValueError):
                huffman.decode(data, bits, lengths, count)

    @staticmethod
    def long_code_lengths(symbols: np.ndarray, alphabet: int) -> dict[int, int]:
        """A prefix code whose most frequent symbol takes an 18-bit code and
        the others 1, 2, ... bits by falling frequency (Kraft sum below 1)."""
        ranked = np.argsort(-np.bincount(symbols, minlength=alphabet), kind="stable")
        return {int(ranked[0]): 18} | {int(sym): n for n, sym in enumerate(ranked[1:], 1)}

    def test_container_streams_match_the_per_bit_reference_on_both_sides_of_the_table(self):
        # every stream of a multi-tensor SDNC, decoded intact and one bit
        # short; a stream whose longest code fits the 12-bit table skips the
        # full-width search, one with an 18-bit code needs it
        rng = np.random.default_rng(16)
        tensors = [wt(rng.standard_normal(n) * rng.uniform(0.1, 3), f"t{i}")
                   for i, n in enumerate((700, 3000, 9000, 24000))]
        model = compress_model(tensors, 0.6, 4, rel_index_bits=4)
        records = list(model.records)
        for i in (1, 3):
            gaps = huffman.decode(records[i].gap_payload, records[i].gap_bits,
                                  records[i].gap_lengths, records[i].record_count)
            lengths = self.long_code_lengths(gaps, 1 << 4)
            payload, bits = huffman.encode(gaps, lengths)
            records[i] = replace(records[i], gap_lengths=lengths, gap_payload=payload,
                                 gap_bits=bits)
        model = read_sdnc(write_sdnc(compress.CompressedModel(tuple(records))))
        widths = set()
        for rec in model.records:
            for data, bits, lengths in ((rec.gap_payload, rec.gap_bits, rec.gap_lengths),
                                        (rec.index_payload, rec.index_bits,
                                         rec.index_lengths)):
                width = max(lengths.values())
                widths.add(width > huffman._TABLE_BITS)
                want = properties.huffman_decode_reference(data, bits, lengths,
                                                           rec.record_count)
                got = huffman.decode(data, bits, lengths, rec.record_count)
                assert got.tolist() == want, (rec.name, width)
                for cut_bits, count in ((bits - 1, rec.record_count),
                                        (bits, rec.record_count + 1)):
                    with pytest.raises(ValueError) as reference:
                        properties.huffman_decode_reference(data, cut_bits, lengths, count)
                    with pytest.raises(ValueError) as table:
                        huffman.decode(data, cut_bits, lengths, count)
                    assert str(table.value) == str(reference.value) == "bit stream exhausted"
        assert widths == {False, True}


class TestSdnw:
    def test_round_trip(self):
        rng = np.random.default_rng(12)
        tensors = [WeightTensor("conv1.weight", (4, 3, 3, 3),
                                rng.standard_normal(108).astype(np.float32)),
                   WeightTensor("conv1.bias", (4,),
                                rng.standard_normal(4).astype(np.float32))]
        restored = read_sdnw(write_sdnw(tensors))
        assert [t.name for t in restored] == ["conv1.weight", "conv1.bias"]
        for a, b in zip(tensors, restored):
            assert a.shape == b.shape
            assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("dim", [2.7, 2.0, True, "2", None, 0, -2, np.int64(0)],
                             ids=["fraction", "float", "bool", "string", "none", "zero",
                                  "negative", "numpy_zero"])
    def test_a_dimension_that_is_not_a_positive_integer_is_refused_naming_the_tensor(self, dim):
        with pytest.raises(ValueError) as exc:
            WeightTensor("conv1.weight", (dim, 2), np.zeros(4, dtype=np.float32))
        assert str(exc.value) == (
            f"conv1.weight: dimensions must be positive integers, got {(dim, 2)}")

    def test_numpy_integer_dimensions_are_stored_as_python_ints(self):
        t = WeightTensor("w", (np.int64(2), np.uint8(3)), np.zeros(6, dtype=np.float32))
        assert t.shape == (2, 3) and all(type(d) is int for d in t.shape)
        assert read_sdnw(write_sdnw([t]))[0].shape == (2, 3)

    def test_bad_magic(self):
        with pytest.raises(WeightFormatError, match="magic"):
            read_sdnw(b"NOPE" + bytes(8))

    def test_truncation_reports_offset(self):
        data = write_sdnw([WeightTensor("w", (4,), np.zeros(4, dtype=np.float32))])
        with pytest.raises(WeightFormatError, match="offset"):
            read_sdnw(data[:-3])

    def test_trailing_bytes_rejected(self):
        data = write_sdnw([WeightTensor("w", (4,), np.zeros(4, dtype=np.float32))])
        with pytest.raises(WeightFormatError, match="trailing"):
            read_sdnw(data + b"\x00")

    def test_save_writes_exactly_the_serialized_bytes(self, tmp_path):
        rng = np.random.default_rng(17)
        tensors = [WeightTensor("conv1.weight", (4, 3, 3, 3), rng.standard_normal(108)),
                   WeightTensor("fc.b\u00efas", (5,), np.arange(5, dtype=np.float32)[::-1])]
        for chosen in ([], tensors[:1], tensors):
            save_sdnw(chosen, tmp_path / "w.sdnw")
            assert (tmp_path / "w.sdnw").read_bytes() == write_sdnw(chosen)


class TestContainerRobustness:
    """Both containers share one layout reader, so each malformed input
    raises the container's own error class naming the offset."""

    FORMATS = {"SDNW": (read_sdnw, WeightFormatError), "SDNC": (read_sdnc, CompressedFormatError)}

    @staticmethod
    def two_tensor_container(fmt):
        rng = np.random.default_rng(13)
        tensors = [wt(rng.standard_normal(6), "t0", (2, 3)), wt(rng.standard_normal(4), "t1")]
        if fmt == "SDNW":
            return write_sdnw(tensors)
        return write_sdnc(compress_model(tensors, 0.0, 2))

    @staticmethod
    def patch_first_header(data, fmt, offset, new):
        """Overwrite bytes at ``offset`` into the first tensor header; an
        SDNC frame gets its CRC recomputed, so only the header is wrong."""
        out = bytearray(data)
        start = 12 if fmt == "SDNW" else 16  # SDNC: after the u32 body length
        out[start + offset:start + offset + len(new)] = new
        if fmt == "SDNC":
            (body_len,) = struct.unpack_from("<I", out, 12)
            struct.pack_into("<I", out, 16 + body_len, zlib.crc32(out[16:16 + body_len]))
        return bytes(out)

    def bad_inputs(self, fmt, kind):
        data = self.two_tensor_container(fmt)
        return {
            "wrong_magic": [b"XXXX" + data[4:]],
            "wrong_version": [data[:4] + struct.pack("<I", 2) + data[8:]],
            "truncated": [data[:n] for n in range(len(data))],
            "trailing_byte": [data + b"\x00"],
            # name length u16, name "t0", rank u8, first dim u32
            "non_utf8_name": [self.patch_first_header(data, fmt, 2, b"\xff\xfe")],
            "zero_dimension": [self.patch_first_header(data, fmt, 5, bytes(4))],
        }[kind]

    MESSAGES = {
        "wrong_magic": "bad magic b'XXXX' at offset 0",
        "wrong_version": "unsupported version 2 at offset 4",
        "truncated": "truncated",
        "trailing_byte": "1 trailing bytes",
        "non_utf8_name": "tensor name is not UTF-8",
        "zero_dimension": "tensor 't0' has a zero dimension in shape (0, 3)",
    }

    @pytest.mark.parametrize("kind", list(MESSAGES))
    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    def test_malformed_container_raises_its_own_error(self, fmt, kind):
        read, error = self.FORMATS[fmt]
        for data in self.bad_inputs(fmt, kind):
            with pytest.raises(error) as info:
                read(data)
            text = str(info.value)
            assert type(info.value) is error
            assert text.startswith(f"{fmt}: ") and self.MESSAGES[kind] in text, text
            assert re.search(r"at offset \d+$", text), text


class TestChecksumAwareMutation:
    """Seeded mutation of whole containers. An SDNC mutant changes 1-3 bytes
    of one frame body and then recomputes that frame's CRC32, so it reaches
    the parser and the decoder behind the checksum; an SDNW mutant changes
    1-3 bytes anywhere. Each must read or raise its container's format
    error, never another exception."""

    SEED = 2010

    @staticmethod
    def tensors():
        rng = np.random.default_rng(14)
        return [wt(rng.standard_normal(216), "conv1.weight", (8, 3, 3, 3)),
                wt(rng.standard_normal(40), "fc.weight", (4, 10))]

    @staticmethod
    def frames(data):
        """(body start, body length) of every SDNC frame."""
        spans, pos = [], 12
        while pos < len(data):
            (body_len,) = struct.unpack_from("<I", data, pos)
            spans.append((pos + 4, body_len))
            pos += 4 + body_len + 4
        return spans

    @staticmethod
    def mutate(data, rng, lo, hi):
        """Change 1-3 distinct bytes of ``data[lo:hi]``; returns the mutant
        and the changed offsets."""
        out = bytearray(data)
        offsets = sorted(int(o) for o in rng.choice(np.arange(lo, hi), size=rng.integers(1, 4),
                                                    replace=False))
        for o in offsets:
            out[o] ^= int(rng.integers(1, 256))
        return out, offsets

    def sdnc_mutants(self, data, count, rng, skip_header=False):
        """``count`` SDNC mutants with each mutated frame's CRC recomputed.
        ``skip_header`` leaves the tensor header (name and shape) alone."""
        headers = [len(t.name) + 3 + 4 * len(t.shape) for t in self.tensors()]
        spans = self.frames(data)
        for _ in range(count):
            frame = int(rng.integers(len(spans)))
            start, body_len = spans[frame]
            lo = start + headers[frame] if skip_header else start
            out, offsets = self.mutate(data, rng, lo, start + body_len)
            struct.pack_into("<I", out, start + body_len,
                             zlib.crc32(out[start:start + body_len]))
            yield bytes(out), offsets

    def test_sdnc_mutants_decode_or_raise_the_format_error(self):
        data = write_sdnc(compress_model(self.tensors(), 0.7, 3, rel_index_bits=2))
        escapes = []
        for mutant, offsets in self.sdnc_mutants(data, 2000, np.random.default_rng(self.SEED)):
            try:
                decode_model(read_sdnc(mutant))
            except CompressedFormatError:
                pass
            except Exception as exc:  # noqa: BLE001 - any other exception is the finding
                escapes.append(f"offsets {offsets}: {type(exc).__name__}: {exc}")
        assert not escapes, f"seed {self.SEED}: {len(escapes)} escapes, first: {escapes[:3]}"

    def test_sdnw_mutants_read_or_raise_the_format_error(self):
        data = write_sdnw(self.tensors())
        rng = np.random.default_rng(self.SEED)
        escapes = []
        for _ in range(2000):
            mutant, offsets = self.mutate(data, rng, 0, len(data))
            try:
                read_sdnw(bytes(mutant))
            except WeightFormatError:
                pass
            except Exception as exc:  # noqa: BLE001 - any other exception is the finding
                escapes.append(f"offsets {offsets}: {type(exc).__name__}: {exc}")
        assert not escapes, f"seed {self.SEED}: {len(escapes)} escapes, first: {escapes[:3]}"

    def test_decompress_exits_0_or_3_on_mutants(self, tmp_path, capsys):
        # the tensor header is left alone: a changed dimension byte makes a
        # valid tensor of up to gigabytes, which decompress would write out
        data = write_sdnc(compress_model(self.tensors(), 0.7, 3, rel_index_bits=2))
        sdnc, out = tmp_path / "m.sdnc", tmp_path / "m.sdnw"
        codes = []
        for mutant, offsets in self.sdnc_mutants(data, 20, np.random.default_rng(self.SEED + 1),
                                                 skip_header=True):
            sdnc.write_bytes(mutant)
            code = main(["decompress", "--in", str(sdnc), "--out", str(out)])
            assert code in (0, 3), f"seed {self.SEED + 1}, offsets {offsets}: exit {code}"
            codes.append(code)
        capsys.readouterr()
        assert 3 in codes
