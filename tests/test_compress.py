import re
import struct
import zlib

import numpy as np
import pytest

from convdse import huffman, properties
from convdse.cli import main
from convdse.compress import (CompressedFormatError, compress_model, compression_report,
                              decode_model, encode, kmeans_quantize, prune_magnitude,
                              quantization_mse, read_sdnc, write_sdnc)
from convdse.weights import (WeightFormatError, WeightTensor, read_sdnw, write_sdnw)


def wt(values, name="t", shape=None):
    values = np.asarray(values, dtype=np.float32)
    return WeightTensor(name, shape or (values.size,), values)


def prune_reference(tensor, target_sparsity):
    """Stable-argsort pruning: the floor(s * N) smallest magnitudes go,
    ties lowest flat index first."""
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


def assert_matches_reference(t, sparsity, bits):
    pruned = prune_magnitude(t, sparsity)
    expected = prune_reference(t, sparsity)
    assert np.array_equal(pruned.values, expected) and pruned.values.dtype == expected.dtype
    qt = kmeans_quantize(pruned, bits)
    codebook, positions, assignments = kmeans_reference(pruned, bits)
    assert np.array_equal(qt.codebook, codebook) and qt.codebook.dtype == codebook.dtype
    assert np.array_equal(qt.positions, positions)
    assert np.array_equal(qt.assignments, assignments)


def equivalence_cases():
    """(values, sparsity, bits): seeded tensors plus the edge cases of
    pruning ties and k-means midpoints."""
    rng = np.random.default_rng(40)
    normal = rng.standard_normal(5000)
    halves = rng.integers(-6, 7, size=3000) / 2.0  # many ties at every magnitude
    zeros_run = normal.copy()
    zeros_run[:2000] = 0.0  # the 30% cut lies inside this run of zeros
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
        "all_zero": (np.zeros(10), 0.4, 3),
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

    def test_sparsity_range(self):
        with pytest.raises(ValueError):
            prune_magnitude(wt([1.0]), 1.0)
        with pytest.raises(ValueError):
            prune_magnitude(wt([1.0]), -0.1)


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


class TestHuffman:
    def test_uniform_distribution_gains_nothing(self):
        symbols = list(range(64)) * 10
        lengths = huffman.code_lengths(symbols)
        assert huffman.encoded_bits(symbols, lengths) == len(symbols) * 6

    def test_skewed_distribution_strictly_shrinks(self):
        symbols = [0] * 1000 + list(range(1, 64)) * 10
        lengths = huffman.code_lengths(symbols)
        assert huffman.encoded_bits(symbols, lengths) < len(symbols) * 6

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
            assert huffman.encoded_bits(symbols, lengths) <= fixed + alphabet * 8

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        symbols = rng.integers(0, 17, size=500).tolist()
        lengths = huffman.code_lengths(symbols)
        payload, bits = huffman.encode(symbols, lengths)
        assert huffman.decode(payload, bits, lengths, len(symbols)).tolist() == symbols

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
        assert bits == huffman.encoded_bits(symbols.tolist(), lengths)
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
