"""Golden SDNC bytes and decoded values for small seeded tensors.

Any change to the codec must reproduce these containers byte for byte and
decode them to the same values. The cases cover filler records at three gap
widths, a one-symbol alphabet, an all-zero tensor and the narrowest and
widest codebooks. One SqueezeNet-size model pins the bytes of large
tensors and long Lloyd runs.
"""

import hashlib

import numpy as np
import pytest

from convdse import refexec, zoo
from convdse.compress import compress_model, decode_model, read_sdnc, write_sdnc
from convdse.weights import WeightTensor


def _sparse(n, positions, seed):
    values = np.zeros(n, dtype=np.float32)
    values[positions] = np.random.default_rng(seed).uniform(0.5, 2.0, len(positions))
    return values


def _random(n, seed):
    return np.random.default_rng(seed).standard_normal(n).astype(np.float32)


# id -> (values, shape, sparsity, bits, rel_index_bits)
CASES = {
    "sparse_gap1": (_sparse(600, [0, 7, 8, 90, 333, 599], 1), (20, 30), 0.0, 3, 1),
    "sparse_gap4": (_sparse(5000, [17, 18, 400, 401, 2222, 4999], 2), (5000,), 0.0, 2, 4),
    "sparse_gap16": (_sparse(140_010, [3, 70_000, 140_001, 140_009], 3), (140_010,),
                     0.0, 2, 16),
    "single_symbol": (np.full(48, 0.75, dtype=np.float32), (4, 12), 0.0, 4, 4),
    "all_zero": (np.zeros(64, dtype=np.float32), (8, 8), 0.0, 4, 4),
    "bits1": (_random(3000, 4), (10, 300), 0.6, 1, 4),
    "bits8": (_random(3000, 5), (3, 10, 10, 10), 0.5, 8, 5),
}

# id -> (sdnc sha256, sdnc length, decoded float32 values sha256, records, nonzeros)
GOLDEN = {
    "all_zero": ("64465afed3e486efb0cadae76db7e96be7ff769e59a9e9773112a2fe842ea41a", 58,
                 "5341e6b2646979a70e57653007a1f310169421ec9bdd9f1a5648f75ade005af1", 0, 0),
    "bits1": ("be620619e4c6c55cd35f7eda700971e060a4bcd843e7aad7a92d80c65f2e7bf7", 620,
              "ea6f9b546151b6a9ca9a76225cc02fd74f0c992c2401d87ef64adb3a2444bfb4", 1200, 1200),
    "bits8": ("f21cc3d25d52bcfd2ca442d541a0560b73b812fc6df16f8d74794f29ac395e9d", 2559,
              "2fce3abec62cfa5f82370c9c2123651569c844a05064a7d5ec172f2708981fb8", 1500, 1500),
    "single_symbol": ("f6be5735605f692a916c9c1840e3d27bfd7c27047a382b59eae94b7664bd1ceb", 113,
                      "bc1729ab5cc14f00331f540f4361a46a89a6944651017d7bdf6a9864acdca941",
                      48, 48),
    "sparse_gap1": ("d1963931ab0526aa441f6c72dbec3a735bb593fbb4a5f6adfce86bca20cf74e8", 183,
                    "59421b4614d3c52840ff2cd18a7cd280a42d2674af46cc67de3eea87a6c87f0a",
                    302, 6),
    "sparse_gap16": ("232d084397b41fb0b6a6456cc209f44342b667adf910c62050e37f696ac11bfd", 65635,
                     "aef240e3ec23740c0dfed374e8ce2c8a56bac3690e6a65ed56a794e16f194faa",
                     6, 4),
    "sparse_gap4": ("582464ff33a1251d346e4d70d3ad0e54ee75c77b08415d31bf8a598234385b67", 193,
                    "ede62e8324fd894787f9afe938270ca672ee0e67ad11fdfb4e08cf9a8bfb0b95",
                    316, 6),
}


def _compress(case):
    values, shape, sparsity, bits, rel_index_bits = CASES[case]
    tensor = WeightTensor(case, shape, values)
    return compress_model([tensor], sparsity, bits, rel_index_bits)


@pytest.mark.parametrize("case", sorted(CASES))
def test_container_bytes_and_decoded_values_are_pinned(case):
    container = write_sdnc(_compress(case))
    model = read_sdnc(container)
    decoded = decode_model(model)[0]
    rec = model.records[0]
    got = (hashlib.sha256(container).hexdigest(), len(container),
           hashlib.sha256(decoded.values.tobytes()).hexdigest(),
           rec.record_count, rec.nonzero_count)
    assert got == GOLDEN[case]


def test_sparse_cases_carry_filler_records():
    for case in ("sparse_gap1", "sparse_gap4", "sparse_gap16"):
        rec = _compress(case).records[0]
        assert rec.record_count > rec.nonzero_count, case


def test_single_symbol_case_has_one_symbol_alphabets():
    rec = _compress("single_symbol").records[0]
    assert rec.gap_lengths == {0: 1} and rec.index_lengths == {0: 1}


def test_squeezenet_size_container_is_pinned():
    # 52 tensors, 1,248,424 Normal(0, 0.1) weights at the CLI defaults: the
    # same container as input set 7 of the benchmark's compress workload
    tensors = refexec.random_weights(zoo.squeezenet(), np.random.default_rng(7))
    assert sum(t.size for t in tensors) == 1_248_424
    container = write_sdnc(compress_model(tensors, 0.7, 6, 4))
    assert (hashlib.sha256(container).hexdigest(), len(container)) == (
        "9d7050e5eff257f6977c64cf43d72b6b3b6b66e4de961529ee002aaa7318f4b5", 368440)
