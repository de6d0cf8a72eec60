"""Golden SDNW bytes for small seeded tensors.

Any change to the weight container must reproduce these files byte for
byte, the way tests/test_codec_golden.py guards SDNC. The cases cover a
rank-0 tensor, a rank-4 tensor, a non-ASCII name and an empty tensor list.
"""

import hashlib

import numpy as np
import pytest

from convdse.weights import WeightTensor, read_sdnw, write_sdnw


def _tensor(name, shape, seed):
    values = np.random.default_rng(seed).standard_normal(int(np.prod(shape)))
    return WeightTensor(name, shape, values.astype(np.float32))


CASES = {
    "rank0": [_tensor("scale", (), 1)],
    "rank4": [_tensor("conv1.weight", (4, 3, 3, 3), 2), _tensor("conv1.bias", (4,), 3)],
    "non_ascii_name": [_tensor("couche_é.poids→", (2, 5), 4)],
    "empty": [],
}

# id -> (sdnw sha256, sdnw length)
GOLDEN = {
    "empty": ("1f59dca635cfded758ac388d1222e4be02c1b97527a73d6243c7e1dbb7f09357", 12),
    "non_ascii_name": ("9ce3f6f5fc716877a26cf7b9f13e0f963b7e0d9572e4e0db60989a8bcc0ba131", 82),
    "rank0": ("c4865f0d16953824d50b3c443f4879c230377cbf7591b84fa9b58191fd04e83d", 25),
    "rank4": ("a89e00bf87d41814bf3ffcf67be65361e7e94d3e6ef44af7b9a4e91c56e2dea2", 510),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_container_bytes_are_pinned(case):
    data = write_sdnw(CASES[case])
    assert (hashlib.sha256(data).hexdigest(), len(data)) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_pinned_container_reads_back(case):
    restored = read_sdnw(write_sdnw(CASES[case]))
    assert [(t.name, t.shape) for t in restored] == [(t.name, t.shape) for t in CASES[case]]
    for a, b in zip(CASES[case], restored):
        assert np.array_equal(a.values, b.values)
