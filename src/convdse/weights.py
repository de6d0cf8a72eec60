"""Flat weight tensors and their binary container.

File layout (little-endian throughout): magic ``SDNW``, version u32,
tensor count u32; then per tensor: name length u16 + UTF-8 name, rank u8,
dims u32 each, dtype code u8 (0 = float32), raw payload.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

SDNW_MAGIC = b"SDNW"
SDNW_VERSION = 1
_DTYPE_F32 = 0


class WeightFormatError(ValueError):
    """Corrupt or truncated weight container; message carries the offset."""


@dataclass(frozen=True)
class WeightTensor:
    """Named tensor of 32-bit reals; values are flat, row-major."""

    name: str
    shape: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(d) for d in self.shape))
        v = np.ascontiguousarray(self.values, dtype=np.float32).reshape(-1)
        object.__setattr__(self, "values", v)
        expected = 1
        for d in self.shape:
            if d < 1:
                raise ValueError(f"{self.name}: dimensions must be positive, got {self.shape}")
            expected *= d
        if v.size != expected:
            raise ValueError(f"{self.name}: {v.size} values do not fill shape {self.shape}")

    @property
    def size(self) -> int:
        return int(self.values.size)


class _Reader:
    def __init__(self, data: bytes, what: str):
        self.data = data
        self.pos = 0
        self.what = what

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise WeightFormatError(f"{self.what}: truncated at offset {self.pos} "
                                    f"(needed {n} bytes)")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))


def write_sdnw(tensors: list[WeightTensor]) -> bytes:
    out = bytearray()
    out += SDNW_MAGIC
    out += struct.pack("<II", SDNW_VERSION, len(tensors))
    for t in tensors:
        name = t.name.encode("utf-8")
        out += struct.pack("<H", len(name)) + name
        out += struct.pack("<B", len(t.shape))
        out += struct.pack(f"<{len(t.shape)}I", *t.shape)
        out += struct.pack("<B", _DTYPE_F32)
        out += t.values.astype("<f4").tobytes()
    return bytes(out)


def read_sdnw(data: bytes) -> list[WeightTensor]:
    r = _Reader(data, "SDNW")
    magic = r.take(4)
    if magic != SDNW_MAGIC:
        raise WeightFormatError(f"SDNW: bad magic {magic!r} at offset 0")
    version, count = r.unpack("II")
    if version != SDNW_VERSION:
        raise WeightFormatError(f"SDNW: unsupported version {version}")
    tensors = []
    for _ in range(count):
        (name_len,) = r.unpack("H")
        name = r.take(name_len).decode("utf-8")
        (rank,) = r.unpack("B")
        dims = r.unpack(f"{rank}I") if rank else ()
        if 0 in dims:
            raise WeightFormatError(f"SDNW: tensor {name!r} has a zero dimension in "
                                    f"shape {dims}")
        (dtype,) = r.unpack("B")
        if dtype != _DTYPE_F32:
            raise WeightFormatError(f"SDNW: tensor {name!r} has unknown dtype code {dtype}")
        payload = r.take(4 * math.prod(dims))
        values = np.frombuffer(payload, dtype="<f4").astype(np.float32)
        tensors.append(WeightTensor(name, dims, values))
    if r.pos != len(data):
        raise WeightFormatError(f"SDNW: {len(data) - r.pos} trailing bytes at offset {r.pos}")
    return tensors


def save_sdnw(tensors: list[WeightTensor], path) -> None:
    with open(path, "wb") as fh:
        fh.write(write_sdnw(tensors))


def load_sdnw(path) -> list[WeightTensor]:
    with open(path, "rb") as fh:
        return read_sdnw(fh.read())
