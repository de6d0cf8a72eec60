"""Flat weight tensors and the binary layout of the weight (SDNW) and
compressed (SDNC) containers.

Both containers are little-endian and open with a 4-byte magic, version
u32 and item count u32; nothing may follow the last item. Every tensor, in
either container, starts with the same header: name length u16 + UTF-8
name, rank u8, dims u32 each, none of them zero. An SDNW tensor follows its
header with a dtype code u8 (0 = float32) and the raw payload.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable, NoReturn, Optional

import numpy as np

SDNW_MAGIC = b"SDNW"
SDNW_VERSION = 1
_DTYPE_F32 = 0


class WeightFormatError(ValueError):
    """Corrupt or truncated weight container; message carries the offset."""

    exit_code = 3


@dataclass(frozen=True)
class WeightTensor:
    """Named tensor of 32-bit reals; values are flat, row-major."""

    name: str
    shape: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        shape = tuple(self.shape)
        if not all(isinstance(d, (int, np.integer)) and not isinstance(d, bool) and d >= 1
                   for d in shape):
            raise ValueError(f"{self.name}: dimensions must be positive integers, got {shape}")
        object.__setattr__(self, "shape", tuple(map(int, shape)))
        v = np.ascontiguousarray(self.values, dtype=np.float32).reshape(-1)
        object.__setattr__(self, "values", v)
        if v.size != math.prod(self.shape):
            raise ValueError(f"{self.name}: {v.size} values do not fill shape {self.shape}")

    @property
    def size(self) -> int:
        return int(self.values.size)


class Cursor:
    """Bounds-checked little-endian reader over ``data[pos:end]``. Every
    failure raises ``error`` naming the container and the absolute offset,
    so no bare struct or decode error escapes a reader."""

    def __init__(self, data, what: str, error: type[ValueError], pos: int = 0,
                 end: Optional[int] = None):
        self.data = memoryview(data)
        self.what = what
        self.error = error
        self.pos = pos
        self.end = len(self.data) if end is None else end

    def fail(self, msg: str, at: Optional[int] = None) -> NoReturn:
        raise self.error(f"{self.what}: {msg} at offset {self.pos if at is None else at}")

    def take(self, n: int) -> memoryview:
        if self.pos + n > self.end:
            self.fail(f"truncated (needed {n} bytes)")
        self.pos += n
        return self.data[self.pos - n:self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))

    def tensor_header(self) -> tuple[str, tuple[int, ...]]:
        """Read the shared tensor header; returns the name and the shape."""
        start = self.pos
        (name_len,) = self.unpack("H")
        try:
            name = str(self.take(name_len), "utf-8")
        except UnicodeDecodeError:
            self.fail("tensor name is not UTF-8", start + 2)
        (rank,) = self.unpack("B")
        shape = self.unpack(f"{rank}I")
        if 0 in shape:
            self.fail(f"tensor {name!r} has a zero dimension in shape {shape}", start)
        return name, shape

    def finish(self) -> None:
        if self.pos != self.end:
            self.fail(f"{self.end - self.pos} trailing bytes")


def pack_tensor_header(name: str, shape: tuple[int, ...]) -> bytes:
    """The shared tensor header that ``Cursor.tensor_header`` reads."""
    raw = name.encode("utf-8")
    return struct.pack(f"<H{len(raw)}sB{len(shape)}I", len(raw), raw, len(shape), *shape)


def pack_container_head(magic: bytes, version: int, count: int) -> bytes:
    return magic + struct.pack("<II", version, count)


def read_container(data: bytes, magic: bytes, version: int, error: type[ValueError],
                   read_item: Callable[[Cursor], object]) -> list:
    """Check the magic and version, read every item with ``read_item`` and
    refuse trailing bytes; failures raise ``error``."""
    r = Cursor(data, magic.decode("ascii"), error)
    found, found_version, count = r.unpack(f"{len(magic)}sII")
    if found != magic:
        r.fail(f"bad magic {found!r}", 0)
    if found_version != version:
        r.fail(f"unsupported version {found_version}", len(magic))
    items = [read_item(r) for _ in range(count)]
    r.finish()
    return items


def _sdnw_parts(tensors: list[WeightTensor]) -> list:
    """The SDNW container as consecutive buffers; a payload is the tensor's
    own array wherever it is already little-endian float32."""
    parts = [pack_container_head(SDNW_MAGIC, SDNW_VERSION, len(tensors))]
    for t in tensors:
        parts += (pack_tensor_header(t.name, t.shape), struct.pack("<B", _DTYPE_F32),
                  t.values.astype("<f4", copy=False))
    return parts


def write_sdnw(tensors: list[WeightTensor]) -> bytes:
    return b"".join(_sdnw_parts(tensors))


def _read_tensor(r: Cursor) -> WeightTensor:
    name, shape = r.tensor_header()
    (dtype,) = r.unpack("B")
    if dtype != _DTYPE_F32:
        r.fail(f"tensor {name!r} has unknown dtype code {dtype}", r.pos - 1)
    values = np.frombuffer(r.take(4 * math.prod(shape)), dtype="<f4").astype(np.float32)
    return WeightTensor(name, shape, values)


def read_sdnw(data: bytes) -> list[WeightTensor]:
    return read_container(data, SDNW_MAGIC, SDNW_VERSION, WeightFormatError, _read_tensor)


def save_sdnw(tensors: list[WeightTensor], path) -> None:
    """Write ``write_sdnw``'s bytes part by part, never joined in memory."""
    with open(path, "wb") as fh:
        fh.writelines(_sdnw_parts(tensors))


def load_sdnw(path) -> list[WeightTensor]:
    with open(path, "rb") as fh:
        return read_sdnw(fh.read())
