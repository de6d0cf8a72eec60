"""Canonical Huffman coding over small integer alphabets.

Only code lengths are stored; codes are reassigned canonically (shorter
codes first, ties by symbol value), so encoder and decoder agree from the
length table alone. A single-symbol alphabet gets one 1-bit code.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Iterable, Sequence

import numpy as np


def code_lengths(symbols: Iterable[int]) -> dict[int, int]:
    """Huffman code length per distinct symbol (empty input -> empty table)."""
    freqs = Counter(symbols)
    if not freqs:
        return {}
    if len(freqs) == 1:
        return {next(iter(freqs)): 1}
    # heap entries: (weight, tiebreak, [symbols...]); merging two entries
    # lengthens every symbol inside them by one bit
    heap = [(w, sym, [sym]) for sym, w in sorted(freqs.items())]
    heapq.heapify(heap)
    lengths = {sym: 0 for sym in freqs}
    while len(heap) > 1:
        w1, t1, syms1 = heapq.heappop(heap)
        w2, t2, syms2 = heapq.heappop(heap)
        for s in syms1 + syms2:
            lengths[s] += 1
        heapq.heappush(heap, (w1 + w2, min(t1, t2), syms1 + syms2))
    return lengths


def canonical_codes(lengths: dict[int, int]) -> dict[int, tuple[int, int]]:
    """Map symbol -> (code value, code length) in canonical order."""
    codes: dict[int, tuple[int, int]] = {}
    code = 0
    prev_len = 0
    for sym, length in sorted(lengths.items(), key=lambda kv: (kv[1], kv[0])):
        code <<= (length - prev_len)
        codes[sym] = (code, length)
        code += 1
        prev_len = length
    return codes


class BitWriter:
    def __init__(self):
        self._bits: list[int] = []

    def write(self, value: int, length: int) -> None:
        for i in range(length - 1, -1, -1):
            self._bits.append((value >> i) & 1)

    @property
    def bit_count(self) -> int:
        return len(self._bits)

    def getvalue(self) -> bytes:
        arr = np.array(self._bits, dtype=np.uint8)
        return np.packbits(arr).tobytes()


class BitReader:
    def __init__(self, data: bytes, bit_count: int):
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        if bits.size < bit_count:
            raise ValueError(f"bit stream too short: {bits.size} < {bit_count}")
        self._bits = bits[:bit_count]
        self._pos = 0

    def read_bit(self) -> int:
        if self._pos >= self._bits.size:
            raise ValueError("bit stream exhausted")
        b = int(self._bits[self._pos])
        self._pos += 1
        return b


def encode(symbols: Sequence[int], lengths: dict[int, int]) -> tuple[bytes, int]:
    """Encode symbols with the canonical codes implied by ``lengths``;
    returns (payload bytes, exact bit count)."""
    codes = canonical_codes(lengths)
    w = BitWriter()
    for s in symbols:
        code, length = codes[s]
        w.write(code, length)
    return w.getvalue(), w.bit_count


def decode(data: bytes, bit_count: int, lengths: dict[int, int], count: int) -> list[int]:
    """Decode exactly ``count`` symbols; raises ValueError on malformed
    streams (unknown prefix or premature end)."""
    if count == 0:
        return []
    if not lengths:
        raise ValueError("cannot decode with an empty code table")
    by_code = {v: sym for sym, v in canonical_codes(lengths).items()}
    max_len = max(lengths.values())
    reader = BitReader(data, bit_count)
    out: list[int] = []
    for _ in range(count):
        code = 0
        length = 0
        while True:
            code = (code << 1) | reader.read_bit()
            length += 1
            sym = by_code.get((code, length))
            if sym is not None:
                out.append(sym)
                break
            if length > max_len:
                raise ValueError("invalid code word in bit stream")
    return out


def encoded_bits(symbols: Sequence[int], lengths: dict[int, int]) -> int:
    """Exact payload size in bits without materializing the stream."""
    counts = Counter(symbols)
    return sum(lengths[s] * n for s, n in counts.items())
