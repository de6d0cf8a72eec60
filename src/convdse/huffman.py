"""Canonical Huffman coding over small integer alphabets.

Only code lengths are stored; codes are reassigned canonically (shorter
codes first, ties by symbol value), so encoder and decoder agree from the
length table alone. A single-symbol alphabet gets one 1-bit code.

Both directions are array code over bounded chunks. Encoding spreads each
symbol's code into one bit array and packs it once. Decoding peeks the
``max_len``-bit window at every bit position of a chunk and finds its code
word by a search over the left-justified canonical interval ends (Moffat &
Turpin, IEEE Trans. Commun. 1997); only the walk from one code word to the
next is a Python loop, one step per symbol.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Sequence

import numpy as np

#: Longest decodable code: a window plus its bit offset in the first byte
#: must fit one big-endian uint64 read.
MAX_CODE_LENGTH = 57

_CHUNK_SYMBOLS = 1 << 16  # encode: symbols spread into bits per step
_CHUNK_BITS = 1 << 13     # decode: windows peeked per step


def code_lengths(symbols: Sequence[int]) -> dict[int, int]:
    """Huffman code length per distinct non-negative symbol (empty input ->
    empty table)."""
    symbols = np.asarray(symbols)
    if symbols.size == 0:
        return {}
    counts = np.bincount(symbols.ravel())
    present = np.flatnonzero(counts)
    freqs = dict(zip(present.tolist(), counts[present].tolist()))
    if len(freqs) == 1:
        return {next(iter(freqs)): 1}
    # heap entries: (weight, tiebreak, [symbols...]); merging two entries
    # lengthens every symbol inside them by one bit
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


def check_lengths(lengths: dict[int, int]) -> None:
    """Raise ValueError unless every symbol is non-negative, every length is
    in 1..MAX_CODE_LENGTH and the Kraft sum is at most 1, i.e. the canonical
    codes form a prefix code."""
    if not lengths:
        return
    if min(lengths) < 0:
        raise ValueError(f"symbol {min(lengths)} is negative")
    longest = max(lengths.values())
    if min(lengths.values()) < 1 or longest > MAX_CODE_LENGTH:
        raise ValueError(f"code lengths must be in 1..{MAX_CODE_LENGTH}, "
                         f"got {min(lengths.values())}..{longest}")
    if sum(1 << (longest - n) for n in lengths.values()) > 1 << longest:
        raise ValueError("code lengths over-subscribe the Kraft sum")


def encode(symbols: Sequence[int], lengths: dict[int, int]) -> tuple[bytes, int]:
    """Encode symbols with the canonical codes implied by ``lengths``;
    returns (payload bytes, exact bit count)."""
    symbols = np.asarray(symbols)
    if symbols.size == 0:
        return b"", 0
    check_lengths(lengths)
    if symbols.min() < 0:
        raise ValueError(f"symbol {int(symbols.min())} has no code")
    codes = canonical_codes(lengths)
    code_dtype = np.min_scalar_type((1 << max(lengths.values())) - 1)
    table_size = max(max(codes), int(symbols.max())) + 1
    code_of = np.zeros(table_size, dtype=code_dtype)
    len_of = np.zeros(table_size, dtype=np.uint8)
    for sym, (code, length) in codes.items():
        code_of[sym], len_of[sym] = code, length
    bits = np.empty(int(len_of[symbols].sum(dtype=np.int64)), dtype=np.uint8)
    filled = 0
    for start in range(0, symbols.size, _CHUNK_SYMBOLS):
        chunk = symbols[start:start + _CHUNK_SYMBOLS]
        n = len_of[chunk]
        if not n.all():
            raise ValueError(f"symbol {int(chunk[n == 0][0])} has no code")
        ends = np.cumsum(n, dtype=np.int32)
        m = int(ends[-1])
        # the bit at chunk position t inside a code ending at e is bit e-1-t
        shift = (np.repeat(ends - 1, n) - np.arange(m, dtype=np.int32)).astype(code_dtype)
        bits[filled:filled + m] = (np.repeat(code_of[chunk], n) >> shift) & 1
        filled += m
    return np.packbits(bits).tobytes(), filled


def decode(data: bytes, bit_count: int, lengths: dict[int, int], count: int) -> np.ndarray:
    """Decode exactly ``count`` symbols into an array of the narrowest
    unsigned dtype that holds every symbol of ``lengths``; raises ValueError
    on malformed streams (unknown prefix or premature end) and on length
    tables that ``check_lengths`` refuses."""
    if count == 0:
        return np.empty(0, dtype=np.uint8)
    if not lengths:
        raise ValueError("cannot decode with an empty code table")
    check_lengths(lengths)
    if len(data) * 8 < bit_count:
        raise ValueError(f"bit stream too short: {len(data) * 8} < {bit_count}")
    out = np.empty(count, dtype=np.min_scalar_type(max(lengths)))
    codes = canonical_codes(lengths)
    width = max(lengths.values())
    syms = np.array(list(codes), dtype=out.dtype)
    # code length per canonical slot; 0 for a window past every interval
    steps = np.array([n for _, n in codes.values()] + [0], dtype=np.uint8)
    interval_ends = np.array([(c + 1) << (width - n) for c, n in codes.values()],
                             dtype=np.uint64)
    padded = bytes(data[:(bit_count + 7) // 8]) + bytes(8)
    drop = np.uint64(64 - width)
    bit_offsets = np.arange(8, dtype=np.uint8)
    done = pos = 0
    while done < count and pos < bit_count:
        first = pos & ~7
        span = min(_CHUNK_BITS, bit_count - first)
        # the 8 bytes from every byte of the chunk, each a big-endian uint64
        words = np.ndarray(((span + 7) // 8,), dtype=">u8", buffer=padded,
                           offset=first // 8, strides=(1,)).astype(np.uint64)
        windows = ((words[:, None] << bit_offsets) >> drop).reshape(-1)[:span]
        which = np.searchsorted(interval_ends, windows, side="right")
        step = steps[which].tolist()
        at = pos - first
        starts = []
        while at < span:
            n = step[at]
            if not n:
                break
            starts.append(at)
            at += n
        del starts[count - done:]
        if starts:
            last = starts[-1]
            if first + last + step[last] > bit_count:
                raise ValueError("bit stream exhausted")
            out[done:done + len(starts)] = syms[which[starts]]
            done += len(starts)
        if done < count and at < span:
            if first + at + width > bit_count:
                raise ValueError("bit stream exhausted")
            raise ValueError(f"invalid code word at bit {first + at}")
        pos = first + at
    if done < count:
        raise ValueError("bit stream exhausted")
    return out


def encoded_bits(symbols: Sequence[int], lengths: dict[int, int]) -> int:
    """Exact payload size in bits without materializing the stream."""
    counts = Counter(symbols)
    return sum(lengths[s] * n for s, n in counts.items())
