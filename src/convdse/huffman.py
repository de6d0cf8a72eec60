"""Canonical Huffman coding over small integer alphabets.

Only code lengths are stored; codes are reassigned canonically (shorter
codes first, ties by symbol value), so encoder and decoder agree from the
length table alone. A single-symbol alphabet gets one 1-bit code.

Both directions are array code. Encoding gathers one entry per symbol
from a table of ``code << 6 | length``, whose low 6 bits give the lengths
and whose shift right by 6 gives the codes, and packs the codes MSB-first
into big-endian 64-bit words: each code is shifted into the word that
holds its last bit, the codes ending in one word are OR-reduced, and a
code that crosses a word boundary adds its high bits to the previous
word. Decoding works on bounded chunks and gives every bit position of a
chunk the code word that would start there: a table over the first (at
most 12) bits of its window, and for the prefixes of longer codes a search
over the left-justified canonical interval ends (Moffat & Turpin, IEEE
Trans. Commun. 1997), run only when the table is shorter than the longest
code. A chunk starts on a byte, so its positions and their bit
offsets are module constants. Each position's successor (the start of
the next code word) is composed with itself three times, so the only Python
loop walks the chunk 8 code words per step; the composed successors then
fill in the 7 starts between its steps.
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

#: Longest decodable code: a window plus its bit offset in the first byte
#: must fit one big-endian uint64 read.
MAX_CODE_LENGTH = 57

_CHUNK_BITS = 1 << 14  # decode: bits whose successor is found per step
_TABLE_BITS = 12       # decode: window bits looked up in one table
_COUNT_SLICE = 1 << 16  # code_lengths: symbols counted per bincount call

# decode: every chunk starts on a byte, so a chunk's bit positions and their
# offsets in their bytes are the same arrays; a shorter chunk uses a prefix
_POSITIONS = np.arange(_CHUNK_BITS, dtype=np.intp)
_BIT_IN_BYTE = (_POSITIONS & 7).astype(np.uint32)
_POSITIONS.setflags(write=False)
_BIT_IN_BYTE.setflags(write=False)


def code_lengths(symbols: Sequence[int]) -> dict[int, int]:
    """Huffman code length per distinct non-negative symbol (empty input ->
    empty table). The two lightest subtrees merge first, ties to the lower
    least symbol; a symbol's length is its leaf's depth in the tree."""
    symbols = np.asarray(symbols).ravel()
    if symbols.size == 0:
        return {}
    # bincount copies a narrower integer array to intp: count bounded slices
    counts = np.zeros(0, dtype=np.intp)
    for start in range(0, symbols.size, _COUNT_SLICE):
        part = np.bincount(symbols[start:start + _COUNT_SLICE], minlength=counts.size)
        part[:counts.size] += counts
        counts = part
    present = np.flatnonzero(counts).tolist()
    if len(present) == 1:
        return {present[0]: 1}
    # heap entries: (weight, least symbol, node id), leaves first. Disjoint
    # subtrees never share a least symbol, so the id is never compared.
    leaves = len(present)
    heap = list(zip(counts[present].tolist(), present, range(leaves)))
    heapq.heapify(heap)
    # merge j makes node leaves + j, so every parent's id exceeds its children's
    parent = [0] * (2 * leaves - 2)
    for node in range(leaves, 2 * leaves - 1):
        w1, t1, a = heapq.heappop(heap)
        w2, t2, b = heapq.heappop(heap)
        parent[a] = parent[b] = node
        heapq.heappush(heap, (w1 + w2, min(t1, t2), node))
    depth = [0] * (2 * leaves - 1)
    for node in range(2 * leaves - 3, -1, -1):
        depth[node] = depth[parent[node]] + 1
    return dict(zip(present, depth))


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
    if sum(map((1 << longest).__rshift__, lengths.values())) > 1 << longest:
        raise ValueError("code lengths over-subscribe the Kraft sum")


def encode(symbols: Sequence[int], lengths: dict[int, int]) -> tuple[bytes, int]:
    """Encode symbols with the canonical codes implied by ``lengths``;
    returns (payload bytes, exact bit count). Each symbol's code and length
    come from one gather of a packed ``code << 6 | length`` table."""
    symbols = np.asarray(symbols).ravel()
    if symbols.dtype == bool:  # as an index, a bool array would be a mask
        symbols = symbols.view(np.uint8)
    if symbols.size == 0:
        return b"", 0
    check_lengths(lengths)
    if symbols.min() < 0:
        raise ValueError(f"symbol {int(symbols.min())} has no code")
    # a symbol past the table is refused before the tables are sized
    top = max(lengths, default=-1)
    if symbols.max() > top:
        missing = ~np.isin(symbols, list(lengths))
        raise ValueError(f"symbol {int(symbols[missing.argmax()])} has no code")
    # one table of code << 6 | length: a code is at most 57 bits, a length
    # at most 57, so both fit one uint64 and one gather reads them
    canonical = canonical_codes(lengths)
    table = np.zeros(top + 1, dtype=np.uint64)
    table[list(canonical)] = [code << 6 | length for code, length in canonical.values()]
    # indexing, unlike take, gathers by narrow symbols without an intp copy
    codes = table[symbols]
    ends = codes & np.uint64(63)  # each code's length, summed in place below
    if not ends.all():
        raise ValueError(f"symbol {int(symbols[(ends == 0).argmax()])} has no code")
    codes >>= np.uint64(6)
    np.cumsum(ends, out=ends)
    total = int(ends[-1])
    # every code is shorter than a word, so each word holds the last bit of
    # at least one code, and the codes ending in one word are adjacent
    word_starts = np.arange((total + 63) // 64, dtype=np.uint64) << np.uint64(6)
    firsts = np.searchsorted(ends, word_starts, side="right")
    # the first code ending in word w may start in word w - 1; its bits past
    # the ones in word w go there (none when it does not cross)
    crossing = firsts[1:]
    carried = codes.take(crossing) >> (ends.take(crossing) - word_starts[1:])
    # each code's shift to the end of its word, the low 6 bits of -end, is
    # kept in a byte, so the ends are dropped before the codes are shifted
    shifts = ends.astype(np.uint8)
    del ends
    np.negative(shifts, out=shifts)
    shifts &= np.uint8(63)
    codes <<= shifts
    del shifts
    words = np.bitwise_or.reduceat(codes, firsts)
    del codes
    words[:-1] |= carried
    return words.astype(">u8").view(np.uint8)[:(total + 7) // 8].tobytes(), total


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
    short = min(width, _TABLE_BITS)
    interval_ends = np.array([(c + 1) << (width - n) for c, n in codes.values()],
                             dtype=np.uint64)
    # code length per canonical slot; 0 for a window past every interval
    slot_lengths = np.array([n for _, n in codes.values()] + [0], dtype=np.intp)
    syms = np.array(list(codes) + [0], dtype=out.dtype)
    # slot of every ``short``-bit prefix. A prefix of a longer code is the
    # first such code's slot, and its length is -1: search it at full width.
    slot = np.searchsorted(interval_ends, np.arange(1 << short, dtype=np.uint64)
                           << np.uint64(width - short), side="right")
    prefix_lengths = slot_lengths[slot]
    prefix_lengths[prefix_lengths > short] = -1
    # symbol by window index: a ``short``-bit prefix, then a long code's
    # slot + (1 << short)
    sym_of = np.concatenate((syms[slot], syms))
    padded = bytes(data[:(bit_count + 7) // 8]) + bytes(8)
    # big-endian 4 and 8 bytes from every byte of the stream, without a copy
    quads = np.ndarray((len(padded) - 7,), dtype=">u4", buffer=padded, strides=(1,))
    octets = np.ndarray((len(padded) - 7,), dtype=">u8", buffer=padded, strides=(1,))
    done = pos = 0
    while done < count and pos < bit_count:
        first = pos & ~7
        span = min(_CHUNK_BITS, bit_count - first)
        # the ``short``-bit window at every bit of the chunk: the bit's quad,
        # its leading bits shifted out, then the ``short`` bits brought down
        window = quads[first // 8:(first + span + 7) // 8].astype(np.uint32).repeat(8)[:span]
        window <<= _BIT_IN_BYTE[:span]
        window >>= np.uint32(32 - short)
        step = prefix_lengths.take(window)
        # only a code longer than the table has a prefix marked -1
        if width > short:
            longs = np.flatnonzero(step == -1)
            bits = first + longs
            full = (octets[bits >> 3].astype(np.uint64) << (bits & 7).astype(np.uint64)
                    ) >> np.uint64(64 - width)
            which = np.searchsorted(interval_ends, full, side="right")
            step[longs] = slot_lengths[which]
            window[longs] = which + (1 << short)
        # successor of every bit: the start of the next code word, or the
        # bit itself at an invalid code word and at one leaving the chunk
        hop = step + _POSITIONS[:span]
        tail = hop[-width:]
        leaves = tail >= span
        tail[leaves] = _POSITIONS[span - tail.size:span][leaves]
        hop2 = hop.take(hop)
        hop4 = hop2.take(hop2)
        hop8 = hop4.take(hop4)
        # the Python walk takes 8 code words per step; it stops where the
        # successor is the bit itself
        jumps = memoryview(hop8)
        at = pos - first
        walk = [at]
        while jumps[at] != at:
            at = jumps[at]
            walk.append(at)
        # the kept hops fill in the 7 starts after each step of the walk;
        # past the walk's last start ``at`` they all repeat it
        starts = np.empty((len(walk), 8), dtype=np.intp)
        starts[:, 0] = walk
        starts[:, 4] = hop4.take(starts[:, 0])
        starts[:, 2::4] = hop2.take(starts[:, 0::4])
        starts[:, 1::2] = hop.take(starts[:, 0::2])
        starts = starts.reshape(-1)
        n = int(step[at])
        found = int(np.searchsorted(starts, at)) + (n > 0)
        keep = min(found, count - done)
        out[done:done + keep] = sym_of.take(window.take(starts[:keep]))
        done += keep
        if keep == found and first + at + n > bit_count:
            raise ValueError("bit stream exhausted")
        if done < count and not n:
            if first + at + width > bit_count:
                raise ValueError("bit stream exhausted")
            raise ValueError(f"invalid code word at bit {first + at}")
        pos = first + at + n
    if done < count:
        raise ValueError("bit stream exhausted")
    return out

