"""Weight compression: magnitude pruning, codebook quantization, and a
sparse gap + Huffman coded container.

The lossy stages (prune, quantize) are characterized separately by nonzero
count and quantization error; everything downstream is bit-exact, so
``decode_model(encode(...))`` reproduces the pruned+quantized tensors
perfectly. Zero never enters a codebook: sparsity lives entirely in the
gap stream, where an escape symbol in the index alphabet marks pure
zero-padding records for gaps too wide for the gap field.

Container (``SDNC``): the magic, version, count and tensor header of
``weights``; per tensor a frame of u32 body length, the body (tensor header,
gap width, codebook, nonzero and record counts, two code-length tables, two
padded bit streams), and a CRC32 of the body. Any corruption is detected,
never silently decoded.
"""

from __future__ import annotations

import itertools
import math
import struct
import sys
import zlib
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from . import huffman
from .settings import BITS, GAP_BITS, SPARSITY
from .weights import (Cursor, WeightTensor, pack_container_head, pack_tensor_header,
                      read_container)

SDNC_MAGIC = b"SDNC"
SDNC_VERSION = 1


class CompressedFormatError(ValueError):
    """Corrupt or truncated compressed container; message carries the offset."""

    exit_code = 3


def _keep_mask(tensor: WeightTensor,
               target_sparsity: float) -> tuple[Optional[np.ndarray], float]:
    """The bool mask of the entries that pruning ``tensor`` to
    ``target_sparsity`` keeps (None when it prunes none) and the cut
    magnitude (0.0 then): the floor(sparsity * N) smallest magnitudes go,
    ties lowest flat index first. NaN or infinite weights are refused.

    The cut comes from one O(N) partition of the magnitudes in place, which
    are then refilled, so the input is never written and at most one other
    float array of its size is alive. Every entry at or above the cut is
    kept, except the first of the entries equal to it, in flat order, that
    the count still needs."""
    target_sparsity = SPARSITY.check(target_sparsity)
    values = tensor.values
    magnitude = np.abs(values)
    # NaN and infinity propagate through max, so it is finite exactly when
    # every value is
    if not math.isfinite(magnitude.max()):
        raise ValueError(f"{tensor.name}: weights contain NaN or infinity")
    n_prune = math.floor(target_sparsity * values.size)
    if not n_prune:
        return None, 0.0
    magnitude.partition(n_prune - 1)
    threshold = magnitude[n_prune - 1]
    np.abs(values, out=magnitude)
    keep = magnitude >= threshold
    extra = n_prune - (values.size - int(np.count_nonzero(keep)))
    keep[np.flatnonzero(magnitude == threshold)[:extra]] = False
    return keep, float(threshold)


def prune_magnitude(tensor: WeightTensor, target_sparsity: float) -> WeightTensor:
    """Zero the floor(sparsity * N) smallest-magnitude entries, ties pruned
    lowest flat index first; a pruned entry becomes +0.0 and a kept one
    keeps its bits, -0.0 included. NaN or infinite weights are refused.

    The kept mask of ``_keep_mask``, negated as int8 to all-ones or zero, is
    ANDed into the float32 bits in one pass, with no per-element branch."""
    keep, _ = _keep_mask(tensor, target_sparsity)
    values = tensor.values
    if keep is None:
        return WeightTensor(tensor.name, tensor.shape, values.copy())
    flags = keep.view(np.int8)
    np.negative(flags, out=flags)
    pruned = np.empty_like(values)
    # numpy widens the int8 flags to int32 in its own small buffers
    np.bitwise_and(values.view(np.int32), flags, out=pruned.view(np.int32))
    return WeightTensor(tensor.name, tensor.shape, pruned)


@dataclass(frozen=True)
class QuantizedTensor:
    """Codebook plus the positions/assignments of the surviving nonzeros."""

    name: str
    shape: tuple[int, ...]
    codebook: np.ndarray     # float32, <= 2**bits entries, never contains zero slots
    positions: np.ndarray    # int64 flat indices of nonzeros, ascending
    assignments: np.ndarray  # int64 codebook index per nonzero

    def element_count(self) -> int:
        return math.prod(self.shape)

    def dequantize(self) -> WeightTensor:
        values = np.zeros(self.element_count(), dtype=np.float32)
        if self.positions.size:
            values[self.positions] = self.codebook[self.assignments]
        return WeightTensor(self.name, self.shape, values)


def _index_dtype(size: int) -> type:
    """int32 for the flat indices of ``size`` elements where they fit, else int64."""
    return np.int32 if size < 2**31 else np.int64


_KMEANS_ITERS = 50  # Lloyd steps at most
_KMEANS_TOL = 1e-8  # stop once no centroid moves by this much


def _prefix_sums(ordered: np.ndarray) -> Optional[np.ndarray]:
    """The prefix sums of the sorted float32-valued ``ordered``, with a
    leading 0, when every partial sum is exact in float64; else None.

    Each value is a multiple of 2**(e_lo - 24) below 2**e_hi in magnitude,
    where e_lo and e_hi are the ``frexp`` exponents of the smallest and
    largest magnitude, so n of them sum to an integer multiple of that unit
    below 2**(e_hi - e_lo + 24 + ceil(log2 n)). Within 53 bits every
    partial sum is exact, and so a run's sum ``prefix[b] - prefix[a]``
    equals ``np.add.reduceat``'s bit for bit."""
    n = ordered.size
    high = max(-ordered[0], ordered[-1])
    i = int(ordered.searchsorted(0.0))  # the sign change: no value is zero
    low = min(-ordered[i - 1] if i else math.inf, ordered[i] if i < n else math.inf)
    if math.frexp(high)[1] - math.frexp(low)[1] + 24 + (n - 1).bit_length() > 53:
        return None
    prefix = np.empty(n + 1)
    prefix[0] = 0.0
    np.cumsum(ordered, out=prefix[1:])
    return prefix


def _nonzeros(tensor: WeightTensor, target_sparsity: Optional[float]
              ) -> tuple[str, tuple[int, ...], np.ndarray, np.ndarray]:
    """The name, shape, nonzero positions and nonzero values of ``tensor``,
    or of ``prune_magnitude(tensor, target_sparsity)`` when a sparsity is
    given; the positions are int32 where they fit, as every tensor's are
    held at once.

    A pruned tensor's nonzeros are read straight off ``_keep_mask``, with no
    pruned copy: every kept entry is at least the cut magnitude, so zeros,
    -0.0 included, need dropping only when that cut is 0."""
    values = tensor.values
    mask, cut = (None, 0.0) if target_sparsity is None else _keep_mask(tensor, target_sparsity)
    if mask is None:
        # a bool mask is several times faster to search than the float values
        mask = values != 0
    elif not cut:
        mask &= values != 0
    positions = np.flatnonzero(mask).astype(_index_dtype(values.size))
    del mask
    return tensor.name, tensor.shape, positions, values[positions]


# where the high int32 half of a native int64 sits in its int32 view
_HIGH = 1 if sys.byteorder == "little" else 0


class _SortedNonzeros:
    """One tensor's state in the Lloyd loop: the positions of its
    nonzeros, the permutation that sorts them, the sorted values in
    float64, and their prefix sums when those are exact (else None).

    The permutation and the sorted values come from one in-place sort of
    an int64 key per nonzero. Its high half holds the value's float32 bits
    b as ``b ^ ((b >> 31) & 0x7FFFFFFF)``, which orders as a signed int32
    exactly as the floats do; its low half holds the value's index. Every
    key is distinct, so equal values keep their index order whatever sort
    numpy runs, and at most 2**32 - 1 nonzeros can be keyed. The key is
    built in an int64 ``arange`` and read back through views of its
    halves, so no temporary is as large as the key."""

    __slots__ = ("name", "shape", "positions", "order", "ordered", "prefix")

    def __init__(self, name: str, shape: tuple[int, ...], positions: np.ndarray,
                 nz: np.ndarray):
        self.name, self.shape, self.positions = name, shape, positions
        if nz.size > 0xFFFFFFFF:
            raise ValueError(f"{name}: {nz.size} nonzeros, more than the 2**32 - 1 "
                             "a sort key can index")
        key = np.arange(nz.size, dtype=np.int64)
        high = key.view(np.int32)[_HIGH::2]
        bits = nz.view(np.int32)
        # built contiguous, then copied in: faster than three strided passes
        flipped = bits >> 31
        flipped &= 0x7FFFFFFF
        flipped ^= bits
        high[...] = flipped
        del flipped
        key.sort()
        # the negative values lead, and their xor undone gives back their bits
        high[:int(key.searchsorted(0))] ^= 0x7FFFFFFF
        ordered = high.view(np.float32)
        # a NaN sorts past the infinity of its sign, so both ends are finite
        # exactly when every value is; checked before a signalling NaN is cast
        if ordered.size and not (math.isfinite(ordered[0]) and math.isfinite(ordered[-1])):
            raise ValueError(f"{self.name}: weights contain NaN or infinity")
        self.ordered = ordered.astype(np.float64)
        del high, ordered
        # a mask, not a truncating cast, so an index past 2**31 survives in int64
        key &= 0xFFFFFFFF
        self.order = key.astype(positions.dtype, copy=False)
        del key
        self.prefix = _prefix_sums(self.ordered) if self.ordered.size else None

    def quantized(self, centroids: np.ndarray, counts: np.ndarray) -> QuantizedTensor:
        """The tensor quantized to the final ``centroids``, whose runs of the
        sorted values hold ``counts`` values each: each run's codebook slot
        is repeated over it and scattered back to position order. This
        spends the state: each of its arrays is released once used."""
        codebook = centroids.astype(np.float32)
        zero = (counts > 0) & (codebook == 0.0)
        used = (counts > 0) & ~zero
        # codebook slot per run; -1 marks the members of a zero centroid.
        # k <= 256, so a slot fits an int16.
        slot = np.where(used, np.cumsum(used) - 1, -1).astype(np.int16)
        self.ordered = self.prefix = None
        labels = np.empty(self.positions.size, dtype=np.int64)
        labels[self.order] = np.repeat(slot, counts)
        self.order = None
        positions = self.positions.astype(np.int64)
        self.positions = None
        if zero.any():
            keep = labels >= 0
            positions, labels = positions[keep], labels[keep]
        return QuantizedTensor(self.name, self.shape, codebook[used], positions, labels)


def quantize_model(tensors: Iterable[WeightTensor], bits: int) -> list[QuantizedTensor]:
    """Lloyd's k-means over each tensor's nonzero values, k = 2**bits
    centroids initialized evenly over [min, max], run for all tensors in
    lockstep. Deterministic: fixed init, ties to the lower centroid index,
    empty clusters hold their position; unused centroids are dropped
    afterwards. Members of a centroid that is 0.0 in float32 become pruned,
    so zero is never a codebook entry. All-zero tensors yield an empty
    codebook; NaN or infinite weights are refused.

    ``tensors`` is read once, one tensor at a time, and only each tensor's
    sorted nonzeros are kept (``_SortedNonzeros``, one packed-key sort per
    tensor). In one dimension every cluster is a run of the sorted values,
    so a Lloyd step finds the run bounds with one ``searchsorted`` of the
    k - 1 midpoints per tensor, and the counts, centroid update and
    movement on (tensors x k) arrays. A run's sum is the difference of two
    prefix sums when ``_prefix_sums`` shows them exact; otherwise
    ``np.add.reduceat`` sums the runs, the one way to reproduce those sums'
    rounding. A tensor leaves the loop once no centroid moved by
    ``_KMEANS_TOL`` or after ``_KMEANS_ITERS`` steps; one more search gives
    its final runs, and its state is released as soon as its labels are
    built."""
    return _quantize(tensors, bits, None)


def _quantize(tensors: Iterable[WeightTensor], bits: int,
              target_sparsity: Optional[float]) -> list[QuantizedTensor]:
    """``quantize_model`` of ``tensors``, each first pruned to
    ``target_sparsity`` unless that is None (``_nonzeros``)."""
    k = 1 << BITS.check(bits)
    # map, unlike a comprehension's loop variable, holds no tensor past its
    # call, so each dense tensor is gone before its nonzeros are sorted
    nonzeros = map(_nonzeros, tensors, itertools.repeat(target_sparsity))
    states = list(itertools.starmap(_SortedNonzeros, nonzeros))
    out: list[Optional[QuantizedTensor]] = [None] * len(states)
    none = np.zeros(0, dtype=np.int64)
    for i, state in enumerate(states):
        if not state.ordered.size:
            out[i] = QuantizedTensor(state.name, state.shape, np.zeros(0, dtype=np.float32),
                                     none, none)
    # (index in out, state) of every tensor still in the loop
    live = [(i, state) for i, state in enumerate(states) if state.ordered.size]
    del states
    # one linspace per tensor: an array linspace rounds every row differently
    # once any row has min == max
    centroids = np.array([np.linspace(s.ordered[0], s.ordered[-1], k)
                          for _, s in live]).reshape(len(live), k)
    bounds = np.zeros((len(live), k + 1), dtype=np.int64)
    bounds[:, k] = [s.ordered.size for _, s in live]
    movement = np.full(len(live), math.inf)
    # each pass finds the runs of the current centroids; the last pass of a
    # tensor, after convergence or the last Lloyd step, gives its final runs
    for step in range(_KMEANS_ITERS + 1):
        if not live:
            break
        mids = (centroids[:, :-1] + centroids[:, 1:]) / 2.0
        for row, (_, s) in enumerate(live):
            # side="right": a value exactly on a midpoint stays in the lower run
            bounds[row, 1:k] = s.ordered.searchsorted(mids[row], side="right")
        counts = bounds[:, 1:] - bounds[:, :-1]
        done = movement < _KMEANS_TOL if step < _KMEANS_ITERS else np.ones(len(live), bool)
        if done.any():
            for row in np.flatnonzero(done):
                i, state = live[row]
                live[row] = None  # released once its labels are built
                out[i] = state.quantized(centroids[row], counts[row])
            going = ~done
            live = [entry for entry in live if entry is not None]
            centroids, bounds, counts = centroids[going], bounds[going], counts[going]
        ends = np.zeros((len(live), k + 1))
        for row, (_, s) in enumerate(live):
            if s.prefix is not None:
                s.prefix.take(bounds[row], out=ends[row])
        sums = ends[:, 1:] - ends[:, :-1]
        occupied = counts > 0
        for row, (_, s) in enumerate(live):
            if s.prefix is None:
                sums[row, occupied[row]] = np.add.reduceat(s.ordered,
                                                           bounds[row, :-1][occupied[row]])
        new_centroids = np.divide(sums, counts, out=centroids.copy(), where=occupied)
        movement = np.abs(new_centroids - centroids).max(axis=1)
        centroids = new_centroids
    return out


def kmeans_quantize(tensor: WeightTensor, bits: int) -> QuantizedTensor:
    """``quantize_model`` of the one tensor."""
    return quantize_model([tensor], bits)[0]


def quantization_mse(tensor: WeightTensor, quantized: QuantizedTensor) -> float:
    """Mean squared error over the nonzero entries (0.0 for all-zero tensors)."""
    if quantized.positions.size == 0:
        return 0.0
    original = tensor.values[quantized.positions].astype(np.float64)
    coded = quantized.codebook[quantized.assignments].astype(np.float64)
    return float(np.mean((original - coded) ** 2))


@dataclass(frozen=True)
class CompressedTensor:
    name: str
    shape: tuple[int, ...]
    rel_index_bits: int
    codebook: np.ndarray            # float32
    nonzero_count: int
    record_count: int               # (gap, index) records, fillers included
    gap_lengths: dict[int, int]     # Huffman code lengths, gap alphabet
    index_lengths: dict[int, int]   # Huffman code lengths, index alphabet + filler
    gap_bits: int
    gap_payload: bytes
    index_bits: int
    index_payload: bytes


@dataclass(frozen=True)
class CompressedModel:
    records: tuple[CompressedTensor, ...]


def _gap_index_symbols(quantized: QuantizedTensor,
                       rel_index_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Flatten positions/assignments into aligned uint16 gap and index
    symbol streams. A gap of at least 2**b positions is bridged by filler
    records (gap 2**b - 1 plus one zero-valued padding slot each, so a gap g
    takes g >> b of them); the filler index symbol is one past the last
    codebook slot. Gaps and slots are computed in place, in int32 where
    the element count allows."""
    positions = quantized.positions
    gaps = np.empty(positions.size, dtype=_index_dtype(quantized.element_count()))
    gaps[:1] = positions[:1]
    np.subtract(positions[1:], positions[:-1], out=gaps[1:], casting="unsafe")
    gaps[1:] -= 1
    # each nonzero's record follows its own fillers and all earlier records,
    # so its slot is the running count of fillers plus one, less one
    slots = gaps >> rel_index_bits
    records = gaps.size + int(slots.sum())
    slots += 1
    np.cumsum(slots, dtype=slots.dtype, out=slots)
    slots -= 1
    mask = (1 << rel_index_bits) - 1
    gaps &= mask
    gap_symbols = np.full(records, mask, dtype=np.uint16)
    gap_symbols[slots] = gaps
    del gaps
    index_symbols = np.full(records, quantized.codebook.size, dtype=np.uint16)
    index_symbols[slots] = quantized.assignments
    return gap_symbols, index_symbols


def _unusable_entry(codebook: np.ndarray) -> Optional[int]:
    """The index of the first zero or non-finite codebook entry, if any: a
    decoded zero would drop a nonzero, and a non-finite one is no weight."""
    bad = np.flatnonzero((codebook == 0) | ~np.isfinite(codebook))
    return int(bad[0]) if bad.size else None


def encode(quantized: Sequence[QuantizedTensor],
           rel_index_bits: int = GAP_BITS.default) -> CompressedModel:
    """Entropy-code pruned+quantized tensors into a compressed model."""
    rel_index_bits = GAP_BITS.check(rel_index_bits)
    records = []
    for qt in quantized:
        codebook = qt.codebook.astype(np.float32)
        bad = _unusable_entry(codebook)
        if bad is not None:
            raise ValueError(f"{qt.name}: codebook entry {bad} is {codebook[bad]}, "
                             "not a finite nonzero")
        if qt.positions.size and qt.positions.max() >= qt.element_count():
            raise ValueError(f"{qt.name}: nonzero position out of range")
        if qt.assignments.size and (qt.assignments.min() < 0
                                    or qt.assignments.max() >= qt.codebook.size):
            raise ValueError(f"{qt.name}: assignment out of codebook range")
        gaps, indices = _gap_index_symbols(qt, rel_index_bits)
        gap_lengths = huffman.code_lengths(gaps)
        index_lengths = huffman.code_lengths(indices)
        gap_payload, gap_bits = huffman.encode(gaps, gap_lengths)
        index_payload, index_bits = huffman.encode(indices, index_lengths)
        records.append(CompressedTensor(
            name=qt.name, shape=qt.shape, rel_index_bits=rel_index_bits,
            codebook=codebook,
            nonzero_count=int(qt.positions.size),
            record_count=len(gaps),
            gap_lengths=gap_lengths, index_lengths=index_lengths,
            gap_bits=gap_bits, gap_payload=gap_payload,
            index_bits=index_bits, index_payload=index_payload))
    return CompressedModel(tuple(records))


def _decode_stream(rec: CompressedTensor, stream: str) -> np.ndarray:
    data, bits, lengths = ((rec.gap_payload, rec.gap_bits, rec.gap_lengths) if stream == "gap"
                           else (rec.index_payload, rec.index_bits, rec.index_lengths))
    try:
        return huffman.decode(data, bits, lengths, rec.record_count)
    except ValueError as exc:
        raise CompressedFormatError(f"{rec.name}: {stream} stream: {exc}") from None


def decode_model(model: CompressedModel) -> list[WeightTensor]:
    """Reconstruct the pruned+quantized tensors exactly."""
    tensors = []
    for rec in model.records:
        n = math.prod(rec.shape)
        # numpy raises ValueError for more elements than it can index
        try:
            values = np.zeros(n, dtype=np.float32)
        except (MemoryError, ValueError):
            raise CompressedFormatError(f"{rec.name}: cannot allocate {n} elements") from None
        nonzeros = 0
        if rec.record_count:
            gaps = _decode_stream(rec, "gap")
            indices = _decode_stream(rec, "index")
            filler = int(rec.codebook.size)
            # every record, filler or not, takes the slot after its gap
            slots = gaps.astype(np.int64)
            slots += 1
            np.cumsum(slots, out=slots)
            slots -= 1
            if slots[-1] >= n:
                raise CompressedFormatError(f"{rec.name}: decoded position "
                                            f"{int(slots[np.argmax(slots >= n)])} "
                                            f"exceeds element count {n}")
            # a filler writes zero into its padding slot
            values[slots] = np.append(rec.codebook, np.float32(0.0))[indices]
            nonzeros = rec.record_count - int(np.count_nonzero(indices == filler))
        if nonzeros != rec.nonzero_count:
            raise CompressedFormatError(f"{rec.name}: decoded {nonzeros} nonzeros, "
                                        f"header declares {rec.nonzero_count}")
        tensors.append(WeightTensor(rec.name, rec.shape, values))
    return tensors


def _pack_lengths(lengths: dict[int, int], alphabet_size: int, what: str) -> bytes:
    table = bytearray(alphabet_size)
    for sym, length in lengths.items():
        if not 0 <= sym < alphabet_size:
            raise ValueError(f"{what}: symbol {sym} outside alphabet of {alphabet_size}")
        if not 1 <= length <= 255:
            raise ValueError(f"{what}: code length {length} not storable")
        table[sym] = length
    return bytes(table)


def _unpack_lengths(table: memoryview) -> dict[int, int]:
    return {sym: length for sym, length in enumerate(table) if length > 0}


def _record_body(rec: CompressedTensor) -> bytes:
    parts = [pack_tensor_header(rec.name, rec.shape),
             struct.pack("<BH", rec.rel_index_bits, rec.codebook.size),
             rec.codebook.astype("<f4", copy=False),
             struct.pack("<QQ", rec.nonzero_count, rec.record_count)]
    if rec.record_count:
        parts += (_pack_lengths(rec.gap_lengths, 1 << rec.rel_index_bits, rec.name),
                  _pack_lengths(rec.index_lengths, rec.codebook.size + 1, rec.name),
                  struct.pack("<Q", rec.gap_bits), rec.gap_payload,
                  struct.pack("<Q", rec.index_bits), rec.index_payload)
    return b"".join(parts)


def write_sdnc(model: CompressedModel) -> bytes:
    parts = [pack_container_head(SDNC_MAGIC, SDNC_VERSION, len(model.records))]
    for rec in model.records:
        body = _record_body(rec)
        parts += (struct.pack("<I", len(body)), body, struct.pack("<I", zlib.crc32(body)))
    return b"".join(parts)


def _frame(r: Cursor) -> tuple[Cursor, int]:
    """Read one frame (u32 body length, body, CRC32 of the body) and check
    its CRC; returns a cursor over the body and the frame's size in bytes."""
    start = r.pos
    (body_len,) = r.unpack("I")
    actual_crc = zlib.crc32(r.take(body_len))
    (stored_crc,) = r.unpack("I")
    if stored_crc != actual_crc:
        r.fail(f"checksum mismatch (stored {stored_crc:#010x}, "
               f"computed {actual_crc:#010x})", start + 4)
    return Cursor(r.data, r.what, r.error, start + 4, start + 4 + body_len), r.pos - start


def _frames(data: bytes) -> list[tuple[Cursor, int]]:
    return read_container(data, SDNC_MAGIC, SDNC_VERSION, CompressedFormatError, _frame)


def read_sdnc(data: bytes) -> CompressedModel:
    return CompressedModel(tuple(_parse_record(body) for body, _ in _frames(data)))


def _parse_record(r: Cursor) -> CompressedTensor:
    name, shape = r.tensor_header()
    rel_index_bits, cb_size = r.unpack("BH")
    if GAP_BITS.problem(rel_index_bits):
        r.fail(f"{name}: invalid gap width {rel_index_bits}", r.pos - 3)
    codebook = np.frombuffer(r.take(4 * cb_size), dtype="<f4").astype(np.float32)
    bad = _unusable_entry(codebook)
    if bad is not None:
        r.fail(f"{name}: codebook entry {bad} is {codebook[bad]}, not a finite nonzero",
               r.pos - 4 * (cb_size - bad))
    nonzero_count, record_count = r.unpack("QQ")
    if record_count > math.prod(shape):
        r.fail(f"{name}: record count {record_count} exceeds "
               f"element count {math.prod(shape)}", r.pos - 8)
    if nonzero_count > record_count:
        r.fail(f"{name}: nonzero count {nonzero_count} exceeds "
               f"record count {record_count}", r.pos - 16)
    if record_count:
        tables = r.pos
        gap_lengths = _unpack_lengths(r.take(1 << rel_index_bits))
        index_lengths = _unpack_lengths(r.take(cb_size + 1))
        (gap_bits,) = r.unpack("Q")
        gap_payload = bytes(r.take((gap_bits + 7) // 8))
        (index_bits,) = r.unpack("Q")
        index_payload = bytes(r.take((index_bits + 7) // 8))
        for stream, lengths in (("gap", gap_lengths), ("index", index_lengths)):
            try:
                huffman.check_lengths(lengths)
            except ValueError as exc:
                r.fail(f"{name}: {stream} code table: {exc}", tables)
    else:
        gap_lengths, index_lengths = {}, {}
        gap_bits, gap_payload = 0, b""
        index_bits, index_payload = 0, b""
    r.finish()
    return CompressedTensor(name, shape, rel_index_bits, codebook, nonzero_count,
                            record_count, gap_lengths, index_lengths, gap_bits, gap_payload,
                            index_bits, index_payload)


def compress_model(tensors: Iterable[WeightTensor], target_sparsity: float, bits: int,
                   rel_index_bits: int = GAP_BITS.default) -> CompressedModel:
    """Full pipeline: prune each tensor, quantize the survivors of all of
    them in one ``quantize_model``, encode. Both widths and the sparsity are
    checked before any work; NaN or infinite weights are refused. The bytes
    are those of ``encode(quantize_model(prune_magnitude(t, sparsity) for t
    in tensors, bits), rel_index_bits)``, but each tensor's survivors are
    read straight off its keep mask (``_nonzeros``), so no pruned copy is
    made.

    ``tensors`` is read once, in order, and each tensor is held only until
    its survivors are gathered: given a one-shot iterator that keeps no
    reference, as ``convdse compress`` does, only the dense tensors not yet
    reached stay alive. A list keeps them all, with the same output."""
    GAP_BITS.check(rel_index_bits)
    BITS.check(bits)
    SPARSITY.check(target_sparsity)
    return encode(_quantize(tensors, bits, target_sparsity), rel_index_bits)


@dataclass(frozen=True)
class TensorReportRow:
    name: str
    dense_bytes: int
    compressed_bytes: int
    nonzeros: int
    codebook_entries: int

    @property
    def ratio(self) -> Optional[float]:
        return self.dense_bytes / self.compressed_bytes if self.compressed_bytes else None


@dataclass(frozen=True)
class CompressionReport:
    dense_bytes: int
    compressed_bytes: int
    rows: tuple[TensorReportRow, ...]

    @property
    def ratio(self) -> Optional[float]:
        """Dense fp32 bytes over container bytes; None when undefined."""
        if self.compressed_bytes == 0 or self.dense_bytes == 0:
            return None
        return self.dense_bytes / self.compressed_bytes


def compression_report(dense_bytes: int, model: CompressedModel,
                       container: Optional[bytes] = None) -> CompressionReport:
    """Sizes read off the frames of the model's SDNC ``container`` (serialized
    if None); a container with another number of frames than the model has
    records is refused."""
    container = write_sdnc(model) if container is None else container
    frames = _frames(container)
    if len(frames) != len(model.records):
        raise ValueError(f"container holds {len(frames)} frames, "
                         f"model has {len(model.records)} records")
    rows = tuple(TensorReportRow(rec.name, 4 * math.prod(rec.shape), size,
                                 rec.nonzero_count, int(rec.codebook.size))
                 for rec, (_, size) in zip(model.records, frames))
    return CompressionReport(dense_bytes, len(container), rows)


def load_sdnc(path) -> CompressedModel:
    with open(path, "rb") as fh:
        return read_sdnc(fh.read())
