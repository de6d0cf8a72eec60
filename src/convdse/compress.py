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

import math
import struct
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


def prune_magnitude(tensor: WeightTensor, target_sparsity: float) -> WeightTensor:
    """Zero the floor(sparsity * N) smallest-magnitude entries, ties pruned
    lowest flat index first; a pruned entry becomes +0.0 and a kept one
    keeps its bits, -0.0 included. NaN or infinite weights are refused.

    The cut magnitude comes from one O(N) ``np.partition``. Every entry at
    or above it is kept, except the first of the entries equal to it, in
    flat order, that the count still needs. The kept mask, negated as int8
    to all-ones or zero, is ANDed into the float32 bits in one pass, with
    no per-element branch."""
    target_sparsity = SPARSITY.check(target_sparsity)
    values = tensor.values
    magnitude = np.abs(values)
    # NaN and infinity propagate through max, so it is finite exactly when
    # every value is
    if not math.isfinite(magnitude.max()):
        raise ValueError(f"{tensor.name}: weights contain NaN or infinity")
    n_prune = math.floor(target_sparsity * values.size)
    if not n_prune:
        return WeightTensor(tensor.name, tensor.shape, values.copy())
    threshold = np.partition(magnitude, n_prune - 1)[n_prune - 1]
    keep = magnitude >= threshold
    extra = n_prune - (values.size - int(np.count_nonzero(keep)))
    keep[np.flatnonzero(magnitude == threshold)[:extra]] = False
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


class _SortedNonzeros:
    """One tensor's state in the Lloyd loop: the positions of its
    nonzeros, the permutation that sorts them, the sorted values in
    float64, and their prefix sums when those are exact (else None)."""

    __slots__ = ("name", "shape", "positions", "order", "ordered", "prefix")

    def __init__(self, tensor: WeightTensor):
        self.name, self.shape = tensor.name, tensor.shape
        # held as int32 where they fit: every tensor's state is held at once
        index = np.int32 if tensor.values.size < 2**31 else np.int64
        # a bool mask is several times faster to search than the float values
        self.positions = np.flatnonzero(tensor.values != 0).astype(index)
        nz = tensor.values[self.positions]
        # equal values may swap places: the sorted sequence, and so every
        # run sum, is the same
        self.order = np.argsort(nz).astype(index)
        self.ordered = nz.take(self.order).astype(np.float64)
        self.prefix = None
        if self.ordered.size:
            # NaN sorts last and the infinities sit at the ends
            if not (math.isfinite(self.ordered[0]) and math.isfinite(self.ordered[-1])):
                raise ValueError(f"{self.name}: weights contain NaN or infinity")
            self.prefix = _prefix_sums(self.ordered)

    def quantized(self, centroids: np.ndarray, counts: np.ndarray) -> QuantizedTensor:
        """The tensor quantized to the final ``centroids``, whose runs of the
        sorted values hold ``counts`` values each: each run's codebook slot
        is repeated over it and scattered back to position order."""
        codebook = centroids.astype(np.float32)
        zero = (counts > 0) & (codebook == 0.0)
        used = (counts > 0) & ~zero
        # codebook slot per run; -1 marks the members of a zero centroid
        slot = np.where(used, np.cumsum(used) - 1, -1)
        labels = np.empty(self.positions.size, dtype=np.int64)
        labels[self.order] = np.repeat(slot, counts)
        positions = self.positions.astype(np.int64)
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
    sorted nonzeros are kept (``_SortedNonzeros``). In one dimension every
    cluster is a run of the sorted values, so a Lloyd step finds the run
    bounds with one ``searchsorted`` of the k - 1 midpoints per tensor, and
    the counts, centroid update and movement on (tensors x k) arrays. A
    run's sum is the difference of two prefix sums when ``_prefix_sums``
    shows them exact; otherwise ``np.add.reduceat`` sums the runs, the one
    way to reproduce those sums' rounding. A tensor leaves the loop once no
    centroid moved by ``_KMEANS_TOL`` or after ``_KMEANS_ITERS`` steps; one
    more search gives its final runs, and its state is released as soon as
    its labels are built."""
    k = 1 << BITS.check(bits)
    states = [_SortedNonzeros(t) for t in tensors]
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
    codebook slot."""
    gaps = np.diff(quantized.positions, prepend=-1) - 1
    fillers = gaps >> rel_index_bits
    # each nonzero's record follows its own fillers and all earlier records
    slots = np.arange(gaps.size) + np.cumsum(fillers)
    records = gaps.size + int(fillers.sum())
    gap_symbols = np.full(records, (1 << rel_index_bits) - 1, dtype=np.uint16)
    index_symbols = np.full(records, quantized.codebook.size, dtype=np.uint16)
    gap_symbols[slots] = gaps & ((1 << rel_index_bits) - 1)
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


def compress_model(tensors: Sequence[WeightTensor], target_sparsity: float, bits: int,
                   rel_index_bits: int = GAP_BITS.default) -> CompressedModel:
    """Full pipeline: prune each tensor, quantize the survivors of all of
    them in one ``quantize_model``, encode. Both widths and the sparsity are
    checked before any work; NaN or infinite weights are refused."""
    GAP_BITS.check(rel_index_bits)
    BITS.check(bits)
    SPARSITY.check(target_sparsity)
    # pruned one at a time as the quantizer reads them
    pruned = (prune_magnitude(t, target_sparsity) for t in tensors)
    return encode(quantize_model(pruned, bits), rel_index_bits)


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
