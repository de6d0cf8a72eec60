"""Cross-module oracle properties behind the ``verify`` command.

Every check here pits one implementation against an independently written
second route: the instrumented executor against the analytical MAC count,
grouped convolution against a block-diagonal dense construction, the
executor against a scalar triple-loop kernel, the codec against identity,
the table Huffman decoder against a per-bit one. The scalar kernel and the
per-bit decoder below are deliberately loop-by-loop and share no code with
the implementations they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import compress, costs, huffman, refexec
from .graph import (ArchGraph, Conv, GraphBuilder, Pool, ReLU, Shuffle, TensorShape,
                    infer_shapes, lower_fc, validate)
from .weights import WeightTensor


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str


def conv_scalar_reference(x: np.ndarray, spec: Conv, weight: np.ndarray,
                          bias: Optional[np.ndarray]) -> np.ndarray:
    """Second convolution implementation: plain nested loops, no vector ops."""
    c_in, h_in, w_in = x.shape
    cg = c_in // spec.groups
    fg = spec.filters // spec.groups
    h_out = (h_in + 2 * spec.pad - spec.kernel_h) // spec.stride + 1
    w_out = (w_in + 2 * spec.pad - spec.kernel_w) // spec.stride + 1
    out = np.zeros((spec.filters, h_out, w_out), dtype=np.float32)
    for f in range(spec.filters):
        group = f // fg
        for oy in range(h_out):
            for ox in range(w_out):
                acc = 0.0
                for c in range(cg):
                    ic = group * cg + c
                    for ky in range(spec.kernel_h):
                        iy = oy * spec.stride + ky - spec.pad
                        if iy < 0 or iy >= h_in:
                            continue
                        for kx in range(spec.kernel_w):
                            ix = ox * spec.stride + kx - spec.pad
                            if ix < 0 or ix >= w_in:
                                continue
                            acc += float(x[ic, iy, ix]) * float(weight[f, c, ky, kx])
                if bias is not None:
                    acc += float(bias[f])
                out[f, oy, ox] = np.float32(acc)
    return out


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def random_graph(rng: np.random.Generator) -> ArchGraph:
    """Small random valid graph: a chain of conv, relu, pool, shuffle and fire
    blocks, sometimes finished by GAP or FC, each size drawn from the shape
    the block meets. A conv draws kernel height and width apart (1..5, at most
    the padded input), stride 1..3, pad 0..2 and groups dividing its input; a
    pool draws kernel and stride from 1..3 apart, with or without ceil_mode,
    so stride > kernel and trailing partial windows occur; a fire block
    squeezes into 2..5 expand branches of kernel 1, 3 or 5, padded to keep
    the size, joined by one concat."""
    b = GraphBuilder(f"fuzz{rng.integers(1 << 30)}")
    h = int(rng.integers(6, 13))
    c = int(rng.choice([2, 3, 4, 6, 8]))
    x = b.input(TensorShape(h, h, c))
    shape = TensorShape(h, h, c)
    for _ in range(int(rng.integers(3, 9))):
        choices = ["conv", "relu", "fire"]
        if shape.height >= 2 and shape.width >= 2:
            choices.append("pool")
        if shape.channels > 1:
            choices.append("shuffle")
        op = rng.choice(choices)
        if op == "conv":
            groups = int(rng.choice(_divisors(shape.channels)))
            pad = int(rng.integers(0, 3))
            kernel = [int(rng.integers(1, min(5, side + 2 * pad) + 1))
                      for side in (shape.height, shape.width)]
            x = b.conv(x, kernel, groups * int(rng.integers(1, 5)), groups=groups,
                       stride=int(rng.integers(1, 4)), pad=pad, bias=bool(rng.random() < 0.5))
        elif op == "relu":
            x = b.relu(x)
        elif op == "pool":
            kernel = int(rng.choice([k for k in (1, 2, 3)
                                     if k <= min(shape.height, shape.width)]))
            pool = b.maxpool if rng.random() < 0.5 else b.avgpool
            x = pool(x, kernel, int(rng.integers(1, 4)), ceil_mode=bool(rng.random() < 0.5))
        elif op == "shuffle":
            g = int(rng.choice([d for d in _divisors(shape.channels) if d > 1]))
            x = b.shuffle(x, g)
        else:  # fire
            squeeze = b.conv(x, 1, int(rng.integers(1, 4)))
            x = b.concat([b.conv(squeeze, k, int(rng.integers(1, 5)), pad=k // 2)
                          for k in map(int, rng.choice([1, 3, 5], int(rng.integers(2, 6))))])
        shape = infer_shapes(b.build())[x]
    if rng.random() < 0.3:
        x = b.gap(x)
    if rng.random() < 0.3:
        x = b.fc(x, int(rng.integers(2, 6)))
    return b.build()


def check_mac_counts(seed: int = 0, trials: int = 20) -> PropertyResult:
    rng = np.random.default_rng(seed)
    for i in range(trials):
        graph = random_graph(rng)
        analytic = costs.model_macs(graph)
        instrumented = refexec.count_macs_instrumented(graph)
        if analytic != instrumented:
            return PropertyResult("mac_counts", False,
                                  f"graph {i} ({graph.name}): analytic {analytic} != "
                                  f"instrumented {instrumented}")
        shapes = {f"{row.node_id}.{k}": shape
                  for row in costs.layer_costs(graph) for k, shape in row.weights.items()}
        expected = refexec.expected_weight_shapes(graph)
        if shapes != expected:
            return PropertyResult("mac_counts", False, f"graph {i} ({graph.name}): weight shapes "
                                  f"{shapes} in the cost table, {expected} in the executor")
        # report prices the graph without the rows, so it is checked on its own
        totals = costs.report(graph)
        params = sum(math.prod(shape) for shape in expected.values())
        if (totals.total_macs, totals.total_params) != (instrumented, params):
            return PropertyResult("mac_counts", False, f"graph {i} ({graph.name}): report has "
                                  f"{totals.total_macs} MACs and {totals.total_params} params, "
                                  f"the executor {instrumented} and {params}")
    return PropertyResult("mac_counts", True,
                          f"analytic == instrumented on {trials} random graphs")


def check_run_shapes(seed: int = 1, trials: int = 12) -> PropertyResult:
    rng = np.random.default_rng(seed)
    for i in range(trials):
        graph = random_graph(rng)
        violations = validate(graph)
        if violations:
            return PropertyResult("run_shapes", False,
                                  f"graph {i} ({graph.name}): validate reported {violations}")
        shapes = infer_shapes(graph)
        weights = refexec.random_weights(graph, rng)
        in_shape = shapes[graph.nodes[0][0]]
        x = refexec.Tensor3D(in_shape, rng.standard_normal(in_shape.elements)
                             .astype(np.float32))
        acts = refexec.run_all(graph, weights, x)
        for nid, act in acts.items():
            if act.shape != shapes[nid]:
                return PropertyResult("run_shapes", False,
                                      f"graph {i}, node {nid}: executed {act.shape}, "
                                      f"inferred {shapes[nid]}")
    return PropertyResult("run_shapes", True,
                          f"executed shapes match inference on {trials} random graphs")


def _relative_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(float(np.max(np.abs(b))), 1e-12)
    return float(np.max(np.abs(a.astype(np.float64) - b.astype(np.float64)))) / denom


def check_grouped_vs_blockdiag(seed: int = 2, tol: float = 1e-6) -> PropertyResult:
    """Grouped conv must equal a dense conv whose weight tensor is zero
    outside the per-group channel blocks."""
    rng = np.random.default_rng(seed)
    c = 8
    x = rng.standard_normal((c, 6, 6)).astype(np.float32)
    for g in (1, 2, 4, c):
        spec = Conv(3, 3, c, groups=g, stride=1, pad=1, bias=False)
        w = rng.standard_normal((c, c // g, 3, 3)).astype(np.float32)
        grouped = refexec.conv_forward(x, spec, w, None)
        dense_w = np.zeros((c, c, 3, 3), dtype=np.float32)
        fg = c // g
        for f in range(c):
            block = f // fg
            dense_w[f, block * (c // g):(block + 1) * (c // g)] = w[f]
        dense = refexec.conv_forward(x, Conv(3, 3, c, groups=1, stride=1, pad=1, bias=False),
                                     dense_w, None)
        err = _relative_error(grouped, dense)
        if err > tol:
            return PropertyResult("grouped_vs_blockdiag", False,
                                  f"g={g}: relative error {err:.2e} > {tol}")
    return PropertyResult("grouped_vs_blockdiag", True,
                          f"grouped == block-diagonal dense for g in (1, 2, 4, {c})")


def check_shuffle(seed: int = 3, trials: int = 20) -> PropertyResult:
    rng = np.random.default_rng(seed)
    fixed = refexec.shuffle_sources(6, 2)
    if fixed != [0, 3, 1, 4, 2, 5]:
        return PropertyResult("shuffle", False, f"C=6, g=2 source order {fixed}")
    for _ in range(trials):
        g = int(rng.integers(1, 7))
        c = g * int(rng.integers(1, 7))
        sources = refexec.shuffle_sources(c, g)
        if sorted(sources) != list(range(c)):
            return PropertyResult("shuffle", False, f"C={c}, g={g}: not a bijection")
        x = rng.standard_normal((c, 2, 2)).astype(np.float32)
        back = refexec.shuffle_forward(refexec.shuffle_forward(x, g), c // g)
        if not np.array_equal(back, x):
            return PropertyResult("shuffle", False,
                                  f"C={c}, g={g}: shuffle({c // g}) did not invert shuffle({g})")
    return PropertyResult("shuffle", True,
                          f"bijection and inverse hold on {trials} random (g, C)")


def check_fc_lowering(seed: int = 4, tol: float = 1e-6) -> PropertyResult:
    rng = np.random.default_rng(seed)
    b = GraphBuilder("fc_lowering")
    x = b.input(TensorShape(5, 5, 3))
    x = b.conv(x, 3, 4, pad=1, name="conv")
    x = b.relu(x)
    x = b.fc(x, 6, name="fc_mid")
    x = b.relu(x)
    b.fc(x, 3, name="fc_out")
    graph = b.build()
    weights = refexec.random_weights(graph, rng)
    shape = infer_shapes(graph)[graph.nodes[0][0]]
    inp = refexec.Tensor3D(shape, rng.standard_normal(shape.elements).astype(np.float32))
    lowered = lower_fc(graph)
    out_a = refexec.run(graph, weights, inp).values
    out_b = refexec.run(lowered, weights, inp).values
    err = _relative_error(out_a, out_b)
    if err > tol:
        return PropertyResult("fc_lowering", False, f"relative error {err:.2e} > {tol}")
    if costs.model_params(graph) != costs.model_params(lowered):
        return PropertyResult("fc_lowering", False, "parameter count changed")
    return PropertyResult("fc_lowering", True,
                          "lowered graph matches on outputs and parameter count")


def check_scalar_oracle(seed: int = 5, tol: float = 1e-6) -> PropertyResult:
    """Executor vs the independent scalar kernel on one multi-layer graph."""
    rng = np.random.default_rng(seed)
    b = GraphBuilder("oracle8")
    x = b.input(TensorShape(9, 9, 4))
    x = b.conv(x, 3, 6, pad=1, name="c1")
    x = b.relu(x)
    x = b.conv(x, 3, 6, groups=2, stride=2, pad=1, name="c2")
    x = b.shuffle(x, 2)
    x = b.conv(x, 1, 8, name="c3")
    x = b.maxpool(x, 2, 2)
    x = b.conv(x, 1, 4, groups=4, name="c4")
    graph = b.build()
    weights = {t.name: t for t in refexec.random_weights(graph, rng)}
    shape = infer_shapes(graph)[graph.nodes[0][0]]
    inp = rng.standard_normal((shape.channels, shape.height, shape.width)).astype(np.float32)

    # replay with the scalar kernels only
    act = inp
    for nid, spec in graph.nodes[1:]:
        if isinstance(spec, Conv):
            w = weights[f"{nid}.weight"].values.reshape(
                (spec.filters, act.shape[0] // spec.groups, spec.kernel_h, spec.kernel_w))
            bias = weights[f"{nid}.bias"].values if spec.bias else None
            act = conv_scalar_reference(act, spec, w, bias)
        elif isinstance(spec, ReLU):
            act = np.where(act > 0, act, np.float32(0.0))
        elif isinstance(spec, Shuffle):
            act = act[refexec.shuffle_sources(act.shape[0], spec.groups)]
        elif isinstance(spec, Pool):
            out = np.zeros((act.shape[0], act.shape[1] // 2, act.shape[2] // 2),
                           dtype=np.float32)
            for cc in range(act.shape[0]):
                for oy in range(out.shape[1]):
                    for ox in range(out.shape[2]):
                        out[cc, oy, ox] = act[cc, 2 * oy:2 * oy + 2, 2 * ox:2 * ox + 2].max()
            act = out
    got = refexec.run(graph, list(weights.values()),
                      refexec.Tensor3D(shape, inp.reshape(-1).copy())).values
    err = _relative_error(got, act.reshape(-1))
    if err > tol:
        return PropertyResult("scalar_oracle", False, f"relative error {err:.2e} > {tol}")
    return PropertyResult("scalar_oracle", True, "executor matches the scalar kernels")


def check_codec_roundtrip(seed: int = 6, trials: int = 25) -> PropertyResult:
    """Bit-exact round trip, no zero codebook entry, and a header nonzero
    count equal to the decoded nonzeros. The first tensor is fixed: with
    one bit its lower centroid lands on 0.0."""
    rng = np.random.default_rng(seed)
    cases = [(WeightTensor("zero_centroid", (4,), np.array([-0.1, 0.1, 5.0, 10.0])), 0.0, 1, 4)]
    for i in range(trials):
        n = int(rng.integers(1, 400))
        values = (rng.standard_normal(n) * rng.uniform(0.1, 3.0)).astype(np.float32)
        cases.append((WeightTensor(f"t{i}", (n,), values), float(rng.uniform(0.0, 0.95)),
                      int(rng.integers(1, 7)), int(rng.integers(1, 9))))
    for t, sparsity, bits, rel_index_bits in cases:
        qt = compress.kmeans_quantize(compress.prune_magnitude(t, sparsity), bits)
        model = compress.encode([qt], rel_index_bits)
        restored = compress.read_sdnc(compress.write_sdnc(model))
        rec = restored.records[0]
        decoded = compress.decode_model(restored)[0]
        if not np.array_equal(decoded.values, qt.dequantize().values):
            return PropertyResult("codec_roundtrip", False, f"tensor {t.name} not bit-exact")
        nonzeros = np.count_nonzero(decoded.values)
        if np.any(rec.codebook == 0.0) or nonzeros != rec.nonzero_count:
            return PropertyResult("codec_roundtrip", False,
                                  f"tensor {t.name}: zero codebook entry or header declares "
                                  f"{rec.nonzero_count} nonzeros, decoded {nonzeros}")
    return PropertyResult("codec_roundtrip", True,
                          f"bit-exact round trip on {len(cases)} tensors")


def check_huffman_bound(seed: int = 7, trials: int = 30) -> PropertyResult:
    """Huffman payload never exceeds the fixed-width payload plus the
    length-table overhead."""
    rng = np.random.default_rng(seed)
    for i in range(trials):
        alphabet = int(rng.integers(1, 65))
        n = int(rng.integers(1, 2000))
        skew = rng.uniform(0.5, 4.0)
        probs = rng.random(alphabet) ** skew
        probs /= probs.sum()
        symbols = rng.choice(alphabet, size=n, p=probs).tolist()
        lengths = huffman.code_lengths(symbols)
        bits = huffman.encode(symbols, lengths)[1]
        fixed_bits = n * max(1, (alphabet - 1).bit_length())
        table_bits = alphabet * 8
        if bits > fixed_bits + table_bits:
            return PropertyResult("huffman_bound", False,
                                  f"trial {i}: {bits} > {fixed_bits} + {table_bits}")
    return PropertyResult("huffman_bound", True,
                          f"coded length within fixed-width bound on {trials} streams")


def huffman_decode_reference(data: bytes, bit_count: int, lengths: dict[int, int],
                             count: int) -> list[int]:
    """Second Huffman decoder: one bit at a time, with a dict probe of the
    (code, length) read so far after every bit. It shares only
    ``canonical_codes`` with ``huffman.decode``."""
    if count == 0:
        return []
    if not lengths:
        raise ValueError("cannot decode with an empty code table")
    by_code = {v: sym for sym, v in huffman.canonical_codes(lengths).items()}
    max_len = max(lengths.values())
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    if bits.size < bit_count:
        raise ValueError(f"bit stream too short: {bits.size} < {bit_count}")
    bits = bits[:bit_count].tolist()
    pos = 0
    out: list[int] = []
    for _ in range(count):
        code = length = 0
        while True:
            if pos >= bit_count:
                raise ValueError("bit stream exhausted")
            code = (code << 1) | bits[pos]
            pos += 1
            length += 1
            sym = by_code.get((code, length))
            if sym is not None:
                out.append(sym)
                break
            if length >= max_len:
                raise ValueError("invalid code word in bit stream")
    return out


def random_code_lengths(rng: np.random.Generator) -> dict[int, int]:
    """Length table of a random prefix code over a random alphabet: one
    symbol, or the leaves of a binary tree grown by splitting leaves (any
    leaf, the deepest leaf, or a mix, so codes of 30+ bits occur), with a
    random share of the leaves dropped half the time (an incomplete code)."""
    alphabet = int(rng.integers(1, 400))
    if rng.random() < 0.15:
        return {int(rng.integers(alphabet)): int(rng.integers(1, 4))}
    depths = [1, 1]
    mode = int(rng.integers(3))
    for _ in range(int(rng.integers(0, 56)) if mode != 1 else int(rng.integers(29, 56))):
        if len(depths) >= alphabet:
            break
        deepest = mode == 1 or (mode == 2 and rng.random() < 0.5)
        j = int(np.argmax(depths)) if deepest else int(rng.integers(len(depths)))
        if depths[j] >= huffman.MAX_CODE_LENGTH:
            break
        depth = depths.pop(j)
        depths += [depth + 1, depth + 1]
    if rng.random() < 0.5:
        depths = [d for d in depths if rng.random() < 0.7] or depths[:1]
    symbols = rng.choice(max(alphabet, len(depths)), size=len(depths), replace=False)
    return dict(zip(symbols.tolist(), depths))


def _decode_outcome(decoder, data: bytes, bit_count: int, lengths: dict[int, int],
                    count: int):
    try:
        return [int(s) for s in decoder(data, bit_count, lengths, count)]
    except ValueError:
        return "ValueError"


def check_huffman_decode(seed: int = 8, trials: int = 40) -> PropertyResult:
    """The table decoder against the per-bit reference on random prefix
    codes: an encoded stream decodes to its symbols under both, and the
    same stream cut short, or random bytes, give both the same symbols or
    both a ValueError. One table's stream is long enough to cross decode
    chunks."""
    rng = np.random.default_rng(seed)
    long_codes = single = 0
    crossed = False
    for i in range(trials):
        lengths = random_code_lengths(rng)
        long_codes += max(lengths.values()) >= 30
        single += len(lengths) == 1
        symbols = rng.choice(list(lengths), size=int(rng.integers(0, 300))).tolist()
        payload, bits = huffman.encode(symbols, lengths)
        cut = min(bits, int(rng.integers(1, max(lengths.values()) + 1)))
        noise = rng.integers(0, 256, size=int(rng.integers(0, 40)), dtype=np.uint8).tobytes()
        cases = [(payload, bits, len(symbols), symbols),
                 (payload, bits - cut, len(symbols), None),
                 (noise, int(rng.integers(0, 8 * len(noise) + 1)), int(rng.integers(0, 60)),
                  None)]
        if not crossed and (long_codes or i == trials - 1):
            # the first table with 30+ bit codes also decodes its symbols
            # repeated past two decode chunks, and that stream with one
            # byte flipped in its second chunk
            crossed = True
            unit = symbols or list(lengths)
            repeats = 2 * huffman._CHUNK_BITS // huffman.encode(unit, lengths)[1] + 1
            long_payload, long_bits = huffman.encode(unit * repeats, lengths)
            flipped = bytearray(long_payload)
            flipped[huffman._CHUNK_BITS * 3 // 16] ^= 0xFF
            cases += [(long_payload, long_bits, len(unit) * repeats, unit * repeats),
                      (bytes(flipped), long_bits, len(unit) * repeats, None)]
        for data, bit_count, count, expected in cases:
            want = _decode_outcome(huffman_decode_reference, data, bit_count, lengths, count)
            got = _decode_outcome(huffman.decode, data, bit_count, lengths, count)
            if got != want or (expected is not None and got != expected):
                return PropertyResult("huffman_decode", False,
                                      f"seed {seed}, table {i} ({len(lengths)} symbols, "
                                      f"longest code {max(lengths.values())} bits), "
                                      f"{bit_count} bits, {count} symbols: table decoder "
                                      f"gave {got}, per-bit reference {want}")
    return PropertyResult("huffman_decode", True,
                          f"table decoder == per-bit reference on {trials} random codes "
                          f"({long_codes} with 30+ bit codes, {single} with one symbol)")


ALL_CHECKS: tuple[Callable[[], PropertyResult], ...] = (
    check_mac_counts,
    check_run_shapes,
    check_grouped_vs_blockdiag,
    check_shuffle,
    check_fc_lowering,
    check_scalar_oracle,
    check_codec_roundtrip,
    check_huffman_bound,
    check_huffman_decode,
)


def run_all_checks() -> list[PropertyResult]:
    return [check() for check in ALL_CHECKS]
