"""Naive reference forward-pass executor.

This is the semantic oracle for the rest of the toolkit: direct, unfused
kernels with no im2col/FFT tricks, accumulating in float64 and storing
float32. Clarity and determinism beat speed here.

Activations are channel-major (C, H, W); convolution weights are laid out
[filters][channels_per_group][kh][kw], matching the on-disk tensor order so
golden files stay portable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .graph import (ArchGraph, Conv, FullyConnected, GlobalAvgPool, Input, Pool, ReLU,
                    Shuffle, TensorShape, _spatial_size, infer_shapes)
from .weights import WeightTensor


class ExecutionError(ValueError):
    """Weight mismatch or invalid runtime input."""


@dataclass(frozen=True)
class Tensor3D:
    """One activation: shape plus flat float32 values, channel-major then
    row-major spatial."""

    shape: TensorShape
    values: np.ndarray

    def __post_init__(self):
        if self.values.dtype != np.float32 or self.values.ndim != 1:
            raise ValueError("values must be a flat float32 array")
        if self.values.size != self.shape.elements:
            raise ValueError(f"value count {self.values.size} does not match shape {self.shape}")

    @classmethod
    def from_chw(cls, arr: np.ndarray) -> "Tensor3D":
        c, h, w = arr.shape
        return cls(TensorShape(h, w, c), np.ascontiguousarray(arr, dtype=np.float32).reshape(-1))

    def chw(self) -> np.ndarray:
        s = self.shape
        return self.values.reshape(s.channels, s.height, s.width)


def expected_weight_shapes(graph: ArchGraph) -> dict[str, tuple[int, ...]]:
    """Tensor names and shapes a weight file must provide for ``graph``:
    '<node>.weight' as (F, C/g, kh, kw) and '<node>.bias' as (F,)."""
    shapes = infer_shapes(graph)
    expected: dict[str, tuple[int, ...]] = {}
    for nid, spec in graph.nodes:
        preds = graph.preds.get(nid, ())
        if isinstance(spec, Conv):
            c_in = shapes[preds[0]].channels
            expected[f"{nid}.weight"] = (spec.filters, c_in // spec.groups,
                                         spec.kernel_h, spec.kernel_w)
            if spec.bias:
                expected[f"{nid}.bias"] = (spec.filters,)
        elif isinstance(spec, FullyConnected):
            s = shapes[preds[0]]
            expected[f"{nid}.weight"] = (spec.filters, s.channels, s.height, s.width)
            if spec.bias:
                expected[f"{nid}.bias"] = (spec.filters,)
    return expected


def random_weights(graph: ArchGraph, rng: np.random.Generator) -> list[WeightTensor]:
    return [WeightTensor(name, shape,
                         (rng.standard_normal(int(np.prod(shape))) * 0.1).astype(np.float32))
            for name, shape in expected_weight_shapes(graph).items()]


def conv_forward(x: np.ndarray, spec: Conv, weight: np.ndarray,
                 bias: Optional[np.ndarray], counter: Optional[list] = None) -> np.ndarray:
    """Direct grouped convolution on a (C, H, W) input.

    Filter f belongs to group f // (F/g) and reads the contiguous input
    channel block of that group. ``counter``, when given, accumulates one
    count per multiply-accumulate performed.
    """
    c_in, h_in, w_in = x.shape
    if c_in % spec.groups != 0 or spec.filters % spec.groups != 0:
        raise ExecutionError(f"groups must divide channels and filters "
                             f"(g={spec.groups}, C_in={c_in}, F={spec.filters})")
    cg = c_in // spec.groups
    fg = spec.filters // spec.groups
    if weight.shape != (spec.filters, cg, spec.kernel_h, spec.kernel_w):
        raise ExecutionError(f"weight shape {weight.shape} does not match "
                             f"({spec.filters}, {cg}, {spec.kernel_h}, {spec.kernel_w})")
    h_out = _spatial_size(h_in, spec.kernel_h, spec.stride, spec.pad, False)
    w_out = _spatial_size(w_in, spec.kernel_w, spec.stride, spec.pad, False)
    xp = np.pad(x.astype(np.float64), ((0, 0), (spec.pad, spec.pad), (spec.pad, spec.pad)))
    wd = weight.astype(np.float64)
    out = np.zeros((spec.filters, h_out, w_out), dtype=np.float64)
    for f in range(spec.filters):
        g = f // fg
        chan0 = g * cg
        for oy in range(h_out):
            iy = oy * spec.stride
            for ox in range(w_out):
                ix = ox * spec.stride
                patch = xp[chan0:chan0 + cg, iy:iy + spec.kernel_h, ix:ix + spec.kernel_w]
                out[f, oy, ox] = np.sum(patch * wd[f])
                if counter is not None:
                    counter[0] += patch.size
    if bias is not None:
        out += bias.astype(np.float64)[:, None, None]
    return out.astype(np.float32)


def pool_forward(x: np.ndarray, spec: Pool) -> np.ndarray:
    """Max/avg pooling. With ceil_mode the trailing window may overhang the
    input (it always starts inside it); max ignores the missing elements,
    avg still divides by the full kernel area (one convention, applied
    everywhere)."""
    c, h_in, w_in = x.shape
    h_out = _spatial_size(h_in, spec.kernel, spec.stride, 0, spec.ceil_mode)
    w_out = _spatial_size(w_in, spec.kernel, spec.stride, 0, spec.ceil_mode)
    out = np.zeros((c, h_out, w_out), dtype=np.float32)
    for oy in range(h_out):
        iy = oy * spec.stride
        for ox in range(w_out):
            ix = ox * spec.stride
            window = x[:, iy:min(iy + spec.kernel, h_in), ix:min(ix + spec.kernel, w_in)]
            if spec.kind == "max":
                out[:, oy, ox] = window.max(axis=(1, 2))
            else:
                out[:, oy, ox] = (window.astype(np.float64).sum(axis=(1, 2))
                                  / (spec.kernel * spec.kernel)).astype(np.float32)
    return out


def shuffle_forward(x: np.ndarray, groups: int) -> np.ndarray:
    """Channel shuffle: with n = C/g, output channel j takes input channel
    (j mod g) * n + j // g. Spatial values are untouched."""
    return x[shuffle_sources(x.shape[0], groups)]


def shuffle_sources(channels: int, groups: int) -> list[int]:
    """Input channel index feeding each output channel of a shuffle."""
    if channels % groups != 0:
        raise ExecutionError(f"groups must divide input channels (g={groups}, C={channels})")
    n = channels // groups
    return [(j % groups) * n + j // groups for j in range(channels)]


def _execute(graph: ArchGraph, weights: Sequence[WeightTensor],
             input_tensor: Tensor3D) -> tuple[dict[str, np.ndarray], int]:
    """Every node's activation, in topological order, and the MACs done."""
    shapes = infer_shapes(graph)
    by_name = {}
    for t in weights:
        if t.name in by_name:
            raise ExecutionError(f"duplicate weight tensor {t.name!r}")
        by_name[t.name] = t
    expected = expected_weight_shapes(graph)
    for name, shape in expected.items():
        if name not in by_name:
            raise ExecutionError(f"missing weight tensor {name!r}")
        got = tuple(by_name[name].shape)
        if got != shape:
            raise ExecutionError(f"{name}: weight shape {got} does not match expected {shape}")
        if not np.all(np.isfinite(by_name[name].values)):
            raise ExecutionError(f"{name}: weights contain NaN or infinity")

    in_id = next(nid for nid, spec in graph.nodes if isinstance(spec, Input))
    declared = shapes[in_id]
    if input_tensor.shape != declared:
        raise ExecutionError(f"input shape {input_tensor.shape} does not match "
                             f"declared {declared}")

    counter = [0]
    specs = dict(graph.nodes)
    acts: dict[str, np.ndarray] = {}
    for nid, expect in shapes.items():
        spec = specs[nid]
        srcs = [acts[p] for p in graph.preds.get(nid, ())]
        if isinstance(spec, Input):
            out = input_tensor.chw()
        elif isinstance(spec, Conv):
            w = by_name[f"{nid}.weight"].values.reshape(expected[f"{nid}.weight"])
            bias = by_name[f"{nid}.bias"].values if spec.bias else None
            out = conv_forward(srcs[0], spec, w, bias, counter)
        elif isinstance(spec, FullyConnected):
            c, h, w_ = srcs[0].shape
            as_conv = Conv(h, w_, spec.filters, bias=spec.bias)
            wt = by_name[f"{nid}.weight"].values.reshape(expected[f"{nid}.weight"])
            bias = by_name[f"{nid}.bias"].values if spec.bias else None
            out = conv_forward(srcs[0], as_conv, wt, bias, counter)
        elif isinstance(spec, Pool):
            out = pool_forward(srcs[0], spec)
        elif isinstance(spec, GlobalAvgPool):
            out = srcs[0].astype(np.float64).mean(axis=(1, 2)).astype(np.float32)[:, None, None]
        elif isinstance(spec, ReLU):
            out = np.maximum(srcs[0], np.float32(0.0))
        elif isinstance(spec, Shuffle):
            out = shuffle_forward(srcs[0], spec.groups)
        else:  # Concat: infer_shapes above refused every type with no shape rule
            out = np.concatenate(srcs, axis=0)
        if out.shape != (expect.channels, expect.height, expect.width):
            raise ExecutionError(f"{nid}: produced shape {out.shape}, expected "
                                 f"({expect.channels}, {expect.height}, {expect.width})")
        acts[nid] = out
    return acts, counter[0]


def run(graph: ArchGraph, weights: Sequence[WeightTensor], input_tensor: Tensor3D) -> Tensor3D:
    """Execute the graph and return the sink activation: the last one in
    topological order, since every node of a one-sink DAG reaches the sink."""
    acts, _ = _execute(graph, weights, input_tensor)
    return Tensor3D.from_chw(next(reversed(acts.values())))


def run_all(graph: ArchGraph, weights: Sequence[WeightTensor],
            input_tensor: Tensor3D) -> dict[str, Tensor3D]:
    """Execute the graph and return every node's activation."""
    acts, _ = _execute(graph, weights, input_tensor)
    return {nid: Tensor3D.from_chw(a) for nid, a in acts.items()}


def count_macs_instrumented(graph: ArchGraph) -> int:
    """Exact MAC count from an instrumented execution on zero weights and a
    zero input: the count does not depend on values."""
    weights = [WeightTensor(name, shape, np.zeros(int(np.prod(shape)), dtype=np.float32))
               for name, shape in expected_weight_shapes(graph).items()]
    shape = next(spec.shape for _, spec in graph.nodes if isinstance(spec, Input))
    _, macs = _execute(graph, weights, Tensor3D(shape, np.zeros(shape.elements, dtype=np.float32)))
    return macs
