"""Analytical cost metrics for architecture graphs.

Counts parameters, storage, multiply-accumulates, peak live activation
bytes, and a first-order energy and throughput estimate for one inference
at batch size 1 (the natural batch for embedded vision).

Conventions, stated once:
  * one MAC = one multiply + one add; bias additions are not MACs
  * pooling, ReLU, shuffle, and concat cost zero parameters and zero MACs
  * the energy model is all-or-nothing: a weight or activation working set
    either fits on-chip (free) or spills entirely, with each spilled word
    costing ``offchip_ratio`` MAC-energies; it is a ranking proxy, not a
    hardware simulator
  * the frames-per-second figure is a pure compute-throughput proxy
    (macs_per_second / total_macs); memory pressure shows up in the energy
    term instead
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields
from typing import ClassVar, Optional, get_args, get_type_hints

from .graph import (ArchGraph, Concat, Conv, FullyConnected, GlobalAvgPool, Input, LayerSpec,
                    Pool, ReLU, Shuffle, TensorShape, _node_output_shape, infer_shapes)


class NumericConfig:
    """Base of a frozen dataclass of numbers read from a JSON object. Every
    field must be a finite positive number, and an integer where it is
    annotated ``int`` or ``Optional[int]``; one whose default is None may be
    left unset. ``label`` names the config in key errors."""

    label: ClassVar[str]

    def __post_init__(self):
        hints = get_type_hints(type(self))
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None and f.default is None:
                continue
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"{type(self).__name__}.{f.name} must be a number, got {v!r}")
            if not abs(v) <= sys.float_info.max:  # NaN, infinity, or an int no float holds
                raise ValueError(f"{type(self).__name__}.{f.name} must be finite, got {v!r}")
            if not isinstance(v, int) and int in (hints[f.name], *get_args(hints[f.name])):
                raise ValueError(f"{type(self).__name__}.{f.name} must be an integer, got {v!r}")
            if not v > 0:
                when = "positive when set" if f.default is None else "strictly positive"
                raise ValueError(f"{type(self).__name__}.{f.name} must be {when}")

    @classmethod
    def from_dict(cls, d: dict):
        if not isinstance(d, dict):
            raise ValueError(f"{cls.label}: top level must be an object")
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"{cls.label}: unknown key(s) {sorted(unknown)}")
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(d)
        if missing:
            raise ValueError(f"{cls.label}: missing key(s) {sorted(missing)}")
        return cls(**d)

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class PlatformSpec(NumericConfig):
    """Target platform constants for the energy/FPS proxies."""

    label: ClassVar[str] = "platform config"
    on_chip_bytes: int
    e_mac: float                 # joules per multiply-accumulate
    macs_per_second: float
    offchip_ratio: float = 100.0  # off-chip access energy in MAC-energies
    word_bytes: int = 4


#: Placeholder embedded target: 8 MiB SRAM, 1 pJ/MAC, 10 GMAC/s, fp32 words.
DEFAULT_PLATFORM = PlatformSpec(on_chip_bytes=8 * 1024 * 1024, e_mac=1e-12,
                                macs_per_second=1e10)


def _metric(label: str, unit: str):
    return field(metadata={"label": label, "unit": unit})


@dataclass(frozen=True)
class MetricsReport:
    """The metric vector for one architecture on one platform. Accuracy and
    training latency are recorded externally, never computed here. Each
    computed metric carries its human label and unit as field metadata,
    which the ``describe`` table, the sweep CSV and ``value_of`` read."""

    name: str
    total_params: int = _metric("parameters", "params")
    storage_bytes: int = _metric("storage", "B")
    total_macs: int = _metric("compute", "MACs")
    peak_activation_bytes: int = _metric("peak activations", "B")
    energy_per_frame: float = _metric("energy/frame", "J")
    fps_proxy: float = _metric("throughput", "FPS (proxy)")
    ota_bytes: int = _metric("OTA update", "B")
    recorded_top5_error: Optional[float] = None
    recorded_training_latency: Optional[float] = None

    def to_dict(self) -> dict:
        """The fields in declaration order; an infinite fps_proxy is None."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        if not math.isfinite(self.fps_proxy):
            d["fps_proxy"] = None
        return d


def _weight_shapes(spec: LayerSpec, in_shape: TensorShape) -> dict[str, tuple[int, ...]]:
    """The learnable tensors of one layer bound to its input shape: 'weight'
    as (F, C/g, kh, kw) for a convolution and (F, C, H, W) for a
    fully-connected layer, plus 'bias' as (F,) when the layer has one."""
    if isinstance(spec, Conv):
        c_in = in_shape.channels
        if c_in % spec.groups != 0:
            raise ValueError(f"groups must divide input channels (g={spec.groups}, C_in={c_in})")
        weight = (spec.filters, c_in // spec.groups, spec.kernel_h, spec.kernel_w)
    elif isinstance(spec, FullyConnected):
        # a fully-connected layer is a convolution spanning the full input extent
        weight = (spec.filters, in_shape.channels, in_shape.height, in_shape.width)
    elif isinstance(spec, (Input, Pool, GlobalAvgPool, ReLU, Shuffle, Concat)):
        return {}
    else:
        raise ValueError(f"unknown layer type {type(spec).__name__}")
    return {"weight": weight, "bias": (spec.filters,)} if spec.bias else {"weight": weight}


def _params(weights: dict[str, tuple[int, ...]]) -> int:
    return sum(map(math.prod, weights.values()))


def _macs(weights: dict[str, tuple[int, ...]], out: TensorShape) -> int:
    return math.prod(weights["weight"]) * out.height * out.width if weights else 0


def layer_params(spec: LayerSpec, in_shape: TensorShape) -> int:
    """Learnable parameter count of one layer bound to its input shape."""
    return _params(_weight_shapes(spec, in_shape))


def layer_macs(spec: LayerSpec, in_shape: TensorShape) -> int:
    """Multiply-accumulate count of one layer bound to its input shape."""
    weights = _weight_shapes(spec, in_shape)
    return _macs(weights, _node_output_shape(spec, [in_shape], type(spec).__name__))


@dataclass(frozen=True)
class LayerCost:
    """One row of the per-layer cost table. ``weights`` holds the shapes of
    the 'weight' and 'bias' tensors; ``params`` counts their elements and
    ``macs`` is one MAC per 'weight' element per output position.
    ``live_words`` counts every activation live while the layer runs: its
    inputs, its own output, and earlier outputs a later layer still reads."""

    node_id: str
    spec: LayerSpec
    in_shapes: tuple[TensorShape, ...]
    out_shape: TensorShape
    weights: dict[str, tuple[int, ...]]
    params: int
    macs: int
    live_words: int


def layer_costs(graph: ArchGraph) -> list[LayerCost]:
    """Per-layer cost table in topological execution order, built from one
    shape-inference walk. A node's output is freed after its last consumer
    has run."""
    shapes = infer_shapes(graph)
    last_use: dict[str, int] = {}
    for i, nid in enumerate(shapes):
        last_use[nid] = i
        for p in graph.preds.get(nid, ()):
            last_use[p] = i
    freed = [0] * len(shapes)
    for nid, i in last_use.items():
        freed[i] += shapes[nid].elements
    specs = dict(graph.nodes)
    rows = []
    live = 0
    for i, (nid, out) in enumerate(shapes.items()):
        spec = specs[nid]
        in_shapes = tuple(shapes[p] for p in graph.preds.get(nid, ()))
        w = _weight_shapes(spec, in_shapes[0]) if in_shapes else {}
        live += out.elements
        rows.append(LayerCost(nid, spec, in_shapes, out, w, _params(w), _macs(w, out), live))
        live -= freed[i]
    return rows


def _traffic_words(table: list[LayerCost]) -> int:
    return sum(row.out_shape.elements + sum(s.elements for s in row.in_shapes)
               for row in table)


def model_params(graph: ArchGraph) -> int:
    return sum(row.params for row in layer_costs(graph))


def model_macs(graph: ArchGraph) -> int:
    return sum(row.macs for row in layer_costs(graph))


def peak_activation_bytes(graph: ArchGraph, word_bytes: int = 4) -> int:
    """Maximum bytes of simultaneously live activations over a topological
    execution. A node's output stays live until its last consumer has run;
    while a node runs, its inputs and its own output are live together."""
    return max(row.live_words for row in layer_costs(graph)) * word_bytes


def activation_traffic_words(graph: ArchGraph) -> int:
    """Total input plus output activation words across all layers: every
    tensor is counted once when written and once per consumer read."""
    return _traffic_words(layer_costs(graph))


def energy_from_counts(total_macs: int, total_params: int, activation_words: int,
                       peak_activation_bytes_: int, platform: PlatformSpec,
                       batch: int = 1) -> float:
    """First-order per-frame energy from aggregate counts.

    Weights spill off-chip when they alone exceed on-chip capacity;
    activations spill when weights plus the peak activation footprint do.
    Spilled weight traffic amortizes over the batch, activations do not.
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    storage = total_params * platform.word_bytes
    param_spill = total_params if storage > platform.on_chip_bytes else 0
    act_spill = (activation_words
                 if storage + peak_activation_bytes_ > platform.on_chip_bytes else 0)
    offchip = param_spill / batch + act_spill
    return total_macs * platform.e_mac + offchip * platform.offchip_ratio * platform.e_mac


def report(graph: ArchGraph, platform: PlatformSpec = DEFAULT_PLATFORM,
           batch: int = 1) -> MetricsReport:
    """Assemble the full metric vector for one architecture. A metric past
    the float range is a ValueError naming the graph."""
    table = layer_costs(graph)
    params = sum(row.params for row in table)
    macs = sum(row.macs for row in table)
    storage = params * platform.word_bytes
    peak = max(row.live_words for row in table) * platform.word_bytes
    try:
        energy = energy_from_counts(macs, params, _traffic_words(table), peak, platform, batch)
        fps = platform.macs_per_second / macs if macs > 0 else math.inf
        float(storage + peak)  # the tables print byte counts as floats too
    except OverflowError as exc:
        raise ValueError(f"graph {graph.name!r}: cost metrics overflow a float ({exc})") from None
    return MetricsReport(
        name=graph.name,
        total_params=params,
        storage_bytes=storage,
        total_macs=macs,
        peak_activation_bytes=peak,
        energy_per_frame=energy,
        fps_proxy=fps,
        ota_bytes=storage,
    )
