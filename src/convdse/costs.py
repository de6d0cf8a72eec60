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

Integers inside, objects at the edge: one loop binds each node's
(height, width, channels) triple and prices it in the same step, and
``report`` reads its totals from that loop; only ``layer_costs`` wraps its
numbers in LayerCost rows, and ``layer_params`` and ``layer_macs`` price
one layer as the only node after an Input, in the same loop, so they refuse
what the walk refuses. A graph declared in topological order, as every
``GraphBuilder`` graph is, is bound and priced in that one loop; any other
graph is checked by the graph walk first (``graph._bind``). A sweep hands
``report`` one pricing memo for all its cells, so a layer with weights
whose spec instance and input shape an earlier cell priced is read from it
instead of priced again; every other caller prices without one.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass, field, fields
from itertools import accumulate
from typing import ClassVar, Optional, get_args, get_type_hints

from .graph import (_SHAPE_RULES, ArchGraph, Conv, Dims, FullyConnected, Input, LayerSpec,
                    ShapeError, TensorShape, _bind, _concat_shape, _conv_shape, _fc_shape,
                    _input_shape, _rule_for)
from .settings import BATCH, Field, check_record


class InputFileError(ValueError):
    """A text input that is not UTF-8, or a JSON one that is not JSON, is
    nested too deeply for the parser or repeats a key in one object; the
    message names the file."""

    exit_code = 3


def read_text(path) -> str:
    """The text of the UTF-8 file at ``path``, line endings as written, so
    a CSV reader sees a quoted line break as it is; any other bytes raise
    ``InputFileError`` naming the file and the byte offset."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InputFileError(f"{path}: not UTF-8 (byte {exc.object[exc.start]:#04x} "
                                 f"at offset {exc.start})") from None


def parse_json(text: str, source, error: type[ValueError], object_pairs_hook=None):
    """The document in JSON ``text``; a syntax error, or nesting past the
    parser's recursion limit, raises ``error`` naming ``source``. An
    ``object_pairs_hook`` builds each object, as in ``json.loads``."""
    try:
        return json.loads(text, object_pairs_hook=object_pairs_hook)
    except json.JSONDecodeError as exc:
        raise error(f"{source}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise error(f"{source}: JSON nested too deeply") from None


def load_json(path):
    """The document in the JSON file at ``path``; a refusal names the file,
    and a key given twice in one object is refused naming the key."""

    def unique_keys(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen: set = set()
            key = next(k for k, _ in pairs if k in seen or seen.add(k))
            raise InputFileError(f"{path}: key {key!r} appears twice in one object")
        return obj

    return parse_json(read_text(path), path, InputFileError, unique_keys)


@functools.cache
def config_fields(cls) -> tuple[Field, ...]:
    """The fields of NumericConfig ``cls``: positive numbers, integers where annotated so."""
    hints = get_type_hints(cls)
    return tuple(Field(f.name, int if int in (hints[f.name], *get_args(hints[f.name])) else float,
                       f.default, "(0, inf)") for f in fields(cls))


class NumericConfig:
    """Base of a frozen dataclass of JSON numbers checked by ``config_fields``, named ``label``."""

    label: ClassVar[str]

    def __post_init__(self):
        cls = type(self)
        for name, value in check_record(vars(self), config_fields(cls), cls.__name__).items():
            object.__setattr__(self, name, value)

    @classmethod
    def load(cls, path):
        return cls(**check_record(load_json(path), config_fields(cls), f"{cls.label} {path}"))


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


# Weight rules, keyed by the shape rule of each layer type with weights:
# rule(spec, in_shape) on the layer's input (h, w, c) returns its 'weight'
# shape, (F, C/g, kh, kw) for a convolution and (F, C, H, W) for a
# fully-connected layer. A layer with weights also has a 'bias' of shape
# (F,) when ``spec.bias`` is set; one whose shape rule has no entry has none.
# Only ``_price`` calls them, after the shape rule found no violation.

def _conv_weight(spec: Conv, in_shape: Dims) -> tuple[int, int, int, int]:
    return spec.filters, in_shape[2] // spec.groups, spec.kernel_h, spec.kernel_w


def _fc_weight(spec: FullyConnected, in_shape: Dims) -> tuple[int, int, int, int]:
    # a fully-connected layer is a convolution spanning the full input extent
    h, w, c = in_shape
    return spec.filters, c, h, w


_WEIGHT_RULES = {_conv_shape: _conv_weight, _fc_shape: _fc_weight}


def _layer_totals(spec: LayerSpec, in_shape: TensorShape) -> tuple[int, int]:
    """Parameters and MACs of ``spec`` priced as the one node, named after
    its type, that reads an Input of ``in_shape``; a layer the walk refuses
    raises as ``infer_shapes`` does for that graph."""
    name = type(spec).__name__
    graph = ArchGraph(name, (("input", Input(in_shape)), (name, spec)),
                      {"input": (), name: ("input",)})
    return _priced(graph)[4][:2]


def layer_params(spec: LayerSpec, in_shape: TensorShape) -> int:
    """Learnable parameter count of one layer bound to its input shape, from the
    pricing loop; a layer the walk refuses raises (``_layer_totals``)."""
    return _layer_totals(spec, in_shape)[0]


def layer_macs(spec: LayerSpec, in_shape: TensorShape) -> int:
    """Multiply-accumulate count of one layer bound to its input shape, from the
    pricing loop; a layer the walk refuses raises (``_layer_totals``)."""
    return _layer_totals(spec, in_shape)[1]


@dataclass(slots=True)
class LayerCost:
    """One row of the per-layer cost table. ``weights`` holds the shapes of
    the 'weight' and 'bias' tensors; ``params`` counts their elements and
    ``macs`` is one MAC per 'weight' element per output position.
    ``live_words`` counts every activation live while the layer runs: its
    inputs, its own output, and earlier outputs a later layer still reads.

    Only ``layer_costs`` builds rows; the totals never go through them."""

    node_id: str
    spec: LayerSpec
    in_shapes: tuple[TensorShape, ...]
    out_shape: TensorShape
    weights: dict[str, tuple[int, ...]]
    params: int
    macs: int
    live_words: int


#: The most entries one pricing memo takes; past it a memo stops growing
#: and later layers are priced afresh. The bench sweep of 240 squeezenet
#: cells stores 741. An entry holds about 470 B (traced: its key and value
#: and the tuples and integers they keep alive), so the bound is about 3.9 MB.
PRICE_MEMO_BOUND = 8192


def _price(nodes, preds, *, memo=None):
    """Bind and price ``nodes``, (id, spec) pairs in the order given, in one
    loop on plain integers, or return None ("decline") as soon as the graph
    is one the walk (``graph._walk``) would report, or a node reads a
    predecessor that is not bound yet.

    Each node's output triple comes from its shape rule on its
    predecessors' triples; the same step takes its element count, the
    position of each input's last reader, its weight shape, parameters and
    MACs, and the activation traffic: each output written once and read
    once per consumer. Every node but the Input reads a bound predecessor,
    so every bound node is reachable from the Input. Returns each node's
    position, its output triple, its ``(spec, weight, params, macs)`` and
    its live words, in binding order, and the totals (params, MACs, peak
    live words, traffic).

    ``memo``, a dict shared by the graphs of one sweep, maps ``(id(spec),
    input triple)`` of a layer with weights to its output triple and its
    ``(spec, weight, params, macs)``: a layer found there skips its shape
    and weight rules, both pure functions of the spec and the triple. An
    entry holds its spec, so the id cannot be reused while it is stored,
    and it is read only for that very instance. A graph adds its layers
    only once it is priced, never when declined, and no more than
    ``PRICE_MEMO_BOUND`` entries in all.
    """
    position: dict[str, int] = {}
    shapes: list[Dims] = []
    sizes: list[int] = []
    last_use: list[int] = []
    priced = []
    violations: list[str] = []
    fresh: dict = {}
    params = macs = traffic = 0
    has_input = False
    shape_rule_of, weight_rule_of = _SHAPE_RULES.get, _WEIGHT_RULES.get
    for i, (nid, spec) in enumerate(nodes):
        rule = shape_rule_of(type(spec)) or _rule_for(_SHAPE_RULES, spec)
        if rule is None or nid in position:
            return None
        srcs = preds.get(nid, ())
        if rule is _input_shape:
            if srcs or has_input:
                return None
            has_input = True
            in_shapes = ()
        elif rule is _concat_shape:
            if len(srcs) < 2:
                return None
            in_list = []
            for src in srcs:
                j = position.get(src)
                if j is None:
                    return None
                last_use[j] = i
                traffic += sizes[j]
                in_list.append(shapes[j])
            in_shapes = tuple(in_list)
        elif len(srcs) != 1 or rule is _conv_shape and spec.filters % spec.groups:
            return None
        else:
            j = position.get(srcs[0])
            if j is None:
                return None
            last_use[j] = i
            traffic += sizes[j]
            in_shapes = (shapes[j],)
        weight_rule = weight_rule_of(rule)
        hit = None
        if weight_rule and memo is not None:
            key = id(spec), in_shapes[0]
            hit = memo.get(key) or fresh.get(key)
        if hit is not None and hit[1][0] is spec:
            out, cost = hit
        else:
            try:
                out = rule(spec, in_shapes, nid, violations)
            except ShapeError:
                return None
            if violations:
                return None
            if weight_rule:
                weight = weight_rule(spec, in_shapes[0])
                n = math.prod(weight)
                cost = spec, weight, n + spec.filters if spec.bias else n, n * out[0] * out[1]
                if memo is not None and len(memo) + len(fresh) < PRICE_MEMO_BOUND:
                    fresh[key] = out, cost
            else:
                cost = spec, None, 0, 0
        h, w, c = out
        position[nid] = i
        shapes.append(out)
        size = h * w * c
        sizes.append(size)
        last_use.append(i)
        traffic += size
        params += cost[2]
        macs += cost[3]
        priced.append(cost)
    freed = [0] * len(sizes)
    sinks = 0
    for j, i in enumerate(last_use):
        freed[i] += sizes[j]
        sinks += i == j  # an output no node reads
    if sinks != 1:  # also the empty graph; any other without an Input declined at its first node
        return None
    if fresh:
        memo.update(fresh)
    # while node i runs: every output up to its own, less those freed before it
    live = list(map(operator.sub, accumulate(sizes), accumulate(freed, initial=0)))
    return position, shapes, priced, live, (params, macs, max(live), traffic)


def _priced(graph: ArchGraph, *, memo=None):
    """``_price`` of the graph in declaration order, with ``memo`` if given.
    When the loop declines, the walk either raises as ``infer_shapes`` does
    or sorts a valid graph declared out of order, and the loop runs again in
    the walk's topological order, which it cannot decline."""
    priced = _price(graph.nodes, graph.preds, memo=memo)
    if priced is None:
        specs = dict(graph.nodes)
        priced = _price([(nid, specs[nid]) for nid in _bind(graph)], graph.preds, memo=memo)
    return priced


def layer_costs(graph: ArchGraph) -> list[LayerCost]:
    """Per-layer cost table in topological execution order: the declaration
    order of a graph declared in topological order, else the walk's order.
    A node's output is freed after its last consumer has run. The rows wrap
    the integers of the one loop that binds and prices the graph: shapes
    become TensorShape objects and the weight shape a 'weight'/'bias' dict
    only here. Raises as ``infer_shapes`` does for an invalid graph."""
    position, shapes, priced, live_words, _ = _priced(graph)
    objects = [TensorShape(*s) for s in shapes]
    preds = graph.preds
    rows = []
    for nid, out, (spec, weight, params, macs), live in zip(position, objects, priced,
                                                            live_words):
        weights = {} if weight is None else {"weight": weight}
        if weight is not None and spec.bias:
            weights["bias"] = (spec.filters,)
        in_shapes = tuple(objects[position[p]] for p in preds.get(nid, ()))
        rows.append(LayerCost(nid, spec, in_shapes, out, weights, params, macs, live))
    return rows


def model_params(graph: ArchGraph) -> int:
    return _priced(graph)[4][0]


def model_macs(graph: ArchGraph) -> int:
    return _priced(graph)[4][1]


def peak_activation_bytes(graph: ArchGraph, word_bytes: int = 4) -> int:
    """Maximum bytes of simultaneously live activations over a topological
    execution. A node's output stays live until its last consumer has run;
    while a node runs, its inputs and its own output are live together."""
    return _priced(graph)[4][2] * word_bytes


def activation_traffic_words(graph: ArchGraph) -> int:
    """Total input plus output activation words across all layers: every
    tensor is counted once when written and once per consumer read."""
    return _priced(graph)[4][3]


def energy_from_counts(total_macs: int, total_params: int, activation_words: int,
                       peak_activation_bytes_: int, platform: PlatformSpec,
                       batch: int = BATCH.default) -> float:
    """First-order per-frame energy from aggregate counts.

    Weights spill off-chip when they alone exceed on-chip capacity;
    activations spill when weights plus the peak activation footprint do.
    Spilled weight traffic amortizes over the batch (an int >= 1), activations do not.
    """
    BATCH.check(batch)
    storage = total_params * platform.word_bytes
    param_spill = total_params if storage > platform.on_chip_bytes else 0
    act_spill = (activation_words
                 if storage + peak_activation_bytes_ > platform.on_chip_bytes else 0)
    offchip = param_spill / batch + act_spill
    return total_macs * platform.e_mac + offchip * platform.offchip_ratio * platform.e_mac


class CostOverflowError(ValueError):
    """A metric past the float range: the graph, what overflowed, and the platform's source."""

    platform = ""

    def __str__(self):
        graph, detail = self.args
        return f"graph {graph!r}{self.platform}: cost metrics overflow a float ({detail})"


def report(graph: ArchGraph, platform: PlatformSpec = DEFAULT_PLATFORM,
           batch: int = BATCH.default, *, memo=None) -> MetricsReport:
    """Assemble the full metric vector for one architecture. A metric past
    the float range is a CostOverflowError naming the graph. ``memo`` is
    the pricing memo of ``_price``, which one sweep shares between its
    cells; the report is the same with it or without it."""
    params, macs, peak_words, traffic = _priced(graph, memo=memo)[4]
    storage = params * platform.word_bytes
    peak = peak_words * platform.word_bytes
    try:
        energy = energy_from_counts(macs, params, traffic, peak, platform, batch)
        # float products of finite operands overflow to inf without raising
        if not math.isfinite(energy):
            raise OverflowError(f"energy per frame is {energy}")
        fps = platform.macs_per_second / macs if macs > 0 else math.inf
        float(storage + peak)  # the tables print byte counts as floats too
    except OverflowError as exc:
        raise CostOverflowError(graph.name, exc) from None
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
