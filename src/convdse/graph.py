"""Typed layer-graph IR for convolutional architectures.

Graphs are DAGs of layer nodes with exactly one input node and one sink.
All structures are immutable after construction; every operation here is a
pure function, so graphs can be shared freely between threads.

Each layer type has one shape rule in ``_SHAPE_RULES``; a subclass of a
layer type uses its base's rule. ``_walk`` is the one checker: it finds
every node's rule, checks the structure, then calls the rules in
topological order, so ``validate`` and ``infer_shapes`` read the same
walk. The cost model in ``costs`` calls the same rules in its own pricing
loop, which binds a graph declared in topological order as it prices it
and leaves every other graph to the walk (``_bind``). Integers inside,
objects at the edge: the rules and the walk bind plain (height, width,
channels) triples, and only ``infer_shapes`` wraps them in TensorShape.

Equal layer specs are one shared instance: ``GraphBuilder`` and the
descriptor parser build every spec through ``shared_spec``, a bounded cache
keyed by the layer class and its typed arguments. A spec is immutable, so
sharing it is safe, and no result depends on a spec's identity: specs
compare by value, and the walk and the pricing loop compare only rules with
``is``. Only the hit rate of a sweep's pricing memo does (``costs._price``):
it is keyed by the spec instance, so an unshared spec is priced again.
"""

from __future__ import annotations

import functools
import heapq
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional


class GraphError(ValueError):
    """Structural problem that prevents an operation from running."""

    exit_code = 1


class ShapeError(GraphError):
    """Shape inference produced an impossible dimension."""


@dataclass(frozen=True)
class TensorShape:
    """Height x width x channels of one activation tensor."""

    height: int
    width: int
    channels: int

    def __post_init__(self):
        _require_positive(self, "height width channels", self.height, self.width, self.channels)

    @property
    def elements(self) -> int:
        return self.height * self.width * self.channels

    def __str__(self) -> str:
        return f"{self.height}x{self.width}x{self.channels}"


#: An activation's (height, width, channels), as the walk binds it.
Dims = tuple[int, int, int]


def _require_positive(obj, names: str, *values, least: int = 1) -> None:
    """The one count check of the IR and the zoo: raise ValueError naming
    the first field of ``obj`` that is not an int (a bool, a float or a
    numpy integer is not one) of at least ``least``, 1 or 0. ``names``, the
    fields space separated in the order of ``values``, is read only on a refusal."""
    for v in values:
        if type(v) is not int and (not isinstance(v, int) or isinstance(v, bool)) or v < least:
            name = next(n for n, w in zip(names.split(), values) if w is v)
            raise ValueError(f"{type(obj).__name__}.{name} must be a "
                             f"{'non-negative' if least < 1 else 'positive'} integer, got {v!r}")


def _require_bool(obj, name: str, value) -> None:
    """Raise ValueError unless field ``name`` of ``obj`` is True or False:
    the descriptor writes the value as given and reads back only a boolean."""
    if type(value) is not bool:
        raise ValueError(f"{type(obj).__name__}.{name} must be a boolean, got {value!r}")


class LayerSpec:
    """Base marker for layer variants; concrete layers are frozen dataclasses."""

    __slots__ = ()


@dataclass(frozen=True)
class Input(LayerSpec):
    shape: TensorShape


@dataclass(frozen=True)
class Conv(LayerSpec):
    kernel_h: int
    kernel_w: int
    filters: int
    groups: int = 1
    stride: int = 1
    pad: int = 0
    bias: bool = True

    def __post_init__(self):
        _require_positive(self, "kernel_h kernel_w filters groups stride", self.kernel_h,
                          self.kernel_w, self.filters, self.groups, self.stride)
        _require_positive(self, "pad", self.pad, least=0)
        _require_bool(self, "bias", self.bias)


@dataclass(frozen=True)
class FullyConnected(LayerSpec):
    filters: int
    bias: bool = True

    def __post_init__(self):
        _require_positive(self, "filters", self.filters)
        _require_bool(self, "bias", self.bias)


@dataclass(frozen=True)
class Pool(LayerSpec):
    kind: str  # "max" or "avg"
    kernel: int
    stride: int
    ceil_mode: bool = False

    def __post_init__(self):
        if self.kind not in ("max", "avg"):
            raise ValueError(f"Pool.kind must be 'max' or 'avg', got {self.kind!r}")
        _require_positive(self, "kernel stride", self.kernel, self.stride)
        _require_bool(self, "ceil_mode", self.ceil_mode)


@dataclass(frozen=True)
class GlobalAvgPool(LayerSpec):
    pass


@dataclass(frozen=True)
class ReLU(LayerSpec):
    pass


@dataclass(frozen=True)
class Shuffle(LayerSpec):
    groups: int

    def __post_init__(self):
        _require_positive(self, "groups", self.groups)


@dataclass(frozen=True)
class Concat(LayerSpec):
    pass


#: The most distinct specs ``shared_spec`` keeps; past it the least recently
#: used one is dropped. The bench sweep of 240 squeezenet cells builds 185
#: distinct specs (80 FireSpecs) and its 2,103-node descriptor about 117, so
#: a sweep over thousands of distinct widths cannot grow the cache without limit.
SPEC_CACHE_BOUND = 1024


@functools.lru_cache(maxsize=SPEC_CACHE_BOUND, typed=True)
def _cached_spec(cls: type, *args) -> LayerSpec:
    return cls(*args)


def shared_spec(cls: type, *args) -> LayerSpec:
    """``cls(*args)``, shared: equal arguments of the same types give the
    same instance. A refused value raises on every call and is never
    cached, and an argument that cannot be hashed goes straight to
    ``cls(*args)``, so the class's own check refuses it with its own
    message."""
    try:
        return _cached_spec(cls, *args)
    except TypeError:  # an unhashable argument; a TypeError of cls itself is raised again
        return cls(*args)


@dataclass(frozen=True)
class ArchGraph:
    """Named DAG of layers. ``nodes`` is ordered; ``preds`` maps node id to
    the ordered tuple of predecessor ids (empty for the input node)."""

    name: str
    nodes: tuple[tuple[str, LayerSpec], ...]
    preds: Mapping[str, tuple[str, ...]]


class GraphBuilder:
    """Incrementally assembles an ArchGraph; node ids are auto-generated
    unless given explicitly."""

    def __init__(self, name: str):
        self.name = name
        self._nodes: list[tuple[str, LayerSpec]] = []
        self._preds: dict[str, tuple[str, ...]] = {}
        self._counts: dict[str, int] = {}

    def _auto_name(self, prefix: str) -> str:
        self._counts[prefix] = self._counts.get(prefix, 0) + 1
        return f"{prefix}{self._counts[prefix]}"

    def add(self, spec: LayerSpec, inputs: Iterable[str] = (), name: Optional[str] = None) -> str:
        node_id = name if name is not None else self._auto_name(type(spec).__name__.lower())
        if node_id in self._preds:
            raise GraphError(f"duplicate id {node_id!r}")
        inputs = tuple(inputs)
        for src in inputs:
            if src not in self._preds:
                raise GraphError(f"{node_id!r} references unknown input {src!r}")
        self._nodes.append((node_id, spec))
        self._preds[node_id] = inputs
        return node_id

    def input(self, shape: TensorShape, name: str = "input") -> str:
        return self.add(Input(shape), (), name)

    def conv(self, src: str, kernel, filters: int, *, groups: int = 1, stride: int = 1,
             pad: int = 0, bias: bool = True, name: Optional[str] = None) -> str:
        kh, kw = ((kernel, kernel) if type(kernel) is int or not isinstance(kernel, (tuple, list))
                  or len(kernel) != 2 else kernel)
        return self.add(shared_spec(Conv, kh, kw, filters, groups, stride, pad, bias), (src,),
                        name)

    def fc(self, src: str, filters: int, *, bias: bool = True, name: Optional[str] = None) -> str:
        return self.add(shared_spec(FullyConnected, filters, bias), (src,), name)

    def maxpool(self, src: str, kernel: int, stride: int, *, ceil_mode: bool = False,
                name: Optional[str] = None) -> str:
        return self.add(shared_spec(Pool, "max", kernel, stride, ceil_mode), (src,), name)

    def avgpool(self, src: str, kernel: int, stride: int, *, ceil_mode: bool = False,
                name: Optional[str] = None) -> str:
        return self.add(shared_spec(Pool, "avg", kernel, stride, ceil_mode), (src,), name)

    def gap(self, src: str, name: Optional[str] = None) -> str:
        return self.add(shared_spec(GlobalAvgPool), (src,), name)

    def relu(self, src: str, name: Optional[str] = None) -> str:
        return self.add(shared_spec(ReLU), (src,), name)

    def shuffle(self, src: str, groups: int, name: Optional[str] = None) -> str:
        return self.add(shared_spec(Shuffle, groups), (src,), name)

    def concat(self, srcs: Iterable[str], name: Optional[str] = None) -> str:
        return self.add(shared_spec(Concat), tuple(srcs), name)

    def build(self) -> ArchGraph:
        return ArchGraph(self.name, tuple(self._nodes), dict(self._preds))


def topological_order(graph: ArchGraph) -> list[str]:
    """Kahn's algorithm, breaking ties by node declaration order, so a graph
    declared in topological order, as every ``GraphBuilder`` graph is, comes
    back in declaration order.

    Raises GraphError on cycles or dangling predecessor references.
    """
    index = {nid: i for i, (nid, _) in enumerate(graph.nodes)}
    indeg = [0] * len(graph.nodes)
    succ: list[list[int]] = [[] for _ in graph.nodes]
    for i, (nid, _) in enumerate(graph.nodes):
        for p in graph.preds.get(nid, ()):
            j = index.get(p)
            if j is None:
                raise GraphError(f"{nid!r} references unknown input {p!r}")
            indeg[i] += 1
            succ[j].append(i)
    ready = [i for i, d in enumerate(indeg) if d == 0]  # ascending, so already a heap
    order: list[str] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(graph.nodes[i][0])
        for s in succ[i]:
            indeg[s] -= 1
            if indeg[s] == 0:
                heapq.heappush(ready, s)
    if len(order) < len(graph.nodes):
        raise GraphError("graph contains a cycle")
    return order


def _spatial_size(in_dim: int, kernel: int, stride: int, pad: int, ceil_mode: bool) -> int:
    """Number of window positions along one axis; the one rule that shape
    inference, the cost model and the executor share. With ``ceil_mode`` a
    trailing partial window counts, unless it would start at or past the
    input edge (the PyTorch rule). Zero or less means the axis collapsed."""
    span = in_dim + 2 * pad - kernel
    if not ceil_mode:
        return span // stride + 1
    out = -(-span // stride) + 1
    return out - 1 if (out - 1) * stride >= in_dim + pad else out


# Shape rules: one per layer type, called as rule(spec, in_shapes, node_id,
# violations) on plain (height, width, channels) int triples. A rule returns
# the output triple, appends a violation that still leaves the shape
# defined, and raises ShapeError naming the node when there is no shape.

def _dims(s: Dims) -> str:
    """An (h, w, c) triple as ``str(TensorShape)`` prints it."""
    return "{}x{}x{}".format(*s)


def _check_groups(spec, c_in: int, node_id: str, violations: list[str]) -> None:
    if c_in % spec.groups != 0:
        violations.append(f"{node_id}: groups must divide input channels "
                          f"(g={spec.groups}, C_in={c_in})")


def _input_shape(spec: Input, in_shapes, node_id, violations) -> Dims:
    s = spec.shape
    return s.height, s.width, s.channels


def _relu_shape(spec: ReLU, in_shapes, node_id, violations) -> Dims:
    return in_shapes[0]


def _shuffle_shape(spec: Shuffle, in_shapes, node_id, violations) -> Dims:
    _check_groups(spec, in_shapes[0][2], node_id, violations)
    return in_shapes[0]


def _conv_shape(spec: Conv, in_shapes, node_id, violations) -> Dims:
    s = in_shapes[0]
    _check_groups(spec, s[2], node_id, violations)
    h = _spatial_size(s[0], spec.kernel_h, spec.stride, spec.pad, False)
    w = _spatial_size(s[1], spec.kernel_w, spec.stride, spec.pad, False)
    if h < 1 or w < 1:
        raise ShapeError(f"{node_id}: convolution output {h}x{w} is not positive "
                         f"(input {_dims(s)}, kernel {spec.kernel_h}x{spec.kernel_w}, "
                         f"stride {spec.stride}, pad {spec.pad})")
    return h, w, spec.filters


def _fc_shape(spec: FullyConnected, in_shapes, node_id, violations) -> Dims:
    return 1, 1, spec.filters


def _pool_shape(spec: Pool, in_shapes, node_id, violations) -> Dims:
    s = in_shapes[0]
    h = _spatial_size(s[0], spec.kernel, spec.stride, 0, spec.ceil_mode)
    w = _spatial_size(s[1], spec.kernel, spec.stride, 0, spec.ceil_mode)
    if h < 1 or w < 1:
        raise ShapeError(f"{node_id}: pool output {h}x{w} is not positive "
                         f"(input {_dims(s)}, kernel {spec.kernel}, stride {spec.stride})")
    return h, w, s[2]


def _gap_shape(spec: GlobalAvgPool, in_shapes, node_id, violations) -> Dims:
    return 1, 1, in_shapes[0][2]


def _concat_shape(spec: Concat, in_shapes, node_id, violations) -> Dims:
    first = in_shapes[0]
    h, w, channels = first
    for s in in_shapes[1:]:
        if s[0] != h or s[1] != w:
            raise ShapeError(f"{node_id}: concat inputs must share height and width "
                             f"({_dims(s)} vs {_dims(first)})")
        channels += s[2]
    return h, w, channels


_SHAPE_RULES = {
    Input: _input_shape, Conv: _conv_shape, FullyConnected: _fc_shape, Pool: _pool_shape,
    GlobalAvgPool: _gap_shape, ReLU: _relu_shape, Shuffle: _shuffle_shape,
    Concat: _concat_shape,
}


def _rule_for(rules: Mapping[type, object], spec: LayerSpec):
    """The entry of ``rules`` for the type of ``spec``, else for its nearest
    registered base class, so a subclass binds as its base does; None when
    no class in its MRO is registered."""
    for cls in type(spec).__mro__:
        rule = rules.get(cls)
        if rule is not None:
            return rule
    return None


def _walk(graph: ArchGraph) -> tuple[dict[str, Dims], list[str], bool]:
    """Check and bind the whole graph in one O(N+E) pass, on plain
    integers: every shape here is an (h, w, c) triple, and only the public
    functions wrap one in a TensorShape.

    The first loop looks up each node's shape rule (``_SHAPE_RULES``) and
    checks its arity, its references and its grouping, and collects the
    consumed ids for the sink check. The second loop binds the nodes in
    topological order: it gathers each node's input triples once and hands
    them to the rule.

    Returns the output triple of every node that could be bound, keyed in
    topological order; every violation, each reported once; and whether a
    shape rule failed (a collapsed dimension or a concat mismatch).
    """
    nodes, all_preds = graph.nodes, graph.preds
    specs = dict(nodes)
    if len(specs) != len(nodes):
        counts = Counter(nid for nid, _ in nodes)
        # ids are ambiguous; further checks would mislead
        return {}, [f"{nid}: duplicate id" for nid, n in counts.items() if n > 1], False

    violations: list[str] = []
    inputs: list[str] = []
    bindings = {}  # node id -> (spec, shape rule, predecessor ids)
    consumed: set[str] = set()
    unknown = False
    for nid, spec in nodes:
        rule = _SHAPE_RULES.get(type(spec)) or _rule_for(_SHAPE_RULES, spec)
        preds = all_preds.get(nid, ())
        bindings[nid] = spec, rule, preds
        for p in preds:
            if p not in specs:
                violations.append(f"{nid}: references unknown input {p!r}")
                unknown = True
        consumed.update(preds)
        if rule is _input_shape:
            inputs.append(nid)
            if preds:
                violations.append(f"{nid}: Input node must have no predecessors")
        elif rule is _concat_shape:
            if len(preds) < 2:
                violations.append(f"{nid}: Concat needs at least 2 predecessors, has {len(preds)}")
        elif len(preds) != 1:
            violations.append(f"{nid}: needs exactly one predecessor, has {len(preds)}")
        if rule is _conv_shape and spec.filters % spec.groups != 0:
            violations.append(f"{nid}: groups must divide filters "
                              f"(g={spec.groups}, F={spec.filters})")
    if not inputs:
        violations.insert(0, "graph: missing Input")
    elif len(inputs) > 1:
        violations.insert(0, f"graph: multiple Input nodes ({', '.join(inputs)})")
    if unknown:
        return {}, violations, False
    try:
        order = topological_order(graph)
    except GraphError as exc:  # the references are known, so this is a cycle
        violations.append(f"graph: {exc}")
        return {}, violations, False

    reachable = set(inputs[:1])
    shapes: dict[str, Dims] = {}
    shape_failed = False
    for nid in order:
        spec, rule, preds = bindings[nid]
        if not reachable.isdisjoint(preds):
            reachable.add(nid)
        elif inputs and nid not in reachable:
            violations.append(f"{nid}: not reachable from Input")
        if rule is _input_shape:
            in_shapes = ()  # bound to its own shape; a predecessor is already a violation
        else:
            try:
                in_shapes = ((shapes[preds[0]],) if len(preds) == 1
                             else tuple(map(shapes.__getitem__, preds)))
            except KeyError:
                continue  # an input could not be bound; its violation is already recorded
            if not in_shapes:
                continue  # no input at all, already a violation
        if rule is None:
            violations.append(f"{nid}: unknown layer type {type(spec).__name__}")
            continue
        try:
            shapes[nid] = rule(spec, in_shapes, nid, violations)
        except ShapeError as exc:
            violations.append(str(exc))
            shape_failed = True

    sinks = [nid for nid, _ in nodes if nid not in consumed]
    if len(sinks) != 1:
        violations.append(f"graph: expected exactly one sink node, found {len(sinks)} "
                          f"({', '.join(sinks)})")
    return shapes, violations, shape_failed


def _bind(graph: ArchGraph) -> dict[str, Dims]:
    """The output triple of every node, keyed in topological order, for a
    graph without violations: what the cost model binds when its pricing
    loop declines a graph. Raises ShapeError naming the node when a
    dimension collapses, and GraphError listing every violation for any
    other invalid graph."""
    shapes, violations, shape_failed = _walk(graph)
    if violations:
        error = ShapeError if shape_failed else GraphError
        raise error(f"invalid graph {graph.name!r}: " + "; ".join(violations))
    return shapes


def validate(graph: ArchGraph) -> list[str]:
    """Return every structural, divisibility and shape violation; an empty
    list means ``infer_shapes`` and every cost function succeed.

    Violations are data, not exceptions: each entry names the offending node.
    """
    return _walk(graph)[1]


def infer_shapes(graph: ArchGraph) -> dict[str, TensorShape]:
    """Map every node id to its output shape, keyed in topological order.
    Raises ShapeError naming the node when a dimension collapses, and
    GraphError listing every violation for any other invalid graph."""
    return {nid: TensorShape(*s) for nid, s in _bind(graph).items()}


def lower_fc(graph: ArchGraph) -> ArchGraph:
    """Rewrite each fully-connected layer as a convolution spanning the full
    spatial extent of its input. Shapes and parameter counts are unchanged;
    the rewrite is idempotent."""
    shapes = infer_shapes(graph)
    new_nodes = []
    for nid, spec in graph.nodes:
        if isinstance(spec, FullyConnected):
            s = shapes[graph.preds[nid][0]]
            spec = Conv(s.height, s.width, spec.filters, groups=1, stride=1, pad=0,
                        bias=spec.bias)
        new_nodes.append((nid, spec))
    return ArchGraph(graph.name, tuple(new_nodes), dict(graph.preds))
