"""Differential test of the bound walk against the per-node isinstance rules.

``ref_walk`` and ``ref_layer_costs`` below are a frozen copy of the shape,
check and cost rules as they stood before the rule tables: every node's
type is found by a chain of ``isinstance`` tests, and the cost table
re-reads each node's input shapes from the shape map; both walk the
graph in the order of the shipped ``topological_order``. On a seeded corpus
of valid and broken graphs, ``validate``, ``infer_shapes``, ``layer_costs``
and ``activation_traffic_words`` must give the same values, in the same
order, or raise the same exception with the same message. The cost
model's one-pass loop (``costs._price``) must accept exactly the graphs
that ``validate`` accepts and that declare every predecessor before its
consumer, and decline every other graph to the walk.

The corpus has the zoo graphs and ``properties.random_graph`` draws, then
seeded mutations of these. Most break a graph: rewired and unknown inputs,
cycles, duplicate ids, swapped or unregistered layer types, extra or missing
Input nodes, or a size no valid generator draws (a window past its input, a
strided concat branch, groups that divide neither filters nor channels).
The rest keep it valid: nodes declared out of order, or subclass specs.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np
import pytest

from convdse import costs, explore, zoo
from convdse.graph import (ArchGraph, Concat, Conv, FullyConnected, GlobalAvgPool, GraphError,
                           Input, LayerSpec, Pool, ReLU, ShapeError, Shuffle, TensorShape,
                           _spatial_size, infer_shapes, topological_order, validate)
from convdse.properties import random_graph


# ---- the reference: per-node isinstance rules --------------------------------

def ref_output_shape(spec, in_shapes, node_id):
    if isinstance(spec, (ReLU, Shuffle)):
        return in_shapes[0]
    if isinstance(spec, Input):
        return spec.shape
    if isinstance(spec, Conv):
        s = in_shapes[0]
        h = _spatial_size(s.height, spec.kernel_h, spec.stride, spec.pad, False)
        w = _spatial_size(s.width, spec.kernel_w, spec.stride, spec.pad, False)
        if h < 1 or w < 1:
            raise ShapeError(f"{node_id}: convolution output {h}x{w} is not positive "
                             f"(input {s}, kernel {spec.kernel_h}x{spec.kernel_w}, "
                             f"stride {spec.stride}, pad {spec.pad})")
        return TensorShape(h, w, spec.filters)
    if isinstance(spec, FullyConnected):
        return TensorShape(1, 1, spec.filters)
    if isinstance(spec, Pool):
        s = in_shapes[0]
        h = _spatial_size(s.height, spec.kernel, spec.stride, 0, spec.ceil_mode)
        w = _spatial_size(s.width, spec.kernel, spec.stride, 0, spec.ceil_mode)
        if h < 1 or w < 1:
            raise ShapeError(f"{node_id}: pool output {h}x{w} is not positive "
                             f"(input {s}, kernel {spec.kernel}, stride {spec.stride})")
        return TensorShape(h, w, s.channels)
    if isinstance(spec, GlobalAvgPool):
        return TensorShape(1, 1, in_shapes[0].channels)
    if isinstance(spec, Concat):
        h, w = in_shapes[0].height, in_shapes[0].width
        for s in in_shapes[1:]:
            if (s.height, s.width) != (h, w):
                raise ShapeError(f"{node_id}: concat inputs must share height and width "
                                 f"({s} vs {in_shapes[0]})")
        return TensorShape(h, w, sum(s.channels for s in in_shapes))
    raise GraphError(f"{node_id}: unknown layer type {type(spec).__name__}")


def ref_walk(graph):
    """(shapes, violations, shape_failed), as the pre-table walk made them."""
    specs = dict(graph.nodes)
    if len(specs) != len(graph.nodes):
        counts = Counter(nid for nid, _ in graph.nodes)
        return {}, [f"{nid}: duplicate id" for nid, n in counts.items() if n > 1], False

    violations = []
    inputs = [nid for nid, spec in graph.nodes if isinstance(spec, Input)]
    if not inputs:
        violations.append("graph: missing Input")
    elif len(inputs) > 1:
        violations.append(f"graph: multiple Input nodes ({', '.join(inputs)})")

    unknown = False
    for nid, spec in graph.nodes:
        preds = graph.preds.get(nid, ())
        for p in preds:
            if p not in specs:
                violations.append(f"{nid}: references unknown input {p!r}")
                unknown = True
        if isinstance(spec, Input):
            if preds:
                violations.append(f"{nid}: Input node must have no predecessors")
        elif isinstance(spec, Concat):
            if len(preds) < 2:
                violations.append(f"{nid}: Concat needs at least 2 predecessors, has {len(preds)}")
        elif len(preds) != 1:
            violations.append(f"{nid}: needs exactly one predecessor, has {len(preds)}")
        if isinstance(spec, Conv) and spec.filters % spec.groups != 0:
            violations.append(f"{nid}: groups must divide filters "
                              f"(g={spec.groups}, F={spec.filters})")
    if unknown:
        return {}, violations, False
    try:
        order = topological_order(graph)
    except GraphError as exc:
        violations.append(f"graph: {exc}")
        return {}, violations, False

    reachable = set(inputs[:1])
    shapes = {}
    shape_failed = False
    for nid in order:
        spec, preds = specs[nid], graph.preds.get(nid, ())
        if not reachable.isdisjoint(preds):
            reachable.add(nid)
        elif inputs and nid not in reachable:
            violations.append(f"{nid}: not reachable from Input")
        if isinstance(spec, Input):
            in_shapes = []
        elif preds and all(map(shapes.__contains__, preds)):
            in_shapes = list(map(shapes.__getitem__, preds))
        else:
            continue
        if isinstance(spec, (Conv, Shuffle)) and in_shapes[0].channels % spec.groups != 0:
            violations.append(f"{nid}: groups must divide input channels "
                              f"(g={spec.groups}, C_in={in_shapes[0].channels})")
        try:
            shapes[nid] = ref_output_shape(spec, in_shapes, nid)
        except GraphError as exc:
            violations.append(str(exc))
            shape_failed = shape_failed or isinstance(exc, ShapeError)

    consumed = {p for nid, _ in graph.nodes for p in graph.preds.get(nid, ())}
    sinks = [nid for nid, _ in graph.nodes if nid not in consumed]
    if len(sinks) != 1:
        violations.append(f"graph: expected exactly one sink node, found {len(sinks)} "
                          f"({', '.join(sinks)})")
    return shapes, violations, shape_failed


def ref_infer_shapes(graph):
    shapes, violations, shape_failed = ref_walk(graph)
    if violations:
        error = ShapeError if shape_failed else GraphError
        raise error(f"invalid graph {graph.name!r}: " + "; ".join(violations))
    return shapes


def ref_weight_shapes(spec, in_shape):
    if isinstance(spec, Conv):
        c_in = in_shape.channels
        if c_in % spec.groups != 0:
            raise ValueError(f"groups must divide input channels (g={spec.groups}, C_in={c_in})")
        weight = (spec.filters, c_in // spec.groups, spec.kernel_h, spec.kernel_w)
    elif isinstance(spec, FullyConnected):
        weight = (spec.filters, in_shape.channels, in_shape.height, in_shape.width)
    elif isinstance(spec, (Input, Pool, GlobalAvgPool, ReLU, Shuffle, Concat)):
        return {}
    else:
        raise ValueError(f"unknown layer type {type(spec).__name__}")
    return {"weight": weight, "bias": (spec.filters,)} if spec.bias else {"weight": weight}


def ref_layer_costs(graph):
    """(node_id, spec, in_shapes, out_shape, weights, params, macs,
    live_words) per node, and the activation traffic."""
    shapes = ref_infer_shapes(graph)
    preds = graph.preds
    last_use = {}
    for i, nid in enumerate(shapes):
        last_use[nid] = i
        for p in preds.get(nid, ()):
            last_use[p] = i
    freed = [0] * len(shapes)
    for nid, i in last_use.items():
        freed[i] += shapes[nid].elements
    specs = dict(graph.nodes)
    rows = []
    live = traffic = 0
    for i, (nid, out) in enumerate(shapes.items()):
        spec = specs[nid]
        in_shapes = tuple(shapes[p] for p in preds.get(nid, ()))
        w = ref_weight_shapes(spec, in_shapes[0]) if in_shapes else {}
        params = sum(math.prod(s) for s in w.values())
        macs = math.prod(w["weight"]) * out.height * out.width if w else 0
        live += out.elements
        rows.append((nid, spec, in_shapes, out, w, params, macs, live))
        live -= freed[i]
        traffic += out.elements + sum(s.elements for s in in_shapes)
    return rows, traffic


# ---- the corpus ---------------------------------------------------------------

@dataclass(frozen=True)
class WideConv(Conv):
    """A Conv subclass, bound by the rules of its base."""


@dataclass(frozen=True)
class SlowPool(Pool):
    """A Pool subclass, bound by the rules of its base."""


@dataclass(frozen=True)
class Mystery(LayerSpec):
    """A layer type no rule knows."""


SUBCLASS = {Conv: WideConv, Pool: SlowPool}


def mutate(graph: ArchGraph, rng: np.random.Generator) -> ArchGraph:
    """One seeded change of the valid ``graph``: mostly a break of its structure
    or of a size; one kind swaps each Conv and Pool for a subclass."""
    nodes = list(graph.nodes)
    preds = dict(graph.preds)
    ids = [nid for nid, _ in nodes]
    i = int(rng.integers(len(nodes)))
    nid, spec = nodes[i]
    sized = [j for j, (_, s) in enumerate(nodes) if isinstance(s, (Conv, Pool, Shuffle, Concat))]
    kind = int(rng.integers(13 if sized else 10))
    if kind == 0:  # rewire to any nodes, later ones and itself included
        preds[nid] = tuple(str(rng.choice(ids)) for _ in range(int(rng.integers(0, 4))))
    elif kind == 1:
        preds[nid] = preds.get(nid, ()) + ("ghost",)
    elif kind == 2:
        nodes.insert(int(rng.integers(len(nodes) + 1)), (nid, ReLU()))
    elif kind == 3:
        j = int(rng.integers(len(nodes)))
        nodes[i], nodes[j] = (nid, nodes[j][1]), (nodes[j][0], spec)
    elif kind == 4:
        nodes[i] = (nid, Mystery())
    elif kind == 5:
        nodes.append(("input2", Input(TensorShape(4, 4, 2))))
        preds["input2"] = ()
    elif kind == 6:
        nodes = [(n, ReLU() if isinstance(s, Input) else s) for n, s in nodes]
    elif kind == 7:
        nodes.reverse()
    elif kind == 8:
        preds[nid] = ()
    elif kind == 9:
        nodes = [(n, SUBCLASS[type(s)](**vars(s)) if type(s) in SUBCLASS else s) for n, s in nodes]
    else:  # a size random_graph never draws, at a node that has one
        j = int(rng.choice(sized))
        nid, spec = nodes[j]
        src = infer_shapes(graph)[preds[nid][0]]
        if isinstance(spec, Concat):  # a strided branch
            j = ids.index(preds[nid][0])
            nid, spec, change = *nodes[j], {"stride": 2}
        elif isinstance(spec, Shuffle) or kind == 10 and isinstance(spec, Conv):
            # groups that divide neither the filters nor the input channels
            change = {"groups": src.channels + getattr(spec, "filters", 0) + 1}
        else:  # a window past its padded input
            key = "kernel_h" if isinstance(spec, Conv) else "kernel"
            change = {key: src.height + 2 * getattr(spec, "pad", 0) + spec.stride}
        nodes[j] = (nid, replace(spec, **change))
    return ArchGraph(graph.name, tuple(nodes), preds)


def corpus() -> list[ArchGraph]:
    graphs = [explore.build_family(f, {}) for f in ("alexnet", "vgg19", "squeezenet",
                                                     "mobilenet")]
    graphs += [zoo.squeezenet(p) for p in (0.125, 0.75)]
    rng = np.random.default_rng(20140)
    graphs += [random_graph(rng) for _ in range(180)]
    graphs += [mutate(graphs[int(rng.integers(len(graphs)))], rng) for _ in range(240)]
    return graphs


CORPUS = corpus()


def _outcome(fn, *args):
    """The value of ``fn(*args)``, or the type and message it raised."""
    try:
        return "value", fn(*args)
    except Exception as exc:  # noqa: BLE001 -- the type is compared, not hidden
        return type(exc).__name__, str(exc)


def declared_in_order(graph: ArchGraph) -> bool:
    """Whether every predecessor is declared before its consumer."""
    seen = set()
    for nid, _ in graph.nodes:
        if not seen.issuperset(graph.preds.get(nid, ())):
            return False
        seen.add(nid)
    return True


def test_corpus_has_valid_and_broken_graphs_of_every_kind():
    # so that a change to the generators cannot quietly leave a side empty
    verdicts = Counter(not ref_walk(g)[1] for g in CORPUS)
    assert verdicts[True] >= 150 and verdicts[False] >= 150
    messages = " ".join(v for g in CORPUS for v in ref_walk(g)[1])
    for fragment in ("duplicate id", "references unknown input", "graph contains a cycle",
                     "unknown layer type Mystery", "multiple Input nodes", "missing Input",
                     "needs exactly one predecessor", "Concat needs at least 2",
                     "groups must divide input channels", "groups must divide filters",
                     "convolution output", "pool output", "concat inputs must share",
                     "not reachable from Input", "expected exactly one sink"):
        assert fragment in messages, fragment
    valid = [(g, ref_infer_shapes(g)) for g in CORPUS if not ref_walk(g)[1]]
    nodes = [(g, shapes, nid, s) for g, shapes in valid for nid, s in g.nodes]
    # both pricing routes (bound in the one loop, or sorted by the walk first),
    # and the rule lookup along the MRO of a subclass spec
    assert sum(not declared_in_order(g) for g, _ in valid) >= 10
    assert sum(any(type(s) in (WideConv, SlowPool) for _, s in g.nodes) for g, _ in valid) >= 10
    assert any(type(s) is WideConv for *_, s in nodes)
    assert any(type(s) is SlowPool for *_, s in nodes)
    assert any(isinstance(s, Conv) and s.kernel_h != s.kernel_w and s.stride > 1 and s.pad > 0
               for *_, s in nodes)
    assert any(isinstance(s, Concat) and len(g.preds[nid]) >= 3 for g, _, nid, s in nodes)
    assert any(isinstance(s, FullyConnected) and shapes[g.preds[nid][0]].height > 1
               for g, shapes, nid, s in nodes)
    assert any(isinstance(s, Shuffle) and s.groups > 1
               and getattr(dict(g.nodes)[g.preds[nid][0]], "groups", 1) > 1
               for g, _, nid, s in nodes)


def test_one_pass_loop_accepts_exactly_the_valid_graphs_declared_in_order():
    wrong = [(index, graph.name) for index, graph in enumerate(CORPUS)
             if (costs._price(graph.nodes, graph.preds) is not None)
             != (validate(graph) == [] and declared_in_order(graph))]
    assert wrong == []


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_walk_matches_the_isinstance_rules(index):
    graph = CORPUS[index]
    assert validate(graph) == ref_walk(graph)[1]
    new, ref = _outcome(infer_shapes, graph), _outcome(ref_infer_shapes, graph)
    if new[0] == "value" == ref[0]:
        assert list(new[1].items()) == list(ref[1].items())
        assert all(type(s) is TensorShape for s in new[1].values())
    else:
        assert new == ref
    rows = _outcome(costs.layer_costs, graph)
    ref_rows = _outcome(ref_layer_costs, graph)
    if ref_rows[0] != "value":
        assert rows == ref_rows
        assert _outcome(costs.activation_traffic_words, graph) == ref_rows
        # the totals are priced without rows, so each one refuses on its own
        for total in (costs.report, costs.model_params, costs.model_macs,
                      costs.peak_activation_bytes):
            assert _outcome(total, graph) == ref_rows
        return
    ref_rows, ref_traffic = ref_rows[1]
    assert rows[0] == "value"
    assert [(r.node_id, r.spec, r.in_shapes, r.out_shape, r.weights, r.params, r.macs,
             r.live_words) for r in rows[1]] == ref_rows
    assert all(type(s) is TensorShape for r in rows[1] for s in (*r.in_shapes, r.out_shape))
    assert costs.activation_traffic_words(graph) == ref_traffic
    report = costs.report(graph)
    assert report.total_params == sum(r[5] for r in ref_rows)
    assert report.total_macs == sum(r[6] for r in ref_rows)
    assert report.peak_activation_bytes == 4 * max(r[7] for r in ref_rows)
    assert costs.model_params(graph) == report.total_params
    assert costs.model_macs(graph) == report.total_macs
    assert costs.peak_activation_bytes(graph, 2) == 2 * max(r[7] for r in ref_rows)


def test_one_memo_across_many_graphs_prices_as_a_fresh_run():
    # the pricing memo of a sweep, here shared by the corpus and 300 more
    # draws in a seeded order: a layer with weights met again on the same
    # input is read from the memo, and a declined graph adds nothing to it
    rng = np.random.default_rng(35)
    graphs = [random_graph(rng) for _ in range(300)] + CORPUS
    memo: dict = {}
    declined = refused = weighted = 0
    for i in rng.permutation(len(graphs)):
        graph = graphs[i]
        before = dict(memo)
        priced = costs._price(graph.nodes, graph.preds, memo=memo)
        assert priced == costs._price(graph.nodes, graph.preds)
        if priced is None:
            declined += 1
            assert memo == before
        # a graph declared out of order is priced again in the walk's order
        outcome = _outcome(functools.partial(costs._priced, memo=memo), graph)
        assert outcome == _outcome(costs._priced, graph)
        if outcome[0] != "value":
            refused += 1
            assert memo == before
        else:
            weighted += sum(weight is not None for _, weight, _, _ in outcome[1][2])
    # a layer with weights that did not add an entry was read from the memo
    assert declined > refused >= 150 and weighted - len(memo) > 1000
