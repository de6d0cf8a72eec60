import heapq
import json
import re
from dataclasses import dataclass

import numpy as np
import pytest

from convdse.graph import (ArchGraph, Concat, Conv, FullyConnected, GlobalAvgPool,
                           GraphBuilder, GraphError, Input, LayerSpec, Pool, ReLU, ShapeError,
                           Shuffle, TensorShape, infer_shapes, lower_fc,
                           topological_order, validate)
from convdse import costs, graph
from convdse.descriptor import DescriptorError, parse, serialize
from convdse.properties import random_graph


def chain(*layers, input_shape=TensorShape(8, 8, 4), name="chain"):
    b = GraphBuilder(name)
    x = b.input(input_shape)
    for layer in layers:
        x = b.add(layer, (x,))
    return b.build()


class TestTensorShape:
    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            TensorShape(0, 4, 4)
        with pytest.raises(ValueError):
            TensorShape(4, -1, 4)
        with pytest.raises(ValueError):
            TensorShape(4, 4, 0)

    def test_elements(self):
        assert TensorShape(10, 10, 10).elements == 1000

    class Size(int):
        pass

    @pytest.mark.parametrize("value", [1, 2**70, Size(3)], ids=["one", "huge", "int_subclass"])
    def test_accepts_every_positive_int(self, value):
        assert TensorShape(4, value, 4).width == value
        assert Conv(3, 3, value).filters == value
        assert Pool("max", 2, value).stride == value

    @pytest.mark.parametrize("value", [0, -2, True, False, 2.0, "2", None, Size(0), np.int64(2)])
    def test_rejects_anything_else_naming_the_field(self, value):
        with pytest.raises(ValueError, match=re.escape(f"width must be a positive integer, "
                                                       f"got {value!r}")):
            TensorShape(4, value, 4)
        with pytest.raises(ValueError, match=re.escape(f"Conv.groups must be a positive "
                                                       f"integer, got {value!r}")):
            Conv(3, 3, 8, groups=value)
        with pytest.raises(ValueError, match=re.escape(f"Shuffle.groups must be a positive "
                                                       f"integer, got {value!r}")):
            Shuffle(value)

    def test_a_refused_value_equal_to_an_earlier_field_names_its_own_field(self):
        with pytest.raises(ValueError, match=r"^Conv\.kernel_w must be a positive integer, "
                                             r"got 2\.0$"):
            Conv(2, 2.0, 8)

    @pytest.mark.parametrize("pad, accepted", [(0, True), (2, True), (-1, False), (True, False),
                                               (1.0, False), (np.int64(1), False)])
    def test_conv_pad_is_a_non_negative_python_int(self, pad, accepted):
        if accepted:
            assert Conv(3, 3, 8, pad=pad).pad == pad
            return
        with pytest.raises(ValueError) as exc:
            Conv(3, 3, 8, pad=pad)
        assert str(exc.value) == f"Conv.pad must be a non-negative integer, got {pad!r}"


class TestValidate:
    def test_single_input_node_is_ok(self):
        b = GraphBuilder("just_input")
        b.input(TensorShape(4, 4, 3))
        assert validate(b.build()) == []

    def test_groups_must_divide_filters(self):
        g = chain(Conv(1, 1, 8, groups=3))
        assert any("groups must divide filters" in v for v in validate(g))

    def test_shuffle_groups_must_divide_channels(self):
        g = chain(Shuffle(4), input_shape=TensorShape(4, 4, 6))
        violations = validate(g)
        assert any("groups must divide input channels" in v for v in violations)

    def test_conv_groups_must_divide_input_channels(self):
        g = chain(Conv(1, 1, 4, groups=4), input_shape=TensorShape(4, 4, 6))
        assert any("groups must divide input channels" in v for v in validate(g))

    def test_concat_needs_two_predecessors(self):
        b = GraphBuilder("bad_concat")
        x = b.input(TensorShape(4, 4, 3))
        b.add(Concat(), (x,))
        assert any("at least 2 predecessors" in v for v in validate(b.build()))

    def test_concat_spatial_mismatch(self):
        b = GraphBuilder("mismatch")
        x = b.input(TensorShape(8, 8, 4))
        left = b.conv(x, 1, 4)
        right = b.maxpool(x, 2, 2)
        b.concat([left, right])
        assert any("share height and width" in v for v in validate(b.build()))

    def test_missing_input(self):
        g = ArchGraph("empty-ish", (("r", ReLU()),), {"r": ()})
        assert any("missing Input" in v for v in validate(g))

    def test_cycle_detected(self):
        g = ArchGraph("loop", (("input", Input(TensorShape(2, 2, 2))),
                               ("a", ReLU()), ("b", ReLU())),
                      {"input": (), "a": ("b",), "b": ("a",)})
        assert any("cycle" in v for v in validate(g))

    def test_duplicate_ids(self):
        g = ArchGraph("dup", (("input", Input(TensorShape(2, 2, 2))),
                              ("x", ReLU()), ("x", ReLU())),
                      {"input": (), "x": ("input",)})
        assert any("duplicate id" in v for v in validate(g))

    def test_two_sinks(self):
        b = GraphBuilder("fork")
        x = b.input(TensorShape(4, 4, 3))
        b.relu(x)
        b.relu(x)
        assert any("sink" in v for v in validate(b.build()))

    def test_collapsed_pool_is_reported_once(self):
        g = chain(Pool("max", 3, 1), ReLU(), input_shape=TensorShape(2, 2, 1))
        violations = validate(g)
        assert len(violations) == 1 and violations[0].startswith("pool1:")
        with pytest.raises(ShapeError, match="pool1"):
            infer_shapes(g)

    def test_unreachable_node(self):
        g = ArchGraph("island", (("input", Input(TensorShape(2, 2, 2))),
                                 ("a", ReLU()), ("b", ReLU()), ("c", ReLU())),
                      {"input": (), "a": ("input",), "b": ("c",), "c": ("b",)})
        assert validate(g)  # unreachable pair also forms a cycle; either is reported

    # (nodes, preds, one exact violation validate must report)
    @pytest.mark.parametrize("nodes, preds, violation", [
        ((("in", Input(TensorShape(4, 4, 3))), ("r", ReLU())),
         {"in": (), "r": ("ghost",)}, "r: references unknown input 'ghost'"),
        ((("a", Input(TensorShape(4, 4, 3))), ("b", Input(TensorShape(4, 4, 3))),
          ("c", Concat())),
         {"a": (), "b": (), "c": ("a", "b")}, "graph: multiple Input nodes (a, b)"),
        ((("a", Input(TensorShape(4, 4, 3))), ("b", Input(TensorShape(4, 4, 3)))),
         {"a": (), "b": ("a",)}, "b: Input node must have no predecessors"),
        # the second Input's predecessor has no shape to read
        ((("a", Input(TensorShape(4, 4, 3))), ("c", Conv(9, 9, 8)),
          ("b", Input(TensorShape(4, 4, 3)))),
         {"a": (), "c": ("a",), "b": ("c",)}, "b: Input node must have no predecessors"),
        # x has no predecessor, so neither x nor the y it feeds hangs off the Input
        ((("a", Input(TensorShape(4, 4, 3))), ("x", ReLU()), ("y", ReLU()), ("c", Concat())),
         {"a": (), "x": (), "y": ("x",), "c": ("a", "y")}, "y: not reachable from Input"),
    ], ids=["unknown_input", "two_inputs", "input_with_predecessor",
            "input_after_collapsed_conv", "unreachable"])
    def test_structural_violation_names_the_node(self, nodes, preds, violation):
        violations = validate(ArchGraph("g", nodes, preds))
        assert violation in violations
        with pytest.raises(GraphError, match=re.escape(violation)):
            infer_shapes(ArchGraph("g", nodes, preds))


def kahn_reference(graph):
    """Kahn's algorithm with a min-heap on declaration position; None for a
    cycle."""
    declared = [nid for nid, _ in graph.nodes]
    position = {nid: i for i, nid in enumerate(declared)}
    waiting = {nid: len(graph.preds.get(nid, ())) for nid in declared}
    consumers: dict[str, list[str]] = {nid: [] for nid in declared}
    for nid in declared:
        for p in graph.preds.get(nid, ()):
            consumers[p].append(nid)
    heap = [(position[nid], nid) for nid in declared if waiting[nid] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        _, nid = heapq.heappop(heap)
        order.append(nid)
        for c in consumers[nid]:
            waiting[c] -= 1
            if waiting[c] == 0:
                heapq.heappush(heap, (position[c], c))
    return order if len(order) == len(declared) else None


def random_dag(rng, n):
    """n nodes, each reading up to three earlier ones (repeats allowed),
    declared in generation order."""
    ids = [f"n{i}" for i in range(n)]
    preds = {nid: tuple(ids[j] for j in rng.integers(0, i, size=rng.integers(0, 4)))
             if i else () for i, nid in enumerate(ids)}
    return ArchGraph("dag", tuple((nid, ReLU()) for nid in ids), preds)


class TestTopologicalOrder:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_kahn_reference_in_order_and_shuffled(self, seed):
        rng = np.random.default_rng(seed)
        for n in (1, 2, 5, 30, 120):
            g = random_dag(rng, n)
            assert topological_order(g) == kahn_reference(g) == [nid for nid, _ in g.nodes]
            for _ in range(3):
                nodes = tuple(g.nodes[i] for i in rng.permutation(n))
                shuffled = ArchGraph("dag", nodes, g.preds)
                assert topological_order(shuffled) == kahn_reference(shuffled)

    @pytest.mark.parametrize("seed", range(4))
    def test_cycles_and_self_loops_raise(self, seed):
        rng = np.random.default_rng(seed)
        g = random_dag(rng, 20)
        preds = dict(g.preds)
        preds["n3"] += ("n15",)  # n3 and n15 read each other
        preds["n15"] += ("n3",)
        with pytest.raises(GraphError, match="cycle"):
            topological_order(ArchGraph("cycle", g.nodes, preds))
        preds = dict(g.preds)
        preds["n7"] += ("n7",)
        for nodes in (g.nodes, g.nodes[::-1]):
            with pytest.raises(GraphError, match="cycle"):
                topological_order(ArchGraph("self_loop", nodes, preds))

    def test_unknown_reference_raises(self):
        g = random_dag(np.random.default_rng(0), 10)
        for nid in ("n0", "n9"):
            preds = dict(g.preds)
            preds[nid] += ("ghost",)
            with pytest.raises(GraphError, match=f"{nid!r} references unknown input 'ghost'"):
                topological_order(ArchGraph("unknown", g.nodes, preds))


class TestGraphBuilder:
    def test_duplicate_id_is_refused(self):
        b = GraphBuilder("dup")
        x = b.input(TensorShape(4, 4, 3))
        with pytest.raises(GraphError, match=r"^duplicate id 'input'$"):
            b.relu(x, name="input")
        assert b.build().nodes == (("input", Input(TensorShape(4, 4, 3))),)

    def test_unknown_input_is_refused(self):
        b = GraphBuilder("ghost")
        b.input(TensorShape(4, 4, 3))
        with pytest.raises(GraphError, match=r"^'relu1' references unknown input 'ghost'$"):
            b.relu("ghost")
        assert [nid for nid, _ in b.build().nodes] == ["input"]

    @pytest.mark.parametrize("kernel", [np.int64(3), 2.0, None, [3], (3, 3, 3), True],
                             ids=["numpy_int", "float", "none", "one_entry", "triple", "bool"])
    def test_a_kernel_neither_an_int_nor_a_pair_is_refused_naming_the_field(self, kernel):
        b = GraphBuilder("kernel")
        x = b.input(TensorShape(8, 8, 4))
        with pytest.raises(ValueError) as exc:
            b.conv(x, kernel, 8)
        assert type(exc.value) is ValueError
        assert str(exc.value) == f"Conv.kernel_h must be a positive integer, got {kernel!r}"

    @pytest.mark.parametrize("kernel", [(3, 1), [3, 1]], ids=["tuple", "list"])
    def test_a_kernel_pair_gives_height_and_width(self, kernel):
        b = GraphBuilder("kernel")
        x = b.input(TensorShape(8, 8, 4))
        b.conv(x, kernel, 8, name="c")
        assert dict(b.build().nodes)["c"] == Conv(3, 1, 8)


class TestInferShapes:
    def test_alexnet_stem(self):
        g = chain(Conv(11, 11, 96, stride=4), input_shape=TensorShape(227, 227, 3))
        shapes = infer_shapes(g)
        assert list(shapes.values())[-1] == TensorShape(55, 55, 96)

    def test_pool_halves(self):
        g = chain(Pool("max", 2, 2), input_shape=TensorShape(56, 56, 64))
        assert list(infer_shapes(g).values())[-1] == TensorShape(28, 28, 64)

    def test_pool_ceil_mode(self):
        floor_g = chain(Pool("max", 3, 2), input_shape=TensorShape(6, 6, 1))
        ceil_g = chain(Pool("max", 3, 2, ceil_mode=True), input_shape=TensorShape(6, 6, 1))
        assert list(infer_shapes(floor_g).values())[-1] == TensorShape(2, 2, 1)
        assert list(infer_shapes(ceil_g).values())[-1] == TensorShape(3, 3, 1)

    def test_global_avg_pool(self):
        g = chain(GlobalAvgPool(), input_shape=TensorShape(13, 13, 256))
        assert list(infer_shapes(g).values())[-1] == TensorShape(1, 1, 256)

    def test_fc_collapses_to_vector(self):
        g = chain(FullyConnected(1000), input_shape=TensorShape(6, 6, 256))
        assert list(infer_shapes(g).values())[-1] == TensorShape(1, 1, 1000)

    def test_concat_sums_channels(self):
        b = GraphBuilder("cat")
        x = b.input(TensorShape(8, 8, 4))
        left = b.conv(x, 1, 3)
        right = b.conv(x, 1, 5)
        out = b.concat([left, right])
        assert infer_shapes(b.build())[out] == TensorShape(8, 8, 8)

    def test_collapsed_dimension_names_node(self):
        b = GraphBuilder("tiny")
        x = b.input(TensorShape(2, 2, 1))
        b.conv(x, 3, 4, name="too_big")
        with pytest.raises(ShapeError, match="too_big"):
            infer_shapes(b.build())

    def test_requires_valid_graph(self):
        g = chain(Conv(1, 1, 8, groups=3))
        with pytest.raises(GraphError, match="groups must divide filters"):
            infer_shapes(g)

    def test_deterministic(self):
        g = chain(Conv(3, 3, 8, pad=1), ReLU(), Pool("max", 2, 2))
        assert infer_shapes(g) == infer_shapes(g)


class TestLowerFc:
    def test_1x1_case(self):
        g = chain(FullyConnected(1000), input_shape=TensorShape(1, 1, 512))
        lowered = lower_fc(g)
        spec = dict(lowered.nodes)[list(infer_shapes(lowered))[-1]]
        assert spec == Conv(1, 1, 1000, groups=1, stride=1, pad=0, bias=True)
        assert costs.model_params(g) == costs.model_params(lowered)

    def test_spatial_fc_preserves_params_and_shapes(self):
        g = chain(FullyConnected(4096), input_shape=TensorShape(6, 6, 256))
        lowered = lower_fc(g)
        spec = dict(lowered.nodes)[list(infer_shapes(lowered))[-1]]
        assert (spec.kernel_h, spec.kernel_w) == (6, 6)
        assert costs.model_params(g) == costs.model_params(lowered)
        assert costs.model_macs(g) == costs.model_macs(lowered)
        assert infer_shapes(g) == infer_shapes(lowered)

    def test_graph_without_fc_unchanged(self):
        g = chain(Conv(3, 3, 8, pad=1), ReLU())
        assert lower_fc(g) == g

    def test_idempotent(self):
        g = chain(Conv(1, 1, 16), FullyConnected(10))
        once = lower_fc(g)
        assert lower_fc(once) == once


@dataclass(frozen=True)
class TaggedConv(Conv):
    tag: str = "tagged"


@dataclass(frozen=True)
class TaggedPool(Pool):
    tag: str = "tagged"


@dataclass(frozen=True)
class TaggedFc(FullyConnected):
    tag: str = "tagged"


@dataclass(frozen=True)
class Unregistered(LayerSpec):
    pass


class TestLayerTypeLookup:
    """A subclass of a layer type binds and is priced by its base's rules;
    a type no rule covers is refused naming the node."""

    @staticmethod
    def _pair(conv, pool):
        b = GraphBuilder("lookup")
        x = b.input(TensorShape(11, 9, 6))
        x = b.add(conv, (x,), name="conv")
        x = b.relu(x)
        b.add(pool, (x,), name="pool")
        return b.build()

    @pytest.mark.parametrize("conv_args", [
        dict(kernel_h=3, kernel_w=2, filters=8, groups=2, stride=2, pad=1),
        dict(kernel_h=1, kernel_w=1, filters=4, bias=False),
    ], ids=["grouped_rectangular", "pointwise_no_bias"])
    def test_subclass_matches_its_base(self, conv_args):
        base = self._pair(Conv(**conv_args), Pool("avg", 3, 2, ceil_mode=True))
        sub = self._pair(TaggedConv(**conv_args), TaggedPool("avg", 3, 2, ceil_mode=True))
        assert validate(sub) == validate(base) == []
        assert infer_shapes(sub) == infer_shapes(base)
        rows, base_rows = costs.layer_costs(sub), costs.layer_costs(base)
        assert [type(r.spec) for r in rows[1::2]] == [TaggedConv, TaggedPool]
        for row, base_row in zip(rows, base_rows):
            assert ((row.node_id, row.in_shapes, row.out_shape, row.weights, row.params,
                     row.macs, row.live_words)
                    == (base_row.node_id, base_row.in_shapes, base_row.out_shape,
                        base_row.weights, base_row.params, base_row.macs, base_row.live_words))
        assert costs.report(sub) == costs.report(base)

    def test_subclass_keeps_its_base_checks(self):
        g = self._pair(TaggedConv(1, 1, 8, groups=4), TaggedPool("max", 12, 1))
        assert validate(g) == [
            "conv: groups must divide input channels (g=4, C_in=6)",
            "pool: pool output 0x-2 is not positive (input 11x9x8, kernel 12, stride 1)",
        ]

    def test_unregistered_type_is_refused_naming_the_node(self):
        b = GraphBuilder("odd")
        x = b.input(TensorShape(4, 4, 2))
        b.add(Unregistered(), (x,), name="mystery")
        g = b.build()
        assert validate(g) == ["mystery: unknown layer type Unregistered"]
        message = "invalid graph 'odd': mystery: unknown layer type Unregistered"
        with pytest.raises(GraphError) as exc:
            costs.layer_costs(g)
        assert type(exc.value) is GraphError and str(exc.value) == message
        with pytest.raises(GraphError) as exc:
            costs.layer_params(Unregistered(), TensorShape(4, 4, 2))
        assert type(exc.value) is GraphError
        assert str(exc.value) == ("invalid graph 'Unregistered': "
                                  "Unregistered: unknown layer type Unregistered")

    # the single-layer functions price the layer in the graph pricing loop,
    # so they follow the same base-class lookup as the graph walk

    @pytest.mark.parametrize("sub, base", [
        (TaggedConv(3, 2, 8, groups=2, stride=2, pad=1), Conv(3, 2, 8, groups=2, stride=2, pad=1)),
        (TaggedConv(1, 1, 4, bias=False), Conv(1, 1, 4, bias=False)),
        (TaggedFc(10), FullyConnected(10)),
        (TaggedFc(3, bias=False), FullyConnected(3, bias=False)),
    ], ids=["grouped_conv", "pointwise_conv", "fc", "fc_no_bias"])
    def test_single_layer_costs_of_a_subclass_are_its_base(self, sub, base):
        shape = TensorShape(11, 9, 6)
        assert costs.layer_params(sub, shape) == costs.layer_params(base, shape) > 0
        assert costs.layer_macs(sub, shape) == costs.layer_macs(base, shape) > 0

    def test_collapsed_subclass_pool_raises_shape_error_from_layer_macs(self):
        message = ("^invalid graph 'TaggedPool': "
                   "TaggedPool: pool output 0x-2 is not positive")
        for cost in (costs.layer_params, costs.layer_macs):
            with pytest.raises(ShapeError, match=message):
                cost(TaggedPool("max", 12, 1), TensorShape(11, 9, 6))

    @pytest.mark.parametrize("spec", [Conv(1, 1, 8, groups=4), TaggedConv(1, 1, 8, groups=4)],
                             ids=["conv", "subclass"])
    def test_bad_groups_raise_from_both_single_layer_functions(self, spec):
        name = type(spec).__name__
        message = (f"invalid graph '{name}': "
                   f"{name}: groups must divide input channels (g=4, C_in=6)")
        for cost in (costs.layer_params, costs.layer_macs):
            with pytest.raises(GraphError) as exc:
                cost(spec, TensorShape(11, 9, 6))
            assert type(exc.value) is GraphError and str(exc.value) == message

    def test_unregistered_type_is_refused_by_layer_macs(self):
        with pytest.raises(GraphError) as exc:
            costs.layer_macs(Unregistered(), TensorShape(4, 4, 2))
        assert type(exc.value) is GraphError
        assert str(exc.value) == ("invalid graph 'Unregistered': "
                                  "Unregistered: unknown layer type Unregistered")

    @pytest.mark.parametrize("spec, error, message", [
        (Conv(3, 3, 8, groups=3), GraphError, "Conv: groups must divide filters (g=3, F=8)"),
        (Conv(5, 5, 8), ShapeError, "Conv: convolution output 0x0 is not positive "
                                    "(input 4x4x6, kernel 5x5, stride 1, pad 0)"),
        (Concat(), GraphError, "Concat: Concat needs at least 2 predecessors, has 1"),
        (Input(TensorShape(4, 4, 6)), GraphError, "graph: multiple Input nodes (input, Input); "
                                                  "Input: Input node must have no predecessors"),
    ], ids=["filters_not_divisible_by_groups", "collapsed_conv", "concat", "input"])
    def test_single_layer_functions_refuse_what_the_walk_refuses(self, spec, error, message):
        name = type(spec).__name__
        b = GraphBuilder(name)
        b.add(spec, (b.input(TensorShape(4, 4, 6)),), name=name)
        with pytest.raises(error) as walked:
            infer_shapes(b.build())
        assert str(walked.value) == f"invalid graph '{name}': {message}"
        for cost in (costs.layer_params, costs.layer_macs):
            with pytest.raises(error) as exc:
                cost(spec, TensorShape(4, 4, 6))
            assert type(exc.value) is error and str(exc.value) == str(walked.value)

    def test_single_layer_functions_equal_the_layer_cost_rows(self):
        rng = np.random.default_rng(39)
        rows = 0
        for _ in range(60):
            for row in costs.layer_costs(random_graph(rng)):
                if isinstance(row.spec, (Input, Concat)):
                    continue
                (in_shape,) = row.in_shapes
                assert costs.layer_params(row.spec, in_shape) == row.params
                assert costs.layer_macs(row.spec, in_shape) == row.macs
                rows += 1
        assert rows > 500


class TestSharedSpec:
    """GraphBuilder and the descriptor parser build specs through one
    bounded, typed cache; a refusal is never cached and reads as before."""

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        graph._cached_spec.cache_clear()

    @staticmethod
    def _builder():
        b = GraphBuilder("shared")
        return b, b.input(TensorShape(8, 8, 4))

    @staticmethod
    def _size() -> int:
        return graph._cached_spec.cache_info().currsize

    def test_equal_builder_calls_share_one_instance(self):
        specs = []
        for _ in range(2):
            b, x = self._builder()
            b.relu(b.conv(x, 3, 16, pad=1, name="c"), name="r")
            b.maxpool("r", 2, 2, name="p")
            specs.append(dict(b.build().nodes))
        first, second = specs
        for nid in ("c", "r", "p"):
            assert first[nid] is second[nid]
        assert first["c"] == Conv(3, 3, 16, pad=1)

    @pytest.mark.parametrize("call, message", [
        (lambda b, x: b.conv(x, 1, 8, bias=1), "Conv.bias must be a boolean, got 1"),
        (lambda b, x: b.conv(x, 1, 8, bias=1.0), "Conv.bias must be a boolean, got 1.0"),
        (lambda b, x: b.fc(x, 10, bias=0), "FullyConnected.bias must be a boolean, got 0"),
        (lambda b, x: b.maxpool(x, 2, 2, ceil_mode=2),
         "Pool.ceil_mode must be a boolean, got 2"),
        (lambda b, x: b.avgpool(x, 2, 2, ceil_mode=np.True_),
         f"Pool.ceil_mode must be a boolean, got {np.True_!r}"),
    ], ids=["conv_bias_1", "conv_bias_1.0", "fc_bias_0", "maxpool_ceil_2",
            "avgpool_ceil_numpy_bool"])
    def test_a_non_boolean_flag_is_refused(self, call, message):
        b, x = self._builder()
        for _ in range(2):
            with pytest.raises(ValueError, match=re.escape(message)):
                call(b, x)
        assert self._size() == 0

    def test_a_refused_value_raises_every_time_and_is_not_cached(self):
        b, x = self._builder()
        b.conv(x, 1, 8, name="kept")
        before = self._size()
        for _ in range(2):
            with pytest.raises(ValueError, match=re.escape(
                    "Conv.filters must be a positive integer, got 0")):
                b.conv(x, 1, 0)
        assert self._size() == before == 1

    @pytest.mark.parametrize("call, build", [
        (lambda b, x: b.conv(x, 1, [16]), lambda: Conv(1, 1, [16])),
        (lambda b, x: b.conv(x, 1, 8, stride=[2]), lambda: Conv(1, 1, 8, stride=[2])),
        (lambda b, x: b.fc(x, [10]), lambda: FullyConnected([10])),
        (lambda b, x: b.maxpool(x, [2], 2), lambda: Pool("max", [2], 2)),
        (lambda b, x: b.shuffle(x, {2}), lambda: Shuffle({2})),
        (lambda b, x: b.conv(x, 1, 8, bias=[1]), lambda: Conv(1, 1, 8, bias=[1])),
    ], ids=["conv_filters", "conv_stride", "fc_filters", "pool_kernel", "shuffle_groups",
            "conv_bias"])
    def test_an_unhashable_argument_is_refused_by_the_class(self, call, build):
        with pytest.raises(ValueError) as expected:
            build()
        b, x = self._builder()
        with pytest.raises(ValueError) as exc:
            call(b, x)
        assert type(exc.value) is ValueError and str(exc.value) == str(expected.value)
        assert self._size() == 0

    def test_the_cache_stops_at_its_bound(self):
        assert graph._cached_spec.cache_info().maxsize == graph.SPEC_CACHE_BOUND
        b, x = self._builder()
        for filters in range(1, graph.SPEC_CACHE_BOUND + 50):
            b.conv(x, 1, filters)
        assert self._size() == graph.SPEC_CACHE_BOUND
        b.conv(x, 1, 1, name="again")  # evicted long ago: built again, still equal
        assert dict(b.build().nodes)["again"] == dict(b.build().nodes)["conv1"]
        assert self._size() == graph.SPEC_CACHE_BOUND

    def test_the_descriptor_parser_shares_specs_too(self):
        b, x = self._builder()
        b.relu(b.conv(x, 1, 8, name="c"), name="r")
        text = serialize(b.build())
        first, second = dict(parse(text).nodes), dict(parse(text).nodes)
        assert first["c"] is second["c"] and first["r"] is second["r"]

    def test_the_descriptor_refuses_a_list_valued_field_naming_the_node(self):
        b, x = self._builder()
        b.conv(x, 1, 8, name="c")
        doc = json.loads(serialize(b.build()))
        doc["nodes"][1]["params"]["filters"] = [16]
        before = self._size()
        with pytest.raises(DescriptorError, match=re.escape(
                "nodes[1] (c): field 'filters' must be an integer, got [16]")):
            parse(json.dumps(doc))
        assert self._size() == before
