import pytest

from convdse.graph import (ArchGraph, Concat, Conv, FullyConnected, GlobalAvgPool,
                           GraphBuilder, GraphError, Input, Pool, ReLU, ShapeError, Shuffle,
                           TensorShape, infer_shapes, lower_fc, sink_id, validate)
from convdse import costs


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


class TestInferShapes:
    def test_alexnet_stem(self):
        g = chain(Conv(11, 11, 96, stride=4), input_shape=TensorShape(227, 227, 3))
        shapes = infer_shapes(g)
        assert shapes[sink_id(g)] == TensorShape(55, 55, 96)

    def test_pool_halves(self):
        g = chain(Pool("max", 2, 2), input_shape=TensorShape(56, 56, 64))
        assert infer_shapes(g)[sink_id(g)] == TensorShape(28, 28, 64)

    def test_pool_ceil_mode(self):
        floor_g = chain(Pool("max", 3, 2), input_shape=TensorShape(6, 6, 1))
        ceil_g = chain(Pool("max", 3, 2, ceil_mode=True), input_shape=TensorShape(6, 6, 1))
        assert infer_shapes(floor_g)[sink_id(floor_g)] == TensorShape(2, 2, 1)
        assert infer_shapes(ceil_g)[sink_id(ceil_g)] == TensorShape(3, 3, 1)

    def test_global_avg_pool(self):
        g = chain(GlobalAvgPool(), input_shape=TensorShape(13, 13, 256))
        assert infer_shapes(g)[sink_id(g)] == TensorShape(1, 1, 256)

    def test_fc_collapses_to_vector(self):
        g = chain(FullyConnected(1000), input_shape=TensorShape(6, 6, 256))
        assert infer_shapes(g)[sink_id(g)] == TensorShape(1, 1, 1000)

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
        spec = dict(lowered.nodes)[sink_id(lowered)]
        assert spec == Conv(1, 1, 1000, groups=1, stride=1, pad=0, bias=True)
        assert costs.model_params(g) == costs.model_params(lowered)

    def test_spatial_fc_preserves_params_and_shapes(self):
        g = chain(FullyConnected(4096), input_shape=TensorShape(6, 6, 256))
        lowered = lower_fc(g)
        spec = dict(lowered.nodes)[sink_id(lowered)]
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
