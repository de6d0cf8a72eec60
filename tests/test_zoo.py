import numpy as np
import pytest

from convdse import costs
from convdse.graph import (Conv, FullyConnected, GraphBuilder, Pool, TensorShape,
                           infer_shapes, validate)
from convdse.zoo import (FireSpec, PoolPlacement, alexnet, fire_module, mobilenet_like,
                         place_downsampling, squeezenet, vgg19)

# squeeze widths and expand totals of the eight fire stages
FIRE_SQUEEZE = (16, 16, 32, 32, 48, 48, 64, 64)
FIRE_EXPAND = (128, 128, 256, 256, 384, 384, 512, 512)


def fire_test_graph(spec, in_shape=TensorShape(13, 13, 96)):
    b = GraphBuilder("one_fire")
    x = b.input(in_shape)
    out = fire_module(b, x, spec, name="fire")
    return b.build(), out


class TestFireModule:
    def test_shape_and_p(self):
        spec = FireSpec(16, 64, 64)
        assert spec.p == 0.5
        g, out = fire_test_graph(spec, TensorShape(55, 55, 96))
        assert validate(g) == []
        assert infer_shapes(g)[out] == TensorShape(55, 55, 128)

    def test_param_count(self):
        g, _ = fire_test_graph(FireSpec(16, 64, 64), TensorShape(13, 13, 96))
        assert costs.model_params(g) == 11_920

    def test_all_1x1_degenerate_branch(self):
        g, out = fire_test_graph(FireSpec(16, 128, 0))
        assert validate(g) == []
        assert infer_shapes(g)[out] == TensorShape(13, 13, 128)
        assert not any(isinstance(spec, Conv) and spec.kernel_h == 3
                       for _, spec in g.nodes)

    def test_all_3x3_degenerate_branch(self):
        g, out = fire_test_graph(FireSpec(16, 0, 128))
        assert validate(g) == []
        assert infer_shapes(g)[out] == TensorShape(13, 13, 128)

    def test_invariants(self):
        with pytest.raises(ValueError):
            FireSpec(0, 64, 64)
        with pytest.raises(ValueError):
            FireSpec(16, 0, 0)

    @pytest.mark.parametrize("value", [2.0, True, "16", np.int64(16)],
                             ids=["float", "bool", "string", "numpy_int"])
    @pytest.mark.parametrize("field", ["squeeze_1x1", "expand_1x1", "expand_3x3"])
    def test_a_width_that_is_not_a_python_int_is_refused_naming_it(self, field, value):
        widths = {"squeeze_1x1": 16, "expand_1x1": 64, "expand_3x3": 64} | {field: value}
        with pytest.raises(ValueError) as exc:
            FireSpec(**widths)
        kind = "positive" if field == "squeeze_1x1" else "non-negative"
        assert str(exc.value) == f"FireSpec.{field} must be a {kind} integer, got {value!r}"

    @pytest.mark.parametrize("widths, message", [
        ((0, 64, 64), "FireSpec.squeeze_1x1 must be a positive integer, got 0"),
        ((16, -1, 64), "FireSpec.expand_1x1 must be a non-negative integer, got -1"),
        ((16, 64, -1), "FireSpec.expand_3x3 must be a non-negative integer, got -1"),
    ], ids=["zero_squeeze", "negative_expand_1x1", "negative_expand_3x3"])
    def test_a_width_out_of_range_is_refused_naming_it(self, widths, message):
        with pytest.raises(ValueError) as exc:
            FireSpec(*widths)
        assert str(exc.value) == message


class TestSqueezenet:
    def test_published_scale(self):
        params = costs.model_params(squeezenet(0.5))
        assert 1_150_000 <= params <= 1_300_000

    def test_params_monotone_in_p(self):
        values = [costs.model_params(squeezenet(p)) for p in (0.5, 0.675, 0.75, 0.825, 1.0)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_p_derivative_matches_per_stage_formula(self):
        # moving one expand filter from 1x1 to 3x3 costs (9 - 1) * squeeze
        # extra weights; from p=0.5 to p=1.0 that is E/2 filters per stage
        expected_delta = sum(8 * s * (e // 2) for s, e in zip(FIRE_SQUEEZE, FIRE_EXPAND))
        delta = costs.model_params(squeezenet(1.0)) - costs.model_params(squeezenet(0.5))
        assert delta == expected_delta == 491_520

    def test_p_range(self):
        with pytest.raises(ValueError):
            squeezenet(0.0)
        with pytest.raises(ValueError):
            squeezenet(1.2)

    def test_pool_strategies_are_structurally_valid(self):
        for strategy in ("early", "even", "late"):
            g = squeezenet(0.5, PoolPlacement(strategy))
            assert validate(g) == []
            infer_shapes(g)

    def test_macs_ordering_late_even_early(self):
        macs = {s: costs.model_macs(squeezenet(0.5, PoolPlacement(s)))
                for s in ("early", "even", "late")}
        assert macs["late"] >= macs["even"] >= macs["early"]


class TestAlexnet:
    def test_total_near_sixty_million(self):
        assert 57_000_000 <= costs.model_params(alexnet()) <= 63_000_000

    def test_fc7_weight_count(self):
        g = alexnet()
        shapes = infer_shapes(g)
        fc7_in = shapes[g.preds["fc7"][0]]
        assert fc7_in == TensorShape(1, 1, 4096)
        assert costs.layer_params(FullyConnected(4096, bias=False), fc7_in) == 4096 ** 2

    def test_storage_near_published(self):
        storage = costs.report(alexnet()).storage_bytes
        assert abs(storage - 240e6) / 240e6 <= 0.05


class TestVgg19:
    def test_sixteen_convs_three_fcs(self):
        g = vgg19()
        convs = sum(isinstance(spec, Conv) for _, spec in g.nodes)
        fcs = sum(isinstance(spec, FullyConnected) for _, spec in g.nodes)
        assert (convs, fcs) == (16, 3)

    def test_storage_range(self):
        storage = costs.report(vgg19()).storage_bytes
        assert 563e6 <= storage <= 587e6

    def test_ratio_vs_squeezenet(self):
        ratio = costs.model_params(vgg19()) / costs.model_params(squeezenet(0.5))
        assert 108 <= ratio <= 132


class TestMobilenetLike:
    def test_param_range(self):
        params = costs.model_params(mobilenet_like(1.0))
        assert 3_500_000 <= params <= 4_500_000

    def test_storage_range(self):
        storage = costs.report(mobilenet_like(1.0)).storage_bytes
        assert 10e6 <= storage <= 18e6

    def test_compute_ratio_vs_vgg19(self):
        ratio = costs.model_macs(vgg19()) / costs.model_macs(mobilenet_like(1.0))
        assert 25 <= ratio <= 40

    def test_structure(self):
        g = mobilenet_like(1.0)
        assert validate(g) == []
        assert not any(isinstance(spec, Pool) for _, spec in g.nodes)
        fcs = [nid for nid, spec in g.nodes if isinstance(spec, FullyConnected)]
        assert fcs == [list(infer_shapes(g))[-1]]
        depthwise = [spec for _, spec in g.nodes
                     if isinstance(spec, Conv) and spec.groups > 1]
        assert len(depthwise) == 13

    def test_depthwise_grouping_saves_factor_c(self):
        g = mobilenet_like(1.0)
        shapes = infer_shapes(g)
        nid = "dw7"
        spec = dict(g.nodes)[nid]
        in_shape = shapes[g.preds[nid][0]]
        assert spec.groups == in_shape.channels
        dense = Conv(3, 3, spec.filters, groups=1, stride=spec.stride, pad=spec.pad,
                     bias=False)
        depthwise = Conv(3, 3, spec.filters, groups=spec.groups, stride=spec.stride,
                         pad=spec.pad, bias=False)
        c = in_shape.channels
        assert costs.layer_params(dense, in_shape) == c * costs.layer_params(depthwise, in_shape)
        assert costs.layer_macs(dense, in_shape) == c * costs.layer_macs(depthwise, in_shape)

    def test_width_multiplier_shrinks(self):
        assert (costs.model_params(mobilenet_like(0.5))
                < costs.model_params(mobilenet_like(1.0)))
        assert validate(mobilenet_like(0.25)) == []


class TestPlaceDownsampling:
    def test_even_spacing(self):
        assert place_downsampling(10, PoolPlacement("even", 3)) == [3, 5, 8]

    def test_early_and_late(self):
        assert place_downsampling(10, PoolPlacement("early", 3)) == [1, 2, 3]
        assert place_downsampling(10, PoolPlacement("late", 3)) == [8, 9, 10]

    @pytest.mark.parametrize("count", [2.5, True, 0], ids=["float", "bool", "zero"])
    def test_pool_count_that_is_not_a_positive_integer_is_refused(self, count):
        with pytest.raises(ValueError) as exc:
            PoolPlacement("even", count)
        assert str(exc.value) == (
            f"PoolPlacement.pool_count must be a positive integer, got {count!r}")

    def test_too_many_pools(self):
        with pytest.raises(ValueError):
            place_downsampling(3, PoolPlacement("even", 3))

    def test_positions_are_distinct_and_in_range(self):
        for L in range(2, 15):
            for P in range(1, L):
                for strategy in ("early", "even", "late"):
                    pos = place_downsampling(L, PoolPlacement(strategy, P))
                    assert len(set(pos)) == P
                    assert all(1 <= p <= L for p in pos)
                    assert pos == sorted(pos)

    def test_even_positions_increase_and_end_before_the_last_layer(self):
        # P < L spaces the pools at least one layer apart, so rounding never
        # collides or runs past layer L - 1
        for L in range(2, 300):
            for P in range(1, L):
                even = place_downsampling(L, PoolPlacement("even", P))
                assert len(even) == P and even[0] >= 1 and even[-1] <= L - 1
                assert all(a < b for a, b in zip(even, even[1:]))


def test_every_generator_validates():
    generators = [alexnet(), vgg19(), squeezenet(0.5), squeezenet(1.0),
                  mobilenet_like(1.0), mobilenet_like(0.5)]
    for g in generators:
        assert validate(g) == []
        infer_shapes(g)
