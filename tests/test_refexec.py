import re
from dataclasses import replace

import numpy as np
import pytest

from convdse import costs, properties
from convdse.graph import Concat, Conv, GraphBuilder, Pool, TensorShape, infer_shapes, validate
from convdse.properties import check_mac_counts, conv_scalar_reference, random_graph
from convdse.refexec import (ExecutionError, Tensor3D, conv_forward, count_macs_instrumented,
                             expected_weight_shapes, pool_forward, random_weights, run,
                             run_all, shuffle_forward, shuffle_sources)
from convdse.weights import WeightTensor


def tensor(chw_array):
    return Tensor3D.from_chw(np.asarray(chw_array, dtype=np.float32))


def single_layer(layer_add, in_shape):
    b = GraphBuilder("one")
    x = b.input(in_shape)
    layer_add(b, x)
    return b.build()


class TestKernels:
    def test_relu_zeroes_negatives(self):
        g = single_layer(lambda b, x: b.relu(x), TensorShape(1, 3, 1))
        x = Tensor3D(TensorShape(1, 3, 1), np.array([-1, 0, 2], dtype=np.float32))
        out = run(g, [], x)
        assert out.values.tolist() == [0, 0, 2]

    def test_1x1_permutation_conv(self):
        g = single_layer(lambda b, x: b.conv(x, 1, 3, bias=False, name="c"),
                         TensorShape(2, 2, 3))
        # filter i copies channel (i+1) mod 3
        w = np.zeros((3, 3, 1, 1), dtype=np.float32)
        for i in range(3):
            w[i, (i + 1) % 3, 0, 0] = 1.0
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 2, 2)).astype(np.float32)
        out = run(g, [WeightTensor("c.weight", (3, 3, 1, 1), w.reshape(-1))],
                  Tensor3D.from_chw(x)).chw()
        assert np.array_equal(out, x[[1, 2, 0]])

    def test_grouped_channel_visibility(self):
        # g=2, C=4, F=4: filters 0-1 read channels 0-1, filters 2-3 read 2-3
        x = np.zeros((4, 1, 1), dtype=np.float32)
        x[:, 0, 0] = [1, 10, 100, 1000]
        w = np.ones((4, 2, 1, 1), dtype=np.float32)
        out = conv_forward(x, Conv(1, 1, 4, groups=2, bias=False), w, None)
        assert out[:, 0, 0].tolist() == [11, 11, 1100, 1100]

    @pytest.mark.parametrize("spec, weight_shape, message", [
        (Conv(1, 1, 4, groups=3, bias=False), (4, 1, 1, 1),
         "groups must divide channels and filters (g=3, C_in=6, F=4)"),
        (Conv(3, 3, 4, groups=2, bias=False), (4, 6, 3, 3),
         "weight shape (4, 6, 3, 3) does not match (4, 3, 3, 3)"),
    ], ids=["groups_not_dividing", "wrong_weight_shape"])
    def test_conv_refuses_what_it_cannot_run(self, spec, weight_shape, message):
        x = np.zeros((6, 3, 3), dtype=np.float32)
        with pytest.raises(ExecutionError, match=f"^{re.escape(message)}$"):
            conv_forward(x, spec, np.zeros(weight_shape, dtype=np.float32), None)

    def test_depthwise_all_ones_box_filter(self):
        c, value = 3, 2.5
        x = np.full((c, 5, 5), value, dtype=np.float32)
        w = np.ones((c, 1, 3, 3), dtype=np.float32)
        out = conv_forward(x, Conv(3, 3, c, groups=c, pad=1, bias=False), w, None)
        assert out[:, 1:-1, 1:-1] == pytest.approx(9 * value)
        assert out[0, 0, 0] == pytest.approx(4 * value)  # corner sees a 2x2 patch

    def test_conv_matches_scalar_reference(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 7, 7)).astype(np.float32)
        for spec in (Conv(3, 3, 4, pad=1), Conv(3, 3, 6, groups=2, stride=2, pad=1),
                     Conv(1, 1, 8), Conv(3, 3, 6, groups=6, pad=0)):
            w = rng.standard_normal((spec.filters, 6 // spec.groups,
                                     spec.kernel_h, spec.kernel_w)).astype(np.float32)
            bias = rng.standard_normal(spec.filters).astype(np.float32) if spec.bias else None
            mine = conv_forward(x, spec, w, bias)
            ref = conv_scalar_reference(x, spec, w, bias)
            assert np.allclose(mine, ref, rtol=1e-6, atol=1e-6)

    def test_avg_pool_divides_by_full_kernel_area(self):
        x = np.ones((1, 3, 3), dtype=np.float32)
        out = pool_forward(x, Pool("avg", 2, 2, ceil_mode=True))
        # the overhanging windows only see 2 or 1 ones but still divide by 4
        assert out[0].tolist() == [[1.0, 0.5], [0.5, 0.25]]

    def test_max_pool_ignores_overhang(self):
        x = np.arange(9, dtype=np.float32).reshape(1, 3, 3)
        out = pool_forward(x, Pool("max", 2, 2, ceil_mode=True))
        assert out[0].tolist() == [[4.0, 5.0], [7.0, 8.0]]

    def test_ceil_pool_with_stride_past_kernel_runs(self):
        g = single_layer(lambda b, x: b.maxpool(x, 1, 3, ceil_mode=True), TensorShape(5, 5, 1))
        assert infer_shapes(g)["pool1"] == TensorShape(2, 2, 1)
        x = np.arange(25, dtype=np.float32).reshape(1, 5, 5)
        out = run(g, [], tensor(x))
        assert out.shape == TensorShape(2, 2, 1)
        assert out.chw().tolist() == x[:, ::3, ::3].tolist()

    def test_gap_and_concat(self):
        b = GraphBuilder("gapcat")
        x = b.input(TensorShape(2, 2, 2))
        left = b.relu(x)
        right = b.relu(x)
        cat = b.concat([left, right])
        b.gap(cat)
        g = b.build()
        x0 = tensor([[[1, 2], [3, 4]], [[0, 0], [0, 8]]])
        out = run(g, [], x0)
        assert out.shape == TensorShape(1, 1, 4)
        assert out.values.tolist() == [2.5, 2.0, 2.5, 2.0]


class TestShuffle:
    def test_c6_g2_source_order(self):
        assert shuffle_sources(6, 2) == [0, 3, 1, 4, 2, 5]
        x = np.arange(6, dtype=np.float32).reshape(6, 1, 1)
        assert shuffle_forward(x, 2)[:, 0, 0].tolist() == [0, 3, 1, 4, 2, 5]

    def test_bijection(self):
        for c, g in ((6, 2), (8, 4), (12, 3), (9, 9)):
            assert sorted(shuffle_sources(c, g)) == list(range(c))

    def test_inverse_composition(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = int(rng.integers(1, 8))
            n = int(rng.integers(1, 8))
            c = g * n
            x = rng.standard_normal((c, 2, 3)).astype(np.float32)
            assert np.array_equal(shuffle_forward(shuffle_forward(x, g), n), x)

    def test_divisibility_error(self):
        with pytest.raises(ExecutionError):
            shuffle_forward(np.zeros((6, 1, 1), dtype=np.float32), 4)

    def test_shuffle_restores_cross_group_connectivity(self):
        # with two stacked grouped 1x1 convs, each second-layer group must
        # see channels originating from every first-layer group, but only
        # when a shuffle sits between them
        c, g = 8, 2
        first_group_of_channel = [j // (c // g) for j in range(c)]

        def reachable_groups(with_shuffle):
            order = shuffle_sources(c, g) if with_shuffle else list(range(c))
            seen = []
            for k in range(g):
                block = order[k * (c // g):(k + 1) * (c // g)]
                seen.append({first_group_of_channel[src] for src in block})
            return seen

        assert reachable_groups(False) == [{0}, {1}]
        assert reachable_groups(True) == [{0, 1}, {0, 1}]


class TestRun:
    def test_output_shape_matches_inference(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            g = random_graph(rng)
            shapes = infer_shapes(g)
            weights = random_weights(g, rng)
            in_shape = shapes[g.nodes[0][0]]
            x = Tensor3D(in_shape, rng.standard_normal(in_shape.elements).astype(np.float32))
            for nid, act in run_all(g, weights, x).items():
                assert act.shape == shapes[nid]

    def test_deterministic(self):
        rng = np.random.default_rng(29)
        g = random_graph(rng)
        weights = random_weights(g, rng)
        in_shape = infer_shapes(g)[g.nodes[0][0]]
        x = Tensor3D(in_shape, rng.standard_normal(in_shape.elements).astype(np.float32))
        a = run(g, weights, x)
        b = run(g, weights, x)
        assert np.array_equal(a.values, b.values)

    def test_weight_shape_mismatch_names_layer(self):
        g = single_layer(lambda b, x: b.conv(x, 3, 4, name="conv_a", bias=False),
                         TensorShape(5, 5, 2))
        bad = [WeightTensor("conv_a.weight", (4, 2, 1, 1), np.zeros(8, dtype=np.float32))]
        x = Tensor3D(TensorShape(5, 5, 2), np.zeros(50, dtype=np.float32))
        with pytest.raises(ExecutionError, match="conv_a"):
            run(g, bad, x)

    def test_duplicate_weight_tensor(self):
        g = single_layer(lambda b, x: b.conv(x, 1, 2, name="c", bias=False),
                         TensorShape(2, 2, 2))
        w = WeightTensor("c.weight", (2, 2, 1, 1), np.zeros(4, dtype=np.float32))
        with pytest.raises(ExecutionError, match="^duplicate weight tensor 'c.weight'$"):
            run(g, [w, w], Tensor3D(TensorShape(2, 2, 2), np.zeros(8, dtype=np.float32)))

    def test_missing_weight_tensor(self):
        g = single_layer(lambda b, x: b.conv(x, 1, 2, name="c", bias=False),
                         TensorShape(2, 2, 2))
        with pytest.raises(ExecutionError, match="missing weight tensor"):
            run(g, [], Tensor3D(TensorShape(2, 2, 2), np.zeros(8, dtype=np.float32)))

    def test_nan_weights_rejected(self):
        g = single_layer(lambda b, x: b.conv(x, 1, 2, name="c", bias=False),
                         TensorShape(2, 2, 2))
        w = np.zeros(4, dtype=np.float32)
        w[1] = np.nan
        with pytest.raises(ExecutionError, match="NaN"):
            run(g, [WeightTensor("c.weight", (2, 2, 1, 1), w)],
                Tensor3D(TensorShape(2, 2, 2), np.zeros(8, dtype=np.float32)))

    def test_input_shape_checked(self):
        g = single_layer(lambda b, x: b.relu(x), TensorShape(2, 2, 2))
        with pytest.raises(ExecutionError, match="input shape"):
            run(g, [], Tensor3D(TensorShape(2, 2, 1), np.zeros(4, dtype=np.float32)))


class TestInstrumentedMacs:
    def test_pool_only_graph_is_free(self):
        g = single_layer(lambda b, x: b.maxpool(x, 2, 2), TensorShape(8, 8, 2))
        assert count_macs_instrumented(g) == 0

    def test_tiny_1x1(self):
        g = single_layer(lambda b, x: b.conv(x, 1, 8, bias=False, name="c"),
                         TensorShape(1, 1, 8))
        assert count_macs_instrumented(g) == 64

    def test_matches_analytic_on_random_graphs(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            g = random_graph(rng)
            assert count_macs_instrumented(g) == costs.model_macs(g)

    def test_fc_counts_like_its_conv_form(self):
        b = GraphBuilder("fc")
        x = b.input(TensorShape(3, 3, 4))
        b.fc(x, 5, name="f")
        g = b.build()
        assert count_macs_instrumented(g) == 3 * 3 * 4 * 5


def test_expected_weight_shapes_cover_biases():
    b = GraphBuilder("shapes")
    x = b.input(TensorShape(6, 6, 3))
    x = b.conv(x, 3, 8, pad=1, name="c1")
    x = b.conv(x, 1, 4, bias=False, name="c2")
    b.fc(x, 10, name="f")
    expected = expected_weight_shapes(b.build())
    assert expected == {
        "c1.weight": (8, 3, 3, 3), "c1.bias": (8,),
        "c2.weight": (4, 8, 1, 1),
        "f.weight": (10, 4, 6, 6), "f.bias": (10,),
    }


@pytest.mark.parametrize("field", ["total_macs", "total_params"])
def test_mac_counts_oracle_checks_report_totals(monkeypatch, field):
    # report prices the walk without the cost table's rows, so the oracle
    # must catch a report total that the rows do not share
    priced = costs.report

    def off_by_one(graph, *args):
        metrics = priced(graph, *args)
        return replace(metrics, **{field: getattr(metrics, field) + 1})

    assert check_mac_counts(seed=0, trials=3).passed
    monkeypatch.setattr(costs, "report", off_by_one)
    result = check_mac_counts(seed=0, trials=3)
    assert not result.passed and "report has" in result.detail


def test_verify_draws_rectangular_strided_convs_and_wide_concats(monkeypatch):
    # the executor oracles of verify see every block kind of random_graph
    drawn = []
    monkeypatch.setattr(properties, "random_graph",
                        lambda rng: drawn.append(random_graph(rng)) or drawn[-1])
    assert properties.check_mac_counts().passed and properties.check_run_shapes().passed
    assert len(drawn) == 32 and all(validate(g) == [] for g in drawn)
    nodes = [(g, nid, s) for g in drawn for nid, s in g.nodes]
    assert any(isinstance(s, Conv) and s.kernel_h != s.kernel_w and s.stride > 1 and s.pad > 0
               for *_, s in nodes)
    assert any(isinstance(s, Concat) and len(g.preds[nid]) >= 3 for g, nid, s in nodes)
