import importlib
import json
import math
import pkgutil
import re
from dataclasses import dataclass

import numpy as np
import pytest

import convdse
from convdse import costs, explore, graph, settings, zoo
from convdse.costs import (DEFAULT_PLATFORM, PlatformSpec, activation_traffic_words,
                           energy_from_counts, layer_costs, layer_macs, layer_params,
                           model_macs, model_params, peak_activation_bytes, report)
from convdse.graph import (Conv, FullyConnected, GraphBuilder, Pool, ReLU, TensorShape)


PLATFORM = PlatformSpec(on_chip_bytes=1024, e_mac=1e-12, macs_per_second=1e9)


@dataclass(frozen=True)
class Unregistered(graph.LayerSpec):
    """A layer type without a shape rule."""


def _graph(name, *nodes):
    """An ArchGraph of (id, spec, predecessor ids) triples, in the order given."""
    return graph.ArchGraph(name, tuple((nid, spec) for nid, spec, _ in nodes),
                           {nid: preds for nid, _, preds in nodes})


_IN = graph.Input(TensorShape(4, 4, 4))

#: Graphs the walk reports, each broken in one way the pricing loop must see.
REPORTED = [
    _graph("empty"),
    _graph("two_inputs", ("x", _IN, ()), ("y", _IN, ()), ("cat", graph.Concat(), ("x", "y"))),
    _graph("input_reads", ("x", _IN, ("r",)), ("r", ReLU(), ("x",))),
    _graph("repeated_id", ("x", _IN, ()), ("r", ReLU(), ("x",)), ("r", ReLU(), ("x",))),
    _graph("unknown_type", ("x", _IN, ()), ("u", Unregistered(), ("x",))),
    _graph("lone_concat", ("x", _IN, ()), ("cat", graph.Concat(), ("x",))),
    _graph("two_reads", ("x", _IN, ()), ("a", ReLU(), ("x",)), ("b", ReLU(), ("x", "a"))),
    _graph("no_read", ("x", _IN, ()), ("a", ReLU(), ()), ("b", ReLU(), ("a",))),
    _graph("unknown_read", ("x", _IN, ()), ("a", ReLU(), ("ghost",))),
    _graph("filters_groups", ("x", _IN, ()), ("c", Conv(1, 1, 6, groups=4), ("x",))),
    _graph("channel_groups", ("x", _IN, ()), ("s", graph.Shuffle(3), ("x",))),
    _graph("collapsed", ("x", _IN, ()), ("c", Conv(5, 5, 8), ("x",))),
    _graph("two_sinks", ("x", _IN, ()), ("a", ReLU(), ("x",)), ("b", ReLU(), ("x",))),
]


class TestLayerParams:
    def test_conv_3x3_with_bias(self):
        assert layer_params(Conv(3, 3, 64, bias=True), TensorShape(8, 8, 64)) == 36_928

    def test_fc7_sized_layer(self):
        # 4096 input channels and 4096 filters, bias off: exactly 2**24 weights
        count = layer_params(FullyConnected(4096, bias=False), TensorShape(1, 1, 4096))
        assert count == 16_777_216
        assert count * 4 == 67_108_864

    def test_1x1_vs_3x3_ratio_is_exactly_nine(self):
        shape = TensorShape(14, 14, 48)
        one = layer_params(Conv(1, 1, 96, bias=False), shape)
        three = layer_params(Conv(3, 3, 96, bias=False), shape)
        assert three == 9 * one

    def test_grouping_divides_weights(self):
        shape = TensorShape(8, 8, 16)
        dense = layer_params(Conv(3, 3, 16, groups=1, bias=False), shape)
        for g in (2, 4, 8, 16):
            grouped = layer_params(Conv(3, 3, 16, groups=g, bias=False), shape)
            assert grouped * g == dense

    def test_stateless_layers_have_no_params(self):
        shape = TensorShape(8, 8, 16)
        for spec in (Pool("max", 2, 2), ReLU()):
            assert layer_params(spec, shape) == 0

    def test_divisibility_error(self):
        with pytest.raises(ValueError, match="divide input channels"):
            layer_params(Conv(1, 1, 4, groups=4), TensorShape(4, 4, 6))


class TestLayerMacs:
    def test_tiny_1x1(self):
        assert layer_macs(Conv(1, 1, 8), TensorShape(1, 1, 8)) == 64

    def test_depthwise_is_c_times_cheaper(self):
        shape = TensorShape(14, 14, 32)
        dense = layer_macs(Conv(3, 3, 32, groups=1, bias=False), shape)
        depthwise = layer_macs(Conv(3, 3, 32, groups=32, bias=False), shape)
        assert dense == 32 * depthwise

    def test_pool_is_free(self):
        assert layer_macs(Pool("avg", 3, 2), TensorShape(27, 27, 96)) == 0


class TestModelTotals:
    def test_alexnet_scale(self):
        params = model_params(zoo.alexnet())
        assert params == 60_965_224

    def test_input_only_graph_is_empty(self):
        b = GraphBuilder("empty")
        b.input(TensorShape(32, 32, 3))
        g = b.build()
        assert model_params(g) == 0
        assert model_macs(g) == 0
        assert report(g).storage_bytes == 0

    def test_storage_is_params_times_word(self):
        g = zoo.squeezenet(0.5)
        assert report(g).storage_bytes == 4 * model_params(g)

    def test_fc7_dwarfs_squeezenet(self):
        ratio = (layer_params(FullyConnected(4096), TensorShape(1, 1, 4096))
                 / model_params(zoo.squeezenet(0.5)))
        assert 13 <= ratio <= 15

    def test_grouping_scales_model_macs(self):
        def variant(g):
            b = GraphBuilder(f"g{g}")
            x = b.input(TensorShape(8, 8, 16))
            b.conv(x, 3, 16, groups=g, pad=1, bias=False)
            return b.build()

        base = model_macs(variant(1))
        for g in (2, 4, 16):
            assert model_macs(variant(g)) * g == base


class TestPeakActivations:
    def test_single_relu_counts_input_and_output(self):
        b = GraphBuilder("relu")
        x = b.input(TensorShape(10, 10, 10))
        b.relu(x)
        assert peak_activation_bytes(b.build()) == 8000

    def test_diamond_keeps_squeeze_output_live(self):
        # squeeze output must stay live across both expand branches
        b = GraphBuilder("diamond")
        x = b.input(TensorShape(4, 4, 2))       # 32 elements
        s = b.conv(x, 1, 8, name="squeeze")     # 128 elements
        left = b.conv(s, 1, 4, name="left")     # 64 elements
        right = b.conv(s, 3, 4, pad=1, name="right")  # 64 elements
        b.concat([left, right])                 # 128 elements
        # executing "right": squeeze (128) + left (64) + right (64) all live
        assert peak_activation_bytes(b.build()) == 4 * (128 + 64 + 64)

    def test_later_pool_never_reduces_peak(self):
        def with_pool_at(k):
            b = GraphBuilder(f"pool_at_{k}")
            x = b.input(TensorShape(32, 32, 8))
            for i in range(1, 6):
                x = b.conv(x, 3, 8, pad=1, name=f"conv{i}")
                if i == k:
                    x = b.maxpool(x, 2, 2)
            return b.build()

        peaks = [peak_activation_bytes(with_pool_at(k)) for k in range(1, 6)]
        assert all(b >= a for a, b in zip(peaks, peaks[1:]))


class TestLayerCosts:
    def test_rows_follow_execution_order(self):
        b = GraphBuilder("diamond")
        x = b.input(TensorShape(4, 4, 2))       # 32 elements
        s = b.conv(x, 1, 8, name="squeeze")     # 128 elements
        right = b.conv(s, 3, 4, pad=1, name="right")  # 64 elements
        left = b.conv(s, 1, 4, name="left")     # 64 elements
        b.concat([left, right], name="cat")     # 128 elements
        g = b.build()
        rows = layer_costs(g)
        assert [r.node_id for r in rows] == ["input", "squeeze", "right", "left", "cat"]
        # squeeze frees the input; left frees squeeze; cat frees everything
        assert [r.live_words for r in rows] == [32, 160, 192, 256, 256]
        assert rows[-1].in_shapes == (TensorShape(4, 4, 4), TensorShape(4, 4, 4))
        assert [r.params for r in rows] == [0, 24, 292, 36, 0]
        assert [r.weights for r in rows] == [
            {},
            {"weight": (8, 2, 1, 1), "bias": (8,)},
            {"weight": (4, 8, 3, 3), "bias": (4,)},
            {"weight": (4, 8, 1, 1), "bias": (4,)},
            {},
        ]
        assert sum(r.macs for r in rows) == model_macs(g)

    def test_report_walks_only_a_graph_declared_out_of_order(self, monkeypatch):
        calls = []

        def counting(name, original):
            def wrapper(g):
                calls.append(name)
                return original(g)
            return wrapper

        for name in ("topological_order", "_walk"):
            monkeypatch.setattr(graph, name, counting(name, getattr(graph, name)))
        for g in (zoo.alexnet(), zoo.vgg19(), zoo.squeezenet(), zoo.mobilenet_like()):
            calls.clear()
            in_order = report(g)
            assert calls == []  # bound and priced in one loop, neither walked nor sorted
            reverse = graph.ArchGraph(g.name, g.nodes[::-1], g.preds)
            assert report(reverse) == in_order
            assert sorted(calls) == ["_walk", "topological_order"]

    @pytest.mark.parametrize("g", REPORTED, ids=lambda g: g.name)
    def test_the_pricing_loop_declines_what_the_walk_reports(self, g):
        assert graph.validate(g)
        assert costs._price(g.nodes, g.preds) is None
        with pytest.raises(graph.GraphError) as walked:
            graph.infer_shapes(g)
        with pytest.raises(graph.GraphError) as priced:
            report(g)
        assert (type(priced.value), str(priced.value)) == (type(walked.value),
                                                           str(walked.value))


class TestEnergy:
    def test_spilled_weights_double_the_bill(self):
        # 1M params / 100M MACs at 1 pJ per MAC: weights spill past 1 MB
        p = PlatformSpec(on_chip_bytes=1 << 20, e_mac=1e-12, macs_per_second=1e9)
        e = energy_from_counts(100_000_000, 1_000_000, 0, 0, p)
        assert e == pytest.approx(200e-6, rel=1e-9)

    def test_everything_on_chip_halves_it(self):
        p = PlatformSpec(on_chip_bytes=16 << 20, e_mac=1e-12, macs_per_second=1e9)
        e = energy_from_counts(100_000_000, 1_000_000, 0, 0, p)
        assert e == pytest.approx(100e-6, rel=1e-9)

    def test_halving_params_strictly_helps_offchip_models(self):
        p = PlatformSpec(on_chip_bytes=1 << 20, e_mac=1e-12, macs_per_second=1e9)
        big = energy_from_counts(100_000_000, 1_000_000, 0, 0, p)
        small = energy_from_counts(100_000_000, 500_000, 0, 0, p)
        assert small < big

    def test_batch_amortizes_weight_traffic_only(self):
        p = PlatformSpec(on_chip_bytes=1 << 20, e_mac=1e-12, macs_per_second=1e9)
        e1 = energy_from_counts(100_000_000, 1_000_000, 0, 0, p, batch=1)
        e4 = energy_from_counts(100_000_000, 1_000_000, 0, 0, p, batch=4)
        assert e4 == pytest.approx(100e-6 + 25e-6, rel=1e-9)
        assert e4 < e1

    @pytest.mark.parametrize("batch, problem", [
        (0, "must be strictly positive"), (-1, "must be strictly positive"),
        (2.5, "must be an integer, got 2.5"), (2.0, "must be an integer, got 2.0"),
        (True, "must be a number, got True"), (math.inf, "must be finite, got inf"),
        (math.nan, "must be finite, got nan"), ("2", "must be a number, got '2'"),
    ], ids=["0", "-1", "2.5", "2.0", "True", "inf", "nan", "2"])
    def test_batch_that_is_not_a_positive_int_is_refused(self, batch, problem):
        # an infinite batch would drop alexnet's spilled-weight traffic, and a
        # NaN one read as an overflow in report
        message = f"^batch {re.escape(problem)}$"
        with pytest.raises(ValueError, match=message):
            energy_from_counts(100_000_000, 1_000_000, 0, 0, PLATFORM, batch=batch)
        with pytest.raises(ValueError, match=message):
            report(zoo.alexnet(), batch=batch)

    def test_graph_estimate_includes_activation_traffic(self):
        g = zoo.squeezenet(0.5)
        tight = PlatformSpec(on_chip_bytes=1024, e_mac=1e-12, macs_per_second=1e9)
        roomy = PlatformSpec(on_chip_bytes=1 << 30, e_mac=1e-12, macs_per_second=1e9)
        spilled = report(g, tight).energy_per_frame
        resident = report(g, roomy).energy_per_frame
        macs_only = model_macs(g) * 1e-12
        assert resident == pytest.approx(macs_only, rel=1e-9)
        words = model_params(g) + activation_traffic_words(g)
        assert spilled == pytest.approx(macs_only + words * 100 * 1e-12, rel=1e-9)


class TestReport:
    def test_fields_are_consistent(self):
        g = zoo.squeezenet(0.5)
        m = report(g, DEFAULT_PLATFORM)
        assert m.storage_bytes == 4 * m.total_params
        assert m.ota_bytes == m.storage_bytes
        assert m.fps_proxy == pytest.approx(DEFAULT_PLATFORM.macs_per_second / m.total_macs)
        assert m.recorded_top5_error is None

    def test_deterministic(self):
        g = zoo.alexnet()
        a = json.dumps(report(g, PLATFORM).to_dict())
        b = json.dumps(report(g, PLATFORM).to_dict())
        assert a == b

    def test_input_only_graph_has_infinite_fps_proxy(self):
        b = GraphBuilder("empty")
        b.input(TensorShape(8, 8, 3))
        m = report(b.build(), PLATFORM)
        assert math.isinf(m.fps_proxy)
        assert m.to_dict()["fps_proxy"] is None

    def test_platform_validation(self):
        with pytest.raises(ValueError, match="^PlatformSpec: on_chip_bytes must be strictly "):
            PlatformSpec(on_chip_bytes=0, e_mac=1e-12, macs_per_second=1e9)

    @pytest.mark.parametrize("name", ["word_bytes", "on_chip_bytes"])
    def test_numpy_integer_platform_reports_as_the_python_one(self, name):
        given = {"on_chip_bytes": 1 << 20, "e_mac": 1e-12, "macs_per_second": 1e9,
                 "word_bytes": 4}
        platform = PlatformSpec(**given | {name: np.int64(given[name])})
        m, expected = report(zoo.alexnet(), platform), report(zoo.alexnet(), PlatformSpec(**given))
        assert m == expected
        assert json.dumps(m.to_dict()) == json.dumps(expected.to_dict())


class TestCheckRecord:
    FIELDS = settings.config_fields(PlatformSpec)
    REQUIRED = {"on_chip_bytes": 1, "e_mac": 1e-12, "macs_per_second": 1e9}

    def test_absent_keys_take_their_defaults(self):
        assert settings.check_record(self.REQUIRED, self.FIELDS, "p.json") == {
            **self.REQUIRED, "offchip_ratio": 100.0, "word_bytes": 4}

    @pytest.mark.parametrize("record, message", [
        ([], "p.json: top level must be an object"),
        ({**REQUIRED, "dram_banks": 4}, "p.json: unknown key(s) ['dram_banks'] (allowed: "
         "['e_mac', 'macs_per_second', 'offchip_ratio', 'on_chip_bytes', 'word_bytes'])"),
        ({"e_mac": 1e-12}, "p.json: missing key(s) ['macs_per_second', 'on_chip_bytes']"),
        ({**REQUIRED, "e_mac": 0}, "p.json: e_mac must be strictly positive"),
    ], ids=["not_an_object", "unknown_key", "missing_key", "refused_value"])
    def test_each_refusal_names_the_label(self, record, message):
        with pytest.raises(ValueError) as exc:
            settings.check_record(record, self.FIELDS, "p.json")
        assert type(exc.value) is ValueError and str(exc.value) == message


@pytest.mark.parametrize("config", settings.NumericConfig.__subclasses__(),
                         ids=lambda config: config.__name__)
def test_a_numpy_config_value_is_stored_as_a_python_number(config):
    given = {f.name: np.int64(2) if f.kind is int else np.float32(0.5)
             for f in settings.config_fields(config)}
    stored = config(**given)
    for f in settings.config_fields(config):
        assert type(getattr(stored, f.name)) is f.kind and getattr(stored, f.name) == given[f.name]


def every_field():
    """Every ``settings.Field`` of the package: those bound to a module-level
    name (keyed by the field's name), each family's metaparameters and each
    numeric config's fields."""
    modules = [importlib.import_module(f"convdse.{m.name}")
               for m in pkgutil.iter_modules(convdse.__path__)]
    found = {f.name: f for module in modules for f in vars(module).values()
             if isinstance(f, settings.Field)}
    for family, spec in explore.FAMILIES.items():
        found.update({f"{family}.{f.name}": f for f in spec.params})
    for config in settings.NumericConfig.__subclasses__():
        found.update({f"{config.__name__}.{f.name}": f for f in settings.config_fields(config)})
    return found


FIELDS = every_field()


def test_every_field_is_walked():
    assert {"batch", "target_sparsity", "bits", "rel_index_bits", "top5_error", "epsilon",
            "squeezenet.p",
            "squeezenet.pool_placement", "squeezenet.pool_count", "mobilenet.width_mult",
            "PlatformSpec.on_chip_bytes", "ConstraintSet.max_onchip_bytes"} <= set(FIELDS)


@pytest.mark.parametrize("where, value", [
    (where, value) for where, f in FIELDS.items()
    for value in (True, "0.5", math.nan) + ((2.5,) if f.kind is int else ())])
def test_every_field_refuses_a_bool_a_string_nan_and_a_fraction_for_an_int(where, value):
    f = FIELDS[where]
    assert f.problem(value) is not None
    with pytest.raises(ValueError, match=f"^{re.escape(f.name)} must be "):
        f.check(value)


@pytest.mark.parametrize("where", sorted(FIELDS))
def test_check_hands_on_a_python_number_of_the_fields_kind(where):
    f = FIELDS[where]
    if f.default is None:
        assert f.check(None) is None
    if isinstance(f.kind, tuple):
        assert all(f.check(choice) is choice for choice in f.kind)
        return
    value = next(v for v in (1, 0) if f.problem(v) is None)
    given = [value, np.int64(value), np.uint8(value)]
    if f.kind is float:
        given += [float(value), np.float32(value), np.float64(value)]
    for v in given:
        checked = f.check(v)
        assert type(checked) is f.kind and checked == v


@pytest.mark.parametrize("where", sorted(w for w, f in FIELDS.items() if f.kind is float))
def test_a_numpy_float32_infinity_or_nan_is_refused_without_a_warning(where):
    # in float32 the largest float overflows to infinity, with a RuntimeWarning
    f = FIELDS[where]
    for value in (np.float32(np.inf), np.float32(np.nan)):
        if "inf" in f.bound or not f.bound:
            assert f.problem(value) == f"must be finite, got {value!r}"
        else:
            assert f.problem(value) is not None
