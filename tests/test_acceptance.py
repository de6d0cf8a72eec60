"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report. Published-size checks use decimal MB (1 MB = 10**6 B), matching how
the reference figures round; exact byte counts are asserted wherever the
number is exact.
"""

import numpy as np
import pytest

from convdse import compress, costs, properties, refexec, zoo
from convdse.costs import PlatformSpec, energy_from_counts
from convdse.explore import (ConstraintSet, attach_accuracy, check_constraints,
                             find_saturation, pareto_front, sweep)
from convdse.graph import Conv, TensorShape, infer_shapes
from convdse.weights import WeightTensor
from convdse.zoo import PoolPlacement, place_downsampling

PLATFORM = PlatformSpec(on_chip_bytes=8 << 20, e_mac=1e-12, macs_per_second=1e10)
MB = 1_000_000


def criterion(number: int, description: str, ok: bool, detail: str) -> None:
    print(f"criterion {number:2d} {'PASS' if ok else 'FAIL'}: {description} ({detail})")
    assert ok, f"criterion {number}: {description}: {detail}"


def test_criterion_01_alexnet_scale():
    params = costs.model_params(zoo.alexnet())
    storage = params * 4
    ok = 57e6 <= params <= 63e6 and abs(storage - 240 * MB) / (240 * MB) <= 0.05
    criterion(1, "alexnet parameter and storage scale", ok,
              f"params={params:,}, storage={storage:,} B")


def test_criterion_02_alexnet_fc7():
    g = zoo.alexnet()
    shape = refexec.expected_weight_shapes(g)["fc7.weight"]
    weight_count = int(np.prod(shape))
    ok = weight_count == 16_777_216 and weight_count * 4 == 67_108_864
    criterion(2, "alexnet fc7 weight count", ok,
              f"weights={weight_count:,} = {weight_count * 4:,} B")


def test_criterion_03_squeezenet_scale():
    params = costs.model_params(zoo.squeezenet(0.5))
    storage = params * 4
    ok = 1.15e6 <= params <= 1.30e6 and 4.6 * MB <= storage <= 5.2 * MB
    criterion(3, "squeezenet(0.5) parameter and storage scale", ok,
              f"params={params:,}, storage={storage:,} B")


def test_criterion_04_fc7_vs_squeezenet():
    g = zoo.alexnet()
    fc7_in = infer_shapes(g)[g.preds["fc7"][0]]
    fc7_params = costs.layer_params(dict(g.nodes)["fc7"], fc7_in)
    ratio = fc7_params / costs.model_params(zoo.squeezenet(0.5))
    ok = 13 <= ratio <= 15
    criterion(4, "fc7 alone outweighs squeezenet 13-15x", ok, f"ratio={ratio:.2f}")


def test_criterion_05_vgg19_scale():
    storage = costs.model_params(zoo.vgg19()) * 4
    ratio = costs.model_params(zoo.vgg19()) / costs.model_params(zoo.squeezenet(0.5))
    ok = 563 * MB <= storage <= 587 * MB and 108 <= ratio <= 132
    criterion(5, "vgg19 storage and parameter ratio", ok,
              f"storage={storage:,} B, ratio={ratio:.1f}")


def test_criterion_06_vgg_vs_mobilenet_compute():
    ratio = costs.model_macs(zoo.vgg19()) / costs.model_macs(zoo.mobilenet_like(1.0))
    ok = 25 <= ratio <= 40
    criterion(6, "vgg19 needs 25-40x the MACs of the separable stack", ok,
              f"ratio={ratio:.1f}")


def test_criterion_07_kernel_reduction_factor():
    shape = TensorShape(13, 13, 48)
    one = costs.layer_params(Conv(1, 1, 192, bias=False), shape)
    three = costs.layer_params(Conv(3, 3, 192, bias=False), shape)
    ok = three == 9 * one
    criterion(7, "1x1 filters carry exactly 9x fewer weights than 3x3", ok,
              f"{three:,} vs {one:,}")


def test_criterion_08_depthwise_factor():
    shape = TensorShape(14, 14, 64)
    c = shape.channels
    dense = Conv(3, 3, c, groups=1, bias=False)
    depthwise = Conv(3, 3, c, groups=c, bias=False)
    params_ok = costs.layer_params(dense, shape) == c * costs.layer_params(depthwise, shape)
    macs_ok = costs.layer_macs(dense, shape) == c * costs.layer_macs(depthwise, shape)
    ok = params_ok and macs_ok
    criterion(8, "depthwise grouping saves exactly a factor of C", ok,
              f"C={c}, params x{c}: {params_ok}, macs x{c}: {macs_ok}")


def test_criterion_09_saturation_on_flat_plateau():
    p_values = [0.5, 0.675, 0.75, 0.825, 1.0]
    points = sweep("squeezenet", {"p": p_values}, PLATFORM)
    points, _ = attach_accuracy(points, [{"p": p, "top5_error": 0.15} for p in p_values])
    ordered = sorted(points, key=lambda pt: pt.metrics.total_params)
    found = find_saturation(ordered, epsilon=0.005)
    ok = found is not None and found.metaparams["p"] == 0.5
    criterion(9, "flat error plateau saturates at p=0.5", ok,
              f"found={None if found is None else found.metaparams}")


def test_criterion_10_compressor():
    rng = np.random.default_rng(2024)
    exact = 0
    for i in range(100):
        n = int(rng.integers(1, 600))
        t = WeightTensor(f"t{i}", (n,),
                         (rng.standard_normal(n) * rng.uniform(0.01, 5)).astype(np.float32))
        pruned = compress.prune_magnitude(t, float(rng.uniform(0, 0.95)))
        qt = compress.kmeans_quantize(pruned, int(rng.integers(1, 9)))
        model = compress.read_sdnc(compress.write_sdnc(
            compress.encode([qt], rel_index_bits=int(rng.integers(1, 9)))))
        if np.array_equal(compress.decode_model(model)[0].values,
                          qt.dequantize().values):
            exact += 1

    tensors = refexec.random_weights(zoo.squeezenet(0.5), rng)
    dense = sum(4 * t.size for t in tensors)
    model = compress.compress_model(tensors, 0.7, 6, rel_index_bits=4)
    ratio = compress.compression_report(dense, model).ratio
    ok = exact == 100 and ratio >= 8
    criterion(10, "codec round-trips bit-exactly and squeezes >= 8x", ok,
              f"exact={exact}/100, ratio={ratio:.1f}")


def test_criterion_11_cross_module_oracles():
    macs = properties.check_mac_counts(seed=77, trials=20)
    shapes = properties.check_run_shapes(seed=78, trials=12)
    blockdiag = properties.check_grouped_vs_blockdiag(seed=79, tol=1e-6)
    ok = macs.passed and shapes.passed and blockdiag.passed
    criterion(11, "instrumented MACs, executed shapes, grouped-vs-dense", ok,
              f"macs={macs.passed}, shapes={shapes.passed}, blockdiag={blockdiag.passed}")


def test_criterion_12_shuffle_properties():
    order_ok = refexec.shuffle_sources(6, 2) == [0, 3, 1, 4, 2, 5]
    rng = np.random.default_rng(12)
    inverse_ok = True
    for _ in range(20):
        g = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        c = g * n
        if sorted(refexec.shuffle_sources(c, g)) != list(range(c)):
            inverse_ok = False
            break
        x = rng.standard_normal((c, 2, 2)).astype(np.float32)
        if not np.array_equal(refexec.shuffle_forward(refexec.shuffle_forward(x, g), n), x):
            inverse_ok = False
            break
    ok = order_ok and inverse_ok
    criterion(12, "channel shuffle is a self-inverting bijection", ok,
              f"fixed order={order_ok}, inverse on 20 random (g, C)={inverse_ok}")


def test_criterion_13_pareto_vs_brute_force():
    from convdse.costs import MetricsReport
    from convdse.explore import DesignPoint

    rng = np.random.default_rng(13)
    cloud = []
    for i in range(50):
        params = int(rng.integers(1, 40))
        err = float(rng.integers(1, 40)) / 100
        metrics = MetricsReport(name=f"pt{i}", total_params=params,
                                storage_bytes=4 * params, total_macs=1,
                                peak_activation_bytes=0, energy_per_frame=0.0,
                                fps_proxy=1.0, ota_bytes=4 * params)
        cloud.append(DesignPoint({}, metrics, top5_error=err))

    objectives = [("total_params", "min"), ("top5_error", "min")]
    front = pareto_front(cloud, objectives)

    # independent O(n^2) dominance oracle
    keys = [(p.metrics.total_params, p.top5_error) for p in cloud]
    brute = []
    for i, p in enumerate(cloud):
        dominated = False
        for j in range(len(cloud)):
            if j == i:
                continue
            if (keys[j][0] <= keys[i][0] and keys[j][1] <= keys[i][1]
                    and keys[j] != keys[i]):
                dominated = True
                break
        if not dominated:
            brute.append(p)
    same = sorted(map(id, front)) == sorted(map(id, brute))
    idempotent = pareto_front(front, objectives) == front
    ok = same and idempotent
    criterion(13, "pareto front equals brute-force dominance and is idempotent", ok,
              f"front={len(front)}, brute={len(brute)}, idempotent={idempotent}")


def test_criterion_14_energy_model():
    macs, params = 100_000_000, 1_000_000
    tight = PlatformSpec(on_chip_bytes=1 << 20, e_mac=1e-12, macs_per_second=1e9)
    roomy = PlatformSpec(on_chip_bytes=16 << 20, e_mac=1e-12, macs_per_second=1e9)
    spilled = energy_from_counts(macs, params, 0, 0, tight)
    resident = energy_from_counts(macs, params, 0, 0, roomy)
    ok = (spilled == pytest.approx(200e-6, rel=1e-9)
          and resident == pytest.approx(100e-6, rel=1e-9))
    criterion(14, "all-or-nothing energy model hits 200uJ / 100uJ", ok,
              f"spilled={spilled * 1e6:.3f}uJ, resident={resident * 1e6:.3f}uJ")


def test_criterion_15_downsampling_placement():
    even = place_downsampling(10, PoolPlacement("even", 3))
    macs = {s: costs.model_macs(zoo.squeezenet(0.5, PoolPlacement(s)))
            for s in ("early", "even", "late")}
    ok = even == [3, 5, 8] and macs["late"] >= macs["even"] >= macs["early"]
    criterion(15, "even spacing lands on {3,5,8} and compute orders late>=even>=early",
              ok, f"even={even}, macs={macs}")


def test_squeezenet_misses_the_8mb_sram_budget():
    # companion to the constraint examples: fp32 squeezenet plus its live
    # activations cannot fit the 8192 KB goal at 227x227 input
    point = sweep("squeezenet", {"p": [0.5]}, PLATFORM)[0]
    result = check_constraints(point, ConstraintSet(max_onchip_bytes=8192 * 1024))
    assert not result.passed
