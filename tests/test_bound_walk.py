"""Parity golden for the cost model and the topological order.

Every value below was recorded from the implementation that re-ran shape
inference once per metric. Any rewrite of the graph walk or the cost
reductions must reproduce them exactly, floats included.
"""

import pytest

from convdse import costs, explore
from convdse.graph import (ArchGraph, Concat, Conv, GraphBuilder, Input, ReLU, TensorShape,
                           topological_order)


def concat3():
    """A squeeze conv feeding three expand branches of different widths."""
    b = GraphBuilder("concat3")
    x = b.input(TensorShape(16, 16, 8))
    s = b.conv(x, 1, 4, name="squeeze")
    left = b.conv(s, 1, 8, name="e1")
    mid = b.conv(s, 3, 12, pad=1, name="e3")
    right = b.conv(s, 5, 6, pad=2, bias=False, name="e5")
    x = b.concat([left, mid, right])
    x = b.relu(x)
    x = b.maxpool(x, 3, 2, ceil_mode=True)
    x = b.conv(x, 1, 10)
    b.gap(x)
    return b.build()


def chain300():
    """Input plus 299 1x1 convolutions: 300 nodes."""
    b = GraphBuilder("chain300")
    x = b.input(TensorShape(8, 8, 16))
    for _ in range(299):
        x = b.conv(x, 1, 16)
    return b.build()


def shuffled_graph():
    """Declared out of topological order; ``c`` and ``b`` become ready
    together, and declaration index breaks the tie."""
    return ArchGraph("shuffled", (
        ("d", Concat()),
        ("input", Input(TensorShape(4, 4, 2))),
        ("c", Conv(1, 1, 2)),
        ("a", ReLU()),
        ("b", Conv(3, 3, 2, pad=1)),
        ("e", ReLU()),
    ), {"d": ("b", "c"), "input": (), "c": ("a",), "a": ("input",), "b": ("a",),
        "e": ("d",)})


def _family(name, **params):
    return lambda: explore.build_family(name, params)


CASES = {
    "alexnet": _family("alexnet"),
    "vgg19": _family("vgg19"),
    "squeezenet": _family("squeezenet"),
    "mobilenet": _family("mobilenet"),
    "squeezenet-0.125-early-1": _family("squeezenet", p=0.125, pool_placement="early",
                                        pool_count=1),
    "squeezenet-0.25-even-2": _family("squeezenet", p=0.25, pool_placement="even",
                                      pool_count=2),
    "squeezenet-0.5-late-3": _family("squeezenet", p=0.5, pool_placement="late",
                                     pool_count=3),
    "squeezenet-0.75-early-4": _family("squeezenet", p=0.75, pool_placement="early",
                                       pool_count=4),
    "squeezenet-1.0-even-3": _family("squeezenet", p=1.0, pool_placement="even",
                                     pool_count=3),
    "squeezenet-0.375-late-2": _family("squeezenet", p=0.375, pool_placement="late",
                                       pool_count=2),
    "concat3": concat3,
    "chain300": chain300,
}


# name, total_params, storage_bytes, total_macs, peak_activation_bytes,
# energy_per_frame, fps_proxy, ota_bytes, recorded_top5_error,
# recorded_training_latency: the to_dict() values in key order
GOLDEN = {
    "alexnet": (
        "alexnet", 60965224, 243860896, 724406816, 2323200,
        0.007139748216, 13.804397997271192, 243860896, None, None),
    "vgg19": (
        "vgg19", 143667240, 574668960, 19632062464, 25690112,
        0.040279180864, 0.5093708324500978, 574668960, None, None),
    "squeezenet": (
        "squeezenet(p=0.5)", 1248424, 4993696, 832667936, 9462528,
        0.003342357336, 12.009589378496255, 4993696, None, None),
    "mobilenet": (
        "mobilenet(x1)", 4221032, 16884128, 568740352, 6422528,
        0.0030383291519999996, 17.58271584710768, 16884128, None, None),
    "squeezenet-0.125-early-1": (
        "squeezenet(p=0.125)", 879784, 3519136, 2780504352, 24200000,
        0.009683128151999999, 3.596469824910384, 3519136, None, None),
    "squeezenet-0.25-even-2": (
        "squeezenet(p=0.25)", 1002664, 4010656, 1371857184, 12616704,
        0.006866320984, 7.289388514074363, 4010656, None, None),
    "squeezenet-0.5-late-3": (
        "squeezenet(p=0.5)", 1248424, 4993696, 5080424736, 37850112,
        0.019787650136, 1.968339365238458, 4993696, None, None),
    "squeezenet-0.75-early-4": (
        "squeezenet(p=0.75)", 1494184, 5976736, 293980448, 9462528,
        0.001291282648, 34.01586761307337, 5976736, None, None),
    "squeezenet-1.0-even-3": (
        "squeezenet(p=1)", 1739944, 6959776, 1425236256, 12616704,
        0.004035431256, 7.016380588061605, 6959776, None, None),
    "squeezenet-0.375-late-2": (
        "squeezenet(p=0.375)", 1125544, 4502176, 6360678688, 50466816,
        0.025284044888, 1.5721592758436158, 4502176, None, None),
    "concat3": (
        "concat3", 1390, 5560, 297216, 53248,
        2.97216e-07, 33645.56416881998, 5560, None, None),
    "chain300": (
        "chain300", 81328, 325312, 4898816, 8192,
        4.898816e-06, 2041.3095735785953, 325312, None, None),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case):
    assert tuple(costs.report(CASES[case]()).to_dict().values()) == GOLDEN[case]


def test_topological_order_breaks_ties_by_declaration():
    assert topological_order(shuffled_graph()) == ["input", "a", "c", "b", "d", "e"]
