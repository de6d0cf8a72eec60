import json
import re

import numpy as np
import pytest

from convdse import zoo
from convdse.descriptor import DescriptorError, parse, serialize
from convdse.graph import GraphBuilder, TensorShape
from convdse.properties import random_graph


def test_alexnet_round_trip():
    g = zoo.alexnet()
    assert parse(serialize(g)) == g


@pytest.mark.parametrize("make", [zoo.vgg19, lambda: zoo.squeezenet(0.75),
                                  lambda: zoo.mobilenet_like(0.5)])
def test_generator_round_trips(make):
    g = make()
    assert parse(serialize(g)) == g


@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("ceil_mode", [True, False])
def test_builder_flags_round_trip(bias, ceil_mode):
    b = GraphBuilder("flags")
    x = b.input(TensorShape(9, 9, 3))
    x = b.maxpool(b.conv(x, 3, 8, bias=bias), 3, 2, ceil_mode=ceil_mode)
    x = b.avgpool(x, 2, 2, ceil_mode=ceil_mode)
    b.fc(x, 10, bias=bias)
    g = b.build()
    assert parse(serialize(g)) == g


def test_random_graph_round_trips():
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = random_graph(rng)
        assert parse(serialize(g)) == g


def test_duplicate_id_rejected():
    text = json.dumps({"name": "dup", "nodes": [
        {"id": "input", "op": "input",
         "params": {"height": 4, "width": 4, "channels": 3}, "inputs": []},
        {"id": "input", "op": "relu", "params": {}, "inputs": ["input"]},
    ]})
    with pytest.raises(DescriptorError, match="duplicate id"):
        parse(text)


def test_empty_node_list_means_missing_input():
    with pytest.raises(DescriptorError, match="missing Input"):
        parse(json.dumps({"name": "empty", "nodes": []}))


def test_unknown_op_tag():
    text = json.dumps({"name": "x", "nodes": [
        {"id": "a", "op": "batchnorm", "params": {}, "inputs": []}]})
    with pytest.raises(DescriptorError, match="unknown op tag"):
        parse(text)


def test_unknown_keys_rejected():
    with pytest.raises(DescriptorError, match="unknown key"):
        parse(json.dumps({"name": "x", "nodes": [], "extra": 1}))
    text = json.dumps({"name": "x", "nodes": [
        {"id": "a", "op": "input",
         "params": {"height": 4, "width": 4, "channels": 3, "depth": 7}, "inputs": []}]})
    with pytest.raises(DescriptorError, match="unknown key"):
        parse(text)


def test_malformed_json_reports_line():
    bad = '{\n  "name": "x",\n  "nodes": [}\n}'
    with pytest.raises(DescriptorError, match="line 3"):
        parse(bad)


def test_json_nested_past_the_parser_limit_is_a_descriptor_error():
    with pytest.raises(DescriptorError, match="^descriptor: JSON nested too deeply$"):
        parse("[" * 200_000 + "]" * 200_000)


def test_bad_field_type_names_node_and_field():
    text = json.dumps({"name": "x", "nodes": [
        {"id": "input", "op": "input",
         "params": {"height": 4, "width": 4, "channels": 3}, "inputs": []},
        {"id": "c", "op": "conv",
         "params": {"kernel": "big", "filters": 8}, "inputs": ["input"]},
    ]})
    with pytest.raises(DescriptorError, match=r"\(c\).*kernel"):
        parse(text)


def test_conv_kernel_accepts_scalar():
    text = json.dumps({"name": "x", "nodes": [
        {"id": "input", "op": "input",
         "params": {"height": 8, "width": 8, "channels": 3}, "inputs": []},
        {"id": "c", "op": "conv", "params": {"kernel": 3, "filters": 8}, "inputs": ["input"]},
    ]})
    g = parse(text)
    spec = dict(g.nodes)["c"]
    assert (spec.kernel_h, spec.kernel_w) == (3, 3)
    assert spec.groups == 1 and spec.stride == 1 and spec.pad == 0 and spec.bias


# every op that has fields: a valid params object, and which of its fields
# are required, integers and booleans
VALID = {
    "input": {"height": 8, "width": 8, "channels": 4},
    "conv": {"kernel": [3, 3], "filters": 8, "groups": 2, "stride": 1, "pad": 1, "bias": True},
    "fc": {"filters": 10, "bias": False},
    "pool": {"kind": "max", "kernel": 2, "stride": 2, "ceil_mode": False},
    "shuffle": {"groups": 2},
}
REQUIRED = {"input": ("height", "width", "channels"), "conv": ("kernel", "filters"),
            "fc": ("filters",), "pool": ("kind", "kernel", "stride"), "shuffle": ("groups",)}
INTS = {"input": ("height", "width", "channels"),
        "conv": ("kernel", "filters", "groups", "stride", "pad"),
        "fc": ("filters",), "pool": ("kernel", "stride"), "shuffle": ("groups",)}
BOOLS = {"conv": ("bias",), "fc": ("bias",), "pool": ("ceil_mode",)}


def _one_op(op, params):
    """A descriptor whose node under test is nodes[0] (in) for the input op
    and nodes[1] (x) otherwise."""
    nodes = [{"id": "in", "op": "input", "params": VALID["input"], "inputs": []}]
    if op == "input":
        nodes[0]["params"] = params
    else:
        nodes.append({"id": "x", "op": op, "params": params, "inputs": ["in"]})
    return json.dumps({"name": "one", "nodes": nodes})


def _without(params, field):
    return {k: v for k, v in params.items() if k != field}


REFUSALS = (
    [(op, f, "missing", _without(VALID[op], f)) for op in REQUIRED for f in REQUIRED[op]]
    + [(op, f, "bool_for_int", VALID[op] | {f: True}) for op in INTS for f in INTS[op]]
    + [(op, f, "int_for_bool", VALID[op] | {f: 1}) for op in BOOLS for f in BOOLS[op]]
    + [("pool", "kind", "number", VALID["pool"] | {"kind": 3})]
    + [(op, "depth", "unknown_key", VALID[op] | {"depth": 7}) for op in VALID]
)


@pytest.mark.parametrize("op", sorted(VALID))
def test_valid_params_parse(op):
    parse(_one_op(op, VALID[op]))


@pytest.mark.parametrize("op, field, params", [(op, f, p) for op, f, _, p in REFUSALS],
                         ids=[f"{op}-{f}-{what}" for op, f, what, _ in REFUSALS])
def test_bad_params_name_node_and_field(op, field, params):
    where = "nodes[0] (in)" if op == "input" else "nodes[1] (x)"
    with pytest.raises(DescriptorError, match=re.escape(where) + f".*'{field}'"):
        parse(_one_op(op, params))


# (descriptor document, exact message): one case for every refusal of
# `parse`, each naming the node or the top level where it has one
STRUCTURE_REFUSALS = {
    "top_level_list": ([], "top level must be an object"),
    "name_number": ({"name": 3, "nodes": []}, "top level: field 'name' must be a string"),
    "nodes_object": ({"name": "x", "nodes": {}}, "top level: field 'nodes' must be a list"),
    "node_number": ({"name": "x", "nodes": [3]}, "nodes[0]: must be an object"),
    "id_number": ({"name": "x", "nodes": [{"id": 5, "op": "input"}]},
                  "nodes[0]: field 'id' must be a non-empty string"),
    "id_empty": ({"name": "x", "nodes": [{"id": "", "op": "input"}]},
                 "nodes[0]: field 'id' must be a non-empty string"),
    "op_number": ({"name": "x", "nodes": [{"id": "q", "op": 5}]},
                  "nodes[0] (q): field 'op' must be a string"),
    "params_list": ({"name": "x", "nodes": [{"id": "q", "op": "input", "params": []}]},
                    "nodes[0] (q): field 'params' must be an object"),
    "inputs_string": ({"name": "x", "nodes": [
        {"id": "q", "op": "input", "params": VALID["input"], "inputs": "in"}]},
        "nodes[0] (q): field 'inputs' must be a list of node ids"),
    "inputs_number_id": ({"name": "x", "nodes": [
        {"id": "q", "op": "input", "params": VALID["input"], "inputs": [1]}]},
        "nodes[0] (q): field 'inputs' must be a list of node ids"),
    "height_zero": (json.loads(_one_op("input", VALID["input"] | {"height": 0})),
                    "nodes[0] (in): TensorShape.height must be a positive integer, got 0"),
    "pool_kind_middle": (json.loads(_one_op("pool", VALID["pool"] | {"kind": "middle"})),
                         "nodes[1] (x): Pool.kind must be 'max' or 'avg', got 'middle'"),
    "top_level_unknown_key": ({"name": "x", "nodes": [], "extra": 1},
                              "top level: unknown key(s) ['extra']"),
    "no_nodes": ({"name": "x", "nodes": []}, "missing Input node"),
    "no_input_node": ({"name": "x", "nodes": [{"id": "r", "op": "relu"}]},
                      "missing Input node"),
    # a valid id does not name a node whose keys are refused
    "node_unknown_key": ({"name": "x", "nodes": [{"id": "q", "op": "input", "extra": 1}]},
                         "nodes[0]: unknown key(s) ['extra']"),
    "duplicate_id": ({"name": "x", "nodes": [
        {"id": "in", "op": "input", "params": VALID["input"]},
        {"id": "in", "op": "relu", "inputs": ["in"]}]},
        "nodes[1] (in): duplicate id 'in'"),
    "unknown_op": ({"name": "x", "nodes": [{"id": "a", "op": "batchnorm"}]},
                   "nodes[0] (a): unknown op tag 'batchnorm' (expected one of ('input', "
                   "'conv', 'fc', 'pool', 'gap', 'relu', 'shuffle', 'concat'))"),
    "unknown_param_key": (json.loads(_one_op("conv", VALID["conv"] | {"depth": 7, "alpha": 1})),
                          "nodes[1] (x): unknown key(s) ['alpha', 'depth']"),
    "params_of_a_paramless_op": (json.loads(_one_op("relu", {"filters": 8})),
                                 "nodes[1] (x): unknown key(s) ['filters']"),
    "kernel_string": (json.loads(_one_op("conv", VALID["conv"] | {"kernel": "big"})),
                      "nodes[1] (x): field 'kernel' must be an int or [kh, kw], got 'big'"),
    "kernel_one_entry": (json.loads(_one_op("conv", VALID["conv"] | {"kernel": [3]})),
                         "nodes[1] (x): field 'kernel' must be an int or [kh, kw], got [3]"),
    "kernel_bool_entry": (json.loads(_one_op("conv", VALID["conv"] | {"kernel": [3, True]})),
                          "nodes[1] (x): field 'kernel' must be an int or [kh, kw], "
                          "got [3, True]"),
    "kernel_missing": (json.loads(_one_op("conv", {"filters": 8})),
                       "nodes[1] (x): field 'kernel' must be an int or [kh, kw], got None"),
    "missing_field": (json.loads(_one_op("fc", {})), "nodes[1] (x): missing field 'filters'"),
    # the first bad field in declaration order is the one named
    "wrong_kind": (json.loads(_one_op("conv", VALID["conv"] | {"bias": 1, "filters": 2.5})),
                   "nodes[1] (x): field 'filters' must be an integer, got 2.5"),
    "wrong_kind_bool": (json.loads(_one_op("fc", {"filters": 10, "bias": "yes"})),
                        "nodes[1] (x): field 'bias' must be a boolean, got 'yes'"),
    "wrong_kind_string": (json.loads(_one_op("pool", VALID["pool"] | {"kind": None})),
                          "nodes[1] (x): field 'kind' must be a string, got None"),
    "conv_kernel_zero": (json.loads(_one_op("conv", VALID["conv"] | {"kernel": [0, 3]})),
                         "nodes[1] (x): Conv.kernel_h must be a positive integer, got 0"),
    "conv_pad_negative": (json.loads(_one_op("conv", VALID["conv"] | {"pad": -1})),
                          "nodes[1] (x): Conv.pad must be a non-negative integer, got -1"),
}


@pytest.mark.parametrize("case", sorted(STRUCTURE_REFUSALS))
def test_malformed_structure_is_refused_naming_the_spot(case):
    doc, message = STRUCTURE_REFUSALS[case]
    with pytest.raises(DescriptorError) as exc:
        parse(json.dumps(doc))
    assert str(exc.value) == message
