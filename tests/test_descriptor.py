import json

import numpy as np
import pytest

from convdse import zoo
from convdse.descriptor import DescriptorError, parse, serialize
from convdse.properties import random_graph


def test_alexnet_round_trip():
    g = zoo.alexnet()
    assert parse(serialize(g)) == g


@pytest.mark.parametrize("make", [zoo.vgg19, lambda: zoo.squeezenet(0.75),
                                  lambda: zoo.mobilenet_like(0.5)])
def test_generator_round_trips(make):
    g = make()
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
