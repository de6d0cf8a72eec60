"""Seeded descriptor mutation run.

Valid descriptors are serialized, then broken one to three edits at a time:
a param gets a wrong type, a huge, negative or zero value, NaN or a
boolean; a node's inputs are rewired, emptied or pointed at unknown ids;
an op tag is swapped for another or for an unknown one; a node is dropped
or repeated. Parsing may refuse the text only with DescriptorError, and
checking the graph only with GraphError or ShapeError. A graph that
``validate`` accepts must bind and be priced without error.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np

from convdse import costs, zoo
from convdse.descriptor import DescriptorError, parse, serialize
from convdse.graph import GraphError, ShapeError, infer_shapes, validate
from convdse.properties import random_graph

TAGS = ["input", "conv", "fc", "pool", "gap", "relu", "shuffle", "concat", "dense"]
KEYS = ["height", "width", "channels", "kernel", "filters", "groups", "stride", "pad", "bias",
        "kind", "ceil_mode"]
# 2**62 and 10**30 keep every product a float can hold, so a valid graph
# is priced rather than refused for overflow
ODD_VALUES = ["3", 2.5, True, False, None, 2**62, 10**30, -1, 0, 1, 2, 3,
              float("nan"), float("inf"), [3, 1], [0, 2], [], {}, "max", "avg"]

# kind-preserving param, odd param, rewire, extra input, op tag, drop, repeat
EDIT_WEIGHTS = [0.35, 0.15, 0.1, 0.1, 0.15, 0.075, 0.075]


def _bases() -> list[dict]:
    rng = np.random.default_rng(90210)
    graphs = [zoo.squeezenet(0.25), zoo.mobilenet_like(0.25)]
    graphs += [random_graph(rng) for _ in range(12)]
    return [json.loads(serialize(g)) for g in graphs]


def _mutate(doc: dict, rng: np.random.Generator) -> str:
    nodes = doc["nodes"]
    ids = [node["id"] for node in nodes]
    for _ in range(1 if rng.random() < 0.7 else 2):
        node = nodes[int(rng.integers(len(nodes)))]
        params = node["params"]
        kind = int(rng.choice(7, p=EDIT_WEIGHTS))
        if kind == 0 and params:  # a value of the right kind, often still valid
            key = str(rng.choice(sorted(params)))
            if isinstance(params[key], bool):
                params[key] = not params[key]
            elif isinstance(params[key], int):
                params[key] = int(rng.choice([1, 1, 2, 3, 4, 2**62, 10**30]))
        elif kind <= 1:
            params[str(rng.choice(KEYS))] = ODD_VALUES[int(rng.integers(len(ODD_VALUES)))]
        elif kind == 2:
            node["inputs"] = [str(rng.choice(ids)) for _ in range(int(rng.integers(0, 4)))]
        elif kind == 3:
            node["inputs"] = node["inputs"] + [str(rng.choice(["ghost", ids[0], ids[-1]]))]
        elif kind == 4:
            node["op"] = str(rng.choice(TAGS))
        elif kind == 5 and len(nodes) > 1:
            nodes.remove(node)
        else:
            nodes.insert(int(rng.integers(len(nodes) + 1)), json.loads(json.dumps(node)))
    return json.dumps(doc)


def test_mutated_descriptors_fail_only_with_the_declared_errors():
    rng = np.random.default_rng(20260)
    bases = _bases()
    outcomes = Counter()
    for _ in range(1500):
        text = _mutate(json.loads(json.dumps(bases[int(rng.integers(len(bases)))])), rng)
        try:
            graph = parse(text)
        except DescriptorError:
            outcomes["refused by parse"] += 1
            continue
        violations = validate(graph)
        if violations:
            outcomes["refused by validate"] += 1
            for check in (infer_shapes, costs.report):
                try:
                    check(graph)
                except GraphError as exc:  # ShapeError is a GraphError
                    assert isinstance(exc, ShapeError) or type(exc) is GraphError
                    assert "; ".join(violations) in str(exc), text
                else:
                    raise AssertionError(f"{check.__name__} accepted a graph with "
                                         f"violations {violations}: {text}")
        else:
            outcomes["accepted"] += 1
            assert set(infer_shapes(graph)) == {nid for nid, _ in graph.nodes}
            report = costs.report(graph)
            assert report.total_params >= 0 and report.total_macs >= 0
    # each outcome is reached often, so a generator change cannot hollow the run out
    assert min(outcomes["refused by parse"], outcomes["refused by validate"],
               outcomes["accepted"]) >= 150, outcomes
