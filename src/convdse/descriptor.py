"""JSON text descriptors for architecture graphs.

Layout: {"name": str, "nodes": [{"id": str, "op": str, "params": {...},
"inputs": [str, ...]}, ...]}. Op tags: input, conv, fc, pool, gap, relu,
shuffle, concat. Unknown keys are rejected so typos fail loudly.
parse(serialize(g)) reproduces g exactly.
"""

from __future__ import annotations

import json
from typing import Any

from .graph import (ArchGraph, Concat, Conv, FullyConnected, GlobalAvgPool, Input, LayerSpec,
                    Pool, ReLU, Shuffle, TensorShape)


class DescriptorError(ValueError):
    """Malformed descriptor text or structure."""


_OP_TAGS = ("input", "conv", "fc", "pool", "gap", "relu", "shuffle", "concat")


def _params_of(spec: LayerSpec) -> tuple[str, dict[str, Any]]:
    if isinstance(spec, Input):
        s = spec.shape
        return "input", {"height": s.height, "width": s.width, "channels": s.channels}
    if isinstance(spec, Conv):
        return "conv", {"kernel": [spec.kernel_h, spec.kernel_w], "filters": spec.filters,
                        "groups": spec.groups, "stride": spec.stride, "pad": spec.pad,
                        "bias": spec.bias}
    if isinstance(spec, FullyConnected):
        return "fc", {"filters": spec.filters, "bias": spec.bias}
    if isinstance(spec, Pool):
        return "pool", {"kind": spec.kind, "kernel": spec.kernel, "stride": spec.stride,
                        "ceil_mode": spec.ceil_mode}
    if isinstance(spec, GlobalAvgPool):
        return "gap", {}
    if isinstance(spec, ReLU):
        return "relu", {}
    if isinstance(spec, Shuffle):
        return "shuffle", {"groups": spec.groups}
    if isinstance(spec, Concat):
        return "concat", {}
    raise DescriptorError(f"cannot serialize layer type {type(spec).__name__}")


def serialize(graph: ArchGraph) -> str:
    nodes = []
    for nid, spec in graph.nodes:
        op, params = _params_of(spec)
        nodes.append({"id": nid, "op": op, "params": params,
                      "inputs": list(graph.preds.get(nid, ()))})
    return json.dumps({"name": graph.name, "nodes": nodes}, indent=2) + "\n"


def _expect_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise DescriptorError(f"{where}: unknown key(s) {sorted(unknown)}")


def _get(params: dict, key: str, kind, where: str, default=None):
    if key not in params:
        if default is not None:
            return default
        raise DescriptorError(f"{where}: missing field {key!r}")
    v = params[key]
    if kind is int and (isinstance(v, bool) or not isinstance(v, int)):
        raise DescriptorError(f"{where}: field {key!r} must be an integer, got {v!r}")
    if kind is bool and not isinstance(v, bool):
        raise DescriptorError(f"{where}: field {key!r} must be a boolean, got {v!r}")
    if kind is str and not isinstance(v, str):
        raise DescriptorError(f"{where}: field {key!r} must be a string, got {v!r}")
    return v


def _parse_layer(op: str, params: dict, where: str) -> LayerSpec:
    try:
        if op == "input":
            _expect_keys(params, {"height", "width", "channels"}, where)
            return Input(TensorShape(_get(params, "height", int, where),
                                     _get(params, "width", int, where),
                                     _get(params, "channels", int, where)))
        if op == "conv":
            _expect_keys(params, {"kernel", "filters", "groups", "stride", "pad", "bias"}, where)
            kernel = params.get("kernel")
            if isinstance(kernel, int) and not isinstance(kernel, bool):
                kh = kw = kernel
            elif (isinstance(kernel, list) and len(kernel) == 2
                  and all(isinstance(k, int) and not isinstance(k, bool) for k in kernel)):
                kh, kw = kernel
            else:
                raise DescriptorError(f"{where}: field 'kernel' must be an int or [kh, kw], "
                                      f"got {kernel!r}")
            return Conv(kh, kw, _get(params, "filters", int, where),
                        _get(params, "groups", int, where, 1),
                        _get(params, "stride", int, where, 1),
                        _get(params, "pad", int, where, 0),
                        _get(params, "bias", bool, where, True))
        if op == "fc":
            _expect_keys(params, {"filters", "bias"}, where)
            return FullyConnected(_get(params, "filters", int, where),
                                  _get(params, "bias", bool, where, True))
        if op == "pool":
            _expect_keys(params, {"kind", "kernel", "stride", "ceil_mode"}, where)
            return Pool(_get(params, "kind", str, where),
                        _get(params, "kernel", int, where),
                        _get(params, "stride", int, where),
                        _get(params, "ceil_mode", bool, where, False))
        if op == "gap":
            _expect_keys(params, set(), where)
            return GlobalAvgPool()
        if op == "relu":
            _expect_keys(params, set(), where)
            return ReLU()
        if op == "shuffle":
            _expect_keys(params, {"groups"}, where)
            return Shuffle(_get(params, "groups", int, where))
        if op == "concat":
            _expect_keys(params, set(), where)
            return Concat()
    except ValueError as exc:
        if isinstance(exc, DescriptorError):
            raise
        raise DescriptorError(f"{where}: {exc}") from exc
    raise DescriptorError(f"{where}: unknown op tag {op!r} (expected one of {_OP_TAGS})")


def parse(text: str) -> ArchGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DescriptorError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise DescriptorError("top level must be an object")
    _expect_keys(doc, {"name", "nodes"}, "top level")
    name = doc.get("name")
    if not isinstance(name, str):
        raise DescriptorError("top level: field 'name' must be a string")
    raw_nodes = doc.get("nodes")
    if not isinstance(raw_nodes, list):
        raise DescriptorError("top level: field 'nodes' must be a list")

    nodes: list[tuple[str, LayerSpec]] = []
    preds: dict[str, tuple[str, ...]] = {}
    seen: set[str] = set()
    has_input = False
    for i, raw in enumerate(raw_nodes):
        where = f"nodes[{i}]"
        if not isinstance(raw, dict):
            raise DescriptorError(f"{where}: must be an object")
        _expect_keys(raw, {"id", "op", "params", "inputs"}, where)
        nid = raw.get("id")
        if not isinstance(nid, str) or not nid:
            raise DescriptorError(f"{where}: field 'id' must be a non-empty string")
        where = f"nodes[{i}] ({nid})"
        if nid in seen:
            raise DescriptorError(f"{where}: duplicate id {nid!r}")
        seen.add(nid)
        op = raw.get("op")
        if not isinstance(op, str):
            raise DescriptorError(f"{where}: field 'op' must be a string")
        params = raw.get("params", {})
        if not isinstance(params, dict):
            raise DescriptorError(f"{where}: field 'params' must be an object")
        inputs = raw.get("inputs", [])
        if not isinstance(inputs, list) or not all(isinstance(s, str) for s in inputs):
            raise DescriptorError(f"{where}: field 'inputs' must be a list of node ids")
        spec = _parse_layer(op, params, where)
        has_input = has_input or isinstance(spec, Input)
        nodes.append((nid, spec))
        preds[nid] = tuple(inputs)
    if not nodes or not has_input:
        raise DescriptorError("missing Input node")
    return ArchGraph(name, tuple(nodes), preds)


def load(path) -> ArchGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())
