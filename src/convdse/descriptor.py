"""JSON text descriptors for architecture graphs.

Layout: {"name": str, "nodes": [{"id": str, "op": str, "params": {...},
"inputs": [str, ...]}, ...]}. Op tags: input, conv, fc, pool, gap, relu,
shuffle, concat. An op's params are the fields of its layer dataclass in
``graph``, with their kinds and defaults, except that the input's are its
shape's height, width and channels and the conv's kernel is one int or
[kh, kw]. Unknown keys are rejected so typos fail loudly.
parse(serialize(g)) reproduces g exactly.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields
from typing import Any, get_type_hints

from .graph import (ArchGraph, Concat, Conv, FullyConnected, GlobalAvgPool, Input, LayerSpec,
                    Pool, ReLU, Shuffle, TensorShape, shared_spec)


class DescriptorError(ValueError):
    """Malformed descriptor text or structure."""

    exit_code = 3


#: op tag -> layer class; an op's params are its layer's dataclass fields
_LAYERS = {"input": Input, "conv": Conv, "fc": FullyConnected, "pool": Pool,
           "gap": GlobalAvgPool, "relu": ReLU, "shuffle": Shuffle, "concat": Concat}
_KIND_NAMES = {int: "an integer", bool: "a boolean", str: "a string"}


def _op(cls) -> tuple[type, tuple[tuple[str, type, Any], ...], frozenset[str]]:
    """The layer class, the (key, kind, default) of each param read by kind,
    and every allowed key. The input's params are its shape's fields; the
    conv's kernel_h and kernel_w are one ``kernel``, read by hand. A
    required field's default is MISSING."""
    record = TensorShape if cls is Input else cls
    kinds = get_type_hints(record)
    by_kind = tuple((f.name, kinds[f.name], f.default) for f in fields(record)
                    if f.name not in ("kernel_h", "kernel_w"))
    keys = [key for key, _, _ in by_kind] + (["kernel"] if cls is Conv else [])
    return cls, by_kind, frozenset(keys)


_OPS = {tag: _op(cls) for tag, cls in _LAYERS.items()}
_TAGS = {cls: tag for tag, cls in _LAYERS.items()}


def serialize(graph: ArchGraph) -> str:
    nodes = []
    for nid, spec in graph.nodes:
        op = _TAGS.get(type(spec))
        if op is None:
            raise DescriptorError(f"cannot serialize layer type {type(spec).__name__}")
        params = {"kernel": [spec.kernel_h, spec.kernel_w]} if op == "conv" else {}
        values = spec.shape if op == "input" else spec
        params.update((key, getattr(values, key)) for key, _, _ in _OPS[op][1])
        nodes.append({"id": nid, "op": op, "params": params,
                      "inputs": list(graph.preds.get(nid, ()))})
    return json.dumps({"name": graph.name, "nodes": nodes}, indent=2) + "\n"


def _expect_keys(obj: dict, allowed: set[str] | frozenset[str], where: str) -> None:
    if not allowed.issuperset(obj):
        raise DescriptorError(f"{where}: unknown key(s) {sorted(set(obj) - allowed)}")


def _parse_layer(op: str, params: dict, where: str) -> LayerSpec:
    if op not in _OPS:
        raise DescriptorError(f"{where}: unknown op tag {op!r} "
                              f"(expected one of {tuple(_OPS)})")
    cls, by_kind, allowed = _OPS[op]
    _expect_keys(params, allowed, where)
    values = []
    if cls is Conv:
        kernel = params.get("kernel")
        if type(kernel) is int:
            values = [kernel, kernel]
        elif type(kernel) is list and len(kernel) == 2 and all(type(k) is int for k in kernel):
            values = list(kernel)
        else:
            raise DescriptorError(f"{where}: field 'kernel' must be an int or [kh, kw], "
                                  f"got {kernel!r}")
    for key, kind, default in by_kind:
        # JSON yields exact types, so a bool is never taken for an int
        value = params.get(key, default)
        if type(value) is not kind:
            if value is MISSING:
                raise DescriptorError(f"{where}: missing field {key!r}")
            raise DescriptorError(f"{where}: field {key!r} must be {_KIND_NAMES[kind]}, "
                                  f"got {value!r}")
        values.append(value)
    try:
        return Input(TensorShape(*values)) if cls is Input else shared_spec(cls, *values)
    except ValueError as exc:
        raise DescriptorError(f"{where}: {exc}") from exc


def parse(text: str, source: str = "descriptor") -> ArchGraph:
    """The graph in descriptor ``text``; ``source`` names the text when its
    JSON is nested too deeply for the parser."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DescriptorError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise DescriptorError(f"{source}: JSON nested too deeply") from None
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
        return parse(fh.read(), str(path))
