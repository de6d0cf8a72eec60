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
from .settings import parse_json, read_text


class DescriptorError(ValueError):
    """Malformed descriptor text or structure."""

    exit_code = 3


#: op tag -> layer class; an op's params are its layer's dataclass fields
_LAYERS = {"input": Input, "conv": Conv, "fc": FullyConnected, "pool": Pool,
           "gap": GlobalAvgPool, "relu": ReLU, "shuffle": Shuffle, "concat": Concat}
_KIND_NAMES = {int: "an integer", bool: "a boolean", str: "a string"}


def _op(cls) -> tuple[type, tuple[str, ...], tuple[type, ...], tuple[Any, ...], frozenset[str]]:
    """The layer class; the key, kind and default of each param read by
    kind, as three parallel tuples; and every allowed key. The input's
    params are its shape's fields; the conv's kernel_h and kernel_w are one
    ``kernel``, read by hand. A required field's default is MISSING."""
    record = TensorShape if cls is Input else cls
    hints = get_type_hints(record)
    by_kind = [f for f in fields(record) if f.name not in ("kernel_h", "kernel_w")]
    keys = tuple(f.name for f in by_kind)
    return (cls, keys, tuple(hints[key] for key in keys), tuple(f.default for f in by_kind),
            frozenset(keys + (("kernel",) if cls is Conv else ())))


_OPS = {tag: _op(cls) for tag, cls in _LAYERS.items()}
_TAGS = {cls: tag for tag, cls in _LAYERS.items()}
_TOP_KEYS = frozenset(("name", "nodes"))
_NODE_KEYS = frozenset(("id", "op", "params", "inputs"))
_BAD_INPUTS = "field 'inputs' must be a list of node ids"


def serialize(graph: ArchGraph) -> str:
    nodes = []
    for nid, spec in graph.nodes:
        op = _TAGS.get(type(spec))
        if op is None:
            raise DescriptorError(f"cannot serialize layer type {type(spec).__name__}")
        params = {"kernel": [spec.kernel_h, spec.kernel_w]} if op == "conv" else {}
        values = spec.shape if op == "input" else spec
        params.update((key, getattr(values, key)) for key in _OPS[op][1])
        nodes.append({"id": nid, "op": op, "params": params,
                      "inputs": list(graph.preds.get(nid, ()))})
    return json.dumps({"name": graph.name, "nodes": nodes}, indent=2) + "\n"


def _unknown_keys(obj: dict, allowed: frozenset[str]) -> str:
    return f"unknown key(s) {sorted(set(obj) - allowed)}"


def _parse_layer(op: str, params: dict) -> LayerSpec:
    """The layer of one node. A refusal names only the field; ``parse``
    prefixes the node."""
    entry = _OPS.get(op)
    if entry is None:
        raise DescriptorError(f"unknown op tag {op!r} (expected one of {tuple(_OPS)})")
    cls, keys, kinds, defaults, allowed = entry
    if not allowed.issuperset(params):
        raise DescriptorError(_unknown_keys(params, allowed))
    kernel = ()
    if cls is Conv:
        kernel = params.get("kernel")
        if type(kernel) is int:
            kernel = (kernel, kernel)
        elif not (type(kernel) is list and len(kernel) == 2
                  and type(kernel[0]) is int and type(kernel[1]) is int):
            raise DescriptorError(f"field 'kernel' must be an int or [kh, kw], got {kernel!r}")
    values = ()
    if keys:
        values = tuple(map(params.get, keys, defaults))
        # JSON yields exact types, so a bool is never taken for an int
        if tuple(map(type, values)) != kinds:
            key, kind, value = next((k, t, v) for k, t, v in zip(keys, kinds, values)
                                    if type(v) is not t)
            if value is MISSING:
                raise DescriptorError(f"missing field {key!r}")
            raise DescriptorError(f"field {key!r} must be {_KIND_NAMES[kind]}, got {value!r}")
    try:
        return Input(TensorShape(*values)) if cls is Input else shared_spec(cls, *kernel, *values)
    except ValueError as exc:
        raise DescriptorError(str(exc)) from exc


def parse(text: str, source: str = "descriptor") -> ArchGraph:
    """The graph in descriptor ``text``; ``source`` names the text in a JSON
    syntax error and when its JSON is nested too deeply for the parser."""
    doc = parse_json(text, source, DescriptorError)
    if not isinstance(doc, dict):
        raise DescriptorError("top level must be an object")
    if not _TOP_KEYS.issuperset(doc):
        raise DescriptorError(f"top level: {_unknown_keys(doc, _TOP_KEYS)}")
    name = doc.get("name")
    if not isinstance(name, str):
        raise DescriptorError("top level: field 'name' must be a string")
    raw_nodes = doc.get("nodes")
    if not isinstance(raw_nodes, list):
        raise DescriptorError("top level: field 'nodes' must be a list")

    nodes: list[tuple[str, LayerSpec]] = []
    preds: dict[str, tuple[str, ...]] = {}
    has_input = False
    for i, raw in enumerate(raw_nodes):
        if not isinstance(raw, dict):
            raise DescriptorError(f"nodes[{i}]: must be an object")
        if not _NODE_KEYS.issuperset(raw):
            raise DescriptorError(f"nodes[{i}]: {_unknown_keys(raw, _NODE_KEYS)}")
        nid = raw.get("id")
        if not isinstance(nid, str) or not nid:
            raise DescriptorError(f"nodes[{i}]: field 'id' must be a non-empty string")
        try:
            if nid in preds:
                raise DescriptorError(f"duplicate id {nid!r}")
            op = raw.get("op")
            if not isinstance(op, str):
                raise DescriptorError("field 'op' must be a string")
            params = raw.get("params", {})
            if not isinstance(params, dict):
                raise DescriptorError("field 'params' must be an object")
            inputs = raw.get("inputs", [])
            if not isinstance(inputs, list):
                raise DescriptorError(_BAD_INPUTS)
            for src in inputs:
                if not isinstance(src, str):
                    raise DescriptorError(_BAD_INPUTS)
            spec = _parse_layer(op, params)
        except DescriptorError as exc:
            # the cause stays the layer's own ValueError, if there is one
            raise DescriptorError(f"nodes[{i}] ({nid}): {exc}") from exc.__cause__
        has_input = has_input or op == "input"
        nodes.append((nid, spec))
        preds[nid] = tuple(inputs)
    if not has_input:
        raise DescriptorError("missing Input node")
    return ArchGraph(name, tuple(nodes), preds)


def load(path) -> ArchGraph:
    return parse(read_text(path), str(path))
