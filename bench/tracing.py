"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
``convdse`` module that bound it by name (``graph.infer_shapes`` and
``costs.infer_shapes`` are one function under two names), and on the class
for methods. ``uninstall`` puts the originals back, so untraced operations
run the program exactly as shipped. Nothing in the package is edited.

Spans stay in memory as (name, start, end, parent span, operation id) and
are written out once, at the end. A span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

# <module>.<function> of every traced function; methods as <module>.<Class>.<method>.
TRACED = (
    "graph.validate", "graph.topological_order", "graph.infer_shapes", "graph.GraphBuilder.add",
    "costs.report", "costs.model_params", "costs.model_macs", "costs.peak_activation_bytes",
    "costs.activation_traffic_words",
    "zoo.squeezenet",
    "explore.sweep", "explore.build_family", "explore.load_accuracy_table",
    "explore.attach_accuracy", "explore.find_saturation", "explore.pareto_front",
    "descriptor.parse",
    "weights.read_sdnw", "weights.write_sdnw",
    "compress.prune_magnitude", "compress.kmeans_quantize", "compress.encode",
    "compress.compression_report", "compress.write_sdnc", "compress.read_sdnc",
    "compress.decode_model",
    "huffman.code_lengths", "huffman.encode", "huffman.decode",
    "cli.main",
)

# Functions whose call count per operation is reported next to self time.
COUNTED_CALLS = ("graph.validate", "graph.topological_order", "graph.infer_shapes",
                 "costs.report", "compress.write_sdnc")

# Exact work counts taken from return values at the codec boundaries.
CODEC_COUNTS = ("codec.records", "codec.payload_bits", "codec.sdnc_bytes",
                "huffman.decode.symbols")


def _model_counts(counts: Counter, model) -> None:
    counts["codec.records"] = sum(r.record_count for r in model.records)
    counts["codec.payload_bits"] = sum(r.gap_bits + r.index_bits for r in model.records)


def _read_sdnc_counts(counts: Counter, args, model) -> None:
    counts["codec.sdnc_bytes"] = len(args[0])
    _model_counts(counts, model)


def _write_sdnc_counts(counts: Counter, args, container: bytes) -> None:
    counts["codec.sdnc_bytes"] = len(container)


def _decode_counts(counts: Counter, args, symbols: list) -> None:
    counts["huffman.decode.symbols"] += len(symbols)


# name -> hook(counts, args, result), run after the traced call returns
_HOOKS = {
    "compress.encode": lambda counts, args, model: _model_counts(counts, model),
    "compress.read_sdnc": _read_sdnc_counts,
    "compress.write_sdnc": _write_sdnc_counts,
    "huffman.decode": _decode_counts,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self._stack: list[int] = []
        self.op_id = -1
        self.op_counts: dict[int, Counter] = {}
        self._undo: list[tuple[object, str, object]] = []

    def begin_op(self) -> None:
        self.op_id += 1
        self.op_counts[self.op_id] = Counter()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self.op_counts[self.op_id], args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "convdse" or n.startswith("convdse.")]
        for name in TRACED:
            module_name, *path = name.split(".")
            owner = sys.modules[f"convdse.{module_name}"]
            if len(path) == 2:  # a method: wrap it once, on its class
                cls = getattr(owner, path[0])
                self._patch(cls, path[1], self._wrap(name, getattr(cls, path[1])))
                continue
            original = getattr(owner, path[0])
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def per_op(self) -> dict[int, dict[str, float]]:
        """Self seconds and call count of every traced function, per op."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[int, dict[str, float]] = {op: Counter() for op in self.op_counts}
        for i, (name, start, end, _, op) in enumerate(self.spans):
            out[op][f"{name}.self_s"] += end - start - child_time[i]
            out[op][f"{name}.calls"] += 1
        return out

    def metrics(self) -> dict[str, float]:
        """Per-op medians: self seconds of every traced function, call
        counts of COUNTED_CALLS, and the codec counts."""
        per_op = self.per_op()
        ops = sorted(per_op)
        result = {}
        for name in TRACED:
            result[f"{name}.self_s"] = statistics.median(
                per_op[op][f"{name}.self_s"] for op in ops)
        for name in COUNTED_CALLS:
            result[f"{name}.calls"] = statistics.median_low(
                per_op[op][f"{name}.calls"] for op in ops)
        for name in CODEC_COUNTS:
            result[name] = statistics.median_low(self.op_counts[op][name] for op in ops)
        return result

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh, separators=(",", ":"))
