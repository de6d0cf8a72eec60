"""Seeded input files for the benchmark workloads.

Everything here is written by the benchmark itself, with numpy and the
standard library only: no file is produced by the program under test, so
a change to the program cannot change its own inputs. The same seed always
gives byte-identical files.
"""

from __future__ import annotations

import json
import random
import struct
from pathlib import Path

import numpy as np

# --- sweep -----------------------------------------------------------------
# 20 expand fractions x 3 placements x 4 pool counts = 240 grid cells.
SWEEP_P = [round(0.05 * i, 2) for i in range(1, 21)]
SWEEP_PLACEMENTS = ["early", "even", "late"]
SWEEP_POOL_COUNTS = [1, 2, 3, 4]
SWEEP_POINTS = len(SWEEP_P) * len(SWEEP_PLACEMENTS) * len(SWEEP_POOL_COUNTS)


def write_grid(path: Path) -> None:
    grid = {"p": SWEEP_P, "pool_placement": SWEEP_PLACEMENTS,
            "pool_count": SWEEP_POOL_COUNTS}
    path.write_text(json.dumps(grid, indent=2) + "\n", encoding="utf-8")


def write_accuracy(path: Path, seed: int) -> None:
    """One recorded top-5 error per grid cell. The values are synthetic
    stand-ins for a recorded table (the error falls with p up to 0.5, then
    flattens, as in the SqueezeNet paper, plus seeded noise); they are
    written as data, never predicted by the program."""
    rng = random.Random(seed)
    lines = ["p,pool_placement,pool_count,top5_error"]
    for p in SWEEP_P:
        for placement in SWEEP_PLACEMENTS:
            for count in SWEEP_POOL_COUNTS:
                err = 0.215 - 0.06 * min(p, 0.5) / 0.5 + rng.uniform(-0.004, 0.004)
                lines.append(f"{p},{placement},{count},{err:.4f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# --- deep_describe ---------------------------------------------------------
DEEP_FIRE_MODULES = 300
DEEP_INPUT = (32, 32, 3)  # height, width, channels
DEEP_CLASSES = 10
# input + 7 nodes per fire module + classifier conv + global average pool
DEEP_NODES = 1 + 7 * DEEP_FIRE_MODULES + 2


def deep_fire_widths(seed: int) -> list[tuple[int, int, int]]:
    """(squeeze, expand 1x1, expand 3x3) filter counts of every fire module."""
    rng = random.Random(seed)
    return [(rng.randint(8, 32), rng.randint(8, 64), rng.randint(8, 64))
            for _ in range(DEEP_FIRE_MODULES)]


def _node(nid: str, op: str, params: dict, inputs: list[str]) -> dict:
    return {"id": nid, "op": op, "params": params, "inputs": inputs}


def write_deep_descriptor(path: Path, seed: int) -> None:
    """300 stacked fire modules at constant spatial size (2,103 nodes)."""
    h, w, c = DEEP_INPUT
    nodes = [_node("input", "input", {"height": h, "width": w, "channels": c}, [])]
    x = "input"
    for i, (s, e1, e3) in enumerate(deep_fire_widths(seed), start=1):
        f = f"fire{i}"
        nodes += [
            _node(f"{f}.squeeze1x1", "conv", {"kernel": [1, 1], "filters": s}, [x]),
            _node(f"{f}.squeeze_relu", "relu", {}, [f"{f}.squeeze1x1"]),
            _node(f"{f}.expand1x1", "conv", {"kernel": [1, 1], "filters": e1},
                  [f"{f}.squeeze_relu"]),
            _node(f"{f}.expand1x1_relu", "relu", {}, [f"{f}.expand1x1"]),
            _node(f"{f}.expand3x3", "conv", {"kernel": [3, 3], "filters": e3, "pad": 1},
                  [f"{f}.squeeze_relu"]),
            _node(f"{f}.expand3x3_relu", "relu", {}, [f"{f}.expand3x3"]),
            _node(f"{f}.concat", "concat", {},
                  [f"{f}.expand1x1_relu", f"{f}.expand3x3_relu"]),
        ]
        x = f"{f}.concat"
    nodes.append(_node("classifier", "conv", {"kernel": [1, 1], "filters": DEEP_CLASSES}, [x]))
    nodes.append(_node("gap", "gap", {}, ["classifier"]))
    doc = {"name": f"deep_fire{DEEP_FIRE_MODULES}_seed{seed}", "nodes": nodes}
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def deep_expected_totals(seed: int) -> tuple[int, int]:
    """(total_params, total_macs) of the deep descriptor, counted here from
    the layer widths alone: every conv keeps the 32x32 spatial size, each
    filter carries one bias, and a MAC is one multiply-add per weight per
    output pixel."""
    h, w, c_in = DEEP_INPUT
    convs = []  # (kernel area, input channels, filters)
    for s, e1, e3 in deep_fire_widths(seed):
        convs += [(1, c_in, s), (1, s, e1), (9, s, e3)]
        c_in = e1 + e3
    convs.append((1, c_in, DEEP_CLASSES))
    params = sum(k * ci * f + f for k, ci, f in convs)
    macs = sum(k * ci * f * h * w for k, ci, f in convs)
    return params, macs


# --- compress / decompress -------------------------------------------------
_FIRE_SQUEEZE = (16, 16, 32, 32, 48, 48, 64, 64)
_FIRE_EXPAND = (128, 128, 256, 256, 384, 384, 512, 512)


def squeezenet_weight_shapes() -> list[tuple[str, tuple[int, ...]]]:
    """Tensor names and shapes of SqueezeNet v1.0 at p = 0.5 (52 tensors,
    1,248,424 weights), in graph order."""
    shapes: list[tuple[str, tuple[int, ...]]] = [("conv1.weight", (96, 3, 7, 7)),
                                                 ("conv1.bias", (96,))]
    c_in = 96
    for i, (s, e) in enumerate(zip(_FIRE_SQUEEZE, _FIRE_EXPAND), start=2):
        for node, filters, c, k in ((f"fire{i}.squeeze1x1", s, c_in, 1),
                                    (f"fire{i}.expand1x1", e // 2, s, 1),
                                    (f"fire{i}.expand3x3", e // 2, s, 3)):
            shapes.append((f"{node}.weight", (filters, c, k, k)))
            shapes.append((f"{node}.bias", (filters,)))
        c_in = e
    shapes += [("conv10.weight", (1000, c_in, 1, 1)), ("conv10.bias", (1000,))]
    return shapes


def sdnw_bytes(tensors: list[tuple[str, tuple[int, ...], np.ndarray]]) -> bytes:
    """Serialize tensors in the documented SDNW layout."""
    out = bytearray(b"SDNW" + struct.pack("<II", 1, len(tensors)))
    for name, shape, values in tensors:
        raw = name.encode("utf-8")
        out += struct.pack("<H", len(raw)) + raw
        out += struct.pack("<B", len(shape)) + struct.pack(f"<{len(shape)}I", *shape)
        out += struct.pack("<B", 0) + values.astype("<f4").tobytes()
    return bytes(out)


def write_weights(path: Path, seed: int) -> None:
    """Normal(0, 0.1) fp32 weights drawn in graph order from
    ``default_rng(seed)``: the same bytes as
    ``write_sdnw(refexec.random_weights(zoo.squeezenet(), default_rng(seed)))``."""
    rng = np.random.default_rng(seed)
    tensors = [(name, shape,
                (rng.standard_normal(int(np.prod(shape))) * 0.1).astype(np.float32))
               for name, shape in squeezenet_weight_shapes()]
    path.write_bytes(sdnw_bytes(tensors))


def read_sdnw(data: bytes) -> list[tuple[str, tuple[int, ...], np.ndarray]]:
    """Parse the documented SDNW layout (the benchmark's own reader)."""
    if data[:4] != b"SDNW":
        raise ValueError("not an SDNW file")
    _, count = struct.unpack_from("<II", data, 4)
    pos = 12
    tensors = []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", data, pos)
        name = data[pos + 2:pos + 2 + name_len].decode("utf-8")
        pos += 2 + name_len
        rank = data[pos]
        shape = struct.unpack_from(f"<{rank}I", data, pos + 1)
        pos += 1 + 4 * rank + 1  # dims, then the dtype byte
        n = int(np.prod(shape))
        tensors.append((name, shape, np.frombuffer(data, "<f4", n, pos)))
        pos += 4 * n
    if pos != len(data):
        raise ValueError(f"{len(data) - pos} trailing bytes in SDNW file")
    return tensors
