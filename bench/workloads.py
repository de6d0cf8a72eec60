"""The benchmark workloads: one CLI operation each, run in-process through
``convdse.cli.main``, plus the checks every operation's output must pass.
Each workload's class says why it was chosen: which layers it stresses and
which it leaves idle, so that a change to one layer has a workload that
exercises it and one that does not.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import inputs

SPARSITY = 0.7   # CLI default of `convdse compress`
MAX_CODEBOOK = 1 << 6  # CLI default --bits 6


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run one CLI command in this process; returns (exit code, stdout,
    stderr). ``cli.main`` is looked up on each call so that the traced run
    sees its wrapper."""
    from convdse import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed operation, not a crash
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue()


def sdnc_records(data: bytes) -> list[dict]:
    """Header fields of every SDNC record, parsed by the benchmark itself
    from the documented layout (name, dims, gap width, codebook, counts)."""
    if data[:4] != b"SDNC":
        raise ValueError("not an SDNC file")
    _, count = struct.unpack_from("<II", data, 4)
    pos = 12
    records = []
    for _ in range(count):
        (body_len,) = struct.unpack_from("<I", data, pos)
        p = pos + 4
        (name_len,) = struct.unpack_from("<H", data, p)
        name = data[p + 2:p + 2 + name_len].decode("utf-8")
        p += 2 + name_len
        rank = data[p]
        shape = struct.unpack_from(f"<{rank}I", data, p + 1)
        p += 1 + 4 * rank + 1  # dims, then the gap width byte
        (cb_size,) = struct.unpack_from("<H", data, p)
        codebook = np.frombuffer(data, "<f4", cb_size, p + 2)
        nonzeros, _ = struct.unpack_from("<QQ", data, p + 2 + 4 * cb_size)
        records.append({"name": name, "shape": shape, "codebook": codebook,
                        "nonzeros": nonzeros})
        pos += 4 + body_len + 4
    if pos != len(data):
        raise ValueError(f"{len(data) - pos} trailing bytes in SDNC file")
    return records


def expected_nonzeros(n: int) -> int:
    return n - math.floor(SPARSITY * n)


class Workload:
    """One closed-loop operation on generated inputs. ``argv`` is the CLI
    command; ``check`` returns the problems found in its output."""

    name = ""
    items_per_op = 0  # design points, graph nodes or weights per operation

    def __init__(self, workdir: Path, seed: int, golden: dict):
        self.golden = golden

    def argv(self) -> list[str]:
        raise NotImplementedError

    def outputs(self) -> list[Path]:
        """Files the operation writes. They are deleted before every
        operation, so a check never reads the previous operation's file."""
        return []

    def check(self, code: int, stdout: str, stderr: str) -> list[str]:
        problems = [] if code == 0 else [f"exit code {code}: {stderr.strip()[-300:]}"]
        if not problems:
            problems += self.check_outputs(stdout)
        return problems

    def check_outputs(self, stdout: str) -> list[str]:
        raise NotImplementedError

    def digests(self, stdout: str) -> dict[str, str]:
        """Digests of the outputs the golden table pins."""
        raise NotImplementedError

    def golden_problems(self, stdout: str) -> list[str]:
        return [f"{key} differs from the recorded output"
                for key, digest in self.digests(stdout).items()
                if self.golden.get(key) != digest]

    def dense_bytes(self) -> int:
        return 0


class SweepWorkload(Workload):
    """240 small graphs (~70 nodes each) priced per operation, so per-graph
    constant costs dominate: four shape passes per ``report``, building the
    graphs in ``zoo``, and the joins and Pareto pass in ``explore``. The
    codec does nothing here."""

    name = "sweep"
    items_per_op = inputs.SWEEP_POINTS

    def __init__(self, workdir, seed, golden):
        super().__init__(workdir, seed, golden)
        self.grid = workdir / "grid.json"
        self.accuracy = workdir / "accuracy.csv"
        self.out = workdir / "sweep"
        inputs.write_grid(self.grid)
        inputs.write_accuracy(self.accuracy, seed)

    def argv(self):
        # total_macs, not total_params, orders the saturation search: pools
        # have no parameters, so the 12 placements of one p tie on
        # total_params and the CLI rightly refuses a non-increasing axis.
        return ["sweep", "--family", "squeezenet", "--grid", str(self.grid),
                "--accuracy", str(self.accuracy), "--saturation-axis", "total_macs",
                "--out", str(self.out)]

    def outputs(self):
        return [self.out.with_suffix(".csv"), self.out.with_suffix(".json")]

    def digests(self, stdout):
        return {"sweep.csv": sha256_file(self.out.with_suffix(".csv")),
                "sweep.json": sha256_file(self.out.with_suffix(".json"))}

    def check_outputs(self, stdout):
        problems = self.golden_problems(stdout)
        rows = self.out.with_suffix(".csv").read_text(encoding="utf-8").splitlines()
        if len(rows) != 1 + inputs.SWEEP_POINTS:
            problems.append(f"sweep.csv has {len(rows) - 1} rows, "
                            f"expected {inputs.SWEEP_POINTS}")
        doc = json.loads(self.out.with_suffix(".json").read_text(encoding="utf-8"))
        if len(doc["points"]) != inputs.SWEEP_POINTS:
            problems.append(f"sweep.json has {len(doc['points'])} points")
        if any(p["top5_error"] is None for p in doc["points"]):
            problems.append("a design point lost its recorded accuracy")
        return problems


class DeepDescribeWorkload(Workload):
    """One graph of 2,103 nodes, so the paths quadratic in the node count
    dominate: ``topological_order`` rescans, ``peak_activation_bytes``
    re-sums, repeated ``validate``. A fix there moves this workload and
    barely moves ``sweep``: the same ``graph`` and ``costs`` code runs in
    two regimes."""

    name = "deep_describe"
    items_per_op = inputs.DEEP_NODES

    def __init__(self, workdir, seed, golden):
        super().__init__(workdir, seed, golden)
        self.arch = workdir / "deep.json"
        inputs.write_deep_descriptor(self.arch, seed)
        self.expected = inputs.deep_expected_totals(seed)

    def argv(self):
        return ["describe", "--arch", str(self.arch), "--json"]

    def digests(self, stdout):
        return {"describe.json": sha256_text(stdout)}

    def check_outputs(self, stdout):
        problems = self.golden_problems(stdout)
        doc = json.loads(stdout)
        got = (doc["total_params"], doc["total_macs"])
        if got != self.expected:
            problems.append(f"(params, MACs) {got} != counted {self.expected}")
        return problems


class CompressWorkload(Workload):
    """1,248,424 fp32 weights in 52 tensors through the write side of
    ``weights``, ``compress`` and ``huffman``; ``graph`` and ``costs`` do
    nothing."""

    name = "compress"
    items_per_op = sum(math.prod(s) for _, s in inputs.squeezenet_weight_shapes())

    def __init__(self, workdir, seed, golden):
        super().__init__(workdir, seed, golden)
        self.weights = workdir / "model.sdnw"
        self.sdnc = workdir / "model.sdnc"
        inputs.write_weights(self.weights, seed)

    def argv(self):
        return ["compress", "--weights", str(self.weights), "--out", str(self.sdnc)]

    def outputs(self):
        return [self.sdnc]

    def digests(self, stdout):
        return {"model.sdnc": sha256_file(self.sdnc)}

    def dense_bytes(self):
        return 4 * self.items_per_op

    def check_outputs(self, stdout):
        problems = self.golden_problems(stdout)
        records = sdnc_records(self.sdnc.read_bytes())
        shapes = inputs.squeezenet_weight_shapes()
        if [(r["name"], tuple(r["shape"])) for r in records] != shapes:
            problems.append("SDNC tensor names or shapes differ from the input")
            return problems
        for rec in records:
            want = expected_nonzeros(math.prod(rec["shape"]))
            if rec["nonzeros"] != want:
                problems.append(f"{rec['name']}: {rec['nonzeros']} nonzeros, expected {want}")
            if rec["codebook"].size > MAX_CODEBOOK or np.any(rec["codebook"] == 0):
                problems.append(f"{rec['name']}: codebook has {rec['codebook'].size} "
                                f"entries or contains zero")
        return problems


class DecompressWorkload(CompressWorkload):
    """The read side of the codec on the container ``compress`` writes. It
    is a workload of its own so that an encode-side change that slows
    decoding shows here even when the round trip gets faster."""

    name = "decompress"

    def __init__(self, workdir, seed, golden):
        super().__init__(workdir, seed, golden)
        self.restored = workdir / "restored.sdnw"
        # The container is made by the program's own CLI in a child process,
        # so compression's memory peak stays out of this process's RSS.
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-m", "convdse.cli", *super().argv()],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=170)
        if result.returncode != 0:
            raise RuntimeError(f"setting up decompress: compress exited "
                               f"{result.returncode}: {result.stderr.strip()}")

    def argv(self):
        return ["decompress", "--in", str(self.sdnc), "--out", str(self.restored)]

    def outputs(self):
        return [self.restored]  # the SDNC file is this workload's input

    def digests(self, stdout):
        return {"model.sdnc": sha256_file(self.sdnc),
                "restored.sdnw": sha256_file(self.restored)}

    def check_outputs(self, stdout):
        problems = self.golden_problems(stdout)
        records = sdnc_records(self.sdnc.read_bytes())
        restored = inputs.read_sdnw(self.restored.read_bytes())
        if [(n, tuple(s)) for n, s, _ in restored] != inputs.squeezenet_weight_shapes():
            problems.append("restored tensor names or shapes differ from the input")
            return problems
        for (name, shape, values), rec in zip(restored, records):
            nonzero = values[values != 0]
            want = expected_nonzeros(values.size)
            if nonzero.size != want:
                problems.append(f"{name}: {nonzero.size} nonzeros restored, expected {want}")
            if not np.isin(nonzero, rec["codebook"]).all():
                problems.append(f"{name}: a restored value is not in the codebook")
        return problems


WORKLOADS = {w.name: w for w in (SweepWorkload, DeepDescribeWorkload,
                                 CompressWorkload, DecompressWorkload)}
