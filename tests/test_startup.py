"""The cost-side commands start without numpy; the codec loads it on first
use. Checked in a fresh interpreter, because this process has numpy loaded."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import convdse
from convdse import compress, weights

SRC = str(Path(convdse.__file__).resolve().parent.parent)

# Runs each step in order and prints, as its last line, one JSON list of
# [step, exit code or None, whether numpy is loaded after it].
SCRIPT = r"""
import contextlib, io, json, sys
work = sys.argv[1]
steps = []
def loaded():
    return "numpy" in sys.modules
import convdse
steps.append(["import convdse", None, loaded()])
import convdse.cli
steps.append(["import convdse.cli", None, loaded()])
commands = [
    ["describe", "--family", "squeezenet", "--json"],
    ["check", "--family", "squeezenet", "--constraints", f"{work}/constraints.json"],
    ["sweep", "--family", "squeezenet", "--grid", f"{work}/grid.json", "--out", f"{work}/sw"],
    ["pareto", "--points", f"{work}/sw.csv", "--objectives", "total_params:min,total_macs:min"],
    ["compress", "--weights", f"{work}/in.sdnw", "--out", f"{work}/out.sdnc"],
    ["decompress", "--in", f"{work}/out.sdnc", "--out", f"{work}/out.sdnw"],
]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        code = convdse.cli.main(argv)
    steps.append([argv[0], code, loaded()])
print(json.dumps(steps))
"""


def test_cost_side_commands_never_import_numpy(tmp_path):
    (tmp_path / "constraints.json").write_text(json.dumps({"max_onchip_bytes": 32 << 20}))
    (tmp_path / "grid.json").write_text(json.dumps({"p": [0.25, 0.5, 1.0]}))
    rng = np.random.default_rng(5)
    tensors = [weights.WeightTensor("conv.weight", (16, 8, 3, 3),
                                    rng.standard_normal(16 * 8 * 9)),
               weights.WeightTensor("conv.bias", (16,), rng.standard_normal(16))]
    weights.save_sdnw(tensors, tmp_path / "in.sdnw")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [
        ["import convdse", None, False],
        ["import convdse.cli", None, False],
        ["describe", 0, False],
        ["check", 0, False],
        ["sweep", 0, False],
        ["pareto", 0, False],
        ["compress", 0, True],
        ["decompress", 0, True],
    ]
    # the codec's first numpy import happened inside compress and decompress,
    # and both wrote what this process (numpy loaded throughout) writes
    model = compress.compress_model(tensors, 0.7, 6)
    assert (tmp_path / "out.sdnc").read_bytes() == compress.write_sdnc(model)
    assert (tmp_path / "out.sdnw").read_bytes() == weights.write_sdnw(
        compress.decode_model(model))
