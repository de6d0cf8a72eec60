"""Start-up cost: the cost-side commands start without numpy, and the codec,
the descriptor reader and the reference executor are executed on first use.
Checked in fresh interpreters, because this process has all of them loaded."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import convdse
from convdse import compress, descriptor, weights, zoo

SRC = str(Path(convdse.__file__).resolve().parent.parent)
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
FIRST_USE = ("compress", "descriptor", "huffman", "refexec", "weights")

# Runs each step in order and prints, as its last line, one JSON list of
# [step, exit code or None, whether numpy is loaded after it, the first-use
# modules executed after it].
SCRIPT = r"""
import contextlib, io, json, sys
work = sys.argv[1]
steps = []
def loaded():
    return "numpy" in sys.modules
def executed():
    # a module's raw __dict__ gains __builtins__ when its body runs; reading
    # it through the module would run the body
    return [m for m in ("compress", "descriptor", "huffman", "refexec", "weights")
            if "__builtins__" in object.__getattribute__(sys.modules["convdse." + m], "__dict__")]
import convdse
steps.append(["import convdse", None, loaded(), executed()])
import convdse.cli
steps.append(["import convdse.cli", None, loaded(), executed()])
commands = [
    ["describe", "--family", "squeezenet", "--json"],
    ["check", "--family", "squeezenet", "--constraints", f"{work}/constraints.json"],
    ["sweep", "--family", "squeezenet", "--grid", f"{work}/grid.json", "--out", f"{work}/sw"],
    ["pareto", "--points", f"{work}/sw.csv", "--objectives", "total_params:min,total_macs:min"],
    # refused commands: deciding the exit code must not load a first-use module
    ["describe", "--family", "squeezenet", "--p", "5"],
    ["describe", "--platform", f"{work}/negative.json", "--family", "squeezenet"],
    ["describe", "--platform", f"{work}/missing.json", "--family", "squeezenet"],
    ["sweep", "--grid", f"{work}/collapse.json", "--family", "squeezenet", "--out", f"{work}/x"],
    ["describe", "--arch", f"{work}/broken.json"],
    ["describe", "--arch", f"{work}/squeezenet.json", "--json"],
    ["compress", "--weights", f"{work}/in.sdnw", "--out", f"{work}/out.sdnc"],
    ["decompress", "--in", f"{work}/out.sdnc", "--out", f"{work}/out.sdnw"],
]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        code = convdse.cli.main(argv)
    steps.append([" ".join(argv[:2]), code, loaded(), executed()])
print(json.dumps(steps))
"""


def run_fresh(*args: str, cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=ENV, cwd=cwd, capture_output=True,
                          text=True, timeout=120)


def test_cost_side_commands_never_import_numpy(tmp_path):
    (tmp_path / "constraints.json").write_text(json.dumps({"max_onchip_bytes": 32 << 20}))
    (tmp_path / "grid.json").write_text(json.dumps({"p": [0.25, 0.5, 1.0]}))
    (tmp_path / "negative.json").write_text(json.dumps(
        {"on_chip_bytes": 8 << 20, "e_mac": -1, "macs_per_second": 1e10}))
    (tmp_path / "collapse.json").write_text(json.dumps(
        {"pool_placement": ["early"], "pool_count": [8]}))
    (tmp_path / "broken.json").write_text("[1, 2]")
    (tmp_path / "squeezenet.json").write_text(descriptor.serialize(zoo.squeezenet()))
    rng = np.random.default_rng(5)
    tensors = [weights.WeightTensor("conv.weight", (16, 8, 3, 3),
                                    rng.standard_normal(16 * 8 * 9)),
               weights.WeightTensor("conv.bias", (16,), rng.standard_normal(16))]
    weights.save_sdnw(tensors, tmp_path / "in.sdnw")
    done = run_fresh("-c", SCRIPT, str(tmp_path))
    assert done.returncode == 0, done.stderr
    codec = ["compress", "descriptor", "huffman", "weights"]
    assert json.loads(done.stdout.splitlines()[-1]) == [
        ["import convdse", None, False, []],
        ["import convdse.cli", None, False, []],
        ["describe --family", 0, False, []],
        ["check --family", 0, False, []],
        ["sweep --family", 0, False, []],
        ["pareto --points", 0, False, []],
        ["describe --family", 2, False, []],
        ["describe --platform", 2, False, []],
        ["describe --platform", 3, False, []],
        ["sweep --grid", 1, False, []],
        ["describe --arch", 3, False, ["descriptor"]],
        ["describe --arch", 0, False, ["descriptor"]],
        ["compress --weights", 0, True, codec],
        ["decompress --in", 0, True, codec],
    ]
    # the codec's first numpy import happened inside compress and decompress,
    # and both wrote what this process (numpy loaded throughout) writes
    model = compress.compress_model(tensors, 0.7, 6)
    assert (tmp_path / "out.sdnc").read_bytes() == compress.write_sdnc(model)
    assert (tmp_path / "out.sdnw").read_bytes() == weights.write_sdnw(
        compress.decode_model(model))


@pytest.mark.parametrize("argv, name, content, message", [
    (["describe", "--arch"], "broken.json", "[1, 2]", "top level must be an object"),
    (["decompress", "--out", "out.sdnw", "--in"], "bad.sdnc", "not an sdnc file",
     "SDNC: bad magic b'not ' at offset 0"),
], ids=["broken_descriptor", "not_sdnc"])
def test_format_error_of_a_first_use_module_exits_3(tmp_path, argv, name, content, message):
    (tmp_path / name).write_text(content)
    done = run_fresh("-m", "convdse.cli", *argv, name, cwd=tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (3, "", f"error: {message}\n")


# What convdse/__init__ exported when every module was imported eagerly.
EXPORTS = {
    "compress": ["CompressedModel", "CompressionReport", "QuantizedTensor", "compress_model",
                 "compression_report", "decode_model", "encode", "kmeans_quantize",
                 "prune_magnitude", "quantize_model"],
    "costs": ["DEFAULT_PLATFORM", "MetricsReport", "PlatformSpec", "layer_macs",
              "layer_params", "model_macs", "model_params", "peak_activation_bytes", "report"],
    "descriptor": ["DescriptorError", "parse", "serialize"],
    "explore": ["ConstraintSet", "DesignPoint", "SweepError", "attach_accuracy",
                "check_constraints", "find_saturation", "pareto_front", "sweep"],
    "graph": ["ArchGraph", "Concat", "Conv", "FullyConnected", "GlobalAvgPool", "GraphBuilder",
              "GraphError", "Input", "Pool", "ReLU", "ShapeError", "Shuffle", "TensorShape",
              "infer_shapes", "lower_fc", "validate"],
    "refexec": ["Tensor3D", "count_macs_instrumented", "run"],
    "weights": ["WeightTensor", "load_sdnw", "read_sdnw", "save_sdnw", "write_sdnw"],
    "zoo": ["FireSpec", "PoolPlacement", "alexnet", "fire_module", "mobilenet_like",
            "place_downsampling", "squeezenet", "vgg19"],
}


def test_every_module_is_registered_and_every_export_resolves():
    done = run_fresh("-c", "import json, sys, convdse.cli; "
                           "print(json.dumps([n for n in sys.modules if n.startswith('convdse.')]))")
    assert done.returncode == 0, done.stderr
    registered = json.loads(done.stdout)
    package = Path(convdse.__file__).parent
    assert sorted(registered) == sorted(
        f"convdse.{p.stem}" for p in package.glob("*.py")
        if p.stem not in ("__init__", "properties"))
    # every first-use module precedes every eager one, so code that walks
    # sys.modules and touches each module in turn (bench/tracing.py, patching
    # traced functions) executes them before it patches a module they import from
    assert sorted(registered[:len(FIRST_USE)]) == [f"convdse.{m}" for m in FIRST_USE]

    listed = dir(convdse)
    for module_name, names in EXPORTS.items():
        module = getattr(convdse, module_name)
        assert module is sys.modules[f"convdse.{module_name}"]
        for name in names:
            assert getattr(convdse, name) is getattr(module, name), name
            assert name in listed
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        convdse.no_such_name
