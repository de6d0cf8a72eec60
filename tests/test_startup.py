"""Start-up cost: ``import convdse`` executes no package module, each
command executes only the modules it reads, and the cost-side commands start
without numpy. Checked in fresh interpreters, because this process has all of
them loaded."""

import ast
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
COST = ["costs", "explore", "graph", "settings", "zoo"]
CODEC = ["compress", "huffman", "settings", "weights"]

# Runs the CLI commands of the JSON list argv[2] in order and prints, as its
# last line, one JSON list of [step, exit code or None, whether numpy is
# loaded after it, the registered modules executed after it].
SCRIPT = r"""
import contextlib, io, json, sys
work, commands = sys.argv[1], json.loads(sys.argv[2])
steps = []
def loaded():
    return "numpy" in sys.modules
import convdse
registered = [n for n in sys.modules if n.startswith("convdse.")]
def executed():
    # a module's raw __dict__ gains __builtins__ when its body runs; reading
    # it through the module would run the body
    return sorted(n[len("convdse."):] for n in registered
                  if "__builtins__" in object.__getattribute__(sys.modules[n], "__dict__"))
steps.append(["import convdse", None, loaded(), executed()])
import convdse.cli
steps.append(["import convdse.cli", None, loaded(), executed()])
for argv in commands:
    argv = [a.replace("{work}", work) for a in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        code = convdse.cli.main(argv)
    steps.append([" ".join(argv[:2]), code, loaded(), executed()])
print(json.dumps(steps))
"""

CODEC_COMMANDS = [
    ["compress", "--weights", "{work}/in.sdnw", "--out", "{work}/out.sdnc"],
    ["decompress", "--in", "{work}/out.sdnc", "--out", "{work}/out.sdnw"],
]


def run_fresh(*args: str, cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=ENV, cwd=cwd, capture_output=True,
                          text=True, timeout=120)


def run_steps(work: Path, commands: list[list[str]]) -> list:
    done = run_fresh("-c", SCRIPT, str(work), json.dumps(commands))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture
def work(tmp_path):
    """Input files of the commands below, and the weights in in.sdnw."""
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
    return tmp_path, tensors


def test_cost_side_commands_never_import_numpy(work):
    work, _ = work
    steps = run_steps(work, [
        ["describe", "--family", "squeezenet", "--json"],
        ["check", "--family", "squeezenet", "--constraints", "{work}/constraints.json"],
        ["sweep", "--family", "squeezenet", "--grid", "{work}/grid.json", "--out", "{work}/sw"],
        ["pareto", "--points", "{work}/sw.csv", "--objectives", "total_params:min,total_macs:min"],
        # refused commands: deciding the exit code must not load a codec module
        ["describe", "--family", "squeezenet", "--p", "5"],
        ["describe", "--platform", "{work}/negative.json", "--family", "squeezenet"],
        ["describe", "--platform", "{work}/missing.json", "--family", "squeezenet"],
        ["sweep", "--grid", "{work}/collapse.json", "--family", "squeezenet", "--out", "{work}/x"],
        ["describe", "--arch", "{work}/broken.json"],
        ["describe", "--arch", "{work}/squeezenet.json", "--json"],
        *CODEC_COMMANDS,
    ])
    arch = sorted([*COST, "descriptor"])
    assert steps == [
        ["import convdse", None, False, []],
        ["import convdse.cli", None, False, []],
        ["describe --family", 0, False, COST],
        ["check --family", 0, False, COST],
        ["sweep --family", 0, False, COST],
        ["pareto --points", 0, False, COST],
        ["describe --family", 2, False, COST],
        ["describe --platform", 2, False, COST],
        ["describe --platform", 3, False, COST],
        ["sweep --grid", 1, False, COST],
        ["describe --arch", 3, False, arch],
        ["describe --arch", 0, False, arch],
        ["compress --weights", 0, True, sorted({*arch, *CODEC})],
        ["decompress --in", 0, True, sorted({*arch, *CODEC})],
    ]


def test_codec_commands_never_execute_the_cost_model(work):
    work, tensors = work
    assert run_steps(work, CODEC_COMMANDS) == [
        ["import convdse", None, False, []],
        ["import convdse.cli", None, False, []],
        ["compress --weights", 0, True, CODEC],
        ["decompress --in", 0, True, CODEC],
    ]
    # the codec's first numpy import happened inside compress and decompress,
    # and both wrote what this process (numpy loaded throughout) writes
    model = compress.compress_model(tensors, 0.7, 6)
    assert (work / "out.sdnc").read_bytes() == compress.write_sdnc(model)
    assert (work / "out.sdnw").read_bytes() == weights.write_sdnw(
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

    listed = dir(convdse)
    for module_name, names in EXPORTS.items():
        module = getattr(convdse, module_name)
        assert module is sys.modules[f"convdse.{module_name}"]
        for name in names:
            assert getattr(convdse, name) is getattr(module, name), name
            assert name in listed
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        convdse.no_such_name


def test_type_checking_imports_and_lazy_names_hold_the_same_pairs():
    # both lists are written out in convdse/__init__.py; read as source, so
    # neither is taken from the other
    tree = ast.parse(Path(convdse.__file__).read_text())
    imported, lazy = set(), set()
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            imported |= {(imp.module, alias.name) for imp in node.body
                         for alias in imp.names}
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_LAZY_NAMES":
            # {name: module for module, names in [(module, "name ..."), ...] for name in ...}
            pairs = node.value.generators[0].iter.elts
            lazy |= {(module.id, name) for module, names in (pair.elts for pair in pairs)
                     for name in names.value.split()}
    assert imported and imported == lazy, (imported - lazy, lazy - imported)
