"""Golden text output: descriptors, CLI tables and JSON, check reports,
sweep files, config errors, --help.

Each output is pinned by the sha256 of its exact text, so any change to a
key, its order, a number's formatting or a column shows here. The config
error messages are pinned word for word.
"""

import hashlib
import json

import numpy as np
import pytest

from convdse import explore, weights
from convdse.cli import main
from convdse.descriptor import serialize
from convdse.properties import random_graph


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _stdout(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


SERIALIZE = {
    "alexnet": "a030c95f5ec508a6042730b592946d313d6d7a132bd7da5b94758a3a7c9d9ea9",
    "mobilenet": "9ddfe07c8322362cbed86599ef2d0ff142877555304493e10ccb6e119091d511",
    "squeezenet": "ae62276ef6284a3615951101a31abeaf8adbe084c7e06bb5d75c761a28ee9c09",
    "vgg19": "6e9d0c3a277b241b373f03c76cf0f268a574349483b9aee77a358d30fee1bcd1",
    "random1": "a54d8edea8d24a8e477d374d7ae0d1fe71a8a9b7d6085b52a2709b5eb82a2693",
    "random2": "4a0a600f1050a6c8d002097dd50a29be19a272197f182ab9ff7b9e7cf0c23d32",
    "random3": "aea3a1c33a97987118c166726613c4673307d2fa27092a629ebf4a69dc8814d4",
}


@pytest.mark.parametrize("case", sorted(SERIALIZE))
def test_serialize(case):
    if case.startswith("random"):
        graph = random_graph(np.random.default_rng(int(case[-1])))
    else:
        graph = explore.build_family(case, {})
    assert _sha(serialize(graph)) == SERIALIZE[case]


DESCRIBE = {
    ("alexnet", "table"):
        "a38f3dc48b28102aa311f288fff8ce5d2c048ef0a9f4fbaa7117dfc727687ebb",
    ("alexnet", "json"):
        "ca10463b933bd331e8eb6755ddcf7994be121cbe8de6890b478dc047ef10b61e",
    ("mobilenet", "table"):
        "4de449b2b68ce31e5ba8191a29e00c5e3ea902577bc6590d13dc86ce403b6cb3",
    ("mobilenet", "json"):
        "ab49545322fe32d4bb27f0be334c8960c7b3d474623426fbb0dfcd29c477f322",
    ("squeezenet", "table"):
        "a14f09afaece36c7e1fa07dc565191d7b462b5ac389d252966a4e0ce1c6d8ae5",
    ("squeezenet", "json"):
        "f34c282f6b86590fa172c5a40e48c4fcbf1b424c9f4e27ff57e0ccae801aa729",
    ("vgg19", "table"):
        "47eb8ab4aba0263d96c14cb18aea61be6dec36d5f42455178fd7126f70d88f25",
    ("vgg19", "json"):
        "ec00fa3b3e763241e73a1e384027b19d12698348366d57265bcddbc18efb0a49",
}


@pytest.mark.parametrize("family, form", sorted(DESCRIBE))
def test_describe(capsys, family, form):
    out = _stdout(capsys, "describe", "--family", family,
                  *(["--json"] if form == "json" else []))
    assert _sha(out) == DESCRIBE[family, form]


def _small_model(path) -> None:
    rng = np.random.default_rng(7)
    weights.save_sdnw([
        weights.WeightTensor("conv1.weight", (8, 3, 3, 3),
                             rng.standard_normal(216).astype(np.float32)),
        weights.WeightTensor("conv1.bias", (8,), rng.standard_normal(8).astype(np.float32)),
        weights.WeightTensor("fc.weight", (10, 40),
                             rng.standard_normal(400).astype(np.float32)),
    ], path)


COMPRESS = {
    "table": "94ffa479b157a83a1b86592751bbdc714edf0316b2a22ac7a2734d3386b37353",
    "json": "accb5bdd4baeb5f4ecb015c50b2e7bcfe7cf7e376ec3b357d39f684a45fc8996",
}


@pytest.mark.parametrize("form", sorted(COMPRESS))
def test_compress(capsys, tmp_path, form):
    _small_model(tmp_path / "w.sdnw")
    out = _stdout(capsys, "compress", "--weights", str(tmp_path / "w.sdnw"),
                  "--out", str(tmp_path / "w.sdnc"), *(["--json"] if form == "json" else []))
    assert _sha(out) == COMPRESS[form]


def test_verify_json(capsys):
    assert _sha(_stdout(capsys, "verify", "--json")) == (
        "cfda69c033d82b93c6e6a9d15bd5d9eec00e39154d60a65521ea96ddc2d36f11")


_PLATFORM = {"on_chip_bytes": 8388608, "e_mac": 1e-12, "macs_per_second": 1e10}

_PLATFORM_KEYS = "['e_mac', 'macs_per_second', 'offchip_ratio', 'on_chip_bytes', 'word_bytes']"
_CONSTRAINT_KEYS = ("['max_energy_per_frame', 'max_onchip_bytes', 'max_top5_error', "
                    "'min_fps_desired', 'min_fps_required']")

# (command, config option, config, exact stderr with the file's path as {path})
CONFIG_ERRORS = {
    "platform_unknown_key": (
        "describe", "--platform", {**_PLATFORM, "sram": 1},
        f"error: platform config {{path}}: unknown key(s) ['sram'] (allowed: {_PLATFORM_KEYS})\n"),
    "platform_non_number": (
        "describe", "--platform", {**_PLATFORM, "on_chip_bytes": "8M"},
        "error: platform config {path}: on_chip_bytes must be a number, got '8M'\n"),
    "platform_bool": (
        "describe", "--platform", {**_PLATFORM, "word_bytes": True},
        "error: platform config {path}: word_bytes must be a number, got True\n"),
    "platform_non_positive": (
        "describe", "--platform", {**_PLATFORM, "e_mac": 0},
        "error: platform config {path}: e_mac must be strictly positive\n"),
    "constraint_unknown_key": (
        "check", "--constraints", {"max_onchip_bytes": 1, "max_latency": 2},
        f"error: constraint config {{path}}: unknown key(s) ['max_latency'] "
        f"(allowed: {_CONSTRAINT_KEYS})\n"),
    "constraint_non_number": (
        "check", "--constraints", {"max_energy_per_frame": "1mJ"},
        "error: constraint config {path}: max_energy_per_frame must be a number, got '1mJ'\n"),
    "constraint_bool": (
        "check", "--constraints", {"min_fps_required": False},
        "error: constraint config {path}: min_fps_required must be a number, got False\n"),
    "constraint_non_positive": (
        "check", "--constraints", {"max_onchip_bytes": -1},
        "error: constraint config {path}: max_onchip_bytes must be positive when set\n"),
}


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_config_error_text(capsys, tmp_path, case):
    command, option, config, message = CONFIG_ERRORS[case]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main([command, "--family", "alexnet", option, str(path)]) == 2
    assert capsys.readouterr().err == message.replace("{path}", str(path))


# (constraint set, exit code); the passing set checks every budget but the error
CHECK = {
    "pass": ({"max_onchip_bytes": 16777216, "min_fps_required": 10,
              "min_fps_desired": 1000, "max_energy_per_frame": 1e-2}, 0,
             "49c19951fc9828c919b4a817247e22eb298720634ab136f430332dff5254227f"),
    "fail": ({"max_onchip_bytes": 8388608, "max_top5_error": 0.2, "min_fps_required": 100,
              "min_fps_desired": 30, "max_energy_per_frame": 1e-5}, 1,
             "5eddea89316eab0b541042510a1ccca50dcbe29a76025381855c0a6a05b5be03"),
}


@pytest.mark.parametrize("case", sorted(CHECK))
def test_check(capsys, tmp_path, case):
    constraints, code, digest = CHECK[case]
    path = tmp_path / "constraints.json"
    path.write_text(json.dumps(constraints))
    extra = ["--top5-error", "0.25"] if "max_top5_error" in constraints else []
    assert main(["check", "--family", "squeezenet", "--constraints", str(path), *extra]) == code
    assert _sha(capsys.readouterr().out) == digest


SWEEP = {
    "csv": "a5b96277cdb72cad1ab2fd4ce14a3bb3983dd271e547e1a45dcc8151a5997e0f",
    "json": "34d15d9a825f77447b3888969e9c97959038f0280c0387d18c267f3ef9a81f37",
}


def test_sweep_files(capsys, tmp_path):
    (tmp_path / "grid.json").write_text(json.dumps({"p": [0.25, 0.5, 0.75]}))
    (tmp_path / "acc.csv").write_text("p,top5_error\n0.25,0.31\n0.5,0.262\n0.75,0.26\n")
    assert main(["sweep", "--family", "squeezenet", "--grid", str(tmp_path / "grid.json"),
                 "--accuracy", str(tmp_path / "acc.csv"), "--saturation-axis", "total_macs",
                 "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    for form in sorted(SWEEP):
        text = (tmp_path / f"out.{form}").read_text(encoding="utf-8")
        assert _sha(text) == SWEEP[form], form


# `convdse --help` and each `<command> --help` at 80 columns; the family,
# codec and batch flags are generated from their fields, so this pins what
# the generation writes
HELP = {
    "": "a4093f67aac6e369fa8614f58d8f86ccfb82a306a3c9f560f233027adb09d72f",
    "describe": "d907a202aff7a918d3e5cfaf600fa5a1dd66c002fb63b6ef17b215ca810fb72b",
    "sweep": "0de9c9ecb673d1383d311f6cfa84c4956af1dd85031f282e9ead5e657d890ab2",
    "pareto": "11f04a2608a537e5492854b8986b4f74fb21c7c6f815ec2b6f2e1c93b84cffd0",
    "check": "08d991962924f140b0ab1bee6ae01232a5985bbd9740f9c0b3ff73beacfa2f7e",
    "compress": "f89a1550b0854ebcb09ffe4206757e24713d153a4b46e36b64228ed587380793",
    "decompress": "426a694d9592c267c0e7fa956b8534e58b99402d702efa72f0d764b4c8b33ebd",
    "verify": "a37ea0683e056fc95af154ed870e60a7d647aca4b3ad04f5a89c3afc67673665",
}


@pytest.mark.parametrize("command", sorted(HELP))
def test_help(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert _sha(out) == HELP[command]
