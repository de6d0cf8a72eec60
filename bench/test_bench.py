"""Checks of the benchmark itself:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import inputs
import run
from run import BENCH, ROOT, SRC
from workloads import WORKLOADS

sys.path.insert(0, str(SRC))

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_weights_are_the_documented_random_weights(tmp_path):
    from convdse import refexec, weights, zoo

    for seed in (0, 5):
        inputs.write_weights(tmp_path / "model.sdnw", seed)
        expected = weights.write_sdnw(
            refexec.random_weights(zoo.squeezenet(), np.random.default_rng(seed)))
        assert (tmp_path / "model.sdnw").read_bytes() == expected


def test_inputs_repeat_for_a_seed_and_differ_across_seeds(tmp_path):
    def files(seed: int) -> dict[str, bytes]:
        d = tmp_path / str(seed)
        d.mkdir(exist_ok=True)
        inputs.write_grid(d / "grid.json")
        inputs.write_accuracy(d / "accuracy.csv", seed)
        inputs.write_deep_descriptor(d / "deep.json", seed)
        inputs.write_weights(d / "model.sdnw", seed)
        return {p.name: p.read_bytes() for p in d.iterdir()}

    first = files(3)
    assert files(3) == first
    other = files(4)
    assert {k for k in first if first[k] != other[k]} == {"accuracy.csv", "deep.json",
                                                          "model.sdnw"}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_counts_repeat_exactly(workload):
    """Every call count and codec count of the traced run repeats exactly.
    The values are not pinned: later changes are meant to lower them."""
    runs = [result_of(run_bench("--workload", workload, "--seed", "2",
                                "--seconds", "0", "--trace", "1")) for _ in range(2)]
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    for result in runs:
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == names
    exact = [n for n in names if not n.endswith("_s")]
    assert {n: runs[0]["metrics"][n]["value"] for n in exact} == \
        {n: runs[1]["metrics"][n]["value"] for n in exact}


def test_untraced_run_reports_every_end_to_end_metric():
    result = result_of(run_bench("--workload", "deep_describe", "--seed", "0",
                                 "--seconds", "0", "--trace", "0"))
    assert result["correct"] and result["attempted"] == 4
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_an_operation_that_writes_nothing_fails(tmp_path, monkeypatch, workload):
    """A program that exits 0 but writes nothing must fail the operation,
    not pass on the files the previous operation left."""
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
    loop = run.Loop(WORKLOADS[workload](tmp_path, 0, golden["workloads"][workload][0]))
    loop.op()
    assert (loop.attempted, loop.failed) == (1, 0)
    monkeypatch.setattr(run, "run_cli", lambda argv: (0, "", ""))
    loop.op()
    assert (loop.attempted, loop.failed) == (2, 1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "sweep", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
