"""convdse benchmark: one workload, closed loop, one client, no extra threads.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory, and scratch files go to ``.bench_work/`` there. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). A human summary goes to stderr.

Inputs come from ``--seed``: input set ``seed mod N``, where N is the number
of input sets whose outputs ``golden.json`` records. Every operation's
output is compared with that record and with checks computed here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy

from reference import reference_job
from workloads import WORKLOADS, run_cli

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_OPS = 3  # timed operations per untraced run, however short --seconds is
# Nominal seconds of one reference job: set-up times are reported at the
# host speed where the job takes this long (see reference.py).
REFERENCE_S = 0.1


def setup_sample_s() -> float:
    """Wall time for a fresh interpreter to ``import convdse.cli``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import convdse.cli"], env=env, check=True,
                   capture_output=True, timeout=60)
    return perf_counter() - start


class Loop:
    """Runs operations one after another and keeps the score."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reference_s = reference_job()

    def op(self) -> tuple[float, float]:
        """One operation and its checks. Returns the operation's wall
        seconds and their ratio to the reference job's seconds, averaged
        over the job runs just before and just after the operation."""
        argv = self.workload.argv()
        for path in self.workload.outputs():
            path.unlink(missing_ok=True)
        start = perf_counter()
        code, out, err = run_cli(argv)
        elapsed = perf_counter() - start
        before, self.reference_s = self.reference_s, reference_job()
        try:
            problems = self.workload.check(code, out, err)
        except Exception as exc:  # unreadable output fails the operation
            problems = [f"checking output: {exc!r}"]
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"operation {self.attempted} failed: {'; '.join(problems)}", file=sys.stderr)
        return elapsed, 2 * elapsed / (before + self.reference_s)


def untraced(loop: Loop, seconds: float) -> tuple[list[tuple[float, float]],
                                                  list[tuple[float, float]]]:
    """Timed operations, and one set-up sample after each, spread over the
    run. Returns (seconds, reference ratio) per operation and (seconds,
    reference job seconds just before) per set-up sample."""
    setup_sample_s()  # unmeasured: bytecode caches exist, as for any user's second command
    loop.op()  # warm-up: caches fill and lazy set-up finishes before timing
    ops, setups = [], []
    deadline = perf_counter() + seconds
    while len(ops) < MIN_OPS or perf_counter() < deadline:
        ops.append(loop.op())
        setups.append((setup_sample_s(), loop.reference_s))
    return ops, setups


def traced(loop: Loop, seconds: float, spans_path: Path) -> dict[str, float]:
    """Alternates untraced and traced operations; the difference of their
    median wall times is the tracing overhead."""
    from tracing import Tracer

    tracer = Tracer()
    loop.op()
    plain, wrapped = [], []
    deadline = perf_counter() + seconds
    while not wrapped or perf_counter() < deadline:
        plain.append(loop.op()[0])
        tracer.install()
        tracer.begin_op()
        try:
            wrapped.append(loop.op()[0])
        finally:
            tracer.uninstall()
    tracer.write(spans_path)
    layer = tracer.metrics()
    layer["trace.overhead_s"] = statistics.median(wrapped) - statistics.median(plain)
    sdnc_bytes = layer["codec.sdnc_bytes"]
    dense = loop.workload.dense_bytes()
    layer["codec.compression_ratio"] = dense / sdnc_bytes if dense and sdnc_bytes else 0.0
    return layer


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "convdse" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'convdse'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (known: {sorted(WORKLOADS)})",
              file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
    records = golden["workloads"][args.workload]
    input_seed = args.seed % len(records)

    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        workload = WORKLOADS[args.workload](Path(tmp), input_seed, records[input_seed])
        loop = Loop(workload)
        if args.trace:
            metrics = traced(loop, args.seconds, work / f"spans-{args.workload}.json")
            summary = {}
        else:
            ops, setups = untraced(loop, args.seconds)
            seconds = [s for s, _ in ops]
            # Scaled to the speed where the reference job takes REFERENCE_S,
            # set-up time is immune to the host's drift as op_time_ref is.
            metrics = {
                "setup_s": statistics.median(t * REFERENCE_S / ref for t, ref in setups),
                "op_time_ref": statistics.median(r for _, r in ops),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "ok_op_share": 1 - loop.failed / loop.attempted,
            }
            summary = {"timed_ops": len(ops), "op_median_s": statistics.median(seconds),
                       "setup_median_s": statistics.median(t for t, _ in setups),
                       "items_per_s": workload.items_per_op * len(ops) / sum(seconds)}

    print(json.dumps({"workload": args.workload, "seed": args.seed, "input_seed": input_seed,
                      **summary, "environment": environment()}), file=sys.stderr)
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
