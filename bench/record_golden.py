"""Record the digests of every workload's outputs into golden.json.

    python3 bench/record_golden.py

Run this only on a commit whose outputs are known good; the benchmark then
fails any operation whose output differs from this record. Each output is
also put through the benchmark's own independent checks before it is
recorded. ``--seed n`` of the benchmark selects input set ``n mod
INPUT_SETS``.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import BENCH, ROOT, SRC
from workloads import WORKLOADS, run_cli

INPUT_SETS = 32


def main() -> int:
    sys.path.insert(0, str(SRC))

    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    record = {}
    for name, cls in WORKLOADS.items():
        record[name] = []
        for seed in range(INPUT_SETS):
            with tempfile.TemporaryDirectory(dir=work) as tmp:
                workload = cls(Path(tmp), seed, {})
                code, out, err = run_cli(workload.argv())
                if code != 0:
                    raise SystemExit(f"{name} seed {seed}: exit {code}: {err}")
                workload.golden = workload.digests(out)
                problems = workload.check(code, out, err)
                if problems:
                    raise SystemExit(f"{name} seed {seed}: {problems}")
                record[name].append(workload.golden)
            print(f"{name} seed {seed}: {record[name][-1]}", file=sys.stderr)
    doc = {"about": "sha256 of each workload's outputs, one entry per input set",
           "workloads": record}
    (BENCH / "golden.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
