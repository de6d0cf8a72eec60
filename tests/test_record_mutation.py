"""Seeded mutation run of the platform, constraint and grid files through
``cli.main``, in process.

Each mutant is one valid file broken by one edit: a key dropped, an unknown
key added, a key given twice (with its own value or another one), a value
replaced by a string, a bool, ``null``,
``NaN``, ``1e400`` or a list (in a grid, an axis or one of its values), the
top level made a non-object, or the bytes truncated. Whatever the edit,
``main`` returns 0, 1, 2 or 3 and lets no exception escape; an exit of 2 or 3
prints an ``error:`` line that names the file's path once. A key given twice
always exits 3 naming the key: last-wins would take a record whose first
value was never checked.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np

from convdse.cli import main

# file kind -> (a valid file's record, the command reading it: {path} is the
# file, {out} the sweep's output prefix)
BASES = {
    "platform": (
        {"on_chip_bytes": 8388608, "e_mac": 1e-12, "macs_per_second": 1e10,
         "offchip_ratio": 100.0, "word_bytes": 4},
        ["describe", "--family", "alexnet", "--platform", "{path}"]),
    # --top5-error is given, so the error budget alone never refuses the point
    "constraints": (
        {"max_onchip_bytes": 1000000000, "max_top5_error": 0.3, "min_fps_required": 1.0,
         "min_fps_desired": 1000.0, "max_energy_per_frame": 0.01},
        ["check", "--family", "alexnet", "--top5-error", "0.2", "--constraints", "{path}"]),
    "grid": (
        {"p": [0.25, 0.5], "pool_placement": ["even"], "pool_count": [3]},
        ["sweep", "--family", "squeezenet", "--grid", "{path}", "--out", "{out}"]),
}
ODD_VALUES = ['"8M"', "true", "false", "null", "NaN", "1e400", "[1]"]
NON_OBJECTS = ["[]", "5", '"abc"', "null", "[{}]"]
EDITS = ["drop", "unknown", "repeat", "repeat_other", "replace", "non_object", "truncate"]
MUTANTS_PER_EDIT = 30


def _text(pairs: list) -> str:
    """A JSON object of (key, value text) pairs, a list value as its item texts."""
    return "{" + ", ".join(
        f"{json.dumps(key)}: {'[' + ', '.join(value) + ']' if isinstance(value, list) else value}"
        for key, value in pairs) + "}"


def _other_value(value):
    """A value text of the same kind that differs from ``value``'s."""
    if isinstance(value, list):
        return value[:-1] if len(value) > 1 else value + value
    return json.dumps(json.loads(value) * 2)


def _mutant(record: dict, edit: str, rng: np.random.Generator) -> tuple[str, str]:
    """The text of ``record`` broken by ``edit``, and the key it edited."""
    pairs = [[key, list(map(json.dumps, value)) if isinstance(value, list) else json.dumps(value)]
             for key, value in record.items()]
    key, value = pairs[int(rng.integers(len(pairs)))]
    if edit == "drop":
        pairs.remove([key, value])
    elif edit == "unknown":
        pairs.insert(int(rng.integers(len(pairs) + 1)), ["sram", "1"])
    elif edit in ("repeat", "repeat_other"):
        copy = value if edit == "repeat" else _other_value(value)
        pairs.insert(int(rng.integers(len(pairs) + 1)), [key, copy])
    elif edit == "replace":
        odd = str(rng.choice(ODD_VALUES))
        if isinstance(value, list) and rng.random() < 0.5:
            value[int(rng.integers(len(value)))] = odd
        else:
            pairs[[k for k, _ in pairs].index(key)][1] = odd
    elif edit == "non_object":
        return str(rng.choice(NON_OBJECTS)), key
    text = _text(pairs)
    return text[:int(rng.integers(len(text)))] if edit == "truncate" else text, key


def test_mutated_record_files_exit_with_a_documented_code(tmp_path, capsys):
    rng = np.random.default_rng(31)
    outcomes = Counter()
    for kind, (record, command) in BASES.items():
        path = tmp_path / f"{kind}.json"
        argv = [arg.format(path=path, out=tmp_path / "sweep") for arg in command]
        for edit in EDITS:
            for _ in range(MUTANTS_PER_EDIT):
                text, key = _mutant(record, edit, rng)
                path.write_text(text, encoding="utf-8")
                try:
                    code = main(argv)
                except (Exception, SystemExit) as exc:
                    raise AssertionError(f"{kind} {edit} {text!r}: {exc!r} escaped") from exc
                err = capsys.readouterr().err
                assert code in (0, 1, 2, 3), (kind, edit, text, code)
                if code in (2, 3):
                    errors = [line for line in err.splitlines() if line.startswith("error: ")]
                    assert errors, (kind, edit, text, err)
                    assert errors[0].count(str(path)) == 1, (kind, edit, text, errors[0])
                if edit.startswith("repeat"):
                    assert code == 3, (kind, edit, text, code)
                    assert f"key {key!r} appears twice" in err, (kind, edit, text, err)
                outcomes[kind, code if code in (2, 3) else "taken"] += 1
    # every file kind is both refused (2 and 3) and taken, so a generator
    # change cannot hollow the run out
    for kind in BASES:
        assert min(outcomes[kind, 2], outcomes[kind, 3], outcomes[kind, "taken"]) >= 5, outcomes
