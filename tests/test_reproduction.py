"""The README reproduction table, pinned to the tool: each row's label maps
to one expression over ``costs.report``, ``costs.layer_costs`` or
``explore.build_family``, and the row's computed cell must equal that
expression's rendering byte for byte. A row whose label has no expression
fails, and so does an expression whose label has no row, so a row cannot
land, or go, without its pin. The quoted column is not read."""

from __future__ import annotations

import functools
import math
from pathlib import Path

import pytest

from convdse import costs, explore

README = Path(__file__).resolve().parents[1] / "README.md"


@functools.cache
def table_rows() -> list[tuple[str, str]]:
    """(label, computed cell) of each body row of the README's table."""
    section = README.read_text(encoding="utf-8").split("\n## Reproduction table\n")[1]
    section = section.split("\n## ")[0]
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in section.splitlines() if line.startswith("|")]
    assert rows[0] == ["quantity", "computed", "commonly quoted"], rows[0]
    assert set(rows[1][0]) == {"-"}, rows[1]  # the separator row
    return [(label, computed) for label, computed, *_ in rows[2:]]


@functools.cache
def report(family: str, **metaparams) -> costs.MetricsReport:
    return costs.report(explore.build_family(family, metaparams))


def weight_elements(family: str, node_id: str) -> int:
    graph = explore.build_family(family, {})
    return math.prod(next(row for row in costs.layer_costs(graph)
                          if row.node_id == node_id).weights["weight"])


def count(n: int) -> str:
    return f"{n:,}"


def size(n: int) -> str:
    return f"{n:,} B"


def count_and_fp32_size(n: int) -> str:
    return f"{count(n)} ({size(4 * n)})"


def ratio(a: int, b: int) -> str:
    return f"{a / b:.1f}x"


def storage_and_ota(family: str) -> str:
    """One size when the OTA update is the storage, else both."""
    r = report(family)
    return " / ".join(dict.fromkeys([size(r.storage_bytes), size(r.ota_bytes)]))


SQUEEZENET = {"p": 0.5}
MOBILENET = {"width_mult": 1.0}

# README label -> the computed cell it must show
CELLS = {
    "alexnet parameters": lambda: count(report("alexnet").total_params),
    "alexnet fp32 storage / OTA update": lambda: storage_and_ota("alexnet"),
    "alexnet fc7 weights": lambda: count_and_fp32_size(weight_elements("alexnet", "fc7")),
    "squeezenet(p=0.5) parameters": lambda: count(report("squeezenet", **SQUEEZENET)
                                                  .total_params),
    "squeezenet(p=0.5) fp32 storage": lambda: size(report("squeezenet", **SQUEEZENET)
                                                   .storage_bytes),
    "alexnet / squeezenet parameters": lambda: ratio(
        report("alexnet").total_params, report("squeezenet", **SQUEEZENET).total_params),
    "fc7 alone / squeezenet parameters": lambda: ratio(
        weight_elements("alexnet", "fc7"), report("squeezenet", **SQUEEZENET).total_params),
    "vgg19 fp32 storage": lambda: size(report("vgg19").storage_bytes),
    "vgg19 / squeezenet parameters": lambda: ratio(
        report("vgg19").total_params, report("squeezenet", **SQUEEZENET).total_params),
    "vgg19 / mobilenet-like multiply-adds": lambda: ratio(
        report("vgg19").total_macs, report("mobilenet", **MOBILENET).total_macs),
    "mobilenet-like(1.0) fp32 storage": lambda: size(report("mobilenet", **MOBILENET)
                                                     .storage_bytes),
}


def test_every_row_has_one_expression_and_every_expression_a_row():
    labels = [label for label, _ in table_rows()]
    assert len(labels) == len(set(labels)), labels
    assert [label for label in labels if label not in CELLS] == []
    assert [label for label in CELLS if label not in labels] == []


@pytest.mark.parametrize("label", CELLS)
def test_computed_cell_is_the_tools_rendering(label):
    cells = dict(table_rows())
    assert label in cells, f"no README row for {label!r}"
    assert cells[label] == CELLS[label]()
