"""The pricing memo of ``explore.sweep``: one per call, shared by its cells.

A layer with weights whose spec instance and input shape an earlier cell
priced is not priced again (``costs._price``). These tests pin that the
points stay the ones each cell's own ``report`` gives, that the weight rule
runs once per distinct layer of a grid, that an invalid cell still raises
as it would alone, and that no memo outlives its sweep or its bound.
"""

from __future__ import annotations

import itertools
import json

import pytest

from convdse import costs, explore, graph
from convdse.cli import main
from convdse.costs import DEFAULT_PLATFORM, report
from convdse.explore import build_family, sweep
from convdse.graph import Conv, ShapeError, infer_shapes

#: the grid of the benchmark's sweep workload: 20 x 3 x 4 = 240 cells
BENCH_GRID = {"p": [round(0.05 * i, 2) for i in range(1, 21)],
              "pool_placement": ["early", "even", "late"], "pool_count": [1, 2, 3, 4]}
MOBILENET_GRID = {"width_mult": [0.25, 0.5, 0.625, 0.75, 0.875, 1.0]}


def cells(grid):
    return [dict(zip(grid, combo)) for combo in itertools.product(*grid.values())]


@pytest.mark.parametrize("family, grid", [("squeezenet", BENCH_GRID),
                                          ("mobilenet", MOBILENET_GRID)],
                         ids=["squeezenet_bench_grid", "mobilenet_width_mult"])
def test_points_equal_each_cells_own_report(family, grid):
    points = sweep(family, grid, DEFAULT_PLATFORM)
    assert [p.metaparams for p in points] == cells(grid)
    assert [p.metrics for p in points] == [report(build_family(family, cell))
                                           for cell in cells(grid)]


def test_conv_weight_rule_runs_once_per_distinct_layer(monkeypatch):
    # a fresh spec cache, so that every equal spec of the grid is one instance
    graph._cached_spec.cache_clear()
    calls = []
    weight_rule = costs._WEIGHT_RULES[graph._conv_shape]

    def counted(spec, in_shape):
        calls.append((spec, in_shape))
        return weight_rule(spec, in_shape)

    # _price looks the weight rule up by the shape rule, which it compares with `is`
    monkeypatch.setitem(costs._WEIGHT_RULES, graph._conv_shape, counted)
    sweep("squeezenet", BENCH_GRID, DEFAULT_PLATFORM)
    layers = []
    for cell in cells(BENCH_GRID):
        g = build_family("squeezenet", cell)
        shapes = infer_shapes(g)
        layers += [(spec, shapes[g.preds[nid][0]]) for nid, spec in g.nodes
                   if isinstance(spec, Conv)]
    distinct = {(spec, (s.height, s.width, s.channels)) for spec, s in layers}
    # 26 convolutions a cell, less the 8 empty 1x1 expand branches of each p = 1.0 cell
    assert (len(layers), len(distinct)) == (6144, 741)
    assert len(calls) == len(distinct)
    assert set(calls) == distinct


def _recording_report(monkeypatch):
    """Wrap the ``report`` that ``explore.sweep`` calls; returns the list of
    memos it was handed, one per cell, and the list of their sizes then."""
    memos, sizes = [], []

    def recording(g, platform, batch, *, memo=None):
        memos.append(memo)
        sizes.append(len(memo))
        return report(g, platform, batch, memo=memo)

    monkeypatch.setattr(explore, "report", recording)
    return memos, sizes


def test_one_memo_per_sweep_never_shared_between_two(monkeypatch):
    memos, sizes = _recording_report(monkeypatch)
    grid = {"p": [0.25, 0.5, 0.75]}
    first = sweep("squeezenet", grid, DEFAULT_PLATFORM)
    second = sweep("squeezenet", grid, DEFAULT_PLATFORM)
    assert first == second
    assert all(type(m) is dict for m in memos)
    assert [id(m) for m in memos] == [id(memos[0])] * 3 + [id(memos[3])] * 3
    assert memos[0] is not memos[3]
    # each sweep starts from an empty memo, which its first cell fills
    assert sizes[0] == sizes[3] == 0 < sizes[1] == sizes[4]


def test_a_full_memo_stops_growing_and_prices_the_same(monkeypatch):
    memos, _ = _recording_report(monkeypatch)
    monkeypatch.setattr(costs, "PRICE_MEMO_BOUND", 10)
    grid = {"p": [0.25, 0.5, 0.75], "pool_count": [2, 3]}
    points = sweep("squeezenet", grid, DEFAULT_PLATFORM)
    assert len(memos[0]) == 10
    assert [p.metrics for p in points] == [report(build_family("squeezenet", cell))
                                           for cell in cells(grid)]


def test_invalid_cell_after_a_filled_memo_raises_as_it_would_alone(monkeypatch, tmp_path,
                                                                   capsys):
    grid = {"pool_count": [2, 8]}
    with pytest.raises(ShapeError) as alone:
        report(build_family("squeezenet", {"pool_count": 8}))
    message = f"family 'squeezenet', metaparameters {{'pool_count': 8}}: {alone.value}"
    memos, sizes = _recording_report(monkeypatch)
    with pytest.raises(ShapeError) as swept:
        sweep("squeezenet", grid, DEFAULT_PLATFORM)
    assert str(swept.value) == message
    assert memos[0] is memos[1] and sizes == [0, len(memos[1])] and sizes[1] > 0
    assert "pool7: pool output 0x0 is not positive" in message

    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    assert main(["sweep", "--family", "squeezenet", "--grid", str(path),
                 "--out", str(tmp_path / "sweep")]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")
    assert not list(tmp_path.glob("sweep.*"))
