import argparse
import functools
import json
import math
import struct
import tracemalloc
import weakref
import zlib
from dataclasses import fields, replace

import numpy as np
import pytest

from convdse import cli, compress, costs, explore, refexec, weights, zoo
from convdse.cli import main
from convdse.costs import MetricsReport
from convdse.descriptor import serialize


PLATFORM = {"on_chip_bytes": 8 * 1024 * 1024, "e_mac": 1e-12, "macs_per_second": 1e10}
#: config option -> the label its refusals give before the file's path
CONFIG_LABELS = {"--platform": "platform config", "--constraints": "constraint config"}


@pytest.fixture
def platform_file(tmp_path):
    path = tmp_path / "platform.json"
    path.write_text(json.dumps(PLATFORM))
    return str(path)


def run_cli(*argv):
    return main(list(argv))


def usage_error(capsys, *argv) -> str:
    """The last stderr line of a command line argparse refuses (exit 2)."""
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    return err.splitlines()[-1]


class TestDescribe:
    def test_squeezenet_storage_line(self, capsys):
        assert run_cli("describe", "--family", "squeezenet", "--p", "0.5") == 0
        out = capsys.readouterr().out
        assert "4,993,696 B (4.76 MB)" in out

    def test_alexnet_param_line(self, capsys):
        assert run_cli("describe", "--family", "alexnet") == 0
        out = capsys.readouterr().out
        assert "60,965,224 params" in out

    def test_small_counts_print_bare_and_in_thousands(self, tmp_path, capsys):
        # 256 parameters and 12,288 MACs: one count under a thousand, one in thousands
        arch = tmp_path / "small.json"
        arch.write_text(json.dumps({"name": "small", "nodes": [
            {"id": "in", "op": "input", "params": {"height": 8, "width": 8, "channels": 3},
             "inputs": []},
            {"id": "c", "op": "conv", "params": {"kernel": 1, "filters": 64},
             "inputs": ["in"]}]}))
        assert run_cli("describe", "--arch", str(arch)) == 0
        out = capsys.readouterr().out
        assert "256 params (256)\n" in out and "12,288 MACs (12.29k)\n" in out

    def test_json_output_has_fixed_key_order(self, capsys):
        assert run_cli("describe", "--family", "alexnet", "--json") == 0
        doc = capsys.readouterr().out
        keys = list(json.loads(doc).keys())
        assert keys == ["name", "total_params", "storage_bytes", "total_macs",
                        "peak_activation_bytes", "energy_per_frame", "fps_proxy",
                        "ota_bytes", "recorded_top5_error", "recorded_training_latency"]
        assert run_cli("describe", "--family", "alexnet", "--json") == 0
        assert capsys.readouterr().out == doc

    def test_descriptor_file_input(self, tmp_path, capsys):
        arch = tmp_path / "net.json"
        arch.write_text(serialize(zoo.squeezenet(0.5)))
        assert run_cli("describe", "--arch", str(arch)) == 0
        assert "1,248,424 params" in capsys.readouterr().out

    def test_malformed_descriptor_exits_3_with_line(self, tmp_path, capsys):
        arch = tmp_path / "broken.json"
        arch.write_text('{\n "name": "x",\n "nodes": [}\n}')
        assert run_cli("describe", "--arch", str(arch)) == 3
        assert "line 3" in capsys.readouterr().err

    def test_unreadable_file_exits_3(self, tmp_path):
        assert run_cli("describe", "--arch", str(tmp_path / "missing.json")) == 3

    def test_invalid_graph_exits_1(self, tmp_path, capsys):
        arch = tmp_path / "invalid.json"
        arch.write_text(json.dumps({"name": "bad", "nodes": [
            {"id": "input", "op": "input",
             "params": {"height": 8, "width": 8, "channels": 3}, "inputs": []},
            {"id": "c", "op": "conv", "params": {"kernel": 1, "filters": 8, "groups": 3},
             "inputs": ["input"]},
        ]}))
        assert run_cli("describe", "--arch", str(arch)) == 1
        assert "groups must divide filters" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags, named", [
        ("describe", ["--p", "0.9", "--pool-count", "3"], "--p, --pool-count"),
        ("describe", ["--family", "squeezenet"], "--family"),
        ("check", ["--width-mult", "0.5"], "--width-mult"),
        ("check", ["--family", "mobilenet", "--pool-placement", "late"],
         "--family, --pool-placement"),
    ], ids=["describe_flags", "describe_family", "check_flag", "check_family_and_flag"])
    def test_arch_with_family_flags_exits_2_naming_them(self, tmp_path, capsys, command, flags,
                                                        named):
        arch = tmp_path / "net.json"
        arch.write_text(serialize(zoo.squeezenet(0.5)))
        (tmp_path / "c.json").write_text("{}")
        extra = ["--constraints", str(tmp_path / "c.json")] if command == "check" else []
        assert run_cli(command, "--arch", str(arch), *flags, *extra) == 2
        assert capsys.readouterr() == ("", f"error: --arch cannot be combined with {named}\n")

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("describe", "--family", "resnet999")
        assert exc.value.code == 2

    def test_missing_source_exits_2(self):
        assert run_cli("describe") == 2

    def test_schema_flags_reproduce_a_swept_cell(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"pool_placement": ["late"], "pool_count": [2]}))
        assert run_cli("sweep", "--family", "squeezenet", "--grid", str(grid),
                       "--out", str(tmp_path / "cell")) == 0
        swept = json.loads((tmp_path / "cell.json").read_text())["points"][0]["metrics"]
        capsys.readouterr()
        assert run_cli("describe", "--family", "squeezenet", "--pool-placement", "late",
                       "--pool-count", "2", "--json") == 0
        assert json.loads(capsys.readouterr().out) == swept

    def test_schema_flags_are_typed(self):
        for flag, value in (("--pool-count", "2.5"), ("--pool-placement", "middle"),
                            ("--p", "half")):
            with pytest.raises(SystemExit) as exc:
                run_cli("describe", "--family", "squeezenet", flag, value)
            assert exc.value.code == 2

    def test_out_of_range_flag_exits_2_naming_it(self, capsys):
        assert run_cli("describe", "--family", "squeezenet", "--pool-count", "0") == 2
        assert "pool_count" in capsys.readouterr().err

    @pytest.mark.parametrize("arch, platform, name", [
        # 10**312 MACs: the energy product leaves the float range
        ({"name": "big", "nodes": [
            {"id": "in", "op": "input", "params": {"height": 8, "width": 8, "channels": 3},
             "inputs": []},
            {"id": "c", "op": "conv", "params": {"kernel": 1, "filters": 10**310},
             "inputs": ["in"]}]}, PLATFORM, "big"),
        # the energy fits, but alexnet's 61M parameters of 10**301 bytes do not
        (None, {**PLATFORM, "word_bytes": 10**301}, "alexnet"),
        # finite operands whose energy product is inf, which raises nothing
        (None, {**PLATFORM, "e_mac": 1e300}, "alexnet"),
    ], ids=["filters_1e310", "word_bytes_1e301", "e_mac_1e300"])
    def test_costs_past_float_range_exit_2_naming_the_graph(self, tmp_path, capsys, arch,
                                                            platform, name):
        path = tmp_path / "platform.json"
        path.write_text(json.dumps(platform))
        (tmp_path / "constraints.json").write_text("{}")
        (tmp_path / "grid.json").write_text("{}")  # one cell: the family's only graph
        source = ["--family", "alexnet"]
        commands = [["describe"], ["describe", "--json"],
                    ["check", "--constraints", str(tmp_path / "constraints.json")],
                    ["sweep", "--grid", str(tmp_path / "grid.json"), "--out", str(tmp_path / "x")]]
        if arch is not None:
            (tmp_path / "arch.json").write_text(json.dumps(arch))
            source = ["--arch", str(tmp_path / "arch.json")]
            commands.pop()  # a sweep prices only a family's graphs
            # the default platform is read from no file, and the refusal names none
            assert run_cli("describe", *source) == 2
            assert capsys.readouterr().err.startswith(
                f"error: graph {name!r}: cost metrics overflow a float (")
        for command in commands:
            assert run_cli(*command, *source, "--platform", str(path)) == 2
            captured = capsys.readouterr()
            # a sweep names the cell, here the family's one cell
            cell = "family 'alexnet', metaparameters {}: " if command[0] == "sweep" else ""
            assert captured.err.startswith(f"error: platform config {path}: {cell}"
                                           f"graph {name!r}: cost metrics overflow a float (")
            assert captured.out == ""
            assert not (tmp_path / "x.csv").exists()

    def test_non_finite_json_is_refused(self, monkeypatch, tmp_path, capsys):
        # should a metric escape report's checks, no JSON writer prints
        # Infinity, and a sweep writes neither of its files
        real_report = costs.report

        def infinite_energy(*args, **kwargs):
            return replace(real_report(*args, **kwargs), energy_per_frame=math.inf)

        monkeypatch.setattr(costs, "report", infinite_energy)
        monkeypatch.setattr(explore, "report", infinite_energy)
        assert run_cli("describe", "--family", "alexnet", "--json") == 2
        assert capsys.readouterr().out == ""
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"p": [0.5]}))
        assert run_cli("sweep", "--family", "squeezenet", "--grid", str(grid),
                       "--out", str(tmp_path / "x")) == 2
        assert list(tmp_path.iterdir()) == [grid]


class TestSweep:
    def write_grid(self, tmp_path, grid):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        return str(path)

    def test_paper_p_sweep_with_flat_accuracy(self, tmp_path, capsys):
        grid = self.write_grid(tmp_path, {"p": [0.5, 0.675, 0.75, 0.825, 1.0]})
        acc = tmp_path / "acc.csv"
        acc.write_text("p,top5_error\n" + "".join(
            f"{p},0.15\n" for p in (0.5, 0.675, 0.75, 0.825, 1.0)))
        out = tmp_path / "sweep"
        assert run_cli("sweep", "--family", "squeezenet", "--grid", grid,
                       "--accuracy", str(acc), "--saturation-axis", "total_params",
                       "--out", str(out)) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 6
        header = lines[0].split(",")
        saturated = [line for line in lines[1:]
                     if line.split(",")[header.index("saturation")] == "1"]
        assert len(saturated) == 1 and saturated[0].startswith("0.5,")
        doc = json.loads((tmp_path / "sweep.json").read_text())
        assert doc["saturation"]["metaparams"] == {"p": 0.5}

    def test_sweep_without_accuracy_leaves_error_blank(self, tmp_path):
        grid = self.write_grid(tmp_path, {"p": [0.5, 1.0]})
        out = tmp_path / "plain"
        assert run_cli("sweep", "--family", "squeezenet", "--grid", grid,
                       "--out", str(out)) == 0
        lines = (tmp_path / "plain.csv").read_text().splitlines()
        header = lines[0].split(",")
        idx = header.index("top5_error")
        assert all(line.split(",")[idx] == "" for line in lines[1:])

    def test_three_axis_grid_row_count(self, tmp_path):
        grid = self.write_grid(tmp_path, {
            "p": [0.5, 0.675, 0.75, 0.825, 1.0],
            "pool_placement": ["early", "even", "late"],
            "pool_count": [2, 3],
        })
        out = tmp_path / "cube"
        assert run_cli("sweep", "--family", "squeezenet", "--grid", grid,
                       "--out", str(out)) == 0
        assert len((tmp_path / "cube.csv").read_text().splitlines()) == 31

    def test_deterministic_outputs(self, tmp_path):
        grid = self.write_grid(tmp_path, {"p": [0.5, 0.75]})
        assert run_cli("sweep", "--family", "squeezenet", "--grid", grid,
                       "--out", str(tmp_path / "a")) == 0
        assert run_cli("sweep", "--family", "squeezenet", "--grid", grid,
                       "--out", str(tmp_path / "b")) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_invalid_cell_exits_1_naming_the_cell(self, tmp_path, capsys):
        grid = self.write_grid(tmp_path, {"p": [0.5], "pool_placement": ["early"],
                                          "pool_count": [7]})
        assert run_cli("sweep", "--family", "squeezenet", "--grid", grid,
                       "--out", str(tmp_path / "x")) == 1
        err = capsys.readouterr().err
        assert "'pool_placement': 'early', 'pool_count': 7}: invalid graph" in err
        assert not (tmp_path / "x.csv").exists()

    def test_bad_metaparam_exits_2(self, tmp_path):
        grid = self.write_grid(tmp_path, {"width_mult": [1.0]})
        assert run_cli("sweep", "--family", "squeezenet", "--grid", grid,
                       "--out", str(tmp_path / "x")) == 2

    @pytest.mark.parametrize("family, grid, message", [
        ("squeezenet", {"p": ["0.5"]}, "family 'squeezenet': p must be a number, got '0.5'"),
        ("squeezenet", {"p": [None]}, "family 'squeezenet': p must be a number, got None"),
        ("squeezenet", {"pool_count": [0]},
         "family 'squeezenet', metaparameters {'pool_count': 0}: "),
        ("squeezenet", {"pool_count": [2.7]},
         "family 'squeezenet': pool_count must be an integer, got 2.7"),
        ("mobilenet", {"width_mult": [True]},
         "family 'mobilenet': width_mult must be a number, got True"),
    ], ids=["p_string", "p_null", "pool_count_zero", "pool_count_fraction",
            "width_mult_bool"])
    def test_bad_grid_value_exits_2_naming_it(self, tmp_path, capsys, family, grid, message):
        path = self.write_grid(tmp_path, grid)
        assert run_cli("sweep", "--family", family, "--grid", path,
                       "--out", str(tmp_path / "x")) == 2
        assert capsys.readouterr().err.startswith(f"error: grid file {path}: {message}")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("axis", ["recorded_top5_error", "recorded_training_latency"])
    def test_unreported_saturation_axis_exits_2_naming_it(self, tmp_path, capsys, axis):
        # report() never sets the recorded fields, so they are no metric to order by
        grid = self.write_grid(tmp_path, {"p": [0.5, 0.75]})
        acc = tmp_path / "acc.csv"
        acc.write_text("p,top5_error\n0.5,0.2\n0.75,0.19\n")
        assert run_cli("sweep", "--family", "squeezenet", "--grid", grid,
                       "--accuracy", str(acc), "--saturation-axis", axis,
                       "--out", str(tmp_path / "x")) == 2
        assert capsys.readouterr().err == f"error: unknown metric {axis!r}\n"

    @pytest.mark.parametrize("epsilon, problem", [
        ("nan", "must be finite, got nan"), ("-1", "must be in [0, inf), got -1.0"),
        ("inf", "must be finite, got inf"),
    ], ids=["nan", "-1", "inf"])
    def test_bad_epsilon_exits_2_naming_it(self, tmp_path, capsys, epsilon, problem):
        # with the default --epsilon 0.005 this grid saturates at p = 0.75
        grid = self.write_grid(tmp_path, {"p": [0.5, 0.75, 1.0]})
        acc = tmp_path / "acc.csv"
        acc.write_text("p,top5_error\n0.5,0.31\n0.75,0.262\n1.0,0.26\n")
        assert usage_error(capsys, "sweep", "--family", "squeezenet", "--grid", grid,
                           "--accuracy", str(acc), "--saturation-axis", "total_macs",
                           "--epsilon", epsilon, "--out", str(tmp_path / "x")) == (
            f"convdse sweep: error: argument --epsilon: epsilon {problem}")
        assert not (tmp_path / "x.csv").exists()

    def test_saturating_run_stdout_and_marks(self, tmp_path, capsys):
        # p = 0.75 is dominated by p = 0.5; nothing after p = 0.5 beats it by 0.005
        grid = self.write_grid(tmp_path, {"p": [0.25, 0.5, 0.75, 1.0]})
        acc = tmp_path / "acc.csv"
        acc.write_text("p,top5_error\n0.25,0.31\n0.5,0.262\n0.75,0.27\n1.0,0.26\n")
        out = tmp_path / "sat"
        assert run_cli("sweep", "--family", "squeezenet", "--grid", grid,
                       "--accuracy", str(acc), "--saturation-axis", "total_macs",
                       "--out", str(out)) == 0
        captured = capsys.readouterr()
        assert captured.out == (f"4 design points -> {out}.csv, {out}.json\n"
                                "pareto front: 3 point(s)\n"
                                "saturation: {'p': 0.5}\n")
        assert captured.err == ""
        rows = [line.split(",") for line in (tmp_path / "sat.csv").read_text().splitlines()]
        assert rows[0][-3:] == ["top5_error", "pareto", "saturation"]
        assert [(row[0], row[-2], row[-1]) for row in rows[1:]] == [
            ("0.25", "1", "0"), ("0.5", "1", "1"), ("0.75", "0", "0"), ("1.0", "1", "0")]
        points = json.loads((tmp_path / "sat.json").read_text())["points"]
        assert [(p["pareto"], p["saturation"]) for p in points] == [
            (True, False), (True, True), (False, False), (True, False)]

    def test_metaparameter_saturation_axis(self, tmp_path, capsys):
        # the grid is out of order: points are sorted by p, read from their metaparameters
        grid = self.write_grid(tmp_path, {"p": [1.0, 0.25, 0.75, 0.5]})
        acc = tmp_path / "acc.csv"
        acc.write_text("p,top5_error\n0.25,0.31\n0.5,0.262\n0.75,0.27\n1.0,0.26\n")
        out = tmp_path / "sat"
        assert run_cli("sweep", "--family", "squeezenet", "--grid", grid,
                       "--accuracy", str(acc), "--saturation-axis", "p",
                       "--out", str(out)) == 0
        assert capsys.readouterr() == (f"4 design points -> {out}.csv, {out}.json\n"
                                       "pareto front: 3 point(s)\n"
                                       "saturation: {'p': 0.5}\n", "")
        doc = json.loads((tmp_path / "sat.json").read_text())
        assert doc["saturation"] == {"axis": "p", "epsilon": 0.005, "metaparams": {"p": 0.5}}
        assert [p["saturation"] for p in doc["points"]] == [False, False, False, True]

    def test_unsaturated_run_has_no_saturation_column(self, tmp_path, capsys):
        # every point improves on the one before by more than 0.005, and
        # the p = 0.9 row names no grid cell
        grid = self.write_grid(tmp_path, {"p": [0.25, 0.5, 0.75]})
        acc = tmp_path / "acc.csv"
        acc.write_text("p,top5_error\n0.25,0.31\n0.5,0.25\n0.75,0.2\n0.9,0.19\n")
        out = tmp_path / "open"
        assert run_cli("sweep", "--family", "squeezenet", "--grid", grid,
                       "--accuracy", str(acc), "--saturation-axis", "total_macs",
                       "--out", str(out)) == 0
        captured = capsys.readouterr()
        assert captured.out == (f"3 design points -> {out}.csv, {out}.json\n"
                                "pareto front: 3 point(s)\n"
                                "saturation: none (still improving at the largest point)\n")
        assert captured.err == ("warning: accuracy row matched no design point: "
                                "{'p': 0.9, 'top5_error': 0.19}\n")
        assert (tmp_path / "open.csv").read_text() == (
            "p,total_params,storage_bytes,total_macs,peak_activation_bytes,"
            "energy_per_frame,fps_proxy,ota_bytes,top5_error,pareto\n"
            "0.25,1002664,4010656,633782560,9462528,0.0031434719599999997,"
            "15.778282065697738,4010656,0.31,1\n"
            "0.5,1248424,4993696,832667936,9462528,0.003342357336,"
            "12.009589378496255,4993696,0.25,1\n"
            "0.75,1494184,5976736,1031553312,9462528,0.0035412427119999998,"
            "9.69411845579921,5976736,0.2,1\n")
        doc = json.loads((tmp_path / "open.json").read_text())
        assert doc["saturation"] is None
        assert doc["unmatched_accuracy_rows"] == [{"p": 0.9, "top5_error": 0.19}]
        assert [p["saturation"] for p in doc["points"]] == [False, False, False]

    def test_infinite_energy_exits_2_without_output(self, tmp_path, capsys):
        platform = tmp_path / "platform.json"
        platform.write_text(json.dumps({**PLATFORM, "e_mac": 1e300}))
        grid = self.write_grid(tmp_path, {"p": [0.5, 1.0]})
        assert run_cli("sweep", "--family", "squeezenet", "--grid", grid,
                       "--platform", str(platform), "--out", str(tmp_path / "x")) == 2
        assert capsys.readouterr().err == (
            f"error: platform config {platform}: family 'squeezenet', metaparameters "
            "{'p': 0.5}: graph 'squeezenet(p=0.5)': cost metrics overflow a float "
            "(energy per frame is inf)\n")
        assert not (tmp_path / "x.csv").exists()
        assert not (tmp_path / "x.json").exists()

    def test_overflow_names_the_cell_of_two_with_one_graph_name(self, tmp_path, capsys):
        # both cells build a graph named 'squeezenet(p=0.5)': only the metaparameters tell
        # them apart
        platform = tmp_path / "platform.json"
        platform.write_text(json.dumps({**PLATFORM, "e_mac": 1e300}))
        grid = {"pool_count": [2, 3]}
        cell = ("family 'squeezenet', metaparameters {'pool_count': 2}: "
                "graph 'squeezenet(p=0.5)': ")
        with pytest.raises(costs.CostOverflowError) as exc:
            explore.sweep("squeezenet", grid, costs.PlatformSpec.load(platform))
        assert str(exc.value) == f"{cell}cost metrics overflow a float (energy per frame is inf)"
        assert run_cli("sweep", "--family", "squeezenet", "--grid",
                       self.write_grid(tmp_path, grid), "--platform", str(platform),
                       "--out", str(tmp_path / "x")) == 2
        assert capsys.readouterr() == ("", f"error: platform config {platform}: {cell}cost "
                                           "metrics overflow a float (energy per frame is inf)\n")
        assert not (tmp_path / "x.csv").exists()

    def test_non_finite_accuracy_cell_exits_2_naming_it(self, tmp_path, capsys):
        grid = self.write_grid(tmp_path, {"p": [0.5, 1.0], "pool_placement": ["even"],
                                          "pool_count": [1]})
        acc = tmp_path / "acc.csv"
        acc.write_text("p,pool_placement,pool_count,top5_error\n"
                       "0.5,even,1,0.2\n1.0,even,1,0.19\nnan,even,1,0.2\n")
        assert run_cli("sweep", "--family", "squeezenet", "--grid", grid,
                       "--accuracy", str(acc), "--out", str(tmp_path / "x")) == 2
        assert capsys.readouterr().err == (
            f"error: accuracy table {acc} line 4: column 'p' must be finite, got 'nan'\n")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("grid, accuracy", [
        # p = 0.5 saturates: a saturation column and recorded errors
        ({"p": [0.25, 0.5, 0.75, 1.0], "pool_placement": ["even"]},
         "p,pool_placement,top5_error\n0.25,even,0.31\n0.5,even,0.262\n"
         "0.75,even,0.27\n1.0,even,0.26\n"),
        # no accuracy: blank errors, no saturation column, early pools dominated
        ({"p": [0.5, 1.0], "pool_placement": ["early", "late"], "pool_count": [2]}, None),
    ], ids=["saturation_column", "no_saturation_column"])
    def test_csv_reads_back_and_pareto_selects_the_marked_rows(self, tmp_path, grid, accuracy):
        argv = ["sweep", "--family", "squeezenet", "--grid", self.write_grid(tmp_path, grid),
                "--out", str(tmp_path / "s")]
        if accuracy:
            (tmp_path / "acc.csv").write_text(accuracy)
            argv += ["--accuracy", str(tmp_path / "acc.csv"), "--saturation-axis", "total_macs"]
        assert run_cli(*argv) == 0
        doc = json.loads((tmp_path / "s.json").read_text())
        header, rows = explore.read_csv((tmp_path / "s.csv").read_text(), "sweep CSV")
        metrics = [f.name for f in fields(MetricsReport) if f.metadata]
        marks = ["pareto", "saturation"] if accuracy else ["pareto"]
        assert header == [*grid, *metrics, "top5_error", *marks]
        assert [row for _, row in rows] == [dict(zip(header, (
            "" if v is None else str(int(v) if isinstance(v, bool) else v)
            for v in [*p["metaparams"].values(), *map(p["metrics"].get, metrics),
                      p["top5_error"], p["pareto"], p["saturation"]]))) for p in doc["points"]]
        assert 0 < sum(p["pareto"] for p in doc["points"]) < len(rows)

        objectives = ",".join(f"{m}:{sense}" for m, sense in doc["objectives"])
        assert run_cli("pareto", "--points", str(tmp_path / "s.csv"), "--objectives", objectives,
                       "--out", str(tmp_path / "front.csv")) == 0
        _, front = explore.read_csv((tmp_path / "front.csv").read_text(), "front CSV")
        assert [row for _, row in front] == [row for _, row in rows if row["pareto"] == "1"]

    @pytest.mark.parametrize("grid", [[0.5], {"p": 0.5}, None], ids=["list", "scalar", "null"])
    def test_grid_that_is_not_axis_lists_exits_2(self, tmp_path, capsys, grid):
        path = self.write_grid(tmp_path, grid)
        assert run_cli("sweep", "--family", "squeezenet", "--grid", path,
                       "--out", str(tmp_path / "x")) == 2
        assert (capsys.readouterr().err
                == f"error: grid file {path}: grid must map axis names to value lists\n")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("rows, problem", [
        ("p,top5_error\n0.5,0.2\n0.5,0.3\n", "has conflicting rows for {'p': 0.5}"),
        ("q,top5_error\n1,0.2\n", "column(s) ['q'] are not metaparameters of the swept points"),
        ("p,top5_error\n0.5,abc\n", "line 2: top5_error must be a number, got 'abc'"),
    ], ids=["conflicting_rows", "unknown_column", "non_numeric_error"])
    def test_accuracy_refusal_exits_2_naming_the_table(self, tmp_path, capsys, rows, problem):
        grid = self.write_grid(tmp_path, {"p": [0.5]})
        acc = tmp_path / "acc.csv"
        acc.write_text(rows)
        assert run_cli("sweep", "--family", "squeezenet", "--grid", grid,
                       "--accuracy", str(acc), "--out", str(tmp_path / "x")) == 2
        assert capsys.readouterr().err == f"error: accuracy table {acc} {problem}\n"
        assert not (tmp_path / "x.csv").exists()

    def test_saturation_axis_without_accuracy_exits_2(self, tmp_path, capsys):
        grid = self.write_grid(tmp_path, {"p": [0.5, 0.75]})
        assert run_cli("sweep", "--family", "squeezenet", "--grid", grid,
                       "--saturation-axis", "total_macs", "--out", str(tmp_path / "x")) == 2
        assert capsys.readouterr().err == (
            "error: --saturation-axis needs an accuracy table covering every point\n")
        assert not (tmp_path / "x.csv").exists()


class TestPareto:
    def test_three_point_example(self, tmp_path, capsys):
        points = tmp_path / "points.csv"
        points.write_text("total_params,top5_error\n1,0.2\n2,0.1\n3,0.1\n")
        assert run_cli("pareto", "--points", str(points),
                       "--objectives", "total_params:min,top5_error:min") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "total_params,top5_error"
        assert lines[1:] == ["1,0.2", "2,0.1"]

    def test_missing_metric_exits_2(self, tmp_path):
        points = tmp_path / "points.csv"
        points.write_text("total_params\n1\n")
        assert run_cli("pareto", "--points", str(points),
                       "--objectives", "top5_error:min") == 2

    @pytest.mark.parametrize("text, objectives, message", [
        ("", "total_params:min", "points file {points} has no header row"),
        ("total_params\n1\n", ",", "no objectives given"),
        ("total_params,top5_error\n1,0.2\nabc,0.1\n", "total_params",
         "points file {points} line 3: metric 'total_params' has non-numeric value 'abc'"),
        ("total_params,top5_error\n1,0.2\n2,0.1\n3,nan\n", "total_params:min,top5_error:min",
         "objective 'top5_error' has value nan, which has no order"),
        ("a,b\n1,2\n3,\n", "a:min,b:min", "points file {points} line 3: metric 'b' is empty"),
        ("a,b\n1,2\n\n3,x\n", "a:min,b:min",
         "points file {points} line 4: metric 'b' has non-numeric value 'x'"),
        ("a,b\n1,2\n", "a:min,c:min", "points file {points} is missing metric 'c'"),
        ("a,b\n", "c:max", "points file {points} is missing metric 'c'"),
        ("a,b\n1,2\n2,1\n", "a:min,a:max", "objective 'a' given twice"),
        ("a,b\n1,2\n", "a:up", "objective sense must be 'min' or 'max', got 'up'"),
    ], ids=["no_header", "no_objectives", "non_numeric_cell", "nan_cell", "empty_cell",
            "non_numeric_cell_after_a_blank_line", "missing_column", "missing_column_no_rows",
            "objective_given_twice", "unknown_sense"])
    def test_refusal_exits_2_naming_it(self, tmp_path, capsys, text, objectives, message):
        points = tmp_path / "points.csv"
        points.write_text(text)
        assert run_cli("pareto", "--points", str(points), "--objectives", objectives) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message.format(points=points)}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("text, message", [
        ("a,a\n1,2\n2,1\n", "{points}: column 'a' appears twice in the header"),
        ("a,b\n1,2,3\n", "{points} line 2: ragged row (3 cell(s), header has 2)"),
        ("a,b\n1,2\n\n3\n", "{points} line 4: ragged row (1 cell(s), header has 2)"),
    ], ids=["duplicate_column", "long_row", "short_row_after_a_blank_line"])
    def test_malformed_points_file_exits_2_before_writing(self, tmp_path, capsys, text,
                                                          message):
        points = tmp_path / "points.csv"
        points.write_text(text)
        assert run_cli("pareto", "--points", str(points), "--objectives", "a:min") == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: points file {message.format(points=points)}\n"
        assert captured.out == ""

    def test_crlf_file_with_a_quoted_line_break_round_trips(self, tmp_path, capsys):
        # csv writes \r\n line ends; the quoted cell keeps its \r\n as read
        text = b'name,a,b\r\n"two\r\nlines",1,2\r\nc,2,1\r\n'
        points = tmp_path / "points.csv"
        points.write_bytes(text)
        out = tmp_path / "front.csv"
        assert run_cli("pareto", "--points", str(points), "--objectives", "a:min,b:min",
                       "--out", str(out)) == 0
        assert capsys.readouterr() == (f"2 of 2 points -> {out}\n", "")
        assert out.read_bytes() == text

    def test_infinite_cell_is_ordered(self, tmp_path, capsys):
        # sweep writes inf as the fps_proxy of a graph with no MACs
        points = tmp_path / "points.csv"
        points.write_text("total_params,fps_proxy\n1,10\n2,inf\n3,5\n")
        assert run_cli("pareto", "--points", str(points),
                       "--objectives", "total_params:min,fps_proxy:max") == 0
        assert capsys.readouterr().out.splitlines() == ["total_params,fps_proxy", "1,10", "2,inf"]

    def test_out_file_gets_the_front_and_stdout_the_count(self, tmp_path, capsys):
        points = tmp_path / "points.csv"
        points.write_text("name,total_params,top5_error\na,1,0.2\nb,2,0.1\nc,3,0.1\n")
        out = tmp_path / "front.csv"
        assert run_cli("pareto", "--points", str(points),
                       "--objectives", " total_params , top5_error:min ,",
                       "--out", str(out)) == 0
        assert capsys.readouterr().out == f"2 of 3 points -> {out}\n"
        assert out.read_bytes() == b"name,total_params,top5_error\r\na,1,0.2\r\nb,2,0.1\r\n"


class TestCheck:
    def test_squeezenet_fails_8mb_sram(self, tmp_path, capsys, platform_file):
        constraints = tmp_path / "constraints.json"
        constraints.write_text(json.dumps({"max_onchip_bytes": 8192 * 1024}))
        assert run_cli("check", "--family", "squeezenet", "--p", "0.5",
                       "--platform", platform_file,
                       "--constraints", str(constraints)) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "onchip_bytes" in out

    def test_generous_budget_passes(self, tmp_path, capsys):
        constraints = tmp_path / "constraints.json"
        constraints.write_text(json.dumps({"max_energy_per_frame": 2.0}))
        assert run_cli("check", "--family", "squeezenet", "--p", "0.5",
                       "--constraints", str(constraints)) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("error", ["-1", "1.5", "nan"])
    def test_top5_error_outside_unit_interval_exits_2(self, tmp_path, capsys, error):
        constraints = tmp_path / "constraints.json"
        constraints.write_text(json.dumps({"max_top5_error": 0.2}))
        assert usage_error(capsys, "check", "--family", "squeezenet",
                           "--constraints", str(constraints), "--top5-error", error) == (
            f"convdse check: error: argument --top5-error: "
            f"top5_error must be in [0, 1], got {float(error)}")

    def test_error_budget_without_recorded_error_exits_2_naming_file_and_flag(self, tmp_path,
                                                                               capsys):
        constraints = tmp_path / "constraints.json"
        constraints.write_text(json.dumps({"max_top5_error": 0.3}))
        assert run_cli("check", "--family", "squeezenet", "--constraints",
                       str(constraints)) == 2
        assert capsys.readouterr().err == (f"error: constraint config {constraints}: "
                                           "max_top5_error is set, but no --top5-error was given\n")

    @pytest.mark.parametrize("value", ["8M", True], ids=["string", "bool"])
    def test_non_numeric_platform_value_exits_2_naming_it(self, tmp_path, capsys, value):
        platform = tmp_path / "platform.json"
        platform.write_text(json.dumps({"on_chip_bytes": value, "e_mac": 1e-12,
                                        "macs_per_second": 1e10}))
        assert run_cli("describe", "--family", "alexnet", "--platform", str(platform)) == 2
        assert (f"error: platform config {platform}: on_chip_bytes must be a number"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("value", ["0.2", False], ids=["string", "bool"])
    def test_non_numeric_constraint_exits_2_naming_it(self, tmp_path, capsys, value):
        constraints = tmp_path / "constraints.json"
        constraints.write_text(json.dumps({"max_top5_error": value}))
        assert run_cli("check", "--family", "squeezenet", "--constraints",
                       str(constraints)) == 2
        assert (f"error: constraint config {constraints}: max_top5_error must be a number"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command, option, config, message", [
        ("describe", "--platform", {**PLATFORM, "word_bytes": 2.5},
         "word_bytes must be an integer, got 2.5"),
        ("describe", "--platform", {**PLATFORM, "on_chip_bytes": 8388608.0},
         "on_chip_bytes must be an integer, got 8388608.0"),
        ("check", "--constraints", {"max_onchip_bytes": 1e6},
         "max_onchip_bytes must be an integer, got 1000000.0"),
    ], ids=["word_bytes", "on_chip_bytes", "max_onchip_bytes"])
    def test_float_in_integer_field_exits_2_naming_it(self, tmp_path, capsys, command, option,
                                                       config, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run_cli(command, "--family", "squeezenet", option, str(path)) == 2
        assert capsys.readouterr().err == f"error: {CONFIG_LABELS[option]} {path}: {message}\n"

    @pytest.mark.parametrize("command, option, text, message", [
        ("describe", "--platform",
         '{"on_chip_bytes": 8388608, "e_mac": Infinity, "macs_per_second": 1e10}',
         "e_mac must be finite, got inf"),
        ("check", "--constraints", '{"min_fps_required": 1e400}',
         "min_fps_required must be finite, got inf"),
        ("check", "--constraints", '{"max_energy_per_frame": NaN}',
         "max_energy_per_frame must be finite, got nan"),
    ], ids=["e_mac_infinity", "min_fps_required_overflow", "max_energy_per_frame_nan"])
    def test_non_finite_value_exits_2_naming_it(self, tmp_path, capsys, command, option,
                                                text, message):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert run_cli(command, "--family", "squeezenet", option, str(path)) == 2
        assert capsys.readouterr().err == f"error: {CONFIG_LABELS[option]} {path}: {message}\n"

    @pytest.mark.parametrize("command, option, label", [
        ("describe", "--platform", "platform config"),
        ("check", "--constraints", "constraint config"),
    ], ids=["platform", "constraints"])
    @pytest.mark.parametrize("text", ["5", "[]", "null", '"abc"'],
                             ids=["number", "list", "null", "string"])
    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys, command, option,
                                                   label, text):
        config = tmp_path / "config.json"
        config.write_text(text)
        assert run_cli(command, "--family", "alexnet", option, str(config)) == 2
        assert f"error: {label} {config}: top level must be an object" in capsys.readouterr().err

    def test_missing_platform_key_exits_2_naming_it(self, tmp_path, capsys):
        platform = tmp_path / "platform.json"
        platform.write_text(json.dumps({"e_mac": 1e-12, "macs_per_second": 1e10}))
        assert run_cli("describe", "--family", "alexnet", "--platform", str(platform)) == 2
        assert capsys.readouterr().err == (
            f"error: platform config {platform}: missing key(s) ['on_chip_bytes']\n")

    @pytest.mark.parametrize("command, option, config, field", [
        ("describe", "--platform", {**PLATFORM, "macs_per_second": 10**400},
         "macs_per_second"),
        ("describe", "--platform", {**PLATFORM, "offchip_ratio": 10**400},
         "offchip_ratio"),
        ("describe", "--platform", {**PLATFORM, "word_bytes": 10**400},
         "word_bytes"),
        ("check", "--constraints", {"max_energy_per_frame": 10**400},
         "max_energy_per_frame"),
        ("check", "--constraints", {"max_onchip_bytes": 10**400},
         "max_onchip_bytes"),
    ], ids=["macs_per_second", "offchip_ratio", "word_bytes", "max_energy_per_frame",
            "max_onchip_bytes"])
    def test_integer_past_float_range_exits_2_naming_it(self, tmp_path, capsys, command,
                                                        option, config, field):
        # JSON writes 10**400 as a 1 and 400 zeros, an integer no float holds
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run_cli(command, "--family", "squeezenet", option, str(path)) == 2
        assert capsys.readouterr().err == (
            f"error: {CONFIG_LABELS[option]} {path}: {field} must be finite, got {10**400}\n")


class TestCompressionCommands:
    def test_compress_decompress_verify_chain(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        graph = zoo.squeezenet(0.5)
        tensors = refexec.random_weights(graph, rng)[:6]
        sdnw = tmp_path / "w.sdnw"
        weights.save_sdnw(tensors, sdnw)

        sdnc = tmp_path / "w.sdnc"
        assert run_cli("compress", "--weights", str(sdnw), "--out", str(sdnc),
                       "--sparsity", "0.7", "--bits", "6", "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ratio"] > 1.0
        assert len(report["tensors"]) == 6

        restored = tmp_path / "restored.sdnw"
        assert run_cli("decompress", "--in", str(sdnc), "--out", str(restored)) == 0
        out_tensors = weights.load_sdnw(restored)
        assert [t.name for t in out_tensors] == [t.name for t in tensors]

        with open(sdnc, "rb") as fh:
            again = fh.read()
        roundtrip = tmp_path / "w2.sdnc"
        assert run_cli("compress", "--weights", str(restored), "--out", str(roundtrip),
                       "--sparsity", "0.0", "--bits", "8") == 0
        capsys.readouterr()
        assert run_cli("verify") == 0
        assert "9/9 checks passed" in capsys.readouterr().out

    def test_compress_serializes_each_record_once(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(2)
        tensors = [weights.WeightTensor(f"t{i}", (50,), rng.standard_normal(50))
                   for i in range(3)]
        sdnw = tmp_path / "w.sdnw"
        weights.save_sdnw(tensors, sdnw)
        bodies = []
        record_body = compress._record_body
        monkeypatch.setattr(compress, "_record_body",
                            lambda rec: bodies.append(rec.name) or record_body(rec))
        assert run_cli("compress", "--weights", str(sdnw), "--out",
                       str(tmp_path / "w.sdnc"), "--json") == 0
        assert bodies == ["t0", "t1", "t2"]
        doc = json.loads(capsys.readouterr().out)
        assert doc["compressed_bytes"] == (tmp_path / "w.sdnc").stat().st_size

    def test_compress_drops_each_input_tensor_once_pruned(self, tmp_path, capsys,
                                                          monkeypatch):
        rng = np.random.default_rng(3)
        sdnw = tmp_path / "w.sdnw"
        weights.save_sdnw([weights.WeightTensor(f"t{i}", (200,), rng.standard_normal(200))
                           for i in range(4)], sdnw)
        inputs, alive = [], []
        nonzeros = compress._nonzeros

        def watched(tensor, sparsity):
            # how many of the inputs pruned before this one are still held
            alive.append(sum(ref() is not None for ref in inputs))
            inputs.append(weakref.ref(tensor.values))
            return nonzeros(tensor, sparsity)
        monkeypatch.setattr(compress, "_nonzeros", watched)
        assert run_cli("compress", "--weights", str(sdnw), "--out",
                       str(tmp_path / "w.sdnc")) == 0
        assert alive == [0, 0, 0, 0]

    def test_compress_peak_memory_stays_under_three_times_the_input(self, tmp_path, capsys):
        # a small model shaped like AlexNet's weights: one fully connected
        # tensor holds most of them, with smaller ones before and after it
        rng = np.random.default_rng(7)
        shapes = [("conv1.weight", (32, 3, 5, 5)), ("conv2.weight", (64, 32, 3, 3)),
                  ("fc1.weight", (256, 1024)), ("fc2.weight", (128, 256)),
                  ("fc3.weight", (10, 128))]
        sdnw = tmp_path / "w.sdnw"
        weights.save_sdnw([weights.WeightTensor(name, shape, rng.standard_normal(shape))
                           for name, shape in shapes], sdnw)
        argv = ["compress", "--weights", str(sdnw), "--out", str(tmp_path / "w.sdnc")]
        # the first run executes the codec modules, so the traced one measures only the work
        assert run_cli(*argv) == 0
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert run_cli(*argv) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # reading the file alone holds its bytes and the loaded tensors: 2x
        assert peak < 3.0 * sdnw.stat().st_size

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_weight_exits_2_naming_the_tensor(self, tmp_path, capsys, bad):
        values = np.ones(10, dtype=np.float32)
        values[3] = bad
        sdnw = tmp_path / "w.sdnw"
        weights.save_sdnw([weights.WeightTensor("conv1.weight", (10,), values)], sdnw)
        sdnc = tmp_path / "w.sdnc"
        assert run_cli("compress", "--weights", str(sdnw), "--out", str(sdnc)) == 2
        assert "conv1.weight: weights contain NaN or infinity" in capsys.readouterr().err
        assert not sdnc.exists()

    @pytest.mark.parametrize("gap_bits", ["0", "17"])
    def test_gap_width_is_refused_before_any_tensor_is_pruned(self, tmp_path, capsys,
                                                              monkeypatch, gap_bits):
        sdnw = tmp_path / "w.sdnw"
        weights.save_sdnw([weights.WeightTensor("t", (10,), np.arange(10.0))], sdnw)

        def no_pruning(tensor, sparsity):
            raise AssertionError("pruned before the gap width was checked")
        monkeypatch.setattr(compress, "_keep_mask", no_pruning)
        sdnc = tmp_path / "w.sdnc"
        assert usage_error(capsys, "compress", "--weights", str(sdnw), "--out", str(sdnc),
                           "--gap-bits", gap_bits) == (
            f"convdse compress: error: argument --gap-bits: "
            f"rel_index_bits must be in [1, 16], got {gap_bits}")
        assert not sdnc.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--sparsity", "5"], "--sparsity: target_sparsity must be in [0, 1), got 5.0"),
        (["--sparsity", "nan"], "--sparsity: target_sparsity must be in [0, 1), got nan"),
        (["--sparsity", "1"], "--sparsity: target_sparsity must be in [0, 1), got 1.0"),
        (["--bits", "0", "--sparsity", "5"], "--bits: bits must be in [1, 8], got 0"),
    ], ids=["five", "nan", "one", "bits_first"])
    @pytest.mark.parametrize("count", [0, 1], ids=["no_tensor", "one_tensor"])
    def test_bad_sparsity_exits_2_even_without_tensors(self, tmp_path, capsys, argv, message,
                                                       count):
        sdnw = tmp_path / "w.sdnw"
        weights.save_sdnw([weights.WeightTensor("t", (10,), np.arange(10.0))][:count], sdnw)
        sdnc = tmp_path / "w.sdnc"
        assert usage_error(capsys, "compress", "--weights", str(sdnw), "--out", str(sdnc),
                           *argv) == f"convdse compress: error: argument {message}"
        assert not sdnc.exists()

    @pytest.mark.parametrize("values, change, message", [
        (np.zeros(20), {"shape": (0, 5)}, "zero dimension"),
        (np.arange(20) % 3, {"record_count": 21}, "record count 21 exceeds element count 20"),
        (np.arange(20) % 3, {"nonzero_count": 14}, "nonzero count 14 exceeds record count"),
    ], ids=["zero_dimension", "records_past_elements", "nonzeros_past_records"])
    def test_impossible_record_header_exits_3(self, tmp_path, capsys, values, change, message):
        qt = compress.kmeans_quantize(weights.WeightTensor("t", (4, 5), values), bits=2)
        record = compress.encode([qt]).records[0]
        sdnc = tmp_path / "w.sdnc"
        sdnc.write_bytes(compress.write_sdnc(compress.CompressedModel(
            (replace(record, **change),))))
        assert run_cli("decompress", "--in", str(sdnc), "--out", str(tmp_path / "x.sdnw")) == 3
        assert message in capsys.readouterr().err

    @staticmethod
    def _record():
        values = np.arange(20) % 3
        qt = compress.kmeans_quantize(weights.WeightTensor("t", (4, 5), values), bits=2)
        return compress.encode([qt]).records[0]

    @staticmethod
    def _decompress(tmp_path, record):
        sdnc = tmp_path / "w.sdnc"
        sdnc.write_bytes(compress.write_sdnc(compress.CompressedModel((record,))))
        return run_cli("decompress", "--in", str(sdnc), "--out", str(tmp_path / "x.sdnw"))

    # the record's codebook is [1.0, 2.0], read from byte 31 on: the gap
    # width at byte 28 and the u16 codebook size precede it
    @pytest.mark.parametrize("slot", [0, 1])
    @pytest.mark.parametrize("entry", [0.0, -0.0, math.nan, math.inf],
                             ids=["zero", "negative_zero", "nan", "inf"])
    def test_zero_or_non_finite_codebook_entry_exits_3(self, tmp_path, capsys, entry, slot):
        rec = self._record()
        codebook = rec.codebook.copy()
        codebook[slot] = entry
        assert self._decompress(tmp_path, replace(rec, codebook=codebook)) == 3
        assert capsys.readouterr().err == (
            f"error: SDNC: t: codebook entry {slot} is {np.float32(entry)}, "
            f"not a finite nonzero at offset {31 + 4 * slot}\n")
        assert not (tmp_path / "x.sdnw").exists()

    def test_stream_shorter_than_record_count_exits_3(self, tmp_path, capsys):
        rec = self._record()
        assert self._decompress(tmp_path, replace(rec, record_count=rec.record_count + 1)) == 3
        assert "t: gap stream: bit stream exhausted" in capsys.readouterr().err

    @pytest.mark.parametrize("stream, lengths, message", [
        ("gap", {0: 1, 1: 1, 2: 1}, "code lengths over-subscribe the Kraft sum"),
        ("index", {0: 1, 1: 58}, "code lengths must be in 1..57"),
    ], ids=["over_subscribed", "past_decoder_window"])
    def test_undecodable_length_table_exits_3(self, tmp_path, capsys, stream, lengths,
                                              message):
        rec = replace(self._record(), **{f"{stream}_lengths": lengths})
        assert self._decompress(tmp_path, rec) == 3
        assert f"t: {stream} code table: {message}" in capsys.readouterr().err

    # each header is consistent (13 records <= the element count), but the
    # dense tensor needs 4 PiB, or more elements than numpy can index
    @pytest.mark.parametrize("shape", [(2**25, 2**25), (2**32 - 1,) * 3, (2**31, 2**31, 4)],
                             ids=["4_pib", "u32_max_cubed", "2_pow_64"])
    def test_unallocatable_shape_exits_3_naming_the_tensor(self, tmp_path, capsys, shape):
        assert self._decompress(tmp_path, replace(self._record(), shape=shape)) == 3
        assert f"t: cannot allocate {math.prod(shape)} elements" in capsys.readouterr().err

    @pytest.mark.parametrize("width", [0, 17])
    def test_invalid_gap_width_exits_3(self, tmp_path, capsys, width):
        # byte 28 is the gap width: 12 bytes of container head, the u32 body
        # length, then the tensor header of 't' with shape (4, 5)
        data = bytearray(compress.write_sdnc(compress.CompressedModel((self._record(),))))
        (body_len,) = struct.unpack_from("<I", data, 12)
        data[28] = width
        struct.pack_into("<I", data, 16 + body_len, zlib.crc32(data[16:16 + body_len]))
        sdnc = tmp_path / "w.sdnc"
        sdnc.write_bytes(bytes(data))
        assert run_cli("decompress", "--in", str(sdnc), "--out", str(tmp_path / "x.sdnw")) == 3
        assert capsys.readouterr().err == (
            f"error: SDNC: t: invalid gap width {width} at offset 28\n")

    # the record holds 13 nonzeros of 20 elements, at positions up to 19
    @pytest.mark.parametrize("change, message", [
        ({"nonzero_count": 12}, "t: decoded 13 nonzeros, header declares 12"),
        ({"shape": (13,)}, "t: decoded position 13 exceeds element count 13"),
        ({"gap_lengths": {}}, "t: gap stream: cannot decode with an empty code table"),
    ], ids=["nonzero_count_off_by_one", "shape_too_small", "records_with_no_gap_code"])
    def test_header_that_disagrees_with_the_streams_exits_3(self, tmp_path, capsys, change,
                                                            message):
        assert self._decompress(tmp_path, replace(self._record(), **change)) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_sdnw_unknown_dtype_exits_3_naming_the_tensor(self, tmp_path, capsys):
        data = bytearray(weights.write_sdnw([weights.WeightTensor("t", (2,), [1.0, 2.0])]))
        # the dtype code follows the 12-byte head and the header of 't', shape (2,)
        assert data[20] == 0
        data[20] = 1
        sdnw = tmp_path / "w.sdnw"
        sdnw.write_bytes(bytes(data))
        assert run_cli("compress", "--weights", str(sdnw),
                       "--out", str(tmp_path / "w.sdnc")) == 3
        assert capsys.readouterr().err == (
            "error: SDNW: tensor 't' has unknown dtype code 1 at offset 20\n")
        assert not (tmp_path / "w.sdnc").exists()

    def test_sdnw_zero_dimension_exits_3_naming_the_tensor(self, tmp_path, capsys):
        name = b"conv1.weight"
        sdnw = tmp_path / "w.sdnw"
        sdnw.write_bytes(b"SDNW" + struct.pack("<IIH", 1, 1, len(name)) + name
                         + struct.pack("<B2IB", 2, 0, 3, 0))
        assert run_cli("compress", "--weights", str(sdnw),
                       "--out", str(tmp_path / "w.sdnc")) == 3
        assert "tensor 'conv1.weight' has a zero dimension" in capsys.readouterr().err

    def test_corrupt_container_exits_3(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        sdnw = tmp_path / "w.sdnw"
        weights.save_sdnw([weights.WeightTensor(
            "t", (100,), rng.standard_normal(100).astype(np.float32))], sdnw)
        sdnc = tmp_path / "w.sdnc"
        assert run_cli("compress", "--weights", str(sdnw), "--out", str(sdnc)) == 0
        data = bytearray(sdnc.read_bytes())
        data[len(data) // 2] ^= 0xFF
        sdnc.write_bytes(bytes(data))
        capsys.readouterr()
        assert run_cli("decompress", "--in", str(sdnc),
                       "--out", str(tmp_path / "x.sdnw")) == 3


# one command reading each kind of JSON file, the file's name left off
JSON_ARGVS = {
    "arch": ["describe", "--arch"],
    "platform": ["describe", "--family", "squeezenet", "--platform"],
    "constraints": ["check", "--family", "squeezenet", "--constraints"],
    "grid": ["sweep", "--family", "squeezenet", "--out", "x", "--grid"],
}
JSON_FILE_ARGVS = pytest.mark.parametrize("argv", list(JSON_ARGVS.values()), ids=list(JSON_ARGVS))
# ... and of each kind of CSV file, whose sweep reads grid.json first
TEXT_ARGVS = JSON_ARGVS | {
    "accuracy": ["sweep", "--family", "squeezenet", "--out", "x", "--grid", "grid.json",
                 "--accuracy"],
    "points": ["pareto", "--objectives", "a:min", "--points"],
}


@JSON_FILE_ARGVS
def test_json_nested_past_the_parser_limit_exits_3_naming_the_file(tmp_path, capsys,
                                                                   monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "deep.json").write_text("[" * 200_000 + "]" * 200_000)
    assert run_cli(*argv, "deep.json") == 3
    assert capsys.readouterr() == ("", "error: deep.json: JSON nested too deeply\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["deep.json"]


@JSON_FILE_ARGVS
def test_json_syntax_error_exits_3_naming_the_file(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text('{\n  "a": 1,\n  bad')
    assert run_cli(*argv, "bad.json") == 3
    assert capsys.readouterr() == (
        "", "error: bad.json: line 3, column 3: "
            "Expecting property name enclosed in double quotes\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


@pytest.mark.parametrize("kind", ["platform", "constraints", "grid"])
def test_json_key_given_twice_exits_3_naming_the_file_and_key(tmp_path, capsys, monkeypatch,
                                                              kind):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "twice.json").write_text('{"a": {"b": 1, "c": 2, "b": 3}}')
    assert run_cli(*JSON_ARGVS[kind], "twice.json") == 3
    assert capsys.readouterr() == (
        "", "error: twice.json: key 'b' appears twice in one object\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["twice.json"]


def test_descriptor_key_given_twice_takes_the_last_value(tmp_path, capsys):
    # descriptors keep json's last-wins: a refusing hook slows their parse
    arch = tmp_path / "arch.json"
    arch.write_text('{"name": "n", "nodes": [{"id": "in", "op": "input", "inputs": [], '
                    '"params": {"height": 8, "width": 8, "channels": 3}}, '
                    '{"id": "c", "op": "conv", "inputs": ["in"], '
                    '"params": {"kernel": 1, "filters": 16, "filters": 32}}]}')
    assert run_cli("describe", "--arch", str(arch), "--json") == 0
    assert json.loads(capsys.readouterr().out)["total_params"] == 3 * 32 + 32


@pytest.mark.parametrize("argv", list(TEXT_ARGVS.values()), ids=list(TEXT_ARGVS))
def test_file_that_is_not_utf8_exits_3_naming_the_file(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "grid.json").write_text('{"p": [0.5]}')
    (tmp_path / "latin1.txt").write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    assert run_cli(*argv, "latin1.txt") == 3
    assert capsys.readouterr() == ("", "error: latin1.txt: not UTF-8 (byte 0xe9 at offset 13)\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.json", "latin1.txt"]


@pytest.mark.parametrize("command, what", [("accuracy", "accuracy table big.csv"),
                                           ("points", "points file big.csv")])
def test_csv_cell_past_the_field_limit_exits_2_naming_the_line(tmp_path, capsys, monkeypatch,
                                                                command, what):
    # the csv module refuses a cell over 131,072 characters
    monkeypatch.chdir(tmp_path)
    (tmp_path / "grid.json").write_text('{"p": [0.5]}')
    (tmp_path / "big.csv").write_text("p,top5_error\n0.5,0.2\n" + "x" * 200_000 + ",0.1\n")
    assert run_cli(*TEXT_ARGVS[command], "big.csv") == 2
    assert capsys.readouterr() == (
        "", f"error: {what} line 3: field larger than field limit (131072)\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.csv", "grid.json"]


@pytest.mark.parametrize("batch, problem", [
    ("0", "must be strictly positive"), ("-3", "must be strictly positive"),
    ("two", "must be a number, got 'two'"),
], ids=["0", "-3", "two"])
@pytest.mark.parametrize("command", ["describe", "check", "sweep"])
def test_batch_below_one_exits_2_naming_the_flag(tmp_path, capsys, command, batch, problem):
    # the grid and constraint files do not exist: the flag is refused before
    # any file is read or any graph is built
    argv = {"describe": ["describe", "--family", "squeezenet"],
            "check": ["check", "--family", "squeezenet",
                      "--constraints", str(tmp_path / "constraints.json")],
            "sweep": ["sweep", "--family", "squeezenet", "--grid", str(tmp_path / "grid.json"),
                      "--out", str(tmp_path / "x")]}[command]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, f"--batch={batch}")
    assert exc.value.code == 2
    assert f"argument --batch: batch {problem}\n" in capsys.readouterr().err


def _typed_flags() -> list[tuple[str, argparse.Action]]:
    """(command, action) of every flag that converts its value."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(command, action) for command, sub in commands.choices.items()
            for action in sub._actions if action.type is not None]


def _bad_values(f) -> list[tuple[str, str]]:
    """(text, problem) pairs ``f`` refuses: a word, a fraction for an
    integer, and each finite end of its bound, or one past it if closed."""
    bad = [("two", "must be a number, got 'two'")]
    if f.kind is int:
        bad.append(("2.5", "must be an integer, got 2.5"))
    if f.bound:
        lo, hi = f.bound[1:-1].split(", ")
        for end, step in ((lo, -(f.bound[0] == "[")), (hi, f.bound[-1] == "]")):
            if math.isfinite(float(end)):
                text = f"{float(end) + step:g}"
                bad.append((text, f.problem(f.kind(text))))
    return bad


@pytest.mark.parametrize("command, action", _typed_flags(), ids=lambda v: (
    v.option_strings[0].lstrip("-") if isinstance(v, argparse.Action) else v))
def test_every_typed_flag_is_refused_by_its_field_before_any_file_is_read(tmp_path, capsys,
                                                                        command, action):
    # every input is a missing file, so a refusal after a read would exit 3
    missing = str(tmp_path / "missing")
    argv = {"describe": ["--arch", missing, "--platform", missing],
            "check": ["--arch", missing, "--platform", missing, "--constraints", missing],
            "sweep": ["--family", "squeezenet", "--grid", missing, "--platform", missing,
                      "--accuracy", missing, "--out", str(tmp_path / "x")],
            "compress": ["--weights", missing, "--out", str(tmp_path / "x.sdnc")]}[command]
    assert run_cli(command, *argv) == 3
    capsys.readouterr()
    assert isinstance(action.type, functools.partial) and action.type.func is cli._checked
    f, option = action.type.args[0], action.option_strings[0]
    for text, problem in _bad_values(f):
        assert problem is not None, text
        assert usage_error(capsys, command, *argv, option, text) == (
            f"convdse {command}: error: argument {option}: {f.name} {problem}")
    assert list(tmp_path.iterdir()) == []


def test_batch_of_two_amortizes_spilled_weights(capsys):
    # alexnet's weights spill off-chip, so a batch halves their energy share
    energies = []
    for batch in ("1", "2"):
        assert run_cli("describe", "--family", "alexnet", "--json", "--batch", batch) == 0
        energies.append(json.loads(capsys.readouterr().out)["energy_per_frame"])
    assert energies[1] < energies[0]


# a representative command line of every command; no file is read
COMMAND_ARGVS = {
    "describe": ["describe", "--family", "squeezenet", "--p", "0.5", "--batch", "2", "--json"],
    "sweep": ["sweep", "--family", "squeezenet", "--grid", "g.json", "--out", "o",
              "--epsilon", "0.01", "--saturation-axis", "total_macs"],
    "pareto": ["pareto", "--points", "p.csv", "--objectives", "a:min", "--out", "f.csv"],
    "check": ["check", "--arch", "a.json", "--constraints", "c.json", "--top5-error", "0.2"],
    "compress": ["compress", "--weights", "w.sdnw", "--out", "w.sdnc", "--bits", "4"],
    "decompress": ["decompress", "--in", "w.sdnc", "--out", "w.sdnw"],
    "verify": ["verify", "--json"],
}


def _help_text(parser, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", sorted(COMMAND_ARGVS))
def test_parser_for_one_command_matches_the_full_parser(command, capsys):
    argv = COMMAND_ARGVS[command]
    assert cli.build_parser(command).parse_args(argv) == cli.build_parser().parse_args(argv)
    assert cli.build_parser(command).format_help() == cli.build_parser().format_help()
    help_text = _help_text(cli.build_parser(command), [command, "--help"], capsys)
    assert help_text == _help_text(cli.build_parser(), [command, "--help"], capsys)
    assert f"usage: convdse {command} [-h]" in help_text


USAGE = ("usage: convdse [-h]\n"
         "               {describe,sweep,pareto,check,compress,decompress,verify} ...\n")


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus' (choose from 'describe', 'sweep', "
                "'pareto', 'check', 'compress', 'decompress', 'verify')"),
    # an error of the top-level parser prints its usage, which lists every command
    (["describe", "--bogus"], "unrecognized arguments: --bogus"),
], ids=["no_arguments", "unknown_command", "unknown_option"])
def test_top_level_usage_error_lists_every_command(monkeypatch, capsys, argv, message):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"{USAGE}convdse: error: {message}\n")


def test_top_level_help_lists_every_command(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.startswith(USAGE)
    listing = [f"    {name.ljust(20)}{help_text}"
               for name, (help_text, *_) in cli._COMMANDS.items()]
    assert "\n".join(listing) in out


def test_main_without_argv_reads_the_command_from_sys_argv(monkeypatch, capsys):
    built = []
    full_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command)
                        or full_parser(command))
    monkeypatch.setattr("sys.argv", ["convdse", "describe", "--family", "alexnet", "--json"])
    assert main() == 0
    assert built == ["describe"]
    assert json.loads(capsys.readouterr().out)["total_params"] == 60_965_224
