import json
import math
import struct
import zlib
from dataclasses import replace

import numpy as np
import pytest

from convdse import compress, refexec, weights, zoo
from convdse.cli import main
from convdse.descriptor import serialize


PLATFORM = {"on_chip_bytes": 8 * 1024 * 1024, "e_mac": 1e-12, "macs_per_second": 1e10}


@pytest.fixture
def platform_file(tmp_path):
    path = tmp_path / "platform.json"
    path.write_text(json.dumps(PLATFORM))
    return str(path)


def run_cli(*argv):
    return main(list(argv))


class TestDescribe:
    def test_squeezenet_storage_line(self, capsys):
        assert run_cli("describe", "--family", "squeezenet", "--p", "0.5") == 0
        out = capsys.readouterr().out
        assert "4,993,696 B (4.76 MB)" in out

    def test_alexnet_param_line(self, capsys):
        assert run_cli("describe", "--family", "alexnet") == 0
        out = capsys.readouterr().out
        assert "60,965,224 params" in out

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
    ], ids=["filters_1e310", "word_bytes_1e301"])
    def test_costs_past_float_range_exit_2_naming_the_graph(self, tmp_path, capsys, arch,
                                                            platform, name):
        (tmp_path / "platform.json").write_text(json.dumps(platform))
        source = ["--family", "alexnet"]
        if arch is not None:
            (tmp_path / "arch.json").write_text(json.dumps(arch))
            source = ["--arch", str(tmp_path / "arch.json")]
        assert run_cli("describe", *source, "--platform", str(tmp_path / "platform.json")) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: graph {name!r}: cost metrics overflow a float (")
        assert captured.out == ""


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

    def test_bad_metaparam_exits_2(self, tmp_path):
        grid = self.write_grid(tmp_path, {"width_mult": [1.0]})
        assert run_cli("sweep", "--family", "squeezenet", "--grid", grid,
                       "--out", str(tmp_path / "x")) == 2

    @pytest.mark.parametrize("family, grid, name", [
        ("squeezenet", {"p": ["0.5"]}, "'p'"),
        ("squeezenet", {"p": [None]}, "'p'"),
        ("squeezenet", {"pool_count": [0]}, "'pool_count'"),
        ("squeezenet", {"pool_count": [2.7]}, "'pool_count'"),
        ("mobilenet", {"width_mult": [True]}, "'width_mult'"),
    ], ids=["p_string", "p_null", "pool_count_zero", "pool_count_fraction",
            "width_mult_bool"])
    def test_bad_grid_value_exits_2_naming_it(self, tmp_path, capsys, family, grid, name):
        path = self.write_grid(tmp_path, grid)
        assert run_cli("sweep", "--family", family, "--grid", path,
                       "--out", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert "metaparameter" in err and name in err
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

    @pytest.mark.parametrize("epsilon", ["nan", "-1", "inf"])
    def test_bad_epsilon_exits_2_naming_it(self, tmp_path, capsys, epsilon):
        # with the default --epsilon 0.005 this grid saturates at p = 0.75
        grid = self.write_grid(tmp_path, {"p": [0.5, 0.75, 1.0]})
        acc = tmp_path / "acc.csv"
        acc.write_text("p,top5_error\n0.5,0.31\n0.75,0.262\n1.0,0.26\n")
        assert run_cli("sweep", "--family", "squeezenet", "--grid", grid,
                       "--accuracy", str(acc), "--saturation-axis", "total_macs",
                       "--epsilon", epsilon, "--out", str(tmp_path / "x")) == 2
        assert capsys.readouterr().err == (
            f"error: --epsilon must be finite and non-negative, got {float(epsilon)}\n")
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

    @pytest.mark.parametrize("grid", [[0.5], {"p": 0.5}, None], ids=["list", "scalar", "null"])
    def test_grid_that_is_not_axis_lists_exits_2(self, tmp_path, capsys, grid):
        path = self.write_grid(tmp_path, grid)
        assert run_cli("sweep", "--family", "squeezenet", "--grid", path,
                       "--out", str(tmp_path / "x")) == 2
        assert capsys.readouterr().err == "error: grid file must map axis names to value lists\n"
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
        ("", "total_params:min", "points file has no header row"),
        ("total_params\n1\n", ",", "no objectives given"),
        ("total_params,top5_error\n1,0.2\nabc,0.1\n", "total_params",
         "metric 'total_params' has non-numeric value 'abc'"),
    ], ids=["no_header", "no_objectives", "non_numeric_cell"])
    def test_refusal_exits_2_naming_it(self, tmp_path, capsys, text, objectives, message):
        points = tmp_path / "points.csv"
        points.write_text(text)
        assert run_cli("pareto", "--points", str(points), "--objectives", objectives) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

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
        assert run_cli("check", "--family", "squeezenet", "--constraints", str(constraints),
                       "--top5-error", error) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --top5-error must be in [0, 1], got {float(error)}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["8M", True], ids=["string", "bool"])
    def test_non_numeric_platform_value_exits_2_naming_it(self, tmp_path, capsys, value):
        platform = tmp_path / "platform.json"
        platform.write_text(json.dumps({"on_chip_bytes": value, "e_mac": 1e-12,
                                        "macs_per_second": 1e10}))
        assert run_cli("describe", "--family", "alexnet", "--platform", str(platform)) == 2
        assert "PlatformSpec.on_chip_bytes must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0.2", False], ids=["string", "bool"])
    def test_non_numeric_constraint_exits_2_naming_it(self, tmp_path, capsys, value):
        constraints = tmp_path / "constraints.json"
        constraints.write_text(json.dumps({"max_top5_error": value}))
        assert run_cli("check", "--family", "squeezenet", "--constraints",
                       str(constraints)) == 2
        assert "ConstraintSet.max_top5_error must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("command, option, config, message", [
        ("describe", "--platform", {**PLATFORM, "word_bytes": 2.5},
         "PlatformSpec.word_bytes must be an integer, got 2.5"),
        ("describe", "--platform", {**PLATFORM, "on_chip_bytes": 8388608.0},
         "PlatformSpec.on_chip_bytes must be an integer, got 8388608.0"),
        ("check", "--constraints", {"max_onchip_bytes": 1e6},
         "ConstraintSet.max_onchip_bytes must be an integer, got 1000000.0"),
    ], ids=["word_bytes", "on_chip_bytes", "max_onchip_bytes"])
    def test_float_in_integer_field_exits_2_naming_it(self, tmp_path, capsys, command, option,
                                                       config, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run_cli(command, "--family", "squeezenet", option, str(path)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command, option, text, message", [
        ("describe", "--platform",
         '{"on_chip_bytes": 8388608, "e_mac": Infinity, "macs_per_second": 1e10}',
         "PlatformSpec.e_mac must be finite, got inf"),
        ("check", "--constraints", '{"min_fps_required": 1e400}',
         "ConstraintSet.min_fps_required must be finite, got inf"),
        ("check", "--constraints", '{"max_energy_per_frame": NaN}',
         "ConstraintSet.max_energy_per_frame must be finite, got nan"),
    ], ids=["e_mac_infinity", "min_fps_required_overflow", "max_energy_per_frame_nan"])
    def test_non_finite_value_exits_2_naming_it(self, tmp_path, capsys, command, option,
                                                text, message):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert run_cli(command, "--family", "squeezenet", option, str(path)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

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
        assert f"error: {label}: top level must be an object" in capsys.readouterr().err

    def test_missing_platform_key_exits_2_naming_it(self, tmp_path, capsys):
        platform = tmp_path / "platform.json"
        platform.write_text(json.dumps({"e_mac": 1e-12, "macs_per_second": 1e10}))
        assert run_cli("describe", "--family", "alexnet", "--platform", str(platform)) == 2
        assert capsys.readouterr().err == (
            "error: platform config: missing key(s) ['on_chip_bytes']\n")

    @pytest.mark.parametrize("command, option, config, field", [
        ("describe", "--platform", {**PLATFORM, "macs_per_second": 10**400},
         "PlatformSpec.macs_per_second"),
        ("describe", "--platform", {**PLATFORM, "offchip_ratio": 10**400},
         "PlatformSpec.offchip_ratio"),
        ("describe", "--platform", {**PLATFORM, "word_bytes": 10**400},
         "PlatformSpec.word_bytes"),
        ("check", "--constraints", {"max_energy_per_frame": 10**400},
         "ConstraintSet.max_energy_per_frame"),
        ("check", "--constraints", {"max_onchip_bytes": 10**400},
         "ConstraintSet.max_onchip_bytes"),
    ], ids=["macs_per_second", "offchip_ratio", "word_bytes", "max_energy_per_frame",
            "max_onchip_bytes"])
    def test_integer_past_float_range_exits_2_naming_it(self, tmp_path, capsys, command,
                                                        option, config, field):
        # JSON writes 10**400 as a 1 and 400 zeros, an integer no float holds
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run_cli(command, "--family", "squeezenet", option, str(path)) == 2
        assert capsys.readouterr().err == f"error: {field} must be finite, got {10**400}\n"


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
    ], ids=["nonzero_count_off_by_one", "shape_too_small"])
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
