import re

import numpy as np
import pytest

from convdse import descriptor, explore
from convdse.costs import MetricsReport, PlatformSpec, report
from convdse.explore import (ConstraintSet, DesignPoint, SweepError, attach_accuracy,
                             build_family, check_constraints, find_saturation,
                             load_accuracy_table, pareto_front, sweep)
from convdse.graph import ShapeError
from convdse.zoo import PoolPlacement, squeezenet

PLATFORM = PlatformSpec(on_chip_bytes=8 << 20, e_mac=1e-12, macs_per_second=1e10)
PAPER_P_VALUES = [0.5, 0.675, 0.75, 0.825, 1.0]


def point(params=1.0, err=None, macs=1.0, **metaparams):
    """Bare design point for the set-algebra tests."""
    metrics = MetricsReport(name="synthetic", total_params=int(params),
                            storage_bytes=4 * int(params), total_macs=int(macs),
                            peak_activation_bytes=0, energy_per_frame=0.0,
                            fps_proxy=1.0, ota_bytes=4 * int(params))
    return DesignPoint(dict(metaparams), metrics, top5_error=err)


def dominating_witness(points, point, objectives):
    """A point that dominates ``point``, or None if it is non-dominated."""
    def key(p):
        return tuple(p.value_of(m) if s == "min" else -p.value_of(m) for m, s in objectives)

    target = key(point)
    for other in points:
        k = key(other)
        if other is not point and all(x <= y for x, y in zip(k, target)) \
                and any(x < y for x, y in zip(k, target)):
            return other
    return None


class TestBuildFamily:
    def test_pooling_default_rule(self):
        # either pooling metaparameter replaces the canonical positions
        assert (build_family("squeezenet", {"pool_count": 2}).nodes
                == squeezenet(0.5, PoolPlacement("even", 2)).nodes)
        assert (build_family("squeezenet", {"pool_placement": "late"}).nodes
                == squeezenet(0.5, PoolPlacement("late", 3)).nodes)

    def test_null_optional_metaparameter_is_left_unset(self):
        # as for a constraint set's optional fields; p, whose default is a number, refuses it
        assert (build_family("squeezenet", {"pool_placement": None, "pool_count": None}).nodes
                == squeezenet(0.5).nodes)

    def test_int_passes_as_float_and_is_kept_as_given(self):
        assert build_family("squeezenet", {"p": 1}).nodes == squeezenet(1.0).nodes
        [only] = sweep("squeezenet", {"p": [1]}, PLATFORM)
        assert type(only.metaparams["p"]) is int

    # a Python value of every numeric family field, and a numpy scalar equal to it
    NUMPY_VALUES = {("squeezenet", "p"): 0.75, ("squeezenet", "pool_count"): 2,
                    ("mobilenet", "width_mult"): 0.5}

    def test_every_numeric_family_field_has_a_numpy_case(self):
        assert set(self.NUMPY_VALUES) == {
            (family, f.name) for family, spec in explore.FAMILIES.items()
            for f in spec.params if not isinstance(f.kind, tuple)}

    @pytest.mark.parametrize("family, name", sorted(NUMPY_VALUES))
    def test_numpy_scalar_builds_the_graph_of_the_python_value(self, family, name):
        value = self.NUMPY_VALUES[family, name]
        scalar = (np.int64 if type(value) is int else np.float32)(value)
        assert scalar == value
        graph, expected = build_family(family, {name: scalar}), build_family(family, {name: value})
        assert graph == expected
        assert descriptor.serialize(graph) == descriptor.serialize(expected)

    @pytest.mark.parametrize("family, name, value", [
        ("squeezenet", "p", "0.5"), ("squeezenet", "p", None), ("squeezenet", "p", True),
        ("squeezenet", "pool_count", 2.7), ("squeezenet", "pool_count", 3.0),
        ("squeezenet", "pool_count", False), ("squeezenet", "pool_placement", "middle"),
        ("squeezenet", "pool_placement", 1), ("mobilenet", "width_mult", True),
    ])
    def test_wrong_kind_is_refused(self, family, name, value):
        with pytest.raises(SweepError, match=f"^family '{family}': {name} must be "):
            build_family(family, {name: value})

    @pytest.mark.parametrize("family, params", [
        ("squeezenet", {"p": 1.5}), ("squeezenet", {"pool_count": 0}),
        ("squeezenet", {"pool_count": 9}), ("mobilenet", {"width_mult": 0}),
    ])
    def test_generator_range_error_names_family_and_value(self, family, params):
        [(name, value)] = params.items()
        with pytest.raises(SweepError, match=f"family '{family}'.*'{name}': {value}"):
            build_family(family, params)


class TestSweep:
    def test_paper_p_axis(self):
        points = sweep("squeezenet", {"p": PAPER_P_VALUES}, PLATFORM)
        assert len(points) == 5
        sizes = [p.metrics.total_params for p in points]
        assert all(b > a for a, b in zip(sizes, sizes[1:]))
        assert [p.metaparams["p"] for p in points] == PAPER_P_VALUES

    def test_empty_axis_is_an_error(self):
        with pytest.raises(SweepError, match="no values"):
            sweep("squeezenet", {"p": []}, PLATFORM)

    @pytest.mark.parametrize("grid", [{"p": 0.5}, [0.5], None, {"pool_placement": "early"}],
                             ids=["scalar", "list", "null", "string"])
    def test_grid_that_is_not_axis_lists_is_refused(self, grid):
        with pytest.raises(SweepError) as exc:
            sweep("squeezenet", grid, PLATFORM)
        assert str(exc.value) == "grid must map axis names to value lists"

    def test_grid_of_one_equals_direct_report(self):
        points = sweep("squeezenet", {"p": [0.5]}, PLATFORM)
        assert len(points) == 1
        assert points[0].metrics == report(squeezenet(0.5), PLATFORM)

    def test_unknown_family_and_metaparam(self):
        with pytest.raises(SweepError, match="unknown family"):
            sweep("resnet", {"p": [0.5]}, PLATFORM)
        with pytest.raises(SweepError, match=re.escape(
                "family 'alexnet': unknown key(s) ['p'] (allowed: none)")):
            sweep("alexnet", {"p": [0.5]}, PLATFORM)

    def test_cap(self):
        with pytest.raises(SweepError, match="cap"):
            sweep("squeezenet", {"p": [0.01 * i for i in range(1, 66)],
                                 "pool_count": list(range(1, 65))}, PLATFORM)

    def test_three_axis_product(self):
        grid = {"p": PAPER_P_VALUES, "pool_placement": ["early", "even", "late"],
                "pool_count": [2, 3]}
        points = sweep("squeezenet", grid, PLATFORM)
        assert len(points) == 30

    def test_deterministic(self):
        grid = {"p": [0.5, 1.0], "pool_placement": ["even", "late"]}
        assert sweep("squeezenet", grid, PLATFORM) == sweep("squeezenet", grid, PLATFORM)

    @pytest.mark.parametrize("batch, problem", [
        (0, "must be strictly positive"), (-1, "must be strictly positive"),
        (2.0, "must be an integer, got 2.0"), (True, "must be a number, got True"),
        ("2", "must be a number, got '2'"), (None, "must be a number, got None"),
    ], ids=["0", "-1", "2.0", "True", "2", "None"])
    def test_bad_batch_is_refused_before_any_cell_is_built(self, monkeypatch, batch, problem):
        def build_family(family, metaparams):
            raise AssertionError("a cell was built")
        monkeypatch.setattr(explore, "build_family", build_family)
        with pytest.raises(SweepError, match=re.escape(f"batch {problem}")):
            sweep("squeezenet", {"p": [0.5]}, PLATFORM, batch=batch)

    def test_batch_above_one_is_taken(self):
        [point] = sweep("squeezenet", {"p": [0.5]}, PLATFORM, batch=4)
        assert point.metrics == report(squeezenet(0.5), PLATFORM, batch=4)

    def test_invalid_cell_is_named_by_its_metaparameters(self):
        # seven early pools shrink the 1x1 map of the sixth to 0x0
        grid = {"p": [0.5], "pool_placement": ["early"], "pool_count": [7]}
        with pytest.raises(ShapeError) as exc:
            sweep("squeezenet", grid, PLATFORM)
        assert str(exc.value) == (
            "family 'squeezenet', metaparameters {'p': 0.5, 'pool_placement': 'early', "
            "'pool_count': 7}: invalid graph 'squeezenet(p=0.5)': pool7: pool output 0x0 "
            "is not positive (input 1x1x384, kernel 3, stride 2)")


class TestAttachAccuracy:
    def test_flat_paper_table(self):
        points = sweep("squeezenet", {"p": PAPER_P_VALUES}, PLATFORM)
        table = [{"p": p, "top5_error": 0.15} for p in PAPER_P_VALUES]
        joined, unmatched = attach_accuracy(points, table)
        assert unmatched == []
        assert all(p.top5_error == 0.15 for p in joined)

    def test_empty_table_changes_nothing(self):
        points = [point(1, None, p=0.5)]
        joined, unmatched = attach_accuracy(points, [])
        assert joined == points and unmatched == []

    def test_conflicting_duplicate_rows(self):
        with pytest.raises(SweepError, match="conflicting"):
            attach_accuracy([point(1, None, p=0.5)],
                            [{"p": 0.5, "top5_error": 0.1}, {"p": 0.5, "top5_error": 0.2}])

    def test_identical_duplicate_rows_are_fine(self):
        joined, _ = attach_accuracy([point(1, None, p=0.5)],
                                    [{"p": 0.5, "top5_error": 0.1},
                                     {"p": 0.5, "top5_error": 0.1}])
        assert joined[0].top5_error == 0.1

    def test_unmatched_rows_are_reported(self):
        joined, unmatched = attach_accuracy([point(1, None, p=0.5)],
                                            [{"p": 0.9, "top5_error": 0.3}])
        assert joined[0].top5_error is None
        assert unmatched == [{"p": 0.9, "top5_error": 0.3}]

    def test_symbolic_column_joins_as_text(self):
        points = sweep("squeezenet", {"pool_placement": ["even", "late"]}, PLATFORM)
        table = load_accuracy_table("pool_placement,top5_error\nlate,0.2\nearly,0.3\n",
                                    "a.csv")
        joined, unmatched = attach_accuracy(points, table)
        assert [p.top5_error for p in joined] == [None, 0.2]
        assert unmatched == [{"pool_placement": "early", "top5_error": 0.3}]

    def test_bool_key_is_text_not_the_number_one(self):
        joined, unmatched = attach_accuracy([point(1, None, p=1.0)],
                                            [{"p": True, "top5_error": 0.1}])
        assert joined[0].top5_error is None
        assert unmatched == [{"p": "True", "top5_error": 0.1}]

    def test_rows_with_different_columns_are_refused(self):
        with pytest.raises(SweepError, match="^a.csv rows disagree on metaparam columns$"):
            attach_accuracy([point(1, None, p=0.5, q=1.0)],
                            [{"p": 0.5, "top5_error": 0.1}, {"q": 1.0, "top5_error": 0.2}],
                            "a.csv")

    def test_unknown_column_is_an_error(self):
        with pytest.raises(SweepError, match="not.*metaparameters"):
            attach_accuracy([point(1, None, p=0.5)], [{"q": 1.0, "top5_error": 0.1}])

    def test_csv_loader(self):
        rows = load_accuracy_table("p,top5_error\n0.5,0.15\n1.0,0.15\n", "a.csv")
        assert rows == [{"p": 0.5, "top5_error": 0.15}, {"p": 1.0, "top5_error": 0.15}]
        with pytest.raises(SweepError, match=r"^accuracy table a.csv needs a header row "
                                             r"with a top5_error column$"):
            load_accuracy_table("p,err\n0.5,0.15\n", "a.csv")
        for cell, problem in (("15", r"must be in \[0, 1\], got 15.0"),
                              ("abc", "must be a number, got 'abc'")):
            with pytest.raises(SweepError, match=rf"^accuracy table a.csv line 2: top5_error "
                                                 rf"{problem}$"):
                load_accuracy_table(f"p,top5_error\n0.5,{cell}\n", "a.csv")
        # a NaN key matches no point; an infinite one is no metaparameter value
        for cell in ("nan", "inf", "-Infinity"):
            with pytest.raises(SweepError, match=f"^accuracy table a.csv line 3: column 'p' "
                                                 f"must be finite, got '{cell}'$"):
                load_accuracy_table(f"p,top5_error\n0.5,0.15\n{cell},0.2\n", "a.csv")

    def test_csv_loader_refuses_duplicate_columns_and_ragged_rows(self):
        with pytest.raises(SweepError, match=r"^accuracy table a.csv: column 'p' appears "
                                             r"twice in the header$"):
            load_accuracy_table("p,p,top5_error\n0.1,0.2,0.3\n", "a.csv")
        for row, cells in (("0.5,0.3", 2), ("0.5,0.3,0.2,0.1", 4)):
            with pytest.raises(SweepError, match=rf"^accuracy table a.csv line 3: ragged row "
                                                 rf"\({cells} cell\(s\), header has 3\)$"):
                load_accuracy_table(f"p,q,top5_error\n0.1,0.2,0.3\n{row}\n", "a.csv")


class TestFindSaturation:
    def test_flat_plateau_saturates_at_smallest(self):
        points = [point(n, 0.15, p=p) for n, p in zip((1, 2, 3, 4, 5), PAPER_P_VALUES)]
        found = find_saturation(points, epsilon=0.005)
        assert found is points[0]
        assert found.metaparams["p"] == 0.5

    def test_single_point(self):
        only = point(1, 0.3)
        assert find_saturation([only], 0.01) is only

    def test_still_improving_returns_none(self):
        points = [point(1, 0.30), point(2, 0.25), point(3, 0.20)]
        assert find_saturation(points, epsilon=0.01) is None

    def test_improving_to_the_last_point_returns_none(self):
        # a loop that checks every point but the last without saturating means
        # the last point beat its predecessor by more than epsilon
        assert find_saturation([point(1, 0.30), point(2, 0.20)], epsilon=0.005) is None
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            errors = np.round(rng.uniform(0.1, 0.3, n), 3).tolist()
            points = [point(i + 1, e) for i, e in enumerate(errors)]
            found = find_saturation(points, epsilon=0.005)
            improving = all(min(errors[i + 1:]) < errors[i] - 0.005 for i in range(n - 1))
            assert (found is None) == improving

    def test_improvement_within_epsilon_saturates(self):
        points = [point(1, 0.30), point(2, 0.298), point(3, 0.297)]
        assert find_saturation(points, epsilon=0.005) is points[0]

    def test_big_drop_then_plateau(self):
        points = [point(1, 0.30), point(2, 0.20), point(3, 0.20)]
        assert find_saturation(points, epsilon=0.005) is points[1]

    def test_invariant_under_appending_plateau_points(self):
        points = [point(1, 0.30), point(2, 0.20), point(3, 0.20)]
        base = find_saturation(points, epsilon=0.005)
        extended = points + [point(4, 0.202), point(5, 0.198)]
        assert find_saturation(extended, epsilon=0.005) is base

    def test_requires_errors_and_order(self):
        with pytest.raises(SweepError, match="top5_error"):
            find_saturation([point(1, None)], 0.01)
        with pytest.raises(SweepError, match="strictly increasing"):
            find_saturation([point(2, 0.1), point(1, 0.1)], 0.01)
        with pytest.raises(SweepError, match="at least one"):
            find_saturation([], 0.01)


class TestParetoFront:
    OBJ = [("total_params", "min"), ("top5_error", "min")]

    def test_three_point_example(self):
        pts = [point(1, 0.2), point(2, 0.1), point(3, 0.1)]
        front = pareto_front(pts, self.OBJ)
        assert front == [pts[0], pts[1]]

    def test_single_objective_keeps_exact_ties(self):
        pts = [point(3, 0.1), point(1, 0.5), point(1, 0.9), point(2, 0.2)]
        front = pareto_front(pts, [("total_params", "min")])
        assert front == [pts[1], pts[2]]

    def test_maximize_sense(self):
        pts = [point(1, 0.2, macs=10), point(2, 0.1, macs=20)]
        front = pareto_front(pts, [("total_params", "min"), ("total_macs", "max")])
        assert front == pts

    def test_matches_brute_force_on_random_cloud(self):
        rng = np.random.default_rng(13)
        pts = [point(int(rng.integers(1, 40)), float(rng.integers(1, 40)) / 100)
               for _ in range(50)]
        keys = [(p.metrics.total_params, p.top5_error) for p in pts]

        def dominated(i):
            return any(all(a <= b for a, b in zip(keys[j], keys[i]))
                       and any(a < b for a, b in zip(keys[j], keys[i]))
                       for j in range(len(pts)) if j != i)

        brute = [p for i, p in enumerate(pts) if not dominated(i)]
        front = pareto_front(pts, self.OBJ)
        assert sorted(map(id, front)) == sorted(map(id, brute))

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        pts = [point(int(rng.integers(1, 30)), float(rng.integers(1, 30)) / 100)
               for _ in range(40)]
        front = pareto_front(pts, self.OBJ)
        assert pareto_front(front, self.OBJ) == front

    def test_every_point_in_front_or_dominated_with_witness(self):
        rng = np.random.default_rng(23)
        pts = [point(int(rng.integers(1, 30)), float(rng.integers(1, 30)) / 100)
               for _ in range(40)]
        front = pareto_front(pts, self.OBJ)
        front_ids = set(map(id, front))
        for p in pts:
            if id(p) in front_ids:
                continue
            witness = dominating_witness(pts, p, self.OBJ)
            assert witness is not None
            assert (witness.metrics.total_params <= p.metrics.total_params
                    and witness.top5_error <= p.top5_error)

    @staticmethod
    def all_pairs_front(points, objectives, value_of):
        """The O(n^2) reference: every point tested against every other,
        the front sorted by the first objective, ties in input order."""
        keys = [tuple(value_of(p, m) if s == "min" else -value_of(p, m) for m, s in objectives)
                for p in points]

        def dominates(a, b):
            return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))

        front = [i for i in range(len(points))
                 if not any(dominates(keys[j], keys[i]) for j in range(len(points)) if j != i)]
        front.sort(key=lambda i: keys[i][0])
        return [points[i] for i in front]

    @pytest.mark.parametrize("objectives", [
        [("a", "min")],
        [("a", "max")],
        [("a", "min"), ("b", "min")],
        [("a", "max"), ("b", "min")],
        [("a", "min"), ("b", "max"), ("c", "min")],
        [("a", "max"), ("b", "max"), ("c", "max")],
    ], ids=lambda objectives: ",".join(f"{m}:{s}" for m, s in objectives))
    @pytest.mark.parametrize("seed", range(6))
    def test_order_matches_all_pairs_reference(self, objectives, seed):
        # few distinct values, so many exact duplicates and ties on every axis
        levels = [-np.inf, -2.5, 0, 1, 3, np.inf]
        rng = np.random.default_rng(seed)
        for n in (0, 1, 2, 7, 60, 200):
            cells = rng.integers(0, len(levels), size=(n, 3))
            pts = [{"id": i, **{m: levels[c] for m, c in zip("abc", row)}}
                   for i, row in enumerate(cells)]
            front = pareto_front(pts, objectives, lambda p, m: p[m])
            reference = self.all_pairs_front(pts, objectives, lambda p, m: p[m])
            assert [p["id"] for p in front] == [p["id"] for p in reference]

    @pytest.mark.parametrize("sense", ["min", "max"])
    def test_nan_objective_is_refused_naming_it(self, sense):
        pts = [point(1, 0.2), point(2, 0.1), point(3, float("nan"))]
        with pytest.raises(SweepError, match="objective 'top5_error' has value nan"):
            pareto_front(pts, [("total_params", "min"), ("top5_error", sense)])

    def test_infinite_objective_is_ordered(self):
        pts = [point(1, 0.2), point(2, float("inf")), point(3, 0.1), point(4, float("-inf"))]
        assert pareto_front(pts, self.OBJ) == [pts[0], pts[2], pts[3]]
        assert pareto_front(pts, [("top5_error", "max")]) == [pts[1]]

    def test_missing_metric(self):
        with pytest.raises(SweepError):
            pareto_front([point(1, None)], self.OBJ)
        with pytest.raises(SweepError, match="at least one objective"):
            pareto_front([point(1, 0.1)], [])


class TestCheckConstraints:
    def test_squeezenet_misses_8mb_sram(self):
        points = sweep("squeezenet", {"p": [0.5]}, PLATFORM)
        result = check_constraints(points[0], ConstraintSet(max_onchip_bytes=8192 * 1024))
        assert not result.passed
        sram = result.checks[0]
        assert sram.name == "onchip_bytes" and not sram.passed
        assert sram.measured == (points[0].metrics.storage_bytes
                                 + points[0].metrics.peak_activation_bytes)

    def test_huge_budgets_pass(self):
        swept = sweep("squeezenet", {"p": [0.5]}, PLATFORM)[0]
        generous = ConstraintSet(max_onchip_bytes=1 << 60, max_top5_error=0.999999,
                                 min_fps_required=1e-30, min_fps_desired=1e-30,
                                 max_energy_per_frame=1e30)
        with_error = DesignPoint(swept.metaparams, swept.metrics, 0.2)
        assert check_constraints(with_error, generous).passed

    def test_energy_just_under_budget(self):
        p = point(1, 0.1)
        m = p.metrics
        near = DesignPoint(p.metaparams,
                           MetricsReport(m.name, m.total_params, m.storage_bytes,
                                         m.total_macs, m.peak_activation_bytes,
                                         energy_per_frame=1.9, fps_proxy=m.fps_proxy,
                                         ota_bytes=m.ota_bytes),
                           p.top5_error)
        result = check_constraints(near, ConstraintSet(max_energy_per_frame=2.0))
        assert result.passed and result.checks[0].passed

    def test_desired_fps_is_advisory(self):
        p = point(1, 0.1)  # fps_proxy = 1.0
        result = check_constraints(p, ConstraintSet(min_fps_required=0.5,
                                                    min_fps_desired=30.0))
        assert result.passed
        desired = next(c for c in result.checks if c.name == "fps_desired")
        assert not desired.passed and not desired.hard

    def test_error_budget_needs_recorded_error(self):
        with pytest.raises(SweepError, match="recorded"):
            check_constraints(point(1, None), ConstraintSet(max_top5_error=0.2))
