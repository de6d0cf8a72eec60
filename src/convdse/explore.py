"""Grid sweeps, recorded-accuracy joins, saturation detection, Pareto
frontiers, and budget checks over design points.

A design point is one metaparameter assignment for a model family together
with its cost metrics. Accuracy is only ever joined from externally
recorded tables; nothing here predicts it.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
from dataclasses import dataclass, fields, replace
from typing import Callable, ClassVar, Optional, Sequence

from .costs import MetricsReport, NumericConfig, PlatformSpec, report
from .graph import ArchGraph, GraphError
from .settings import BATCH, Field, check_record
from .zoo import POOL_STRATEGIES, PoolPlacement, alexnet, mobilenet_like, squeezenet, vgg19


class SweepError(ValueError):
    """Bad family, metaparameter, grid, or accuracy table."""


_REPORT_METRICS = frozenset(f.name for f in fields(MetricsReport) if f.metadata)


@dataclass(frozen=True)
class DesignPoint:
    metaparams: dict[str, object]
    metrics: MetricsReport
    top5_error: Optional[float] = None

    def value_of(self, metric: str) -> float:
        """Look a metric up by name: computed report metrics first, then the
        recorded error, then metaparameters."""
        if metric in _REPORT_METRICS:
            return getattr(self.metrics, metric)
        if metric == "top5_error":
            if self.top5_error is None:
                raise SweepError("point has no recorded top5_error")
            return self.top5_error
        if metric in self.metaparams:
            return self.metaparams[metric]  # type: ignore[return-value]
        raise SweepError(f"unknown metric {metric!r}")


@dataclass(frozen=True)
class ConstraintSet(NumericConfig):
    """Deployment budgets; None leaves a constraint unset. The desired
    frame rate is advisory and never fails a point."""

    label: ClassVar[str] = "constraint config"
    max_onchip_bytes: Optional[int] = None
    max_top5_error: Optional[float] = None
    min_fps_required: Optional[float] = None
    min_fps_desired: Optional[float] = None
    max_energy_per_frame: Optional[float] = None


TOP5_ERROR = Field("top5_error", float, None, "[0, 1]",
                   "recorded top-5 error for the accuracy budget")
EPSILON = Field("epsilon", float, 0.005, "[0, inf)", "error improvement threshold for saturation")


@dataclass(frozen=True)
class Family:
    """A generator, which checks the ranges, and its metaparameters' fields;
    ``build`` gets every metaparameter, defaults filled in, by keyword."""

    build: Callable[..., ArchGraph]
    params: tuple[Field, ...] = ()


def _squeezenet(p: float, pool_placement: Optional[str], pool_count: Optional[int]) -> ArchGraph:
    # canonical pools unless one is given; PoolPlacement defaults the other
    pooling = {"strategy": pool_placement, "pool_count": pool_count}
    pooling = {k: v for k, v in pooling.items() if v is not None}
    return squeezenet(p, PoolPlacement(**pooling) if pooling else None)


FAMILIES: dict[str, Family] = {
    "alexnet": Family(alexnet),
    "vgg19": Family(vgg19),
    "squeezenet": Family(_squeezenet, (
        Field("p", float, 0.5, help="3x3 expand fraction"),
        Field("pool_placement", POOL_STRATEGIES,
              help="pool placement; canonical pools unless this or pool_count is set"),
        Field("pool_count", int,
              help="number of pools; canonical pools unless this or pool_placement is set"),
    )),
    "mobilenet": Family(lambda width_mult: mobilenet_like(width_mult), (
        Field("width_mult", float, 1.0, help="width multiplier"),
    )),
}


def build_family(family: str, metaparams: dict) -> ArchGraph:
    """The one place a family's metaparameters are checked, names and values
    by ``check_record``, ranges by the generator: a SweepError names family
    and metaparameter."""
    if family not in FAMILIES:
        raise SweepError(f"unknown family {family!r} (known: {sorted(FAMILIES)})")
    checked = check_record(metaparams, FAMILIES[family].params, f"family {family!r}", SweepError)
    try:
        return FAMILIES[family].build(**checked)
    except ValueError as exc:
        raise SweepError(f"family {family!r}, metaparameters {metaparams}: {exc}") from exc


#: the most grid cells one sweep evaluates
_MAX_POINTS = 4096


def sweep(family: str, grid: dict[str, list], platform: PlatformSpec,
          batch: int = BATCH.default) -> list[DesignPoint]:
    """One design point per grid cell, in lexicographic order over the grid
    axes as given. Deterministic: same grid and platform, same points. A
    grid that does not map axis names to lists is refused. A cell whose
    graph is invalid raises the GraphError (or ShapeError) of ``report``,
    prefixed with the family and the cell's metaparameters.

    The cells share one pricing memo, made here and dropped on return: a
    layer whose shared spec instance an earlier cell priced on the same
    input shape is not priced again (``costs._price``). The points are the
    ones each cell's own ``report`` gives."""
    if not isinstance(grid, dict) or not all(isinstance(v, list) for v in grid.values()):
        raise SweepError("grid must map axis names to value lists")
    axes = list(grid.keys())
    for axis in axes:
        if not grid[axis]:
            raise SweepError(f"grid axis {axis!r} has no values")
    total = math.prod(len(grid[a]) for a in axes)
    if total > _MAX_POINTS:
        raise SweepError(f"grid has {total} cells, exceeding the cap of {_MAX_POINTS}")
    BATCH.check(batch, SweepError)
    points = []
    memo: dict = {}
    for combo in itertools.product(*(grid[a] for a in axes)):
        metaparams = dict(zip(axes, combo))
        graph = build_family(family, metaparams)
        try:
            metrics = report(graph, platform, batch, memo=memo)
        except GraphError as exc:  # the graph's name does not tell the cells apart
            raise type(exc)(f"family {family!r}, metaparameters {metaparams}: {exc}") from exc
        points.append(DesignPoint(metaparams, metrics))
    return points


def _norm(value) -> object:
    """Canonical join key: numbers as float, everything else as string."""
    if isinstance(value, bool):
        return str(value)
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


def read_csv(text: str, what: str) -> tuple[list[str], list[tuple[int, dict[str, str]]]]:
    """The header (empty for empty text) and the (line number, row) pairs
    of CSV ``text``. A header that names a column twice, and a row with more
    or fewer cells than the header, and a cell longer than the csv module's
    field size limit, are refused naming ``what``. Blank lines are skipped."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        lines = [(reader.line_num, cells) for cells in reader]
    except csv.Error as exc:
        raise SweepError(f"{what} line {reader.line_num}: {exc}") from None
    header = lines[0][1] if lines else []
    for i, name in enumerate(header):
        if name in header[:i]:
            raise SweepError(f"{what}: column {name!r} appears twice in the header")
    for line, cells in lines[1:]:
        if cells and len(cells) != len(header):
            raise SweepError(f"{what} line {line}: ragged row "
                             f"({len(cells)} cell(s), header has {len(header)})")
    return header, [(line, dict(zip(header, cells))) for line, cells in lines[1:] if cells]


def load_accuracy_table(text: str, source) -> list[dict[str, object]]:
    """Parse a CSV whose header names metaparams plus ``top5_error``.
    Metaparam cells may be symbolic or finite numbers (a NaN key would
    match no point); the error must be a fraction in [0, 1]. A refusal
    names the table as ``accuracy table <source>``."""
    what = f"accuracy table {source}"
    header, raw_rows = read_csv(text, what)
    if "top5_error" not in header:
        raise SweepError(f"{what} needs a header row with a top5_error column")
    rows = []
    for lineno, raw in raw_rows:
        row: dict[str, object] = {}
        for key, value in raw.items():
            cell = row[key] = _norm(value)
            if key != "top5_error" and isinstance(cell, float) and not math.isfinite(cell):
                raise SweepError(f"{what} line {lineno}: column {key!r} "
                                 f"must be finite, got {value!r}")
        TOP5_ERROR.check(row["top5_error"], SweepError, f"{what} line {lineno}: top5_error")
        rows.append(row)
    return rows


def attach_accuracy(points: Sequence[DesignPoint], table: Sequence[dict[str, object]],
                    what: str = "accuracy table") -> tuple[list[DesignPoint], list[dict]]:
    """Join recorded accuracy onto matching points. Returns the new points
    plus any table rows that matched nothing. Conflicting duplicate rows
    are an error; identical duplicates are tolerated. A refusal names the
    table as ``what``."""
    keys = tuple(sorted(table[0].keys() - {"top5_error"})) if table else ()
    seen: dict[tuple, float] = {}
    for row in table:
        if tuple(sorted(row.keys() - {"top5_error"})) != keys:
            raise SweepError(f"{what} rows disagree on metaparam columns")
        key = tuple(_norm(row[k]) for k in keys)
        if key in seen and seen[key] != row["top5_error"]:
            raise SweepError(f"{what} has conflicting rows for {dict(zip(keys, key))}")
        seen[key] = row["top5_error"]  # type: ignore[assignment]

    out = []
    matched_rows: set[tuple] = set()
    for point in points:
        missing = [k for k in keys if k not in point.metaparams]
        if missing:
            raise SweepError(f"{what} column(s) {missing} are not "
                             f"metaparameters of the swept points")
        key = tuple(_norm(point.metaparams[k]) for k in keys)
        if key in seen:
            matched_rows.add(key)
            point = replace(point, top5_error=seen[key])
        out.append(point)
    unmatched = [dict(zip(keys, key)) | {"top5_error": err}
                 for key, err in seen.items() if key not in matched_rows]
    return out, unmatched


def find_saturation(points: Sequence[DesignPoint], epsilon: float = EPSILON.default,
                    axis: str = "total_params") -> Optional[DesignPoint]:
    """Smallest point (along ``axis``) that no larger point improves on by
    more than ``epsilon`` top-5 error. Returns None when the sequence is
    still improving at its largest point.

    Plateau noise up to epsilon cannot defeat detection because each point
    is compared against the best error over all larger points, not just
    its neighbor.
    """
    if not points:
        raise SweepError("find_saturation needs at least one point")
    errors = [point.top5_error for point in points]
    if None in errors:
        raise SweepError("every point needs a recorded top5_error")
    sizes = [point.value_of(axis) for point in points]
    for a, b in zip(sizes, sizes[1:]):
        if not b > a:
            raise SweepError(f"points must be strictly increasing along {axis!r}")
    # scan down from the largest point; the last point marked is the smallest
    found = points[0] if len(points) == 1 else None
    best_later = errors[-1]
    for i in range(len(points) - 2, -1, -1):
        if best_later >= errors[i] - epsilon:
            found = points[i]
        best_later = min(best_later, errors[i])
    return found


def pareto_front(points: Sequence, objectives: Sequence[tuple[str, str]],
                 value_of: Callable[[object, str], float] = DesignPoint.value_of) -> list:
    """Exactly the non-dominated points, sorted by the first objective
    (ties kept in input order). ``value_of(point, metric)`` reads a metric;
    a NaN value is a SweepError, an infinite one is ordered as usual. A
    metric named in two objectives is a SweepError.

    The points are visited in lexicographic order of their objective
    vectors, so every dominator comes before what it dominates; as
    domination is transitive, a point is tested only against the front
    kept so far: O(n log n + n * |front|) comparisons."""
    if not objectives:
        raise SweepError("pareto_front needs at least one objective")
    named = set()
    for metric, sense in objectives:
        if sense not in ("min", "max"):
            raise SweepError(f"objective sense must be 'min' or 'max', got {sense!r}")
        if metric in named:
            raise SweepError(f"objective {metric!r} given twice")
        named.add(metric)

    # flip maximized metrics so domination reads uniformly as <=
    keys: list[tuple] = []
    for p in points:
        key = tuple(value_of(p, m) if s == "min" else -value_of(p, m) for m, s in objectives)
        for (metric, _), value in zip(objectives, key):
            if value != value:  # NaN, the one value unequal to itself, has no order
                raise SweepError(f"objective {metric!r} has value {value!r}, which has no order")
        keys.append(key)

    front: list[int] = []
    for i in sorted(range(len(keys)), key=keys.__getitem__):
        key = keys[i]
        # j dominates i when it is nowhere worse and not equal
        if not any(keys[j] != key and all(map(operator.le, keys[j], key)) for j in front):
            front.append(i)
    front.sort(key=lambda i: (keys[i][0], i))
    return [points[i] for i in front]


@dataclass(frozen=True)
class ConstraintCheck:
    name: str
    limit: float
    measured: float
    passed: bool
    hard: bool


@dataclass(frozen=True)
class ConstraintReport:
    checks: tuple[ConstraintCheck, ...]
    passed: bool  # over hard constraints only


def check_constraints(point: DesignPoint, constraints: ConstraintSet) -> ConstraintReport:
    """Evaluate every set budget. The on-chip check covers weights plus the
    peak activation footprint; the desired frame rate is advisory only."""
    m = point.metrics
    if constraints.max_top5_error is not None and point.top5_error is None:
        raise SweepError("error budget set but the point has no recorded top5_error")
    # (name, limit, measured, limit is an upper bound, hard)
    budgets = (
        ("onchip_bytes", constraints.max_onchip_bytes,
         m.storage_bytes + m.peak_activation_bytes, True, True),
        ("top5_error", constraints.max_top5_error, point.top5_error, True, True),
        ("fps_required", constraints.min_fps_required, m.fps_proxy, False, True),
        ("fps_desired", constraints.min_fps_desired, m.fps_proxy, False, False),
        ("energy_per_frame", constraints.max_energy_per_frame, m.energy_per_frame, True, True),
    )
    checks = tuple(ConstraintCheck(name, limit, measured,
                                   measured <= limit if upper else measured >= limit, hard)
                   for name, limit, measured, upper, hard in budgets if limit is not None)
    return ConstraintReport(checks, all(c.passed for c in checks if c.hard))
