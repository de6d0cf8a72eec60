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
from dataclasses import dataclass, fields, replace
from typing import Callable, ClassVar, Optional, Sequence

from .costs import MetricsReport, NumericConfig, PlatformSpec, report
from .graph import ArchGraph
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


@dataclass(frozen=True)
class Metaparam:
    """One metaparameter of a family. ``kind`` is float, int, or a tuple of
    the allowed choices; a float also takes an int, and a bool is never a
    number. Ranges are the generator's to check."""

    name: str
    kind: type | tuple[str, ...]
    default: object
    help: str

    def accepts(self, value) -> bool:
        if isinstance(self.kind, tuple):
            return value in self.kind
        numbers = (int, float) if self.kind is float else (int,)
        return isinstance(value, numbers) and not isinstance(value, bool)


@dataclass(frozen=True)
class Family:
    """A generator and the schema of its metaparameters; ``build`` gets
    every metaparameter, defaults filled in, as a keyword argument."""

    build: Callable[..., ArchGraph]
    params: tuple[Metaparam, ...] = ()


def _squeezenet(p: float, pool_placement: Optional[str], pool_count: Optional[int]) -> ArchGraph:
    # canonical pools unless one is given; PoolPlacement defaults the other
    pooling = {"strategy": pool_placement, "pool_count": pool_count}
    pooling = {k: v for k, v in pooling.items() if v is not None}
    return squeezenet(p, PoolPlacement(**pooling) if pooling else None)


FAMILIES: dict[str, Family] = {
    "alexnet": Family(alexnet),
    "vgg19": Family(vgg19),
    "squeezenet": Family(_squeezenet, (
        Metaparam("p", float, 0.5, "3x3 expand fraction"),
        Metaparam("pool_placement", POOL_STRATEGIES, None,
                  "pool placement; canonical pools unless this or pool_count is set"),
        Metaparam("pool_count", int, None,
                  "number of pools; canonical pools unless this or pool_placement is set"),
    )),
    "mobilenet": Family(lambda width_mult: mobilenet_like(width_mult), (
        Metaparam("width_mult", float, 1.0, "width multiplier"),
    )),
}


def build_family(family: str, metaparams: dict) -> ArchGraph:
    """The one place a family's metaparameters are checked: names and kinds
    against its schema here, ranges by the generator. Any of these errors
    is a SweepError naming the family and the metaparameter."""
    if family not in FAMILIES:
        raise SweepError(f"unknown family {family!r} (known: {sorted(FAMILIES)})")
    schema = FAMILIES[family].params
    allowed = sorted(m.name for m in schema)
    unknown = set(metaparams) - set(allowed)
    if unknown:
        raise SweepError(f"family {family!r} does not take metaparameter(s) "
                         f"{sorted(unknown)} (allowed: {allowed or 'none'})")
    kwargs = {}
    for m in schema:
        value = metaparams.get(m.name, m.default)
        if m.name in metaparams and not m.accepts(value):
            kind = f"one of {list(m.kind)}" if isinstance(m.kind, tuple) else m.kind.__name__
            raise SweepError(f"family {family!r}: metaparameter {m.name!r} must be {kind}, "
                             f"got {value!r}")
        kwargs[m.name] = value
    try:
        return FAMILIES[family].build(**kwargs)
    except ValueError as exc:
        raise SweepError(f"family {family!r}, metaparameters {metaparams}: {exc}") from exc


#: the most grid cells one sweep evaluates
_MAX_POINTS = 4096


def sweep(family: str, grid: dict[str, Sequence], platform: PlatformSpec,
          batch: int = 1) -> list[DesignPoint]:
    """One design point per grid cell, in lexicographic order over the grid
    axes as given. Deterministic: same grid and platform, same points."""
    axes = list(grid.keys())
    for axis in axes:
        if not grid[axis]:
            raise SweepError(f"grid axis {axis!r} has no values")
    total = math.prod(len(grid[a]) for a in axes) if axes else 1
    if total > _MAX_POINTS:
        raise SweepError(f"grid has {total} cells, exceeding the cap of {_MAX_POINTS}")
    points = []
    for combo in itertools.product(*(grid[a] for a in axes)):
        metaparams = dict(zip(axes, combo))
        graph = build_family(family, metaparams)
        points.append(DesignPoint(metaparams, report(graph, platform, batch)))
    return points


def _norm(value) -> object:
    """Canonical join key: numbers as float, everything else as string."""
    if isinstance(value, bool):
        return str(value)
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


def load_accuracy_table(text: str) -> list[dict[str, object]]:
    """Parse a CSV whose header names metaparams plus ``top5_error``.
    Metaparam cells may be numeric or symbolic; the error must be a
    fraction in [0, 1]."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or "top5_error" not in reader.fieldnames:
        raise SweepError("accuracy table needs a header row with a top5_error column")
    rows = []
    for lineno, raw in enumerate(reader, start=2):
        row: dict[str, object] = {}
        for key, value in raw.items():
            if key is None or value is None:
                raise SweepError(f"accuracy table line {lineno}: ragged row")
            row[key] = _norm(value)
        err = row["top5_error"]
        if not isinstance(err, float) or not 0.0 <= err <= 1.0:
            raise SweepError(f"accuracy table line {lineno}: top5_error must be in [0, 1]")
        rows.append(row)
    return rows


def attach_accuracy(points: Sequence[DesignPoint],
                    table: Sequence[dict[str, object]]) -> tuple[list[DesignPoint], list[dict]]:
    """Join recorded accuracy onto matching points. Returns the new points
    plus any table rows that matched nothing. Conflicting duplicate rows
    are an error; identical duplicates are tolerated."""
    keys = tuple(sorted(table[0].keys() - {"top5_error"})) if table else ()
    seen: dict[tuple, float] = {}
    for row in table:
        if tuple(sorted(row.keys() - {"top5_error"})) != keys:
            raise SweepError("accuracy table rows disagree on metaparam columns")
        key = tuple(_norm(row[k]) for k in keys)
        if key in seen and seen[key] != row["top5_error"]:
            raise SweepError(f"accuracy table has conflicting rows for {dict(zip(keys, key))}")
        seen[key] = row["top5_error"]  # type: ignore[assignment]

    out = []
    matched_rows: set[tuple] = set()
    for point in points:
        missing = [k for k in keys if k not in point.metaparams]
        if missing:
            raise SweepError(f"accuracy table column(s) {missing} are not "
                             f"metaparameters of the swept points")
        key = tuple(_norm(point.metaparams[k]) for k in keys)
        if key in seen:
            matched_rows.add(key)
            point = replace(point, top5_error=seen[key])
        out.append(point)
    unmatched = [dict(zip(keys, key)) | {"top5_error": err}
                 for key, err in seen.items() if key not in matched_rows]
    return out, unmatched


def find_saturation(points: Sequence[DesignPoint], epsilon: float = 0.005,
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
    (ties kept in input order). ``value_of(point, metric)`` reads a metric."""
    if not objectives:
        raise SweepError("pareto_front needs at least one objective")
    for metric, sense in objectives:
        if sense not in ("min", "max"):
            raise SweepError(f"objective sense must be 'min' or 'max', got {sense!r}")

    # flip maximized metrics so domination reads uniformly as <=
    keys = [tuple(value_of(p, m) if s == "min" else -value_of(p, m) for m, s in objectives)
            for p in points]

    def dominates(a: tuple, b: tuple) -> bool:
        return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))

    front = [i for i in range(len(points))
             if not any(dominates(keys[j], keys[i]) for j in range(len(points)) if j != i)]
    front.sort(key=lambda i: keys[i][0])
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
