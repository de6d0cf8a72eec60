"""Command-line interface.

Exit codes: 0 success, 1 constraint or graph-validation failure, 2 usage
error, 3 I/O or format error. Machine output is JSON with a fixed key
order: each record's dataclass fields in declaration order. The human
tables read the same records.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from dataclasses import asdict, fields
from typing import Optional, Sequence

from . import compress as compress_mod
from . import descriptor, explore, weights
from .costs import DEFAULT_PLATFORM, MetricsReport, PlatformSpec, report
from .descriptor import DescriptorError
from .explore import ConstraintSet, DesignPoint, SweepError
from .graph import ArchGraph, GraphError
from .weights import WeightFormatError


def human_bytes(n: int) -> str:
    """Binary multiples with the conventional short suffixes."""
    value = float(n)
    for unit in ("B", "KB", "MB", "GB"):
        if value < 1024 or unit == "GB":
            return f"{value:.2f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024


def human_count(n: int) -> str:
    if n >= 1_000_000_000:
        return f"{n / 1e9:.2f}G"
    if n >= 1_000_000:
        return f"{n / 1e6:.2f}M"
    if n >= 1_000:
        return f"{n / 1e3:.2f}k"
    return str(n)


def _print_table(rows: list[tuple[str, str]], stream=None) -> None:
    stream = stream or sys.stdout
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        print(f"{key.ljust(width)}  {value}", file=stream)


def _load_platform(path: Optional[str]) -> PlatformSpec:
    return PlatformSpec.load(path) if path else DEFAULT_PLATFORM


def _graph_from_args(args) -> tuple[ArchGraph, dict]:
    if args.arch:
        return descriptor.load(args.arch), {}
    if args.family:
        params = {m.name: getattr(args, m.name) for family in explore.FAMILIES.values()
                  for m in family.params if getattr(args, m.name) is not None}
        return explore.build_family(args.family, params), params
    raise SweepError("one of --arch or --family is required")


def _format_metric(value, unit: str) -> str:
    if unit == "J":
        return f"{value:.6e} J"
    if unit == "FPS (proxy)":
        return "inf" if math.isinf(value) else f"{value:.2f} {unit}"
    human = human_bytes(value) if unit == "B" else human_count(value)
    return f"{value:,} {unit} ({human})"


def _report_rows(m: MetricsReport) -> list[tuple[str, str]]:
    return [("architecture", m.name)] + [
        (f.metadata["label"], _format_metric(getattr(m, f.name), f.metadata["unit"]))
        for f in fields(m) if f.metadata]


def cmd_describe(args) -> int:
    graph, _ = _graph_from_args(args)
    platform = _load_platform(args.platform)
    m = report(graph, platform, batch=args.batch)
    if args.json:
        print(json.dumps(m.to_dict(), indent=2))
    else:
        _print_table(_report_rows(m))
    return 0


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return repr(value)
    return str(value)


def _sweep_csv(axes: list[str], points: list[DesignPoint],
               marks: list[tuple[bool, bool]]) -> str:
    metrics = [f.name for f in fields(MetricsReport) if f.metadata]
    # a saturation column only when some point is the saturation point
    saturated = any(is_saturation for _, is_saturation in marks)
    header = list(axes) + metrics + ["top5_error", "pareto"]
    if saturated:
        header.append("saturation")
    lines = [",".join(header)]
    for point, (on_front, is_saturation) in zip(points, marks):
        cells = [_format_cell(point.metaparams.get(a)) for a in axes]
        cells += [_format_cell(getattr(point.metrics, m)) for m in metrics]
        cells.append(_format_cell(point.top5_error))
        cells.append("1" if on_front else "0")
        if saturated:
            cells.append("1" if is_saturation else "0")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_sweep(args) -> int:
    if not 0.0 <= args.epsilon < math.inf:
        raise SweepError(f"--epsilon must be finite and non-negative, got {args.epsilon}")
    platform = _load_platform(args.platform)
    with open(args.grid, "r", encoding="utf-8") as fh:
        grid = json.load(fh)
    if not isinstance(grid, dict) or not all(isinstance(v, list) for v in grid.values()):
        raise SweepError("grid file must map axis names to value lists")
    points = explore.sweep(args.family, grid, platform, batch=args.batch)

    unmatched: list[dict] = []
    if args.accuracy:
        with open(args.accuracy, "r", encoding="utf-8") as fh:
            table = explore.load_accuracy_table(fh.read())
        points, unmatched = explore.attach_accuracy(points, table)
        for row in unmatched:
            print(f"warning: accuracy row matched no design point: {row}", file=sys.stderr)

    have_error = all(p.top5_error is not None for p in points)
    objectives = ([("total_params", "min"), ("top5_error", "min")] if have_error
                  else [("total_params", "min"), ("total_macs", "min")])
    saturation_point = None
    if args.saturation_axis:
        if not have_error:
            raise SweepError("--saturation-axis needs an accuracy table covering every point")
        ordered = sorted(points, key=lambda p: p.value_of(args.saturation_axis))
        saturation_point = explore.find_saturation(ordered, args.epsilon,
                                                   args.saturation_axis)
    front_ids = {id(p) for p in explore.pareto_front(points, objectives)}
    marks = [(id(p) in front_ids, p is saturation_point) for p in points]

    doc = {
        "family": args.family,
        "grid": grid,
        "objectives": [list(o) for o in objectives],
        "points": [
            {
                "metaparams": p.metaparams,
                "metrics": p.metrics.to_dict(),
                "top5_error": p.top5_error,
                "pareto": on_front,
                "saturation": is_saturation,
            }
            for p, (on_front, is_saturation) in zip(points, marks)
        ],
        "unmatched_accuracy_rows": unmatched,
        "saturation": None if saturation_point is None else {
            "axis": args.saturation_axis,
            "epsilon": args.epsilon,
            "metaparams": saturation_point.metaparams,
        },
    }
    csv_path = f"{args.out}.csv"
    json_path = f"{args.out}.json"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(_sweep_csv(list(grid), points, marks))
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"{len(points)} design points -> {csv_path}, {json_path}")
    print(f"pareto front: {sum(on_front for on_front, _ in marks)} point(s)")
    if args.saturation_axis:
        if saturation_point is None:
            print("saturation: none (still improving at the largest point)")
        else:
            print(f"saturation: {saturation_point.metaparams}")
    return 0


def _row_value(row: dict[str, str], metric: str) -> float:
    """Metric getter letting pareto_front run over raw CSV rows."""
    value = row.get(metric)
    if value in (None, ""):
        raise SweepError(f"points file is missing metric {metric!r}")
    try:
        return float(value)
    except ValueError as exc:
        raise SweepError(f"metric {metric!r} has non-numeric value {value!r}") from exc


def _parse_objectives(spec: str) -> list[tuple[str, str]]:
    objectives = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, sense = item.partition(":")
        objectives.append((name.strip(), (sense or "min").strip()))
    if not objectives:
        raise SweepError("no objectives given")
    return objectives


def cmd_pareto(args) -> int:
    objectives = _parse_objectives(args.objectives)
    with open(args.points, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SweepError("points file has no header row")
        fieldnames = list(reader.fieldnames)
        rows = list(reader)
    front = explore.pareto_front(rows, objectives, _row_value)
    with (open(args.out, "w", encoding="utf-8", newline="") if args.out
          else contextlib.nullcontext(sys.stdout)) as out:
        writer = csv.DictWriter(out, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(front)
    if args.out:
        print(f"{len(front)} of {len(rows)} points -> {args.out}")
    return 0


def cmd_check(args) -> int:
    # the range explore.load_accuracy_table takes for a recorded error
    if args.top5_error is not None and not 0.0 <= args.top5_error <= 1.0:
        raise SweepError(f"--top5-error must be in [0, 1], got {args.top5_error}")
    graph, metaparams = _graph_from_args(args)
    platform = _load_platform(args.platform)
    constraints = ConstraintSet.load(args.constraints)
    point = DesignPoint(metaparams, report(graph, platform, batch=args.batch),
                        top5_error=args.top5_error)
    result = explore.check_constraints(point, constraints)
    for check in result.checks:
        if check.hard:
            status = "PASS" if check.passed else "FAIL"
        else:
            status = "ok (advisory)" if check.passed else "MISSED (advisory)"
        print(f"{status:>16}  {check.name}: measured {check.measured:g} "
              f"vs limit {check.limit:g}")
    print(f"result: {'PASS' if result.passed else 'FAIL'}")
    return 0 if result.passed else 1


def cmd_compress(args) -> int:
    tensors = weights.load_sdnw(args.weights)
    model = compress_mod.compress_model(tensors, args.sparsity, args.bits,
                                        rel_index_bits=args.gap_bits)
    container = compress_mod.write_sdnc(model)
    with open(args.out, "wb") as fh:
        fh.write(container)
    dense = sum(4 * t.size for t in tensors)
    rep = compress_mod.compression_report(dense, model, container)
    if args.json:
        doc = {
            "dense_bytes": rep.dense_bytes,
            "compressed_bytes": rep.compressed_bytes,
            "ratio": rep.ratio,
            "tensors": [asdict(r) | {"ratio": r.ratio} for r in rep.rows],
        }
        print(json.dumps(doc, indent=2))
    else:
        name_w = max([len(r.name) for r in rep.rows] + [6])
        print(f"{'tensor'.ljust(name_w)}  {'dense':>12}  {'coded':>12}  {'nnz':>10}  ratio")
        for r in rep.rows:
            ratio = "n/a" if r.ratio is None else f"{r.ratio:.2f}x"
            print(f"{r.name.ljust(name_w)}  {r.dense_bytes:>12,}  "
                  f"{r.compressed_bytes:>12,}  {r.nonzeros:>10,}  {ratio}")
        total_ratio = "n/a" if rep.ratio is None else f"{rep.ratio:.2f}x"
        print(f"{'TOTAL'.ljust(name_w)}  {rep.dense_bytes:>12,}  "
              f"{rep.compressed_bytes:>12,}  {'':>10}  {total_ratio}")
    return 0


def cmd_decompress(args) -> int:
    model = compress_mod.load_sdnc(getattr(args, "in"))
    tensors = compress_mod.decode_model(model)
    weights.save_sdnw(tensors, args.out)
    print(f"{len(tensors)} tensor(s) -> {args.out}")
    return 0


def cmd_verify(args) -> int:
    # the oracle suite is imported only here, so no other command compiles it
    from . import properties

    results = properties.run_all_checks()
    failed = [r for r in results if not r.passed]
    if args.json:
        print(json.dumps({"checks": [asdict(r) for r in results], "passed": not failed},
                         indent=2))
    else:
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
        print(f"result: {len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 1


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--arch", help="architecture descriptor (JSON)")
    parser.add_argument("--family", choices=sorted(explore.FAMILIES),
                        help="generate a reference family instead of reading --arch")
    for name, family in explore.FAMILIES.items():
        for m in family.params:
            kind = {"choices": m.kind} if isinstance(m.kind, tuple) else {"type": m.kind}
            default = "" if m.default is None else f", default {m.default}"
            parser.add_argument(f"--{m.name.replace('_', '-')}", **kind,
                                help=f"{m.help} ({name}{default})")
    parser.add_argument("--platform", help="platform config (JSON)")
    parser.add_argument("--batch", type=int, default=1,
                        help="batch size for weight-fetch amortization (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convdse",
        description="Cost modeling, design-space exploration, and weight "
                    "compression for small convolutional networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="print the metric vector of one architecture")
    _add_graph_source(p)
    p.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("sweep", help="evaluate a metaparameter grid")
    p.add_argument("--family", required=True, choices=sorted(explore.FAMILIES))
    p.add_argument("--grid", required=True, help="JSON file mapping axis -> value list")
    p.add_argument("--platform", help="platform config (JSON)")
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--accuracy", help="CSV of recorded accuracy keyed by metaparams")
    p.add_argument("--saturation-axis",
                   help="metric to order points by when detecting saturation")
    p.add_argument("--epsilon", type=float, default=0.005,
                   help="error improvement threshold for saturation (default 0.005)")
    p.add_argument("--out", required=True, help="output prefix for .csv and .json")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("pareto", help="filter a points CSV down to its Pareto front")
    p.add_argument("--points", required=True, help="CSV with a header row")
    p.add_argument("--objectives", required=True,
                   help="comma list of metric:min|max, e.g. total_params:min,top5_error:min")
    p.add_argument("--out", help="output CSV (default stdout)")
    p.set_defaults(func=cmd_pareto)

    p = sub.add_parser("check", help="check one design point against budgets")
    _add_graph_source(p)
    p.add_argument("--constraints", required=True, help="constraint set (JSON)")
    p.add_argument("--top5-error", type=float,
                   help="recorded top-5 error for the accuracy budget")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("compress", help="prune/quantize/entropy-code a weight file")
    p.add_argument("--weights", required=True, help="input SDNW file")
    p.add_argument("--sparsity", type=float, default=0.7,
                   help="fraction of weights to prune (default 0.7)")
    p.add_argument("--bits", type=int, default=6,
                   help="codebook index width in bits (default 6)")
    p.add_argument("--gap-bits", type=int, default=4,
                   help="relative-index field width in bits (default 4)")
    p.add_argument("--out", required=True, help="output SDNC file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("decompress", help="decode an SDNC file back to dense SDNW")
    p.add_argument("--in", required=True, help="input SDNC file")
    p.add_argument("--out", required=True, help="output SDNW file")
    p.set_defaults(func=cmd_decompress)

    p = sub.add_parser("verify", help="run the cross-implementation oracle suite")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DescriptorError, WeightFormatError, compress_mod.CompressedFormatError,
            json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SweepError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
