"""Command-line interface.

Exit codes: 0 success, 1 constraint or graph-validation failure, 2 usage
error, 3 I/O or format error. Machine output is JSON with a fixed key
order: each record's dataclass fields in declaration order. The human
tables read the same records.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import functools
import json
import math
import sys
from dataclasses import asdict, fields
from typing import Optional, Sequence

from . import compress as compress_mod
from . import costs, descriptor, explore, graph, settings, weights


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


def _print_table(rows: list[tuple[str, str]]) -> None:
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        print(f"{key.ljust(width)}  {value}")


@contextlib.contextmanager
def _platform(path: Optional[str]):
    """The platform of ``--platform`` or the default; a cost overflow on a file names it."""
    try:
        yield costs.PlatformSpec.load(path) if path else costs.DEFAULT_PLATFORM
    except costs.CostOverflowError as exc:
        if path:
            raise costs.CostOverflowError(f"{costs.PlatformSpec.label} {path}: {exc}") from None
        raise


def _graph_from_args(args) -> tuple[graph.ArchGraph, dict]:
    params = {f.name: getattr(args, f.name) for family in explore.FAMILIES.values()
              for f in family.params if getattr(args, f.name) is not None}
    if args.arch:
        given = ["--family"] * bool(args.family) + [f"--{n.replace('_', '-')}" for n in params]
        if given:  # a descriptor takes no family, so these would be dropped
            raise explore.SweepError(f"--arch cannot be combined with {', '.join(given)}")
        return descriptor.load(args.arch), {}
    if args.family:
        return explore.build_family(args.family, params), params
    raise explore.SweepError("one of --arch or --family is required")


def _format_metric(value, unit: str) -> str:
    if unit == "J":
        return f"{value:.6e} J"
    if unit == "FPS (proxy)":
        return "inf" if math.isinf(value) else f"{value:.2f} {unit}"
    human = human_bytes(value) if unit == "B" else human_count(value)
    return f"{value:,} {unit} ({human})"


def _report_rows(m: costs.MetricsReport) -> list[tuple[str, str]]:
    return [("architecture", m.name)] + [
        (f.metadata["label"], _format_metric(getattr(m, f.name), f.metadata["unit"]))
        for f in fields(m) if f.metadata]


def cmd_describe(args) -> int:
    graph, _ = _graph_from_args(args)
    with _platform(args.platform) as platform:
        m = costs.report(graph, platform, batch=args.batch)
    if args.json:
        print(json.dumps(m.to_dict(), indent=2, allow_nan=False))
    else:
        _print_table(_report_rows(m))
    return 0


def cmd_sweep(args) -> int:
    with _platform(args.platform) as platform:
        grid = settings.load_json(args.grid)
        try:
            points = explore.sweep(args.family, grid, platform, batch=args.batch)
        except explore.SweepError as exc:  # a cell's GraphError keeps its text and exit code
            raise explore.SweepError(f"grid file {args.grid}: {exc}") from None

    unmatched: list[dict] = []
    if args.accuracy:
        table = explore.load_accuracy_table(settings.read_text(args.accuracy), args.accuracy)
        points, unmatched = explore.attach_accuracy(points, table,
                                                    f"accuracy table {args.accuracy}")
        for row in unmatched:
            print(f"warning: accuracy row matched no design point: {row}", file=sys.stderr)

    have_error = all(p.top5_error is not None for p in points)
    objectives = ([("total_params", "min"), ("top5_error", "min")] if have_error
                  else [("total_params", "min"), ("total_macs", "min")])
    saturation_point = None
    if args.saturation_axis:
        if not have_error:
            raise explore.SweepError("--saturation-axis needs an accuracy table covering "
                                     "every point")
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
    # serialized before either file opens, so a refused sweep leaves no
    # partial output behind
    json_text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    csv_path = f"{args.out}.csv"
    json_path = f"{args.out}.json"
    metrics = [f.name for f in fields(costs.MetricsReport) if f.metadata]
    header = [*grid, *metrics, "top5_error", "pareto", "saturation"]
    if saturation_point is None:  # a saturation column only when some point is the one
        header.pop()
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")  # None an empty cell, a float its repr
        writer.writerow(header)
        for p, (on_front, is_saturation) in zip(points, marks):
            writer.writerow([*map(p.metaparams.get, grid),
                             *(getattr(p.metrics, m) for m in metrics),
                             p.top5_error, int(on_front), int(is_saturation)][:len(header)])
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(json_text)
    print(f"{len(points)} design points -> {csv_path}, {json_path}")
    print(f"pareto front: {sum(on_front for on_front, _ in marks)} point(s)")
    if args.saturation_axis:
        if saturation_point is None:
            print("saturation: none (still improving at the largest point)")
        else:
            print(f"saturation: {saturation_point.metaparams}")
    return 0


def _row_value(what: str, numbered_row: tuple[int, dict[str, str]], metric: str) -> float:
    """Metric getter letting pareto_front run over the (line number, row)
    pairs of the CSV named ``what``; an empty or non-numeric cell is refused
    naming the file and the line."""
    line, row = numbered_row
    value = row[metric]
    try:
        return float(value)
    except ValueError:
        problem = "is empty" if value == "" else f"has non-numeric value {value!r}"
        raise explore.SweepError(f"{what} line {line}: metric {metric!r} {problem}") from None


def _parse_objectives(spec: str) -> list[tuple[str, str]]:
    objectives = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, sense = item.partition(":")
        objectives.append((name.strip(), (sense or "min").strip()))
    if not objectives:
        raise explore.SweepError("no objectives given")
    return objectives


def cmd_pareto(args) -> int:
    objectives = _parse_objectives(args.objectives)
    what = f"points file {args.points}"
    fieldnames, numbered = explore.read_csv(settings.read_text(args.points), what)
    if not fieldnames:
        raise explore.SweepError(f"{what} has no header row")
    for metric, _ in objectives:
        if metric not in fieldnames:
            raise explore.SweepError(f"{what} is missing metric {metric!r}")
    front = explore.pareto_front(numbered, objectives, functools.partial(_row_value, what))
    with (open(args.out, "w", encoding="utf-8", newline="") if args.out
          else contextlib.nullcontext(sys.stdout)) as out:
        writer = csv.DictWriter(out, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(row for _, row in front)
    if args.out:
        print(f"{len(front)} of {len(numbered)} points -> {args.out}")
    return 0


def cmd_check(args) -> int:
    graph, metaparams = _graph_from_args(args)
    with _platform(args.platform) as platform:
        constraints = explore.ConstraintSet.load(args.constraints)
        point = explore.DesignPoint(metaparams, costs.report(graph, platform, batch=args.batch),
                                    top5_error=args.top5_error)
    if constraints.max_top5_error is not None and args.top5_error is None:
        raise explore.SweepError(f"{constraints.label} {args.constraints}: max_top5_error is "
                                 "set, but no --top5-error was given")
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
    queue = collections.deque(weights.load_sdnw(args.weights))
    dense = sum(4 * t.size for t in queue)
    # handed over one at a time, so that each tensor is dropped once pruned
    model = compress_mod.compress_model((queue.popleft() for _ in range(len(queue))),
                                        args.sparsity, args.bits, rel_index_bits=args.gap_bits)
    container = compress_mod.write_sdnc(model)
    with open(args.out, "wb") as fh:
        fh.write(container)
    rep = compress_mod.compression_report(dense, model, container)
    if args.json:
        doc = {
            "dense_bytes": rep.dense_bytes,
            "compressed_bytes": rep.compressed_bytes,
            "ratio": rep.ratio,
            "tensors": [asdict(r) | {"ratio": r.ratio} for r in rep.rows],
        }
        print(json.dumps(doc, indent=2, allow_nan=False))
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
                         indent=2, allow_nan=False))
    else:
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
        print(f"result: {len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 1


def _checked(f: settings.Field, text: str):
    """``text`` as f's kind, or else as a float, checked by ``f``: refused
    (exit 2) before any file is read."""
    value = text
    for kind in (float, f.kind):  # the kind's reading wins
        with contextlib.suppress(ValueError):
            value = kind(text)
    return f.check(value, argparse.ArgumentTypeError)


def _typed(f: settings.Field) -> dict:
    """The argparse keywords reading a flag as ``f``: its choices, or ``_checked``."""
    if isinstance(f.kind, tuple):
        return {"choices": f.kind}
    return {"type": functools.partial(_checked, f)}


def _add_flag(parser: argparse.ArgumentParser, flag: str, f: settings.Field):
    """The flag of ``f``, with its default and help."""
    parser.add_argument(flag, **_typed(f), default=f.default,
                        help=f.help if f.default is None else f"{f.help} (default {f.default})")


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--arch", help="architecture descriptor (JSON)")
    parser.add_argument("--family", choices=sorted(explore.FAMILIES),
                        help="generate a reference family instead of reading --arch")
    for name, family in explore.FAMILIES.items():
        for f in family.params:
            default = "" if f.default is None else f", default {f.default}"
            parser.add_argument(f"--{f.name.replace('_', '-')}", **_typed(f),
                                help=f"{f.help} ({name}{default})")
    parser.add_argument("--platform", help="platform config (JSON)")
    _add_flag(parser, "--batch", settings.BATCH)


def _describe_arguments(p: argparse.ArgumentParser) -> None:
    _add_graph_source(p)
    p.add_argument("--json", action="store_true", help="emit JSON instead of a table")


def _sweep_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=sorted(explore.FAMILIES))
    p.add_argument("--grid", required=True, help="JSON file mapping axis -> value list")
    p.add_argument("--platform", help="platform config (JSON)")
    _add_flag(p, "--batch", settings.BATCH)
    p.add_argument("--accuracy", help="CSV of recorded accuracy keyed by metaparams")
    p.add_argument("--saturation-axis",
                   help="metric to order points by when detecting saturation")
    _add_flag(p, "--epsilon", explore.EPSILON)
    p.add_argument("--out", required=True, help="output prefix for .csv and .json")


def _pareto_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--points", required=True, help="CSV with a header row")
    p.add_argument("--objectives", required=True,
                   help="comma list of metric:min|max, e.g. total_params:min,top5_error:min")
    p.add_argument("--out", help="output CSV (default stdout)")


def _check_arguments(p: argparse.ArgumentParser) -> None:
    _add_graph_source(p)
    p.add_argument("--constraints", required=True, help="constraint set (JSON)")
    _add_flag(p, "--top5-error", explore.TOP5_ERROR)


def _compress_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--weights", required=True, help="input SDNW file")
    _add_flag(p, "--sparsity", settings.SPARSITY)
    _add_flag(p, "--bits", settings.BITS)
    _add_flag(p, "--gap-bits", settings.GAP_BITS)
    p.add_argument("--out", required=True, help="output SDNC file")
    p.add_argument("--json", action="store_true")


def _decompress_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", required=True, help="input SDNC file")
    p.add_argument("--out", required=True, help="output SDNW file")


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true")


#: name -> (help, handler, argument adder) of every command, in listing order
_COMMANDS = {
    "describe": ("print the metric vector of one architecture", cmd_describe,
                 _describe_arguments),
    "sweep": ("evaluate a metaparameter grid", cmd_sweep, _sweep_arguments),
    "pareto": ("filter a points CSV down to its Pareto front", cmd_pareto, _pareto_arguments),
    "check": ("check one design point against budgets", cmd_check, _check_arguments),
    "compress": ("prune/quantize/entropy-code a weight file", cmd_compress,
                 _compress_arguments),
    "decompress": ("decode an SDNC file back to dense SDNW", cmd_decompress,
                   _decompress_arguments),
    "verify": ("run the cross-implementation oracle suite", cmd_verify, _verify_arguments),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI's parser. Every command is listed, but when ``command`` names
    one, only that command's subparser gets its arguments, since no other
    is parsed in that run; anything else (None, an option, an unknown name)
    builds them all."""
    parser = argparse.ArgumentParser(
        prog="convdse",
        description="Cost modeling, design-space exploration, and weight "
                    "compression for small convolutional networks.")
    sub = parser.add_subparsers(dest="command", required=True)
    everything = command not in _COMMANDS
    for name, (help_text, handler, add_arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if everything or command == name:
            add_arguments(p)
            p.set_defaults(func=handler)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # the class carries the code, so deciding it loads no first-use module
        if isinstance(exc, OSError):
            return 3
        return getattr(exc, "exit_code", 2)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
