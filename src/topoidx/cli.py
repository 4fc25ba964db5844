"""Command-line front end.

Subcommands:

  gen           build a family graph and write it as an edge-list file
  compute       evaluate indices on a graph file (table, csv, or json)
  verify        run the closed-form verification suite against the baseline
  list-indices  dump the full registry, one index per line
  functionals   per-vertex functional table as CSV

Values print as exact rationals ``num/den`` or canonical polynomial strings.
Floats appear in exactly three places: the --float column (12 significant
digits), general-power transforms with a non-integer exponent such as
GRL1(a=1/2), and square-root indices whose radicands are not perfect squares;
the last two are marked with a leading ``~``.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from .errors import TopoidxError
from .exact import ExpPoly, parse_rat, render_int, render_value
from .functionals import VERTEX_TABLES, vertex_table
from .graph import dumps, family_label, generate_family, read_graph
from .indices import Descriptor, all_index_names, describe, evaluate, lookup, memo_holds
from .oracles import (
    CONFIRMED,
    DISCREPANT,
    baseline_from_results,
    compare_to_baseline,
    load_baseline,
    run_verification,
)


def _approx(value) -> str:
    if isinstance(value, ExpPoly):
        return ""
    try:
        return f"{float(value):.12g}"
    except OverflowError:  # past the float range, as an infinite float prints
        return "inf" if value > 0 else "-inf"


def cmd_gen(args) -> int:
    g = generate_family(args.family, *args.params)
    text = dumps(g, comment=family_label(args.family, args.params))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _compute_rows(g, graph_label: str, names, general_a, float_out: bool):
    rows = []
    # A product power kept in the graph's memo answers several names
    # (MGRLKV1(a=2) is MHRLKV1's object), so it is rendered once.  Only such
    # values are kept here by id: they live as long as the graph, so no id is
    # reused, and no other value is held past its own row.
    rendered = {}
    for name in names:
        resolved, a = lookup(name)
        if isinstance(resolved, Descriptor):
            if a is None and resolved.transform == "general":
                a = general_a
            label = resolved.name if a is None else f"{resolved.name}(a={a})"
        else:
            a, label = None, resolved
        try:
            value = evaluate(g, resolved, a)
        except TopoidxError as exc:
            rows.append((graph_label, label, f"ERROR:{type(exc).__name__}", ""))
            continue
        text = rendered.get(id(value))
        if text is None:
            text = (render_value(value), _approx(value) if float_out else "")
            if memo_holds(g, value):
                rendered[id(value)] = text
        rows.append((graph_label, label, *text))
    rows.sort(key=lambda r: r[1])
    return rows


def _emit_rows(rows, fmt: str, header: tuple[str, ...], out) -> None:
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    elif fmt == "json":
        records = [dict(zip(header, row)) for row in rows]
        json.dump(records, out, indent=2)
        out.write("\n")
    else:
        widths = [max(len(str(row[i])) for row in ([header] + list(rows))) for i in range(len(header))]
        for row in [header] + list(rows):
            out.write("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n")


def cmd_compute(args) -> int:
    g = read_graph(args.graph)
    if args.all:
        names = all_index_names()
    else:
        names = [n.strip() for chunk in args.index for n in chunk.split(",") if n.strip()]
        if not names:
            print("error: no index named; use --index NAME[,NAME...] or --all", file=sys.stderr)
            return 2
    rows = _compute_rows(g, args.graph, names, args.general_a, args.float)
    _emit_rows(rows, args.format, ("graph", "index", "value", "approx"), sys.stdout)
    return 0


def cmd_verify(args) -> int:
    baseline = None if args.update_baseline else load_baseline(args.baseline)
    lo, hi = args.range
    results = run_verification(
        families=args.family or None,
        lo=lo,
        hi=hi,
        ids=args.oracle or None,
    )
    if not results:
        print("error: no oracle point matches these filters within the range",
              file=sys.stderr)
        return 2
    rows = [
        (r.oracle_id, r.params_label, r.oracle_value, r.direct_value, r.verdict)
        for r in results
    ]
    _emit_rows(rows, args.format,
               ("oracle_id", "family_params", "oracle_value", "direct_value", "verdict"),
               sys.stdout)
    if args.update_baseline:
        with open(args.update_baseline, "w", encoding="utf-8") as handle:
            json.dump(baseline_from_results(results), handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"baseline written: {args.update_baseline}", file=sys.stderr)
        return 0
    deviations, unknown, stale = compare_to_baseline(results, baseline)
    confirmed = sum(1 for r in results if r.verdict == CONFIRMED)
    discrepant = sum(1 for r in results if r.verdict == DISCREPANT)
    print(
        f"# {len(results)} checks: {confirmed} CONFIRMED, {discrepant} DISCREPANT, "
        f"{len(results) - confirmed - discrepant} errors; "
        f"{len(deviations)} deviations from baseline",
        file=sys.stderr,
    )
    for r, expected in deviations:
        print(f"# DEVIATION {r.oracle_id} [{r.params_label}]: "
              f"got {r.verdict}, baseline says {expected}", file=sys.stderr)
    for r in unknown:
        print(f"# NOT IN BASELINE {r.oracle_id} [{r.params_label}]: {r.verdict}",
              file=sys.stderr)
    for oracle_id in stale:
        print(f"# STALE BASELINE {oracle_id}", file=sys.stderr)
    return 1 if deviations or unknown or stale else 0


def cmd_list_indices(args) -> int:
    out = sys.stdout
    for name in all_index_names():
        out.write(",".join(describe(name)) + "\n")
    return 0


def cmd_functionals(args) -> int:
    table = vertex_table(read_graph(args.graph), args.source)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(("vertex", "value_num", "value_den"))
    for vertex, value in enumerate(table):
        value = Fraction(value)
        writer.writerow((vertex, render_int(value.numerator), render_int(value.denominator)))
    return 0


def _range_arg(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        lo_i = int(lo)
        hi_i = int(hi) if hi else lo_i
    except ValueError:
        raise argparse.ArgumentTypeError(f"range must look like 3..8, got {text!r}")
    if hi_i < lo_i:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo_i, hi_i


def _rat_arg(text: str) -> Fraction:
    try:
        return parse_rat(text)
    except TopoidxError:
        raise argparse.ArgumentTypeError(f"expected a rational such as 3 or -2/3, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topoidx",
        description="Exact degree-based topological indices with closed-form verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a family graph as an edge-list file")
    p_gen.add_argument("family", help="family name (see README)")
    p_gen.add_argument("params", nargs="+", type=int, help="family parameters")
    p_gen.add_argument("-o", "--output", help="output file (default: stdout)")
    p_gen.set_defaults(func=cmd_gen)

    p_compute = sub.add_parser("compute", help="evaluate indices on a graph file")
    p_compute.add_argument("graph", help="edge-list file")
    p_compute.add_argument("--index", action="append", default=[],
                           help="index name(s), comma separated; repeatable")
    p_compute.add_argument("--all", action="store_true", help="evaluate the whole registry")
    p_compute.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p_compute.add_argument("--float", action="store_true",
                           help="add a 12-significant-digit float column")
    p_compute.add_argument("--general-a", type=_rat_arg, default=Fraction(2),
                           metavar="RAT",
                           help="power used for general-transform entries without "
                                "an inline parameter (default 2)")
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser("verify", help="differentially verify the closed forms")
    p_verify.add_argument("--family", action="append",
                          help="restrict to an oracle family (repeatable)")
    p_verify.add_argument("--range", type=_range_arg, default=(3, 10),
                          help="size-parameter range A..B (default 3..10); kmn caps n "
                               "at 6, double_star and windmill ignore A and cap their "
                               "parameters at 4 and 5")
    p_verify.add_argument("--oracle", action="append",
                          help="restrict to an oracle id such as RL1/wheel (repeatable)")
    p_verify.add_argument("--format", choices=("table", "csv"), default="table")
    p_verify.add_argument("--baseline", help="expected-verdict baseline file to compare against")
    p_verify.add_argument("--update-baseline", metavar="FILE",
                          help="write the computed verdicts as a new baseline and exit 0")
    p_verify.set_defaults(func=cmd_verify)

    p_list = sub.add_parser("list-indices", help="print the index registry")
    p_list.set_defaults(func=cmd_list_indices)

    p_fun = sub.add_parser("functionals", help="per-vertex functional values as CSV")
    p_fun.add_argument("graph", help="edge-list file")
    p_fun.add_argument("--source", choices=tuple(VERTEX_TABLES), default="plain")
    p_fun.set_defaults(func=cmd_functionals)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TopoidxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer (e.g. head) closed the pipe; not our error.
        sys.stderr.close()
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
