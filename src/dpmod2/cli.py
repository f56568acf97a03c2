"""Command-line front end: verification tables and machine-readable reports.

Subcommands:
  verify   run the statement verifiers for one lattice or all of them
  roots    list the root coordinates of one lattice
  table    one summary row per lattice (censuses and group orders)
  remark2  run the plain-A_n failure check

Exit code 0 iff every executed check passes, 1 on any failed check or
internal error, 2 on usage errors, such as an unwritable --output path.
Output is deterministic: repeated runs are byte-identical.
"""

import argparse
import json
import sys

from . import bridge, errors, f2, lattice as lat

TABLE_COLUMNS = ("n", "type", "roots", "q1", "q0", "radical_dim", "arf",
                 "weyl_order", "autL_order", "oL2_order", "rho_image_order")

VERIFY_COLUMNS = ("statement", "n", "pass") + bridge.NUMBER_KEYS


def build_parser():
    p = argparse.ArgumentParser(
        prog="dpmod2",
        description="Construct del Pezzo root lattices and verify their "
                    "mod-2 root/quadric and isometry-group correspondences.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--format", choices=("json", "csv", "plain"),
                        default="plain", help="output format")
        sp.add_argument("--output", metavar="PATH",
                        help="write the report to a file instead of stdout")

    v = sub.add_parser("verify", help="verify the statements for one or all n")
    v.add_argument("--n", default="all", choices=("3", "4", "5", "6", "7", "8", "all"),
                   help="lattice rank selector")
    add_common(v)

    r = sub.add_parser("roots", help="list root coordinates")
    r.add_argument("--n", required=True, choices=("3", "4", "5", "6", "7", "8"))
    add_common(r)

    t = sub.add_parser("table", help="summary table for n = 3..8")
    add_common(t)

    m = sub.add_parser("remark2", help="plain A_n failure check")
    m.add_argument("--rank", type=int, default=8, choices=range(5, 11),
                   metavar="RANK", help="rank of the plain lattice (5..10)")
    add_common(m)
    return p


def _emit(text, output):
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:      # a usage error, like a bad flag, not a bug
            sys.stderr.write(f"cannot write {output}: {exc.strerror or exc}\n")
            raise SystemExit(2)
    else:
        sys.stdout.write(text)


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _reports_text(reports, fmt):
    if fmt == "json":
        payload = {"reports": [r.to_json_dict() for r in reports],
                   "all_pass": all(r.passed for r in reports)}
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        lines = [",".join(VERIFY_COLUMNS)]
        for r in reports:
            d = r.to_json_dict()
            row = [d["statement"], d["n"], d["pass"]]
            row += [d["numbers"][k] for k in bridge.NUMBER_KEYS]
            lines.append(",".join(_csv_cell(x) for x in row))
        return "\n".join(lines) + "\n"
    lines = []
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        nums = {k: v for k, v in r.numbers.items() if v is not None}
        lines.append(f"{r.statement:<9} n={r.n}  {status}  {nums}")
        for w in r.witnesses:
            lines.append(f"    {w}")
    failed = sum(not r.passed for r in reports)
    lines.append("ALL PASS" if failed == 0 else f"FAILURES: {failed}")
    return "\n".join(lines) + "\n"


def _run_verify(args):
    ns = range(3, 9) if args.n == "all" else [int(args.n)]
    reports = []
    for n in ns:
        reports.extend(bridge.reports_for(n))
    if args.n == "all":
        reports.append(bridge.verify_remarks(8))
    _emit(_reports_text(reports, args.format), args.output)
    return 0 if all(r.passed for r in reports) else 1


def _run_roots(args):
    L = lat.build_del_pezzo(int(args.n))
    roots = lat.enumerate_roots(L)
    if args.format == "json":
        S = f2.reduce(L)
        q0, q1 = f2.value_census(S)
        payload = {"lattice": L.to_json_dict(),
                   "roots": [list(r) for r in roots],
                   "mod2_space": dict(S.to_json_dict(),
                                      census={"q0": q0, "q1": q1})}
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        header = ",".join(f"E{i}" for i in range(L.width))
        text = "\n".join([header] + [",".join(map(str, r)) for r in roots]) + "\n"
    else:
        text = "\n".join(" ".join(f"{c:3d}" for c in r) for r in roots) + "\n"
    _emit(text, args.output)
    return 0


def _table_rows():
    rows = []
    ok = True
    for n in range(3, 9):
        L = lat.build_del_pezzo(n)
        aut_order, _, weyl, _ = lat._automorphisms(L)
        row = dict(zip(TABLE_COLUMNS, (
            n, L.root_type, *bridge._census(L), weyl, aut_order,
            bridge._oL2_order(L), bridge.rho_image_order_aut(L))))
        ok = ok and row["roots"] == lat.ROOT_COUNTS[L.root_type]
        rows.append(row)
    return rows, ok


def _run_table(args):
    rows, ok = _table_rows()
    if args.format == "json":
        text = json.dumps({"table": rows}, indent=2) + "\n"
    elif args.format == "csv":
        lines = [",".join(TABLE_COLUMNS)]
        lines += [",".join(_csv_cell(row[k]) for k in TABLE_COLUMNS) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        widths = {k: max(len(k), *(len(_csv_cell(row[k])) for row in rows))
                  for k in TABLE_COLUMNS}
        lines = ["  ".join(k.rjust(widths[k]) for k in TABLE_COLUMNS)]
        for row in rows:
            lines.append("  ".join(_csv_cell(row[k]).rjust(widths[k])
                                   for k in TABLE_COLUMNS))
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return 0 if ok else 1


def _run_remark2(args):
    report = bridge.verify_remarks(args.rank)
    _emit(_reports_text([report], args.format), args.output)
    return 0 if report.passed else 1


def run(argv):
    """Entry point used by tests; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handler = {"verify": _run_verify, "roots": _run_roots,
               "table": _run_table, "remark2": _run_remark2}[args.command]
    try:
        return handler(args)
    except errors.Error as exc:
        sys.stderr.write(f"check failed with {type(exc).__name__}: {exc}\n")
        return 1
    except Exception as exc:  # a bug, which must not pass for a failed check
        import traceback
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        traceback.print_exc()
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
