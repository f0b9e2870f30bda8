"""Command-line front end: family / verify / design / construct / pa.

Structured JSON is the canonical output; ``--format table`` renders a
human view of the same data.  Exit codes: 0 success, 1 verification or
theorem failure, 2 usage or input error or too little memory for the input.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from .errors import MosaicHashError, TheoremViolation
from .families import (
    DEFAULT_TABLE_BUDGET,
    NAMED,
    FunctionTable,
    HashFamily,
    Quasigroup,
    build_named,
    cyclic_group,
)
from .verify import classify, min_epsilon, rational_str

USAGE_ERROR = 2
CHECK_FAILED = 1


def _emit(data: dict, fmt: str, path=None):
    """data as JSON or table lines, to the file at path or else to stdout."""
    if fmt == "json":
        text = json.dumps(data, indent=2, sort_keys=True)
    else:
        text = "\n".join(_table_lines(data))
    if path:
        _write(path, text)
    else:
        print(text)


def _table_lines(data, prefix=""):
    lines = []
    for key in sorted(data) if isinstance(data, dict) else []:
        val = data[key]
        if isinstance(val, dict):
            lines.append(f"{prefix}{key}:")
            lines.extend(_table_lines(val, prefix + "  "))
        else:
            lines.append(f"{prefix}{key}: {val}")
    return lines


def _load_family(path) -> HashFamily:
    with open(path) as fh:
        return FunctionTable.from_json(fh.read()).to_family(name=path)


def _write(path, text):
    with open(path, "w") as fh:
        print(text, file=fh)


def _write_family(fam: HashFamily, args, **note):
    """The tail of family and construct: fam's table to -o, its summary to stdout."""
    table = fam.to_table(args.budget)
    if args.output:
        _write(args.output, table.to_json())
    _emit({"family": fam.name, "x_size": fam.x_size, "s_size": fam.s_size,
           "a_size": fam.a_size, "output": args.output, **note}, args.format)
    return 0


def _parse_params(pairs):
    out = {}
    for item in pairs:
        if "=" not in item:
            raise MosaicHashError(f"expected key=value, got {item!r}")
        key, val = item.split("=", 1)
        out[key] = int(val)
    return out


def cmd_family(args):
    kinds = [k for k in NAMED if getattr(args, k)]
    if len(kinds) != 1:
        raise MosaicHashError("choose exactly one family kind")
    kind = kinds[0]
    if kind != "transversal" and (args.h_subset is not None or args.infinity):
        raise MosaicHashError("--H and --infinity apply only to --transversal")
    if kind != "field_multiply" and args.exclude_zero:
        raise MosaicHashError("--exclude-zero applies only to --field-multiply")
    params = _parse_params(args.params)
    if kind == "transversal":
        if args.h_subset is not None:
            params["h_subset"] = [int(x) for x in args.h_subset.split(",")]
        params["include_infinity"] = args.infinity
    if kind == "field_multiply":
        params["exclude_zero"] = args.exclude_zero
    return _write_family(build_named(kind, **params), args)


def cmd_verify(args):
    fam = _load_family(args.family)
    report = classify(fam, args.budget)
    _emit(report.to_dict(), args.format, args.output)
    return 0


def cmd_design(args):
    from .designs import (Resolution, analyze_structure, check_structure_theorems, dual_mosaic,
                          find_resolution, mosaic_from_function, sum_mosaic)

    if args.output and args.dual and args.sum:
        raise MosaicHashError("-o names one structure file: choose --dual or --sum")
    fam = _load_family(args.family)
    mosaic = mosaic_from_function(fam, args.budget)
    out, rc, members = {}, 0, None
    if args.theorems:
        rep = check_structure_theorems(fam, args.budget)
        out["theorems"], members = rep.to_dict(), rep.members
        if not rep.ok:
            rc = CHECK_FAILED
    if args.dual:
        dual = dual_mosaic(mosaic)
        if args.output:
            _write(args.output, dual.to_json())
        out["dual"] = {"points": len(dual.points), "block_indices": len(dual.block_indices)}
    total = sum_mosaic(mosaic) if args.sum or args.resolve else None
    if args.sum:
        if args.output:
            _write(args.output, total.to_json())
        out["sum"] = analyze_structure(total).to_dict()
    if args.resolve:
        res = find_resolution(total)
        if isinstance(res, Resolution):
            out["resolution"] = [list(c) for c in res.classes]
        else:
            out["resolution"] = repr(res)
    if args.theorems or not out:  # the report's members, else each member analysed
        out["members"] = [p.to_dict() for p in members or map(analyze_structure, mosaic.members)]
    _emit(out, args.format, None if (args.dual or args.sum) else args.output)
    return rc


def cmd_construct(args):
    from .construct import (concatenate, concatenation_bound, double_extension,
                            point_extension, seed_extension)

    want = "two family files" if args.concat else "one family file"
    if len(args.inputs) != 1 + args.concat:
        raise MosaicHashError(f"this construction takes {want}, got {len(args.inputs)}")
    if args.concat:
        f1 = _load_family(args.inputs[0])
        f2 = _load_family(args.inputs[1])
        fam = concatenate(f1, f2)  # checks the domains before the epsilon passes
        eps1, _ = min_epsilon(f1, "ASU", args.budget)
        eps2, _ = min_epsilon(f2, "ACFU", args.budget)
        bound = concatenation_bound(eps1, eps2, f1.a_size)
        note = {"acfu_bound": rational_str(bound)}
    else:
        g = _load_family(args.inputs[0])
        q = cyclic = cyclic_group(g.a_labels)  # on the value labels, in their order
        if args.latin:
            with open(args.latin) as fh:
                q = Quasigroup.from_json(fh.read())
        note = {}
        if args.seed_ext:
            fam = seed_extension(g, q)
        elif args.point_ext:
            fam = point_extension(g, q, args.budget)
        elif args.double_ext:
            g.a_group = cyclic
            fam = double_extension(g, budget=args.budget)
        else:
            raise MosaicHashError("choose a construction")
    return _write_family(fam, args, **note)


def cmd_pa(args):
    from .privacy import JointSource, iid_extend, run_pa

    with open(args.source) as fh:
        src = JointSource.from_json(fh.read())
    fam = _load_family(args.family)
    src = iid_extend(src, args.iid)
    result = run_pa(src, fam, args.budget)
    _emit(result.to_dict(), args.format, args.output)
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="mosaichash")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--budget", type=int, default=DEFAULT_TABLE_BUDGET)
    sub = p.add_subparsers(dest="command", required=True)

    fam = sub.add_parser("family", help="build a named family and write its table")
    for kind in NAMED:
        fam.add_argument(f"--{kind.replace('_', '-')}", dest=kind, action="store_true")
    fam.add_argument("--H", dest="h_subset", default=None,
                     help="comma-separated H subset for the transversal family")
    fam.add_argument("--infinity", action="store_true")
    fam.add_argument("--exclude-zero", dest="exclude_zero", action="store_true")
    fam.add_argument("params", nargs="*", help="key=value family parameters")
    fam.set_defaults(func=cmd_family)

    ver = sub.add_parser("verify", help="classify a family file")
    ver.add_argument("family")
    ver.set_defaults(func=cmd_verify)

    des = sub.add_parser("design", help="design-theoretic analysis")
    des.add_argument("family")
    des.add_argument("--dual", action="store_true")
    des.add_argument("--sum", action="store_true")
    des.add_argument("--resolve", action="store_true")
    des.add_argument("--theorems", action="store_true")
    des.set_defaults(func=cmd_design)

    con = sub.add_parser("construct", help="extensions and concatenation")
    con.add_argument("inputs", nargs="+")
    how = con.add_mutually_exclusive_group()
    how.add_argument("--seed-ext", dest="seed_ext", action="store_true")
    how.add_argument("--point-ext", dest="point_ext", action="store_true")
    how.add_argument("--double-ext", dest="double_ext", action="store_true")
    how.add_argument("--concat", action="store_true")
    con.add_argument("--latin", default=None, help="latin square JSON file")
    con.set_defaults(func=cmd_construct)

    pa = sub.add_parser("pa", help="privacy-amplification evaluation")
    pa.add_argument("source")
    pa.add_argument("family")
    pa.add_argument("--iid", type=int, default=1)
    pa.set_defaults(func=cmd_pa)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():  # each library warning as one stderr line
        warnings.simplefilter("default")
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except TheoremViolation as exc:
            print(f"error: {exc}", file=sys.stderr)
            return CHECK_FAILED
        except (MosaicHashError, OSError, json.JSONDecodeError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_ERROR
        except MemoryError:
            print("error: out of memory for this input", file=sys.stderr)
            return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
