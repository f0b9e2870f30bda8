"""Command-line front end: family / verify / design / construct / pa.

Structured JSON is the canonical output; ``--format table`` renders a
human view of the same data.  Exit codes: 0 success, 1 verification or
theorem failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .construct import (
    Quasigroup,
    concatenate,
    concatenation_bound,
    double_extension,
    point_extension,
    seed_extension,
)
from .designs import (
    IncidenceStructure,
    Mosaic,
    Resolution,
    analyze_structure,
    check_structure_theorems,
    dual_mosaic,
    find_resolution,
    mosaic_from_function,
    sum_mosaic,
)
from .errors import MosaicHashError, TheoremViolation
from .families import (
    DEFAULT_TABLE_BUDGET,
    FunctionTable,
    Group,
    HashFamily,
    build_named,
)
from .privacy import JointSource, iid_extend, run_pa
from .verify import classify, min_epsilon

USAGE_ERROR = 2
CHECK_FAILED = 1


def _emit(data: dict, fmt: str, path=None):
    if fmt == "json":
        text = json.dumps(data, indent=2, sort_keys=True)
    else:
        text = "\n".join(_table_lines(data))
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
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


def _load_table(path) -> FunctionTable:
    with open(path) as fh:
        return FunctionTable.from_json(fh.read())


def _load_family(path) -> HashFamily:
    return _load_table(path).to_family(name=path)


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


def _parse_params(pairs):
    out = {}
    for item in pairs:
        if "=" not in item:
            raise MosaicHashError(f"expected key=value, got {item!r}")
        key, val = item.split("=", 1)
        out[key] = int(val)
    return out


def _cyclic_on(labels) -> Quasigroup:
    n = len(labels)
    return Quasigroup(
        labels, [[labels[(i + j) % n] for j in range(n)] for i in range(n)]
    )


def cmd_family(args):
    kinds = [k for k in ("affine", "dual_affine", "transversal", "toeplitz",
                         "field_multiply") if getattr(args, k)]
    if len(kinds) != 1:
        raise MosaicHashError("choose exactly one family kind")
    kind = kinds[0]
    params = _parse_params(args.params)
    if kind == "transversal":
        if args.h_subset is not None:
            params["h_subset"] = [int(x) for x in args.h_subset.split(",")]
        params["include_infinity"] = args.infinity
    if kind == "field_multiply":
        params["exclude_zero"] = args.exclude_zero
    fam = build_named(kind, **params)
    table = fam.to_table(args.budget)
    if args.output:
        _write(args.output, table.to_json())
    _emit(
        {"family": fam.name, "x_size": fam.x_size, "s_size": fam.s_size,
         "a_size": fam.a_size, "output": args.output},
        args.format,
    )
    return 0


def cmd_verify(args):
    fam = _load_family(args.family)
    report = classify(fam, args.budget)
    _emit(report.to_dict(), args.format, args.output)
    return 0


def cmd_design(args):
    fam = _load_family(args.family)
    mosaic = mosaic_from_function(fam, args.budget)
    out = {}
    rc = 0
    if args.theorems:
        rep = check_structure_theorems(fam, args.budget)
        out["theorems"] = rep.to_dict()
        out["members"] = [analyze_structure(d).to_dict() for d in mosaic.members]
        if not rep.ok:
            rc = CHECK_FAILED
    if args.dual:
        dual = dual_mosaic(mosaic)
        if args.output:
            _write(args.output, dual.to_json())
        out["dual"] = {"points": len(dual.points), "block_indices": len(dual.block_indices)}
    if args.sum:
        total = sum_mosaic(mosaic)
        if args.output:
            _write(args.output, total.to_json())
        out["sum"] = analyze_structure(total).to_dict()
    if args.resolve:
        total = sum_mosaic(mosaic)
        res = find_resolution(total)
        if isinstance(res, Resolution):
            out["resolution"] = [list(c) for c in res.classes]
        else:
            out["resolution"] = repr(res)
    if not out:
        out["members"] = [analyze_structure(d).to_dict() for d in mosaic.members]
    _emit(out, args.format, None if (args.dual or args.sum) else args.output)
    return rc


def cmd_construct(args):
    want = "two family files" if args.concat else "one family file"
    if len(args.inputs) != 1 + args.concat:
        raise MosaicHashError(f"this construction takes {want}, got {len(args.inputs)}")
    if args.concat:
        f1 = _load_family(args.inputs[0])
        f2 = _load_family(args.inputs[1])
        eps1, _ = min_epsilon(f1, "ASU", args.budget)
        eps2, _ = min_epsilon(f2, "ACFU", args.budget)
        fam = concatenate(f1, f2)
        bound = concatenation_bound(eps1, eps2, f1.a_size)
        note = {"acfu_bound": f"{bound.numerator}/{bound.denominator}"}
    else:
        g = _load_family(args.inputs[0])
        if args.latin:
            with open(args.latin) as fh:
                q = Quasigroup.from_json(fh.read())
        else:
            q = _cyclic_on(list(g.a_labels))
        note = {}
        if args.seed_ext:
            fam = seed_extension(g, q)
        elif args.point_ext:
            fam = point_extension(g, q, args.budget)
        elif args.double_ext:
            labels, idx, n = g.a_labels, g.a_index, g.a_size
            g.a_group = Group(  # the cyclic group on the value labels, in their order
                labels,
                add=lambda a, b: labels[(idx[a] + idx[b]) % n],
                neg=lambda a: labels[(-idx[a]) % n],
                zero=labels[0],
            )
            fam = double_extension(g, budget=args.budget)
        else:
            raise MosaicHashError("choose a construction")
    table = fam.to_table(args.budget)
    if args.output:
        _write(args.output, table.to_json())
    _emit(
        {"family": fam.name, "x_size": fam.x_size, "s_size": fam.s_size,
         "a_size": fam.a_size, "output": args.output, **note},
        args.format,
    )
    return 0


def cmd_pa(args):
    with open(args.source) as fh:
        src = JointSource.from_json(fh.read())
    fam = _load_family(args.family)
    if args.iid > 1:
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
    fam.add_argument("--affine", action="store_true")
    fam.add_argument("--dual-affine", dest="dual_affine", action="store_true")
    fam.add_argument("--transversal", action="store_true")
    fam.add_argument("--toeplitz", action="store_true")
    fam.add_argument("--field-multiply", dest="field_multiply", action="store_true")
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
    con.add_argument("--seed-ext", dest="seed_ext", action="store_true")
    con.add_argument("--point-ext", dest="point_ext", action="store_true")
    con.add_argument("--double-ext", dest="double_ext", action="store_true")
    con.add_argument("--concat", action="store_true")
    con.add_argument("--latin", default=None, help="latin square JSON file")
    con.set_defaults(func=cmd_construct)

    pa = sub.add_parser("pa", help="privacy-amplification evaluation")
    pa.add_argument("source")
    pa.add_argument("family")
    pa.add_argument("--iid", type=int, default=1)
    pa.set_defaults(func=cmd_pa)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TheoremViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_FAILED
    except (MosaicHashError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
