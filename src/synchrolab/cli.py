"""The ``synchrolab`` command line: deterministic reports over spec files.

Exit status: 0 on success, 1 when an analysis reports a counterexample,
2 on usage errors.  Every subcommand renders the same data as text or
JSON via ``--format``.
"""

import argparse
import json
import sys
from functools import cache

from synchrolab import conjugacy, factor, invariants, periodic, sync
from synchrolab.errors import (NotAgreeing, NotInShift, ParseError, SemanticError,
                               SynchrolabError, UsageError)
from synchrolab.points import bracket, format_word
from synchrolab.shift import fischer_cover, product
from synchrolab.specfile import load_spec, parse_point


def _point(spec, literal):
    if literal in spec.points:
        return spec.points[literal]
    return parse_point(literal, spec.shift.alphabet)


def _render(report, fmt, out):
    if fmt == "json":
        out.write(json.dumps(report, indent=2, sort_keys=True, default=str))
        out.write("\n")
        return
    command = report.get("command", "")
    out.write(f"== {command} ==\n")
    for key in sorted(k for k in report if k != "command"):
        value = report[key]
        if isinstance(value, list):
            out.write(f"{key}:\n")
            for item in value:
                out.write(f"  {item}\n")
        elif isinstance(value, dict):
            out.write(f"{key}:\n")
            for sub in sorted(value):
                out.write(f"  {sub}: {value[sub]}\n")
        else:
            out.write(f"{key}: {value}\n")


def cmd_info(args, spec):
    s = spec.shift
    report = {
        "command": "info",
        "spec": spec.name,
        "kind": s.kind,
        "alphabet": list(s.alphabet),
        "flags": s.flags(),
        "points": {name: str(p) for name, p in spec.points.items()},
    }
    if report["flags"]["irreducible"]:
        cover = fischer_cover(s)
        report["cover_states"] = len(cover.states)
        report["cover_edges"] = [f"{u} -{a}-> {v}" for (u, a, v) in cover.edges]
    if s.kind == "sft":
        report["forbidden"] = sorted(format_word(w) for w in s.forbidden)
    return report, 0


def cmd_words(args, spec):
    words = spec.shift.words(args.maxlen)
    return {"command": "words", "spec": spec.name, "maxlen": args.maxlen,
            "count": len(words),
            "words": [format_word(w) or "ε" for w in words]}, 0


def cmd_sync_words(args, spec):
    words = [w for w in spec.shift.words(args.maxlen)
             if w and sync.is_sync_word(spec.shift, w)]
    return {"command": "sync-words", "spec": spec.name, "maxlen": args.maxlen,
            "count": len(words), "words": [format_word(w) for w in words]}, 0


def cmd_periodic(args, spec):
    report = {"command": "periodic", "spec": spec.name, "n": args.n}
    if args.count_only:
        report["count"] = periodic.periodic_counts(spec.shift, args.n)[-1]
    else:
        ps = periodic.enumerate_periodic(spec.shift, args.n)
        report["count"] = ps.count
        report["points"] = [str(p) for p in ps.points]
    return report, 0


def cmd_zeta(args, spec):
    numerator, denominator, counts = periodic.zeta(spec.shift, args.n)
    return {"command": "zeta", "spec": spec.name, "n": args.n,
            "numerator": list(numerator), "denominator": list(denominator),
            "counts": list(counts)}, 0


def cmd_find_periodic(args, spec):
    x = _point(spec, args.point)
    if args.return_point:
        y = _point(spec, args.return_point)
        n = args.n
        if n is None:
            raise UsageError("--n is required with --return-point")
    else:
        y, n = periodic.find_return(spec.shift, x, args.window)
    p = periodic.find_periodic_by_bracket(spec.shift, x, y, n, args.window)
    return {"command": "find-periodic", "spec": spec.name, "base": str(x),
            "return_point": str(y), "n": n,
            "result": str(p),
            "minimal_period": periodic.minimal_period(p)}, 0


def cmd_classify(args, spec):
    verdict = sync.classify_point(spec.shift, _point(spec, args.point))
    report = {"command": "classify", "spec": spec.name, "point": args.point,
              "status": verdict.status, "window_used": verdict.window_used}
    if verdict.witness is not None:
        report["witness"] = format_word(verdict.witness)
    return report, 0


def cmd_nonsync(args, spec):
    result = sync.nonsync_subshift(spec.shift)
    report = {"command": "nonsync", "spec": spec.name,
              "finiteness": result.finiteness}
    if result.finiteness == "finite":
        report["m"] = result.count
        report["points"] = [str(p) for p in result.points]
    else:
        report["presentation_states"] = result.state_count
    return report, 0


def cmd_bracket(args, spec):
    x = _point(spec, args.x)
    y = _point(spec, args.y)
    try:
        value = str(bracket(spec.shift, x, y, args.window))
    except (NotAgreeing, NotInShift):
        value = "undefined"
    return {"command": "bracket", "spec": spec.name, "x": str(x), "y": str(y),
            "window": args.window, "value": value}, 0


def cmd_germ(args, spec):
    x = _point(spec, getattr(args, "from"))
    y = _point(spec, args.to)
    germ = conjugacy.construct_germ(spec.shift, x, y, args.kind)
    return {"command": "germ", "spec": spec.name, "kind": args.kind,
            "source": str(x), "target": str(y),
            "window": germ.window,
            "rule": type(germ.rule).__name__}, 0


def cmd_groupoid(args, spec):
    bases = tuple(_point(spec, lit) for lit in args.P.split(";")) if args.P else ()
    arrows = conjugacy.groupoid_sample(spec.shift, args.kind, bases, args.bound)
    return {"command": "groupoid", "spec": spec.name, "kind": args.kind,
            "bound": args.bound, "arrow_count": len(arrows),
            "arrows": [f"{a.source} -> {a.target}" for a in arrows]}, 0


def cmd_factor(args, spec):
    cover = factor.CoverMap.of_shift(spec.shift)
    if args.check == "resolving":
        return {"command": "factor", "check": "resolving", "spec": spec.name,
                "flags": {"rightResolving": cover.right_resolving,
                          "leftResolving": cover.left_resolving}}, 0
    if args.check == "degree":
        report = {"command": "factor", "check": "degree", "spec": spec.name,
                  "M": factor.degree_bound(cover)}
        if args.point:
            result = factor.preimage_count(cover, _point(spec, args.point))
            report["point"] = args.point
            report["preimage_count"] = result["count"]
            report["preimages"] = [str(p) for p in result["preimages"]]
        return report, 0
    result = factor.almost_one_to_one_check(cover, args.maxper)
    status = 0 if result["passed"] else 1
    return {"command": "factor", "check": "a1to1", "spec": spec.name,
            "max_period": args.maxper, "checked": result["checked"],
            "exceptional": result["exceptional"],
            "passed": result["passed"]}, status


def cmd_report(args, spec):
    report = invariants.exact_sequence_report(spec.shift)
    data = report.to_dict()
    data["command"] = "report"
    return data, 0


def cmd_product(args, spec):
    other = load_spec(args.other)
    combined = product(spec.shift, other.shift)
    cover = fischer_cover(combined)
    return {"command": "product", "left": spec.name, "right": other.name,
            "alphabet": list(combined.alphabet),
            "flags": combined.flags(),
            "cover_states": len(cover.states)}, 0


HANDLERS = {
    "info": cmd_info,
    "words": cmd_words,
    "sync-words": cmd_sync_words,
    "periodic": cmd_periodic,
    "zeta": cmd_zeta,
    "find-periodic": cmd_find_periodic,
    "classify": cmd_classify,
    "nonsync": cmd_nonsync,
    "bracket": cmd_bracket,
    "germ": cmd_germ,
    "groupoid": cmd_groupoid,
    "factor": cmd_factor,
    "report": cmd_report,
    "product": cmd_product,
}


@cache
def build_parser():
    # One parser per process: parsing reads it and leaves it unchanged.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    parser = argparse.ArgumentParser(
        prog="synchrolab",
        description="exact computations on synchronizing shift spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.add_argument("spec", help="spec file path or builtin name")
        return p

    add("info", help="shift structure and flags")
    add("words", help="admissible words").add_argument(
        "--maxlen", type=int, default=4)
    add("sync-words", help="synchronizing words").add_argument(
        "--maxlen", type=int, default=4)
    p = add("periodic", help="points of period n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    add("zeta", help="zeta function coefficients and periodic point counts").add_argument(
        "--n", type=int, required=True)
    p = add("find-periodic", help="bracket-iteration periodic point search")
    p.add_argument("--point", required=True)
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--return-point")
    p.add_argument("--n", type=int)
    add("classify", help="exact synchronizing verdict for a point").add_argument(
        "--point", required=True)
    add("nonsync", help="the non-synchronizing subshift")
    p = add("bracket", help="bracket of two points")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--window", type=int, default=2)
    p = add("germ", help="construct a local conjugacy germ")
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--kind", choices=("lc", "lcs", "lcu"), default="lc")
    p = add("groupoid", help="sample groupoid arrows")
    p.add_argument("--kind", choices=("lc", "lcsync", "lcs", "lcu"), default="lc")
    p.add_argument("--P", help="semicolon-separated periodic base points")
    p.add_argument("--bound", type=int, default=6)
    p = add("factor", help="cover map analysis")
    p.add_argument("--check", choices=("resolving", "degree", "a1to1"),
                   default="resolving")
    p.add_argument("--point", help="with --check degree: count and list the "
                   "point's preimages on the Fischer cover")
    p.add_argument("--maxper", type=int, default=4)
    add("report", help="invariant fingerprint report")
    add("product", help="product with a second shift").add_argument("other")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        for bound in ("maxlen", "maxper", "bound"):
            if getattr(args, bound, 1) < 1:
                raise UsageError(f"--{bound} must be >= 1")
        spec = load_spec(args.spec)
        report, status = HANDLERS[args.command](args, spec)
    except (ParseError, SemanticError, UsageError, ValueError) as exc:
        # The library rejects out-of-range arguments with ValueError.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SynchrolabError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    _render(report, args.format, sys.stdout)
    return status


if __name__ == "__main__":
    sys.exit(main())
