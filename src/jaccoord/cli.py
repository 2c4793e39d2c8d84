"""Command-line front end: JSON certificates, audits, and a corpus runner.

Every invocation emits exactly one JSON document on stdout (key-sorted, all
rationals as "p/q" strings).  Exit codes: 0 success / Coordinate / consistent,
2 NotCoordinate (check and witness only), 3 TheoremViolationSuspected (scan
only), 1 usage or computation error with {"error": {kind, detail}} on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from ._ratback import rat, rat_str
from .qpoly import BiPoly, InputTooLarge, PolyParseError, ZeroPolynomialError, parse_poly
from .newton import (
    FaceForm,
    PolygonNotTriangle,
    face_binomial_power,
    lattice_counts,
    newton_polygon,
    triangle_face,
)
from .coordinate import (
    Coordinate,
    CoordinateVerdict,
    InternalVerificationFailure,
    Linear,
    TriangularX,
    TriangularY,
    check,
    gen_random_coordinate,
)
from .fibre import (
    ConstantInputError,
    FibreReport,
    NotSquarefreeError,
    SpecialValues,
    Unknown,
    fibre_report,
    special_value_candidates,
)
from .audit import ScanReport, theorem3_scan


class UsageError(ValueError):
    pass


class CaseFormatError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the error contract reserves 2 for
    # NotCoordinate, so route usage problems through the error JSON path
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# JSON encoding of domain values


def _j_maybe_int(v):
    if isinstance(v, Unknown):
        return {"unknown": v.reason}
    return v


def _j_point(p):
    return None if p is None else [p[0], p[1]]


def _j_step(step) -> dict:
    if isinstance(step, Linear):
        return {
            "kind": "Linear",
            "a": rat_str(step.a),
            "b": rat_str(step.b),
            "c": rat_str(step.c),
            "d": rat_str(step.d),
            "e": rat_str(step.e),
            "f": rat_str(step.f),
        }
    if isinstance(step, TriangularY):
        return {"kind": "TriangularY", "phi": step.phi.to_str("x")}
    return {"kind": "TriangularX", "psi": step.psi.to_str("y")}


def _j_obstruction(ob) -> dict:
    out = {"kind": ob.kind}
    for name in ("point", "missing_vertex"):
        if hasattr(ob, name):
            out[name] = _j_point(getattr(ob, name))
    for name in ("k", "p", "q", "var", "deg"):
        if hasattr(ob, name):
            out[name] = getattr(ob, name)
    return out


def _j_verdict(v: CoordinateVerdict) -> dict:
    if isinstance(v, Coordinate):
        return {
            "outcome": "coordinate",
            "jacobian": rat_str(v.jac),
            "witness_steps": len(v.witness.steps),
        }
    return {
        "outcome": "not_coordinate",
        "obstruction": _j_obstruction(v.obstruction),
        "at_stage": v.at_stage.to_str(),
    }


def _j_witness(v: CoordinateVerdict) -> dict:
    if not isinstance(v, Coordinate):
        return _j_verdict(v)
    return {
        "outcome": "coordinate",
        "steps": [_j_step(s) for s in v.witness.steps],
        "complement": v.complement.to_str(),
        "jacobian": rat_str(v.jac),
    }


def _j_fibre(r: FibreReport) -> dict:
    return {
        "c": rat_str(r.c),
        "abs_factor_count": r.abs_factor_count,
        "multiplicity_reduced": r.multiplicity_reduced,
        "nondegenerate": r.nondegenerate,
        "genus": _j_maybe_int(r.genus),
        "branches_at_infinity": _j_maybe_int(r.branches_at_infinity),
    }


def _j_special(sv: SpecialValues) -> dict:
    return {
        "rational_candidates": [rat_str(c) for c in sv.rational_candidates],
        "irrational_witnesses": [m.to_str("c") for m in sv.irrational_witnesses],
    }


def _j_violation(v) -> Optional[dict]:
    if v is None:
        return None
    out = {"kind": v.kind}
    if hasattr(v, "c"):
        out["c"] = rat_str(v.c)
    if hasattr(v, "c1"):
        out["c1"] = rat_str(v.c1)
        out["c2"] = rat_str(v.c2)
    if hasattr(v, "unknown_cs"):
        out["unknown_cs"] = [rat_str(c) for c in v.unknown_cs]
    return out


def _j_scan(r: ScanReport) -> dict:
    return {
        "verdict": _j_verdict(r.verdict),
        "samples": [_j_fibre(s) for s in r.samples],
        "special_values": _j_special(r.special_values),
        "generic_genus": _j_maybe_int(r.generic_genus),
        "genus_constant_on_known": r.genus_constant_on_known,
        "all_sampled_irreducible": r.all_sampled_irreducible,
        "generic_branches": _j_maybe_int(r.generic_branches),
        "h_source_c": None if r.h_source_c is None else rat_str(r.h_source_c),
        "violation": _j_violation(r.violation),
        "relation_holds_on_known": r.relation_holds_on_known,
        "theorem_violation_suspected": r.theorem_violation_suspected,
    }


def _emit(doc, stream=None) -> None:
    stream = stream or sys.stdout
    stream.write(json.dumps(doc, sort_keys=True, indent=2))
    stream.write("\n")


# ---------------------------------------------------------------------------
# input handling


def _load_input(arg: str) -> BiPoly:
    """Inline expression, or the contents of a UTF-8 file if the path exists."""
    if os.path.isfile(arg):
        with open(arg, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = arg
    return parse_poly(text)


def _parse_rat(text: str):
    try:
        return rat(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational literal {text!r}") from exc


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args) -> int:
    v = check(_load_input(args.input))
    _emit(_j_verdict(v))
    return 0 if isinstance(v, Coordinate) else 2


def _cmd_witness(args) -> int:
    v = check(_load_input(args.input))
    _emit(_j_witness(v))
    return 0 if isinstance(v, Coordinate) else 2


def _cmd_polygon(args) -> int:
    P = _load_input(args.input)
    N = newton_polygon(P)
    interior, boundary, a2 = lattice_counts(N)
    doc = {
        "vertices": [list(p) for p in N.vertices],
        "dim": N.dim,
        "interior": interior,
        "boundary": boundary,
        "twice_area": a2,
        "triangle": False,
        "face": None,
    }
    if P.degx >= 1 and P.degy >= 1:
        tf = triangle_face(P)
        if not isinstance(tf, PolygonNotTriangle):
            doc["triangle"] = True
            ff = face_binomial_power(tf)
            if isinstance(ff, FaceForm):
                doc["face"] = {
                    "C": rat_str(ff.C),
                    "a": rat_str(ff.a),
                    "p": ff.p,
                    "q": ff.q,
                    "m": ff.m,
                }
    _emit(doc)
    return 0


def _cmd_fibre(args) -> int:
    _emit(_j_fibre(fibre_report(_load_input(args.input), _parse_rat(args.c))))
    return 0


def _cmd_special_values(args) -> int:
    _emit(_j_special(special_value_candidates(_load_input(args.input))))
    return 0


def _cmd_scan(args) -> int:
    r = theorem3_scan(_load_input(args.input), n_random=args.samples, seed=args.seed)
    _emit(_j_scan(r))
    return 3 if r.theorem_violation_suspected else 0


def _cmd_gen_coordinate(args) -> int:
    P, W = gen_random_coordinate(args.seed, args.steps, args.max_deg, args.bound)
    _emit(
        {
            "seed": args.seed,
            "polynomial": P.to_str(),
            "degx": P.degx,
            "degy": P.degy,
            "witness": [_j_step(s) for s in W.steps],
        }
    )
    return 0


def _cmd_corpus(args) -> int:
    if not os.path.isdir(args.path):
        raise UsageError(f"not a directory: {args.path}")
    names = sorted(n for n in os.listdir(args.path) if n.endswith(".case"))
    results = []
    failed = 0
    for name in names:
        with open(os.path.join(args.path, name), encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh.read().splitlines() if ln.strip()]
        if len(lines) < 2:
            raise CaseFormatError(f"{name}: need an expression line and a tag line")
        expr, tag = lines[0], lines[1]
        scan = theorem3_scan(parse_poly(expr), n_random=args.samples, seed=args.seed)
        v = scan.verdict
        got = _j_verdict(v)
        tags = {got["outcome"]}
        if isinstance(v, Coordinate):
            tags.add("coordinate")
        else:
            tags.add(v.obstruction.kind)
        ok = tag in tags and not scan.theorem_violation_suspected
        if not ok:
            failed += 1
        results.append(
            {
                "name": name,
                "expr": expr,
                "expected": tag,
                "got": got,
                "scan_consistent": not scan.theorem_violation_suspected,
                "ok": ok,
            }
        )
    _emit(
        {
            "cases": len(names),
            "passed": len(names) - failed,
            "failed": failed,
            "results": results,
        }
    )
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> _Parser:
    p = _Parser(prog="jaccoord", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        return sp

    for name, fn, helptext in (
        ("check", _cmd_check, "decide coordinacy; exit 0/2"),
        ("witness", _cmd_witness, "full witness or obstruction JSON; exit 0/2"),
        ("polygon", _cmd_polygon, "Newton polygon, lattice counts, face gate"),
        ("special-values", _cmd_special_values, "special value candidates"),
    ):
        sp = add(name, fn, help=helptext)
        sp.add_argument("input", help="expression or path to a file")

    sp = add("fibre", _cmd_fibre, help="invariants of the fibre P = c")
    sp.add_argument("input", help="expression or path to a file")
    sp.add_argument("--c", required=True, help="rational value, p/q")

    sp = add("scan", _cmd_scan, help="sampled theorem audit; exit 3 on suspect")
    sp.add_argument("input", help="expression or path to a file")
    sp.add_argument("--samples", type=int, default=8)
    sp.add_argument("--seed", type=int, default=0)

    sp = add("gen-coordinate", _cmd_gen_coordinate, help="seeded random coordinate")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--steps", type=int, default=2)
    sp.add_argument("--max-deg", type=int, default=2)
    sp.add_argument("--bound", type=int, default=5)

    sp = add("corpus", _cmd_corpus, help="run check + scan over *.case files")
    sp.add_argument("path", help="directory of .case files")
    sp.add_argument("--samples", type=int, default=8)
    sp.add_argument("--seed", type=int, default=0)
    return p


_ERROR_KINDS = (
    (UsageError, "UsageError"),
    (CaseFormatError, "CaseFormatError"),
    (PolyParseError, "ParseError"),
    (ConstantInputError, "ConstantInput"),
    (NotSquarefreeError, "NotSquarefree"),
    (ZeroPolynomialError, "ZeroPolynomial"),
    (InternalVerificationFailure, "InternalVerificationFailure"),
    (InputTooLarge, "InputTooLarge"),
    (OSError, "IoError"),
    (ValueError, "ValueError"),
)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except Exception as exc:  # noqa: BLE001 - single JSON error surface
        for cls, kind in _ERROR_KINDS:
            if isinstance(exc, cls):
                detail = str(exc)
                break
        else:
            # a fault of the program, not of the input; still one JSON error
            kind, detail = "InternalError", f"{type(exc).__name__}: {exc}"
        _emit({"error": {"kind": kind, "detail": detail}}, sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
