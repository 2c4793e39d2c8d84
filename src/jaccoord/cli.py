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
from dataclasses import fields, is_dataclass

from .qpoly import (
    BiPoly,
    InputTooLarge,
    PolyParseError,
    Rat,
    UniPoly,
    ZeroPolynomialError,
    parse_poly,
    rat,
    rat_str,
)
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
    NotCoordinate,
    TriangularY,
    check,
    gen_random_coordinate,
)
from .fibre import (
    ConstantInputError,
    NotSquarefreeError,
    Unknown,
    fibre_report,
    special_value_candidates,
)
from .audit import theorem3_scan


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


def _j_verdict(v: CoordinateVerdict) -> dict:
    if isinstance(v, Coordinate):
        return {
            "outcome": "coordinate",
            "jacobian": rat_str(v.jac),
            "witness_steps": len(v.witness.steps),
        }
    return {
        "outcome": "not_coordinate",
        "obstruction": _j(v.obstruction),
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


def _j(value):
    """JSON of a result: any dataclass other than a verdict is written as its
    fields, plus its kind when the class names one.  The only UniPoly values
    in a result are minimal polynomials in c."""
    if isinstance(value, Unknown):
        return {"unknown": value.reason}
    if isinstance(value, (Coordinate, NotCoordinate)):
        return _j_verdict(value)
    if is_dataclass(value):
        out = {f.name: _j(getattr(value, f.name)) for f in fields(value)}
        if hasattr(value, "kind"):
            out["kind"] = value.kind
        return out
    if isinstance(value, (tuple, list)):
        return [_j(v) for v in value]
    if isinstance(value, UniPoly):
        return value.to_str("c")
    if isinstance(value, Rat):
        return rat_str(value)
    return value


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
        "vertices": _j(N.vertices),
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
                doc["face"] = _j(ff)
    _emit(doc)
    return 0


def _cmd_fibre(args) -> int:
    _emit(_j(fibre_report(_load_input(args.input), _parse_rat(args.c))))
    return 0


def _cmd_special_values(args) -> int:
    _emit(_j(special_value_candidates(_load_input(args.input))))
    return 0


def _cmd_scan(args) -> int:
    r = theorem3_scan(_load_input(args.input), n_random=args.samples, seed=args.seed)
    _emit(_j(r))
    return 3 if r.theorem_violation_suspected else 0


# deg P <= max-deg ** steps; with every step at full degree, 3 steps of
# degree 5 (bound 125) take up to 3.5 s on a 2-vCPU Xeon and 3 steps of
# degree 6 (216) take 35 s.  The step count is capped as well, since steps
# of degree 1 keep the bound at 1.
MAX_GEN_DEGREE = 125
# The coefficients of P have at most about 7.1 * L * S digits, L the digits
# of --bound and S = 1 + max-deg + ... + max-deg ** steps (seeds 0-5 over 13
# shapes up to the degree budget and L up to 100), so L * S <= 320 keeps them
# under 2,300 digits, within Python's 4,300-digit int-to-str limit, and every
# measured shape within 2.1 s on a 2-vCPU Xeon; L * S = 508 took 13.8 s.
MAX_GEN_SIZE = 320


def _cmd_gen_coordinate(args) -> int:
    steps, deg = args.steps, args.max_deg
    if steps > MAX_GEN_DEGREE or (steps >= 1 and deg >= 1 and deg ** steps > MAX_GEN_DEGREE):
        raise InputTooLarge(
            f"gen-coordinate needs steps and max-deg ** steps <= {MAX_GEN_DEGREE}, got {deg} ** {steps}"
        )
    size = len(str(args.bound)) * sum(deg ** k for k in range(steps + 1)) if deg >= 1 else 0
    if size > MAX_GEN_SIZE:
        raise InputTooLarge(
            f"gen-coordinate needs digits(bound) * (1 + max-deg + ... + max-deg ** steps)"
            f" <= {MAX_GEN_SIZE}, got {size}"
        )
    P, W = gen_random_coordinate(args.seed, steps, deg, args.bound)
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
