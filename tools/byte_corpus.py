"""Write one sha256 line per CLI document of a fixed input corpus.

    python3 tools/byte_corpus.py [--out PATH]

It imports ``jaccoord`` from the ``src/`` and the benchmark inputs from the
``perfbench/`` of its own checkout.  Every document is one in-process
``jaccoord.cli.main(argv)`` call; its line is the JSON list ``[argv, digest]``
with ``digest`` the sha256 of the exit code, stdout and stderr.  The inputs
are the texts of every perfbench item of seeds 11 and 12 in all four sign
variants, and every one-line string literal of ``tests/*.py`` (docstrings and
existing paths left out).  Each input gets ``check``, ``witness``,
``polygon``, ``special-values`` and ``scan``, and, up to total degree 12,
``fibre`` at c = 0 and c = 1/3, each with the input after ``--``, so that a
text starting with ``-`` is read as the input and not as an option.  The
``polygon`` document pins the face gate's C and a, and ``witness`` the steps
and complement of every certificate.  Lines are sorted, so two runs on one
tree write the same file, and a change that keeps every CLI byte leaves the
committed file as it is.  The full run takes about 7 minutes on a 2-vCPU
Xeon and stays out of the test suite.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from jaccoord import cli, parse_poly  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (11, 12)
FIBRE_VALUES = ("0", "1/3")
FIBRE_MAX_DEGREE = 12


def perfbench_texts():
    return {t for seed in SEEDS for make in WORKLOADS.values() for it in make(seed) for t in it.texts}


def _docstrings(tree):
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            yield body[0].value


def literal_texts():
    out = set()
    tests = os.path.join(ROOT, "tests")
    for name in sorted(os.listdir(tests)):
        if name.endswith(".py"):
            with open(os.path.join(tests, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            skip = {id(d) for d in _docstrings(tree)}
            out.update(
                n.value for n in ast.walk(tree)
                if isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in skip
                and n.value.strip() and "\n" not in n.value and not os.path.exists(n.value)
            )
    return out


def argvs(text: str):
    yield ["check", "--", text]
    yield ["witness", "--", text]
    yield ["polygon", "--", text]
    yield ["special-values", "--", text]
    yield ["scan", "--", text]
    try:
        small = parse_poly(text).total_degree() <= FIBRE_MAX_DEGREE
    except Exception:  # noqa: BLE001 - an input the CLI refuses gets no fibre documents
        small = False
    if small:
        for c in FIBRE_VALUES:
            yield ["fibre", "--c", c, "--", text]


def digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return hashlib.sha256(f"{code}\n{out.getvalue()}\0{err.getvalue()}".encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=os.path.join(ROOT, "tools", "byte_corpus.jsonl"))
    args = ap.parse_args(argv)
    os.chdir(ROOT)  # the CLI reads an input that names an existing file
    lines = sorted(
        json.dumps([a, digest(a)])
        for text in sorted(perfbench_texts() | literal_texts())
        for a in argvs(text)
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"{len(lines)} documents -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
