"""A tier-1 subset of the byte corpus: the check, witness, polygon, fibre,
special-values and scan documents of the test-suite literals, the check
and witness documents of the certify texts of benchmark seed 11 (variant 0),
and the scan and fibre documents of its audit and fibre texts, recomputed
in process with tools/byte_corpus.py and compared with their
committed digests in tools/byte_corpus.jsonl.  Also the names perfbench/tracing.py wraps, which
must stay in the package for a traced benchmark run to start."""

import importlib
import importlib.util
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_corpus(monkeypatch):
    """tools/byte_corpus.py as a module, and the committed lines as
    (argv, digest) pairs."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends src/ and perfbench/
    monkeypatch.chdir(ROOT)  # the CLI reads an input that names an existing file
    spec = importlib.util.spec_from_file_location("byte_corpus", os.path.join(ROOT, "tools/byte_corpus.py"))
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    with open(os.path.join(ROOT, "tools/byte_corpus.jsonl"), encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    return corpus, lines


def test_literal_documents_match_committed_digests(monkeypatch):
    corpus, lines = load_corpus(monkeypatch)
    texts = corpus.literal_texts()
    subset = [(argv, d) for argv, d in lines if argv[0] in ("check", "witness", "polygon", "fibre", "special-values", "scan") and argv[-1] in texts]
    assert len(subset) >= 1500, len(subset)
    assert [argv for argv, d in subset if corpus.digest(argv) != d] == []


def test_certify_documents_match_committed_digests(monkeypatch):
    # the check and witness documents of the benchmark's certify texts of
    # seed 11, sign variant 0: the complements and Jacobians of its largest
    # certificates, up to degree 27
    corpus, lines = load_corpus(monkeypatch)
    texts = sorted({item.texts[0] for item in corpus.WORKLOADS["certify"](11)})
    committed = {tuple(argv): d for argv, d in lines if argv[0] in ("check", "witness")}
    argvs = [(command, "--", text) for text in texts for command in ("check", "witness")]
    assert len(argvs) >= 250 and all(a in committed for a in argvs), len(argvs)
    assert [a for a in argvs if corpus.digest(list(a)) != committed[a]] == []


def test_pencil_documents_match_committed_digests(monkeypatch):
    # the scan documents of the benchmark's audit texts of seed 11, sign
    # variant 0, which the Ruppert pencil answers, and the fibre documents of
    # its fibre texts wherever the corpus has them (total degree up to 12),
    # which the Ruppert builder answers
    corpus, lines = load_corpus(monkeypatch)
    committed = {tuple(argv): d for argv, d in lines if argv[0] in ("scan", "fibre")}
    scans = [("scan", "--", item.texts[0]) for item in corpus.WORKLOADS["audit"](11)]
    fibres = [
        ("fibre", "--c", c, "--", item.texts[0])
        for item in corpus.WORKLOADS["fibre"](11) for c in corpus.FIBRE_VALUES
    ]
    fibres = [a for a in fibres if a in committed]
    assert len(scans) == 10 and all(a in committed for a in scans)
    assert len(fibres) >= 40, len(fibres)
    assert [a for a in scans + fibres if corpus.digest(list(a)) != committed[a]] == []


def test_tracer_layers_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("tracing", os.path.join(ROOT, "perfbench/tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{home}.{name}"
        for home, name in tracing.LAYERS
        if not callable(getattr(importlib.import_module(f"jaccoord.{home}"), name, None))
    ]
    assert missing == []
    spans = {span for _, counted, per_call in tracing.RATIOS for span in (counted, per_call)}
    assert sorted(spans - set(tracing.LAYER_NAMES)) == []
