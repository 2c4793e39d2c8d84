"""A tier-1 subset of the byte corpus: the check, fibre, special-values and
scan documents of the test-suite literals, recomputed in process with
tools/byte_corpus.py and compared with their committed digests in
tools/byte_corpus.jsonl."""

import importlib.util
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_literal_documents_match_committed_digests(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends src/ and perfbench/
    monkeypatch.chdir(ROOT)  # the CLI reads an input that names an existing file
    spec = importlib.util.spec_from_file_location("byte_corpus", os.path.join(ROOT, "tools/byte_corpus.py"))
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    texts = corpus.literal_texts()
    with open(os.path.join(ROOT, "tools/byte_corpus.jsonl"), encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    subset = [(argv, d) for argv, d in lines if argv[0] in ("check", "fibre", "special-values", "scan") and argv[1] in texts]
    assert len(subset) >= 1500, len(subset)
    assert [argv for argv, d in subset if corpus.digest(argv) != d] == []
