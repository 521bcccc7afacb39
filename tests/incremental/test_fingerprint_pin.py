"""Semantic and exact fingerprints of the corpus, pinned by digest.

``fingerprint_digests.json`` holds, per source, the SHA-256 of its
prepared module's :func:`module_fingerprints` (unsalted, both kinds,
every function).  Stored summaries are addressed by these
fingerprints, so a change to how they are computed must reproduce
them byte for byte or every store entry goes cold.

Regenerate the file only for a change meant to move the fingerprints
(and bump ``PAYLOAD_VERSION`` with it):
``PYTHONPATH=src python -m tests.incremental.test_fingerprint_pin``.
"""

import hashlib
import json
import os

import pytest

from repro.incremental.fingerprint import module_fingerprints
from repro.ir import prepare_module
from repro.lang import compile_source

HERE = os.path.dirname(__file__)
DIGESTS = os.path.join(HERE, "fingerprint_digests.json")


def corpus():
    """name -> source: the 33 truth programs and the seed-11 edit module."""
    from benchmarks.ledger.corpus import EditableModule, truth_corpus

    sources = {program.name: program.source for program in truth_corpus()}
    sources["edit-loop/11"] = EditableModule(11).source()
    return sources


def digest(source: str) -> str:
    module = compile_source(source)
    prepare_module(module)
    text = json.dumps(module_fingerprints(module), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


SOURCES = corpus()


@pytest.fixture(scope="module")
def pinned():
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)


def test_the_pinned_corpus_is_the_current_corpus(pinned):
    assert sorted(pinned) == sorted(SOURCES)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_fingerprints_match_the_pinned_digest(name, pinned):
    assert digest(SOURCES[name]) == pinned[name]


if __name__ == "__main__":
    with open(DIGESTS, "w", encoding="utf-8") as out:
        json.dump({name: digest(src) for name, src in sorted(corpus().items())}, out, indent=1)
        out.write("\n")
