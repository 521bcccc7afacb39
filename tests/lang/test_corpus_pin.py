"""Token streams and ASTs of the whole corpus, pinned by digest.

``frontend_digests.json`` holds, per source, the SHA-256 of its token
stream and of its AST dump as the character-at-a-time lexer and the
one-method-per-precedence-level parser produced them.  The rewritten
front end must reproduce both exactly, ``line`` fields included.

Regenerate the file only for a change meant to move the front end's
output: ``PYTHONPATH=src python -m tests.lang.test_corpus_pin``.
"""

import glob
import hashlib
import json
import os

import pytest

from repro.lang import Parser, tokenize
from repro.lang.ast_nodes import Node

HERE = os.path.dirname(__file__)
ROOT = os.path.join(HERE, "..", "..")
DIGESTS = os.path.join(HERE, "frontend_digests.json")


def corpus():
    """name -> source: ``examples/*.toy``, the registry, the edit-loop modules."""
    from benchmarks.ledger.corpus import EditableModule
    from repro.workloads import all_workloads

    sources = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.toy"))):
        with open(path, encoding="utf-8") as handle:
            sources["examples/" + os.path.basename(path)] = handle.read()
    for workload in all_workloads():
        sources["workload/" + workload.name] = workload.source
    for seed in (11, 12):
        sources[f"edit-loop/{seed}"] = EditableModule(seed).source()
    return sources


def dump(value):
    """A node as (class, (slot, value)...), recursively; lists element-wise."""
    if isinstance(value, Node):
        slots = sorted(
            slot for cls in type(value).__mro__ for slot in getattr(cls, "__slots__", ())
        )
        return (type(value).__name__,) + tuple(
            (slot, dump(getattr(value, slot))) for slot in slots
        )
    if isinstance(value, list):
        return [dump(item) for item in value]
    return value


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(source: str):
    tokens = tokenize(source)
    stream = "\n".join(
        repr((t.kind, t.text, t.value, t.line, t.column)) for t in tokens
    )
    return [sha256(stream), sha256(repr(dump(Parser(tokens).parse_program())))]


SOURCES = corpus()


@pytest.fixture(scope="module")
def pinned():
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)


def test_the_pinned_corpus_is_the_current_corpus(pinned):
    assert sorted(pinned) == sorted(SOURCES)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_tokens_and_ast_match_the_pinned_digests(name, pinned):
    tokens_digest, ast_digest = digests(SOURCES[name])
    assert tokens_digest == pinned[name][0], "token stream moved"
    assert ast_digest == pinned[name][1], "AST moved"


if __name__ == "__main__":
    with open(DIGESTS, "w", encoding="utf-8") as out:
        json.dump({name: digests(src) for name, src in sorted(corpus().items())}, out, indent=1)
        out.write("\n")
