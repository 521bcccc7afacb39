"""Prepared IR of the whole corpus, pinned by digest.

``prepare_digests.json`` holds, per source, the SHA-256 of the prepared
module as ``format_module`` prints it (predecessor lists included), of
every function's :class:`~repro.ir.SSAInfo` (``param_names``,
``original_name`` in insertion order, ``phi_count``), and of the
fields the printer leaves out (each instruction's source line and each
π's parent).  Stored incremental payloads name SSA values, so any
change to ``prepare_for_analysis`` must reproduce all three exactly.

Regenerate the file only for a change meant to move the prepared IR:
``PYTHONPATH=src python -m tests.ir.test_prepare_pin``.
"""

import hashlib
import json
import os

import pytest

from repro.ir import Pi, format_module, prepare_module
from repro.lang import compile_source

HERE = os.path.dirname(__file__)
DIGESTS = os.path.join(HERE, "prepare_digests.json")


def corpus():
    """name -> source: the 33 truth programs, edit-loop and large-modules."""
    from benchmarks.ledger.corpus import EditableModule, large_block, truth_corpus

    sources = {program.name: program.source for program in truth_corpus()}
    for seed in (11, 12):
        sources[f"edit-loop/{seed}"] = EditableModule(seed).source()
    for index, source in large_block(11, 0):
        sources[f"large-modules/11/{index}"] = source
    return sources


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(source: str):
    module = compile_source(source)
    infos = prepare_module(module)
    ssa = [
        (name, list(info.param_names.items()), list(info.original_name.items()),
         info.phi_count)
        for name, info in infos.items()
    ]
    hidden = [
        (instr.loc, instr.parent if isinstance(instr, Pi) else None)
        for function in module.functions.values()
        for instr in function.instructions()
    ]
    return [
        sha256(format_module(module, show_preds=True)),
        sha256(repr(ssa)),
        sha256(repr(hidden)),
    ]


SOURCES = corpus()


@pytest.fixture(scope="module")
def pinned():
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)


def test_the_pinned_corpus_is_the_current_corpus(pinned):
    assert sorted(pinned) == sorted(SOURCES)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_prepared_ir_matches_the_pinned_digests(name, pinned):
    ir_digest, ssa_digest, hidden_digest = digests(SOURCES[name])
    assert ir_digest == pinned[name][0], "prepared IR moved"
    assert ssa_digest == pinned[name][1], "SSAInfo moved"
    assert hidden_digest == pinned[name][2], "source lines or pi parents moved"


if __name__ == "__main__":
    with open(DIGESTS, "w", encoding="utf-8") as out:
        json.dump({name: digests(src) for name, src in sorted(corpus().items())}, out, indent=1)
        out.write("\n")
