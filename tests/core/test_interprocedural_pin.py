"""The interprocedural surface of the corpus, pinned by digest.

``interprocedural_digests.json`` holds, per source and context depth
k = 0/1/2, the SHA-256 of everything an interprocedural run shows: the
``predict`` table, the ``ranges`` listing, the ``check`` text,
``rounds``, the ``interprocedural`` statistics, every work counter, the
summary taint and its seed sources (in the order the prediction holds
them).  A cold run, a first incremental run (every component a store
miss) and a replay from that store must each reproduce the pinned
digest.

It also pins the encoded store payload of every component of
``MULTI_COMPONENT`` at k = 0 and 2, so a store written by an earlier
build still replays.

Regenerate the file only for a change meant to move interprocedural
results (and bump ``PAYLOAD_VERSION`` if the payloads move):
``PYTHONPATH=src python -m tests.core.test_interprocedural_pin``.
"""

import hashlib
import json
import os

import pytest

from repro import rendering
from repro.core import VRPPredictor
from repro.core.config import VRPConfig
from repro.diagnostics import check_module, render_text
from repro.heuristics import BallLarusPredictor
from repro.incremental import IncrementalStore, analyse_module_incremental
from repro.ir import prepare_module
from repro.lang import compile_source

HERE = os.path.dirname(__file__)
DIGESTS = os.path.join(HERE, "interprocedural_digests.json")
DEPTHS = (0, 1, 2)
PAYLOAD_DEPTHS = (0, 2)


def corpus():
    """name -> source: the truth programs, the ``inter`` suite, edit-loop
    at seeds 11/12, large-modules block 0 and ``MULTI_COMPONENT``."""
    from benchmarks.ledger.corpus import EditableModule, large_block, truth_corpus
    from repro.workloads import suite
    from tests.incremental.helpers import MULTI_COMPONENT

    sources = {program.name: program.source for program in truth_corpus()}
    sources.update((f"inter/{w.name}", w.source) for w in suite("inter"))
    for seed in (11, 12):
        sources[f"edit-loop/{seed}"] = EditableModule(seed).source()
    for index, source in large_block(11, 0):
        sources[f"large-modules/11/{index}"] = source
    sources["multi_component"] = MULTI_COMPONENT
    return sources


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def surface(name: str, source: str, depth: int, store=None) -> str:
    module = compile_source(source)
    infos = prepare_module(module)
    prediction = VRPPredictor(
        config=VRPConfig(context_depth=depth), incremental_store=store
    ).predict_module(module, infos)
    report = check_module(module, prediction, program=name)
    return sha256(
        json.dumps(
            [
                rendering.branch_table(
                    prediction.all_branches(), prediction.heuristic_branches()
                ),
                rendering.ranges_listing(prediction),
                render_text(report),
                prediction.rounds,
                prediction.interprocedural,
                prediction.counters.as_dict(),
                prediction.summary_taint,
                prediction.taint_sources,
            ]
        )
    )


class RecordingStore(IncrementalStore):
    """An in-memory store that remembers the disk payload of every
    component state written to it."""

    def __init__(self):
        super().__init__()
        self.written = {}

    def put(self, key, state):
        self.written[key] = state.to_json()
        super().put(key, state)


def payload_digests(depth: int) -> dict:
    from tests.incremental.helpers import MULTI_COMPONENT, build

    store = RecordingStore()
    module, infos = build(MULTI_COMPONENT)
    analyse_module_incremental(
        module,
        infos,
        store,
        config=VRPConfig(context_depth=depth),
        heuristic=BallLarusPredictor().as_fallback(),
    )
    return {
        key: sha256(json.dumps(payload, sort_keys=True))
        for key, payload in store.written.items()
    }


SOURCES = corpus()
CASES = [(name, depth) for name in sorted(SOURCES) for depth in DEPTHS]


def case_id(name: str, depth: int) -> str:
    return f"{name}@k{depth}"


@pytest.fixture(scope="module")
def pinned():
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)


def test_the_pinned_corpus_is_the_current_corpus(pinned):
    assert sorted(pinned["surfaces"]) == sorted(case_id(*case) for case in CASES)


@pytest.mark.parametrize("name,depth", CASES, ids=[case_id(*c) for c in CASES])
def test_every_mode_matches_the_pinned_surface(name, depth, pinned):
    expected = pinned["surfaces"][case_id(name, depth)]
    source = SOURCES[name]
    assert surface(name, source, depth) == expected, "cold run moved"
    store = IncrementalStore()
    assert surface(name, source, depth, store) == expected, "first incremental run moved"
    assert surface(name, source, depth, store) == expected, "replay moved"


@pytest.mark.parametrize("depth", PAYLOAD_DEPTHS)
def test_component_payloads_match_the_pinned_encoding(depth, pinned):
    assert payload_digests(depth) == pinned["payloads"][f"k{depth}"]


if __name__ == "__main__":
    document = {
        "surfaces": {
            case_id(name, depth): surface(name, SOURCES[name], depth)
            for name, depth in CASES
        },
        "payloads": {f"k{depth}": payload_digests(depth) for depth in PAYLOAD_DEPTHS},
    }
    with open(DIGESTS, "w", encoding="utf-8") as out:
        json.dump(document, out, indent=1, sort_keys=True)
        out.write("\n")
