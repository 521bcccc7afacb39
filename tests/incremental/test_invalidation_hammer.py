"""Randomized invalidation hammer over the ``inter`` suite.

For random single-function edits, the incremental driver must
reanalyze exactly the edited function's weakly connected call-graph
component (``CallGraph.components``), replay everything else, and render
byte-identically to a cold run of the edited module.
"""

import random
import re

import pytest

from repro.cli import main
from repro.core.callgraph import CallGraph
from repro.core.interprocedural import analyse_module
from repro.incremental.driver import analyse_module_incremental
from repro.incremental.fingerprint import module_fingerprints
from repro.incremental.store import IncrementalStore
from repro.workloads import suite

from tests.incremental.helpers import MULTI_COMPONENT, build, rendered

#: One seeded stream of random edits each.
SEEDS = (0, 1, 2)
EDITS_PER_TARGET = 3


def sources():
    out = [("multi_component", MULTI_COMPONENT)]
    out.extend((w.name, w.source) for w in suite("inter"))
    return out


def function_spans(source):
    """(name, body_start, body_end) for every ``func`` in ``source``."""
    spans = []
    for match in re.finditer(r"\bfunc\s+(\w+)\s*\(", source):
        opening = source.index("{", match.end())
        depth = 0
        for position in range(opening, len(source)):
            if source[position] == "{":
                depth += 1
            elif source[position] == "}":
                depth -= 1
                if depth == 0:
                    spans.append((match.group(1), opening, position))
                    break
    return spans


def random_single_function_edit(source, rng):
    """Bump one integer literal inside one function; (edited, name)."""
    spans = [span for span in function_spans(source)]
    rng.shuffle(spans)
    for name, start, end in spans:
        body = source[start:end]
        literals = [
            m for m in re.finditer(r"(?<![\w.])\d+", body)
        ]
        if not literals:
            continue
        chosen = rng.choice(literals)
        value = int(chosen.group(0))
        edited_body = (
            body[: chosen.start()] + str(value + 1) + body[chosen.end():]
        )
        return source[:start] + edited_body + source[end:], name
    raise AssertionError("no editable literal found")


@pytest.mark.parametrize("seed", SEEDS)
def test_hammer_reanalyzes_exactly_the_affected_set(seed):
    rng = random.Random(0xC0FFEE + seed)
    for target, source in sources():
        base_module, _ = build(source)
        base_fps = module_fingerprints(base_module)
        for _ in range(EDITS_PER_TARGET):
            # A fresh store warmed only with the base module: two
            # random edits may coincide, and a store that already saw
            # the edit would (correctly) replay it.
            store = IncrementalStore()
            warm_module, warm_infos = build(source)
            analyse_module_incremental(warm_module, warm_infos, store)
            edited_source, edited_name = random_single_function_edit(
                source, rng
            )
            edited_module, edited_infos = build(edited_source)
            edited_fps = module_fingerprints(edited_module)
            changed = {
                name
                for name, fps in edited_fps.items()
                if fps["semantic"] != base_fps[name]["semantic"]
            }
            assert changed == {edited_name}, (target, edited_name, changed)

            expected = {
                name
                for component in CallGraph(edited_module).components()
                if changed & set(component.members)
                for name in component.members
            }
            prediction, outcome = analyse_module_incremental(
                edited_module, edited_infos, store
            )
            context = (target, seed, edited_name)
            assert set(outcome.reanalyzed) == expected, context
            assert set(outcome.replayed) == (
                set(edited_module.functions) - expected
            ), context

            cold_module, cold_infos = build(edited_source)
            cold = analyse_module(cold_module, cold_infos)
            assert rendered(prediction) == rendered(cold), context


class TestRenderedOutputsByteIdentical:
    """CLI-level identity: predict and check, text/json/sarif."""

    @pytest.fixture(scope="class")
    def edited_file(self, tmp_path_factory):
        source = suite("inter")[2].source  # inter_pipeline: 3 functions
        edited, _ = random_single_function_edit(source, random.Random(7))
        path = tmp_path_factory.mktemp("hammer") / "edited.toy"
        path.write_text(edited)
        return str(path)

    def test_predict_table(self, edited_file, tmp_path, capsys):
        base = ["predict", edited_file]
        store = str(tmp_path / "store")
        cold_code = main(base)
        cold_out = capsys.readouterr().out
        first_code = main(base + ["--incremental", "--store-dir", store])
        first_out = capsys.readouterr().out
        warm_code = main(base + ["--incremental", "--store-dir", store])
        warm_out = capsys.readouterr().out
        assert (first_code, warm_code) == (cold_code, cold_code)
        assert first_out == cold_out
        assert warm_out == cold_out

    @pytest.mark.parametrize("fmt", ["text", "json", "sarif"])
    def test_check_formats(self, edited_file, tmp_path, capsys, fmt):
        base = ["check", edited_file, "--format", fmt]
        store = str(tmp_path / "store")
        cold_code = main(base)
        cold_out = capsys.readouterr().out
        first_code = main(base + ["--incremental", "--store-dir", store])
        first_out = capsys.readouterr().out
        warm_code = main(base + ["--incremental", "--store-dir", store])
        warm_out = capsys.readouterr().out
        assert (first_code, warm_code) == (cold_code, cold_code)
        assert first_out == cold_out
        assert warm_out == cold_out
