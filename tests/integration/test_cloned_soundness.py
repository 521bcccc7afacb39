"""Soundness of the analysis over cloned modules (paper §3.7).

Procedure cloning rewrites a module: each group of call sites whose
argument ranges agree calls its own copy of the callee, and the copy is
analysed under that group's ranges alone.  Every value the interpreter
observes in the cloned module, run on the workload's ref inputs, must
lie in the final range of its SSA name in its own copy.
"""

import pytest

from repro.core.cloning import analyse_with_cloning
from repro.core.rangeset import BOTTOM
from repro.ir import prepare_module
from repro.lang import compile_source
from repro.profiling.interpreter import Interpreter
from repro.workloads import get_workload, suite

from tests.integration.test_fuzz_soundness import assert_sound, hull_bounds

#: The suite workloads cloning changes.
CLONED = (
    "inter_dispatch",
    "inter_mixpair",
    "inter_pipeline",
    "poly",
    "smooth",
    "strsearch",
)


def cloned(workload):
    """``(module, refined prediction, clone report)`` after cloning."""
    module = compile_source(workload.source, module_name=workload.name)
    infos = prepare_module(module)
    refined, report, _ = analyse_with_cloning(module, infos)
    return module, refined, report


def test_the_cloned_workloads_are_the_listed_ones():
    changed = [
        workload.name
        for workload in suite("inter") + suite("int") + suite("fp")
        if cloned(workload)[2].variants
    ]
    assert sorted(changed) == sorted(CLONED)


@pytest.mark.parametrize("name", CLONED)
def test_observed_values_lie_in_the_cloned_ranges(name):
    workload = get_workload(name)
    module, refined, report = cloned(workload)
    run = Interpreter(
        module,
        max_steps=workload.max_steps,
        check_assertions=True,
        collect_values=True,
    ).run(args=workload.ref_args, input_values=workload.ref_inputs)
    clones = [clone for names in report.variants.values() for clone in names[1:]]
    assert clones and all(clone in module.functions for clone in clones)
    checked = 0
    for function, prediction in refined.functions.items():
        assert not prediction.aborted
        assert_sound(run, function, prediction, workload.source)
        checked += sum(
            1
            for (observed_in, ssa_name) in run.observed_values
            if observed_in == function
            and prediction.values.get(ssa_name, BOTTOM).is_set
            and hull_bounds(prediction.values[ssa_name]) is not None
        )
    assert checked > 0
