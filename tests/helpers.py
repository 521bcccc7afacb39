"""Shared helpers for the test suite."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core import VRPConfig
from repro.core.propagation import FunctionPrediction, analyse_function
from repro.core.rangeset import RangeSet
from repro.ir import prepare_for_analysis, prepare_module
from repro.ir.function import Function, Module
from repro.ir.ssa import SSAInfo
from repro.lang import compile_source

PAPER_EXAMPLE = """
func main(n) {
  var y = 0;
  for (x = 0; x < 10; x = x + 1) {
    if (x > 7) { y = 1; } else { y = x; }
    if (y == 1) { n = n + 1; }
  }
  return n;
}
"""


def compile_and_prepare(source: str) -> Tuple[Module, Dict[str, SSAInfo]]:
    """Compile source and canonicalise every function into SSA form."""
    module = compile_source(source)
    infos = prepare_module(module)
    return module, infos


def prepare_single(source: str, name: str = "main") -> Tuple[Function, SSAInfo]:
    """Compile a one-function program and prepare it."""
    module = compile_source(source)
    function = module.function(name)
    info = prepare_for_analysis(function)
    return function, info


def analyse(
    source: str,
    name: str = "main",
    config: Optional[VRPConfig] = None,
    param_ranges: Optional[Dict[str, RangeSet]] = None,
) -> FunctionPrediction:
    """Compile, prepare, and run intraprocedural VRP on one function."""
    function, info = prepare_single(source, name)
    return analyse_function(function, info, config=config, param_ranges=param_ranges)


def value_of_variable(prediction: FunctionPrediction, prefix: str) -> Dict[str, RangeSet]:
    """All SSA versions of a source variable, by full SSA name."""
    return {
        name: rangeset
        for name, rangeset in prediction.values.items()
        if name.startswith(prefix + ".")
    }


def shrink_caches(monkeypatch, capacity: int = 2) -> None:
    """Cap every bounded LRU of the analysis at ``capacity`` entries and
    empty them, so the next run starts cold with tables that evict."""
    from repro.core import perf
    from repro.core.perf import memo

    for cache in memo._ALL_CACHES:
        monkeypatch.setattr(cache, "capacity", capacity)
    perf.reset()
