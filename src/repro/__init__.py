"""repro: Accurate Static Branch Prediction by Value Range Propagation.

A from-scratch Python reproduction of Jason R. C. Patterson's PLDI 1995
paper.  The package contains everything the paper's system needs:

* :mod:`repro.lang` -- a toy imperative language (the SPEC stand-in's
  source language);
* :mod:`repro.ir` -- a three-address SSA IR with assertion (Pi) nodes;
* :mod:`repro.core` -- weighted value ranges and the propagation engine
  (the paper's contribution), including interprocedural analysis and
  procedure cloning;
* :mod:`repro.heuristics` -- the 90/50 rule, Ball–Larus heuristics with
  Wu–Larus combination, and random prediction (the baselines);
* :mod:`repro.profiling` -- an IR interpreter with edge profiling
  (execution profiling baseline + ground truth);
* :mod:`repro.analysis` -- copy propagation, natural loops;
* :mod:`repro.opt` -- the applications: unreachable code, constant/copy
  subsumption, bounds-check elimination, array alias tests, code layout;
* :mod:`repro.workloads` -- the synthetic SPECint/SPECfp-style suites;
* :mod:`repro.evalharness` -- the error-CDF evaluation reproducing the
  paper's figures.

Quickstart::

    from repro import compile_and_predict
    probabilities = compile_and_predict(source_text)
"""

from typing import Dict, Optional, Tuple

from repro.core import VRPConfig, VRPPredictor
from repro.ir import prepare_module
from repro.lang import compile_source

__version__ = "1.1.0"


def compile_and_predict(
    source: str,
    config: Optional[VRPConfig] = None,
    interprocedural: bool = True,
) -> Dict[Tuple[str, str], float]:
    """Compile toy-language source and predict every conditional branch.

    Returns a mapping ``(function name, branch block label) -> P(true)``.
    This is the paper's headline capability in one call.
    """
    module = compile_source(source)
    ssa_infos = prepare_module(module)
    predictor = VRPPredictor(config=config, interprocedural=interprocedural)
    prediction = predictor.predict_module(module, ssa_infos)
    return prediction.all_branches()


__all__ = ["VRPConfig", "VRPPredictor", "compile_and_predict", "__version__"]
