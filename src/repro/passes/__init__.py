"""Unified pass manager: declarative passes over cached analyses.

* :mod:`repro.passes.base`     -- :class:`Pass` / :class:`FunctionPass` /
  :class:`ModulePass` with ``preserves`` contracts;
* :mod:`repro.passes.cache`    -- :class:`AnalysisCache`, demand-computed
  CFG/dominance/postdominance/loop/context/prediction/callgraph analyses
  with ``preserves``-driven invalidation;
* :mod:`repro.passes.library`  -- every §6 client as a registered pass;
* :mod:`repro.passes.pipeline` -- the registry, the named pipelines
  (``predict`` / ``optimize`` / ``diagnose``) and :class:`PassPipeline`.

Everything is loaded lazily (PEP 562), so the package import stays
side-effect free and cycle-proof.
"""

_LAZY = {
    "ANALYSIS_NAMES": "repro.passes.base",
    "PRESERVES_ALL": "repro.passes.base",
    "PRESERVES_NONE": "repro.passes.base",
    "STRUCTURAL": "repro.passes.base",
    "FunctionPass": "repro.passes.base",
    "ModulePass": "repro.passes.base",
    "Pass": "repro.passes.base",
    "PassResult": "repro.passes.base",
    "AnalysisCache": "repro.passes.cache",
    "PASS_REGISTRY": "repro.passes.pipeline",
    "PIPELINES": "repro.passes.pipeline",
    "PassPipeline": "repro.passes.pipeline",
    "PassRun": "repro.passes.pipeline",
    "PipelineResult": "repro.passes.pipeline",
    "available_passes": "repro.passes.pipeline",
    "create_pass": "repro.passes.pipeline",
    "parse_passes": "repro.passes.pipeline",
    "register_pass": "repro.passes.pipeline",
    "run_pipeline": "repro.passes.pipeline",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    if name == "PASS_REGISTRY":
        importlib.import_module("repro.passes.library")
    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "ANALYSIS_NAMES",
    "PASS_REGISTRY",
    "PIPELINES",
    "PRESERVES_ALL",
    "PRESERVES_NONE",
    "STRUCTURAL",
    "AnalysisCache",
    "FunctionPass",
    "ModulePass",
    "Pass",
    "PassPipeline",
    "PassResult",
    "PassRun",
    "PipelineResult",
    "available_passes",
    "create_pass",
    "parse_passes",
    "register_pass",
    "run_pipeline",
]
