"""The pass manager: registry, named pipelines, and the scheduler.

:class:`PassPipeline` runs a sequence of passes over a prepared module
with a shared :class:`~repro.passes.cache.AnalysisCache`:

* analyses are computed on demand and reused until a mutating pass
  drops them (everything outside its ``preserves`` set);
* IR verification (``VRPConfig.verify_ir``) runs **once** per mutating
  pass per touched function -- the free functions' internal
  :func:`~repro.opt._verify.verify_after` calls are deferred while a
  pass runs and flushed by the manager afterwards;
* each pass runs under a tracer span (``pass:<name>``) bracketed by
  ``pass.begin``/``pass.end`` events, and its wall time and cache
  traffic land in metrics schema v4 (:meth:`PipelineResult.passes_metrics`).

Registered passes (``repro opt --list-passes``) live in
:mod:`repro.passes.library`; named pipelines in :data:`PIPELINES`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

from repro.core.config import VRPConfig
from repro.ir.function import Module
from repro.opt import _verify
from repro.passes.base import FunctionPass, ModulePass, Pass, PassResult, as_result
from repro.passes.cache import AnalysisCache

#: name -> Pass subclass, populated by the :func:`register_pass`
#: decorator on import of :mod:`repro.passes.library`.
PASS_REGISTRY: Dict[str, Type[Pass]] = {}

#: The named pipelines ``repro opt --pipeline`` accepts.  ``optimize``
#: mirrors the free-function reference sequence
#: (``tests/integration/test_optimization_pipeline.py``): one
#: prediction up front, then constant/copy folds that keep it live,
#: branch folding, and a dead-code sweep.
PIPELINES: Dict[str, Tuple[str, ...]] = {
    "predict": ("predict",),
    "optimize": ("fold-constants", "fold-copies", "fold-branches", "dce"),
    "diagnose": ("diagnose",),
}


def register_pass(cls: Type[Pass]) -> Type[Pass]:
    """Class decorator: add a Pass subclass to the registry by name."""
    name = cls.name
    existing = PASS_REGISTRY.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(f"duplicate pass name {name!r}")
    PASS_REGISTRY[name] = cls
    return cls


def _ensure_registered() -> None:
    import repro.passes.library  # noqa: F401  (registration side effect)


def available_passes() -> List[str]:
    """Registered pass names, sorted."""
    _ensure_registered()
    return sorted(PASS_REGISTRY)


def create_pass(name: str) -> Pass:
    """Instantiate a registered pass by name."""
    _ensure_registered()
    try:
        return PASS_REGISTRY[name]()
    except KeyError:
        known = ", ".join(available_passes())
        raise KeyError(f"unknown pass {name!r} (available: {known})") from None


def parse_passes(spec: str) -> List[str]:
    """Split a ``--passes a,b,c`` spec into pass names."""
    names = [part.strip() for part in spec.split(",") if part.strip()]
    if not names:
        raise ValueError("empty pass list")
    return names


@dataclass
class PassRun:
    """One pass execution: timing, effect, and cache traffic."""

    name: str
    seconds: float = 0.0
    changed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    invalidated: int = 0
    data: object = None

    def as_dict(self) -> dict:
        return {
            "pass": self.name,
            "seconds": self.seconds,
            "changed": self.changed,
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "invalidations": self.invalidated,
            },
        }


@dataclass
class PipelineResult:
    """Everything one :meth:`PassPipeline.run` produced."""

    module: Module
    cache: AnalysisCache
    runs: List[PassRun] = field(default_factory=list)

    @property
    def changed(self) -> int:
        return sum(run.changed for run in self.runs)

    def run_of(self, name: str) -> Optional[PassRun]:
        """The last run of the named pass, if it executed."""
        for run in reversed(self.runs):
            if run.name == name:
                return run
        return None

    def passes_metrics(self) -> dict:
        """The ``passes`` block of metrics schema v4."""
        return {
            "pipeline": [run.name for run in self.runs],
            "runs": [run.as_dict() for run in self.runs],
            "analyses": self.cache.stats(),
        }


class PassPipeline:
    """An ordered pass sequence sharing one analysis cache."""

    def __init__(
        self,
        passes: Sequence[Union[str, Pass]],
        config: Optional[VRPConfig] = None,
        name: str = "custom",
    ):
        self.passes: List[Pass] = [
            create_pass(item) if isinstance(item, str) else item for item in passes
        ]
        self.config = config or VRPConfig()
        #: Pipeline label used for the ``pipeline:<name>`` span.
        self.name = name

    @classmethod
    def select(
        cls,
        pipeline: str = "predict",
        passes: Optional[Sequence[Union[str, Pass]]] = None,
        config: Optional[VRPConfig] = None,
    ) -> "PassPipeline":
        """The explicit ``passes`` list when given, else the named
        ``pipeline``; an unknown name raises ``KeyError``."""
        if passes is not None:
            return cls(passes, config=config)
        try:
            names = PIPELINES[pipeline]
        except KeyError:
            known = ", ".join(sorted(PIPELINES))
            raise KeyError(
                f"unknown pipeline {pipeline!r} (available: {known})"
            ) from None
        return cls(names, config=config, name=pipeline)

    def run(
        self,
        module: Module,
        ssa_infos: Optional[dict] = None,
        cache: Optional[AnalysisCache] = None,
    ) -> PipelineResult:
        """Run every pass in order over a prepared (SSA) module."""
        from repro.observability import tracer as tracing

        if cache is None:
            cache = AnalysisCache(module, ssa_infos, config=self.config)
        tracer = tracing.active()
        result = PipelineResult(module=module, cache=cache)
        with tracer.span(f"pipeline:{self.name}"):
            self._run_passes(module, cache, tracer, result)
        return result

    def _run_passes(self, module, cache, tracer, result) -> None:
        from repro.observability.events import PassBegin, PassEnd

        for pass_ in self.passes:
            tracer.emit(PassBegin(pass_name=pass_.name, mutates=pass_.mutates))
            hits0 = sum(cache.hits.values())
            misses0 = sum(cache.misses.values())
            start = time.perf_counter()
            with tracer.span(f"pass:{pass_.name}"):
                pass_result = self._run_pass(pass_, module, cache)
                invalidated = 0
                if pass_.mutates and pass_result.changed:
                    invalidated = cache.invalidate(pass_.preserves)
            seconds = time.perf_counter() - start
            run = PassRun(
                name=pass_.name,
                seconds=seconds,
                changed=pass_result.changed,
                cache_hits=sum(cache.hits.values()) - hits0,
                cache_misses=sum(cache.misses.values()) - misses0,
                invalidated=invalidated,
                data=pass_result.data,
            )
            result.runs.append(run)
            tracer.emit(
                PassEnd(
                    pass_name=pass_.name,
                    changed=pass_result.changed,
                    seconds=seconds,
                    cache_hits=run.cache_hits,
                    cache_misses=run.cache_misses,
                    invalidated=invalidated,
                )
            )

    # -- internals ------------------------------------------------------------

    def _run_pass(self, pass_: Pass, module: Module, cache: AnalysisCache):
        """Run one pass, verifying each touched function exactly once.

        The free functions the library passes wrap call ``verify_after``
        themselves after every rewrite; running under
        :func:`repro.opt._verify.deferred` turns those into recordings,
        and the single flush below replays them (plus any functions the
        pass reported in ``touched``) once, under this pass's name.
        """
        if not pass_.mutates:
            return self._dispatch(pass_, module, cache)
        with _verify.deferred() as pending:
            pass_result = self._dispatch(pass_, module, cache)
            for name in pass_result.touched:
                function = module.functions.get(name)
                if function is not None and id(function) not in pending:
                    pending[id(function)] = function
            _verify.flush_deferred(
                pending, pass_.name, enabled=self.config.verify_ir
            )
        return pass_result

    def _dispatch(
        self, pass_: Pass, module: Module, cache: AnalysisCache
    ) -> PassResult:
        if isinstance(pass_, ModulePass):
            return as_result(pass_.run_on_module(module, cache))
        if not isinstance(pass_, FunctionPass):
            raise TypeError(f"{pass_!r} is neither a FunctionPass nor a ModulePass")
        total = PassResult(data={})
        for name, function in list(module.functions.items()):
            partial = as_result(pass_.run_on_function(function, cache))
            total.changed += partial.changed
            if partial.changed:
                total.touched.add(name)
            total.touched |= partial.touched
            if partial.data is not None:
                total.data[name] = partial.data
        if not total.data:
            total.data = None
        return total


def run_pipeline(
    module: Module,
    ssa_infos: Optional[dict] = None,
    pipeline: str = "predict",
    passes: Optional[Sequence[Union[str, Pass]]] = None,
    config: Optional[VRPConfig] = None,
) -> PipelineResult:
    """One-call convenience: run a named pipeline or an explicit list."""
    return PassPipeline.select(pipeline, passes, config).run(module, ssa_infos)
