"""Post-pass IR verification (``VRPConfig.verify_ir``).

Every IR-mutating optimisation calls :func:`verify_after` before
returning.  With verification off (the production default) the call is
a single boolean test; with it on (the test suite turns it on
process-wide via ``set_default_verify_ir``) corruption is reported at
the pass that introduced it, with each problem prefixed by the pass
name.

When the pass manager (:mod:`repro.passes.pipeline`) drives a pass it
wraps the run in :func:`deferred`: the free functions' internal
``verify_after`` calls then *record* the mutated function instead of
verifying, and the manager flushes the recordings once per pass --
so a pass that rewrites a function several times (or several wrapped
helpers in sequence) costs one verification, not one per rewrite.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, Optional

from repro.core.config import default_verify_ir
from repro.ir.function import Function
from repro.ir.verifier import VerificationError, verify_function

# Deferral state: None when inactive; a {id(function): function} map
# while a pass manager owns verification.  A ContextVar keeps parallel
# evaluation workers and nested pipelines independent.
_DEFERRED: ContextVar[Optional[Dict[int, Function]]] = ContextVar(
    "repro-verify-deferred", default=None
)


def verify_after(
    function: Function, pass_name: str, enabled: Optional[bool] = None
) -> None:
    """Re-verify ``function`` (SSA form) after ``pass_name`` mutated it.

    The function is no longer what ``prepare_module`` made, so its
    front-end memo stamp (and the fingerprints it vouches for) goes.
    """
    function.stamp = None
    pending = _DEFERRED.get()
    if pending is not None:
        # Recorded unconditionally (cheap): the flusher applies the
        # manager's verify_ir setting, which may differ from the
        # process default this call would otherwise consult.
        pending[id(function)] = function
        return
    if not (default_verify_ir() if enabled is None else enabled):
        return
    _verify_now(function, pass_name)


@contextmanager
def deferred() -> Iterator[Dict[int, Function]]:
    """Collect ``verify_after`` calls instead of verifying immediately.

    Yields the recording map; the caller is responsible for passing it
    to :func:`flush_deferred` (typically once per mutating pass).
    """
    token = _DEFERRED.set({})
    try:
        yield _DEFERRED.get()
    finally:
        _DEFERRED.reset(token)


def flush_deferred(
    pending: Dict[int, Function], pass_name: str, enabled: Optional[bool] = None
) -> int:
    """Verify each recorded function once; returns functions verified.

    Must be called outside the :func:`deferred` block or with the
    recordings it yielded -- verification itself never re-enters the
    deferral (it calls the verifier directly).
    """
    if not (default_verify_ir() if enabled is None else enabled):
        pending.clear()
        return 0
    functions = list(pending.values())
    pending.clear()
    for function in functions:
        _verify_now(function, pass_name)
    return len(functions)


def _verify_now(function: Function, pass_name: str) -> None:
    param_names = {f"{param}.0" for param in function.params}
    try:
        verify_function(function, ssa=True, param_names=param_names)
    except VerificationError as exc:
        raise VerificationError(
            function.name,
            [f"after {pass_name}: {problem}" for problem in exc.problems],
        ) from exc
