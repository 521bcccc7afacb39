"""Three-address SSA intermediate representation.

The IR is the substrate the paper's analysis runs over: basic blocks,
explicit control-flow edges, phi-functions, and the paper's post-branch
assertion nodes (:class:`~repro.ir.instructions.Pi`).

Typical pipeline::

    from repro.ir import prepare_for_analysis
    prepare_for_analysis(function)   # unreachable removal, edge splitting,
                                     # assertions, SSA construction
"""

from repro.ir.assertions import insert_assertions
from repro.ir.cfg import (
    CFG,
    prune_unreachable_blocks,
    remove_unreachable_blocks,
    split_critical_edges,
)
from repro.ir.dominance import DominatorTree
from repro.ir.function import BasicBlock, Function, Module
from repro.ir.instructions import (
    BINARY_OPS,
    CMP_NEGATION,
    CMP_OPS,
    CMP_SWAP,
    UNARY_OPS,
    BinOp,
    Branch,
    Call,
    Cmp,
    Copy,
    Input,
    Instruction,
    Jump,
    Load,
    Phi,
    Pi,
    Return,
    Store,
    UnOp,
)
from repro.ir.printer import format_function, format_module
from repro.ir.ssa import (
    PARAM_DEF,
    SSAEdges,
    SSAInfo,
    build_ssa_edges,
    construct_ssa,
)
from repro.ir.values import Constant, Temp, UNDEF, Undef, Value
from repro.ir.verifier import VerificationError, verify_function, verify_module


def prepare_for_analysis(function: Function, assertions: bool = True) -> SSAInfo:
    """Canonicalise a freshly lowered function for analysis.

    Removes unreachable blocks, splits conditional out-edges so each has
    a unique destination, inserts assertion (Pi) nodes, and rewrites into
    SSA form.  Returns the :class:`SSAInfo` from SSA construction.

    The structure is computed once: the reachability walk yields the
    predecessor counts that edge splitting keeps current and assertion
    insertion reads, and one :class:`CFG` snapshot taken after splitting
    (assertions and SSA add no edges) serves SSA construction and the
    verifier, together with its memoised dominator tree.

    Each stage runs under a tracer span ("cfg-cleanup" / "assert" /
    "ssa"), so phase timings cover the whole pipeline when a tracer is
    active; the default NullTracer makes the spans no-ops.
    """
    from repro.observability import tracer as tracing

    function.source_key = None  # no longer what lowering made
    tracer = tracing.active()
    with tracer.span("cfg-cleanup"):
        _, pred_count = prune_unreachable_blocks(function)
        split_critical_edges(function, pred_count)
        cfg = CFG(function)
    if assertions:
        with tracer.span("assert"):
            insert_assertions(function, pred_count)
    with tracer.span("ssa"):
        info = construct_ssa(function, cfg)
        verify_function(
            function, ssa=True, param_names=set(info.param_names.values()), cfg=cfg
        )
    return info


def prepare_module(module: Module, assertions: bool = True) -> dict:
    """Run :func:`prepare_for_analysis` on every function in a module.

    Returns a mapping of function name to :class:`SSAInfo`.

    A function that :func:`~repro.lang.lowering.lower_program` produced
    and nothing changed since carries its source key, and is trusted to
    be exactly what that key lowers to, ``source_shift`` lines down:
    once the key has been prepared twice, a copy of the prepared
    template (and of its ``SSAInfo``) moved that many lines replaces the
    function in ``module.functions`` instead of preparing it again (see
    :mod:`repro.ir.memo`).  A template keeps its source's own lines.
    Every prepared function of a key is stamped with the key's memo
    entry.
    """
    from repro.ir import memo

    infos = {}
    used = {}
    functions = module.functions
    for name, function in list(functions.items()):
        source_key = function.source_key
        if source_key is None:
            infos[name] = prepare_for_analysis(function, assertions=assertions)
            continue
        key = (source_key, assertions)
        entry = memo.PREPARED.get(key)
        if entry is None:
            entry = memo.Entry()
            infos[name] = prepare_for_analysis(function, assertions=assertions)
        elif entry.template is None:
            info = infos[name] = prepare_for_analysis(function, assertions=assertions)
            entry.template = (function.copy(lines=-function.source_shift), info.copy())
        else:
            template, info = entry.template
            function = functions[name] = template.copy(lines=function.source_shift)
            infos[name] = info.copy()
        function.stamp = entry
        used[key] = entry
    if used:
        memo.keep(memo.PREPARED, used)
    return infos


__all__ = [
    "BINARY_OPS",
    "CMP_NEGATION",
    "CMP_OPS",
    "CMP_SWAP",
    "UNARY_OPS",
    "BasicBlock",
    "BinOp",
    "Branch",
    "CFG",
    "Call",
    "Cmp",
    "Constant",
    "Copy",
    "DominatorTree",
    "Function",
    "Input",
    "Instruction",
    "Jump",
    "Load",
    "Module",
    "PARAM_DEF",
    "Phi",
    "Pi",
    "Return",
    "SSAEdges",
    "SSAInfo",
    "Store",
    "Temp",
    "UNDEF",
    "UnOp",
    "Undef",
    "Value",
    "VerificationError",
    "build_ssa_edges",
    "construct_ssa",
    "format_function",
    "format_module",
    "insert_assertions",
    "prepare_for_analysis",
    "prepare_module",
    "prune_unreachable_blocks",
    "remove_unreachable_blocks",
    "split_critical_edges",
    "verify_function",
    "verify_module",
]
