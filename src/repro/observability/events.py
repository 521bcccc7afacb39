"""Event taxonomy for the propagation engine's trace stream.

Every event is a small frozen dataclass with a ``kind`` string (the
stable, dotted taxonomy name used in JSONL output and event counting)
and an :meth:`~TraceEvent.as_dict` serialisation.  Range sets and
bounds are stored as their string forms -- events are diagnostics, not
live lattice values, and strings keep the stream JSON-serialisable and
immune to later mutation.

Taxonomy:

=====================  ====================================================
kind                   meaning
=====================  ====================================================
``worklist.push``      an item entered the flow or SSA worklist
``worklist.pop``       an item was taken off a worklist for processing
``lattice.transition`` an SSA name's range set changed (old -> new)
``phi.merge``          a phi evaluation produced a merged range set
``pi.refine``          a pi assertion refined its source range
``derive.attempt``     loop derivation was tried (template or failure)
``heuristic.chain``    the Ball-Larus heuristics fired on a branch
``branch.resolve``     a branch probability was (re)computed
``diagnostic.finding`` a static-diagnostics rule fired (``repro check``)
``vrp.interprocedural.round_cap`` a call-graph component's fixed point hit
                       the round cap while still changing (recursive SCC)
``pass.begin``         the pass manager started running a pass
``pass.end``           a pass finished (effect, timing, cache traffic)
``server.request.begin`` the serving daemon accepted a request
``server.request.end``   a request finished (status, latency, cache tier)
=====================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar, Optional, Tuple


@dataclass(frozen=True)
class TraceEvent:
    """Base class: a ``kind`` tag plus dataclass fields."""

    kind: ClassVar[str] = "event"

    def as_dict(self) -> dict:
        out = {"kind": self.kind}
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, tuple):
                value = [list(v) if isinstance(v, tuple) else v for v in value]
            out[field.name] = value
        return out


@dataclass(frozen=True)
class WorklistPush(TraceEvent):
    """An item entered one of the two worklists."""

    kind: ClassVar[str] = "worklist.push"

    function: str
    list_name: str  # "flow" | "ssa"
    item: str


@dataclass(frozen=True)
class WorklistPop(TraceEvent):
    """An item left a worklist to be processed."""

    kind: ClassVar[str] = "worklist.pop"

    function: str
    list_name: str
    item: str


@dataclass(frozen=True)
class LatticeTransition(TraceEvent):
    """An SSA name's range set moved in the lattice (old -> new)."""

    kind: ClassVar[str] = "lattice.transition"

    function: str
    name: str
    old: str
    new: str


@dataclass(frozen=True)
class PhiMerge(TraceEvent):
    """Outcome of a phi merge (before the lattice update is applied)."""

    kind: ClassVar[str] = "phi.merge"

    function: str
    name: str
    label: str
    result: str
    widened: bool
    frozen: bool


@dataclass(frozen=True)
class PiRefinement(TraceEvent):
    """A pi assertion refined its source's range set."""

    kind: ClassVar[str] = "pi.refine"

    function: str
    dest: str
    src: str
    op: str
    bound: str
    before: str
    after: str


@dataclass(frozen=True)
class DerivationAttempt(TraceEvent):
    """One loop-derivation attempt: the matched template or the failure."""

    kind: ClassVar[str] = "derive.attempt"

    function: str
    name: str
    status: str  # "derived" | "failed" | "not_ready"
    detail: str  # template description on success, reason otherwise
    result: Optional[str]


@dataclass(frozen=True)
class HeuristicChain(TraceEvent):
    """Which Ball-Larus heuristics fired on a branch, and the fusion."""

    kind: ClassVar[str] = "heuristic.chain"

    function: str
    label: str
    mode: str  # "dempster-shafer" | "priority"
    chain: Tuple[Tuple[str, float], ...]
    combined: float


@dataclass(frozen=True)
class BranchResolution(TraceEvent):
    """A branch probability was computed, with its provenance."""

    kind: ClassVar[str] = "branch.resolve"

    function: str
    label: str
    source: str  # "ranges" | "heuristic"
    probability: float
    cond: Optional[str]
    cond_range: Optional[str]
    cmp_op: Optional[str]
    operands: Tuple[Tuple[str, str], ...]  # (operand name/repr, range str)


@dataclass(frozen=True)
class DiagnosticFinding(TraceEvent):
    """A diagnostics rule fired on the analysed program."""

    kind: ClassVar[str] = "diagnostic.finding"

    function: str
    rule: str
    severity: str  # "error" | "warning" | "info"
    block: str
    line: Optional[int]
    message: str


@dataclass(frozen=True)
class RoundCap(TraceEvent):
    """The interprocedural round cap silenced a still-changing fixed point.

    Emitted at most once per weakly connected call-graph component, when
    its round ``max_rounds`` still observed a parameter or return range
    change -- i.e. a recursive SCC had not converged and its last-round
    ranges were frozen as-is.  ``functions`` names the component's
    recursive members (the only functions whose ranges can still be
    moving).
    """

    kind: ClassVar[str] = "vrp.interprocedural.round_cap"

    module: str
    rounds: int
    functions: Tuple[str, ...]


@dataclass(frozen=True)
class PassBegin(TraceEvent):
    """The pass manager is about to run a pass."""

    kind: ClassVar[str] = "pass.begin"

    pass_name: str
    mutates: bool


@dataclass(frozen=True)
class PassEnd(TraceEvent):
    """A pass finished: what it changed and what it cost."""

    kind: ClassVar[str] = "pass.end"

    pass_name: str
    changed: int
    seconds: float
    cache_hits: int
    cache_misses: int
    invalidated: int


@dataclass(frozen=True)
class ServerRequestBegin(TraceEvent):
    """The serving daemon accepted a request for processing."""

    kind: ClassVar[str] = "server.request.begin"

    endpoint: str
    command: Optional[str]
    trace_id: Optional[str] = None


@dataclass(frozen=True)
class ServerRequestEnd(TraceEvent):
    """A served request finished (however it went)."""

    kind: ClassVar[str] = "server.request.end"

    endpoint: str
    command: Optional[str]
    status: int  # HTTP status code of the response
    elapsed_ms: float
    cached: Optional[str]  # None | "memory" | "disk"
    degraded: bool
    trace_id: Optional[str] = None


@dataclass(frozen=True)
class WatchRecheck(TraceEvent):
    """``repro watch`` re-rendered one file after a content change.

    ``reanalyzed``/``replayed`` count functions: how many the edit
    actually invalidated (the call-graph components holding the edited
    functions) versus how many the incremental store replayed
    byte-identically.
    """

    kind: ClassVar[str] = "watch.recheck"

    path: str
    reanalyzed: int
    replayed: int
    elapsed_ms: float
    initial: bool = False


EVENT_KINDS: Tuple[str, ...] = tuple(
    cls.kind
    for cls in (
        WorklistPush,
        WorklistPop,
        LatticeTransition,
        PhiMerge,
        PiRefinement,
        DerivationAttempt,
        HeuristicChain,
        BranchResolution,
        DiagnosticFinding,
        RoundCap,
        PassBegin,
        PassEnd,
        ServerRequestBegin,
        ServerRequestEnd,
        WatchRecheck,
    )
)
