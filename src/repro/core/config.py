"""Configuration for the value range propagation engine.

Every knob corresponds to a tradeoff the paper discusses; the defaults
are the paper's choices.  The ablation benchmarks sweep these.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Process-wide default for :attr:`VRPConfig.verify_ir`.  Production runs
# leave it off; the test suite turns it on (tests/conftest.py) so every
# IR-mutating pass is verified at the point it ran.
_DEFAULT_VERIFY_IR = False


def set_default_verify_ir(enabled: bool) -> None:
    """Set the process-wide default for :attr:`VRPConfig.verify_ir`."""
    global _DEFAULT_VERIFY_IR
    _DEFAULT_VERIFY_IR = bool(enabled)


def default_verify_ir() -> bool:
    """Current process-wide default for :attr:`VRPConfig.verify_ir`."""
    return _DEFAULT_VERIFY_IR


@dataclass
class VRPConfig:
    """Tunable parameters of value range propagation."""

    # Maximum ranges per variable (paper §3.4: "normally no more than four").
    max_ranges: int = 4
    # Track symbolic (variable-relative) ranges (paper's "with symbolic
    # ranges" vs "numeric ranges only" result lines).
    symbolic: bool = True
    # Derive loop-carried variables from templates instead of iterating
    # (paper §3.6); disabling falls back to brute-force propagation.
    derive_loops: bool = True
    # Prefer draining the FlowWorkList before the SSAWorkList (paper §3.3
    # step 2: "tends to cause information to be gathered more quickly").
    prefer_flow_list: bool = True
    # Probability / frequency change below this does not count as a
    # lattice change (fixed-point tolerance).
    tolerance: float = 1e-4
    # After this many re-evaluations of one phi, widen it (engineering
    # guard for underived loops; the paper notes brute-force iteration
    # "might only iterate several million times!").
    widen_after: int = 24
    # A phi whose value keeps *changing* -- even without hull growth,
    # e.g. an alternating recurrence reweighting probabilities forever --
    # freezes at its current value after this many changes.
    freeze_after: int = 200
    # Largest progression swept exactly in comparison counting; larger
    # pairs use the continuous approximation.
    exact_count_limit: int = 8192
    # When more than this fraction of a comparison's probability mass is
    # undecidable, the branch falls back to heuristics.
    max_unknown_mass: float = 0.5
    # Cap on block frequencies (infinite loops would diverge).
    frequency_cap: float = 1e9
    # Probability used for a branch before anything is known about it.
    default_branch_probability: float = 0.5
    # Track array contents flow-insensitively: a load returns the merge
    # of every range stored to that array (plus the zero initialiser)
    # instead of ⊥.  The paper treats loads as ⊥ "unless detailed alias
    # analysis information is available" -- this is the simplest such
    # analysis, sound for the toy language's function-local arrays.
    # Off by default (the paper's configuration).
    track_arrays: bool = False
    # Debug-mode lattice sanitizer: validate engine invariants during
    # propagation (transitions only descend the lattice, pi assertions
    # only narrow, branch out-edge frequencies sum to the block
    # frequency, no worklist item churns past stabilisation) and raise
    # :class:`repro.core.sanitize.SanitizerError` instead of silently
    # corrupting results.  Off by default: the enabled checks cost real
    # time, and the disabled hook is a single ``is not None`` test.
    sanitize: bool = False
    # Re-verify IR well-formedness after lowering and after every
    # IR-mutating optimisation pass, so corruption is caught at the
    # pass that introduced it.  Defaults to the process-wide setting
    # (off in production, on under the test suite).
    verify_ir: bool = field(default_factory=default_verify_ir)
