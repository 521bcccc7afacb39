"""Incremental analysis: content-addressed per-function summary reuse.

The serve tier caches whole files and the pass manager caches per-CFG
analyses, but editing one function still re-pays the whole module's
interprocedural fixed point.  This package closes that gap:

* :mod:`repro.incremental.fingerprint` -- a canonical IR normalizer and
  SHA-256 fingerprint per function, stable under comments, whitespace
  and local renames, sensitive to any semantic edit;
* :mod:`repro.incremental.store` -- :class:`TwoTierStore`, a memory LRU
  over an atomic sharded on-disk format (the serve tier's result cache
  too), and :class:`IncrementalStore`, the same store mapping component
  fingerprints to decoded component states (JSON only on disk), with
  per-function counters;
* :mod:`repro.incremental.driver` -- the store as a per-component
  source for the interprocedural driver: replay clean call-graph
  components byte-identically, re-run the fixed point only over dirty
  ones (an edit dirties exactly its weakly connected component);
* :mod:`repro.incremental.watch` -- the ``repro watch`` polling loop.

See docs/INCREMENTAL.md for the fingerprint contract and the
invalidation rules.
"""

from repro.incremental.driver import IncrementalOutcome, analyse_module_incremental
from repro.incremental.fingerprint import (
    canonical_function_text,
    exact_fingerprint,
    function_fingerprint,
    fingerprint_salt,
)
from repro.incremental.store import IncrementalStore

__all__ = [
    "IncrementalOutcome",
    "IncrementalStore",
    "analyse_module_incremental",
    "canonical_function_text",
    "exact_fingerprint",
    "fingerprint_salt",
    "function_fingerprint",
]
