"""The front-end memo: per-function reuse across compiles of one module.

An edit to one function leaves the text of the others as it was, so a
recheck need not parse, prepare or fingerprint them again.  Two tables,
each holding only what the latest compile used (so memory is bounded
by one module), carry the reuse:

* :data:`FUNCDEFS` -- function name -> (token span, parsed
  ``FuncDef``).  A span is the kind, text and line of every token from
  ``func`` to the closing brace.  ``Parser.parse_program`` compares the
  tokens at a function's start with the span of its name; on a match it
  skips them and yields the same (read-only) ``FuncDef`` object.
* :data:`PREPARED` -- (source key, ``assertions``) -> :class:`Entry`.
  ``lower_program`` marks each function with its source key: the
  ``FuncDef`` (identity, which the first table makes stable), the
  module's signatures and constants and the IR-verification default --
  everything lowering reads.  ``prepare_module`` prepares a key's
  function as before the first two times it sees the key, keeping a
  copy of the second result as the key's *template*; from then on it
  puts a copy of the template into the module instead of preparing.

The memo never gives out an object it keeps: templates are copied out,
with a copy of their ``SSAInfo``, so rewrites of a prepared module
(``repro opt``, cloning, inlining) never reach a later compile.  A
first sighting copies nothing.

Each entry also keeps the function's incremental fingerprints, one
pair per salt (:func:`repro.incremental.fingerprint.module_fingerprints`).
They hold for any function whose ``stamp`` is the entry, which
``prepare_module`` sets and every IR rewrite clears.

:func:`repro.core.perf.reset` empties both tables.

No lock guards the tables: an entry is found, or made, by one dict
operation, and a template is published whole, by one assignment, and
equals any other template of its key.  Two threads compiling at once
(a served request still running past its deadline) at worst both
prepare a function or keep a few more entries; neither reads a wrong
one.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple


class Entry:
    """What the memo knows about one source key."""

    __slots__ = ("template", "fingerprints")

    def __init__(self) -> None:
        #: ``(Function, SSAInfo)`` once the key has been prepared twice.
        self.template: Optional[Tuple[object, object]] = None
        #: salt -> ``{"semantic": ..., "exact": ...}``.
        self.fingerprints: Dict[str, Dict[str, str]] = {}


FUNCDEFS: Dict[tuple, object] = {}
PREPARED: Dict[tuple, Entry] = {}


def keep(table: dict, used: dict) -> None:
    """Make ``table`` hold exactly the entries of the latest compile."""
    table.clear()
    table.update(used)


def clear() -> None:
    """Forget every memoised function (a cold front end)."""
    FUNCDEFS.clear()
    PREPARED.clear()
