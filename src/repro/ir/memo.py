"""The front-end memo: reuse across compiles of one module.

An edit to one function leaves the text of the others as it was, so a
recheck need not lex, parse, lower, prepare or fingerprint them again.
Four tables, each holding only what the latest compile used (so memory
is bounded by one module), carry the reuse:

* :data:`UNITS` -- the text of each top-level unit of the latest
  source (from a line starting ``func`` or ``const`` to the next) ->
  ``(first line, tokens)``.  ``tokenize`` lexes only the units not
  found there; a found unit gives the same token objects on its old
  line and its tokens moved by whole lines on another, so the parser's
  span match below is settled at once by identity for every function
  the edit did not touch or move.
* :data:`FUNCDEFS` -- function name -> (token span, parsed
  ``FuncDef``).  A span is the tokens from ``func`` to the closing
  brace.  ``Parser.parse_program`` compares the tokens at a function's
  start with the span of its name by kind and text, and by line
  relative to ``func``: where the function sits in the file does not
  matter (tokens the lexer reused are the same objects, which settles
  it at once).  On a match it skips them and yields the same
  (read-only) ``FuncDef``, or a ``MovedFuncDef`` of it that says how
  many lines further down the function now starts.
* :data:`CONTEXT` -- the lowering context of the latest compile: the
  module's signatures and constants and the IR-verification default,
  everything lowering reads besides a ``FuncDef``.  An equal context is
  replaced by this object, so keys holding it compare by identity.
* :data:`PREPARED` -- (source key, ``assertions``) -> :class:`Entry`.
  ``lower_program`` marks each function with its source key -- the
  origin ``FuncDef`` (identity, which the second table makes stable
  wherever the function moves) and the context -- and with its
  ``source_shift``, the lines it sits below that ``FuncDef``.
  ``prepare_module`` prepares a key's function as before the first two
  times it sees the key, keeping a copy of the second result, moved
  back to the origin's lines, as the key's *template*; from then on it
  puts a copy of the template, moved ``source_shift`` lines down, into
  the module instead of preparing.  A key with a template is not even
  lowered: ``lower_program`` leaves a stand-in that lowers the function
  only if something other than ``prepare_module`` reads it.  Every
  ``loc`` is thus the line a cold compile gives.

The memo never gives out an object it keeps, tokens aside (they are
read-only): templates are copied out, with a copy of their
``SSAInfo``, so rewrites of a prepared module (``repro opt``, cloning,
inlining) never reach a later compile.  A first sighting copies
nothing.

Each entry also keeps the function's incremental fingerprints, one
pair per salt (:func:`repro.incremental.fingerprint.module_fingerprints`).
They hold for any function whose ``stamp`` is the entry, which
``prepare_module`` sets and every IR rewrite clears.

:func:`repro.core.perf.reset` empties every table.

No lock guards the tables: an entry is found, or made, by one dict
operation or assignment, and a template is published whole, by one
assignment, and equals any other template of its key.  Two threads
compiling at once (a served request still running past its deadline)
at worst both lex, prepare or lower a function afresh or keep a few
more entries; neither reads a wrong one.
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


#: Unit text -> ``(first line, tokens)``, the unit's EOF last.
UNITS: Dict[str, tuple] = {}
#: The lowering context of the latest compile (:func:`context`).
CONTEXT: Optional[tuple] = None
FUNCDEFS: Dict[tuple, object] = {}
PREPARED: Dict[tuple, Entry] = {}


def context(value: tuple) -> tuple:
    """``value``, or the equal lowering context the latest compile used.

    Source keys holding one context object compare by identity, and its
    frozensets keep their hashes, so a key costs no walk over the
    module's signatures.
    """
    global CONTEXT
    latest = CONTEXT  # read once: another thread may replace it
    if value == latest:
        return latest
    CONTEXT = value
    return value


def has_template(source_key: tuple) -> bool:
    """Whether :data:`PREPARED` holds a template of ``source_key``."""
    for assertions in (True, False):
        entry = PREPARED.get((source_key, assertions))
        if entry is not None and entry.template is not None:
            return True
    return False


def keep(table: dict, used: dict) -> None:
    """Make ``table`` hold exactly the entries of the latest compile."""
    table.clear()
    table.update(used)


def clear() -> None:
    """Forget every memoised source and function (a cold front end)."""
    global CONTEXT
    CONTEXT = None
    UNITS.clear()
    FUNCDEFS.clear()
    PREPARED.clear()
