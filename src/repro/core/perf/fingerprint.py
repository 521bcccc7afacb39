"""Stable fingerprints of analysis configurations.

The serving layer (``repro.server``) keys its content-addressed result
cache on *everything that can change an analysis result*: the program
text, the command, its options -- and the :class:`~repro.core.config.
VRPConfig`.  This module owns the config half of that key.

Two properties matter:

* **Completeness** -- every config field that can change results must
  feed the fingerprint.  Fields are enumerated from the dataclass
  itself, so a field added later is *included by default*; only fields
  on the explicit behaviour-neutral list are excluded.
* **Neutrality-awareness** -- fields proven behaviour-neutral (the
  sanitizer, IR verification, incremental replay: predictions are
  byte-identical either way) are excluded, so a cache warmed with
  ``--sanitize`` still hits without it, and vice versa.

The fingerprint is salted with the package version: an engine upgrade
silently invalidates every cached result instead of serving stale ones.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro.core.config import VRPConfig

#: Config fields that cannot change analysis *results*, only wall time
#: or failure loudness.  Everything not listed here is key material.
NEUTRAL_FIELDS = frozenset(
    {
        "sanitize",
        "verify_ir",
    }
)

#: Removed fields, at the one value every result is now computed with.
#: Keeping them keeps the fingerprint, so warmed caches still hit.
RETIRED_ITEMS = (("context_depth", "0"),)


def config_items(config: VRPConfig):
    """The result-affecting ``(field, repr(value))`` pairs, sorted.

    ``repr`` (not ``str``) keeps ints and floats distinguishable
    (``repr(1) != repr(1.0)``) and is stable for the bool/int/float
    field types the config uses.  :data:`RETIRED_ITEMS` are included.
    """
    return tuple(
        sorted(
            RETIRED_ITEMS
            + tuple(
                (field.name, repr(getattr(config, field.name)))
                for field in dataclasses.fields(config)
                if field.name not in NEUTRAL_FIELDS
            )
        )
    )


def engine_salt() -> str:
    """Version salt: bumping the package invalidates cached results."""
    from repro import __version__

    return f"repro-{__version__}"


def config_fingerprint(config: VRPConfig) -> str:
    """SHA-256 hex fingerprint of the result-affecting configuration."""
    payload = json.dumps(
        [engine_salt(), [list(item) for item in config_items(config)]],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
