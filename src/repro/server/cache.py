"""The content address of a served result.

Results are cached in a :class:`repro.incremental.store.TwoTierStore`
(memory over disk) under :func:`request_key`: the SHA-256 of everything
that can change the result -- the program text, the command, its
validated options, the display name (it appears verbatim in check
reports), and the
:func:`repro.core.perf.fingerprint.config_fingerprint` of the engine
configuration (which is itself salted with the package version, so an
engine upgrade invalidates the whole cache instead of serving stale
results).  Behaviour-neutral knobs -- the sanitizer, IR verification
-- are *excluded* from the key: a cache warmed with ``--sanitize``
still hits without it.  Incremental replay is no config field at all
(the summary store is passed alongside), so it never reaches the key.

Only *deterministic* payloads belong here: the service never caches a
degraded (timed-out) response, because degradation is a property of the
moment, not of the content address.  Cached payloads are byte-identical
to fresh computations by construction -- the store keeps the response
core verbatim and its tiers only change where it is read from.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict

from repro.core.config import VRPConfig
from repro.core.perf.fingerprint import config_fingerprint


def request_key(
    command: str,
    source: str,
    name: str,
    options: Dict[str, object],
    config: VRPConfig,
) -> str:
    """The content address of one request's result."""
    payload = json.dumps(
        {
            "command": command,
            "source": source,
            "name": name,
            "options": options,
            "config": config_fingerprint(config),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
