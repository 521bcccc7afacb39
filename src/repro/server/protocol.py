"""Request/response shapes of the serving protocol.

One request analyses one program.  The JSON body is::

    {
      "command": "predict",          # predict|check|ranges|ir|run
      "source":  "func main() ...",  # program text, required
      "name":    "examples/foo.toy", # display name (check reports,
                                     # metrics); "-" when omitted
      "options": { ... }             # per-command knobs, all optional
    }

``options`` accepts what :mod:`repro.commands`' tables declare for the
command (:func:`repro.commands.accepted`): the one-shot CLI's analysis
options, the command's own options and ``trace``, with the same types,
bounds and choices as the CLI flags, which are generated from the same
tables.  :func:`validate_request` and :func:`canonical_options` read
those tables and declare no option of their own.  Unknown options are
rejected: a typo that silently falls back to a default would poison the
content-addressed cache with results the caller did not ask for.

The response's *deterministic core* -- ``status``, ``command``,
``output``, ``exit_code``, ``degraded``, ``error`` -- is exactly what
the result cache stores; per-request fields (``cached``, ``elapsed_ms``,
``key``) are attached afterwards so a cache hit is byte-identical to
the fresh computation.  ``output`` is the one-shot CLI's stdout,
trailing newline included.

A batch request (``/v1/batch``) is ``{"items": [request, ...]}`` and
answers ``{"results": [response, ...]}`` in submission order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import commands

#: Commands the service executes: the one-shot CLI's.
COMMANDS = commands.COMMANDS

#: Ceiling on one batch submission; a bigger fleet should be split into
#: several requests so backpressure stays per-request-sized.
MAX_BATCH_ITEMS = 64


class ProtocolError(ValueError):
    """The request body does not follow the protocol (HTTP 400)."""


def validate_request(
    body: dict, command: Optional[str] = None
) -> Tuple[str, str, str, Dict[str, object]]:
    """Check one request body; returns (command, source, name, options).

    ``command`` (from the URL route) overrides the body's ``command``
    key when given; a body that names a *different* command is rejected
    rather than silently rerouted.
    """
    if not isinstance(body, dict):
        raise ProtocolError("request body must be a JSON object")
    declared = body.get("command")
    if declared is not None and not isinstance(declared, str):
        raise ProtocolError("'command' must be a string")
    if command is None:
        command = declared
    elif declared is not None and declared != command:
        raise ProtocolError(
            f"body names command {declared!r} but was posted to the "
            f"{command!r} endpoint"
        )
    if command is None:
        raise ProtocolError("missing 'command'")
    if command not in COMMANDS:
        raise ProtocolError(
            f"unknown command {command!r}; expected one of {', '.join(COMMANDS)}"
        )

    source = body.get("source")
    if not isinstance(source, str) or not source.strip():
        raise ProtocolError("missing or empty 'source'")

    name = body.get("name", "-")
    if not isinstance(name, str) or not name:
        raise ProtocolError("'name' must be a non-empty string")

    options = body.get("options", {})
    if not isinstance(options, dict):
        raise ProtocolError("'options' must be an object")
    try:
        commands.validate_options(command, options)
    except ValueError as error:
        raise ProtocolError(str(error)) from None
    return command, source, name, dict(options)


def validate_batch(body: dict) -> List[dict]:
    """Check a batch envelope; returns the raw item list."""
    if not isinstance(body, dict):
        raise ProtocolError("batch body must be a JSON object")
    items = body.get("items")
    if not isinstance(items, list) or not items:
        raise ProtocolError("batch body needs a non-empty 'items' list")
    if len(items) > MAX_BATCH_ITEMS:
        raise ProtocolError(
            f"batch of {len(items)} items exceeds the cap of {MAX_BATCH_ITEMS}"
        )
    return items


def canonical_options(command: str, options: Dict[str, object]) -> Dict[str, object]:
    """The options as cache-key material: defaults applied, noise dropped.

    Engine knobs (``numeric``, ``max_ranges``...) are *excluded* -- the
    config fingerprint already covers them -- so a request that spells
    out a default hits the same key as one that omits it.  Only options
    that change results and live outside :class:`VRPConfig` remain.
    """
    return {
        row.name: options.get(row.name, row.default)
        for row in commands.accepted(command)
        if row.keyed
    }


#: The deterministic core every cached payload carries; an entry
#: without it is damaged and is recomputed rather than served.
RESPONSE_CORE = frozenset(
    ("status", "command", "output", "exit_code", "degraded", "error")
)

#: The per-request fields of a response that no shard computed.
UNCACHED = {"key": None, "cached": None, "elapsed_ms": 0.0}


def error_response(command: Optional[str], message: str, **fields) -> dict:
    """A failed request's response: the deterministic core, then ``fields``."""
    return {
        "status": "error",
        "command": command,
        "output": "",
        "exit_code": 1,
        "degraded": False,
        "error": message,
        **fields,
    }
