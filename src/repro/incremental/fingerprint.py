"""Canonical per-function IR normalization and fingerprinting.

Two SHA-256 fingerprints per function, both computed over a canonical
line-oriented serialization of the prepared (SSA) IR:

* the **semantic fingerprint** (:func:`function_fingerprint`) renames
  every function-local name -- SSA temps, parameters, arrays, block
  labels -- to its canonical index of first occurrence.  It is stable
  under comment/whitespace edits (source locations are excluded
  entirely) and under renaming locals -- up to SSA's deterministic
  phi-placement order, which sorts by variable name -- and changes on
  any semantic edit: flipping an operator, a constant, a branch arm,
  or a callee (callee and function names are global identity and stay
  verbatim).
* the **exact fingerprint** (:func:`exact_fingerprint`) also pins
  concrete names and labels: it hashes the semantic text together with
  the concrete-name-to-token mappings, which carry the same information
  as a verbatim-names text, so one IR walk yields both fingerprints.
  Rendered output mentions SSA names and block labels, so a stored
  result may only be replayed when the exact form still matches; the
  semantic fingerprint decides *addressing* (which component a result
  belongs to), the exact fingerprint guards *replayability*.

Source locations appear in neither: predictions carry no line numbers
(diagnostics re-derive them from the live IR), so shifting a function
down a file must not invalidate anything.

Keys derived from these fingerprints are salted with
:func:`fingerprint_salt` -- the version-salted config fingerprint plus
``context_depth`` -- so an engine upgrade or a config change invalidates
the store instead of replaying stale summaries.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import VRPConfig
from repro.core.perf.fingerprint import config_fingerprint, engine_salt
from repro.ir.function import Function
from repro.ir.instructions import (
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
from repro.ir.values import Constant, Temp, Undef, Value


def fingerprint_salt(config: Optional[VRPConfig] = None) -> str:
    """The key salt shared by every store address.

    ``context_depth`` is already part of the config fingerprint but is
    repeated explicitly: it changes the *shape* of stored payloads
    (context-refined seeds), not merely their values.
    """
    config = config or VRPConfig()
    return json.dumps(
        {
            "engine": engine_salt(),
            "config": config_fingerprint(config),
            "context_depth": int(config.context_depth),
        },
        sort_keys=True,
        separators=(",", ":"),
    )


class _Namer(dict):
    """Maps one namespace of names to canonical first-occurrence tokens.

    A dict, so the common case -- a name already seen -- is a plain
    lookup: ``namer[name]``.
    """

    def __init__(self, prefix: str):
        super().__init__()
        self.prefix = prefix

    def __missing__(self, name: str) -> str:
        token = self[name] = f"{self.prefix}{len(self)}"
        return token


def _canonical(function: Function) -> Tuple[str, Tuple[_Namer, _Namer, _Namer]]:
    """The semantic text plus the temp/label/array namers that built it."""
    temp, label, array = _Namer("v"), _Namer("b"), _Namer("a")

    def value(operand: Value) -> str:
        if isinstance(operand, Constant):
            return f"c:{operand.value!r}"
        if isinstance(operand, Temp):
            return f"t:{temp[operand.name]}"
        if isinstance(operand, Undef):
            return "undef"
        raise TypeError(f"unknown operand {operand!r}")

    lines: List[str] = [
        f"func {function.name}({','.join(temp[p] for p in function.params)})"
    ]
    for name, size in function.arrays.items():
        lines.append(f"array {array[name]} {size}")
    # Pre-assign label tokens in block order so forward jump targets get
    # the same token as the block header they name.
    for block_label in function.blocks:
        label[block_label]
    lines.append(f"entry {label[function.entry_label]}")
    for block_label, block in function.blocks.items():
        lines.append(f"block {label[block_label]}")
        for instr in block.instructions:
            lines.append(_instr_line(instr, value, temp, label, array))
    return "\n".join(lines), (temp, label, array)


def canonical_function_text(function: Function) -> str:
    """The canonical line-oriented serialization the fingerprints hash.

    Temps, params, arrays and labels become canonical indices of first
    occurrence; locations are excluded.
    """
    return _canonical(function)[0]


def _instr_line(
    instr: Instruction,
    value: Callable[[Value], str],
    temp: Dict[str, str],
    label: Dict[str, str],
    array: Dict[str, str],
) -> str:
    line = _LINES.get(type(instr))
    if line is None:
        raise TypeError(f"unknown instruction {instr!r}")
    return line(instr, value, temp, label, array)


def _call_line(instr: Call, value, temp, label, array) -> str:
    dest = temp[instr.dest.name] if instr.dest is not None else "-"
    args = ",".join(value(arg) for arg in instr.args)
    # Callee names are global identity: never normalized.
    return f"call {dest} {instr.callee} {args}"


def _phi_line(instr: Phi, value, temp, label, array) -> str:
    # The incomings are named before the destination.
    incomings = ",".join(
        f"{label[pred]}:{value(operand)}" for pred, operand in instr.incomings
    )
    return f"phi {temp[instr.dest.name]} {incomings}"


def _pi_line(instr: Pi, value, temp, label, array) -> str:
    parent = temp[instr.parent] if instr.parent is not None else "-"
    return (
        f"pi {temp[instr.dest.name]} {value(instr.src)} "
        f"{instr.op} {value(instr.bound)} {parent}"
    )


#: One serializer per instruction class.  Each names its operands in a
#: fixed order, which is the order the namers hand out tokens in.
_LINES: Dict[type, Callable[..., str]] = {
    BinOp: lambda i, value, temp, label, array: (
        f"bin {i.op} {temp[i.dest.name]} {value(i.lhs)} {value(i.rhs)}"
    ),
    UnOp: lambda i, value, temp, label, array: (
        f"un {i.op} {temp[i.dest.name]} {value(i.operand)}"
    ),
    Cmp: lambda i, value, temp, label, array: (
        f"cmp {i.op} {temp[i.dest.name]} {value(i.lhs)} {value(i.rhs)}"
    ),
    Copy: lambda i, value, temp, label, array: (
        f"copy {temp[i.dest.name]} {value(i.src)}"
    ),
    Phi: _phi_line,
    Pi: _pi_line,
    Load: lambda i, value, temp, label, array: (
        f"load {temp[i.dest.name]} {array[i.array]} {value(i.index)}"
    ),
    Store: lambda i, value, temp, label, array: (
        f"store {array[i.array]} {value(i.index)} {value(i.value)}"
    ),
    Call: _call_line,
    Input: lambda i, value, temp, label, array: f"input {temp[i.dest.name]}",
    Jump: lambda i, value, temp, label, array: f"jump {label[i.target]}",
    Branch: lambda i, value, temp, label, array: (
        f"branch {value(i.cond)} {label[i.true_target]} {label[i.false_target]}"
    ),
    Return: lambda i, value, temp, label, array: f"return {value(i.value)}",
}


def _digest(text: str, salt: str) -> str:
    return hashlib.sha256(f"{salt}\x00{text}".encode("utf-8")).hexdigest()


def function_fingerprint(function: Function, *, salt: str = "") -> str:
    """The semantic (rename-stable) fingerprint, hex SHA-256."""
    return _digest(canonical_function_text(function), salt)


def exact_fingerprint(function: Function, *, salt: str = "") -> str:
    """The exact (name-sensitive, location-free) fingerprint, hex SHA-256."""
    return _fingerprints(function, salt)["exact"]


def _fingerprints(function: Function, salt: str) -> Dict[str, str]:
    text, namers = _canonical(function)
    # Each namer maps concrete names to tokens in token order, so the
    # semantic text plus the mappings pins every concrete name: one IR
    # walk yields both fingerprints.
    names = "\x00".join("\n".join(namer) for namer in namers)
    return {
        "semantic": _digest(text, salt),
        "exact": _digest(f"{text}\x00{names}", salt),
    }


def module_fingerprints(module, *, salt: str = "") -> Dict[str, Dict[str, str]]:
    """Both fingerprints for every function: name -> {semantic, exact}.

    A function stamped by the front-end memo is what ``prepare_module``
    made from its source key, so the fingerprints stored with the
    key's entry serve it: each key is fingerprinted once per salt (see
    :mod:`repro.ir.memo`).
    """
    out = {}
    for name, function in module.functions.items():
        entry = function.stamp
        if entry is None:
            out[name] = _fingerprints(function, salt)
            continue
        pair = entry.fingerprints.get(salt)
        if pair is None:
            pair = entry.fingerprints[salt] = _fingerprints(function, salt)
        out[name] = dict(pair)
    return out
