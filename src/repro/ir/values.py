"""Operand values for the three-address IR.

The IR distinguishes three kinds of operands:

* :class:`Constant` -- an immediate integer known at compile time.
* :class:`Temp` -- a virtual register.  Before SSA construction several
  instructions may define the same :class:`Temp` name; after SSA
  construction every name has exactly one definition point.
* :class:`Undef` -- an explicitly undefined value (used for variables that
  may be read before being written on some path).

Values are compared by content, not identity, so a :class:`Temp` is simply
a symbolic handle onto its name.
"""

from __future__ import annotations


class Value:
    """Base class for all IR operand values."""

    __slots__ = ()

    def is_constant(self) -> bool:
        return isinstance(self, Constant)

    def is_temp(self) -> bool:
        return isinstance(self, Temp)


class Constant(Value):
    """An immediate integer operand (the toy language has no floats)."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        if isinstance(value, bool):
            value = int(value)
        self.value = value

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"

    def __str__(self) -> str:
        return str(self.value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Constant) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("Constant", self.value))


class Temp(Value):
    """A virtual register, identified by name.

    After SSA construction names carry a version suffix (``x.2``) and every
    name has a single definition.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return f"Temp({self.name!r})"

    def __str__(self) -> str:
        return f"%{self.name}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Temp) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("Temp", self.name))


class Undef(Value):
    """An undefined value (read-before-write on some path)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Undef()"

    def __str__(self) -> str:
        return "undef"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Undef)

    def __hash__(self) -> int:
        return hash("Undef")


UNDEF = Undef()
