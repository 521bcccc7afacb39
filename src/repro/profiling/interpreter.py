"""Reference interpreter for SSA-form IR modules, with edge profiling.

This is the reproduction's stand-in for running instrumented binaries:
executing a module counts every block, CFG edge and branch direction,
which is exactly the information execution profiling collects (the
paper's strongest comparison line), and also defines the *ground truth*
branch behaviour predictors are scored against.

Semantics: unbounded Python integers, floor division/modulo, arithmetic
shifts.  ``input()`` pops the next element of the run's input vector
(0 once exhausted).  Assertion (Pi) nodes are checked: a violated
assertion indicates a compiler bug and raises immediately.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.ir.function import Function, Module
from repro.ir.instructions import (
    BinOp,
    Branch,
    Call,
    Cmp,
    Copy,
    EvaluationError,
    Input,
    Instruction,
    Jump,
    Load,
    Pi,
    Return,
    Store,
    UnOp,
    apply_binop,
    apply_cmp,
)
from repro.ir.values import Constant, Temp, Undef, Value


class InterpreterError(Exception):
    """Runtime error in the interpreted program (trap, OOB, bad call)."""


class StepLimitExceeded(InterpreterError):
    """The program ran longer than the configured step budget."""


class AssertionViolation(InterpreterError):
    """A Pi node's asserted relation did not hold (compiler bug)."""


class ExecutionResult:
    """Return value plus the full execution profile of one run."""

    def __init__(self) -> None:
        self.return_value: Optional[int] = None
        self.steps = 0
        #: (function, block) -> execution count
        self.block_counts: Dict[Tuple[str, str], int] = {}
        #: (function, src, dst) -> traversal count
        self.edge_counts: Dict[Tuple[str, str, str], int] = {}
        #: (function, branch block) -> [taken, not taken]
        self.branch_counts: Dict[Tuple[str, str], List[int]] = {}
        #: function -> number of calls
        self.call_counts: Dict[str, int] = {}
        #: (function, ssa name) -> set of observed runtime values
        #: (only populated when the interpreter collects values)
        self.observed_values: Dict[Tuple[str, str], set] = {}

    def branch_probability(self, function: str, label: str) -> Optional[float]:
        counts = self.branch_counts.get((function, label))
        if counts is None:
            return None
        total = counts[0] + counts[1]
        if total == 0:
            return None
        return counts[0] / total

    def merge(self, other: "ExecutionResult") -> None:
        """Accumulate another run's counts into this profile."""
        self.steps += other.steps
        for key, count in other.block_counts.items():
            self.block_counts[key] = self.block_counts.get(key, 0) + count
        for key, count in other.edge_counts.items():
            self.edge_counts[key] = self.edge_counts.get(key, 0) + count
        for key, counts in other.branch_counts.items():
            mine = self.branch_counts.setdefault(key, [0, 0])
            mine[0] += counts[0]
            mine[1] += counts[1]
        for key, count in other.call_counts.items():
            self.call_counts[key] = self.call_counts.get(key, 0) + count


class _Frame:
    """One activation record."""

    __slots__ = (
        "function",
        "env",
        "arrays",
        "label",
        "prev_label",
        "index",
        "return_target",
    )

    def __init__(self, function: Function, return_target: Optional[Temp]):
        self.function = function
        self.env: Dict[str, int] = {}
        self.arrays: Dict[str, List[int]] = {
            name: [0] * (size or 0) for name, size in function.arrays.items()
        }
        self.label = function.entry_label
        self.prev_label: Optional[str] = None
        self.index = 0
        # Where the caller wants the return value.
        self.return_target = return_target


class Interpreter:
    """Executes a module's ``main`` and collects the execution profile."""

    def __init__(
        self,
        module: Module,
        max_steps: int = 5_000_000,
        check_assertions: bool = True,
        collect_values: bool = False,
    ):
        self.module = module
        self.max_steps = max_steps
        self.check_assertions = check_assertions
        # When set, every SSA assignment is recorded in
        # ``result.observed_values[(function, name)]`` -- used by the
        # soundness tests to check runtime values against VRP's ranges.
        self.collect_values = collect_values

    def run(
        self,
        args: Optional[List[int]] = None,
        input_values: Optional[Iterable[int]] = None,
        entry: str = "main",
    ) -> ExecutionResult:
        result = ExecutionResult()
        input_iter = iter(input_values or ())
        main = self.module.function(entry)
        args = list(args or [])
        if len(args) != len(main.params):
            raise InterpreterError(
                f"{entry} expects {len(main.params)} args, got {len(args)}"
            )
        frames: List[_Frame] = []
        frame = _Frame(main, None)
        self._bind_params(frame, args, result)
        frames.append(frame)
        self._enter_block(frame, result)

        while frames:
            frame = frames[-1]
            block = frame.function.block(frame.label)
            if frame.index >= len(block.instructions):
                raise InterpreterError(
                    f"fell off block {frame.label} in {frame.function.name}"
                )
            instr = block.instructions[frame.index]
            result.steps += 1
            if result.steps > self.max_steps:
                raise StepLimitExceeded(f"exceeded {self.max_steps} steps")

            if isinstance(instr, (Jump, Branch)):
                self._take_edge(frame, instr, result)
            elif isinstance(instr, Return):
                value = self._eval(frame, instr.value)
                frames.pop()
                if frames:
                    caller = frames[-1]
                    if frame.return_target is not None:
                        caller.env[frame.return_target.name] = value
                        if self.collect_values:
                            self._record(result, caller, frame.return_target.name, value)
                    caller.index += 1
                else:
                    result.return_value = value
            elif isinstance(instr, Call):
                callee = self.module.functions.get(instr.callee)
                if callee is None:
                    raise InterpreterError(f"call to unknown function {instr.callee!r}")
                call_args = [self._eval(frame, a) for a in instr.args]
                if len(call_args) != len(callee.params):
                    raise InterpreterError(
                        f"{instr.callee} expects {len(callee.params)} args"
                    )
                result.call_counts[instr.callee] = (
                    result.call_counts.get(instr.callee, 0) + 1
                )
                new_frame = _Frame(callee, instr.dest)
                self._bind_params(new_frame, call_args, result)
                frames.append(new_frame)
                if len(frames) > 10_000:
                    raise InterpreterError("call stack overflow (depth 10000)")
                self._enter_block(new_frame, result)
            else:
                self._execute_simple(frame, instr, input_iter, result)
                frame.index += 1
        return result

    # -- helpers ------------------------------------------------------------

    def _bind_params(self, frame: _Frame, args: List[int],
                     result: Optional[ExecutionResult] = None) -> None:
        # SSA parameter names are "<param>.0" by construction.
        for param, value in zip(frame.function.params, args):
            frame.env[f"{param}.0"] = int(value)
            frame.env[param] = int(value)  # pre-SSA fallback
            if self.collect_values and result is not None:
                self._record(result, frame, f"{param}.0", int(value))

    def _enter_block(self, frame: _Frame, result: ExecutionResult) -> None:
        key = (frame.function.name, frame.label)
        result.block_counts[key] = result.block_counts.get(key, 0) + 1
        block = frame.function.block(frame.label)
        phis = block.phis()
        if phis:
            if frame.prev_label is None:
                raise InterpreterError(
                    f"phi in entry block {frame.label} of {frame.function.name}"
                )
            # Parallel evaluation: all phis read the pre-transfer environment.
            staged = [
                (phi.dest.name, self._eval(frame, phi.value_for(frame.prev_label)))
                for phi in phis
            ]
            for name, value in staged:
                frame.env[name] = value
                if self.collect_values:
                    self._record(result, frame, name, value)
        frame.index = len(phis)

    def _take_edge(self, frame: _Frame, instr: Instruction, result: ExecutionResult) -> None:
        func_name = frame.function.name
        if isinstance(instr, Jump):
            target = instr.target
        else:
            assert isinstance(instr, Branch)
            taken = self._eval(frame, instr.cond) != 0
            counts = result.branch_counts.setdefault((func_name, frame.label), [0, 0])
            counts[0 if taken else 1] += 1
            target = instr.true_target if taken else instr.false_target
        edge_key = (func_name, frame.label, target)
        result.edge_counts[edge_key] = result.edge_counts.get(edge_key, 0) + 1
        frame.prev_label = frame.label
        frame.label = target
        self._enter_block(frame, result)

    def _execute_simple(self, frame: _Frame, instr: Instruction, input_iter,
                        result: Optional[ExecutionResult] = None) -> None:
        if isinstance(instr, Copy):
            frame.env[instr.dest.name] = self._eval(frame, instr.src)
        elif isinstance(instr, BinOp):
            lhs = self._eval(frame, instr.lhs)
            rhs = self._eval(frame, instr.rhs)
            try:
                frame.env[instr.dest.name] = apply_binop(instr.op, lhs, rhs)
            except EvaluationError as error:
                raise InterpreterError(str(error)) from None
        elif isinstance(instr, UnOp):
            operand = self._eval(frame, instr.operand)
            frame.env[instr.dest.name] = -operand if instr.op == "neg" else int(not operand)
        elif isinstance(instr, Cmp):
            lhs = self._eval(frame, instr.lhs)
            rhs = self._eval(frame, instr.rhs)
            frame.env[instr.dest.name] = int(apply_cmp(instr.op, lhs, rhs))
        elif isinstance(instr, Pi):
            value = self._eval(frame, instr.src)
            if self.check_assertions:
                bound = self._eval(frame, instr.bound)
                if not apply_cmp(instr.op, value, bound):
                    raise AssertionViolation(
                        f"{instr!r}: {value} {instr.op} {bound} does not hold"
                    )
            frame.env[instr.dest.name] = value
        elif isinstance(instr, Load):
            array = frame.arrays.get(instr.array)
            if array is None:
                raise InterpreterError(f"unknown array {instr.array!r}")
            index = self._eval(frame, instr.index)
            if not 0 <= index < len(array):
                raise InterpreterError(
                    f"load {instr.array}[{index}] out of bounds (size {len(array)})"
                )
            frame.env[instr.dest.name] = array[index]
        elif isinstance(instr, Store):
            array = frame.arrays.get(instr.array)
            if array is None:
                raise InterpreterError(f"unknown array {instr.array!r}")
            index = self._eval(frame, instr.index)
            if not 0 <= index < len(array):
                raise InterpreterError(
                    f"store {instr.array}[{index}] out of bounds (size {len(array)})"
                )
            array[index] = self._eval(frame, instr.value)
        elif isinstance(instr, Input):
            frame.env[instr.dest.name] = int(next(input_iter, 0))
        else:
            raise InterpreterError(f"cannot execute {instr!r}")
        if self.collect_values and result is not None:
            written = instr.result
            if written is not None and written.name in frame.env:
                self._record(result, frame, written.name, frame.env[written.name])

    def _record(self, result: ExecutionResult, frame: _Frame, name: str, value: int) -> None:
        key = (frame.function.name, name)
        bucket = result.observed_values.setdefault(key, set())
        if len(bucket) < 4096:  # bound memory on long runs
            bucket.add(value)

    def _eval(self, frame: _Frame, value: Value) -> int:
        if isinstance(value, Constant):
            return value.value
        if isinstance(value, Temp):
            if value.name not in frame.env:
                raise InterpreterError(
                    f"read of undefined {value.name} in {frame.function.name}"
                )
            return frame.env[value.name]
        if isinstance(value, Undef):
            return 0
        raise InterpreterError(f"cannot evaluate {value!r}")


def run_module(
    module: Module,
    args: Optional[List[int]] = None,
    input_values: Optional[Iterable[int]] = None,
    max_steps: int = 5_000_000,
    check_assertions: bool = True,
) -> ExecutionResult:
    """Convenience wrapper: interpret ``main(args)`` and return the profile."""
    interpreter = Interpreter(
        module, max_steps=max_steps, check_assertions=check_assertions
    )
    return interpreter.run(args=args, input_values=input_values)
