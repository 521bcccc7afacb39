"""The five commands both front ends run, and the options they take.

``repro predict|check|ranges|ir|run`` and the serving protocol's
commands of the same names are one definition:

* the option tables say what each command accepts -- name, type,
  default, bound, choices.  The CLI generates its flags from them and
  the protocol validates request options against them, so an option, a
  default or a bound cannot differ between the two front ends;
* :func:`build_config` turns the analysis options into a
  :class:`VRPConfig`;
* :func:`execute` runs a command and renders its output.  ``repro
  submit`` prints what the one-shot command prints because both print
  this function's ``output``.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro import rendering
from repro.core import VRPConfig, VRPPredictor
from repro.ir import prepare_module
from repro.lang import LexError, LoweringError, ParseError, compile_source
from repro.observability import use
from repro.profiling import run_module
from repro.profiling.interpreter import InterpreterError

#: Errors the program, not the tool, is at fault for: the CLI prints
#: them as one ``error: ...`` line, the server answers an error payload.
PROGRAM_ERRORS = (LexError, ParseError, LoweringError, InterpreterError)


@dataclass(frozen=True)
class Option:
    """One option: its protocol key, type, default, bound and choices.

    The CLI flag is the key with ``-`` for ``_`` (``--max-ranges``).
    ``kind`` is ``bool`` (a flag), ``int``, ``float``, ``str`` or
    ``list`` (of integers, comma-separated on the command line).
    ``keyed`` options are cache-key material; the others are engine
    knobs the config fingerprint already covers, or observational.
    """

    name: str
    kind: type
    default: object
    help: str
    keyed: bool = False
    minimum: Optional[int] = None
    choices: Tuple[str, ...] = ()
    metavar: Optional[str] = None

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    def check(self, value) -> None:
        """Raise ``ValueError`` saying what ``value`` must be."""
        # bool is an int subclass: keep True out of int-typed options.
        if self.kind is list:
            if not isinstance(value, list) or not all(map(_is_int, value)):
                raise ValueError("must be a list of integers")
        elif self.kind is int:
            if not _is_int(value):
                raise ValueError("must be an integer")
        elif not isinstance(value, self.kind):
            kind = "boolean" if self.kind is bool else self.kind.__name__
            raise ValueError(f"must be a {kind}")
        if self.minimum is not None and value < self.minimum:
            raise ValueError(f"must be >= {self.minimum}")
        if self.choices and value not in self.choices:
            raise ValueError(f"must be one of {', '.join(self.choices)}")

    def parse(self, text: str):
        """The value of an ``int``, ``float`` or ``list`` option's CLI
        argument."""
        try:
            if self.kind is list:
                value = [int(part) for part in text.replace(",", " ").split()]
            else:
                value = self.kind(text)
        except ValueError:
            value = text  # rejected by check() with the table's message
        self.check(value)
        return value


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: The analysis options: the paper's evaluated configurations.
ANALYSIS_OPTIONS = (
    Option("intra", bool, False, "disable interprocedural analysis", keyed=True),
    Option("numeric", bool, False, "disable symbolic ranges"),
    Option("no_derive", bool, False, "disable loop derivation"),
    Option("track_arrays", bool, False, "track array contents"),
    Option("max_ranges", int, 4, "ranges per variable (default 4)", minimum=1),
    Option("context_depth", int, 0, "k-limited context-sensitive interprocedural "
           "analysis (default 0 = context-insensitive)", minimum=0, metavar="K"),
)

#: Served only: return the engine's spans with the response.  It never
#: reaches the cache key, so a traced request shares its result.
TRACE = Option("trace", bool, False, "return the engine's spans with the response")

#: What each command takes besides the analysis options.
COMMAND_OPTIONS: Dict[str, Tuple[Option, ...]] = {
    "predict": (),
    "check": (
        Option("format", str, "text", "output format (default text)",
               keyed=True, choices=("text", "json", "sarif")),
        Option("fail_on", str, "error", "exit non-zero when a finding at/above "
               "this severity exists", keyed=True,
               choices=("error", "warning", "never")),
    ),
    "ranges": (),
    "ir": (),
    "run": (
        Option("args", list, [], "main() arguments, comma separated", keyed=True),
        Option("inputs", list, [], "input() stream, comma separated", keyed=True),
        Option("max_steps", int, 5_000_000, "interpreter step limit "
               "(default 5000000)", keyed=True),
        Option("profile", bool, False, "print branch profile", keyed=True),
    ),
}

COMMANDS = tuple(COMMAND_OPTIONS)

#: Every row of the tables above, by name.
OPTIONS: Dict[str, Option] = {
    row.name: row for row in ANALYSIS_OPTIONS + sum(COMMAND_OPTIONS.values(), ())
}


def accepted(command: Optional[str]) -> Tuple[Option, ...]:
    """The options a request for ``command`` may carry; ``None`` names
    server-wide base options, which are the analysis options alone."""
    if command is None:
        return ANALYSIS_OPTIONS
    return ANALYSIS_OPTIONS + (TRACE,) + COMMAND_OPTIONS[command]


def validate_options(command: Optional[str], options: Dict[str, object]) -> None:
    """Raise ``ValueError`` for an option ``command`` does not take or a
    value the table rejects."""
    rows = {row.name: row for row in accepted(command)}
    for key, value in options.items():
        if key not in rows:
            where = f" for command {command!r}" if command else ""
            raise ValueError(f"unknown option {key!r}{where}")
        try:
            rows[key].check(value)
        except ValueError as error:
            raise ValueError(f"option {key!r} {error}") from None


def get(options: Dict[str, object], name: str):
    """``options[name]``, or the table's default when it is absent."""
    return options.get(name, OPTIONS[name].default)


def build_config(options: Dict[str, object]) -> VRPConfig:
    """The engine configuration the analysis options describe."""
    return VRPConfig(
        max_ranges=get(options, "max_ranges"),
        symbolic=not get(options, "numeric"),
        derive_loops=not get(options, "no_derive"),
        track_arrays=get(options, "track_arrays"),
        context_depth=get(options, "context_depth"),
    )


@dataclass
class Outcome:
    """One command's output (trailing newline included), exit code, and
    the products the commands that compute them set."""

    output: str
    exit_code: int = 0
    module: object = None
    prediction: object = None
    report: object = None
    incremental: object = None


def prepare(source: str):
    """Compile ``source`` and prepare it for analysis: ``(module, ssa_infos)``."""
    module = compile_source(source)
    return module, prepare_module(module)


def render_check(report, fmt: str) -> str:
    """A check report as text, JSON or SARIF, trailing newline included."""
    from repro.diagnostics import render_json, render_sarif, render_text

    if fmt == "json":
        return render_json(report) + "\n"
    if fmt == "sarif":
        return render_sarif(report, artifact_uri=report.program) + "\n"
    return render_text(report) + "\n"


def execute(
    command: str,
    source: str,
    name: str,
    options: Dict[str, object],
    config: Optional[VRPConfig] = None,
    store=None,
    tracer=None,
) -> Outcome:
    """Run ``command`` on ``source``; :data:`PROGRAM_ERRORS` propagate.

    ``name`` is the program's name in ``check`` reports (``-``: the
    module's own).  Options ``options`` omits take the table's default.
    ``config`` defaults to :func:`build_config` of ``options``; ``store``
    is an optional incremental summary store; ``tracer``, when given,
    records the analysis (prediction and checks), not the front end.
    """
    module, ssa_infos = prepare(source)
    if command == "ir":
        return Outcome(rendering.ir_dump(module), module=module)
    if command == "run":
        result = run_module(
            module,
            args=get(options, "args"),
            input_values=get(options, "inputs"),
            max_steps=get(options, "max_steps"),
        )
        report = rendering.run_report(result, profile=get(options, "profile"))
        return Outcome(report, module=module)
    predictor = VRPPredictor(
        config=config if config is not None else build_config(options),
        interprocedural=not get(options, "intra"),
        incremental_store=store,
    )
    outcome = Outcome("", module=module)
    with use(tracer) if tracer is not None else nullcontext():
        prediction = outcome.prediction = predictor.predict_module(module, ssa_infos)
        if command == "check":
            from repro.diagnostics import check_module

            program = name if name != "-" else module.name
            outcome.report = check_module(module, prediction, program=program)
    outcome.incremental = predictor.last_incremental
    if command == "check":
        outcome.output = render_check(outcome.report, get(options, "format"))
        outcome.exit_code = int(outcome.report.fails(get(options, "fail_on")))
    elif command == "ranges":
        outcome.output = rendering.ranges_listing(prediction)
    else:
        outcome.output = rendering.branch_table(
            prediction.all_branches(), prediction.heuristic_branches()
        )
    return outcome
