"""Random-program fuzzing: end-to-end soundness of the whole pipeline.

Hypothesis generates small structured programs (guaranteed to terminate:
all loops are constant-bounded).  For each program:

* the pipeline must compile, canonicalise, and pass the SSA verifier;
* the interpreter must run it with assertion (Pi) checking on -- a
  violated assertion is a miscompilation;
* VRP must terminate with probabilities in [0, 1];
* every runtime value observed for an SSA name must lie inside the hull
  of the range VRP computed for it (probability weights are estimates,
  the *support* must be sound).
"""

import math

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.propagation import analyse_function
from repro.ir import prepare_for_analysis, verify_function
from repro.lang import compile_source
from repro.profiling.interpreter import Interpreter


@st.composite
def expressions(draw, variables, depth=0):
    """A terminating arithmetic expression over the given variables."""
    choices = ["literal"]
    if variables:
        choices.append("variable")
    if depth < 2:
        choices.extend(["binary", "binary", "mod", "div"])
    kind = draw(st.sampled_from(choices))
    if kind == "literal":
        return str(draw(st.integers(min_value=-20, max_value=20)))
    if kind == "variable":
        return draw(st.sampled_from(sorted(variables)))
    if kind == "mod":
        inner = draw(expressions(variables, depth + 1))
        modulus = draw(st.integers(min_value=1, max_value=17))
        return f"(({inner}) % {modulus})"
    if kind == "div":
        inner = draw(expressions(variables, depth + 1))
        divisor = draw(st.integers(min_value=1, max_value=9))
        return f"(({inner}) / {divisor})"
    op = draw(st.sampled_from(["+", "-", "*"]))
    lhs = draw(expressions(variables, depth + 1))
    rhs = draw(expressions(variables, depth + 1))
    return f"(({lhs}) {op} ({rhs}))"


@st.composite
def conditions(draw, variables):
    relop = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
    lhs = draw(expressions(variables))
    rhs = draw(expressions(variables))
    return f"({lhs}) {relop} ({rhs})"


@st.composite
def statements(draw, readable, assignable, loop_depth=0, block_depth=0):
    """One statement; may introduce a new variable.

    ``readable`` includes loop indices; ``assignable`` does not, which
    guarantees every generated loop terminates.
    """
    choices = ["assign", "assign"]
    if block_depth < 2:
        choices.append("if")
        if loop_depth < 2:
            choices.append("for")
    kind = draw(st.sampled_from(choices))
    if kind == "assign":
        fresh = draw(st.booleans()) or not assignable
        if fresh:
            name = f"v{len(readable)}"
            readable.add(name)
            assignable.add(name)
            prefix = "var "
        else:
            name = draw(st.sampled_from(sorted(assignable)))
            prefix = ""
        value = draw(expressions(readable))
        return f"{prefix}{name} = {value};"
    if kind == "if":
        condition = draw(conditions(readable))
        then_body = draw(blocks(readable, assignable, loop_depth, block_depth + 1))
        if draw(st.booleans()):
            else_body = draw(blocks(readable, assignable, loop_depth, block_depth + 1))
            return f"if ({condition}) {{ {then_body} }} else {{ {else_body} }}"
        return f"if ({condition}) {{ {then_body} }}"
    # for loop with a constant bound and an untouchable index: terminates.
    index = f"i{loop_depth}{block_depth}{len(readable)}"
    bound = draw(st.integers(min_value=1, max_value=8))
    step = draw(st.integers(min_value=1, max_value=3))
    inner_readable = set(readable)
    inner_readable.add(index)
    body = draw(
        blocks(inner_readable, set(assignable), loop_depth + 1, block_depth + 1)
    )
    return (
        f"for ({index} = 0; {index} < {bound}; {index} = {index} + {step})"
        f" {{ {body} }}"
    )


@st.composite
def blocks(draw, readable, assignable, loop_depth=0, block_depth=0):
    count = draw(st.integers(min_value=1, max_value=3))
    scope_readable = set(readable)
    scope_assignable = set(assignable)
    parts = [
        draw(
            statements(scope_readable, scope_assignable, loop_depth, block_depth)
        )
        for _ in range(count)
    ]
    return " ".join(parts)


@st.composite
def programs(draw):
    readable = {"n"}
    assignable = {"n"}
    body = draw(blocks(readable, assignable))
    result = draw(expressions(readable))
    return f"func main(n) {{ {body} return {result}; }}"


def hull_bounds(rangeset):
    hull = rangeset.hull()
    if hull is None:
        return None
    lo = hull.lo.offset if hull.lo.is_numeric() else None
    hi = hull.hi.offset if hull.hi.is_numeric() else None
    return lo, hi


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(programs(), st.integers(min_value=-10, max_value=10))
def test_pipeline_soundness_on_random_programs(source, argument):
    module = compile_source(source)
    function = module.function("main")
    info = prepare_for_analysis(function)
    verify_function(function, ssa=True, param_names=set(info.param_names.values()))

    # Run with assertion checking: a violated Pi is a miscompilation.
    interpreter = Interpreter(
        module, max_steps=500_000, check_assertions=True, collect_values=True
    )
    try:
        run = interpreter.run(args=[argument])
    except Exception as error:  # noqa: BLE001 - division by zero is legal here
        from repro.profiling.interpreter import (
            AssertionViolation,
            InterpreterError,
            StepLimitExceeded,
        )

        assert isinstance(error, InterpreterError)
        assert not isinstance(error, AssertionViolation), f"unsound assertion: {error}"
        assert not isinstance(error, StepLimitExceeded), "generated program ran away"
        return  # arithmetic trap (division path); nothing more to check

    prediction = analyse_function(function, info)
    assert not prediction.aborted

    for probability in prediction.branch_probability.values():
        assert 0.0 <= probability <= 1.0

    assert_sound(run, "main", prediction, source)


def assert_sound(run, function_name, prediction, source):
    """Every value the run observed for ``function_name`` lies inside the
    hull VRP computed for its SSA name, and, for a derived name, on one
    of its ranges' progressions."""
    for (func_name, ssa_name), observed in run.observed_values.items():
        if func_name != function_name:
            continue
        rangeset = prediction.values.get(ssa_name)
        if rangeset is None or not rangeset.is_set:
            continue  # ⊥ is always sound; ⊤ means never evaluated
        bounds = hull_bounds(rangeset)
        if bounds is None:
            continue  # symbolic hull: not checkable numerically
        lo, hi = bounds
        for value in observed:
            if lo is not None and not math.isinf(lo):
                assert value >= lo, (
                    f"{ssa_name}: observed {value} below hull {rangeset} in\n{source}"
                )
            if hi is not None and not math.isinf(hi):
                assert value <= hi, (
                    f"{ssa_name}: observed {value} above hull {rangeset} in\n{source}"
                )
            if ssa_name in prediction.derived:
                assert on_progression(rangeset, value), (
                    f"{ssa_name}: observed {value} off the progressions of "
                    f"{rangeset} in\n{source}"
                )


def on_progression(rangeset, value):
    """``value`` is one of the set's ranges' values (symbolic ends match)."""
    for r in rangeset.ranges:
        if not r.is_numeric():
            return True
        lo, hi = r.lo.offset, r.hi.offset
        if not lo <= value <= hi:
            continue
        anchor = hi if math.isinf(lo) else lo
        if math.isinf(anchor) or r.stride == 0 or (value - anchor) % r.stride == 0:
            return True
    return False


#: The step of an accumulator loop, by family: the set-step template
#: derives ``index``, ``negated``, ``literal`` and a one-signed ``call``,
#: and must decline ``mixed`` (either sign), ``variant`` (read from a
#: loop phi out of the template) and ``input``.
STEPS = {
    "index": "k",
    "negated": "0 - k",
    "mixed": "k - 2",
    "variant": "s",
    "input": "input() % 5",
    "literal": "3",
}


@st.composite
def accumulator_loops(draw, bounds, call=None):
    """``var acc = c; for (k < bound) { acc = acc +/- X; }``, with X drawn
    from :data:`STEPS` (or ``call(k)``), a constant or symbolic trip
    bound and, sometimes, an assertion on ``acc`` guarding the step."""
    families = sorted(STEPS) + (["call", "call"] if call else [])
    step = draw(st.sampled_from(families))
    expression = f"{call}(k)" if step == "call" else STEPS[step]
    op = draw(st.sampled_from(["+", "-"]))
    update = f"acc = acc {op} ({expression});"
    guard = draw(st.sampled_from([None, "<", ">", "!="]))
    if guard:
        limit = draw(st.integers(min_value=-15, max_value=30))
        update = f"if (acc {guard} {limit}) {{ {update} }}"
    bound = draw(
        st.sampled_from(sorted(bounds) + [str(draw(st.integers(min_value=0, max_value=8)))])
    )
    init = draw(st.integers(min_value=-5, max_value=5))
    # ``s`` walks a seeded orbit mod 7: its first laps' values need not
    # show the sign or the gcd of its later ones.
    scale = draw(st.integers(min_value=2, max_value=5))
    shift = draw(st.integers(min_value=0, max_value=6))
    offset = draw(st.integers(min_value=0, max_value=3))
    return (
        f"var acc = {init}; var s = 1; "
        f"for (k = 0; k < {bound}; k = k + 1) {{ "
        f"s = (s * {scale} + {shift}) % 7 - {offset}; {update} }}"
    )


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(accumulator_loops({"n"}), st.integers(min_value=-10, max_value=10))
def test_accumulator_loops_are_sound(loop, argument):
    source = f"func main(n) {{ {loop} return acc + s; }}"
    module = compile_source(source)
    function = module.function("main")
    info = prepare_for_analysis(function)
    interpreter = Interpreter(
        module, max_steps=500_000, check_assertions=True, collect_values=True
    )
    run = interpreter.run(args=[argument], input_values=range(-20, 20))
    prediction = analyse_function(function, info)
    assert not prediction.aborted
    assert_sound(run, "main", prediction, source)
