"""Interprocedural fuzzing: random callers invoking a generated helper.

The helper is built from the same terminating statement grammar as the
intraprocedural fuzzer and gets called with random constant arguments.
Checked properties: the module verifies, interprocedural analysis
terminates with sane probabilities, predictions exist for both
functions, and the jump-function machinery never crashes on whatever
argument ranges the generator produces.

A second generator accumulates a helper's result over a loop
(``acc = acc +/- f(k)``, the shape of the set-step template), with
``f`` returning values of one sign or of both; every value the
interpreter observes must lie inside the final ranges.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import VRPPredictor
from repro.ir import prepare_module, verify_function
from repro.lang import compile_source
from repro.profiling.interpreter import (
    AssertionViolation,
    Interpreter,
    InterpreterError,
    StepLimitExceeded,
)

from tests.integration.test_fuzz_soundness import (
    accumulator_loops,
    assert_sound,
    blocks,
    expressions,
)


@st.composite
def interprocedural_programs(draw):
    helper_readable = {"p", "q"}
    helper_assignable = {"p", "q"}
    helper_body = draw(blocks(helper_readable, helper_assignable))
    helper_result = draw(expressions(helper_readable))

    arg_a = draw(st.integers(min_value=-10, max_value=10))
    arg_b = draw(st.integers(min_value=-10, max_value=10))
    arg_c = draw(st.integers(min_value=-10, max_value=10))

    main_readable = {"n"}
    main_assignable = {"n"}
    main_body = draw(blocks(main_readable, main_assignable))
    return (
        f"func helper(p, q) {{ {helper_body} return {helper_result}; }}\n"
        f"func main(n) {{ {main_body} "
        f"var r = helper({arg_a}, {arg_b}) + helper({arg_c}, n); return r; }}"
    )


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(interprocedural_programs(), st.integers(min_value=-5, max_value=5))
def test_interprocedural_pipeline_on_random_programs(source, argument):
    module = compile_source(source)
    ssa_infos = prepare_module(module)
    for name, function in module.functions.items():
        verify_function(
            function, ssa=True, param_names=set(ssa_infos[name].param_names.values())
        )

    interpreter = Interpreter(module, max_steps=500_000, check_assertions=True)
    try:
        interpreter.run(args=[argument])
    except AssertionViolation as error:
        raise AssertionError(f"unsound assertion: {error}") from error
    except StepLimitExceeded as error:
        raise AssertionError("generated program ran away") from error
    except InterpreterError:
        pass  # arithmetic trap on some path: legal

    prediction = VRPPredictor().predict_module(module, ssa_infos)
    assert set(prediction.functions) == {"helper", "main"}
    for function_prediction in prediction.functions.values():
        assert not function_prediction.aborted
        for probability in function_prediction.branch_probability.values():
            assert 0.0 <= probability <= 1.0


@st.composite
def accumulating_programs(draw):
    """``f`` returns one of three values (all >= 0, all <= 0, or mixed);
    ``main`` runs an accumulator loop that may step by ``f(k)``."""
    sign = draw(st.sampled_from([(0, 9), (-9, 0), (-9, 9)]))
    values = [draw(st.integers(*sign)) for _ in range(3)]
    loop = draw(accumulator_loops({"n"}, call="f"))
    return (
        "func f(x) { var r = x % 3; "
        f"if (r == 0) {{ return {values[0]}; }} "
        f"if (r == 1) {{ return {values[1]}; }} "
        f"return {values[2]}; }}\n"
        f"func main(n) {{ {loop} return acc + s; }}"
    )


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(accumulating_programs(), st.integers(min_value=-10, max_value=10))
def test_accumulated_call_results_are_sound(source, argument):
    module = compile_source(source)
    ssa_infos = prepare_module(module)
    interpreter = Interpreter(
        module, max_steps=500_000, check_assertions=True, collect_values=True
    )
    run = interpreter.run(args=[argument], input_values=range(-20, 20))
    prediction = VRPPredictor().predict_module(module, ssa_infos)
    for name, function_prediction in prediction.functions.items():
        assert not function_prediction.aborted
        assert_sound(run, name, function_prediction, source)
