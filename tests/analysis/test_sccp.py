"""SCCP (constant propagation baseline) tests, on the test-only oracle."""

import pytest

from tests.sccp_reference import LatticeValue, run_sccp

from tests.helpers import prepare_single


def sccp_of(source):
    function, info = prepare_single(source)
    return run_sccp(function, info), function


class TestLattice:
    def test_meet_rules(self):
        top = LatticeValue.top()
        bottom = LatticeValue.bottom()
        c1 = LatticeValue.const(1)
        c2 = LatticeValue.const(2)
        assert top.meet(c1) == c1
        assert c1.meet(top) == c1
        assert c1.meet(c1) == c1
        assert c1.meet(c2).is_bottom
        assert bottom.meet(c1).is_bottom


class TestConstants:
    def test_straight_line_folding(self):
        result, _ = sccp_of("func main(n) { var a = 2; var b = a + 3; return b; }")
        constants = result.constants()
        assert constants["a.0"] == 2
        assert constants["b.0"] == 5

    def test_parameter_is_bottom(self):
        result, _ = sccp_of("func main(n) { var x = n + 1; return x; }")
        assert result.value_of("x.0").is_bottom

    def test_phi_of_equal_constants(self):
        result, _ = sccp_of(
            "func main(n) { if (n > 0) { x = 7; } else { x = 7; } return x; }"
        )
        phi_versions = [
            name for name in result.values if name.startswith("x.")
        ]
        assert any(result.value_of(name).constant == 7 for name in phi_versions)

    def test_phi_of_unequal_constants_is_bottom(self):
        result, _ = sccp_of(
            "func main(n) { if (n > 0) { x = 7; } else { x = 8; } return x; }"
        )
        merged = [
            result.value_of(name)
            for name in result.values
            if name.startswith("x.") and result.value_of(name).is_bottom
        ]
        assert merged  # the join version is not constant

    def test_division_by_zero_is_bottom(self):
        result, _ = sccp_of("func main(n) { var x = 1 / 0; return x; }")
        assert result.value_of("x.0").is_bottom


class TestConditionalPart:
    def test_one_sided_branch_keeps_constant(self):
        # The classic SCCP win: x is 5 on the only executable path.
        result, _ = sccp_of(
            """
            func main(n) {
              var x = 5;
              if (x < 10) { y = 1; } else { y = 2; }
              return y;
            }
            """
        )
        y_constants = {
            name: result.value_of(name).constant
            for name in result.values
            if name.startswith("y.") and result.value_of(name).is_const
        }
        assert 1 in y_constants.values()
        # The merge at the join is still the constant 1 (dead arm ignored).
        assert all(value == 1 for value in y_constants.values() if value is not None)

    def test_unreachable_block_not_executable(self):
        result, function = sccp_of(
            "func main(n) { var x = 5; if (x > 10) { n = 1; } return n; }"
        )
        assert result.reachable_blocks < set(function.blocks) or any(
            label not in result.reachable_blocks for label in function.blocks
        )

    def test_loop_variable_is_bottom(self):
        result, _ = sccp_of(
            "func main(n) { var t = 0; for (i = 0; i < 10; i = i + 1) { t = t + 1; } return t; }"
        )
        loop_versions = [
            result.value_of(name)
            for name in result.values
            if name.startswith("i.") and not name.endswith(".0")
        ]
        assert any(value.is_bottom for value in loop_versions)


class TestVRPSubsumption:
    def test_every_sccp_constant_found_by_vrp(self):
        source = """
        func main(n) {
          var a = 3;
          var b = a * 4;
          var c = b - 2;
          if (n > 0) { d = c; } else { d = 10; }
          var e = d + 1;
          return e;
        }
        """
        from tests.helpers import analyse, prepare_single as prep

        function, info = prep(source)
        sccp_result = run_sccp(function, info)
        vrp_prediction = analyse(source)
        for name, value in sccp_result.constants().items():
            assert vrp_prediction.values[name].constant_value() == value, name
