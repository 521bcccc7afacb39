"""Fingerprint properties: what must and must not move the hash.

The semantic fingerprint addresses the store, so it must be invariant
under everything that cannot change analysis results (comments,
whitespace, line shifts, renaming locals) and must change on every
semantic edit (operator, constant, branch arm, callee).  The exact
fingerprint additionally pins concrete names, guarding replayability of
rendered output.
"""

import re

import repro.incremental.fingerprint as fp_mod
from repro.core.config import VRPConfig
from repro.incremental.fingerprint import (
    canonical_function_text,
    exact_fingerprint,
    fingerprint_salt,
    function_fingerprint,
    module_fingerprints,
)

from tests.incremental.helpers import build

BASE = """
func main(n) {
  var total = 0;
  if (n > 5) { total = n + 1; } else { total = n - 1; }
  return total;
}
"""


def fingerprint_of(source: str, name: str = "main", **kwargs) -> str:
    module, _ = build(source)
    return function_fingerprint(module.functions[name], **kwargs)


def exact_of(source: str, name: str = "main", **kwargs) -> str:
    module, _ = build(source)
    return exact_fingerprint(module.functions[name], **kwargs)


class TestStability:
    def test_comments_and_whitespace_are_invisible(self):
        noisy = """
        // a line comment before everything
        func main(n) {
          /* block
             comment */
          var total = 0;   // trailing
          if (n > 5) { total = n + 1; }
          else { total = n - 1; }
          return total;
        }
        """
        assert fingerprint_of(BASE) == fingerprint_of(noisy)
        assert exact_of(BASE) == exact_of(noisy)

    def test_line_shift_is_invisible(self):
        # Source locations reach the IR (diagnostics use them) but are
        # excluded from both canonical forms.
        shifted = "\n\n\n\n\n" + BASE
        assert fingerprint_of(BASE) == fingerprint_of(shifted)
        assert exact_of(BASE) == exact_of(shifted)

    def test_renaming_locals_keeps_the_semantic_fingerprint(self):
        # SSA construction places phi nodes in sorted variable order, so
        # rename-stability holds for renames that keep that order (here
        # n < total and m < totals).  A rename that inverts it genuinely
        # reorders instructions and is a different exact form anyway.
        renamed = re.sub(r"\btotal\b", "totals", BASE)
        renamed = re.sub(r"\bn\b", "m", renamed)
        assert fingerprint_of(BASE) == fingerprint_of(renamed)
        assert exact_of(BASE) != exact_of(renamed)

    def test_renaming_locals_changes_the_exact_fingerprint(self):
        renamed = BASE.replace("total", "accum")
        assert exact_of(BASE) != exact_of(renamed)

    def test_module_fingerprints_match_the_single_function_forms(self):
        module, _ = build(BASE)
        main = module.functions["main"]
        assert module_fingerprints(module, salt="s")["main"] == {
            "semantic": function_fingerprint(main, salt="s"),
            "exact": exact_fingerprint(main, salt="s"),
        }

    def test_canonical_text_uses_first_occurrence_names(self):
        module, _ = build(BASE)
        text = canonical_function_text(module.functions["main"])
        assert "total" not in text
        assert text.startswith("func main(v0)")


class TestSensitivity:
    def test_operator_flip_changes_it(self):
        assert fingerprint_of(BASE) != fingerprint_of(
            BASE.replace("n + 1", "n * 1")
        )

    def test_constant_flip_changes_it(self):
        assert fingerprint_of(BASE) != fingerprint_of(
            BASE.replace("n > 5", "n > 6")
        )

    def test_branch_arm_flip_changes_it(self):
        swapped = BASE.replace(
            "{ total = n + 1; } else { total = n - 1; }",
            "{ total = n - 1; } else { total = n + 1; }",
        )
        assert fingerprint_of(BASE) != fingerprint_of(swapped)

    def test_comparison_direction_changes_it(self):
        assert fingerprint_of(BASE) != fingerprint_of(
            BASE.replace("n > 5", "n < 5")
        )

    def test_callee_flip_changes_it(self):
        calls_f = """
        func f(x) { return x + 1; }
        func g(x) { return x + 1; }
        func main(n) { return f(n); }
        """
        calls_g = calls_f.replace("return f(n)", "return g(n)")
        # f and g are bodies-identical, so only the callee name differs.
        assert fingerprint_of(calls_f) != fingerprint_of(calls_g)

    def test_function_name_is_part_of_the_identity(self):
        # The function's own name is global identity (its callers name
        # it), so bodies-identical functions still get distinct
        # fingerprints -- both semantic and exact.
        module, _ = build(
            """
            func f(x) { var a = x + 2; return a; }
            func g(y) { var b = y + 2; return b; }
            func main(n) { return f(n) + g(n); }
            """
        )
        fps = module_fingerprints(module)
        assert fps["f"]["semantic"] != fps["g"]["semantic"]
        assert fps["f"]["exact"] != fps["g"]["exact"]
        # Minus the leading name line, the canonical bodies coincide.
        f_text = canonical_function_text(module.functions["f"])
        g_text = canonical_function_text(module.functions["g"])
        assert f_text.split("\n", 1)[1] == g_text.split("\n", 1)[1]


class TestSalt:
    def test_salt_separates_equal_texts(self):
        assert fingerprint_of(BASE, salt="a") != fingerprint_of(BASE, salt="b")

    def test_config_changes_the_salt(self):
        assert fingerprint_salt(VRPConfig()) != fingerprint_salt(
            VRPConfig(max_ranges=7)
        )

    def test_engine_version_changes_the_salt(self, monkeypatch):
        before = fingerprint_salt()
        monkeypatch.setattr(
            fp_mod, "engine_salt", lambda: "vrp-engine vNEXT"
        )
        assert fingerprint_salt() != before
