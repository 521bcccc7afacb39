"""The interprocedural suite: multi-function, call-dominated programs.

Four programs whose interesting branches test *call results*, not
locally computed values.  Each helper is pure but is invoked from at
least one call site with an unanalysable (⊥) argument, so the
context-insensitive merge of Patterson §3.7 poisons the merged
parameter ranges and every caller-side branch on a return value falls
back to heuristics.  Procedure cloning (:mod:`repro.core.cloning`, the
paper's answer for "significantly different contexts") gives each group
of agreeing call sites its own copy of the helper, so the narrow call
sites recover range-based predictions:

* ``inter_dispatch`` -- one affine helper, two narrow sites and one ⊥
  site; cloning recovers both narrow-site branches;
* ``inter_pipeline`` -- a two-deep helper chain; cloning the inner
  helper recovers the branch on its narrow call site;
* ``inter_mixpair``  -- a two-parameter helper, so call sites group by
  an argument tuple;
* ``inter_recurse``  -- a self-recursive helper; recursive functions are
  never cloned and the return range stays unknown, pinning the
  no-regression baseline.

The helpers stay away from ``%`` as the *last* operation on the
unknown-argument path on purpose: floor modulo bounds its result even
for a ⊥ operand, which would un-poison the merged summary and erase
the very effect this suite measures.
"""

from __future__ import annotations

from repro.workloads.registry import Workload, lcg_stream, register

DISPATCH_SOURCE = """
func affine(v) {
  return v * 3 + 1;
}

func main(n) {
  var low = 0;
  var high = 0;
  var wild = 0;
  for (i = 0; i < n; i = i + 1) {
    var x = input();
    var a8 = x % 8;
    var a = affine(a8);
    if (a < 12) { low = low + 1; } else { high = high + 1; }
    var a4 = x % 4;
    var b = affine(a4);
    if (b < 7) { low = low + 1; }
    var w = affine(x);
    if (w < 0) { wild = wild + 1; }
  }
  return low * 1000 + high * 10 + wild % 10;
}
"""

register(
    Workload(
        name="inter_dispatch",
        suite="inter",
        description="Affine helper with narrow and unknown call sites (cloning wins)",
        source=DISPATCH_SOURCE,
        train_args=[80],
        ref_args=[640],
        train_inputs=lcg_stream(131, 80),
        ref_inputs=lcg_stream(733, 640),
    )
)


PIPELINE_SOURCE = """
func inner(v) {
  return v * 2 + 1;
}

func outer(v) {
  var w = inner(v);
  return w + v;
}

func main(n) {
  var small = 0;
  var big = 0;
  var noise = 0;
  for (i = 0; i < n; i = i + 1) {
    var x = input();
    var x4 = x % 4;
    var y = outer(x4);
    if (y < 5) { small = small + 1; } else { big = big + 1; }
    var z = inner(x);
    if (z < 0) { noise = noise + 1; }
  }
  return small * 1000 + big * 10 + noise % 10;
}
"""

register(
    Workload(
        name="inter_pipeline",
        suite="inter",
        description="Two-deep helper chain: cloning the inner helper recovers",
        source=PIPELINE_SOURCE,
        train_args=[80],
        ref_args=[640],
        train_inputs=lcg_stream(269, 80),
        ref_inputs=lcg_stream(881, 640),
    )
)


MIXPAIR_SOURCE = """
func mix(a, b) {
  return a * 4 + b * 2 + 1;
}

func main(n) {
  var lowc = 0;
  var midc = 0;
  var t = 0;
  for (i = 0; i < n; i = i + 1) {
    var x = input();
    var p4 = x % 4;
    var p2 = x % 2;
    var p = mix(p4, p2);
    if (p < 9) { lowc = lowc + 1; }
    var q8 = x % 8;
    var q4 = x % 4;
    var q = mix(q8, q4);
    if (q < 20) { midc = midc + 1; }
    var r = mix(x, 1);
    if (r < 0) { t = t + 1; }
  }
  return lowc * 10000 + midc * 100 + t % 100;
}
"""

register(
    Workload(
        name="inter_mixpair",
        suite="inter",
        description="Two-parameter helper: call sites grouped by argument tuple",
        source=MIXPAIR_SOURCE,
        train_args=[80],
        ref_args=[640],
        train_inputs=lcg_stream(421, 80),
        ref_inputs=lcg_stream(977, 640),
    )
)


RECURSE_SOURCE = """
func fact(v) {
  if (v < 2) { return 1; }
  var r = fact(v - 1);
  return v * r;
}

func main(n) {
  var acc = 0;
  for (i = 0; i < n; i = i + 1) {
    var x = input();
    var x6 = x % 6;
    var f = fact(x6);
    if (f > 10) { acc = acc + 1; }
  }
  return acc;
}
"""

register(
    Workload(
        name="inter_recurse",
        suite="inter",
        description="Self-recursive helper: never cloned, pins no regression",
        source=RECURSE_SOURCE,
        train_args=[80],
        ref_args=[640],
        train_inputs=lcg_stream(577, 80),
        ref_inputs=lcg_stream(601, 640),
    )
)
