"""The range algebra against its frozen reference (tests/lattice_reference.py).

Generated bounds, ranges, range lists and operands cover numeric,
symbolic and infinite bounds, integers past the saturation limit,
repeated extents, probabilities that do not sum to exactly 1, and
inverted or incomparable bounds.  A finite offset is always an ``int``
(``Bound`` rejects any other), so the offsets drawn are ints and ±inf.  For each, the production code and
the reference must agree on four things: the exact result (``repr`` of
every range, so probabilities bit for bit), the same ``RangeError`` /
``ValueError`` (type and message), the same ``sub_operations`` tally,
and the same interned object for equal results.  Binary arithmetic,
refinement and comparison are also run a second time on the same
extents with new weights, as a loop lap that only reweights its sets
runs them.  Set building is also run on up to 16 distinct extents, so
that compaction meets ties in cost, pairs with no hull and hulls of
infinite width.  Binary arithmetic, refinement, comparison and the φ
merge are run again, twice, on the same shapes with weights that are
free, fall to or below ``PROB_EPSILON``, or sum to exactly 1; the φ
merge against the reference set builder.  Binary arithmetic and the φ
merge are also run on shapes over the range cap, with weights that
repeat an earlier lap's (a ``from_ranges`` hit) and weights that do
not (a build).  The ``from_ranges`` key is checked to be equal exactly
when the ranges it stands for are.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.core import comparisons, counters, perf, range_arith, rangeset, refine
from repro.core.bounds import NEG_INF, POS_INF, Bound, bound_max, bound_min
from repro.core.comparisons import DEFAULT_EXACT_LIMIT
from repro.core.ranges import StridedRange
from repro.core.rangeset import (
    BOTTOM,
    DEFAULT_MAX_RANGES,
    PROB_EPSILON,
    TOP,
    RangeSet,
    intern_rangeset,
)
from tests import lattice_reference as ref

DIFFERENTIAL = settings(max_examples=400, deadline=None, derandomize=True)

OFFSETS = st.one_of(
    st.integers(-12, 12),
    st.sampled_from([NEG_INF, POS_INF]),
    st.sampled_from([2 ** 1022, 2 ** 1022 + 1, -(2 ** 1023), 2 ** 1030]),
)
SYMBOLS = st.sampled_from([None, None, None, "a", "b"])


@st.composite
def bounds(draw):
    offset = draw(OFFSETS)
    symbol = draw(SYMBOLS)
    try:
        return Bound(offset, symbol)
    except ValueError:  # a symbolic bound must be finite
        return Bound(0, symbol)


PROBABILITIES = st.one_of(
    st.sampled_from([0.0, 1e-13, 0.1, 0.25, 1 / 3, 0.5, 0.7, 1.0]),
    st.floats(0.0, 2.0, allow_nan=False),
)
RAW_RANGES = st.tuples(
    st.one_of(PROBABILITIES, st.sampled_from([-0.5])),
    bounds(),
    bounds(),
    st.integers(-1, 7),
)


def outcome(build, *args):
    """``("ok", result)`` or ``("error", type, message)``."""
    try:
        return ("ok", build(*args))
    except (ValueError, ArithmeticError) as error:  # RangeError is a ValueError
        return ("error", type(error), str(error))


def exact(value):
    """Every field of a range or set, probabilities bit for bit."""
    if isinstance(value, StridedRange):
        return repr(value)
    if isinstance(value, RangeSet):
        return (value.is_top, value.is_bottom, tuple(repr(r) for r in value.ranges))
    return value


def same(production, reference):
    assert production[0] == reference[0], (production, reference)
    if production[0] == "error":
        assert production[1:] == reference[1:]
        return
    assert exact(production[1]) == exact(reference[1])
    if isinstance(production[1], RangeSet):
        # An equal set built by the reference interns to the object the
        # production builder returned.
        assert intern_rangeset(reference[1]) is production[1]


def built(raw):
    return outcome(StridedRange, *raw)


@st.composite
def range_lists(draw, min_size=1, max_size=8):
    """Ranges drawn from a small pool of extents (so extents repeat),
    each with its own probability; sometimes scaled to sum to 1."""
    raws = draw(st.lists(RAW_RANGES, min_size=2, max_size=5))
    pool = [r[1] for r in map(built, raws) if r[0] == "ok"]
    pool.append(StridedRange.span(1.0, 0, 3))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=min_size, max_size=max_size))
    weights = [draw(PROBABILITIES) for _ in picks]
    if draw(st.booleans()):
        total = sum(weights)
        if total > 0:
            weights = [w / total for w in weights]
    return [pool[i].with_probability(w) for i, w in zip(picks, weights)]


@st.composite
def operands(draw):
    kind = draw(st.sampled_from(["set"] * 6 + ["top", "bottom"]))
    if kind == "top":
        return TOP
    if kind == "bottom":
        return BOTTOM
    return RangeSet.from_ranges(draw(range_lists(min_size=2, max_size=5)), renormalise=True)


class TestBounds:
    @DIFFERENTIAL
    @given(bounds(), bounds())
    def test_comparison_and_hash(self, a, b):
        same(outcome(a.compare, b), outcome(ref.compare, a, b))
        same(outcome(a.distance, b), outcome(ref.distance, a, b))
        same(outcome(bound_min, a, b), outcome(ref.bound_min, a, b))
        same(outcome(bound_max, a, b), outcome(ref.bound_max, a, b))
        assert (a == b) is ref.bound_eq(a, b)
        assert hash(a) == ref.bound_hash(a)


class TestRanges:
    @DIFFERENTIAL
    @given(RAW_RANGES, RAW_RANGES)
    def test_construction_and_queries(self, raw, other_raw):
        production, reference = built(raw), outcome(ref.strided_range, *raw)
        same(production, reference)
        if production[0] != "ok":
            return
        r = production[1]
        assert r.is_single() is ref.is_single(r)
        same(outcome(r.count), outcome(ref.count, r))
        same(outcome(r.width), outcome(ref.width, r))
        assert hash(r) == ref.range_hash(r)
        other = built(other_raw)
        if other[0] == "ok":
            assert r.same_extent(other[1]) is ref.same_extent(r, other[1])
            assert (r == other[1]) is (
                ref.same_extent(r, other[1]) and r.probability == other[1].probability
            )


#: Extents that put compaction through all its paths: numeric spans of
#: a few shared widths and single values (ties in cost), ranges over
#: two symbols (a pair across symbols has no hull) and half-open ones
#: (hulls of infinite width, the fallback).
EXTENTS = st.one_of(
    st.builds(
        lambda lo, width, stride: (Bound(lo), Bound(lo + width), stride),
        st.integers(-40, 40),
        st.sampled_from([0, 2, 4, 4, 8]),
        st.sampled_from([1, 2]),
    ),
    st.builds(
        lambda symbol, lo, width: (Bound(lo, symbol), Bound(lo + width, symbol), 1),
        st.sampled_from(["a", "b"]),
        st.integers(-6, 6),
        st.sampled_from([0, 2, 4]),
    ),
    st.integers(-20, 20).flatmap(
        lambda at: st.sampled_from([(Bound(NEG_INF), Bound(at), 1), (Bound(at), Bound(POS_INF), 1)])
    ),
)


@st.composite
def compaction_lists(draw):
    """Up to 16 ranges of distinct extents, weighted all alike, from a
    few shared values, or freely; the weights sum to 1."""
    distinct = {}
    size = draw(st.integers(2, 16))
    for lo, hi, stride in draw(st.lists(EXTENTS, min_size=size, max_size=size + 8)):
        r = StridedRange(1.0, lo, hi, stride)
        distinct.setdefault(r.extent, r)
    picked = list(distinct.values())[:16]
    weighting = draw(st.sampled_from(["alike", "shared", "free"]))
    if weighting == "alike":
        weights = [1.0 / len(picked)] * len(picked)
    elif weighting == "shared":
        weights = [draw(st.sampled_from([0.1, 0.2, 0.25])) for _ in picked]
    else:
        weights = [draw(st.floats(0.01, 1.0)) for _ in picked]
    total = sum(weights)
    return [r.with_probability(w / total) for r, w in zip(picked, weights)]


class TestSets:
    @DIFFERENTIAL
    @given(range_lists(), st.integers(0, 5), st.booleans())
    def test_from_ranges(self, ranges, max_ranges, renormalise):
        perf.reset()
        same(
            outcome(RangeSet.from_ranges, ranges, max_ranges, renormalise),
            outcome(ref.build_set, ranges, max_ranges, renormalise),
        )

    @DIFFERENTIAL
    @given(compaction_lists(), st.integers(1, 4), st.booleans())
    def test_compaction(self, ranges, max_ranges, renormalise):
        perf.reset()
        same(
            outcome(RangeSet.from_ranges, ranges, max_ranges, renormalise),
            outcome(ref.build_set, ranges, max_ranges, renormalise),
        )


class TestCompactionCounting:
    """Compaction computes each candidate pair's hull once per call."""

    SIXTEEN = [StridedRange.span(1 / 16, 10 * k, 10 * k + k % 3, 1) for k in range(16)]

    def hulls(self, monkeypatch, ranges, max_ranges):
        calls = []
        monkeypatch.setattr(rangeset, "_hull_pair", counted(calls, rangeset._hull_pair))
        perf.reset()
        built = RangeSet.from_ranges(ranges, max_ranges, renormalise=True)
        monkeypatch.undo()
        same(("ok", built), outcome(ref.build_set, ranges, max_ranges, True))
        return len(calls)

    def test_sixteen_ranges_to_four_score_each_pair_once(self, monkeypatch):
        # C(16, 2) pairs, then only the new hull's pairs: 14 + 13 + ... + 4
        # (scoring every live pair in each of the 12 rounds takes 670).
        assert self.hulls(monkeypatch, self.SIXTEEN, 4) <= 120 + sum(range(4, 15))

    def test_a_list_within_the_cap_computes_no_hull(self, monkeypatch):
        assert self.hulls(monkeypatch, self.SIXTEEN[:4], 4) == 0


def same_binop(op, a, b, max_ranges):
    production_tally, reference_tally = counters.Counters(), counters.Counters()
    with counters.use(production_tally):
        production = outcome(range_arith.evaluate_binop, op, a, b, max_ranges)
    with counters.use(reference_tally):
        reference = outcome(ref.evaluate_binop, op, a, b, max_ranges)
    same(production, reference)
    assert production_tally.sub_operations == reference_tally.sub_operations


def same_refine(src, op, bound, max_ranges):
    same(
        outcome(refine.refine_set, src, op, bound, max_ranges),
        outcome(ref.refine_set, src, op, bound, max_ranges),
    )


#: The numeric ranges a comparison integrates over when a pair mixes a
#: symbol with numbers (the engine passes its live ranges instead).
SYMBOL_RANGES = {"a": RangeSet.span(0, 6, 2), "b": RangeSet.span(-3, 40)}


def same_compare(op, a, b, a_name, b_name, symbol_range=SYMBOL_RANGES.get):
    """``compare_sets`` and the reference agree on both masses, bit for
    bit, and on the ``sub_operations`` tally."""
    production_tally, reference_tally = counters.Counters(), counters.Counters()
    arguments = (op, a, b, a_name, b_name, DEFAULT_EXACT_LIMIT, symbol_range)
    with counters.use(production_tally):
        production = outcome(comparisons.compare_sets, *arguments)
    with counters.use(reference_tally):
        reference = outcome(ref.compare_sets, *arguments)
    if production[0] == "ok" and production[1] is not None:
        masses = production[1].probability, production[1].unknown_mass
        production = ("ok", repr(masses))
        reference = ("ok", repr(reference[1]))
    assert production == reference
    assert production_tally.sub_operations == reference_tally.sub_operations


RELOPS = ["lt", "le", "gt", "ge", "eq", "ne"]
NAMES = st.sampled_from([None, "a", "b"])


class TestBinop:
    @DIFFERENTIAL
    @given(
        st.sampled_from(sorted(range_arith._BINOP_HANDLERS)),
        operands(),
        operands(),
        st.integers(1, 4),
    )
    def test_evaluate_binop(self, op, a, b, max_ranges):
        perf.reset()
        same_binop(op, a, b, max_ranges)


class TestRefine:
    @DIFFERENTIAL
    @given(operands(), st.sampled_from(RELOPS), bounds(), st.integers(1, 4))
    def test_refine_set(self, src, op, bound, max_ranges):
        perf.reset()
        same_refine(src, op, bound, max_ranges)


class TestCompare:
    @DIFFERENTIAL
    @given(st.sampled_from(RELOPS), operands(), operands(), NAMES, NAMES)
    def test_compare_sets(self, op, a, b, a_name, b_name):
        perf.reset()
        same_compare(op, a, b, a_name, b_name)


# -- a loop lap: the same extents, new weights -----------------------------------

WEIGHTS = st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4)


def reweighted(rset, weights):
    """``rset``'s extents with new weights (each set holds at most four
    ranges, all of distinct extents, so none is folded or merged)."""
    if not rset.is_set:
        return rset
    return RangeSet.from_ranges(
        [r.with_probability(w) for r, w in zip(rset.ranges, weights)], renormalise=True
    )


class TestLaps:
    """Each operation runs on its operands and then again on the same
    extents with new weights; both must be what the reference computes.
    The memo tables are not
    emptied between examples, so a memo key that leaves out part of
    what the result depends on shows up as another example's result."""

    @DIFFERENTIAL
    @given(
        st.sampled_from(sorted(range_arith._BINOP_HANDLERS)),
        operands(),
        operands(),
        WEIGHTS,
        WEIGHTS,
        st.integers(1, 4),
    )
    def test_evaluate_binop(self, op, a, b, a_weights, b_weights, max_ranges):
        same_binop(op, a, b, max_ranges)
        same_binop(op, reweighted(a, a_weights), reweighted(b, b_weights), max_ranges)

    @DIFFERENTIAL
    @given(operands(), WEIGHTS, st.sampled_from(RELOPS), bounds(), st.integers(1, 4))
    def test_refine_set(self, src, weights, op, bound, max_ranges):
        same_refine(src, op, bound, max_ranges)
        same_refine(reweighted(src, weights), op, bound, max_ranges)

    @DIFFERENTIAL
    @given(st.sampled_from(RELOPS), operands(), operands(), WEIGHTS, WEIGHTS, NAMES, NAMES)
    def test_compare_sets(self, op, a, b, a_weights, b_weights, a_name, b_name):
        same_compare(op, a, b, a_name, b_name)
        a, b = reweighted(a, a_weights), reweighted(b, b_weights)
        same_compare(op, a, b, a_name, b_name)


def counted(calls, function):
    def counting(*args):
        calls.append(function.__name__)
        return function(*args)

    return counting


class TestLapCounting:
    """The tables a lap's set-level operations fill are the ``perf``
    tables, and ``perf.reset()`` empties them."""

    A = RangeSet.from_ranges(
        [StridedRange.span(p, lo, lo + 6, 2) for p, lo in ((0.1, 0), (0.2, 10), (0.3, 20), (0.4, 30))]
    )
    B = RangeSet.from_ranges(
        [StridedRange.span(0.5, 1, 4), StridedRange.symbol(0.25, "a", 2), StridedRange.single(0.25, 9)]
    )

    def test_reset_empties_the_pair_tables(self):
        # A binop's pairs are kept only by the from_ranges table its
        # result is interned in; no per-pair memo is left.
        perf.reset()
        range_arith.evaluate_binop("add", self.A, self.B)
        refine.refine_set(self.A, "lt", Bound(25))
        comparisons.compare_sets("lt", self.A, self.B, b_name="n", symbol_range={}.get)
        assert len(rangeset._FROM_RANGES)
        assert not hasattr(range_arith, "_PAIRS")
        assert "binop_pair" not in perf.snapshot()
        perf.reset()
        assert len(rangeset._FROM_RANGES) == 0
        assert perf.snapshot()["from_ranges"]["misses"] == 0


# -- reweighted laps: the same shapes, new weights -------------------------------

#: New weights for each range of a set: free; dyadic, so that a binop's
#: products and a φ merge's shares sum to exactly 1 and the
#: renormalising factor is exactly 1.0; or at and around PROB_EPSILON,
#: which the set builder drops.
DYADIC = {
    1: [[1.0]],
    2: [[0.5, 0.5], [0.75, 0.25]],
    3: [[0.5, 0.25, 0.25], [0.25, 0.25, 0.5]],
    4: [[0.25] * 4, [0.5, 0.25, 0.125, 0.125], [0.125, 0.125, 0.25, 0.5]],
}
TINY = [0.0, 1e-13, PROB_EPSILON, 2e-12, 1e-6, 0.5]


def lap_weights(size):
    return st.one_of(
        st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size),
        st.sampled_from(DYADIC[size]),
        st.lists(st.sampled_from(TINY), min_size=size, max_size=size),
    )


def relaid(data, rset):
    """``rset``'s ranges with drawn weights, as they are: neither
    renormalised nor filtered, so a range may weigh at or below
    PROB_EPSILON and the set keeps its shape."""
    if not rset.is_set:
        return rset
    weights = data.draw(lap_weights(len(rset.ranges)))
    ranges = tuple(r.with_probability(w) for r, w in zip(rset.ranges, weights))
    return intern_rangeset(RangeSet(RangeSet._SET_KIND, ranges))


def reference_merge(contributions, max_ranges):
    """``rangeset.merge_weighted`` over the reference set builder."""
    weighted = []
    for weight, rset in contributions:
        if weight <= PROB_EPSILON or rset.is_top:
            continue
        if rset.is_bottom:
            return BOTTOM
        weighted.append((weight, rset))
    if not weighted:
        return TOP
    total = sum(weight for weight, _ in weighted)
    ranges = []
    for weight, rset in weighted:
        factor = weight / total
        ranges.extend(ref.reweighted(r.probability * factor, r) for r in rset.ranges)
    return ref.build_set(ranges, max_ranges, True)


def same_merge(contributions, max_ranges):
    same(
        outcome(rangeset.merge_weighted, contributions, max_ranges),
        outcome(reference_merge, contributions, max_ranges),
    )


#: A φ's in-edge weights: ordinary, at and below PROB_EPSILON, and
#: zero (an edge not yet taken).
EDGE_WEIGHTS = st.sampled_from([0.0, 1e-13, PROB_EPSILON, 2e-12, 0.25, 0.5, 1.0, 3.0, 0.1])

#: Operands whose pairs need an integration over a symbol: a symbol against
#: numbers, over the symbols ``SYMBOL_RANGES`` knows.
MIXED = st.sampled_from(
    [
        RangeSet.from_ranges([StridedRange(1.0, Bound(0), Bound(1, "a"), 1)]),
        RangeSet.from_ranges(
            [StridedRange(0.5, Bound(-2), Bound(0, "b"), 1), StridedRange.single(0.5, 3)]
        ),
        RangeSet.symbol("a"),
        RangeSet.symbol("b", -1),
    ]
)


#: Ranges a thousand apart, so that their sums, differences and
#: products with a few small ranges keep their extents apart.
FAR = st.lists(st.integers(-9, 9), min_size=2, max_size=4, unique=True).map(
    lambda los: [(Bound(1000 * lo), Bound(1000 * lo + 6), 2) for lo in los]
)
#: Small singles and spans, one around zero (a ⊥ divisor), one over a
#: symbol (no hull with a number) and one half-open (an infinite hull).
NEAR = st.lists(
    st.sampled_from(
        [
            (Bound(2), Bound(2), 0),
            (Bound(3), Bound(3), 0),
            (Bound(-5), Bound(-5), 0),
            (Bound(10), Bound(14), 2),
            (Bound(-1), Bound(1), 1),
            (Bound(0, "a"), Bound(2, "a"), 1),
            (Bound(-3), Bound(POS_INF), 1),
        ]
    ),
    min_size=2,
    max_size=3,
    unique=True,
)


@st.composite
def spread(draw, extents):
    """A set over the drawn extents, with free weights."""
    laid = draw(extents)
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(laid), max_size=len(laid)))
    ranges = [StridedRange(w, lo, hi, stride) for w, (lo, hi, stride) in zip(weights, laid)]
    return RangeSet.from_ranges(ranges, renormalise=True)


class TestPlans:
    """Each operation runs and then runs again, twice, on the same
    shapes with new weights, as a loop lap that only reweights its sets
    runs it; each run must be what the reference computes, with the
    same tally.  ``cold`` empties every memo table first; otherwise they
    stay warm across examples, so a memo key that leaves out part of
    what the result depends on shows up as another example's result."""

    @DIFFERENTIAL
    @given(
        st.sampled_from(sorted(range_arith._BINOP_HANDLERS)),
        st.one_of(operands(), MIXED),
        operands(),
        st.integers(1, 4),
        st.booleans(),
        st.data(),
    )
    def test_evaluate_binop(self, op, a, b, max_ranges, cold, data):
        if cold:
            perf.reset()
        same_binop(op, a, b, max_ranges)
        for _ in range(2):
            same_binop(op, relaid(data, a), relaid(data, b), max_ranges)

    @DIFFERENTIAL
    @given(
        st.one_of(operands(), MIXED),
        st.sampled_from(RELOPS),
        bounds(),
        st.integers(1, 4),
        st.booleans(),
        st.data(),
    )
    def test_refine_set(self, src, op, bound, max_ranges, cold, data):
        if cold:
            perf.reset()
        same_refine(src, op, bound, max_ranges)
        for _ in range(2):
            same_refine(relaid(data, src), op, bound, max_ranges)

    @DIFFERENTIAL
    @given(
        st.sampled_from(RELOPS),
        st.one_of(operands(), MIXED),
        st.one_of(operands(), MIXED),
        NAMES,
        NAMES,
        st.sampled_from([SYMBOL_RANGES.get, None]),
        st.booleans(),
        st.data(),
    )
    def test_compare_sets(self, op, a, b, a_name, b_name, symbol_range, cold, data):
        if cold:
            perf.reset()
        same_compare(op, a, b, a_name, b_name, symbol_range)
        for _ in range(2):
            symbol_range = data.draw(st.sampled_from([SYMBOL_RANGES.get, None]))
            lap = relaid(data, a), relaid(data, b)
            same_compare(op, *lap, a_name, b_name, symbol_range)

    @DIFFERENTIAL
    @given(
        st.lists(st.tuples(EDGE_WEIGHTS, operands()), min_size=1, max_size=3),
        st.integers(1, 4),
        st.booleans(),
        st.data(),
    )
    def test_merge_weighted(self, contributions, max_ranges, cold, data):
        if cold:
            perf.reset()
        same_merge(contributions, max_ranges)
        for _ in range(2):
            lap = [(data.draw(EDGE_WEIGHTS), relaid(data, rset)) for _, rset in contributions]
            same_merge(lap, max_ranges)

    @DIFFERENTIAL
    @given(
        st.sampled_from(["add", "sub", "mul", "div", "max"]),
        spread(FAR),
        spread(NEAR),
        st.integers(1, 3),
        st.booleans(),
        st.data(),
    )
    def test_evaluate_binop_over_the_cap(self, op, a, b, max_ranges, cold, data):
        """A shape over the cap (or with a ⊥ pair), cold and then on
        three laps, the third repeating the first's weights, so its
        set comes from the ``from_ranges`` table."""
        if cold:
            perf.reset()
        same_binop(op, a, b, max_ranges)
        first = relaid(data, a), relaid(data, b)
        for a_lap, b_lap in (first, (relaid(data, a), relaid(data, b)), first):
            same_binop(op, a_lap, b_lap, max_ranges)

    @DIFFERENTIAL
    @given(
        st.lists(st.tuples(EDGE_WEIGHTS, st.one_of(spread(FAR), spread(NEAR))), min_size=2, max_size=3),
        st.integers(1, 3),
        st.booleans(),
        st.data(),
    )
    def test_merge_weighted_over_the_cap(self, contributions, max_ranges, cold, data):
        """A φ over the cap, cold and then on three laps, the third
        repeating the first's edge weights and sets with the φ memo
        emptied, so that its set comes from the ``from_ranges`` table."""
        if cold:
            perf.reset()
        same_merge(contributions, max_ranges)

        def lap():
            return [(data.draw(EDGE_WEIGHTS), relaid(data, rset)) for _, rset in contributions]

        first = lap()
        same_merge(first, max_ranges)
        same_merge(lap(), max_ranges)
        rangeset._MERGE_WEIGHTED.clear()
        same_merge(first, max_ranges)

    def test_one_shape_under_each_cap_and_name(self):
        """A memo key that leaves out the cap or the operand names
        would show here: each shape meets every cap and every name, on
        the operands as built and on two laps of new weights."""
        a = RangeSet.from_ranges(
            [
                StridedRange.span(0.5, 0, 6, 2),
                StridedRange.span(0.25, 10, 12),
                StridedRange.single(0.25, 20),
            ]
        )
        b = RangeSet.from_ranges([StridedRange.single(0.25, 1), StridedRange.single(0.75, 8)])
        near = RangeSet.from_ranges(
            [StridedRange(0.5, Bound(-3, "a"), Bound(-1, "a"), 1), StridedRange.span(0.5, 0, 5)]
        )
        laps = ([0.25, 0.5, 0.25], [0.5, 0.5]), ([0.1, 0.6, 0.3], [0.9, 0.1])
        perf.reset()
        for max_ranges in (4, 3, 2, 1):
            for a_weights, b_weights in ((None, None),) + laps:
                a_lap = a if a_weights is None else reweighted(a, a_weights)
                b_lap = b if b_weights is None else reweighted(b, b_weights)
                same_binop("add", a_lap, b_lap, max_ranges)  # 6 extents
                same_binop("add", b_lap, b, max_ranges)  # 3 extents
                same_refine(a_lap, "gt", Bound(4), max_ranges)
                same_merge([(0.5, a_lap), (0.5, a)], max_ranges)
        for names in ((None, None), (None, "a"), ("a", None), ("b", "a"), (None, None)):
            for weights in (None, [0.5, 0.5], [0.2, 0.8]):
                lap = near if weights is None else reweighted(near, weights)
                same_compare("lt", lap, b, *names, None)
                same_compare("lt", b, lap, *names, None)

    def test_bottom_at_each_pair(self):
        """A binop whose pair k is ⊥ tallies k + 1 pairs, warm as cold."""
        divisors = [RangeSet.constant(0), RangeSet.span(-3, 3)]
        dividend = RangeSet.from_ranges(
            [StridedRange.span(0.25, 10 * k, 10 * k + 4) for k in range(4)]
        )
        for k in range(4):
            # k negative divisors sort before the one that contains 0
            # (its quotient is ⊥), the positive ones after it.
            ranges = [StridedRange.single(0.25, j - 10) for j in range(k)]
            ranges.append(StridedRange.span(0.25, -1, 1))
            ranges += [StridedRange.single(0.25, 5 + j) for j in range(3 - k)]
            divisor = RangeSet.from_ranges(ranges)
            assert divisor.ranges[k].lo.offset == -1
            divisors.append(divisor)
            perf.reset()
            for weights in ([0.2] * 4, [0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1]):
                lap = reweighted(divisor, weights)
                tally = counters.Counters()
                with counters.use(tally):
                    assert range_arith.evaluate_binop("div", dividend, lap) is BOTTOM
                assert tally.sub_operations == k + 1
                same_binop("div", dividend, lap, DEFAULT_MAX_RANGES)
        for divisor in divisors:
            same_binop("div", dividend, divisor, DEFAULT_MAX_RANGES)

    def test_a_symbol_flipping_between_bottom_and_numeric(self):
        """A pair unknown from its extents asks, on every lap, for its
        one symbol's live range, as the reference pair loop does, and
        integrates only when that range is numeric."""
        # [0 : a+1] mixes a number with ``a``: unknown from the extents.
        mixed = RangeSet.from_ranges(
            [StridedRange(0.5, Bound(0), Bound(1, "a"), 1), StridedRange.single(0.5, 3)]
        )
        other = RangeSet.from_ranges([StridedRange.single(0.5, 2), StridedRange.span(0.5, 5, 9)])
        numeric = (RangeSet.span(0, 6, 2), RangeSet.span(-3, 40))
        lives = [BOTTOM, numeric[0], BOTTOM, None, numeric[1], TOP, RangeSet.symbol("b"), numeric[0]]
        laps = ([0.5, 0.5], [0.25, 0.75], [0.9, 0.1])
        for op in RELOPS:
            for names in ((None, None), (None, "a"), ("b", None)):
                perf.reset()
                for lap, live in enumerate(lives):
                    a = reweighted(mixed, laps[lap % 3])
                    seen = []
                    for compare in (comparisons.compare_sets, ref.compare_sets):
                        asked = []

                        def symbol_range(name):
                            asked.append(name)
                            return live if name == "a" else None

                        tally = counters.Counters()
                        with counters.use(tally):
                            result = compare(
                                op, a, other, *names, DEFAULT_EXACT_LIMIT, symbol_range
                            )
                        if isinstance(result, comparisons.CompareOutcome):
                            result = (result.probability, result.unknown_mass)
                        seen.append((repr(result), asked, tally.sub_operations))
                    assert seen[0] == seen[1], (op, names, lap)
                    # Both pairs of [0 : a+1] are unknown from the extents:
                    # each asks, every lap; only a numeric range settles them.
                    assert seen[0][1] == ["a", "a"]
                    assert (result[1] == 0.0) == (live in numeric), (op, names, lap)


# -- the from_ranges key -------------------------------------------------------------

#: Offsets that are infinite, large enough to saturate to infinity, or
#: just short of that, beside small ones.
KEY_OFFSETS = st.sampled_from([0, 1, -1, 7, NEG_INF, POS_INF, 2 ** 1022, 2 ** 1022 + 1, -(2 ** 1023)])
#: Probabilities with neighbours one ulp away, and both zeros.
KEY_PROBABILITIES = st.sampled_from(
    [p for q in (PROB_EPSILON, 0.25, 1 / 3, 1.0) for p in (math.nextafter(q, 0.0), q, math.nextafter(q, 2.0))]
    + [0.0, -0.0, 1e-13]
)


@st.composite
def key_ranges(draw):
    probability = draw(KEY_PROBABILITIES)
    symbol = draw(st.sampled_from([None, None, "a", "b"]))
    lo, hi = sorted([draw(KEY_OFFSETS), draw(KEY_OFFSETS)])
    if symbol is not None and not (math.isinf(lo) or math.isinf(hi)):
        return StridedRange(probability, Bound(lo, symbol), Bound(hi, symbol), draw(st.integers(0, 3)))
    return StridedRange(probability, Bound(lo), Bound(hi), draw(st.integers(0, 3)))


def rebuilt(r):
    """An equal range that is another object."""
    return StridedRange(r.probability, Bound(r.lo.offset, r.lo.symbol), Bound(r.hi.offset, r.hi.symbol), r.stride)


@st.composite
def key_pairs(draw):
    """Two tuples of ranges: equal, equal but rebuilt, one range a ulp
    or an extent apart, reordered, or drawn apart."""
    first = tuple(draw(st.lists(key_ranges(), max_size=4)))
    how = draw(st.sampled_from(["same", "rebuilt", "ulp", "extent", "reversed", "apart"]))
    if how == "apart" or not first:
        return first, tuple(draw(st.lists(key_ranges(), max_size=4)))
    second = [rebuilt(r) for r in first] if how != "same" else list(first)
    at = draw(st.integers(0, len(first) - 1))
    if how == "ulp":
        r = second[at]
        second[at] = r.with_probability(math.nextafter(r.probability, draw(st.sampled_from([0.0, 2.0]))))
    elif how == "extent":
        second[at] = draw(key_ranges()).with_probability(second[at].probability)
    elif how == "reversed":
        second.reverse()
    return first, tuple(second)


class TestFromRangesKey:
    """``from_ranges`` keys on extents and weights; two keys are equal
    exactly when the tuples of ranges (and cap and flag) are."""

    @DIFFERENTIAL
    @given(key_pairs(), st.integers(1, 4), st.integers(1, 4), st.booleans(), st.booleans())
    def test_keys_equal_exactly_when_the_ranges_are(self, pair, cap, other_cap, renormalise, flip):
        first, second = pair
        other_flag = renormalise is not flip
        key = rangeset.from_ranges_key(first, cap, renormalise)
        other = rangeset.from_ranges_key(second, other_cap, other_flag)
        ranges_equal = (first, cap, renormalise) == (second, other_cap, other_flag)
        assert (key == other) is ranges_equal
        if ranges_equal:
            assert hash(key) == hash(other)
