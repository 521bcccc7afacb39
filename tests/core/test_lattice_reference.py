"""The range algebra against its frozen reference (tests/lattice_reference.py).

Generated bounds, ranges, range lists and operands cover numeric,
symbolic and infinite bounds, integers past the saturation limit,
repeated extents, probabilities that do not sum to exactly 1, and
inverted or incomparable bounds.  A finite offset is always an ``int``
(``Bound`` rejects any other), so the offsets drawn are ints and ±inf.  For each, the production code and
the reference must agree on four things: the exact result (``repr`` of
every range, so probabilities bit for bit), the same ``RangeError`` /
``ValueError`` (type and message), the same ``sub_operations`` tally,
and the same interned object for equal results.
"""

from hypothesis import given, settings, strategies as st

from repro.core import counters, perf, range_arith, refine
from repro.core.bounds import NEG_INF, POS_INF, Bound, bound_max, bound_min
from repro.core.ranges import StridedRange
from repro.core.rangeset import BOTTOM, TOP, RangeSet, intern_rangeset
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


class TestSets:
    @DIFFERENTIAL
    @given(range_lists(), st.integers(0, 5), st.booleans())
    def test_from_ranges(self, ranges, max_ranges, renormalise):
        perf.reset()
        same(
            outcome(RangeSet.from_ranges, ranges, max_ranges, renormalise),
            outcome(ref.build_set, ranges, max_ranges, renormalise),
        )


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
        production_tally, reference_tally = counters.Counters(), counters.Counters()
        with counters.use(production_tally):
            production = outcome(range_arith.evaluate_binop, op, a, b, max_ranges)
        with counters.use(reference_tally):
            reference = outcome(ref.evaluate_binop, op, a, b, max_ranges)
        same(production, reference)
        assert production_tally.sub_operations == reference_tally.sub_operations


class TestRefine:
    @DIFFERENTIAL
    @given(
        operands(),
        st.sampled_from(["lt", "le", "gt", "ge", "eq", "ne"]),
        bounds(),
        st.integers(1, 4),
    )
    def test_refine_set(self, src, op, bound, max_ranges):
        perf.reset()
        same(
            outcome(refine.refine_set, src, op, bound, max_ranges),
            outcome(ref.refine_set, src, op, bound, max_ranges),
        )
