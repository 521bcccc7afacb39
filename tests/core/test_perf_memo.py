"""Memoization invariants: counter replay and cache-state neutrality.

The caches may change wall time only.  A memo hit must replay the
exact ``sub_operations`` tally of the evaluation it short-circuits, every
memo must agree with the plain function it wraps, and predictions and
work counters must be the same whatever the caches hold.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import comparisons, counters, perf, range_arith, refine
from repro.core.bounds import NEG_INF, POS_INF, Bound
from repro.core.config import VRPConfig
from repro.core.perf import memo
from repro.core.perf.stats import CacheStats, LRUCache
from repro.core.predictor import VRPPredictor
from repro.core.ranges import StridedRange
from repro.core.rangeset import BOTTOM, TOP, RangeSet
from repro.ir import prepare_module
from repro.lang import compile_source
from repro.workloads import get_workload
from tests.helpers import shrink_caches


@pytest.fixture(autouse=True)
def fresh_caches():
    perf.reset()
    yield
    perf.reset()


def interval(lo, hi):
    return RangeSet.from_ranges([StridedRange(1.0, Bound(lo), Bound(hi), 1)])


class TestCounterReplay:
    def test_binop_hit_replays_sub_operations(self):
        a, b = interval(0, 9), interval(5, 14)
        tally = counters.Counters()
        with counters.use(tally):
            first = memo.evaluate_binop("add", a, b, 4)
        cost = tally.sub_operations
        assert cost > 0

        replay = counters.Counters()
        with counters.use(replay):
            second = memo.evaluate_binop("add", a, b, 4)
        assert second is first  # served from cache (interned object)
        assert replay.sub_operations == cost

    def test_compare_hit_replays_sub_operations(self):
        a, b = interval(0, 9), interval(5, 14)
        tally = counters.Counters()
        with counters.use(tally):
            first = memo.compare_sets("lt", a, b)
        cost = tally.sub_operations

        replay = counters.Counters()
        with counters.use(replay):
            second = memo.compare_sets("lt", a, b)
        assert second.estimate() == first.estimate()
        assert replay.sub_operations == cost

    def test_compare_with_symbol_callback_is_never_cached(self):
        a, b = interval(0, 9), interval(5, 14)
        calls = []

        def symbol_range(name):
            calls.append(name)
            return None

        memo.compare_sets("lt", a, b, a_name="x", symbol_range=symbol_range)
        before = len(memo._COMPARE)
        memo.compare_sets("lt", a, b, a_name="x", symbol_range=symbol_range)
        assert len(memo._COMPARE) == before  # nothing was stored


# -- differential: every memo against the plain function it wraps ------------

RELOPS = ("lt", "le", "gt", "ge", "eq", "ne")
SYMBOLS = ("n", "k")


@st.composite
def numeric_ranges(draw):
    """An integer progression or a half-infinite one."""
    if draw(st.booleans()):
        lo = draw(st.integers(min_value=-40, max_value=40))
        stride = draw(st.integers(min_value=0, max_value=5))
        count = 1 if stride == 0 else draw(st.integers(min_value=1, max_value=12))
        return StridedRange.span(1.0, lo, lo + stride * (count - 1), stride)
    bound = draw(st.integers(min_value=-40, max_value=40))
    if draw(st.booleans()):
        return StridedRange.span(1.0, NEG_INF, bound, 1)
    return StridedRange.span(1.0, bound, POS_INF, 1)


@st.composite
def symbolic_ranges(draw):
    """``[n+a : n+b]``, or a numeric bound paired with a symbolic one."""
    symbol = draw(st.sampled_from(SYMBOLS))
    a = draw(st.integers(min_value=-5, max_value=5))
    b = a + draw(st.integers(min_value=0, max_value=6))
    shape = draw(st.sampled_from(("both", "lo", "hi")))
    lo = Bound.symbolic(symbol, a) if shape != "hi" else Bound.number(a)
    hi = Bound.symbolic(symbol, b) if shape != "lo" else Bound.number(b)
    stride = 0 if lo == hi else 1
    return StridedRange(1.0, lo, hi, stride)


@st.composite
def operands(draw):
    """⊤, ⊥, or a set of one to three weighted ranges."""
    kind = draw(st.sampled_from(("set", "set", "set", "top", "bottom")))
    if kind == "top":
        return TOP
    if kind == "bottom":
        return BOTTOM
    pieces = draw(
        st.lists(
            st.one_of(numeric_ranges(), symbolic_ranges()), min_size=1, max_size=3
        )
    )
    weights = draw(
        st.lists(
            st.integers(min_value=1, max_value=4),
            min_size=len(pieces),
            max_size=len(pieces),
        )
    )
    total = sum(weights)
    return RangeSet.from_ranges(
        [piece.scaled(weight / total) for piece, weight in zip(pieces, weights)],
        max_ranges=8,
        renormalise=True,
    )


@st.composite
def bounds(draw):
    if draw(st.booleans()):
        return Bound.symbolic(
            draw(st.sampled_from(SYMBOLS)), draw(st.integers(-5, 5))
        )
    return Bound.number(draw(st.integers(-40, 40)))


def outcome_key(outcome):
    """``CompareOutcome`` has no ``__eq__``: compare its two masses."""
    if outcome is None:
        return None
    return (outcome.probability, outcome.unknown_mass)


def assert_memo_matches_plain(memoized, plain, key=lambda result: result):
    """The memo's first call and its replayed hit both equal the plain
    function, result and ``sub_operations`` tally alike.

    The caches are not cleared between examples, so an incomplete memo
    key shows up as a hit that returns another example's result.
    """
    expected_tally = counters.Counters()
    with counters.use(expected_tally):
        expected = plain()
    results = []
    for _ in ("first call", "replayed hit"):
        tally = counters.Counters()
        with counters.use(tally):
            results.append(memoized())
        assert key(results[-1]) == key(expected)
        assert tally.sub_operations == expected_tally.sub_operations
    if isinstance(expected, RangeSet):
        assert results[1] is results[0]


DIFFERENTIAL = settings(max_examples=150, deadline=None, derandomize=True)


class TestMemoMatchesPlainFunction:
    @DIFFERENTIAL
    @given(
        op=st.sampled_from(sorted(range_arith._BINOP_HANDLERS)),
        a=operands(),
        b=operands(),
        max_ranges=st.integers(min_value=1, max_value=4),
    )
    def test_evaluate_binop(self, op, a, b, max_ranges):
        assert_memo_matches_plain(
            lambda: memo.evaluate_binop(op, a, b, max_ranges),
            lambda: range_arith.evaluate_binop(op, a, b, max_ranges),
        )

    @DIFFERENTIAL
    @given(op=st.sampled_from(RELOPS), a=operands(), b=operands())
    def test_compare_sets(self, op, a, b):
        # The operand names select the correlated symbolic comparison, so
        # each name pair must reach its own cache entry.
        for a_name in (None, "n", "x"):
            for b_name in (None, "k", "n"):
                assert_memo_matches_plain(
                    lambda: memo.compare_sets(
                        op, a, b, a_name=a_name, b_name=b_name
                    ),
                    lambda: comparisons.compare_sets(
                        op, a, b, a_name=a_name, b_name=b_name
                    ),
                    key=outcome_key,
                )

    @DIFFERENTIAL
    @given(
        src=operands(),
        op=st.sampled_from(RELOPS),
        bound=bounds(),
        max_ranges=st.integers(min_value=1, max_value=4),
    )
    def test_refine_set(self, src, op, bound, max_ranges):
        assert_memo_matches_plain(
            lambda: memo.refine_set(src, op, bound, max_ranges),
            lambda: refine.refine_set(src, op, bound, max_ranges),
        )

    @DIFFERENTIAL
    @given(value=st.integers(-1000, 1000))
    def test_constant_set(self, value):
        assert_memo_matches_plain(
            lambda: memo.constant_set(value),
            lambda: RangeSet.constant(value),
        )

    @DIFFERENTIAL
    @given(probability=st.floats(min_value=0.0, max_value=1.0))
    def test_boolean_set(self, probability):
        assert_memo_matches_plain(
            lambda: memo.boolean_set(probability),
            lambda: RangeSet.boolean(probability),
        )


class CountedKey:
    """A key that counts how often the table hashes it."""

    def __init__(self, name):
        self.name = name
        self.hashes = 0

    def __hash__(self):
        self.hashes += 1
        return hash(self.name)


class TestLRUCache:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        capacity=st.integers(1, 4),
        operations=st.lists(st.tuples(st.booleans(), st.integers(0, 7)), max_size=60),
    )
    def test_bounded_tallied_and_never_wrong(self, capacity, operations):
        """The table never holds more than ``capacity`` entries, a hit
        returns the value last put, and every probe and eviction is
        tallied."""
        record = CacheStats()
        cache = LRUCache(capacity, record)
        stored, gets, evictions = {}, 0, 0
        for is_put, key in operations:
            if is_put:
                if key not in cache._table and len(cache) == capacity:
                    evictions += 1
                stored[key] = ("value", key, len(stored))
                cache.put(key, stored[key])
            else:
                gets += 1
                value = cache.get(key)
                assert value is None or value is stored[key]
            assert len(cache) <= capacity
        assert record.hits + record.misses == gets
        assert record.evictions == evictions

    def test_a_hit_probes_the_table_once(self):
        cache = LRUCache(4, CacheStats())
        key = CountedKey("k")
        cache.put(key, 1)
        cache.put("newer", 2)  # so the hit is not on the newest entry
        key.hashes = 0
        assert cache.get(key) == 1
        assert key.hashes == 1

    def test_a_read_entry_outlives_unread_older_ones(self):
        record = CacheStats()
        cache = LRUCache(3, record)
        for key in "abc":
            cache.put(key, key)
        assert cache.get("a") == "a"
        cache.put("d", "d")  # evicts b, the oldest unread entry
        cache.put("e", "e")  # evicts c
        assert [cache.get(key) for key in "abcde"] == ["a", None, None, "d", "e"]
        assert record.evictions == 2


class TestDisableSwitch:
    """Cache state cannot change results: a cold run with two-entry
    tables matches cold and warm runs at the default capacity."""

    @pytest.mark.parametrize("workload_name", ["mandel", "isort"])
    def test_predictions_and_counters_match_without_layer(
        self, workload_name, monkeypatch
    ):
        workload = get_workload(workload_name)
        module = compile_source(workload.source, module_name=workload.name)
        infos = prepare_module(module)

        def run():
            return VRPPredictor(config=VRPConfig()).predict_module(module, infos)

        reference = run()  # cold (the fixture reset every cache)
        warm = run()
        shrink_caches(monkeypatch)
        # The binop plans an instruction's record replays are its own,
        # whatever the memo tables keep.
        replays = []
        replay_plan = range_arith.replay_plan
        monkeypatch.setattr(
            range_arith,
            "replay_plan",
            lambda plan, weights: replays.append(plan) or replay_plan(plan, weights),
        )
        tiny = run()
        assert all(cache.capacity == 2 and len(cache) <= 2 for cache in memo._ALL_CACHES)
        assert replays
        for other in (warm, tiny):
            assert other.all_branches() == reference.all_branches()
            assert other.counters.as_dict() == reference.counters.as_dict()
