"""Payload serialization: exact JSON round trips, order preserved.

The disk tier rewrites payloads through ``json.dump(sort_keys=True)``,
so everything order-sensitive must survive that -- hence the pair-list
encodings -- and floats/infinite bounds must round-trip exactly.
"""

import json
import math

import pytest

from repro.core import VRPPredictor
from repro.core.bounds import Bound
from repro.core.counters import Counters
from repro.core.rangeset import BOTTOM, RangeSet, TOP
from repro.incremental.serialize import (
    PayloadError,
    bound_from_json,
    bound_to_json,
    counters_from_json,
    counters_to_json,
    prediction_from_json,
    prediction_to_json,
    rangeset_from_json,
    rangeset_map_from_json,
    rangeset_map_to_json,
    rangeset_to_json,
)

from tests.incremental.helpers import MULTI_COMPONENT, build


def disk_round_trip(document):
    """What the disk tier does to a payload: dump sorted, reload."""
    return json.loads(json.dumps(document, sort_keys=True))


class TestBounds:
    @pytest.mark.parametrize(
        "bound",
        [
            Bound(0, None),
            Bound(-7, None),
            Bound(2, "n"),
            Bound(10**30, None),
            Bound(math.inf, None),
            Bound(-math.inf, None),
        ],
    )
    def test_round_trip(self, bound):
        assert bound_from_json(disk_round_trip(bound_to_json(bound))) == bound

    def test_infinities_encode_as_strings(self):
        assert bound_to_json(Bound(math.inf, None))[0] == "inf"
        assert bound_to_json(Bound(-math.inf, None))[0] == "-inf"

    @pytest.mark.parametrize(
        "data",
        [None, [], [1], [1, 2, 3], ["x", 1], [True, None], [1.5, None], ["inf", "n"]],
    )
    def test_malformed_raises_payload_error(self, data):
        with pytest.raises(PayloadError):
            bound_from_json(data)


class TestRangeSets:
    @pytest.mark.parametrize(
        "rangeset",
        [
            TOP,
            BOTTOM,
            RangeSet.constant(5),
            RangeSet.span(0, 100, 3),
            RangeSet.symbol("n", 2),
            RangeSet.boolean(0.875),
        ],
    )
    def test_round_trip(self, rangeset):
        clone = rangeset_from_json(disk_round_trip(rangeset_to_json(rangeset)))
        assert clone == rangeset

    def test_probabilities_round_trip_exactly(self):
        # repr-based JSON floats are exact; merge products like 1/3
        # must not drift through the store.
        rangeset = RangeSet.boolean(1.0 / 3.0)
        clone = rangeset_from_json(disk_round_trip(rangeset_to_json(rangeset)))
        assert clone.ranges[0].probability == rangeset.ranges[0].probability

    def test_map_round_trip_preserves_order(self):
        mapping = {"z_1": RangeSet.constant(1), "a_2": TOP, "m_3": BOTTOM}
        clone = rangeset_map_from_json(
            disk_round_trip(rangeset_map_to_json(mapping))
        )
        assert list(clone) == ["z_1", "a_2", "m_3"]
        assert clone == mapping

    @pytest.mark.parametrize(
        "data", [None, {}, {"k": "wat"}, {"k": "set", "r": [[1, 2]]}]
    )
    def test_malformed_raises_payload_error(self, data):
        with pytest.raises(PayloadError):
            rangeset_from_json(data)
        with pytest.raises(PayloadError):
            rangeset_from_json(data, {})


class TestDecodeMemo:
    def test_equal_json_decodes_once(self):
        memo = {}
        data = rangeset_to_json(RangeSet.span(0, 100, 3))
        first = rangeset_from_json(disk_round_trip(data), memo)
        assert rangeset_from_json(disk_round_trip(data), memo) is first
        assert len(memo) == 1

    def test_int_and_float_offsets_stay_distinct(self):
        # 1 == 1.0, but a float offset does not decode: the memo must
        # not hand back the decode of the int for it.
        memo = {}
        as_int = {"k": "set", "r": [[1.0, [1, None], [1, None], 0]]}
        as_float = {"k": "set", "r": [[1.0, [1.0, None], [1.0, None], 0]]}
        assert str(rangeset_from_json(as_int, memo)) == "{ 1[1:1:0] }"
        with pytest.raises(PayloadError):
            rangeset_from_json(as_float, memo)
        assert len(memo) == 1


class TestCounters:
    def test_round_trip(self):
        counters = Counters()
        counters.expr_evaluations += 13
        counters.phi_evaluations += 2
        clone = counters_from_json(disk_round_trip(counters_to_json(counters)))
        assert clone.as_dict() == counters.as_dict()

    def test_unknown_fields_are_ignored(self):
        clone = counters_from_json({"expr_evaluations": 4, "not_a_field": 9})
        assert clone.expr_evaluations == 4

    def test_malformed_raises_payload_error(self):
        with pytest.raises(PayloadError):
            counters_from_json([1, 2])


class TestPredictions:
    @pytest.fixture(scope="class")
    def analysed(self):
        module, infos = build(MULTI_COMPONENT)
        prediction = VRPPredictor().predict_module(module, infos)
        return module, prediction

    def test_round_trip_is_exact(self, analysed):
        module, prediction = analysed
        for name, function_prediction in prediction.functions.items():
            document = disk_round_trip(prediction_to_json(function_prediction))
            clone = prediction_from_json(module.functions[name], document)
            # Iteration order of these mappings reaches rendered output,
            # so compare as item lists, not just as dicts.
            assert list(clone.branch_probability.items()) == list(
                function_prediction.branch_probability.items()
            )
            assert list(clone.values.items()) == list(
                function_prediction.values.items()
            )
            assert clone.edge_frequency == function_prediction.edge_frequency
            assert clone.block_frequency == function_prediction.block_frequency
            assert clone.used_heuristic == function_prediction.used_heuristic
            assert clone.return_set == function_prediction.return_set
            assert clone.aborted == function_prediction.aborted
            assert clone.derived == function_prediction.derived
            assert clone.widened == function_prediction.widened
            assert (
                clone.counters.as_dict()
                == function_prediction.counters.as_dict()
            )

    def test_malformed_prediction_raises_payload_error(self, analysed):
        module, prediction = analysed
        function_prediction = next(iter(prediction.functions.values()))
        document = prediction_to_json(function_prediction)
        del document["branch_probability"]
        with pytest.raises(PayloadError):
            prediction_from_json(module.functions["main"], document)

    def test_malformed_edge_raises_payload_error(self, analysed):
        module, prediction = analysed
        function_prediction = next(iter(prediction.functions.values()))
        document = prediction_to_json(function_prediction)
        document["edge_frequency"] = [["a", "b"]]
        with pytest.raises(PayloadError):
            prediction_from_json(module.functions["main"], document)
