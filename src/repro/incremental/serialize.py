"""JSON round-tripping for analysis results.

The store holds plain-JSON payloads (the disk tier is the server cache's
sharded file format, which writes ``json.dumps(..., sort_keys=True)``),
so every order-sensitive mapping is serialized as a list of pairs: disk
round trips must not reorder ``branch_probability`` or ``values``, whose
iteration order reaches rendered output.

Floats round-trip exactly through :mod:`json` (``repr`` based), and
infinite bound offsets are encoded as the strings ``"inf"``/``"-inf"``
so payloads stay within strict JSON.  ``deserialization`` raises
:class:`PayloadError` on any malformed document; callers treat that as
a store miss, never as an error.
"""

from __future__ import annotations

import marshal
import math
from typing import Dict, List, Optional, Tuple

from repro.core import counters as counters_mod
from repro.core.bounds import Bound
from repro.core.propagation import FunctionPrediction
from repro.core.ranges import StridedRange
from repro.core.rangeset import BOTTOM, RangeSet, TOP
from repro.ir.function import Function


class PayloadError(ValueError):
    """A stored payload does not decode to a valid result."""


# -- bounds / ranges ---------------------------------------------------------


def _offset_to_json(offset):
    if isinstance(offset, float) and math.isinf(offset):
        return "inf" if offset > 0 else "-inf"
    return offset


def _offset_from_json(data):
    if data == "inf":
        return math.inf
    if data == "-inf":
        return -math.inf
    if not isinstance(data, (int, float)):
        raise PayloadError(f"bad bound offset {data!r}")
    return data


def bound_to_json(bound: Bound) -> list:
    return [_offset_to_json(bound.offset), bound.symbol]


def bound_from_json(data) -> Bound:
    if not isinstance(data, list) or len(data) != 2:
        raise PayloadError(f"bad bound {data!r}")
    offset, symbol = data
    if symbol is not None and not isinstance(symbol, str):
        raise PayloadError(f"bad bound symbol {symbol!r}")
    return Bound(_offset_from_json(offset), symbol)


def rangeset_to_json(rangeset: RangeSet) -> dict:
    if rangeset.is_top:
        return {"k": "top"}
    if rangeset.is_bottom:
        return {"k": "bottom"}
    return {
        "k": "set",
        "r": [
            [
                sr.probability,
                bound_to_json(sr.lo),
                bound_to_json(sr.hi),
                sr.stride,
            ]
            for sr in rangeset.ranges
        ],
    }


def rangeset_from_json(
    data, memo: Optional[Dict[bytes, RangeSet]] = None
) -> RangeSet:
    """Decode one range set; ``memo`` reuses earlier decodes of equal JSON.

    The memo is keyed on the exact decoded JSON (its ``marshal`` bytes
    keep every type, so ``1`` and ``1.0`` stay distinct where ``==``
    would conflate them); a first occurrence is fully validated.
    """
    if memo is None:
        return _rangeset_from_json(data)
    key = marshal.dumps(data)
    rangeset = memo.get(key)
    if rangeset is None:
        rangeset = memo[key] = _rangeset_from_json(data)
    return rangeset


def _rangeset_from_json(data) -> RangeSet:
    if not isinstance(data, dict):
        raise PayloadError(f"bad rangeset {data!r}")
    kind = data.get("k")
    if kind == "top":
        return TOP
    if kind == "bottom":
        return BOTTOM
    if kind != "set":
        raise PayloadError(f"bad rangeset kind {kind!r}")
    ranges = []
    for item in data.get("r", ()):
        if not isinstance(item, list) or len(item) != 4:
            raise PayloadError(f"bad range {item!r}")
        probability, lo, hi, stride = item
        ranges.append(
            StridedRange(
                float(probability),
                bound_from_json(lo),
                bound_from_json(hi),
                int(stride),
            )
        )
    # Ranges were normalised before storage; rebuild the set verbatim
    # instead of re-compacting through from_ranges.
    return RangeSet(RangeSet._SET_KIND, tuple(ranges))


# -- counters ----------------------------------------------------------------


def counters_to_json(counters: counters_mod.Counters) -> dict:
    return counters.as_dict()


def counters_from_json(data) -> counters_mod.Counters:
    counters = counters_mod.Counters()
    if not isinstance(data, dict):
        raise PayloadError(f"bad counters {data!r}")
    for field, value in data.items():
        if field in counters.__slots__:
            setattr(counters, field, value)
    return counters


# -- predictions -------------------------------------------------------------


def _pairs(mapping: Dict, encode=lambda v: v) -> List[list]:
    return [[key, encode(value)] for key, value in mapping.items()]


def _from_pairs(data, decode=lambda v: v) -> Dict:
    if not isinstance(data, list):
        raise PayloadError(f"bad pair list {data!r}")
    out = {}
    for item in data:
        if not isinstance(item, list) or len(item) != 2:
            raise PayloadError(f"bad pair {item!r}")
        out[item[0]] = decode(item[1])
    return out


def prediction_to_json(prediction: FunctionPrediction) -> dict:
    return {
        "branch_probability": _pairs(prediction.branch_probability),
        "edge_frequency": [
            [src, dst, freq]
            for (src, dst), freq in prediction.edge_frequency.items()
        ],
        "block_frequency": _pairs(prediction.block_frequency),
        "values": _pairs(prediction.values, rangeset_to_json),
        "used_heuristic": sorted(prediction.used_heuristic),
        "counters": counters_to_json(prediction.counters),
        "return_set": rangeset_to_json(prediction.return_set),
        "aborted": prediction.aborted,
        "derived": sorted(prediction.derived),
        "widened": sorted(prediction.widened),
    }


def prediction_from_json(
    function: Function, data, memo: Optional[Dict[bytes, RangeSet]] = None
) -> FunctionPrediction:
    if not isinstance(data, dict):
        raise PayloadError(f"bad prediction {data!r}")
    try:
        edge_frequency: Dict[Tuple[str, str], float] = {}
        for item in data["edge_frequency"]:
            if not isinstance(item, list) or len(item) != 3:
                raise PayloadError(f"bad edge {item!r}")
            edge_frequency[(item[0], item[1])] = item[2]
        return FunctionPrediction(
            function,
            branch_probability=_from_pairs(data["branch_probability"]),
            edge_frequency=edge_frequency,
            block_frequency=_from_pairs(data["block_frequency"]),
            values=_from_pairs(
                data["values"], lambda item: rangeset_from_json(item, memo)
            ),
            used_heuristic=set(data["used_heuristic"]),
            counters=counters_from_json(data["counters"]),
            return_set=rangeset_from_json(data["return_set"], memo),
            aborted=bool(data["aborted"]),
            derived=set(data["derived"]),
            widened=set(data["widened"]),
        )
    except (KeyError, TypeError) as error:
        raise PayloadError(f"malformed prediction payload: {error}") from error


def rangeset_map_to_json(mapping: Dict[str, RangeSet]) -> List[list]:
    return _pairs(mapping, rangeset_to_json)


def rangeset_map_from_json(
    data, memo: Optional[Dict[bytes, RangeSet]] = None
) -> Dict[str, RangeSet]:
    return _from_pairs(data, lambda item: rangeset_from_json(item, memo))
