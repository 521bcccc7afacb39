"""JSON round-tripping for analysis results.

JSON is the store's disk format only (the disk tier is the server
cache's sharded file format, which writes ``json.dumps(...,
sort_keys=True)``), so every order-sensitive mapping is serialized as a
list of pairs: disk round trips must not reorder ``branch_probability``
or ``values``, whose iteration order reaches rendered output.  The
memory tier keeps :class:`ComponentState` objects as they are.

Floats round-trip exactly through :mod:`json` (``repr`` based).  A
bound offset is an ``int``, or ±inf encoded as the string
``"inf"``/``"-inf"`` so payloads stay within strict JSON; any other
offset (a boolean, a finite non-integer number) does not decode.
``deserialization`` raises :class:`PayloadError` on any malformed
document; callers treat that as a store miss, never as an error.
"""

from __future__ import annotations

import copy
import marshal
import math
from typing import Dict, List, Optional, Tuple

from repro.core import counters as counters_mod
from repro.core.bounds import Bound
from repro.core.propagation import FunctionPrediction
from repro.core.ranges import StridedRange
from repro.core.rangeset import BOTTOM, RangeSet, TOP
from repro.ir.function import Function


#: Bumped whenever the stored component layout (or the recipe of a
#: stored value, such as the exact fingerprints) changes.
PAYLOAD_VERSION = 4


class PayloadError(ValueError):
    """A stored payload does not decode to a valid result."""


# -- bounds / ranges ---------------------------------------------------------


def _offset_to_json(offset):
    if offset.__class__ is float:  # the only float offsets are ±inf
        return "inf" if offset > 0 else "-inf"
    return offset


def _offset_from_json(data):
    if data == "inf":
        return math.inf
    if data == "-inf":
        return -math.inf
    if data.__class__ is not int:
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
    offset = _offset_from_json(offset)
    try:
        return Bound(offset, symbol)
    except ValueError as error:  # a symbolic bound with an infinite offset
        raise PayloadError(f"bad bound {data!r}: {error}") from error


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
    keep every type, so a ``1.0`` the decoder rejects never reuses the
    decode of a ``1``); a first occurrence is fully validated.
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
    function: Optional[Function],
    data,
    memo: Optional[Dict[bytes, RangeSet]] = None,
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


# -- component states --------------------------------------------------------


class ComponentState:
    """One solved call-graph component without its IR: what a replay needs.

    ``exact`` maps each member to its exact fingerprint.
    ``predictions`` maps each member, in component order, to its
    :class:`FunctionPrediction` with ``function`` set to ``None``; a
    replay binds a copy to the current module's function.  ``products``
    is the rest of the driver's component state (``param_sets``,
    ``return_sets``, ``taint``, ``sources``, ``rounds``, ``round_cap``).

    A state references no ``Function``, ``BasicBlock`` or ``Module``, so
    the store pins no old compile.  It is shared read-only by the store
    and every replay of it: nothing may mutate it.
    """

    __slots__ = ("exact", "predictions", "products")

    def __init__(
        self,
        exact: Dict[str, str],
        predictions: Dict[str, FunctionPrediction],
        products: dict,
    ):
        self.exact = exact
        self.predictions = predictions
        self.products = products

    @classmethod
    def solved(cls, exact: Dict[str, str], state: dict) -> "ComponentState":
        """Detach the state the driver just solved from its IR."""
        predictions = {}
        for name in exact:
            detached = copy.copy(state["predictions"][name])
            detached.function = None
            predictions[name] = detached
        products = {key: value for key, value in state.items() if key != "predictions"}
        return cls(exact, predictions, products)

    def to_json(self) -> dict:
        """The disk payload."""
        products = self.products
        return {
            "v": PAYLOAD_VERSION,
            "exact": self.exact,
            "functions": [
                [name, prediction_to_json(prediction)]
                for name, prediction in self.predictions.items()
            ],
            "param_sets": [
                [name, rangeset_map_to_json(products["param_sets"][name])]
                for name in self.predictions
                if name in products["param_sets"]
            ],
            "return_sets": [
                [name, rangeset_to_json(products["return_sets"][name])]
                for name in self.predictions
                if name in products["return_sets"]
            ],
            # Pair lists, not objects: replay must keep insertion order.
            "taint": [
                [name, [[ssa, list(seeds)] for ssa, seeds in reach.items()]]
                for name, reach in products["taint"].items()
            ],
            "sources": [
                [name, [[seed, descriptor] for seed, descriptor in seeds.items()]]
                for name, seeds in products["sources"].items()
            ],
            "rounds": products["rounds"],
            "round_cap": products["round_cap"],
        }

    @classmethod
    def from_json(cls, payload) -> "ComponentState":
        """Decode a disk payload; raises :class:`PayloadError` if damaged.

        Each distinct range set in the payload is decoded once: its
        members repeat a few dozen distinct sets hundreds of times.
        """
        try:
            if payload["v"] != PAYLOAD_VERSION:
                raise PayloadError(f"payload version {payload['v']!r}")
            exact = payload["exact"]
            if not isinstance(exact, dict) or not all(
                isinstance(fp, str) for fp in exact.values()
            ):
                raise PayloadError(f"bad exact fingerprints {exact!r}")
            memo: Dict[bytes, RangeSet] = {}
            predictions = {
                name: prediction_from_json(None, data, memo)
                for name, data in payload["functions"]
            }
            if set(predictions) != set(exact):
                raise PayloadError("members differ from the fingerprinted ones")
            products = {
                "param_sets": {
                    name: rangeset_map_from_json(data, memo)
                    for name, data in payload["param_sets"]
                },
                "return_sets": {
                    name: rangeset_from_json(data, memo)
                    for name, data in payload["return_sets"]
                },
                "taint": {
                    name: {ssa: tuple(seeds) for ssa, seeds in reach}
                    for name, reach in payload["taint"]
                },
                "sources": {
                    name: {seed: dict(descriptor) for seed, descriptor in seeds}
                    for name, seeds in payload["sources"]
                },
                "rounds": int(payload["rounds"]),
                "round_cap": bool(payload["round_cap"]),
            }
        except PayloadError:
            raise
        except (KeyError, TypeError, ValueError) as error:
            raise PayloadError(f"malformed component payload: {error!r}") from error
        return cls(exact, predictions, products)
