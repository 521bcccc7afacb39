"""A strict parser for the Prometheus text exposition format.

It understands exactly the subset :mod:`repro.observability.prometheus`
writes (``# HELP`` / ``# TYPE`` comments, optionally labelled samples)
and reports structural violations.  The test suite and the CI scrape
checks, run from the repository root, validate ``/metricsz`` text with
``from tests.prometheus_parser import parse_prometheus_text``.
"""

from __future__ import annotations

import re
from typing import Dict, Optional

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$"
)
_LABEL_RE = re.compile(r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>[^"]*)"$')


class PrometheusParseError(ValueError):
    """The text does not follow the exposition format."""


def parse_prometheus_text(text: str) -> Dict[str, dict]:
    """Parse an exposition document; returns {family: {type, samples}}.

    Strict about everything the format mandates: ``# TYPE`` before the
    family's samples, valid metric/label names, float-parseable values,
    histogram families carrying ``_bucket``/``_sum``/``_count`` series.
    Raises :class:`PrometheusParseError` on violation.
    """
    families: Dict[str, dict] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4:
                raise PrometheusParseError(f"line {lineno}: malformed HELP")
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                raise PrometheusParseError(f"line {lineno}: malformed TYPE")
            _, _, name, kind = parts
            if not _NAME_RE.match(name):
                raise PrometheusParseError(
                    f"line {lineno}: invalid metric name {name!r}"
                )
            if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                raise PrometheusParseError(
                    f"line {lineno}: unknown metric type {kind!r}"
                )
            if name in families:
                raise PrometheusParseError(
                    f"line {lineno}: duplicate TYPE for {name!r}"
                )
            families[name] = {"type": kind, "samples": []}
            current = name
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise PrometheusParseError(f"line {lineno}: malformed sample {line!r}")
        name = match.group("name")
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in families:
                base = name[: -len(suffix)]
                break
        if base not in families:
            raise PrometheusParseError(
                f"line {lineno}: sample {name!r} has no preceding TYPE"
            )
        if base != current:
            raise PrometheusParseError(
                f"line {lineno}: sample {name!r} outside its family block"
            )
        labels: Dict[str, str] = {}
        raw_labels = match.group("labels")
        if raw_labels:
            for part in raw_labels.split(","):
                label_match = _LABEL_RE.match(part.strip())
                if not label_match:
                    raise PrometheusParseError(
                        f"line {lineno}: malformed label {part!r}"
                    )
                labels[label_match.group("key")] = label_match.group("value")
        value_text = match.group("value")
        try:
            value = float(value_text.replace("+Inf", "inf").replace("-Inf", "-inf"))
        except ValueError:
            raise PrometheusParseError(
                f"line {lineno}: unparseable value {value_text!r}"
            ) from None
        families[base]["samples"].append((name, labels, value))

    for name, family in families.items():
        if family["type"] != "histogram":
            continue
        series = {sample_name for sample_name, _, _ in family["samples"]}
        for suffix in ("_bucket", "_sum", "_count"):
            if family["samples"] and name + suffix not in series:
                raise PrometheusParseError(
                    f"histogram {name!r} is missing its {suffix} series"
                )
        for sample_name, labels, _ in family["samples"]:
            if sample_name == name + "_bucket" and "le" not in labels:
                raise PrometheusParseError(
                    f"histogram {name!r} has a bucket without an 'le' label"
                )
    return families
