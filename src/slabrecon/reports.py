"""Deterministic JSON report emission, and the one reader of JSON input.

Reports are UTF-8 JSON with sorted keys. Everything except the designated
``timing_s`` field is a pure function of config + inputs, so two runs with
the same seed differ at most in that one field.
"""

from __future__ import annotations

import json
import math

from . import __version__
from .errors import InvalidInput
from .nifti import atomic_write_bytes


JSON_NUMBER = (int, float)   # matched by type(), so that JSON true and false are no numbers


def _finite(text: str) -> float:
    # parse_constant sees NaN and Infinity; parse_float sees 1e999, which float() reads as inf
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def _integer(text: str) -> int:
    # JSON integers are exact, so a long one passes parse_float and overflows float() later
    value = int(text)
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"an integer of {len(text)} digits is too large for a float") from None
    return value


def parse_json(text: str, source: str, error=InvalidInput):
    """JSON text with finite numbers only; other text raises ``error`` naming ``source``."""
    try:
        return json.loads(text, parse_float=_finite, parse_int=_integer, parse_constant=_finite)
    except ValueError as exc:
        raise error(f"{source} is not valid JSON: {exc}") from exc


def json_number(value) -> float:
    """A JSON number, not a string or a bool, as a float; else ``TypeError``."""
    if type(value) not in JSON_NUMBER:
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def json_integer(value) -> int:
    """A JSON integer, not a string, a bool or a fraction; else ``TypeError``."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def read_text(path, label: str, error=InvalidInput) -> str:
    """A UTF-8 text file; one that cannot be read raises ``error`` naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise error(f"cannot read {label} {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{label} {path} is not UTF-8 text: {exc}") from exc


def dump_json(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


def write_json(path, payload: dict):
    atomic_write_bytes(path, dump_json(payload))


def read_json(path, label: str = "JSON file", error=InvalidInput):
    """``parse_json`` of a file, named in errors as ``label`` and its path."""
    return parse_json(read_text(path, label, error), f"{label} {path}", error)


def run_report(config_dict: dict, registrations=None, fusion=None, qc=None,
               timing_s: dict | None = None, error: dict | None = None) -> dict:
    report = {
        "tool": "slabrecon",
        "version": __version__,
        "config": config_dict,
        "registrations": registrations,
        "fusion": fusion,
        "qc": qc,
        "timing_s": timing_s or {},
    }
    if error is not None:
        report["error"] = error
    return report


def strip_timing(report: dict) -> dict:
    """Copy of a report with the non-deterministic field cleared."""
    clone = dict(report)
    clone["timing_s"] = {}
    return clone
