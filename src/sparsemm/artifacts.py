"""The JSON format of every artifact, and the checks its readers share.

Score files, plans, prefill traces, eviction reports, corpus records and the
bench JSON mirror are all written by `write_json` in one canonical form, so
equal objects give equal bytes. Readers open a file with `read_object` and
check its fields with `counts`, `numbers` and `numeric_array`; `elements`
names the items of a list for the first two. Every malformed file raises
InvalidInputError naming the file, never a builtin exception.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import InvalidInputError

__all__ = ["counts", "elements", "numbers", "numeric_array", "read_object", "write_json"]


def write_json(path, obj) -> None:
    """Write obj with sorted keys, compact separators, UTF-8 and a trailing newline."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def read_object(path, what: str, required=(), old_format=None) -> dict:
    """The JSON object in `path`, which must hold every key of `required`.

    `what` names the artifact in errors. With `old_format` = (key, command), a
    file that lacks a required key but holds `key` is reported as the retired
    format, to be regenerated with `sparsemm <command>`.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {what} {path}: {exc.strerror}") from exc
    try:
        obj = json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise InvalidInputError(f"{what} {path} is not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{what} {path} must hold a JSON object")
    missing = [key for key in required if key not in obj]
    if missing and old_format and old_format[0] in obj:
        raise InvalidInputError(
            f"{what} {path} holds {old_format[0]}, the old format; "
            f"regenerate it with `sparsemm {old_format[1]}`"
        )
    if missing:
        raise InvalidInputError(f"{what} {path} lacks {', '.join(missing)}")
    return obj


def elements(value, name: str, where: str, length: int | None = None) -> dict:
    """A JSON list (of `length` items, if given) as {"name[i]": item}."""
    if not isinstance(value, list) or length not in (None, len(value)):
        expected = "a list" if length is None else f"a list of {length}"
        raise InvalidInputError(f"{where}: {name} is malformed, expected {expected}")
    return {f"{name}[{i}]": item for i, item in enumerate(value)}


def _reject(bad: list, where: str, kind: str) -> None:
    if bad:
        more = f" and {len(bad) - 3} more" if len(bad) > 3 else ""
        raise InvalidInputError(f"{where}: {', '.join(bad[:3])}{more} must be {kind}")


def counts(named: dict, where: str, minimum: int = 0) -> list:
    """The values of `named` (name -> value), each an exact integer >= minimum.

    A count is a JSON integer: bools and floats are rejected, 2.0 included.
    """
    bad = [name for name, value in named.items() if type(value) is not int or value < minimum]
    _reject(bad, where, {0: "counts", 1: "positive counts"}.get(minimum, f"counts >= {minimum}"))
    return list(named.values())


def _finite(value) -> bool:
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def numbers(named: dict, where: str) -> list:
    """The values of `named` (name -> value), each a finite JSON number (not a bool)."""
    _reject([name for name, value in named.items() if not _finite(value)], where, "finite numbers")
    return list(named.values())


def numeric_array(value, where: str) -> np.ndarray:
    """`value`, a number or rectangular nested list of numbers, as a float64 array."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{where} is not a numeric array") from exc
    if arr.dtype.kind not in "iuf":
        raise InvalidInputError(f"{where} is not a numeric array")
    return arr.astype(np.float64)
