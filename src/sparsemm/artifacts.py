"""The file formats of every artifact, and the checks their readers share.

Score files, plans, trace and corpus records, eviction reports and the bench
JSON mirror are written by `write_json` in one canonical form, so equal
objects give equal bytes. Readers open one with `read_object` and check its
fields with `counts` and `numbers`; `elements` names a list's items for both.
An array goes to a `.npy` payload by `write_array`, whose sha256 its record
keeps for `read_array`. A malformed file raises InvalidInputError naming it.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from .errors import InvalidInputError

__all__ = ["counts", "elements", "numbers", "read_array", "read_object", "write_array",
           "write_json"]


def write_json(path, obj) -> None:
    """Write obj with sorted keys, compact separators, UTF-8 and a trailing newline."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    Path(path).write_text(text + "\n", encoding="utf-8")


def read_object(path, what: str, required=(), old_format=None) -> dict:
    """The JSON object in `path`, which must hold every key of `required`.

    `what` names the artifact in errors. With `old_format` = (keys, command), a
    file that lacks a required key but holds one of the retired `keys` is
    reported as the old format, to be regenerated with `sparsemm <command>`.
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
    retired = [key for key in old_format[0] if key in obj] if missing and old_format else []
    if retired:
        raise InvalidInputError(
            f"{what} {path} holds {retired[0]}, the old format; "
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


def write_array(path, array: np.ndarray) -> str:
    """Write `array` to `path` with `np.save`; return the hex sha256 of the bytes written."""
    buf = io.BytesIO()
    np.save(buf, array)
    Path(path).write_bytes(buf.getvalue())
    return hashlib.sha256(buf.getvalue()).hexdigest()


def read_array(path, sha256: str, shape: tuple, what: str) -> np.ndarray:
    """The float64 array of `shape` that `write_array` wrote to `path` with digest `sha256`.

    Unreadable or altered bytes, anything but one `.npy` array (pickles are
    refused), or another dtype or shape raise InvalidInputError naming `what`.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {what} {path}: {exc.strerror}") from exc
    if hashlib.sha256(data).hexdigest() != sha256:
        raise InvalidInputError(f"{what} {path} does not match its record's sha256")
    try:
        arr = np.load(io.BytesIO(data), allow_pickle=False)
    except (OSError, ValueError, EOFError) as exc:
        raise InvalidInputError(f"{what} {path} is not a readable .npy: {exc}") from exc
    if not isinstance(arr, np.ndarray):  # np.load opens an .npz archive as a mapping
        raise InvalidInputError(f"{what} {path} is an .npz archive, not one .npy array")
    if arr.dtype != np.float64:
        raise InvalidInputError(f"{what} {path} has dtype {arr.dtype}, expected float64")
    if arr.shape != shape:
        raise InvalidInputError(f"{what} {path} holds a {arr.ndim}-D array of {arr.size} values, "
                                f"its record implies shape {shape}")
    return arr
