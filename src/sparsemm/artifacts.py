"""The one file boundary: every artifact byte is read and written here.

`read_bytes`, `write_bytes`, `make_dir` and `list_dir` are the only calls in
the package that touch the file system; each turns an OSError into an
InvalidInputError naming the path, and `write_bytes` returns the hex sha256
of what it wrote. `check_writable` raises beforehand, and creates nothing,
the error that writing a file or making a directory would raise, so a command
can refuse an output before it does any work. The formats are built on them.
Score files, plans, trace and corpus records, eviction reports and the bench
JSON mirror are written by `write_json` in one canonical form, so equal
objects give equal bytes; the CSV tables by `write_csv`. Readers open a JSON
file with `read_object` and check its fields with `counts` and `numbers`;
`elements` names a list's items for both. An array goes to a `.npy` payload
by `write_array`, whose sha256 its record keeps for `read_array`, which also
refuses a value that is not finite and non-negative. A malformed file raises
InvalidInputError naming it.
"""

from __future__ import annotations

import csv
import errno
import hashlib
import io
import json
import math
import os
import stat
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import InvalidInputError

__all__ = ["check_writable", "counts", "elements", "encode_array", "encode_json", "list_dir",
           "make_dir", "numbers", "read_array", "read_bytes", "read_object", "write_array",
           "write_bytes", "write_csv", "write_json"]


@contextmanager
def _os_errors(failure: str):
    """Re-raise an OSError inside the block as InvalidInputError: "<failure>: <reason>"."""
    try:
        yield
    except OSError as exc:
        raise InvalidInputError(f"{failure}: {exc.strerror}") from exc


def read_bytes(path, what: str) -> bytes:
    """The bytes of `path`; `what` names the artifact if it cannot be read."""
    with _os_errors(f"cannot read {what} {path}"):
        return Path(path).read_bytes()


def write_bytes(path, data) -> str:
    """Write `data` to `path`; return the hex sha256 of the bytes written."""
    with _os_errors(f"cannot write {path}"):
        Path(path).write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def make_dir(path) -> None:
    """Create directory `path` and its parents, unless it is one already."""
    with _os_errors(f"cannot create directory {path}"):
        os.makedirs(path, exist_ok=True)


def check_writable(path, directory: bool = False) -> None:
    """Raise now the InvalidInputError that writing file `path` would raise; create nothing.

    The file's directory must exist and the file must not be a directory. With
    `directory`, `path` is one that `make_dir` creates: it, or else its nearest
    existing ancestor, must be a directory. The directory must be writable.
    An empty path is refused: `Path("")` is the current directory.
    """
    if not os.fspath(path):
        raise InvalidInputError(
            f"cannot {'create directory' if directory else 'write'}: the path is empty"
        )
    failure = f"cannot create directory {path}" if directory else f"cannot write {path}"
    path = Path(path)
    with _os_errors(failure):
        if directory:
            nearest = path
            while not nearest.exists() and nearest != nearest.parent:
                nearest = nearest.parent
        elif path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        else:
            nearest = path.parent
        if not stat.S_ISDIR(os.stat(nearest).st_mode):
            code = errno.EEXIST if nearest == path else errno.ENOTDIR
            raise OSError(code, os.strerror(code))
        if not os.access(nearest, os.W_OK | os.X_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))


def list_dir(path, what: str) -> list[str]:
    """The entry names of directory `path`, in no set order."""
    with _os_errors(f"cannot read {what} {path}"):
        return os.listdir(path)


def encode_json(obj) -> bytes:
    """obj with sorted keys, compact separators, UTF-8 and a trailing newline."""
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


def write_json(path, obj) -> str:
    """Write `encode_json(obj)` to `path`; return its hex sha256."""
    return write_bytes(path, encode_json(obj))


def write_csv(path, header, rows) -> str:
    """Write a header and rows as UTF-8 CSV with newline rows; return its hex sha256."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return write_bytes(path, buf.getvalue().encode())


def read_object(path, what: str, required=(), old_format=None) -> dict:
    """The JSON object in `path`, which must hold every key of `required`.

    `what` names the artifact in errors. With `old_format` = (keys, command), a
    file that lacks a required key but holds one of the retired `keys` is
    reported as the old format, to be regenerated with `sparsemm <command>`.
    """
    data = read_bytes(path, what)
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


def numbers(named: dict, where: str, minimum=None) -> list:
    """The values of `named` (name -> value), each a finite JSON number (not a bool) >= minimum."""
    bad = [
        name for name, value in named.items()
        if not _finite(value) or (minimum is not None and value < minimum)
    ]
    _reject(bad, where, "finite numbers" if minimum is None else f"finite numbers >= {minimum}")
    return list(named.values())


def encode_array(array: np.ndarray) -> bytes:
    """The bytes `np.save` writes for `array`."""
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def write_array(path, array: np.ndarray) -> str:
    """Write `encode_array(array)` to `path`; return its hex sha256."""
    return write_bytes(path, encode_array(array))


def read_array(path, sha256: str, shape: tuple, what: str) -> np.ndarray:
    """The float64 array of `shape` that `write_array` wrote to `path` with digest `sha256`.

    Unreadable or altered bytes, anything but one `.npy` array (pickles are
    refused), another dtype or shape, or a value that is not finite and
    non-negative raise InvalidInputError naming `what` and `path`. Both payload
    kinds, a corpus sample's rows and a trace's window scores, are non-negative
    by format.
    """
    data = read_bytes(path, what)
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
    if arr.size:
        lo, hi = arr.min(), arr.max()  # both NaN if any value is
        finite = math.isfinite(lo) and math.isfinite(hi)
        if not finite or lo < 0:
            kind = "negative" if finite else "non-finite"
            raise InvalidInputError(f"{what} {path} holds a {kind} value; values must be "
                                    "finite and >= 0")
    return arr
