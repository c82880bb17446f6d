"""The one file boundary: every artifact byte is read and written here.

`read_bytes`, `write_bytes`, `make_dir` and `list_dir` are the only calls in
the package that touch the file system; each turns an OSError into an
InvalidInputError naming the path. `write_bytes` takes bytes or a list of
buffers, written in order with no joined copy, and returns the hex sha256 of
what it wrote. `check_writable` raises beforehand, and creates nothing,
the error that writing a file or making a directory would raise, so a command
can refuse an output before it does any work. The formats are built on them.
Score files, plans, trace and corpus records, eviction reports and the bench
JSON mirror are written by `write_json` in one canonical form, so equal
objects give equal bytes; the CSV tables by `write_csv`. Each input file
declares its fields once, in a table of `Field` rows beside its loader: a
field's kind (`Count`, `Number`, `String`, a `ListOf` one kind or a tuple
of kinds), its length and bounds, and whether it is required.
`read_object` opens a JSON file, takes its required fields from the table
and checks them with `check_fields`. That is the one range checker for every
input: a config is a table too (`bench.CONFIG_FIELDS`), and an
`ExperimentConfig` is held to it whether it was read from a file or built in
code, so a field has one name and one wording in its errors. An array goes
to a `.npy` payload by `write_array`: the bytes `np.save` writes, as the
header `npy_header` builds from the shape and then the array's own buffer, so
no copy is made. Its record keeps the sha256 for `read_array`, which reads
the file once and gives the values as a read-only view of the bytes read; it
also refuses a value that is not finite and non-negative. A malformed file
raises InvalidInputError naming it.
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
import warnings
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from tokenize import TokenError
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, ShapeError

__all__ = ["Count", "Field", "ListOf", "Number", "String", "check_fields",
           "check_writable", "encode_array", "encode_json", "list_dir", "make_dir", "npy_header",
           "read_array", "read_bytes", "read_object", "write_array", "write_bytes", "write_csv",
           "write_json"]


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
    """Write `data`, bytes or a list of buffers, to `path`; return the hex sha256 of its bytes.

    The buffers are written in order, each fed to the sha256 as it is written,
    so no joined copy of them is made.
    """
    digest = hashlib.sha256()
    with _os_errors(f"cannot write {path}"), open(path, "wb") as fh:
        for part in [data] if isinstance(data, bytes) else data:
            fh.write(part)
            digest.update(part)
    return digest.hexdigest()


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


class Count(NamedTuple):
    """A JSON integer, not a bool, >= lo and, if hi is given, <= hi."""

    lo: int = 0
    hi: int | None = None


class Number(NamedTuple):
    """A finite JSON number, not a bool, >= lo and <= hi where they are given."""

    lo: float | None = None
    hi: float | None = None


class String(NamedTuple):
    """A JSON string; one of `allowed`, if it is not empty."""

    allowed: tuple = ()


class ListOf(NamedTuple):
    """A JSON list of `item` values.

    A kind is a Count, Number, String or ListOf, or a tuple of kinds: a list
    of one value of each, in order, such as `(Count(), ListOf(Number(), 4))`
    for a [count, [4 numbers]] pair. `length` is the list's length, or the
    names of the fields whose values multiply to it.
    """

    item: object
    length: int | tuple[str, ...] | None = None


class Field(NamedTuple):
    """A field of a JSON object: its key, its kind, and whether the object must hold it."""

    name: str
    kind: object
    required: bool = True


def read_object(path, what: str, fields=(), old_format=None) -> dict:
    """The JSON object in `path`, holding every required field of `fields`, each checked.

    `what` names the artifact in errors; the fields are checked by
    `check_fields`. With `old_format` = (keys, command), a file that lacks a
    required field but holds one of the retired `keys` is reported as the old
    format, to be regenerated with `sparsemm <command>`.
    """
    data = read_bytes(path, what)
    try:
        obj = json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise InvalidInputError(f"{what} {path} is not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{what} {path} must hold a JSON object")
    missing = [field.name for field in fields if field.required and field.name not in obj]
    retired = [key for key in old_format[0] if key in obj] if missing and old_format else []
    if retired:
        raise InvalidInputError(
            f"{what} {path} holds {retired[0]}, the old format; "
            f"regenerate it with `sparsemm {old_format[1]}`"
        )
    if missing:
        raise InvalidInputError(f"{what} {path} lacks {', '.join(missing)}")
    check_fields(obj, fields, f"{what} {path}")
    return obj


def check_fields(obj: dict, fields, where: str) -> None:
    """Check every field of `fields` that `obj` holds against its kind, bounds included.

    A bad value raises InvalidInputError "<where>: a, b, c and N more must be
    counts", naming the bad values whose fault is the first one's, such as
    `pairs[3][1]`; a value that is not the list it should be, or a list of
    another length, "is malformed, expected a list of 2". A list whose
    `length` names fields must be as long as their values' product, or raises
    ShapeError.

    A valid object costs a few calls a field and none a value: only a bad
    field is walked value by value, and only a bad value is named.
    """
    found = []
    for field in fields:
        if field.name in obj:
            _faults(field.kind, obj[field.name], (field.name,), found)
    if found:
        bad = [_element_name(path) for fault, path in found if fault == found[0][0]]
        more = f" and {len(bad) - 3} more" if len(bad) > 3 else ""
        raise InvalidInputError(f"{where}: {', '.join(bad[:3])}{more} {found[0][0]}")
    for field in fields:
        factors = getattr(field.kind, "length", None)
        if type(factors) is tuple and len(obj[field.name]) != math.prod(obj[f] for f in factors):
            raise ShapeError(f"{where}: {field.name} length does not match {'*'.join(factors)}")


def _fits(kind, values: list) -> bool:
    """Whether every one of `values` is of `kind`.

    The items of all the lists are checked together, and those of tuples
    position by position, so one call covers every value of one kind.
    """
    types = set(map(type, values))
    if type(kind) is tuple:
        return types <= {list} and set(map(len, values)) <= {len(kind)} and all(
            _fits(item, [value[i] for value in values]) for i, item in enumerate(kind)
        )
    if type(kind) is ListOf:
        lengths = set(map(len, values)) if types <= {list} else {None}
        return (None not in lengths and (type(kind.length) is not int or lengths <= {kind.length})
                and _fits(kind.item, values[0] if len(values) == 1 else [*chain(*values)]))
    if type(kind) is String:
        return types <= {str} and (not kind.allowed or set(values) <= set(kind.allowed))
    if not values:
        return True
    try:  # a NaN or an infinity makes the sum one, and so do finite values past the floats
        if not types <= ({int} if type(kind) is Count else {int, float}) or (
                type(kind) is Number and not math.isfinite(sum(values))):
            return False
    except OverflowError:  # an integer too large for a float
        return False
    return ((kind.lo is None or min(values) >= kind.lo)
            and (kind.hi is None or max(values) <= kind.hi))


def _faults(kind, value, path: tuple, found: list) -> None:
    """Append to `found` (fault, path) for each bad value in `value`.

    The fault is what its error says of it, such as "must be counts". A value
    that is not the list its kind asks for "is malformed", and its items are
    not walked.
    """
    if _fits(kind, [value]):
        return
    if type(kind) is not tuple and type(kind) is not ListOf:
        found.append((f"must {_phrase(kind)}", path))
        return
    length = len(kind) if type(kind) is tuple else kind.length if type(kind.length) is int else None
    if type(value) is not list or length not in (None, len(value)):
        expected = f"a list of {length}" if length else "a list"
        found.append((f"is malformed, expected {expected}", path))
        return
    items = kind if type(kind) is tuple else [kind.item] * len(value)
    for i, (item, element) in enumerate(zip(items, value)):
        _faults(item, element, (*path, i), found)


def _element_name(path: tuple) -> str:
    """A value's name in errors: its field, then its index in each list, as `pairs[3][1]`."""
    return path[0] + "".join(f"[{i}]" for i in path[1:])


def _phrase(kind) -> str:
    """What each value of a count, number or string kind must do, as its error says."""
    if type(kind) is String:
        return f"be one of {', '.join(kind.allowed)}" if kind.allowed else "be strings"
    if kind.hi is not None:
        return f"lie in [{kind.lo}, {kind.hi}]"
    if type(kind) is Count:
        return {0: "be counts", 1: "be positive counts"}.get(kind.lo, f"be counts >= {kind.lo}")
    return "be finite numbers" if kind.lo is None else f"be finite numbers >= {kind.lo}"


def npy_header(shape: tuple) -> bytes:
    """The `.npy` header `np.save` writes for a C-order float64 array of `shape`."""
    buf = io.BytesIO()
    header = {"descr": "<f8", "fortran_order": False, "shape": shape}
    np.lib.format.write_array_header_1_0(buf, header)
    return buf.getvalue()


def encode_array(array: np.ndarray) -> list:
    """The bytes `np.save` writes for float64 `array`: the header, then the array's own buffer.

    A C-contiguous float64 array is not copied.
    """
    array = np.asarray(array, dtype=np.float64, order="C")
    return [npy_header(array.shape), array]


def write_array(path, array: np.ndarray) -> str:
    """Write `encode_array(array)` to `path`; return its hex sha256."""
    return write_bytes(path, encode_array(array))


def read_array(path, sha256: str, shape: tuple, what: str) -> np.ndarray:
    """The float64 array of `shape` that `write_array` wrote to `path` with digest `sha256`.

    The file is read once. Its header must be the one `write_array` writes for
    `shape`, and the values are then a read-only view of the bytes read, not
    a copy. Unreadable or altered bytes, anything but one `.npy` array
    (pickles are refused), another dtype or shape, or a value that is not
    finite and non-negative raise InvalidInputError naming `what` and `path`.
    Both payload kinds, a corpus sample's rows and a trace's window scores,
    are non-negative by format.
    """
    data = read_bytes(path, what)
    if hashlib.sha256(data).hexdigest() != sha256:
        raise InvalidInputError(f"{what} {path} does not match its record's sha256")
    header = npy_header(shape)
    if not data.startswith(header) or len(data) != len(header) + 8 * math.prod(shape):
        raise InvalidInputError(f"{what} {path} {_npy_fault(data, shape)}")
    arr = np.frombuffer(data, np.float64, offset=len(header)).reshape(shape)
    if arr.size:
        lo, hi = arr.min(), arr.max()  # both NaN if any value is
        finite = math.isfinite(lo) and math.isfinite(hi)
        if not finite or lo < 0:
            kind = "negative" if finite else "non-finite"
            raise InvalidInputError(f"{what} {path} holds a {kind} value; values must be "
                                    "finite and >= 0")
    return arr


def _npy_fault(data: bytes, shape: tuple) -> str:
    """Why `data` is not the `.npy` `write_array` writes for `shape`, read from its header alone."""
    if data.startswith(b"PK\x03\x04"):  # the zip archive `np.savez` writes
        return "is an .npz archive, not one .npy array"
    fh = io.BytesIO(data)
    try:
        version = np.lib.format.read_magic(fh)
        read_header = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                       else np.lib.format.read_array_header_2_0)
        # a header numpy reads only through its Python 2 filter warns; the error names the fault
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got, _, dtype = read_header(fh)
    except (ValueError, SyntaxError, TypeError, TokenError) as exc:  # what a garbled header raises
        return f"is not a readable .npy: {exc}"
    if dtype.hasobject:
        return "is not a readable .npy: it holds Python objects, and pickles are refused"
    size = len(data) - fh.tell()
    if size != dtype.itemsize * math.prod(got):
        return f"is not a readable .npy: {size} bytes of values, its header implies shape {got}"
    if dtype != np.float64:
        return f"has dtype {dtype}, expected float64"
    if got != shape:
        return (f"holds a {len(got)}-D array of {math.prod(got)} values, "
                f"its record implies shape {shape}")
    # a Fortran-order or version 2.0 header, say, of the right dtype and shape
    return "is not a readable .npy: its header is not the one `write_array` writes"
