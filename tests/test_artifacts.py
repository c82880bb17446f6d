"""Tests for the artifact formats: one canonical JSON writer, one array payload, validating readers."""

import ast
import hashlib
import io
import json
import math
import re
import tempfile
import tracemalloc
import warnings
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsemm
from sparsemm import artifacts
from sparsemm.allocator import (
    PLAN_FIELDS, POLICY_NAMES, AllocationConfig, allocate, allocate_uniform, load_plan, save_plan,
)
from sparsemm.artifacts import (
    Count, Field, ListOf, Number, String, check_fields, check_writable, list_dir,
    make_dir, read_array, read_bytes, read_object, write_array, write_bytes, write_csv,
    write_json,
)
from sparsemm.bench import CONFIG_FIELDS, load_config
from sparsemm.chaser import SCORE_FIELDS, HeadScoreMatrix, load_scores, save_scores
from sparsemm.cli import TRACE_FIELDS, _load_trace, main
from sparsemm.corpusfile import RECORD_FIELDS, load_corpus, save_corpus
from sparsemm.errors import InvalidInputError, ShapeError, SparseMMError
from sparsemm.simmodel import (
    AttentionTrace,
    ModelGeometry,
    OcrSample,
    PlantedHeadSet,
    build_synthetic_model,
    generate_ocr_samples,
)

SRC = Path(sparsemm.__file__).parent

# a config in the README schema with every top-level key present
CONFIG = {
    "geometry": {"layers": 8, "query_heads": 8, "kv_heads": 8, "head_dim": 64},
    "planted": {"pairs": [[0, 1], [3, 4], [6, 2]], "strength": 0.8},
    "corpus_size": 40,
    "budgets_per_head": [48, 64, 128],
    "rhos": [0.0, 0.1, 0.25, 0.5, 0.75, 1.0],
    "policies": ["sparsemm", "uniform", "pyramid", "random", "ada"],
    "mask_fractions": [0.0, 0.02, 0.05, 0.10],
    "seeds": [0, 1],
    "prompt_len": 384,
    "out_len": 16,
    "window": 32,
    "rho": 0.1,
    "cost_lengths": [2048, 4096],
    "cost_out_len": 100,
    "cost_budget_per_head": 256,
}


class TestFileBoundary:
    """Every file operation names its path in an InvalidInputError, and writers hash what they wrote."""

    def test_write_bytes_returns_the_sha256_of_the_bytes(self, tmp_path):
        path = tmp_path / "a.bin"
        assert write_bytes(path, b"abc") == hashlib.sha256(b"abc").hexdigest()
        assert read_bytes(path, "thing") == b"abc"

    def test_write_csv(self, tmp_path):
        path = tmp_path / "a.csv"
        digest = write_csv(path, ["a", "b"], iter([[1, "x,y"], [0.5, True]]))
        assert path.read_bytes() == b'a,b\n1,"x,y"\n0.5,True\n'
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_make_dir_creates_parents_and_accepts_a_directory(self, tmp_path):
        make_dir(tmp_path / "a" / "b")
        make_dir(tmp_path / "a" / "b")
        assert (tmp_path / "a" / "b").is_dir()
        assert list_dir(tmp_path / "a", "thing") == ["b"]

    @pytest.mark.parametrize("where", ["in-a-missing-directory", "under-a-file", "on-a-directory"])
    @pytest.mark.parametrize("operation, fragment", [
        (lambda path: read_bytes(path, "thing"), "cannot read thing"),
        (lambda path: write_bytes(path, b"x"), "cannot write"),
        (lambda path: write_json(path, {}), "cannot write"),
        (lambda path: write_csv(path, ["a"], []), "cannot write"),
        (lambda path: write_array(path, np.zeros(2)), "cannot write"),
    ], ids=["read_bytes", "write_bytes", "write_json", "write_csv", "write_array"])
    def test_file_operation_errors_name_the_path(self, tmp_path, operation, fragment, where):
        (tmp_path / "blocker").write_text("a file")
        (tmp_path / "adir").mkdir()
        path = tmp_path / {"in-a-missing-directory": "nodir/x", "under-a-file": "blocker/x",
                           "on-a-directory": "adir"}[where]
        with pytest.raises(InvalidInputError, match=fragment) as info:
            operation(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("where", ["on-a-file", "under-a-file"])
    def test_directory_operation_errors_name_the_path(self, tmp_path, where):
        (tmp_path / "blocker").write_text("a file")
        path = tmp_path / {"on-a-file": "blocker", "under-a-file": "blocker/x"}[where]
        with pytest.raises(InvalidInputError, match=re.escape(f"cannot create directory {path}")):
            make_dir(path)
        with pytest.raises(InvalidInputError, match=re.escape(f"cannot read thing {path}")):
            list_dir(path, "thing")
        assert (tmp_path / "blocker").read_text() == "a file"

    @pytest.mark.parametrize("directory, name", [
        (False, "nodir/x"), (False, "blocker/x"), (False, "adir"), (False, "blocker"), (False, "x"),
        (True, "blocker"), (True, "blocker/x"), (True, "adir"), (True, "nodir/x"),
    ])
    def test_check_writable_raises_what_the_write_would(self, tmp_path, directory, name):
        """The same error, or none, as `write_bytes` or `make_dir` on the path; nothing created."""
        (tmp_path / "blocker").write_text("a file")
        (tmp_path / "adir").mkdir()
        path = tmp_path / name

        def outcome(operation):
            try:
                operation(path)
            except InvalidInputError as exc:
                return str(exc)
            return None

        before = sorted(tmp_path.rglob("*"))
        checked = outcome(lambda p: check_writable(p, directory=directory))
        assert sorted(tmp_path.rglob("*")) == before
        assert checked == outcome(make_dir if directory else lambda p: write_bytes(p, b"x"))

    @pytest.mark.parametrize("directory", [False, True])
    def test_check_writable_refuses_an_empty_path(self, tmp_path, monkeypatch, directory):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(InvalidInputError, match="the path is empty"):
            check_writable("", directory=directory)
        assert list(tmp_path.iterdir()) == []


class TestWriteJson:
    def test_canonical_form(self, tmp_path):
        path = tmp_path / "a.json"
        digest = write_json(path, {"b": [1, 2.5], "a": {"d": None, "c": True}})
        assert path.read_bytes() == b'{"a":{"c":true,"d":null},"b":[1,2.5]}\n'
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_equal_objects_give_equal_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_json(a, {"x": 1, "y": [0.1, 0.2]})
        write_json(b, {"y": [0.1, 0.2], "x": 1})
        assert a.read_bytes() == b.read_bytes()


# three required count fields, a, b and c
ABC = tuple(Field(name, Count()) for name in "abc")
A = ABC[:1]


class TestReadObject:
    @pytest.mark.parametrize("text, fragment", [
        (None, "cannot read"),
        ("{not json", "not JSON"),
        (b"\xff\xfe\x00", "not JSON"),
        ("[1, 2]", "JSON object"),
        ('{"a": 1}', "lacks b, c"),
    ])
    def test_rejects(self, tmp_path, text, fragment):
        path = tmp_path / "x.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        elif text is not None:
            path.write_text(text)
        with pytest.raises(InvalidInputError, match=fragment) as info:
            read_object(path, "thing", ABC)
        assert str(path) in str(info.value)

    def test_old_format_is_named_only_when_a_key_is_missing(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"rows": 1}')
        with pytest.raises(InvalidInputError, match="holds rows, the old format; regenerate it"):
            read_object(path, "thing", A, old_format=(("rows",), "corpus"))
        path.write_text('{"rows": 1, "a": 2}')
        assert read_object(path, "thing", A, old_format=(("rows",), "corpus")) == {"rows": 1, "a": 2}

    @pytest.mark.parametrize("key", ["old", "older"])
    def test_old_format_takes_every_retired_key(self, tmp_path, key):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({key: 1}))
        with pytest.raises(InvalidInputError, match=f"holds {key}, the old format; regenerate it "
                                                    "with `sparsemm prefill`"):
            read_object(path, "thing", A, old_format=(("old", "older"), "prefill"))
        path.write_text('{"other": 1}')
        with pytest.raises(InvalidInputError, match="lacks a"):
            read_object(path, "thing", A, old_format=(("old", "older"), "prefill"))


def _check(value, kind, where="f"):
    """`check_fields` on an object whose one field, n, of `kind` holds `value`."""
    check_fields({"n": value}, (Field("n", kind),), where)


class TestFieldCheckers:
    """The one checker: each kind refuses what it should, and names what it refuses."""

    @pytest.mark.parametrize("value", [True, False, 2.0, 1.5, "3", None, [1], -1])
    def test_counts_reject_non_integers_and_negatives(self, value):
        with pytest.raises(InvalidInputError, match="f: n must be counts"):
            _check(value, Count())

    def test_counts_minimum(self):
        positive = (Field("a", Count(1)), Field("b", Count(1)))
        check_fields({"a": 1, "b": 2**70}, positive, "f")
        with pytest.raises(InvalidInputError, match="f: a must be positive counts"):
            check_fields({"a": 0, "b": 2}, positive, "f")
        _check(-1, Count(-1))
        _check([-1, 0, 2**70], ListOf(Count(-1)))

    def test_numbers(self):
        for good in (1, 0.5, -2, 10**30):
            _check(good, Number())
        for bad in (True, "1", float("nan"), float("inf"), -float("inf"), 10**400, None):
            with pytest.raises(InvalidInputError, match="f: n must be finite numbers"):
                _check(bad, Number())

    def test_numbers_minimum(self):
        _check([0, -0.0, 2.5], ListOf(Number(0)))
        _check(-0.0, Number(0))
        with pytest.raises(InvalidInputError, match=r"f: n\[1\] must be finite numbers >= 0"):
            _check([0.5, -1e-300], ListOf(Number(0)))
        with pytest.raises(InvalidInputError, match="f: n must be finite numbers >= 0"):
            _check(float("nan"), Number(0))

    def test_range_and_allowed_values(self):
        _check([0, 0.5, 1], ListOf(Number(0, 1)))
        with pytest.raises(InvalidInputError, match=r"f: n\[1\] must lie in \[0, 1\]"):
            _check([0, 1.5], ListOf(Number(0, 1)))
        _check("b", String(("a", "b")))
        for bad in ("", "c", 1, None):
            with pytest.raises(InvalidInputError, match="f: n must be one of a, b"):
                _check(bad, String(("a", "b")))
        with pytest.raises(InvalidInputError, match="f: n must be strings"):
            _check(1, String())

    def test_wrong_length_list_is_malformed(self):
        _check([4, 5], ListOf(Count(), 2))
        for bad in ([4], {"0": 4}, "45", None):
            with pytest.raises(InvalidInputError, match="f: n is malformed, expected a list of 2"):
                _check(bad, ListOf(Count(), 2))

    def test_and_n_more(self):
        with pytest.raises(InvalidInputError,
                           match=r"^f: n\[0\], n\[2\], n\[3\] and 2 more must be counts >= -1$"):
            _check([-2, 0, -3, True, 1.0, "x"], ListOf(Count(-1)))

    def test_tuples_name_the_bad_item(self):
        pairs = ListOf((Count(), ListOf(Number(), 4)))
        _check([[0, [1, 2, 3, 4.5]], [7, [0, 0, 0, 0]]], pairs)
        with pytest.raises(InvalidInputError, match=r"f: n\[1\]\[1\]\[2\] must be finite numbers$"):
            _check([[0, [1, 2, 3, 4]], [7, [0, 0, None, 0]]], pairs)
        with pytest.raises(InvalidInputError, match=r"f: n\[1\] is malformed, expected a list of 2"):
            _check([[0, [1, 2, 3, 4]], [7]], pairs)
        with pytest.raises(InvalidInputError,
                           match=r"f: n\[0\]\[1\] is malformed, expected a list of 4"):
            _check([[0, [1, 2, 3]]], pairs)

    def test_the_first_fault_decides_the_message(self):
        """The kind of the first bad value names every bad value of that kind, across fields."""
        fields = (Field("a", Count(1)), Field("b", ListOf(Number())), Field("c", Count(1)))
        with pytest.raises(InvalidInputError, match="^f: a, c must be positive counts$"):
            check_fields({"a": 0, "b": [None], "c": 0}, fields, "f")
        with pytest.raises(InvalidInputError, match="^f: b is malformed, expected a list$"):
            check_fields({"a": 1, "b": 3, "c": 0}, fields, "f")

    def test_length_set_by_other_fields(self):
        fields = (Field("rows", Count()), Field("cols", Count()),
                  Field("v", ListOf(Count(), length=("rows", "cols"))))
        check_fields({"rows": 2, "cols": 3, "v": [0] * 6}, fields, "f")
        with pytest.raises(ShapeError, match="f: v length does not match rows\\*cols"):
            check_fields({"rows": 2, "cols": 3, "v": [0] * 5}, fields, "f")

    @settings(max_examples=300, deadline=None)
    @given(value=st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.sampled_from(["a", "b", ""]),
        lambda children: st.lists(children, max_size=5), max_leaves=16,
    ), kind=st.sampled_from([
        Count(), Count(1), Number(), Number(0, 1), String(("a", "b")), ListOf(Count(-1)),
        ListOf(ListOf(Count())), ListOf(Number(0), 3),
        ListOf((Count(), ListOf(Number(), 2))),
    ]))
    def test_the_checker_refuses_what_a_value_by_value_reference_refuses(self, value, kind):
        """The checker tests a kind at a time; the reference tests one value at a time."""
        fits = _value_fits(kind, value)
        assert fits or not artifacts._fits(kind, [value])
        if fits:
            _check(value, kind)
        else:
            with pytest.raises(InvalidInputError):
                _check(value, kind)


def _value_fits(kind, value) -> bool:
    """Whether `value` is of `kind`, every list item and number checked on its own."""
    if type(kind) is tuple:
        return (type(value) is list and len(value) == len(kind)
                and all(_value_fits(k, v) for k, v in zip(kind, value)))
    if type(kind) is ListOf:
        return (type(value) is list and kind.length in (None, len(value))
                and all(_value_fits(kind.item, v) for v in value))
    if type(kind) is String:
        return type(value) is str and (not kind.allowed or value in kind.allowed)
    if not (type(value) is int or type(kind) is Number and type(value) is float):
        return False
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer past the floats
        finite = type(kind) is Count
    return (finite and (kind.lo is None or value >= kind.lo)
            and (kind.hi is None or value <= kind.hi))


class TestArrayPayload:
    def test_round_trip_and_digest(self, tmp_path):
        path = tmp_path / "a.npy"
        array = np.arange(12.0).reshape(2, 3, 2) / 7
        digest = write_array(path, array)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        assert np.load(path, allow_pickle=False).tobytes() == array.tobytes()
        loaded = read_array(path, digest, (2, 3, 2), "thing")
        assert loaded.dtype == np.float64 and np.array_equal(loaded, array)

    def test_same_bytes_as_np_save(self, tmp_path):
        array = np.linspace(0.0, 1.0, 9)
        write_array(tmp_path / "a.npy", array)
        np.save(tmp_path / "b.npy", array)
        assert (tmp_path / "a.npy").read_bytes() == (tmp_path / "b.npy").read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(start=st.integers(0, 200), length=st.integers(0, 16), new=st.binary(max_size=16))
    def test_any_edit_is_read_or_refused_by_name(self, start, length, new):
        """A payload with a run of bytes replaced, cut or added, under its own digest, is either
        read as `np.load` reads it or refused with an InvalidInputError naming the file."""
        valid = _npy_bytes(np.ones((3, 2)))
        data = valid[:start] + new + valid[start + length:]
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "a.npy"
            path.write_bytes(data)
            try:
                loaded = read_array(path, hashlib.sha256(data).hexdigest(), (3, 2), "thing")
            except InvalidInputError as exc:
                assert str(path) in str(exc)
                return
        assert loaded.tobytes() == np.load(io.BytesIO(data), allow_pickle=False).tobytes()

    def test_a_python_2_header_is_refused_without_a_warning(self, tmp_path):
        """numpy parses a `3L` shape only through its Python 2 filter, which warns; the
        structured error is all a reader sees."""
        data = _npy_bytes(np.ones(3)).replace(b"(3,), } ", b"(3L,), }")
        assert b"(3L,)" in data
        path = tmp_path / "a.npy"
        path.write_bytes(data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InvalidInputError, match="not a readable .npy"):
                read_array(path, hashlib.sha256(data).hexdigest(), (3,), "thing")
        assert caught == []

    def _write(self, path, array):
        """Write `array` as `np.save` would and return the digest of its bytes."""
        np.save(path, array, allow_pickle=True)
        return hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("case, fragment", [
        ("missing", "cannot read thing"),
        ("flipped", "does not match its record's sha256"),
        ("truncated", "not a readable .npy"),
        ("pickled", "not a readable .npy"),
        ("npz", "an .npz archive"),
        ("float32", "dtype float32"),
        ("shape", r"holds a 2-D array of 6 values, its record implies shape \(3, 2, 1\)"),
        ("nan", "holds a non-finite value; values must be finite and >= 0"),
        ("inf", "holds a non-finite value"),
        ("negative", "holds a negative value; values must be finite and >= 0"),
    ])
    def test_rejects(self, tmp_path, case, fragment):
        path = tmp_path / "a.npy"
        digest = self._write(path, np.ones((3, 2)))
        if case == "missing":
            path.unlink()
        elif case == "flipped":
            data = bytearray(path.read_bytes())
            data[-1] ^= 1
            path.write_bytes(bytes(data))
        elif case == "truncated":
            digest = hashlib.sha256(path.read_bytes()[:-8]).hexdigest()
            path.write_bytes(path.read_bytes()[:-8])
        elif case == "pickled":
            digest = self._write(path, np.array([{"a": 1}], dtype=object))
        elif case == "npz":
            with open(path, "wb") as fh:
                np.savez(fh, a=np.ones((3, 2)))
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
        elif case == "float32":
            digest = self._write(path, np.ones((3, 2), dtype=np.float32))
        elif case in ("nan", "inf", "negative"):
            values = np.ones((3, 2))
            values[2, 1] = {"nan": np.nan, "inf": np.inf, "negative": -1e-300}[case]
            digest = self._write(path, values)
        shape = (3, 2, 1) if case == "shape" else (3, 2)
        with pytest.raises(InvalidInputError, match=fragment) as info:
            read_array(path, digest, shape, "thing")
        assert str(path) in str(info.value)


def _npy_bytes(array) -> bytes:
    """The bytes `np.save` writes for `array`: the slow path the payload writers replace."""
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def _trace(layers: int, heads: int, prompt_len: int, n_steps: int, seed: int) -> AttentionTrace:
    rng = np.random.default_rng(seed)
    return AttentionTrace([rng.random((layers, heads, prompt_len + t)) for t in range(n_steps)],
                          prompt_len)


def _sample(prompt_len: int) -> OcrSample:
    return OcrSample((50, 50 * prompt_len), (1, prompt_len), ((7, (0.0, 0.0, 50.0, 50.0)),),
                     tuple(range(prompt_len)))


def _peak_bytes(fn) -> int:
    """The peak of the bytes `fn()` allocates beyond those live before, as tracemalloc counts."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


SHAPES = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(0, 40))


class TestPayloadFastPaths:
    """Each payload path that writes or reads an array's own buffer against the `np.save` and
    `np.load` path it replaced: the same bytes, the same values, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(shape=SHAPES, n_steps=st.integers(1, 5), seed=st.integers(0, 2**16))
    def test_corpus_payload_is_np_save_of_the_steps_concatenated(self, shape, n_steps, seed):
        layers, heads, prompt_len = shape
        prompt_len += 1  # a corpus prompt holds at least one token
        trace = _trace(layers, heads, prompt_len, n_steps, seed)
        with tempfile.TemporaryDirectory() as directory:
            d = Path(directory)
            digest = save_corpus(d, [(_sample(prompt_len), trace)])
            payload = (d / "sample_00000.npy").read_bytes()
            record = (d / "sample_00000.json").read_bytes()
        assert payload == _npy_bytes(np.concatenate([s.ravel() for s in trace.steps]))
        expected = hashlib.sha256(b"sample_00000.json" + record + b"sample_00000.npy" + payload)
        assert digest == expected.hexdigest()

    @settings(max_examples=60, deadline=None)
    @given(shape=SHAPES, seed=st.integers(0, 2**16), strided=st.booleans())
    def test_write_array_is_np_save(self, shape, seed, strided):
        array = np.random.default_rng(seed).random(shape)
        if strided:  # a view that is not contiguous: written in C order, as np.save writes it
            array = array[:, ::2]
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "a.npy"
            digest = write_array(path, array)
            data = path.read_bytes()
        assert data == _npy_bytes(array)
        assert digest == hashlib.sha256(data).hexdigest()

    @settings(max_examples=60, deadline=None)
    @given(shape=SHAPES, seed=st.integers(0, 2**16))
    def test_read_array_is_np_load_bit_for_bit(self, shape, seed):
        data = _npy_bytes(np.random.default_rng(seed).random(shape))
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "a.npy"
            path.write_bytes(data)
            loaded = read_array(path, hashlib.sha256(data).hexdigest(), shape, "thing")
            expected = np.load(path, allow_pickle=False)
        assert loaded.dtype == expected.dtype and loaded.shape == expected.shape
        assert loaded.tobytes() == expected.tobytes()
        assert not loaded.flags.writeable


class TestPayloadCopies:
    """A payload is written from, and read into, one buffer: no copy of it is made on the way.

    375 KB is the size of a `cli-flow` corpus payload; 64 KiB of slack covers the header,
    the record and the interpreter's own allocations.
    """

    SLACK = 64 * 1024

    def test_read_array_holds_only_the_bytes_read(self, tmp_path):
        path = tmp_path / "a.npy"
        digest = write_array(path, np.random.default_rng(0).random((8, 8, 733)))
        peak = _peak_bytes(lambda: read_array(path, digest, (8, 8, 733), "thing"))
        assert peak <= path.stat().st_size + self.SLACK

    def test_write_array_copies_nothing(self, tmp_path):
        array = np.random.default_rng(0).random((8, 8, 733))
        assert _peak_bytes(lambda: write_array(tmp_path / "a.npy", array)) <= self.SLACK

    def test_corpus_payload_write_copies_nothing(self, tmp_path):
        trace = _trace(8, 8, 38, 16, 0)
        assert sum(step.nbytes for step in trace.steps) > 350_000
        samples = [(_sample(38), trace)]
        assert _peak_bytes(lambda: save_corpus(tmp_path / "corpus", samples)) <= self.SLACK


# -- every loader returns or raises a SparseMMError, whatever one field holds

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


@lru_cache(maxsize=None)
def _valid_files():
    """A parsed valid file of every JSON artifact, and the trace's and corpus record's payloads."""
    with tempfile.TemporaryDirectory() as directory:
        d = Path(directory)
        save_scores(d / "scores.json", HeadScoreMatrix(np.arange(6.0).reshape(2, 3) / 5, 7))
        save_plan(d / "plan.json", allocate_uniform(AllocationConfig(2 * 2 * 16, 8), 2, 2))
        assert main([
            "prefill", "--layers", "2", "--query-heads", "4", "--kv-heads", "2",
            "--planted", "0,1", "--prompt-len", "24", "--out-len", "2", "--window", "8",
            "--out", str(d / "trace.json"),
        ]) == 0
        model = build_synthetic_model(
            ModelGeometry.mha(1, 2), PlantedHeadSet.uniform([(0, 1)], 0.9), 3
        )
        save_corpus(d / "corpus", generate_ocr_samples(model, 1, 3))
        blobs = {
            name: json.loads((d / f"{name}.json").read_text())
            for name in ("scores", "plan", "trace")
        }
        blobs["record"] = json.loads((d / "corpus" / "sample_00000.json").read_text())
        payloads = {
            "trace": (d / "trace.npy").read_bytes(),
            "record": (d / "corpus" / "sample_00000.npy").read_bytes(),
        }
    blobs["config"] = CONFIG
    return blobs, payloads


LOADERS = {"scores": load_scores, "plan": load_plan, "config": load_config, "trace": _load_trace}


def _load(artifact: str, blob: dict):
    """Write `blob` as the artifact's file (a trace or corpus record beside its payload) and load it.

    A SparseMMError must name the file it was raised for: the record, trace
    or payload path, or the score, plan or config file.
    """
    payloads = _valid_files()[1]
    with tempfile.TemporaryDirectory() as directory:
        d = Path(directory)
        stem = d / ("sample_00000" if artifact == "record" else artifact)
        if artifact in payloads:
            stem.with_suffix(".npy").write_bytes(payloads[artifact])
        write_json(stem.with_suffix(".json"), blob)
        try:
            if artifact == "record":
                return list(load_corpus(d))
            return LOADERS[artifact](stem.with_suffix(".json"))
        except SparseMMError as exc:
            assert str(stem) in str(exc), str(exc)
            raise


def _edit_one_item(value, data):
    """`value` with one item at any depth replaced by an arbitrary JSON value.

    Values near a valid field reach the checks on its items (a float budget,
    a ragged score row) that a wholly arbitrary value seldom does.
    """
    if isinstance(value, (list, dict)) and value and data.draw(st.integers(0, 3)) > 0:
        key = data.draw(st.sampled_from(sorted(value) if isinstance(value, dict) else range(len(value))))
        edited = dict(value) if isinstance(value, dict) else list(value)
        edited[key] = _edit_one_item(value[key], data)
        return edited
    return data.draw(JSON_VALUES)


def _loads_or_raises_sparsemm_error(artifact: str, data):
    blob = dict(_valid_files()[0][artifact])
    field = data.draw(st.sampled_from(sorted(blob)), label="field")
    blob[field] = _edit_one_item(blob[field], data)
    try:
        _load(artifact, blob)
    except SparseMMError:
        pass


# values of every JSON type, at the edges the loaders must not fall over
HOSTILE = [None, True, -1, 0, 1.5, float("nan"), float("inf"), 2**63, 10**400, "x", [], {},
           [[1], [1, 2]]]


def _paths(value, path=()):
    """The path to every item of `value`, following the first and last item of each list."""
    yield path
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _paths(value[key], path + (key,))
    elif isinstance(value, list):
        for i in sorted({0, len(value) - 1} if value else set()):
            yield from _paths(value[i], path + (i,))


def _replaced(value, path, new):
    if not path:
        return new
    edited = dict(value) if isinstance(value, dict) else list(value)
    edited[path[0]] = _replaced(value[path[0]], path[1:], new)
    return edited


class TestLoadersOnAnyFieldValue:
    """Replacing one top-level field of a valid file with another JSON value
    (an arbitrary one, or the valid one with one nested item replaced) never
    makes a loader raise anything but a SparseMMError, and the error names
    the file it was raised for."""

    @pytest.mark.parametrize("artifact", ["scores", "plan", "config", "trace", "record"])
    def test_valid_files_load(self, artifact):
        _load(artifact, _valid_files()[0][artifact])

    @pytest.mark.parametrize("artifact", ["scores", "plan", "config", "trace", "record"])
    def test_every_item_replaced_by_a_hostile_value(self, artifact):
        blob = _valid_files()[0][artifact]
        for path in list(_paths(blob))[1:]:
            for value in HOSTILE:
                try:
                    _load(artifact, _replaced(blob, path, value))
                except SparseMMError:
                    pass

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_scores(self, data):
        _loads_or_raises_sparsemm_error("scores", data)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_plan(self, data):
        _loads_or_raises_sparsemm_error("plan", data)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_config(self, data):
        _loads_or_raises_sparsemm_error("config", data)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_prefill_trace(self, data):
        _loads_or_raises_sparsemm_error("trace", data)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_corpus_record(self, data):
        _loads_or_raises_sparsemm_error("record", data)


# -- each file's table, its writer and its checker


def _readme_config_keys() -> set[str]:
    """The keys of the README's example config, the planted alternative in its comment too.

    A key inside the geometry or planted section is spelled `section.key`.
    """
    text = (SRC.parents[1] / "README.md").read_text()
    block = text.split("```jsonc\n", 1)[1].split("```", 1)[0]
    example = json.loads(re.sub(r"\s*//.*", "", block))
    alternative = re.search(r'// "planted": (\{.*\}),', block)[1]
    example["planted"] |= json.loads(alternative)
    return {
        f"{key}.{inner}" if isinstance(value, dict) else key
        for key, value in example.items()
        for inner in (value if isinstance(value, dict) else [None])
    }


def _written_keys(tmp_path) -> dict[str, set[str]]:
    """The keys each writer puts in its file: the score file, plan, trace and corpus record."""
    save_scores(tmp_path / "scores.json", HeadScoreMatrix(np.ones((2, 2)), 3))
    save_plan(tmp_path / "plan.json", allocate_uniform(AllocationConfig(64, 8), 2, 2))
    assert main(["prefill", "--layers", "1", "--query-heads", "2", "--planted", "0,1",
                 "--prompt-len", "40", "--window", "8", "--out", str(tmp_path / "trace.json")]) == 0
    model = build_synthetic_model(ModelGeometry.mha(1, 2), PlantedHeadSet.uniform([(0, 1)], 0.9), 3)
    save_corpus(tmp_path / "corpus", generate_ocr_samples(model, 1, 3))
    files = {name: tmp_path / f"{name}.json" for name in ("scores", "plan", "trace")}
    files["record"] = tmp_path / "corpus" / "sample_00000.json"
    return {name: set(json.loads(path.read_text())) for name, path in files.items()}


TABLES = {"scores": SCORE_FIELDS, "plan": PLAN_FIELDS, "trace": TRACE_FIELDS,
          "record": RECORD_FIELDS, "config": CONFIG_FIELDS}


class TestFieldTables:
    def test_writers_write_exactly_the_table_fields(self, tmp_path, capsys):
        """Every field a writer writes is declared, and every declared field is written."""
        written = _written_keys(tmp_path) | {"config": _readme_config_keys()}
        for name, fields in TABLES.items():
            assert written[name] == {field.name for field in fields}, name
            assert {field.name for field in fields if field.required} <= written[name], name

    def test_valid_files_name_no_value(self, tmp_path, monkeypatch, capsys):
        """Loading a valid file of each kind, at the `cli-flow` benchmark's 8x8/384 size, builds no
        element name: the names are built only to report a bad value."""
        model = build_synthetic_model(
            ModelGeometry.mha(8, 8), PlantedHeadSet.uniform([(0, 1), (3, 4), (6, 2)], 0.8), 0
        )
        save_corpus(tmp_path / "corpus", generate_ocr_samples(model, 2, 0))
        scores = HeadScoreMatrix(np.random.default_rng(0).random((8, 8)), 300)
        save_scores(tmp_path / "scores.json", scores)
        save_plan(tmp_path / "plan.json", allocate("sparsemm", AllocationConfig(64 * 64), 8, 8,
                                                   scores=scores))
        assert main(["prefill", "--layers", "8", "--query-heads", "8", "--planted", "0,1;3,4;6,2",
                     "--prompt-len", "384", "--out", str(tmp_path / "trace.json")]) == 0
        (tmp_path / "config.json").write_text(json.dumps(CONFIG))

        def refuse(path):
            raise AssertionError(f"named {path} in a valid file")

        monkeypatch.setattr(artifacts, "_element_name", refuse)
        assert len(load_corpus(tmp_path / "corpus")) == 2
        for _sample, trace in load_corpus(tmp_path / "corpus"):
            assert trace.layers == 8
        load_scores(tmp_path / "scores.json")
        load_plan(tmp_path / "plan.json")
        _load_trace(tmp_path / "trace.json")
        load_config(tmp_path / "config.json")
        # the guard is live: a bad value is named through it
        (tmp_path / "scores.json").write_text('{"layers": 1, "heads": 1, "scores": [-1]}')
        with pytest.raises(AssertionError, match="named"):
            load_scores(tmp_path / "scores.json")

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize("rho", [0.0, 0.1, 1.0])
    def test_a_plan_of_every_policy_round_trips_byte_for_byte(self, tmp_path, policy, rho):
        scores = HeadScoreMatrix(np.random.default_rng(1).random((3, 4)), 20)
        plan = allocate(policy, AllocationConfig(3 * 4 * 24, 8, rho), 3, 4, scores=scores, seed=5)
        save_plan(tmp_path / "plan.json", plan)
        save_plan(tmp_path / "again.json", load_plan(tmp_path / "plan.json"))
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "plan.json").read_bytes()


# -- what the CLI writes

MODEL = ["--layers", "2", "--query-heads", "4", "--kv-heads", "2", "--planted", "0,1;1,2",
         "--strength", "0.9", "--seed", "4"]


@pytest.fixture
def flow(tmp_path, capsys):
    """Every artifact of one CLI flow, plus the parsed summary lines."""
    corpus = tmp_path / "corpus"
    commands = [
        ["corpus", *MODEL, "--samples", "4", "--out-dir", str(corpus)],
        ["chase", "--corpus", str(corpus), "--group", "2", "--out", str(tmp_path / "scores.json")],
        ["allocate", "--scores", str(tmp_path / "scores.json"), "--budget", str(4 * 24),
         "--window", "8", "--out", str(tmp_path / "plan.json")],
        ["prefill", *MODEL, "--prompt-len", "40", "--out-len", "2", "--window", "8",
         "--out", str(tmp_path / "trace.json")],
        ["compress", "--trace", str(tmp_path / "trace.json"), "--plan", str(tmp_path / "plan.json"),
         "--out-json", str(tmp_path / "report.json"), "--out-csv", str(tmp_path / "report.csv")],
    ]
    for argv in commands:
        assert main(argv) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "geometry": {"layers": 2, "query_heads": 2}, "planted": {"pairs": [[0, 1]]}, "seeds": [0],
    }))
    assert main(["bench", "cost", "--config", str(config), "--out-dir", str(tmp_path / "bench")]) == 0
    summaries = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    return tmp_path, {s["command"]: s for s in summaries}


# sha256 of what the flow writes, recorded before the corpus payload code moved
# into artifacts.py and the trace's window scores moved to a .npy; trace.json,
# which holds its payload's sha256, before payloads were written from the arrays'
# own buffers
FLOW_DIGESTS = {
    "corpus": "c1877857a97b1b84bcbf1ef0444ad22c57569ef784a9efd6ea1d9a0517647530",
    "scores.json": "4c07ce7cfae3c30466f490993ea59c8336dae62ed5f891c1136491024b0c429d",
    "plan.json": "99dcfae088a14549d15f62e0af0ff6845af5b49e2215459f3267de6de9c136f7",
    "report.json": "5dc2181550fc3104b1de39421dc65a6028fcabb9cd2aead04082d70540c1afbb",
    "report.csv": "89b3950f72aea5b1c8335532a9a2ebd7f2163b892ff3d0eb1d51f7f6140503f1",
    "trace.json": "e23fc490c9e7983021eb3c4ad23bb0d0addbebdd330a523f4a056c8ea6a2d68f",
}


class TestCliArtifacts:
    def test_flow_bytes_are_pinned(self, flow):
        """corpus -> chase -> allocate -> prefill -> compress writes the recorded bytes."""
        directory, summaries = flow
        assert summaries["corpus"]["digest"] == FLOW_DIGESTS["corpus"]
        assert summaries["chase"]["hash"] == FLOW_DIGESTS["scores.json"]
        written = {
            name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in ("scores.json", "plan.json", "report.json", "report.csv", "trace.json")
        }
        assert written == {name: FLOW_DIGESTS[name] for name in written}

    def test_plan_file_round_trips_byte_for_byte(self, flow):
        directory, _ = flow
        plan = load_plan(directory / "plan.json")
        save_plan(directory / "again.json", plan)
        assert (directory / "again.json").read_bytes() == (directory / "plan.json").read_bytes()

    def test_every_json_artifact_is_canonical(self, flow, tmp_path):
        directory, _ = flow
        written = [
            directory / name
            for name in ("scores.json", "plan.json", "trace.json", "report.json")
        ] + sorted((directory / "corpus").glob("*.json")) + [directory / "bench" / "cost.json"]
        again = tmp_path / "again.json"
        for path in written:
            write_json(again, json.loads(path.read_bytes()))
            assert again.read_bytes() == path.read_bytes(), path.name


# -- the format lives in one module

JSON_CALLS = {"dump", "dumps", "load", "loads"}


def _json_calls(tree: ast.AST) -> list[tuple[str | None, ast.Call]]:
    """(enclosing function name, call) for every json.dump/dumps/load/loads call."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and isinstance(child.func.value, ast.Name)
                and child.func.value.id == "json"
                and child.func.attr in JSON_CALLS
            ):
                found.append((func, child))
            visit(child, func)

    visit(tree, None)
    return found


def _is_summary_line(func: str | None, call: ast.Call) -> bool:
    """`json.dump(obj, sys.stdout)` or `json.dump(obj, sys.stderr)` inside `main`."""
    stream = call.args[1] if len(call.args) == 2 else None
    return (
        func == "main"
        and call.func.attr == "dump"
        and isinstance(stream, ast.Attribute)
        and isinstance(stream.value, ast.Name)
        and stream.value.id == "sys"
        and stream.attr in ("stdout", "stderr")
    )


def _offenders(name: str, tree: ast.AST) -> list[str]:
    """json uses in module `name` that bypass artifacts.py."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            found.append(f"{name}:{node.lineno} from json import")
        if isinstance(node, ast.Import) and any(a.name == "json" and a.asname for a in node.names):
            found.append(f"{name}:{node.lineno} json imported under another name")
    for func, call in _json_calls(tree):
        if not (name == "cli.py" and _is_summary_line(func, call)):
            found.append(f"{name}:{call.lineno} json.{call.func.attr} in {func}")
    return found


def test_json_is_encoded_and_decoded_only_in_artifacts():
    modules = sorted(SRC.glob("*.py"))
    assert {"artifacts.py", "cli.py", "bench.py"} <= {p.name for p in modules}
    offenders = []
    for path in modules:
        if path.name != "artifacts.py":
            offenders += _offenders(path.name, ast.parse(path.read_text(), str(path)))
    assert not offenders, offenders


def test_guard_catches_a_hand_rolled_writer():
    source = (
        "import json\n"
        "def save(path, obj):\n"
        "    with open(path, 'w') as fh:\n"
        "        json.dump(obj, fh)\n"
        "def main():\n"
        "    json.dump({}, sys.stdout)\n"
        "    json.dump({}, sys.stderr)\n"
        "    json.dumps({})\n"
    )
    tree = ast.parse(source)
    assert _offenders("cli.py", tree) == ["cli.py:4 json.dump in save", "cli.py:8 json.dumps in main"]
    assert len(_offenders("cache.py", tree)) == 4
    assert _offenders("x.py", ast.parse("from json import loads\nimport json as j\n")) == [
        "x.py:1 from json import", "x.py:2 json imported under another name",
    ]


# -- only artifacts.py touches a file

# method names that open, read, write, list or create a file or directory
FILE_METHODS = {
    "open", "read_text", "read_bytes", "write_text", "write_bytes", "mkdir", "makedirs",
    "listdir", "scandir", "tofile", "fromfile",
}
NUMPY_FILE_CALLS = {"load", "save", "savez", "savez_compressed", "loadtxt", "savetxt", "genfromtxt"}


def _file_access(name: str, tree: ast.AST) -> list[str]:
    """Calls in module `name` that reach the file system without artifacts.py."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            found.append((node.lineno, "open"))
        elif isinstance(func, ast.Attribute) and (
            func.attr in FILE_METHODS
            or (isinstance(func.value, ast.Name) and func.value.id == "np"
                and func.attr in NUMPY_FILE_CALLS)
        ):
            found.append((node.lineno, f".{func.attr}"))
    return [f"{name}:{line} {what}" for line, what in sorted(found)]


def test_files_are_touched_only_in_artifacts():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "artifacts.py":
            offenders += _file_access(path.name, ast.parse(path.read_text(), str(path)))
    assert not offenders, offenders


def test_the_generator_imports_no_file_format():
    """`simmodel` generates rows; the corpus file format is `corpusfile`'s."""
    tree = ast.parse((SRC / "simmodel.py").read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not imported & {"artifacts", "corpusfile"}, imported


def test_file_guard_catches_every_kind_of_access():
    source = (
        "def save(path, data):\n"
        "    with open(path, 'w') as fh:\n"
        "        fh.write(data)\n"
        "    Path(path).write_text(data)\n"
        "    Path(path).read_bytes()\n"
        "    os.makedirs(path)\n"
        "    Path(path).mkdir()\n"
        "    os.listdir(path)\n"
        "    np.save(path, data)\n"
        "    np.load(path)\n"
        "    Path(path).with_suffix('.npy')\n"
    )
    assert _file_access("x.py", ast.parse(source)) == [
        "x.py:2 open", "x.py:4 .write_text", "x.py:5 .read_bytes", "x.py:6 .makedirs",
        "x.py:7 .mkdir", "x.py:8 .listdir", "x.py:9 .save", "x.py:10 .load",
    ]


# -- modules share only public names


def _private_imports(name: str, tree: ast.AST) -> list[str]:
    """Underscore names that module `name` imports from another sparsemm module."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("sparsemm"):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{name}:{node.lineno} imports {alias.name} from {node.module}")
    return found


def test_no_module_imports_a_private_name_of_another():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        offenders += _private_imports(path.name, ast.parse(path.read_text(), str(path)))
    assert not offenders, offenders
    source = (
        "from .cache import _order, keep\n"
        "from sparsemm.bench import _rows\n"
        "from os import _exit\n"
    )
    assert _private_imports("x.py", ast.parse(source)) == [
        "x.py:1 imports _order from cache", "x.py:2 imports _rows from sparsemm.bench",
    ]
