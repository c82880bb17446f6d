"""cli: the subcommands and the artifact files they read and write.

Artifact IO is timed where cli calls the readers and writers of the other
modules, plus the JSON encode/decode and file read that `prefill` and
`compress` do inline (through stand-ins for cli's `json` and `Path`). Byte
counts are file sizes, taken after the call returns.
"""

import json
import os
import pathlib
import sys

from sparsemm import bench, cli

COMMANDS = ("corpus", "chase", "allocate", "prefill", "compress", "bench")

METRICS = {f"cli.{c}.self_s": "s" for c in COMMANDS} | {
    "artifacts.write.self_s": "s",
    "artifacts.read.self_s": "s",
    "artifacts.bytes_written": "B-computed",
    "artifacts.bytes_read": "B-computed",
}

WRITERS = {  # name -> index of its path argument
    "save_corpus": 0,
    "save_scores": 0,
    "save_plan": 0,
    "report_to_json": 1,
    "report_to_csv": 1,
}
READERS = ("load_corpus", "corpus_digest", "load_scores", "score_file_hash", "load_plan")


def path_bytes(path) -> int:
    if os.path.isdir(path):
        return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())
    return os.path.getsize(path)


class _TracedJson:
    """cli's `json`: encodes to files and decodes are artifact IO; the summary
    line written to stdout/stderr is not."""

    def __init__(self, tr):
        self._tr = tr

    def __getattr__(self, name):
        return getattr(json, name)

    def dump(self, obj, fh, **kwargs):
        if fh is sys.stdout or fh is sys.stderr:
            return json.dump(obj, fh, **kwargs)
        with self._tr.span("artifacts.write"):
            return json.dump(obj, fh, **kwargs)

    def loads(self, text, **kwargs):
        with self._tr.span("artifacts.read"):
            return json.loads(text, **kwargs)


def install(tr) -> None:
    class TracedPath(type(pathlib.Path())):
        def read_text(self, *args, **kwargs):
            with tr.span("artifacts.read"):
                return super().read_text(*args, **kwargs)

    def counter(name, index):
        def count(result, *args, **kwargs):
            tr.count(name, path_bytes(args[index]))
        return count

    for name, index in WRITERS.items():
        tr.wrap(cli, name, "artifacts.write", counter("artifacts.bytes_written", index))
    for name in READERS:
        tr.wrap(cli, name, "artifacts.read", counter("artifacts.bytes_read", 0))
    tr.wrap(bench, "load_config", "artifacts.read", counter("artifacts.bytes_read", 0))
    tr.patch(cli, "json", _TracedJson(tr))
    tr.patch(cli, "Path", TracedPath)

    # the inline trace file of prefill/compress is counted from the parsed args
    inline = {
        "prefill": lambda a: tr.count("artifacts.bytes_written", path_bytes(a.out)),
        "compress": lambda a: tr.count("artifacts.bytes_read", path_bytes(a.trace)),
    }
    for command in COMMANDS:
        after = inline.get(command)
        tr.wrap(cli, f"cmd_{command}", f"cli.{command}",
                None if after is None else (lambda result, args, _f=after: _f(args)))
