"""One fresh benchmark process: set up, then run passes of one workload.

Started by run.py. It imports sparsemm from the checkout's `src/`, writes the
workload's inputs, loads the reference rows and prints `ready`; run.py times
the set-up from process start to that line. Unless `--setup-only` is given it
then runs passes through `sparsemm.cli.main(argv)` for up to `--seconds` seconds
(at least two, so that output bytes can be compared between passes) and
prints one JSON result line. Untraced passes of a `--trace 0` run are timed
with the host-speed probe (probe.py); their raw wall times are reported too.

With `--trace 1` the first half of the time runs untraced passes and the
second half traced ones (at least two), which also checks that every count
repeats exactly between traced passes.

`--record` runs one pass at seed offset 0 and writes its rows as the
workload's reference: python3 perfbench/worker.py --workload cli-flow --record
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0, help="seed offset (non-negative)")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--record", action="store_true")
    return p.parse_args(argv)


def digest_tree(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def source_digest() -> str:
    return digest_tree(SRC / "sparsemm") if (SRC / "sparsemm").is_dir() else ""


def git_commit() -> str | None:
    """HEAD's commit read from .git without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


class Runner:
    def __init__(self, workload, offset: int, run_dir: Path):
        from sparsemm import cli

        self.cli = cli
        self.workload = workload
        self.offset = offset
        self.commands, config = workload.prepare(run_dir, offset)
        self.config_digest = hashlib.sha256(config).hexdigest()
        self.out = run_dir / "out"
        # loaded at every offset, so that set-up does the same work; compared
        # only at offset 0, where it was recorded
        ref_path = REFERENCE / f"{workload.name}.json"
        reference = json.loads(ref_path.read_text())["rows"] if ref_path.is_file() else None
        self.reference = reference if offset == 0 else None
        self.digests: set[str] = set()
        self.attempted = 0
        self.failed = 0
        self.first_rows: list[dict] | None = None
        self.walls: list[float] = []

    def run_pass(self, tracer=None, probed=False) -> float:
        """One pass; returns its wall time, or with `probed` its time scaled
        to the probe's reference speed. A failed pass is counted, not raised."""
        from probe import Probe

        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        argvs = [[a.replace("{out}", str(self.out)) for a in argv] for argv in self.commands]
        self.attempted += 1
        stdout = io.StringIO()
        problems: list[str] = []
        span = tracer.traced_pass() if tracer is not None else contextlib.nullcontext()
        probe = Probe(self.workload.probe) if probed else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), span, probe:
                for argv in argvs:
                    code = self.cli.main(argv)
                    if code != 0:
                        problems.append(f"{argv[0]} exited {code}")
                        break
        except (Exception, SystemExit):
            problems.append(traceback.format_exc())
        elapsed = time.perf_counter() - start
        self.walls.append(elapsed)
        if not problems:
            try:
                summaries = [json.loads(line) for line in stdout.getvalue().splitlines()]
                rows = self.workload.rows(self.out, summaries)
            except (OSError, ValueError, KeyError):
                problems.append(traceback.format_exc())
            else:
                problems += self.check(rows)
                self.digests.add(digest_tree(self.out))
                if len(self.digests) > 1:
                    problems.append("output bytes differ from an earlier pass of this run")
                if self.first_rows is None:
                    self.first_rows = rows
        if problems:
            self.failed += 1
            print(f"pass {self.attempted} of {self.workload.name} failed:", *problems,
                  sep="\n  ", file=sys.stderr)
        shutil.rmtree(self.out, ignore_errors=True)
        return probe.scaled(elapsed) if probed else elapsed

    def check(self, rows: list[dict]) -> list[str]:
        from workloads import check

        return check(self.workload, rows, self.reference)

    def catches_corruption(self) -> bool:
        """The checks reject a copy of this run's rows with one value corrupted."""
        from workloads import corrupted

        return self.first_rows is not None and bool(
            self.check(corrupted(self.workload, self.first_rows))
        )


def timed_passes(runner: Runner, seconds: float, minimum: int, tracer=None,
                 probed=False) -> list[float]:
    """At least `minimum` passes, then more while the next one, at the median
    wall time so far, still ends within `seconds`."""
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < minimum or (
        time.perf_counter() - start + statistics.median(runner.walls[-len(times):]) <= seconds
    ):
        times.append(runner.run_pass(tracer, probed))
    return times


def traced_metrics(runner: Runner, seconds: float) -> tuple[dict, list[float], bool, str]:
    """Per-layer metrics from traced passes, untraced pass times, whether
    every count repeated exactly between the traced passes, and the layers'
    shares of traced self time."""
    from layers import LAYERS
    from tracer import Tracer

    untraced = timed_passes(runner, seconds / 2, 1)
    tracer = Tracer()
    for layer in LAYERS:
        layer.install(tracer)
    try:
        traced = timed_passes(runner, seconds / 2, 2, tracer)
    finally:
        tracer.restore()
    if tracer.missing:
        print("call sites not found, their metrics read 0:", *tracer.missing,
              sep="\n  ", file=sys.stderr)
    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"trace-{runner.workload.name}-{runner.offset}.jsonl")

    figures = [tracer.pass_figures(i) for i in range(len(traced))]
    names = {n: u for layer in LAYERS for n, u in layer.METRICS.items()}
    for fig in figures:
        for layer in LAYERS:
            getattr(layer, "finish", lambda f: None)(fig)
    metrics = {}
    repeats = True
    for name, unit in names.items():
        values = [fig.get(name, 0.0) for fig in figures]
        if unit == "s":
            value = statistics.median(values)
        else:
            value = values[0]
            if any(v != value for v in values):
                repeats = False
                print(f"{name} differs between traced passes: {values}", file=sys.stderr)
        metrics[name] = {"value": value, "unit": unit}
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    shares = {n[:-7]: m["value"] for n, m in metrics.items() if n.endswith(".self_s")}
    total = sum(shares.values()) or 1.0
    ranking = ", ".join(f"{n} {v / total:.0%}" for n, v in
                        sorted(shares.items(), key=lambda kv: -kv[1]) if v / total >= 0.01)
    return metrics, untraced, repeats, f"{len(traced)} traced passes: {ranking}"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sparsemm" / "__init__.py").is_file():
        print(f"sparsemm sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be non-negative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import numpy
    import sparsemm
    from workloads import WORKLOADS

    if Path(sparsemm.__file__).resolve().parent != (SRC / "sparsemm").resolve():
        print(f"imported sparsemm from {sparsemm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        offset = 0 if args.record else args.seed
        runner = Runner(workload, offset, run_dir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        if args.record:
            runner.reference = None
            runner.run_pass()
            if runner.failed:
                return 1
            path = REFERENCE / f"{workload.name}.json"
            blob = {"workload": workload.name, "seed_offset": 0, "float_tolerance": 1e-9,
                    "rows": runner.first_rows}
            path.write_text(json.dumps(blob, indent=1, sort_keys=True) + "\n")
            print(json.dumps({"recorded": str(path.relative_to(ROOT))}))
            return 0

        per_layer, repeats, shares = None, True, None
        if args.trace:
            per_layer, times, repeats, shares = traced_metrics(runner, args.seconds)
        else:
            times = timed_passes(runner, args.seconds, 2, probed=True)
        result = {
            "pass_s": times,
            # raw wall times of probed passes; traced runs time passes unprobed
            "wall_s": None if args.trace else runner.walls[-len(times):],
            "attempted": runner.attempted,
            "failed": runner.failed,
            "catches_corruption": runner.catches_corruption(),
            "counts_repeat": repeats,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "per_layer": per_layer,
            "self_time_shares": shares,
            "provenance": {
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "git_commit": git_commit(),
                "source_sha256": source_digest(),
                "seed_offset": offset,
                "config_sha256": runner.config_digest,
                "reference_checked": runner.reference is not None,
            },
        }
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
