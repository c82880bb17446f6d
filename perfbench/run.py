"""sparsemm benchmark: three workloads timed from outside the package.

    python3 perfbench/run.py --workload sweep-long-gqa --seed 0 --seconds 36 --trace 0

Run from the root of a checkout. Each run starts fresh worker processes with
BLAS thread variables pinned: the main worker runs passes for `--seconds`
seconds, and SETUPS workers that only set up run half before it and half
after it. Each set-up time is scaled by the start-up time of a bare
interpreter measured just before and just after it, the host-speed reference
for set-up; `setup_s` is the median of the scaled times. With `--trace 0` the result holds the
end-to-end metrics, with `--trace 1` the per-layer ones. `pass_s` is the
median of the pass times corrected for host speed by probe.py. The last
stdout line is the JSON result; the two lines before it give a readable
summary, which includes the raw wall times and failed_frac, and the
provenance. See perfbench/ABOUT.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUPS = 10
# typical start-up time of a bare interpreter on the 2-vCPU Intel Xeon VM the
# benchmark was defined on; it sets the scale of `setup_s`, not its spread
BARE_START_REF_S = 0.07
DEADLINE_S = 170.0
READY_TIMEOUT_S = 60.0
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class WorkerFailed(Exception):
    pass


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def start_worker(args, env, extra) -> tuple[subprocess.Popen, float]:
    """Start a worker; returns it and its set-up time (start to `ready`)."""
    argv = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    readable, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
    line = proc.stdout.readline() if readable else ""
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise WorkerFailed(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup


def bare_start(env) -> float:
    """Wall time of a bare interpreter's whole run."""
    start = time.perf_counter()
    # no timeout: with one, the wait polls and rounds the time up to 50 ms
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True)
    return time.perf_counter() - start


def finish(proc: subprocess.Popen, timeout: float) -> str:
    """Wait for a worker and return the rest of its stdout; kill it on timeout."""
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed("worker ran past the deadline and was killed") from None
    return out


def run(args) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: THREADS for v in THREAD_VARS})
    setups, raw_setups = [], []

    def setup_only(count):
        before = bare_start(env)
        for _ in range(count):
            proc, setup = start_worker(args, env, ["--setup-only"])
            finish(proc, deadline - time.perf_counter())
            if proc.returncode != 0:
                raise WorkerFailed(f"set-up worker exited {proc.returncode}")
            after = bare_start(env)
            raw_setups.append(setup)
            setups.append(setup * BARE_START_REF_S / ((before + after) / 2))
            before = after

    setup_only(SETUPS // 2)
    proc, _ = start_worker(args, env, [])
    out = finish(proc, deadline - time.perf_counter())
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited {proc.returncode} without a result")
    setup_only(SETUPS - SETUPS // 2)
    result = json.loads(lines[-1])
    result["setup_s"] = statistics.median(setups)
    result["raw_setup_s"] = statistics.median(raw_setups)
    result["setups"] = len(setups)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="sparsemm benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    times = result["pass_s"]
    if args.trace:
        metrics = result["per_layer"]
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = {
            "pass_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mib": {"value": result["peak_rss_mib"], "unit": "MiB"},
            "setup_s": {"value": result["setup_s"], "unit": "s"},
        }
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if {n: m["unit"] for n, m in metrics.items()} != wanted:
        print(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(wanted)}",
              file=sys.stderr)
        return 1
    correct = failed == 0 and result["catches_corruption"] and result["counts_repeat"]
    if not result["catches_corruption"]:
        print("self-check: a corrupted output row was not caught", file=sys.stderr)

    provenance = dict(result["provenance"], nproc=os.cpu_count(), cpu_model=cpu_model(),
                      threads={v: THREADS for v in THREAD_VARS}, workload=args.workload,
                      seconds=args.seconds, trace=args.trace)
    walls = result.get("wall_s")
    wall_note = (f"raw wall median {statistics.median(walls):.3f} s "
                 f"[{' '.join(f'{t:.2f}' for t in walls)}], " if walls else "")
    print(f"# {args.workload}: pass_s median {statistics.median(times):.3f} s over "
          f"{len(times)} untraced passes [{' '.join(f'{t:.2f}' for t in times)}], "
          f"{wall_note}"
          f"setup_s median {result['setup_s']:.3f} s over {result['setups']} processes "
          f"(raw {result['raw_setup_s']:.3f} s), peak_rss_mib {result['peak_rss_mib']:.1f} MiB, "
          f"failed_frac {failed / attempted:.3f} ({failed}/{attempted} passes)")
    if result["self_time_shares"]:
        print(f"# self-time shares over {result['self_time_shares']}")
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
