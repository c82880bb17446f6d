"""The three benchmark workloads: their inputs, one pass, and output checks.

A workload turns a seed offset into the argv of one pass (writing any config
file it needs), reads the pass's output rows, and checks them: against the
rows recorded at seed offset 0 (`reference/<name>.json`), and for every
offset against invariants that hold for any seed.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

POLICIES = ["sparsemm", "uniform", "pyramid", "random", "ada"]

# |value - reference| <= FLOAT_TOL * max(1, |reference|) for float columns;
# integer, boolean and string columns must match exactly
FLOAT_TOL = 1e-9

SWEEP_CONFIG = {
    "geometry": {"layers": 32, "query_heads": 32, "kv_heads": 8, "head_dim": 64},
    "planted": {"fraction": 0.05, "strength": 0.8},
    "corpus_size": 40,
    "budgets_per_head": [128, 256, 512],
    "policies": POLICIES,
    "prompt_len": 2048,
    "out_len": 16,
    "window": 32,
    "rho": 0.1,
}
SWEEP_KV = 32 * 8

# the README default config, pinned here so a change of program defaults
# does not silently change the workload
MASK_CONFIG = {
    "geometry": {"layers": 8, "query_heads": 8, "kv_heads": 8, "head_dim": 64},
    "planted": {"pairs": [[0, 1], [3, 4], [6, 2]], "strength": 0.8},
    "corpus_size": 40,
    "budgets_per_head": [48, 64, 128],
    "policies": POLICIES,
    "mask_fractions": [0.0, 0.02, 0.05, 0.10],
    "prompt_len": 384,
    "out_len": 16,
    "window": 32,
    "rho": 0.1,
}
MASK_HEADS = 8 * 8

FLOW_MODEL = ["--layers", "8", "--query-heads", "8", "--planted", "0,1;3,4;6,2",
              "--strength", "0.8"]
FLOW_SAMPLES = 40
FLOW_BUDGET = 64 * 64
FLOW_PROMPT = 384
FLOW_WINDOW = 32
FLOW_INT_COLUMNS = ("layer", "kv_head", "budget", "kept_count", "clamped")
# summary keys that name files or digest their bytes: checked for equality
# between passes of a run (through the output digest), not against a reference
FLOW_PATH_KEYS = ("out", "out_dir", "digest", "hash")


@dataclass(frozen=True)
class Workload:
    name: str
    # (work dir, seed offset) -> (argv per command of one pass, with "{out}"
    # standing for the pass's output directory; bytes of the input config)
    prepare: Callable[[Path, int], tuple[list[list[str]], bytes]]
    # (output dir, parsed stdout summaries) -> output rows
    rows: Callable[[Path, list[dict]], list[dict]]
    invariants: Callable[[list[dict]], list[str]]
    # (row index, column) whose corruption the checks must catch
    corrupt_at: tuple[int, str]
    # the host-speed probe kernel (probe.KERNELS) that times its passes
    probe: str


def _bench_prepare(experiment: str, config: dict, seeds_per_pass: int):
    def prepare(work: Path, offset: int):
        blob = dict(config, seeds=[offset + i for i in range(seeds_per_pass)])
        text = json.dumps(blob, sort_keys=True).encode()
        path = work / f"{experiment}-config.json"
        path.write_bytes(text)
        argv = ["bench", experiment, "--config", str(path), "--out-dir", "{out}",
                "--jobs", "1"]
        return [argv], text

    return prepare


def _bench_rows(experiment: str):
    def rows(out: Path, summaries: list[dict]) -> list[dict]:
        return json.loads((out / f"{experiment}.json").read_text())

    return rows


def _in_unit(row: dict, keys) -> list[str]:
    return [f"{k}={row[k]!r} outside [0, 1]" for k in keys if not 0.0 <= row[k] <= 1.0]


def _sweep_invariants(rows: list[dict]) -> list[str]:
    problems = []
    cells = sorted((r["policy"], r["budget_per_head"]) for r in rows)
    expected = sorted((p, b) for p in POLICIES for b in SWEEP_CONFIG["budgets_per_head"])
    if cells != expected:
        problems.append(f"cells {cells} != {expected}")
    for r in rows:
        problems += _in_unit(r, ("mean_recall", "recovery_precision", "recovery_recall"))
        if r["total_budget"] != r["budget_per_head"] * SWEEP_KV:
            problems.append(f"total_budget {r['total_budget']} != per-head x kv heads")
        # peak slots = kept prompt slots + one slot per generated token per kv head
        kept = r["peak_slots"] - SWEEP_CONFIG["out_len"] * SWEEP_KV
        if not 0 < kept <= r["total_budget"]:
            problems.append(f"kept prompt slots {kept} outside (0, {r['total_budget']}]")
        if r["slot_touches"] <= 0:
            problems.append("no slot touches")
    return problems


def _mask_invariants(rows: list[dict]) -> list[str]:
    problems = []
    if len(rows) != 2 * 2 * len(MASK_CONFIG["mask_fractions"]):
        problems.append(f"{len(rows)} rows")
    for r in rows:
        problems += _in_unit(r, ("recovery_recall", "grounding_mass", "decode_recall"))
        if r["n_masked"] != round(r["fraction"] * MASK_HEADS):
            problems.append(f"n_masked {r['n_masked']} for fraction {r['fraction']}")
        if r["n_masked"] == 0 and any(
            r[k] != 0.0
            for k in ("recovery_degradation", "grounding_degradation", "decode_degradation")
        ):
            problems.append("unmasked row shows a degradation")
    return problems


def _flow_prepare(work: Path, offset: int):
    model = FLOW_MODEL + ["--seed", str(offset)]
    commands = [
        ["corpus", *model, "--samples", str(FLOW_SAMPLES), "--out-dir", "{out}/corpus"],
        ["chase", "--corpus", "{out}/corpus", "--out", "{out}/scores.json"],
        ["allocate", "--scores", "{out}/scores.json", "--budget", str(FLOW_BUDGET),
         "--window", str(FLOW_WINDOW), "--policy", "sparsemm", "--out", "{out}/plan.json"],
        ["prefill", *model, "--prompt-len", str(FLOW_PROMPT), "--out-len", "16",
         "--window", str(FLOW_WINDOW), "--out", "{out}/trace.json"],
        ["compress", "--trace", "{out}/trace.json", "--plan", "{out}/plan.json",
         "--out-json", "{out}/report.json", "--out-csv", "{out}/report.csv"],
    ]
    return commands, json.dumps(commands).encode()


def _flow_rows(out: Path, summaries: list[dict]) -> list[dict]:
    rows = [{k: v for k, v in s.items() if k not in FLOW_PATH_KEYS} for s in summaries]
    with open(out / "report.csv", newline="") as fh:
        for head in csv.DictReader(fh):
            rows.append({k: int(v) if k in FLOW_INT_COLUMNS else v for k, v in head.items()})
    return rows


def _flow_invariants(rows: list[dict]) -> list[str]:
    problems = []
    steps = {r["command"]: r for r in rows if "command" in r}
    heads = [r for r in rows if "command" not in r]
    if sorted(steps) != sorted(["corpus", "chase", "allocate", "prefill", "compress"]):
        return [f"steps {sorted(steps)}"]
    if steps["corpus"]["samples"] != FLOW_SAMPLES:
        problems.append(f"{steps['corpus']['samples']} corpus samples")
    if steps["chase"]["corpus_tokens"] <= 0:
        problems.append("no scored corpus tokens")
    if steps["allocate"]["total_budget"] != FLOW_BUDGET:
        problems.append(f"plan budget {steps['allocate']['total_budget']}")
    if steps["allocate"]["min_budget"] < FLOW_WINDOW:
        problems.append("a head is below the window floor")
    if len(heads) != 64 or sum(h["budget"] for h in heads) != FLOW_BUDGET:
        problems.append(f"report budgets do not sum to {FLOW_BUDGET}")
    for h in heads:
        if h["kept_count"] != min(h["budget"], FLOW_PROMPT):
            problems.append(f"head ({h['layer']},{h['kv_head']}) keeps {h['kept_count']}"
                            f" under budget {h['budget']}")
    if steps["compress"]["total_kept"] != sum(h["kept_count"] for h in heads):
        problems.append("compress total_kept disagrees with the report")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-long-gqa", _bench_prepare("sweep", SWEEP_CONFIG, 1),
                 _bench_rows("sweep"), _sweep_invariants, (0, "mean_recall"), "mixed"),
        Workload("mask-default", _bench_prepare("mask", MASK_CONFIG, 2),
                 _bench_rows("mask"), _mask_invariants, (0, "decode_recall"), "mixed"),
        Workload("cli-flow", _flow_prepare, _flow_rows, _flow_invariants,
                 (5, "kept_count"), "json"),
    )
}


def compare(rows: list[dict], reference: list[dict]) -> list[str]:
    """Differences from the reference rows, under the stated tolerance."""
    if len(rows) != len(reference):
        return [f"{len(rows)} rows, reference has {len(reference)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, reference)):
        if row.keys() != ref.keys():
            problems.append(f"row {i} columns {sorted(row)} != {sorted(ref)}")
            continue
        for key, want in ref.items():
            got = row[key]
            if isinstance(want, float) and not isinstance(got, bool):
                ok = isinstance(got, (int, float)) and abs(got - want) <= FLOAT_TOL * max(1.0, abs(want))
            else:
                ok = type(got) is type(want) and got == want
            if not ok:
                problems.append(f"row {i} {key}={got!r}, reference {want!r}")
    return problems


def check(workload: Workload, rows: list[dict], reference: list[dict] | None) -> list[str]:
    problems = workload.invariants(rows)
    if reference is not None:
        problems += compare(rows, reference)
    return problems


def corrupted(workload: Workload, rows: list[dict]) -> list[dict]:
    """A copy of `rows` with one value pushed outside what any seed produces."""
    index, key = workload.corrupt_at
    bad = [dict(r) for r in rows]
    value = bad[index][key]
    bad[index][key] = value + 1 if isinstance(value, int) else 1.5
    return bad
