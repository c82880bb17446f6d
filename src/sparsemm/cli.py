"""Command-line front end for the pipeline.

Subcommands cover the full artifact flow: `corpus` and `prefill` generate
synthetic inputs (`prefill` keeps window scores, not rows, in a `.npy` beside
its record), `chase` turns a corpus into a score file, `allocate` turns
scores into a budget plan, `compress` applies a plan to a prefill trace, and
`bench sweep|rho|mask|cost` runs the packaged experiments from a JSON config.

Every command prints one JSON summary line on success. Usage errors and
contract violations, an output path that cannot be written included, exit 2
with a structured {"error", "message"} object on stderr; every output path is
checked before the command reads an input or does any work. Files are read
and written only through `artifacts`. `bench` is imported by `cmd_bench`
alone, so the other commands do not load it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .artifacts import (
    Count, Field, String, check_writable, make_dir, read_array, read_object, write_array,
    write_json,
)
from .allocator import (
    AllocationConfig,
    DEFAULT_RHO,
    DEFAULT_WINDOW,
    POLICY_NAMES,
    allocate,
    save_plan,
    load_plan,
)
from .cache import compress_prefill, report_to_csv, report_to_json
from .chaser import (
    aggregate_gqa_scores,
    chase_corpus,
    load_scores,
    save_scores,
)
from .corpusfile import load_corpus, save_corpus
from .errors import InvalidInputError, ShapeError, SparseMMError
from .simmodel import ModelGeometry, PlantedHeadSet, build_synthetic_model, generate_ocr_samples

__all__ = ["build_parser", "main"]


def _parse_planted(text: str) -> list[tuple[int, int]]:
    """Parse 'l,h;l,h;...' into (layer, head) pairs."""
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            layer, head = (int(part) for part in chunk.split(","))
        except ValueError as exc:  # not two parts, or a part that is not an integer
            raise InvalidInputError(f"bad planted pair {chunk!r}; expected 'layer,head'") from exc
        pairs.append((layer, head))
    if not pairs:
        raise InvalidInputError("planted spec is empty")
    return pairs


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--layers", type=int, required=True)
    parser.add_argument("--query-heads", type=int, required=True)
    parser.add_argument("--kv-heads", type=int, default=None,
                        help="defaults to --query-heads (multi-head attention)")
    parser.add_argument("--planted", required=True,
                        help="semicolon-separated layer,head pairs, e.g. '0,1;3,4'")
    parser.add_argument("--strength", type=float, default=0.8)
    parser.add_argument("--seed", type=int, default=0)


def _build_model(args: argparse.Namespace):
    if not 0 <= args.seed < 2**32:
        raise InvalidInputError(f"--seed {args.seed} must lie in [0, {2**32 - 1}]")
    geometry = ModelGeometry(
        args.layers,
        args.query_heads,
        args.kv_heads if args.kv_heads is not None else args.query_heads,
    )
    planted = PlantedHeadSet.uniform(_parse_planted(args.planted), args.strength)
    return build_synthetic_model(geometry, planted, args.seed)


def cmd_corpus(args: argparse.Namespace) -> dict:
    check_writable(args.out_dir, directory=True)
    if args.samples < 1:
        raise InvalidInputError(f"--samples {args.samples} must be at least 1")
    model = _build_model(args)
    samples = generate_ocr_samples(model, args.samples, args.seed)
    return {
        "command": "corpus",
        "out_dir": str(Path(args.out_dir)),
        "samples": len(samples),
        "digest": save_corpus(args.out_dir, samples),
    }


def cmd_chase(args: argparse.Namespace) -> dict:
    check_writable(args.out)
    if args.group < 1:
        raise InvalidInputError(f"--group {args.group} must be at least 1")
    samples = load_corpus(args.corpus)
    scores, skipped = chase_corpus(samples)
    scores = aggregate_gqa_scores(scores, args.group)
    digest = save_scores(args.out, scores)
    return {
        "command": "chase",
        "out": str(args.out),
        "layers": scores.layers,
        "heads": scores.heads,
        "corpus_tokens": scores.corpus_tokens,
        "tokens_skipped": skipped,
        "hash": digest,
    }


def cmd_allocate(args: argparse.Namespace) -> dict:
    check_writable(args.out)
    for flag, lo in (("budget", 1), ("window", 0), ("seed", 0)):
        if getattr(args, flag) < lo:
            raise InvalidInputError(f"--{flag} {getattr(args, flag)} must be at least {lo}")
    if not 0 <= args.rho <= 1:
        raise InvalidInputError(f"--rho {args.rho} must lie in [0, 1]")
    scores = None
    layers, heads = args.layers, args.heads
    if args.scores:
        scores = load_scores(args.scores)
        for flag, given, stored in (("layers", layers, scores.layers), ("heads", heads, scores.heads)):
            if given not in (None, stored):
                raise InvalidInputError(f"--{flag} {given} disagrees with {stored} in {args.scores}")
        layers, heads = scores.layers, scores.heads
    if layers is None or heads is None:
        raise InvalidInputError(
            "give --scores, or both --layers and --heads for score-free policies"
        )
    config = AllocationConfig(args.budget, args.window, args.rho)
    plan = allocate(args.policy, config, layers, heads, scores=scores, seed=args.seed)
    save_plan(args.out, plan)
    return {
        "command": "allocate",
        "out": str(args.out),
        "policy": plan.allocator,
        "total_budget": plan.total_budget,
        "min_budget": int(plan.budgets.min()),
        "max_budget": int(plan.budgets.max()),
    }


def cmd_prefill(args: argparse.Namespace) -> dict:
    out = Path(args.out)
    if not out.name or out.suffix == ".npy":
        raise InvalidInputError(f"--out {args.out!r} must name a trace file beside its .npy payload")
    check_writable(out.with_suffix(".npy"))
    check_writable(args.out)
    model = _build_model(args)
    geo = model.geometry
    if args.prompt_len < 1 or args.out_len < 1:
        raise InvalidInputError("--prompt-len and --out-len must be at least 1")
    if args.prompt_len < args.window:
        # the whole prompt sits inside the window: there is no key to score,
        # and compress keeps every position
        window_scores = np.zeros((geo.layers, geo.kv_heads, 0))
    else:
        window_scores = model.decode_workload(
            args.prompt_len, args.out_len, args.window
        ).window_scores
    write_json(args.out, {
        "layers": geo.layers,
        "query_heads": geo.query_heads,
        "kv_heads": geo.kv_heads,
        "prompt_len": args.prompt_len,
        "window": args.window,
        "sha256": write_array(out.with_suffix(".npy"), window_scores),
    })
    return {
        "command": "prefill",
        "out": str(args.out),
        "prompt_len": args.prompt_len,
        "window": args.window,
    }


# the trace record's fields, as `cmd_prefill` writes them
TRACE_FIELDS = (
    Field("layers", Count(1)),
    Field("query_heads", Count(1)),
    Field("kv_heads", Count(1)),
    Field("prompt_len", Count()),
    Field("window", Count()),
    Field("sha256", String()),
)


def _load_trace(path) -> tuple[np.ndarray, int, int]:
    """(window_scores, prompt_len, window) from a `prefill` trace and its `.npy` payload.

    The record's fields are checked against TRACE_FIELDS; the scores must be
    (layers, kv_heads, max(prompt_len - window, 0)) and kv_heads must divide
    query_heads.
    """
    blob = read_object(
        path, "trace", TRACE_FIELDS, old_format=(("window_scores", "window_attention"), "prefill")
    )
    layers, query_heads, kv_heads, prompt_len, window, sha256 = (blob[f.name] for f in TRACE_FIELDS)
    if query_heads % kv_heads:
        where = f"trace {path}"
        raise ShapeError(f"{where}: {query_heads} query heads not divisible by {kv_heads} kv heads")
    shape = (layers, kv_heads, max(prompt_len - window, 0))
    scores = read_array(Path(path).with_suffix(".npy"), sha256, shape, "trace payload")
    return scores, prompt_len, window


def cmd_compress(args: argparse.Namespace) -> dict:
    for out in (args.out_json, args.out_csv):
        if out:
            check_writable(out)
    scores, prompt_len, window = _load_trace(args.trace)
    plan = load_plan(args.plan)
    kept, report = compress_prefill(scores, plan, window, prompt_len)
    if args.out_json:
        report_to_json(report, args.out_json)
    if args.out_csv:
        report_to_csv(report, args.out_csv)
    return {
        "command": "compress",
        "prompt_len": report.prompt_len,
        "total_kept": report.total_kept,
        "total_slots_full": kept.size,
        "scoring_skipped": report.scoring_skipped,
    }


def cmd_bench(args: argparse.Namespace) -> dict:
    from . import bench

    check_writable(args.out_dir, directory=True)
    cfg = bench.load_config(args.config)
    if args.seed:
        try:
            cfg = replace(cfg, seeds=tuple(s + args.seed for s in cfg.seeds))
        except InvalidInputError as exc:
            raise InvalidInputError(f"--seed {args.seed}: {exc}") from exc
    if args.jobs < 1:
        raise InvalidInputError(f"--jobs {args.jobs} must be at least 1")
    out_dir = Path(args.out_dir)
    make_dir(out_dir)
    if args.experiment == "sweep":
        rows = bench.run_budget_sweep(cfg, jobs=args.jobs)
    elif args.experiment == "rho":
        rows = bench.run_rho_sweep(cfg, jobs=args.jobs)
    elif args.experiment == "mask":
        rows = bench.run_masking_study(cfg, jobs=args.jobs)
    else:
        rows = bench.run_cost_model(cfg)
    csv_path = out_dir / f"{args.experiment}.csv"
    json_path = out_dir / f"{args.experiment}.json"
    bench.write_rows_csv(csv_path, rows)
    bench.write_rows_json(json_path, rows)
    return {
        "command": f"bench {args.experiment}",
        "rows": len(rows),
        "csv": str(csv_path),
        "json": str(json_path),
    }


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise InvalidInputError, so `main` reports them as JSON."""

    def error(self, message):
        raise InvalidInputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sparsemm",
        description="Visual-head scoring, per-head KV budgets, and cache eviction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corpus", help="generate a synthetic OCR corpus directory")
    _add_model_args(p)
    p.add_argument("--samples", type=int, default=40)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("chase", help="score visual heads over a corpus directory")
    p.add_argument("--corpus", required=True)
    p.add_argument("--group", type=int, default=1,
                   help="query heads per kv head (at least 1); >1 sums scores onto kv heads")
    p.add_argument("--out", required=True)

    p = sub.add_parser("allocate", help="turn a score file into a budget plan")
    p.add_argument("--scores", default=None)
    p.add_argument("--layers", type=int, default=None)
    p.add_argument("--heads", type=int, default=None)
    p.add_argument("--budget", type=int, required=True, help="global budget B")
    p.add_argument("--rho", type=float, default=DEFAULT_RHO)
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    p.add_argument("--policy", choices=POLICY_NAMES, default="sparsemm")
    p.add_argument("--seed", type=int, default=0, help="seed for the random policy")
    p.add_argument("--out", required=True)

    p = sub.add_parser("prefill", help="generate a prefill trace of per-kv-head window scores")
    _add_model_args(p)
    p.add_argument("--prompt-len", type=int, required=True)
    p.add_argument("--out-len", type=int, default=16)
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    p.add_argument("--out", required=True)

    p = sub.add_parser("compress", help="apply a plan to a prefill trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--out-json", default=None)
    p.add_argument("--out-csv", default=None)

    p = sub.add_parser("bench", help="run a packaged experiment from a config file")
    p.add_argument("experiment", choices=("sweep", "rho", "mask", "cost"))
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0,
                   help="offset added to every configured seed")

    return parser


# main's parser, built on first use: building one takes about a millisecond
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        # by name on each call, so a command replaced after the parser was built is the one run
        summary = globals()[f"cmd_{args.command}"](args)
    except SparseMMError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    json.dump(summary, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
