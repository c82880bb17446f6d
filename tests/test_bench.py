"""Tests for the experiment harness and the CLI wiring."""

import argparse
import ast
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsemm import bench, chaser, cli, simmodel
from sparsemm.bench import (
    ExperimentConfig,
    load_config,
    recovery_stats,
    run_budget_sweep,
    run_cost_model,
    run_masking_study,
    run_rho_sweep,
    top_scored_heads,
    write_rows_csv,
    write_rows_json,
)
from sparsemm.cache import replay_plans
from sparsemm.chaser import (
    HeadScoreMatrix,
    chase_corpus,
    load_scores,
    save_scores,
    score_sample,
    token_positions,
)
from sparsemm.cli import main
from sparsemm.errors import InvalidInputError, ShapeError, SparseMMError
from sparsemm.simmodel import (
    TEXT_TOKEN,
    ModelGeometry,
    PlantedHeadSet,
    build_synthetic_model,
    generate_ocr_samples,
)
from sparsemm.allocator import AllocationConfig, allocate_uniform, load_plan
from sparsemm.corpusfile import load_corpus, save_corpus

import mask_oracle
from corpus_oracle import corpus_digest
from masked_model import masked_corpus
from replay_oracle import replay_plan


def small_config(**overrides):
    base = dict(
        layers=4,
        query_heads=4,
        kv_heads=4,
        planted_pairs=((0, 1), (2, 3)),
        planted_strength=0.8,
        corpus_size=8,
        budgets_per_head=(48, 64),
        rhos=(0.0, 0.1, 1.0),
        policies=("sparsemm", "uniform", "random"),
        mask_fractions=(0.0, 0.1),
        seeds=(0, 1),
        prompt_len=200,
        out_len=4,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def planted_config(**overrides):
    base = dict(
        layers=8,
        query_heads=8,
        kv_heads=8,
        planted_pairs=((0, 1), (3, 4), (6, 2)),
        planted_strength=0.8,
        corpus_size=20,
        budgets_per_head=(48, 64, 128),
        policies=("sparsemm", "uniform", "pyramid", "random", "ada"),
        rhos=(0.0, 0.1, 1.0),
        mask_fractions=(0.0, 0.05, 0.10),
        seeds=(0, 1, 2),
        prompt_len=384,
        out_len=8,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_budget_below_window_rejected(self):
        with pytest.raises(InvalidInputError):
            small_config(budgets_per_head=(16,))
        # with no window, the counts' own floors still hold
        with pytest.raises(InvalidInputError,
                           match=r"^config: budgets_per_head\[0\] must be positive counts$"):
            small_config(window=0, budgets_per_head=(0,))
        with pytest.raises(InvalidInputError, match="^config: prompt_len must be positive counts$"):
            small_config(window=0, prompt_len=0)

    def test_unknown_policy_rejected(self):
        with pytest.raises(InvalidInputError):
            small_config(policies=("sparsemm", "magic"))

    def test_planted_specs_mutually_exclusive(self):
        with pytest.raises(InvalidInputError):
            small_config(planted_fraction=0.05)
        with pytest.raises(InvalidInputError):
            small_config(planted_pairs=None, planted_fraction=None)

    def test_fraction_planting_is_per_seed_and_sized(self):
        cfg = small_config(planted_pairs=None, planted_fraction=0.25)
        a = cfg.planted_for_seed(3)
        b = cfg.planted_for_seed(3)
        assert a.heads == b.heads
        assert len(a) == round(0.25 * 16)
        assert cfg.planted_for_seed(4).heads != a.heads

    @pytest.mark.parametrize("field, value, message", [
        pytest.param("seeds", (1, 0, 1), "seeds repeats an entry", id="seeds-value0"),
        pytest.param("budgets_per_head", (48, 64, 48), "budgets_per_head repeats an entry",
                     id="budgets_per_head-value1"),
        pytest.param("policies", ("uniform", "sparsemm", "uniform"), "policies repeats an entry",
                     id="policies-value2"),
        pytest.param("rhos", (0.1, 0.10), "rhos repeats an entry", id="rhos-value3"),
        pytest.param("mask_fractions", (0.0, 0.0), "mask_fractions repeats an entry",
                     id="mask_fractions-value4"),
        # counts below their minimum, each named by its config key
        pytest.param("corpus_size", 0, "config: corpus_size must be positive counts",
                     id="corpus_size-0-must be at least 1"),
        pytest.param("out_len", 0, "config: out_len must be positive counts",
                     id="out_len-0-must be at least 1"),
        pytest.param("window", -1, "config: window must be counts",
                     id="window--1-must be at least 0"),
        pytest.param("cost_out_len", 0, "config: cost_out_len must be positive counts",
                     id="cost_out_len-0-must be at least 1"),
        pytest.param("cost_budget_per_head", 0, "config: cost_budget_per_head must be positive counts",
                     id="cost_budget_per_head-0-must be at least 1"),
        pytest.param("cost_lengths", (2048, 0), "config: cost_lengths[1] must be positive counts",
                     id="cost_lengths-value10-must be at least 1"),
    ])
    def test_repeated_entries_rejected(self, field, value, message):
        """A repeated list entry, or a count below its minimum, fails when the config is built."""
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            small_config(**{field: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidInputError,
                           match=r"^config: seeds\[1\] must lie in \[0, 4294967295\]$"):
            small_config(seeds=(0, -1))

    @pytest.mark.parametrize("name, key, value", [
        ("corpus_size", "corpus_size", 0),
        ("layers", "geometry.layers", 0),
        ("rho", "rho", 1.5),
        ("planted_fraction", "planted.fraction", -0.1),
        ("policies", "policies", ["sparsemm", "magic"]),
        ("seeds", "seeds", [0, 2**32]),
    ])
    def test_code_and_file_share_one_wording(self, tmp_path, name, key, value):
        """A value outside its range reads the same built in code as loaded from a file.

        The error names the field by its key in a config file, and names the file once.
        """
        section, _, leaf = key.rpartition(".")
        blob = {section: {leaf: value}} if section else {key: value}
        code = {name: tuple(value) if isinstance(value, list) else value}
        if section == "geometry":
            blob[section]["query_heads"] = 8  # a geometry section needs both
        if section == "planted":
            code["planted_pairs"] = None  # the file's section holds only the fraction
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(blob))
        with pytest.raises(InvalidInputError) as built:
            ExperimentConfig(**code)
        with pytest.raises(InvalidInputError) as loaded:
            load_config(path)
        tail = str(built.value).removeprefix("config: ")
        assert tail.startswith(key) and str(built.value) == f"config: {tail}"
        assert str(loaded.value) == f"config {path}: {tail}"

    def test_largest_model_seed_accepted_by_both_routes(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seeds": [2**32 - 1]}))
        assert ExperimentConfig(seeds=(2**32 - 1,)).seeds == load_config(path).seeds == (2**32 - 1,)

    def test_load_config_round_trip(self, tmp_path):
        blob = {
            "geometry": {"layers": 4, "query_heads": 4},
            "planted": {"pairs": [[0, 1], [2, 3]], "strength": 0.7},
            "corpus_size": 5,
            "budgets_per_head": [48],
            "seeds": [0, 1],
            "prompt_len": 128,
            "out_len": 4,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(blob))
        cfg = load_config(path)
        assert cfg.layers == 4 and cfg.kv_heads == 4
        assert cfg.planted_pairs == ((0, 1), (2, 3))
        assert cfg.planted_strength == 0.7
        assert cfg.budgets_per_head == (48,)

    def test_load_config_fraction_form(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"planted": {"fraction": 0.05, "strength": 0.8}}))
        cfg = load_config(path)
        assert cfg.planted_pairs is None
        assert cfg.planted_fraction == 0.05

    def test_load_config_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        for blob, key in [
            ({"budget": 64}, "budget"),
            ({"query_heads": 2}, "query_heads"),
            # a second spelling of a section's field is not a silent override
            ({"planted": {"pairs": [[0, 1]], "strength": 0.8}, "planted_strength": 0.3},
             "planted_strength"),
            ({"planted": {"pairs": [[0, 1]]}, "planted_fraction": 0.5, "planted_pairs": None},
             "planted_fraction"),
        ]:
            path.write_text(json.dumps(blob))
            with pytest.raises(InvalidInputError, match=f"unknown config key {key!r}"):
                load_config(path)


class TestRecoveryHelpers:
    def test_top_scored_heads_stable_order(self):
        scores = HeadScoreMatrix(np.array([[0.1, 0.9], [0.9, 0.3]]))
        assert top_scored_heads(scores, 2) == [(0, 1), (1, 0)]

    def test_recovery_stats(self):
        scores = HeadScoreMatrix(np.array([[0.1, 0.9], [0.8, 0.3]]))
        planted = PlantedHeadSet.uniform([(0, 1), (1, 1)], 0.5)
        precision, recall = recovery_stats(scores, planted)
        assert precision == 0.5 and recall == 0.5


class TestBudgetSweep:
    def test_cardinality_three_by_three_by_five(self):
        cfg = small_config(
            budgets_per_head=(64, 128, 256),
            policies=("sparsemm", "uniform", "random"),
            seeds=(0, 1, 2, 3, 4),
            corpus_size=4,
            out_len=3,
        )
        assert len(run_budget_sweep(cfg)) == 45

    def test_rows_follow_policy_budget_seed_order(self):
        cfg = small_config(budgets_per_head=(64, 48), seeds=(1, 0), corpus_size=3, out_len=2)
        assert [(r.policy, r.budget_per_head, r.seed) for r in run_budget_sweep(cfg)] == [
            (p, b, s) for p in cfg.policies for b in cfg.budgets_per_head for s in cfg.seeds
        ]

    def test_deterministic_and_parallel_identical(self, tmp_path):
        cfg = small_config()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rows_csv(a, run_budget_sweep(cfg))
        write_rows_csv(b, run_budget_sweep(cfg, jobs=2))
        assert a.read_bytes() == b.read_bytes()

    def test_planted_model_ordering_and_monotonicity(self):
        cfg = planted_config()
        rows = run_budget_sweep(cfg)
        recall = {(r.policy, r.budget_per_head, r.seed): r.mean_recall for r in rows}
        for budget in cfg.budgets_per_head:
            for seed in cfg.seeds:
                assert recall[("sparsemm", budget, seed)] >= recall[("random", budget, seed)]
            sp = np.mean([recall[("sparsemm", budget, s)] for s in cfg.seeds])
            un = np.mean([recall[("uniform", budget, s)] for s in cfg.seeds])
            assert sp >= un
        for policy in cfg.policies:
            lo = np.mean([recall[(policy, 48, s)] for s in cfg.seeds])
            hi = np.mean([recall[(policy, 128, s)] for s in cfg.seeds])
            assert lo <= hi

    def test_rows_carry_budget_invariants(self):
        cfg = small_config()
        n = cfg.layers * cfg.kv_heads
        for row in run_budget_sweep(cfg):
            assert 0.0 <= row.mean_recall <= 1.0
            assert row.total_budget == row.budget_per_head * n
            assert row.peak_slots <= row.total_budget + cfg.out_len * n


class TestRhoSweep:
    def test_rho_one_matches_uniform_row(self):
        rows = run_rho_sweep(small_config())
        uniform = {r.seed: r.mean_recall for r in rows if r.policy == "uniform"}
        endpoint = {
            r.seed: r.mean_recall
            for r in rows
            if r.policy == "sparsemm" and r.rho == 1.0
        }
        assert uniform.keys() == endpoint.keys()
        for seed, value in uniform.items():
            assert endpoint[seed] == value

    def test_rows_follow_rho_then_uniform_order(self):
        cfg = small_config(rhos=(0.5, 0.0, 1.0), seeds=(1, 0), corpus_size=3, out_len=2)
        assert [(r.policy, r.rho, r.seed) for r in run_rho_sweep(cfg)] == [
            ("sparsemm", rho, s) for rho in cfg.rhos for s in cfg.seeds
        ] + [("uniform", 1.0, s) for s in cfg.seeds]

    def test_rho_zero_not_better_than_default(self):
        rows = run_rho_sweep(planted_config())
        mean = lambda rho: np.mean(
            [r.mean_recall for r in rows if r.policy == "sparsemm" and r.rho == rho]
        )
        assert mean(0.0) <= mean(0.1)

    def test_all_rows_conserve_budget(self):
        cfg = small_config()
        n = cfg.layers * cfg.kv_heads
        for row in run_rho_sweep(cfg):
            assert row.total_budget == row.budget_per_head * n
            assert row.peak_slots == row.total_budget + cfg.out_len * n


class TestMaskingStudy:
    def test_zero_fraction_is_identity(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = run_masking_study(planted_config(seeds=(0, 1)))
        for row in rows:
            if row.fraction == 0.0:
                assert row.n_masked == 0
                assert row.recovery_degradation == 0.0
                assert row.grounding_degradation == 0.0
                assert row.decode_degradation == 0.0

    def test_rows_follow_fraction_mode_seed_order(self):
        cfg = small_config(mask_fractions=(0.1, 0.0), seeds=(1, 0), corpus_size=3, out_len=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = run_masking_study(cfg)
        assert [(r.fraction, r.mode, r.seed) for r in rows] == [
            (f, m, s) for f in cfg.mask_fractions for m in ("random", "top") for s in cfg.seeds
        ]

    def test_parallel_rows_equal_serial(self):
        cfg = small_config(kv_heads=2, mask_fractions=(0.0, 0.1, 0.25), seeds=(0, 1, 2),
                           corpus_size=3, out_len=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run_masking_study(cfg, jobs=2) == run_masking_study(cfg, jobs=1)

    def test_top_masking_hurts_more_than_random(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = run_masking_study(planted_config())
        cells = {(r.seed, r.fraction, r.mode): r for r in rows}
        for seed in (0, 1, 2):
            top = cells[(seed, 0.05, "top")]
            rand = cells[(seed, 0.05, "random")]
            assert top.recovery_degradation > rand.recovery_degradation
            assert top.grounding_degradation > rand.grounding_degradation

    def test_first_five_percent_carry_the_damage(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = run_masking_study(planted_config())
        cells = {(r.seed, r.fraction, r.mode): r for r in rows}
        for seed in (0, 1, 2):
            first = cells[(seed, 0.05, "top")].grounding_degradation
            incremental = cells[(seed, 0.10, "top")].grounding_degradation - first
            assert first > incremental


@st.composite
def mask_configs(draw):
    """Small study configs: MHA and GQA geometries, pinned or per-seed planted heads."""
    layers, query_heads, kv_heads = draw(st.sampled_from([(2, 4, 4), (2, 4, 2), (3, 4, 1), (2, 8, 2)]))
    heads = [(l, h) for l in range(layers) for h in range(query_heads)]
    if draw(st.booleans()):
        planted = dict(planted_pairs=tuple(draw(st.lists(st.sampled_from(heads), min_size=1,
                                                         max_size=3, unique=True))))
    else:
        planted = dict(planted_pairs=None, planted_fraction=draw(st.sampled_from([0.1, 0.25, 0.5])))
    fractions = draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5]), max_size=2, unique=True))
    return ExperimentConfig(
        layers=layers, query_heads=query_heads, kv_heads=kv_heads, **planted,
        planted_strength=draw(st.sampled_from([0.5, 0.8, 1.0])),
        corpus_size=draw(st.integers(1, 3)),
        budgets_per_head=(16,), window=8, prompt_len=48, out_len=2,
        rho=draw(st.sampled_from([0.0, 0.1, 1.0])),
        mask_fractions=tuple(draw(st.permutations([*fractions, 1.0]))),
        seeds=tuple(draw(st.lists(st.integers(0, 50), min_size=1, max_size=2, unique=True))),
    )


class TestMaskDerivation:
    """The masking study derives every masked cell from one corpus and one chase per seed."""

    @settings(max_examples=25, deadline=None)
    @given(cfg=mask_configs())
    def test_rows_equal_regenerate_per_cell_oracle(self, cfg):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            derived = run_masking_study(cfg)
            reference = mask_oracle.run_masking_study(cfg)
        assert derived == reference

    def test_default_config_rows_equal_oracle(self):
        cfg = ExperimentConfig(seeds=(0,))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run_masking_study(cfg) == mask_oracle.run_masking_study(cfg)

    @pytest.mark.parametrize("fractions", [(0.0,), (0.1,), (0.0, 0.1, 0.25, 0.5, 1.0)])
    def test_one_corpus_and_one_chase_per_seed(self, monkeypatch, fractions):
        corpora = []
        scored = []
        mapped = []

        def generate(model, n, seed):
            corpora.append(seed)
            return generate_ocr_samples(model, n, seed)

        def score(sample, trace):
            scored.append(sample)
            return score_sample(sample, trace)

        def positions(sample, out_len):
            mapped.append(sample)
            return token_positions(sample, out_len)

        drawn = []
        sample_ocr = simmodel.SyntheticModel.sample_ocr

        def draw(model, rng):
            drawn.append(model.seed)
            return sample_ocr(model, rng)

        monkeypatch.setattr(simmodel.SyntheticModel, "sample_ocr", draw)
        monkeypatch.setattr(bench, "generate_ocr_samples", generate)
        monkeypatch.setattr(bench, "score_sample", score)
        monkeypatch.setattr(chaser, "token_positions", positions)
        # and any copy of the name that bench imports to map a second time
        monkeypatch.setattr(bench, "token_positions", positions, raising=False)
        cfg = small_config(mask_fractions=fractions, corpus_size=3, out_len=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = run_masking_study(cfg)
        assert len(rows) == 2 * len(fractions) * len(cfg.seeds)
        assert corpora == list(cfg.seeds)
        # the corpus is lazy: each sample is drawn once, as it is scored
        assert drawn == [seed for seed in cfg.seeds for _ in range(cfg.corpus_size)]
        assert len(scored) == cfg.corpus_size * len(cfg.seeds)
        assert mapped == scored  # one bbox-to-position pass per sample

    def test_one_workload_and_one_step_stream_per_seed(self, monkeypatch):
        """Every cell's decode rows come from the seed's one window pass and one step pass."""
        cfg = small_config(kv_heads=2, mask_fractions=(0.0, 0.1, 0.25), corpus_size=3, out_len=3)
        corpus_steps = {
            seed: sum(trace.out_len for _, trace in generate_ocr_samples(
                build_synthetic_model(cfg.geometry, cfg.planted_for_seed(seed), seed),
                cfg.corpus_size, seed))
            for seed in cfg.seeds
        }
        workloads, blocks = [], []
        decode_workload = simmodel.SyntheticModel.decode_workload
        fill = simmodel._fill

        def workload(model, *args, **kwargs):
            workloads.append(model.seed)
            return decode_workload(model, *args, **kwargs)

        def block(rng, rows, t, draw_edit=None):
            if draw_edit is not None:
                blocks.append(None)
            return fill(rng, rows, t, draw_edit)

        monkeypatch.setattr(simmodel.SyntheticModel, "decode_workload", workload)
        # every step is filled by `_fill`, which draws its edit after the step's last rows
        monkeypatch.setattr(simmodel, "_fill", block)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for seed in cfg.seeds:
                blocks.clear()
                bench._mask_seed_rows(cfg, seed)
                assert len(blocks) == corpus_steps[seed] + cfg.window + cfg.out_len
        assert workloads == list(cfg.seeds)

    def test_mask_seed_draws_each_step_once(self, monkeypatch):
        """One seed draws each corpus step, window row and decode step once, in that order.

        A drawn trace draws its steps when read, so reading a sample's steps
        twice (to score them, then for their grounding terms) would draw them
        twice.
        """
        cfg = small_config(kv_heads=2, mask_fractions=(0.0, 0.1, 0.25), corpus_size=3, out_len=3)
        seed = cfg.seeds[0]
        model = build_synthetic_model(cfg.geometry, cfg.planted_for_seed(seed), seed)
        want = [sample.prompt_len + t for sample, trace in
                generate_ocr_samples(model, cfg.corpus_size, seed) for t in range(trace.out_len)]
        want += range(cfg.prompt_len - cfg.window + 1, cfg.prompt_len + 1)
        want += range(cfg.prompt_len, cfg.prompt_len + cfg.out_len)
        visible = []
        fill = simmodel._fill

        def counted(rng, rows, t, draw_edit=None):
            if draw_edit is not None:
                visible.append(rows.shape[1])
            return fill(rng, rows, t, draw_edit)

        # every step is filled by `_fill`, which draws its edit after the step's last rows
        monkeypatch.setattr(simmodel, "_fill", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bench._mask_seed_rows(cfg, seed)
        assert visible == want

    def test_bench_imports_no_private_chaser_name(self):
        tree = ast.parse(open(bench.__file__, encoding="utf-8").read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in ("chaser", "sparsemm.chaser"):
                assert not [a.name for a in node.names if a.name.startswith("_")]
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                assert not (node.value.id == "chaser" and node.attr.startswith("_"))

    @settings(max_examples=20, deadline=None)
    @given(model_seed=st.integers(0, 2**32 - 1), corpus_seed=st.integers(0, 2**16))
    def test_uniform_rows_never_score(self, model_seed, corpus_seed):
        """The premise: position 0 is text, so a masked (uniform) head scores no hit."""
        assert simmodel.PRE_TEXT[0] >= 1
        geometry = ModelGeometry(2, 4, 2)
        model = build_synthetic_model(geometry, PlantedHeadSet.uniform([(0, 1)], 1.0), model_seed)
        every_head = [(l, h) for l in range(2) for h in range(4)]
        base = generate_ocr_samples(model, 3, corpus_seed)
        masked = masked_corpus(base, every_head)
        for (sample, trace), (_, masked_trace) in zip(base, masked):
            assert sample.prompt_layout[0] == TEXT_TOKEN
            result = score_sample(sample, masked_trace)
            assert not result.increment.scores.any()
            assert result.increment.corpus_tokens == score_sample(sample, trace).increment.corpus_tokens


class TestCostModel:
    def test_closed_forms(self):
        cfg = small_config(cost_lengths=(2048, 32768), cost_out_len=100, cost_budget_per_head=256)
        rows = run_cost_model(cfg)
        n_kv = cfg.layers * cfg.kv_heads
        n_q = cfg.layers * cfg.query_heads
        for row in rows:
            lp, out, b = row.prompt_len, row.out_len, row.budget_per_head
            kept = min(lp, b)
            assert row.full_peak_slots == n_kv * (lp + out)
            assert row.compressed_peak_slots == n_kv * (kept + out)
            assert row.full_slot_touches == n_q * sum(lp + t for t in range(out))
            assert row.compressed_slot_touches == n_q * sum(kept + t for t in range(out))

    def test_headline_ratio_formats_to_four_figures(self):
        cfg = small_config(cost_lengths=(32768,), cost_out_len=100, cost_budget_per_head=256)
        row = run_cost_model(cfg)[0]
        assert f"{row.peak_ratio:.4g}" == "0.01083"
        assert row.peak_ratio == (256 + 100) / (32768 + 100)

    def test_ratio_shrinks_with_length(self):
        rows = run_cost_model(small_config())
        ratios = [r.touch_ratio for r in rows]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        peaks = [r.peak_ratio for r in rows]
        assert all(b < a for a, b in zip(peaks, peaks[1:]))

    def test_formula_matches_actual_decode(self):
        out, b = 4, 48
        for kv_heads in (4, 2):  # MHA and GQA
            for lp in (32, 200, 1024, 2048, 4096, 8192):  # Lp = w, b < Lp and b far below Lp
                cfg = small_config(
                    kv_heads=kv_heads, cost_lengths=(lp,), cost_out_len=out, cost_budget_per_head=b
                )
                (cost,) = run_cost_model(cfg)
                model = build_synthetic_model(cfg.geometry, cfg.planted_for_seed(0), 0)
                plan = allocate_uniform(
                    AllocationConfig(b * cfg.layers * kv_heads, window=cfg.window),
                    cfg.layers,
                    kv_heads,
                )
                workload = model.decode_workload(lp, out, cfg.window)
                record = replay_plan(model.geometry, workload, plan)
                (fast,) = replay_plans(model.geometry, workload, [plan])
                for got in (record, fast):
                    assert got.peak_slots == cost.compressed_peak_slots, (kv_heads, lp)
                    assert got.total_touches == cost.compressed_slot_touches, (kv_heads, lp)


class TestWriters:
    def test_csv_and_json_deterministic(self, tmp_path):
        rows = run_cost_model(small_config())
        c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
        j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
        write_rows_csv(c1, rows)
        write_rows_csv(c2, rows)
        write_rows_json(j1, rows)
        write_rows_json(j2, rows)
        assert c1.read_bytes() == c2.read_bytes()
        assert j1.read_bytes() == j2.read_bytes()

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError):
            write_rows_csv(tmp_path / "x.csv", [])


class TestCli:
    def test_pipeline_round_trip(self, tmp_path, capsys):
        model = [
            "--layers", "4", "--query-heads", "4",
            "--planted", "0,1;2,3", "--strength", "1.0", "--seed", "5",
        ]
        corpus_dir = tmp_path / "corpus"
        assert main(["corpus", *model, "--samples", "6", "--out-dir", str(corpus_dir)]) == 0
        scores = tmp_path / "scores.json"
        assert main(["chase", "--corpus", str(corpus_dir), "--out", str(scores)]) == 0
        plan = tmp_path / "plan.json"
        assert main([
            "allocate", "--scores", str(scores), "--budget", str(64 * 16),
            "--policy", "sparsemm", "--out", str(plan),
        ]) == 0
        trace = tmp_path / "trace.json"
        assert main([
            "prefill", *model, "--prompt-len", "200", "--out-len", "4",
            "--out", str(trace),
        ]) == 0
        report_json = tmp_path / "report.json"
        report_csv = tmp_path / "report.csv"
        assert main([
            "compress", "--trace", str(trace), "--plan", str(plan),
            "--out-json", str(report_json), "--out-csv", str(report_csv),
        ]) == 0
        summaries = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [s["command"] for s in summaries] == [
            "corpus", "chase", "allocate", "prefill", "compress",
        ]
        assert summaries[-1]["total_kept"] <= 64 * 16
        assert report_json.exists() and report_csv.exists()

    def test_one_parser_serves_every_command_of_a_process(self, tmp_path, capsys, monkeypatch):
        """`main` builds its parser once a process: two commands and then a usage error, run
        in one process, give what each gives in a fresh one, files included."""
        argvs = [
            ["allocate", "--layers", "2", "--heads", "2", "--budget", "64", "--window", "8",
             "--rho", "0.5", "--policy", "uniform", "--out", "plan.json"],
            ["prefill", *TINY_MODEL, "--prompt-len", "40", "--window", "8", "--out", "trace.json"],
            ["allocate", "--layers", "2", "--heads", "2", "--out", "again.json"],
        ]
        fresh, shared = tmp_path / "fresh", tmp_path / "shared"
        fresh.mkdir()
        shared.mkdir()
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        expected = []
        for argv in argvs:
            run = subprocess.run([sys.executable, "-m", "sparsemm.cli", *argv], cwd=fresh,
                                 capture_output=True, text=True, env=env)
            expected.append((run.returncode, run.stdout, run.stderr))
        monkeypatch.chdir(shared)
        got = []
        for argv in argvs:
            code = main(argv)
            captured = capsys.readouterr()
            got.append((code, captured.out, captured.err))
        assert got == expected
        assert [code for code, _, _ in got] == [0, 0, 2]
        assert {p.name: p.read_bytes() for p in shared.iterdir()} == {
            p.name: p.read_bytes() for p in fresh.iterdir()
        }
        assert cli.build_parser() is not cli.build_parser()

    def test_structured_error_on_contract_violation(self, tmp_path, capsys):
        model = [
            "--layers", "2", "--query-heads", "2",
            "--planted", "0,1", "--seed", "0",
        ]
        corpus_dir = tmp_path / "corpus"
        main(["corpus", *model, "--samples", "2", "--out-dir", str(corpus_dir)])
        scores = tmp_path / "scores.json"
        main(["chase", "--corpus", str(corpus_dir), "--out", str(scores)])
        capsys.readouterr()
        code = main([
            "allocate", "--scores", str(scores), "--budget", "10",
            "--out", str(tmp_path / "plan.json"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InfeasibleBudgetError"

    @pytest.mark.parametrize("policy", ["sparsemm", "uniform", "pyramid", "random", "ada"])
    def test_budget_below_window_floor_exits_2(self, tmp_path, capsys, policy):
        """200 slots cannot give 64 heads a 32-slot window; no policy writes a plan."""
        scores, plan = tmp_path / "scores.json", tmp_path / "plan.json"
        save_scores(scores, HeadScoreMatrix(np.random.default_rng(3).random((8, 8))))
        code = main([
            "allocate", "--scores", str(scores), "--budget", "200", "--window", "32",
            "--policy", policy, "--out", str(plan),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InfeasibleBudgetError"
        assert "cannot give" in err["message"]
        assert not plan.exists()

    @pytest.mark.parametrize("order", [("2x4", "1x4"), ("1x4", "2x4")])
    def test_chase_mixed_geometry_corpus_exits_2(self, tmp_path, capsys, order):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for i, name in enumerate(order):
            layers = int(name[0])
            model = build_synthetic_model(
                ModelGeometry.mha(layers, 4), PlantedHeadSet.uniform([(0, 1)], 0.9), 3
            )
            save_corpus(tmp_path / name, generate_ocr_samples(model, 1, 3))
            for suffix in (".json", ".npy"):
                (tmp_path / name / f"sample_00000{suffix}").rename(corpus / f"sample_{i:05d}{suffix}")
        scores = tmp_path / "scores.json"
        assert main(["chase", "--corpus", str(corpus), "--out", str(scores)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ShapeError"
        assert not scores.exists()

    def test_prefill_draws_the_window_rows_and_no_decode_step(self, tmp_path, monkeypatch, capsys):
        visible = []
        fill = simmodel._fill

        def counted(rng, rows, t, draw_edit=None):
            if draw_edit is not None:
                visible.append(rows.shape[1])
            return fill(rng, rows, t, draw_edit)

        # every step is filled by `_fill`, which draws its edit after the step's last rows
        monkeypatch.setattr(simmodel, "_fill", counted)
        trace = tmp_path / "trace.json"
        assert main([
            "prefill", "--layers", "2", "--query-heads", "4", "--kv-heads", "2",
            "--planted", "0,1", "--prompt-len", "200", "--out-len", "4", "--window", "32",
            "--out", str(trace),
        ]) == 0
        # window row i sees 200 - 32 + i + 1 positions; a decode step would see 200 + t
        assert visible == list(range(169, 201))

    def test_chase_on_saved_corpus_matches_in_memory_scores(self, tmp_path, capsys):
        model = build_synthetic_model(
            ModelGeometry(2, 4, 2), PlantedHeadSet.uniform([(0, 1), (1, 2)], 0.9), 7
        )
        samples = generate_ocr_samples(model, 4, 7)
        corpus_dir = tmp_path / "corpus"
        save_corpus(corpus_dir, samples)
        on_disk = tmp_path / "disk.json"
        assert main(["chase", "--corpus", str(corpus_dir), "--out", str(on_disk)]) == 0
        in_memory = tmp_path / "memory.json"
        save_scores(in_memory, chase_corpus(samples)[0])
        assert on_disk.read_bytes() == in_memory.read_bytes()

    def test_prompt_shorter_than_window_keeps_everything(self, tmp_path, capsys):
        trace, plan = tmp_path / "trace.json", tmp_path / "plan.json"
        assert main([
            "prefill", "--layers", "2", "--query-heads", "4", "--kv-heads", "2",
            "--planted", "0,1", "--prompt-len", "20", "--window", "32", "--out", str(trace),
        ]) == 0
        blob = json.loads(trace.read_text())
        assert (blob["prompt_len"], blob["window"]) == (20, 32)
        assert np.load(tmp_path / "trace.npy", allow_pickle=False).shape == (2, 2, 0)
        assert main([
            "allocate", "--layers", "2", "--heads", "2", "--budget", str(4 * 48),
            "--window", "32", "--policy", "uniform", "--out", str(plan),
        ]) == 0
        report = tmp_path / "report.json"
        capsys.readouterr()
        assert main([
            "compress", "--trace", str(trace), "--plan", str(plan), "--out-json", str(report),
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["scoring_skipped"] is True
        assert summary["total_kept"] == summary["total_slots_full"] == 2 * 2 * 20
        heads = json.loads(report.read_text())["heads"]
        assert all(h["kept"] == list(range(20)) for h in heads)

    def test_bench_subcommand_writes_both_formats(self, tmp_path, capsys):
        cfg = {
            "geometry": {"layers": 4, "query_heads": 4},
            "planted": {"pairs": [[0, 1], [2, 3]], "strength": 0.8},
            "corpus_size": 5,
            "budgets_per_head": [48],
            "policies": ["sparsemm", "uniform"],
            "seeds": [0, 1],
            "prompt_len": 128,
            "out_len": 3,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert main([
            "bench", "sweep", "--config", str(cfg_path), "--out-dir", str(out_dir),
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["rows"] == 2 * 1 * 2
        assert (out_dir / "sweep.csv").exists()
        assert (out_dir / "sweep.json").exists()

    def test_bench_seed_offset_changes_rows(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "geometry": {"layers": 2, "query_heads": 2},
            "planted": {"pairs": [[0, 1]], "strength": 0.8},
            "corpus_size": 3,
            "budgets_per_head": [48],
            "policies": ["sparsemm"],
            "seeds": [0],
            "prompt_len": 128,
            "out_len": 3,
        }))
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        main(["bench", "sweep", "--config", str(cfg_path), "--out-dir", str(a_dir)])
        main(["bench", "sweep", "--config", str(cfg_path), "--out-dir", str(b_dir), "--seed", "7"])
        capsys.readouterr()
        assert (a_dir / "sweep.csv").read_bytes() != (b_dir / "sweep.csv").read_bytes()


class TestCliInputErrors:
    """A bad value on the command line exits 2 with InvalidInputError, never a traceback."""

    MODEL = ["--layers", "1", "--query-heads", "2", "--planted", "0,1"]

    @pytest.mark.parametrize("argv", [
        ["corpus", "--layers", "1", "--query-heads", "2", "--planted", "0,x", "--out-dir", "c"],
        ["prefill", "--layers", "1", "--query-heads", "2", "--planted", "0;1", "--prompt-len", "40",
         "--out", "t.json"],
        ["corpus", *MODEL, "--seed", "-1", "--samples", "1", "--out-dir", "c"],
        ["prefill", *MODEL, "--prompt-len", "40", "--window", "-1", "--out", "t.json"],
        ["prefill", *MODEL, "--prompt-len", "40", "--seed", "-1", "--out", "t.json"],
        ["prefill", *MODEL, "--prompt-len", "40", "--seed", str(2**32), "--out", "t.json"],
        ["prefill", *MODEL, "--prompt-len", "40", "--out", "t.npy"],
        ["prefill", *MODEL, "--prompt-len", "40", "--out", ""],
    ], ids=["planted-not-an-integer", "planted-not-a-pair", "corpus-seed", "prefill-window",
            "prefill-seed-negative", "prefill-seed-33-bits", "prefill-out-is-its-payload",
            "prefill-out-empty"])
    def test_bad_argument_exits_2(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidInputError"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, fragment", [
        (["allocate", "--layers", "1", "--heads", "2", "--budget", "x", "--out", "p.json"],
         "argument --budget: invalid int value: 'x'"),
        (["chase", "--corpus", "c", "--out", "s.json", "--bogus"], "unrecognized arguments: --bogus"),
        (["compress", "--trace", "t.json", "--plan", "p.json", "--out", "r.json"],
         "ambiguous option: --out could match --out-json, --out-csv"),
        (["allocate", "--layers", "1", "--heads", "2", "--out", "p.json"],
         "the following arguments are required: --budget"),
        ([], "the following arguments are required: command"),
        (["corpus", *MODEL, "--samples", "0", "--out-dir", "c"], "--samples 0 must be at least 1"),
        (["chase", "--corpus", "c", "--group", "0", "--out", "s.json"],
         "--group 0 must be at least 1"),
        (["allocate", "--layers", "1", "--heads", "2", "--budget", "0", "--out", "p.json"],
         "--budget 0 must be at least 1"),
        (["allocate", "--layers", "1", "--heads", "2", "--budget", "64", "--rho", "2",
          "--out", "p.json"], "--rho 2.0 must lie in [0, 1]"),
        (["allocate", "--layers", "1", "--heads", "2", "--budget", "64", "--window", "-1",
          "--out", "p.json"], "--window -1 must be at least 0"),
        (["allocate", "--layers", "1", "--heads", "2", "--budget", "64", "--policy", "random",
          "--seed", "-1", "--out", "p.json"], "--seed -1 must be at least 0"),
        (["corpus", *MODEL, "--seed", "-1", "--out-dir", "c"],
         "--seed -1 must lie in [0, 4294967295]"),
        (["prefill", *MODEL, "--prompt-len", "40", "--seed", "-1", "--out", "t.json"],
         "--seed -1 must lie in [0, 4294967295]"),
    ], ids=["invalid-value", "unknown-flag", "ambiguous-flag", "missing-flag", "no-command",
            "corpus-samples-below-one", "chase-group-below-one", "allocate-budget-below-one",
            "allocate-rho-above-one", "allocate-window-below-zero", "allocate-seed-below-zero",
            "corpus-seed-below-zero", "prefill-seed-below-zero"])
    def test_usage_error_exits_2(self, tmp_path, capsys, monkeypatch, argv, fragment):
        """argparse's errors, and a number flag out of range, take the path of every input error.

        A flag's error names the flag, not the library parameter it feeds.
        """
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert set(err) == {"error", "message"}
        assert err["error"] == "InvalidInputError"
        assert fragment in err["message"]
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["allocate", "-h"])
        assert info.value.code == 0
        assert "--budget" in capsys.readouterr().out

    @pytest.mark.parametrize("policy", ["uniform", "pyramid", "random"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("flag", ["--layers", "--heads"])
    def test_allocate_non_positive_geometry_exits_2(self, tmp_path, capsys, policy, value, flag):
        geometry = {"--layers": "2", "--heads": "4", flag: value}
        plan = tmp_path / "plan.json"
        argv = ["allocate", "--policy", policy, "--budget", "100", "--window", "0",
                "--out", str(plan)]
        assert main(argv + [item for pair in geometry.items() for item in pair]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidInputError"
        assert "at least 1" in err["message"]
        assert not plan.exists()

    @pytest.mark.parametrize("flags", [
        ["--layers", "4", "--heads", "4"], ["--layers", "4"], ["--heads", "3"],
        ["--layers", "1", "--heads", "3"],
    ], ids=["both", "layers", "heads", "heads-of-two"])
    def test_allocate_shape_flags_must_match_the_scores(self, tmp_path, capsys, flags):
        scores, plan = tmp_path / "scores.json", tmp_path / "plan.json"
        save_scores(scores, HeadScoreMatrix(np.array([[0.2, 1.0]])))
        argv = ["allocate", "--scores", str(scores), "--budget", "16", "--window", "0",
                "--out", str(plan)]
        assert main(argv + flags) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidInputError"
        assert "disagrees with" in err["message"] and str(scores) in err["message"]
        assert not plan.exists()
        assert main(argv + ["--layers", "1", "--heads", "2"]) == 0
        assert load_plan(plan).budgets.shape == (1, 2)

    @pytest.mark.parametrize("group", ["0", "-2"])
    def test_chase_group_below_one_exits_2(self, tmp_path, capsys, group):
        model = build_synthetic_model(
            ModelGeometry.mha(1, 2), PlantedHeadSet.uniform([(0, 1)], 0.9), 3
        )
        save_corpus(tmp_path / "corpus", generate_ocr_samples(model, 2, 3))
        scores = tmp_path / "scores.json"
        argv = ["chase", "--corpus", str(tmp_path / "corpus"), "--group", group, "--out", str(scores)]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidInputError"
        assert err["message"] == f"--group {group} must be at least 1"
        assert not scores.exists()

    def test_corpus_into_a_used_directory_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        argv = ["corpus", *self.MODEL, "--out-dir", str(corpus), "--samples"]
        assert main(argv + ["5"]) == 0
        digest = json.loads(capsys.readouterr().out)["digest"]
        assert main(argv + ["2"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidInputError"
        assert "already holds a corpus" in err["message"]
        assert corpus_digest(corpus) == digest

    def test_bench_seed_offset_below_zero_exits_2(self, tmp_path, capsys):
        """A config no run can use is rejected before bench creates --out-dir."""
        geometry = {"layers": 8, "query_heads": 2, "kv_heads": 8}
        cases = [  # (experiment, config, --seed offset, message fragment)
            ("sweep", {"budgets_per_head": [48], "seeds": [0, 1]}, "-3",
             "--seed -3: config: seeds[0], seeds[1] must lie in [0, 4294967295]"),
            ("sweep", {"seeds": [0, 1]}, str(2**32),
             "--seed 4294967296: config: seeds[0], seeds[1] must lie in [0, 4294967295]"),
            ("sweep", {"seeds": [2**32]}, "0", "cfg2.json: seeds[0] must lie in [0, 4294967295]"),
            ("sweep", {"geometry": geometry}, "0", "2 query heads not divisible by 8 kv heads"),
            ("sweep", {"planted": {"pairs": [[0, 1], [8, 0]]}}, "0", "planted head (8, 0) outside"),
            ("sweep", {"prompt_len": 16}, "0", "prompt_len 16 shorter than window 32"),
            ("sweep", {"planted": {"fraction": 1.5}}, "0", "planted.fraction must lie in [0, 1]"),
            ("sweep", {"rho": 5.0}, "0", "rho must lie in [0, 1]"),
            ("rho", {"rhos": [2.0]}, "0", "rhos[0] must lie in [0, 1]"),
            ("mask", {"rho": -1.0}, "0", "rho must lie in [0, 1]"),
        ]
        for i, (experiment, config, offset, fragment) in enumerate(cases):
            cfg_path = tmp_path / f"cfg{i}.json"
            cfg_path.write_text(json.dumps(config))
            out_dir = tmp_path / f"out{i}"
            argv = ["bench", experiment, "--config", str(cfg_path), "--out-dir", str(out_dir),
                    "--seed", offset]
            assert main(argv) == 2, config
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "InvalidInputError"
            assert fragment in err["message"], (config, err["message"])
            assert not out_dir.exists()


    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_bench_jobs_below_one_exits_2(self, tmp_path, capsys, jobs):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seeds": [0]}))
        out_dir = tmp_path / "out"
        argv = ["bench", "mask", "--config", str(cfg_path), "--out-dir", str(out_dir),
                "--jobs", jobs]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidInputError"
        assert f"--jobs {jobs} must be at least 1" in err["message"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("experiment, key", [
        ("cost", "cost_lengths"), ("mask", "mask_fractions"), ("sweep", "policies"),
    ])
    def test_bench_empty_list_exits_2_before_out_dir(self, tmp_path, capsys, experiment, key):
        """A list the experiment needs an entry of is refused before any seed's work."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: []}))
        out_dir = tmp_path / "out"
        argv = ["bench", experiment, "--config", str(cfg_path), "--out-dir", str(out_dir)]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidInputError"
        assert err["message"] == f"config {cfg_path}: {key} needs at least one entry"
        assert not out_dir.exists()


def _subcommands(parser):
    """(name, parser) for each subcommand `build_parser` adds."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices.items()


def _bounded_flags():
    """(command, flag, action) for every number flag the parser range-checks."""
    return [(command, action.option_strings[0], action)
            for command, p in _subcommands(cli.build_parser()) for action in p._actions
            if isinstance(action, cli._InRange)]


def _outside(action):
    """Values just outside `action`'s range, and NaN and both infinities for a float flag."""
    if action.type is int:
        return [action.lo - 1] + ([action.hi + 1] if action.hi < math.inf else [])
    return [math.nextafter(action.lo, -math.inf), math.nextafter(action.hi, math.inf),
            math.nan, math.inf, -math.inf]


class TestCliNumberFlags:
    """Every number flag states its range in the parser, and one check refuses a value outside it.

    The cases are read from `build_parser` itself, so a flag bounded later is tested too.
    """

    MODEL = ["--layers", "1", "--query-heads", "2", "--planted", "0,1"]
    # each command with every required flag, at a value in range; the flag under test comes last
    BASE = {
        "corpus": ["corpus", *MODEL, "--samples", "1", "--out-dir", "c"],
        "chase": ["chase", "--corpus", "c", "--out", "s.json"],
        "allocate": ["allocate", "--layers", "1", "--heads", "2", "--budget", "64",
                     "--out", "p.json"],
        "prefill": ["prefill", *MODEL, "--prompt-len", "40", "--out", "t.json"],
        "bench": ["bench", "mask", "--config", "cfg.json", "--out-dir", "out"],
    }
    OUTSIDE = [(command, flag, action, value) for command, flag, action in _bounded_flags()
               for value in _outside(action)]

    def test_every_number_flag_is_bounded(self):
        """A number flag added without a range fails here; `bench --seed` is an offset, held to
        the config's seed range after it is added."""
        unbounded = [(command, action.option_strings[0])
                     for command, p in _subcommands(cli.build_parser()) for action in p._actions
                     if action.type in (int, float) and not isinstance(action, cli._InRange)]
        assert unbounded == [("bench", "--seed")]

    def test_the_bounded_flags(self):
        bounds = {(command, flag): (action.lo, action.hi)
                  for command, flag, action in _bounded_flags()}
        model = {"--layers": (1, math.inf), "--query-heads": (1, math.inf),
                 "--kv-heads": (1, math.inf), "--strength": (0, 1), "--seed": (0, 2**32 - 1)}
        assert bounds == {
            **{(command, flag): bound for command in ("corpus", "prefill")
               for flag, bound in model.items()},
            ("corpus", "--samples"): (1, math.inf),
            ("chase", "--group"): (1, math.inf),
            ("allocate", "--layers"): (1, math.inf),
            ("allocate", "--heads"): (1, math.inf),
            ("allocate", "--budget"): (1, math.inf),
            ("allocate", "--rho"): (0, 1),
            ("allocate", "--window"): (0, math.inf),
            ("allocate", "--seed"): (0, math.inf),
            ("prefill", "--prompt-len"): (1, math.inf),
            ("prefill", "--out-len"): (1, math.inf),
            ("prefill", "--window"): (0, math.inf),
            ("bench", "--jobs"): (1, math.inf),
        }

    @pytest.mark.parametrize("command, flag, action, value", OUTSIDE,
                             ids=[f"{c}{f}={v}" for c, f, _, v in OUTSIDE])
    def test_a_value_outside_the_range_exits_2(self, tmp_path, capsys, monkeypatch, command, flag,
                                               action, value):
        monkeypatch.chdir(tmp_path)
        assert main(self.BASE[command] + [f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["error"] == "InvalidInputError"
        bound = (f"be at least {action.lo}" if action.hi == math.inf
                 else f"lie in [{action.lo}, {action.hi}]")
        assert err["message"] == f"{flag} {value} must {bound}"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, flag, action", _bounded_flags(),
                             ids=[f"{c}{f}" for c, f, _ in _bounded_flags()])
    def test_both_ends_of_the_range_are_taken(self, command, flag, action):
        for value in (action.lo, action.hi):
            if value < math.inf:
                args = cli.build_parser().parse_args(self.BASE[command] + [f"{flag}={value}"])
                assert getattr(args, action.dest) == value

    def test_a_number_out_of_range_is_named_before_an_unwritable_output(self, tmp_path, capsys):
        """Flags are checked while argv is parsed, so before any output path."""
        argv = ["chase", "--corpus", "c", "--group", "0", "--out", str(tmp_path / "nodir" / "s")]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["message"] == "--group 0 must be at least 1"


TINY_MODEL = ["--layers", "1", "--query-heads", "2", "--planted", "0,1"]


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """One corpus, score file, plan, trace and bench config for CLI cases to read."""
    d = tmp_path_factory.mktemp("inputs")
    for argv in (
        ["corpus", *TINY_MODEL, "--samples", "2", "--out-dir", str(d / "corpus")],
        ["chase", "--corpus", str(d / "corpus"), "--out", str(d / "scores.json")],
        ["allocate", "--scores", str(d / "scores.json"), "--budget", "20", "--window", "8",
         "--out", str(d / "plan.json")],
        ["prefill", *TINY_MODEL, "--prompt-len", "40", "--window", "8",
         "--out", str(d / "trace.json")],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    (d / "config.json").write_text(json.dumps({
        "geometry": {"layers": 1, "query_heads": 2}, "planted": {"pairs": [[0, 1]]},
        "seeds": [0],
    }))
    return d


class TestCliOutputPaths:
    """An output that cannot be written exits 2 with InvalidInputError naming its path."""

    MODEL = TINY_MODEL
    # output: (argv up to the output flag, "{in}" standing for the inputs; is it a directory)
    OUTPUTS = {
        "corpus-out-dir": (["corpus", *MODEL, "--samples", "1", "--out-dir"], True),
        "chase-out": (["chase", "--corpus", "{in}/corpus", "--out"], False),
        "allocate-out": (["allocate", "--scores", "{in}/scores.json", "--budget", "20",
                            "--window", "8", "--out"], False),
        "prefill-out": (["prefill", *MODEL, "--prompt-len", "40", "--window", "8", "--out"], False),
        "compress-out-json": (["compress", "--trace", "{in}/trace.json", "--plan", "{in}/plan.json",
                                 "--out-json"], False),
        "compress-out-csv": (["compress", "--trace", "{in}/trace.json", "--plan", "{in}/plan.json",
                                "--out-csv"], False),
        "bench-out-dir": (["bench", "cost", "--config", "{in}/config.json", "--out-dir"], True),
    }
    # where: (the output path, the path the message must name), under the test's directory
    WHERE = {
        "in-a-missing-directory": ("nodir/out", "nodir"),
        "under-a-file": ("blocker/out", "blocker"),
        "on-a-file": ("blocker", "blocker"),  # a file where the output directory belongs
        "on-a-directory": ("adir", "adir"),  # a directory where the output file belongs
    }
    CASES = [
        (output, where) for output, (_, is_dir) in OUTPUTS.items()
        for where in (("on-a-file", "under-a-file") if is_dir else
                      ("in-a-missing-directory", "under-a-file", "on-a-directory"))
    ]

    @pytest.mark.parametrize("output, where", CASES, ids=[f"{o}-{w}" for o, w in CASES])
    def test_unwritable_output_exits_2(self, cli_inputs, tmp_path, capsys, output, where):
        argv = [arg.replace("{in}", str(cli_inputs)) for arg in self.OUTPUTS[output][0]]
        (tmp_path / "blocker").write_text("not a directory")
        (tmp_path / "adir").mkdir()
        path, named = self.WHERE[where]
        assert main(argv + [str(tmp_path / path)]) == 2
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert set(err) == {"error", "message"}
        assert err["error"] == "InvalidInputError"
        assert str(tmp_path / named) in err["message"]
        assert captured.out == ""
        assert not (tmp_path / "nodir").exists()
        assert (tmp_path / "blocker").read_text() == "not a directory"

    @pytest.mark.parametrize("output", ["corpus-out-dir", "bench-out-dir"])
    def test_empty_output_directory_exits_2(self, cli_inputs, tmp_path, capsys, monkeypatch,
                                            output):
        """`--out-dir ""` is refused, not read as the current directory."""
        argv = [arg.replace("{in}", str(cli_inputs)) for arg in self.OUTPUTS[output][0]]
        monkeypatch.chdir(tmp_path)
        assert main(argv + [""]) == 2
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err == {"error": "InvalidInputError",
                       "message": "cannot create directory: the path is empty"}
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_prefill_refuses_its_output_before_the_window_pass(self, tmp_path, capsys,
                                                              monkeypatch):
        """The output is checked first, so a bad `--out` costs no decode workload."""
        calls = []
        monkeypatch.setattr(simmodel.SyntheticModel, "decode_workload",
                            lambda *args, **kwargs: calls.append(args))
        out = tmp_path / "nodir" / "t.json"
        assert main(["prefill", *self.MODEL, "--prompt-len", "40", "--window", "8",
                     "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidInputError"
        assert str(tmp_path / "nodir") in err["message"]
        assert calls == []
        assert list(tmp_path.iterdir()) == []


def _error_names(cls=SparseMMError) -> set[str]:
    """The names of `cls` and of every subclass of it."""
    return {cls.__name__}.union(*(_error_names(sub) for sub in cls.__subclasses__()))


def _no_work(*args, **kwargs):
    raise AssertionError("an input was read or a model built before the outputs were checked")


@st.composite
def mutated_argvs(draw):
    """(argv, mutation, flag): a valid argv of TestCliArgvMutations.ARGVS changed in one way.

    "{in}" in the argv stands for the inputs' directory and "{out}" for a fresh
    output directory holding an empty `adir`.
    """
    command = draw(st.sampled_from(sorted(TestCliArgvMutations.ARGVS)))
    argv = list(TestCliArgvMutations.ARGVS[command])
    mutation = draw(st.sampled_from(TestCliArgvMutations.MUTATIONS))
    paths = TestCliArgvMutations.PATH_FLAGS
    flags = [i for i, a in enumerate(argv)
             if a.startswith("--") and (mutation not in ("missing-dir", "on-a-dir") or a in paths)]
    i = draw(st.sampled_from(flags))
    flag = argv[i]
    if mutation == "drop":
        del argv[i:i + 2]
    elif mutation == "repeat":
        argv += argv[i:i + 2]
    elif mutation == "garble-flag":
        argv[i] = draw(st.sampled_from([
            flag.upper(), flag[:-1], flag[1:], flag + "x", flag.replace("-", "_"), "--", "-",
        ]))
    elif mutation == "garble-value":
        argv[i + 1] = draw(st.sampled_from([
            "", "x", "0", "-1", "1", "3", "1.5", "nan", "inf", "1e9", "0,1;0,1", ";", "--", "-",
        ]))
    elif mutation == "missing-dir":
        argv[i + 1] = "{out}/nodir/" + argv[i + 1].rsplit("/", 1)[-1]
    else:
        argv[i + 1] = "{out}/adir"
    return argv, mutation, flag


class TestCliArgvMutations:
    """A mutated argv exits 0, or exits 2 with a structured SparseMMError; it never raises."""

    ARGVS = {
        "corpus": ["corpus", *TINY_MODEL, "--samples", "1", "--out-dir", "{out}/corpus"],
        "chase": ["chase", "--corpus", "{in}/corpus", "--out", "{out}/scores.json"],
        "allocate": ["allocate", "--scores", "{in}/scores.json", "--budget", "20",
                     "--window", "8", "--out", "{out}/plan.json"],
        "prefill": ["prefill", *TINY_MODEL, "--prompt-len", "40", "--window", "8",
                    "--out", "{out}/trace.json"],
        "compress": ["compress", "--trace", "{in}/trace.json", "--plan", "{in}/plan.json",
                     "--out-json", "{out}/report.json", "--out-csv", "{out}/report.csv"],
        "bench": ["bench", "cost", "--config", "{in}/config.json", "--out-dir", "{out}/bench"],
    }
    MUTATIONS = ("drop", "repeat", "garble-flag", "garble-value", "missing-dir", "on-a-dir")
    OUTPUT_FILES = ("--out", "--out-json", "--out-csv")
    PATH_FLAGS = ("--corpus", "--scores", "--trace", "--plan", "--config", "--out-dir",
                  *OUTPUT_FILES)

    @settings(max_examples=300, deadline=None)
    @given(case=mutated_argvs())
    def test_mutated_argv_exits_0_or_2(self, cli_inputs, case):
        argv, mutation, flag = case
        bad_output = mutation in ("missing-dir", "on-a-dir") and flag in self.OUTPUT_FILES
        with tempfile.TemporaryDirectory() as out:
            (Path(out) / "adir").mkdir()
            argv = [a.replace("{in}", str(cli_inputs)).replace("{out}", out) for a in argv]
            stdout, stderr = io.StringIO(), io.StringIO()
            # an unwritable output must be refused before any input is read or model built
            guard = (mock.patch.multiple(cli, load_corpus=_no_work, load_scores=_no_work,
                                         load_plan=_no_work, _load_trace=_no_work,
                                         _build_model=_no_work)
                     if bad_output else contextlib.nullcontext())
            # a garbled value may name a relative output; it lands in the example's directory
            cwd = os.getcwd()
            os.chdir(out)
            try:
                with guard, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                        warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    code = main(argv)
            finally:
                os.chdir(cwd)
            assert code in (0, 2), argv
            if code == 2:
                err = json.loads(stderr.getvalue())
                assert set(err) == {"error", "message"}
                assert err["error"] in _error_names()
                assert stdout.getvalue() == ""
            if bad_output:
                assert code == 2 and err["error"] == "InvalidInputError"
                assert str(Path(out) / ("nodir" if mutation == "missing-dir" else "adir")) \
                    in err["message"]


def test_only_bench_loads_bench_and_only_jobs_above_1_load_the_pool(cli_inputs, tmp_path):
    """`import sparsemm.cli` and the file flow load neither `bench`, `tensor` nor the
    process pool; `bench cost --jobs 1` loads `bench`, and still no pool."""
    code = (
        "import contextlib, io, json, sys\n"
        "from sparsemm.cli import main\n"
        "lazy = ('sparsemm.bench', 'sparsemm.tensor', 'concurrent.futures')\n"
        "seen = [sorted(m for m in lazy if m in sys.modules)]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "    seen.append(sorted(m for m in lazy if m in sys.modules))\n"
        "print(json.dumps(seen))\n"
    )
    d, out = str(cli_inputs), str(tmp_path)
    argvs = [
        ["corpus", *TINY_MODEL, "--samples", "1", "--out-dir", f"{out}/corpus"],
        ["chase", "--corpus", f"{d}/corpus", "--out", f"{out}/scores.json"],
        ["allocate", "--scores", f"{d}/scores.json", "--budget", "20", "--window", "8",
         "--out", f"{out}/plan.json"],
        ["prefill", *TINY_MODEL, "--prompt-len", "40", "--window", "8",
         "--out", f"{out}/trace.json"],
        ["compress", "--trace", f"{d}/trace.json", "--plan", f"{d}/plan.json",
         "--out-json", f"{out}/report.json"],
        ["bench", "cost", "--config", f"{d}/config.json", "--out-dir", f"{out}/bench",
         "--jobs", "1"],
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], capture_output=True,
                            text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert json.loads(result.stdout) == [[]] * 6 + [["sparsemm.bench"]]


class TestLoaderErrors:
    """A missing or malformed score, plan or config file exits 2 with a structured error."""

    CONTENT = {"non_json": "{not json", "non_object": "[1, 2]"}
    MISSING_KEY = {
        "scores": '{"layers": 2}',
        "plan": '{"plan": [[8, 8]]}',
        "config": '{"geometry": {"layers": 2}}',
    }

    @pytest.mark.parametrize("case", ["missing", "non_json", "non_object", "missing_key"])
    @pytest.mark.parametrize("loader", ["scores", "plan", "config"])
    def test_bad_file_exits_2(self, tmp_path, capsys, loader, case):
        bad = tmp_path / "bad.json"
        if case != "missing":
            bad.write_text(self.MISSING_KEY[loader] if case == "missing_key" else self.CONTENT[case])
        if loader == "scores":
            argv = ["allocate", "--scores", str(bad), "--budget", "64", "--out", str(tmp_path / "p.json")]
        elif loader == "plan":
            trace = tmp_path / "trace.json"
            assert main([
                "prefill", "--layers", "1", "--query-heads", "2", "--planted", "0,1",
                "--prompt-len", "40", "--window", "8", "--out", str(trace),
            ]) == 0
            argv = ["compress", "--trace", str(trace), "--plan", str(bad)]
        else:
            argv = ["bench", "sweep", "--config", str(bad), "--out-dir", str(tmp_path / "out")]
        capsys.readouterr()
        self._rejects(argv, capsys)

    def test_config_section_of_wrong_type(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"planted": [[0, 1]]}')  # a list where an object belongs
        self._rejects(["bench", "sweep", "--config", str(bad), "--out-dir", str(tmp_path)], capsys)

    @pytest.mark.parametrize("field, value", [
        ("prompt_len", "384"),
        ("out_len", 2.5),
        ("seeds", [0, True]),
        ("rho", "0.1"),
        ("geometry", [[8, 8]]),
        ("planted", [[0, 1]]),
    ])
    def test_config_field_of_wrong_type(self, tmp_path, capsys, field, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"budgets_per_head": [48], "seeds": [0], field: value}))
        with pytest.raises(InvalidInputError, match=field):
            load_config(bad)
        self._rejects(["bench", "sweep", "--config", str(bad), "--out-dir", str(tmp_path)], capsys)

    @pytest.mark.parametrize("field, value", [
        ("plan", [[8.5, 7.5]]), ("plan", [[15, True]]), ("budget_B", 16.0), ("w", "8"),
    ])
    def test_plan_field_of_wrong_type(self, tmp_path, capsys, field, value):
        bad = tmp_path / "plan.json"
        bad.write_text(json.dumps(
            {"plan": [[8, 8]], "budget_B": 16, "w": 8, "rho": 0.1, "allocator": "uniform", field: value}
        ))
        with pytest.raises(InvalidInputError, match=field):
            load_plan(bad)
        trace = tmp_path / "trace.json"
        assert main([
            "prefill", "--layers", "1", "--query-heads", "2", "--planted", "0,1",
            "--prompt-len", "40", "--window", "8", "--out", str(trace),
        ]) == 0
        capsys.readouterr()
        self._rejects(["compress", "--trace", str(trace), "--plan", str(bad)], capsys)

    @pytest.mark.parametrize("field, value, fragment", [
        ("rho", 5, r"rho must lie in \[0, 1\]"),
        ("rho", -0.5, r"rho must lie in \[0, 1\]"),
        ("rho", 1.0000001, r"rho must lie in \[0, 1\]"),
        ("allocator", "", "allocator must be one of sparsemm, uniform, pyramid, random, ada"),
        ("allocator", "Uniform", "allocator must be one of"),
        ("allocator", 3, "allocator must be one of"),
    ])
    def test_plan_ratio_and_policy_are_as_the_writers_make_them(
        self, tmp_path, capsys, field, value, fragment
    ):
        """Every plan comes from one of the five policies with an AllocationConfig ratio in [0, 1]."""
        bad = tmp_path / "plan.json"
        bad.write_text(json.dumps(
            {"plan": [[8, 8]], "budget_B": 16, "w": 8, "rho": 0.1, "allocator": "uniform", field: value}
        ))
        trace = tmp_path / "trace.json"
        assert main([
            "prefill", "--layers", "1", "--query-heads", "2", "--planted", "0,1",
            "--prompt-len", "40", "--window", "8", "--out", str(trace),
        ]) == 0
        capsys.readouterr()
        assert main(["compress", "--trace", str(trace), "--plan", str(bad)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidInputError"
        assert re.search(fragment, err["message"]) and f"plan {bad}: " in err["message"]

    @pytest.mark.parametrize("field, value", [("layers", 1.9), ("heads", 1.9), ("heads", 0)])
    def test_score_counts_of_wrong_type(self, tmp_path, capsys, field, value):
        bad = tmp_path / "scores.json"
        bad.write_text(json.dumps({"layers": 1, "heads": 1, "scores": [0.5], field: value}))
        with pytest.raises(InvalidInputError, match=f"{field} must be positive counts"):
            load_scores(bad)
        argv = ["allocate", "--scores", str(bad), "--budget", "64", "--out", str(tmp_path / "p.json")]
        self._rejects(argv, capsys)

    @pytest.mark.parametrize("text, fragment", [
        ("[true, 0.5]", r"scores\[0\] must be finite numbers"),
        ("[0.5, false]", r"scores\[1\] must be finite numbers"),
        ("[1e400, 0.5]", r"scores\[0\] must be finite numbers"),
        ('["1.0", 0.5]', r"scores\[0\] must be finite numbers"),
        ("[null, 0.5]", r"scores\[0\] must be finite numbers"),
        ("[[1.0], [1.0, 2.0]]", r"scores\[0\], scores\[1\] must be finite numbers"),
        ('{"a": 1}', "scores is malformed"),
        ("[0.5, -1]", r"scores\[1\] must be finite numbers >= 0"),
    ], ids=["true", "false", "overflow", "string", "null", "ragged", "object", "negative"])
    def test_score_values_of_wrong_type(self, tmp_path, capsys, text, fragment):
        """A score is a finite, non-negative JSON number: a bool is not 1.0; errors name the file."""
        bad = tmp_path / "scores.json"
        bad.write_text(f'{{"layers": 1, "heads": 2, "scores": {text}}}')
        with pytest.raises(InvalidInputError, match=fragment) as info:
            load_scores(bad)
        assert f"score file {bad}" in str(info.value)
        plan = tmp_path / "p.json"
        self._rejects(["allocate", "--scores", str(bad), "--budget", "64", "--out", str(plan)], capsys)
        assert not plan.exists()

    def test_large_integer_scores_load_as_numbers(self, tmp_path):
        path = tmp_path / "scores.json"
        path.write_text(f'{{"layers": 1, "heads": 2, "scores": [{10**30}, 0]}}')
        assert load_scores(path).scores.tolist() == [[1e30, 0.0]]

    def test_loader_errors_pass_through(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"layers": 2, "heads": 2, "scores": [1.0]}')
        argv = ["allocate", "--scores", str(bad), "--budget", "64", "--out", str(tmp_path / "p.json")]
        self._rejects(argv, capsys, error="ShapeError")

    def _rejects(self, argv, capsys, error="InvalidInputError"):
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert set(err) == {"error", "message"}
        assert err["error"] == error


class TestCorpusLoaderErrors:
    """`load_corpus` raises InvalidInputError on a bad corpus; `chase` exits 2 with it."""

    @pytest.fixture
    def corpus(self, tmp_path):
        model = build_synthetic_model(
            ModelGeometry.mha(1, 2), PlantedHeadSet.uniform([(0, 1)], 0.9), 3
        )
        directory = tmp_path / "corpus"
        save_corpus(directory, generate_ocr_samples(model, 2, 3))
        return directory

    def _rejects(self, directory, tmp_path, capsys, fragment, error=InvalidInputError):
        with pytest.raises(error, match=fragment):
            list(load_corpus(directory))
        capsys.readouterr()
        assert main(["chase", "--corpus", str(directory), "--out", str(tmp_path / "s.json")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert set(err) == {"error", "message"}
        assert err["error"] == error.__name__
        assert re.search(fragment, err["message"])
        assert not (tmp_path / "s.json").exists()

    def _edit_record(self, directory, edit, stem="sample_00001"):
        path = directory / f"{stem}.json"
        record = json.loads(path.read_text())
        edit(record)
        path.write_text(json.dumps(record))

    def _replace_payload(self, directory, array=None, data=None, stem="sample_00001"):
        """Write a new payload and point the record's sha256 at it."""
        path = directory / f"{stem}.npy"
        if data is None:
            buf = io.BytesIO()
            np.save(buf, array)
            data = buf.getvalue()
        path.write_bytes(data)
        digest = hashlib.sha256(data).hexdigest()
        self._edit_record(directory, lambda record: record.update(sha256=digest), stem)

    def _payload(self, directory, stem="sample_00001"):
        return np.load(directory / f"{stem}.npy", allow_pickle=False)

    def test_missing_directory(self, tmp_path, capsys):
        self._rejects(tmp_path / "absent", tmp_path, capsys, "cannot read corpus")

    def test_directory_without_records(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "notes.txt").write_text("no samples here")
        self._rejects(empty, tmp_path, capsys, "no sample records")

    @pytest.mark.parametrize("text, fragment", [
        ("{not json", "not JSON"), ("[1, 2]", "JSON object"),
    ])
    def test_record_not_a_json_object(self, corpus, tmp_path, capsys, text, fragment):
        (corpus / "sample_00001.json").write_text(text)
        self._rejects(corpus, tmp_path, capsys, fragment)

    @pytest.mark.parametrize("key", [
        "image_shape", "grid", "pairs", "prompt_layout", "layers", "query_heads", "steps", "sha256",
    ])
    def test_record_missing_key(self, corpus, tmp_path, capsys, key):
        self._edit_record(corpus, lambda record: record.pop(key))
        self._rejects(corpus, tmp_path, capsys, f"lacks {key}")

    @pytest.mark.parametrize("field, value, fragment", [
        ("layers", "1", "positive counts"),
        ("steps", 0, "positive counts"),
        ("pairs", 3, "malformed"),
        ("grid", [1, 1], "image tokens"),
        ("prompt_layout", 3, "prompt_layout is malformed"),
        ("prompt_layout", [-1, 2.0, -2, True],
         r"prompt_layout\[1\], prompt_layout\[2\], prompt_layout\[3\] must be counts >= -1"),
    ])
    def test_record_field_of_wrong_type(self, corpus, tmp_path, capsys, field, value, fragment):
        self._edit_record(corpus, lambda record: record.update({field: value}))
        self._rejects(corpus, tmp_path, capsys, rf"sample_00001\.json: .*{fragment}")

    @pytest.mark.parametrize("label", [1000000, "repeat"])
    def test_layout_label_outside_the_grid_patches(self, corpus, tmp_path, capsys, label):
        def tamper(record):
            layout = record["prompt_layout"]
            image = [i for i, role in enumerate(layout) if role >= 0]
            layout[image[0]] = layout[image[1]] if label == "repeat" else label

        self._edit_record(corpus, tamper)
        self._rejects(corpus, tmp_path, capsys, r"sample_00001\.json: .* patch indices")

    def test_sample_layout_must_cover_grid(self, corpus, tmp_path, capsys):
        """A layout that misses one of the grid's patches is refused, naming the record."""
        def drop_last_patch(record):
            layout = record["prompt_layout"]
            layout.remove(max(layout))

        self._edit_record(corpus, drop_last_patch)
        self._rejects(corpus, tmp_path, capsys, r"sample_00001\.json: layout's \d+ image tokens")

    def test_record_of_other_heads(self, corpus, tmp_path, capsys):
        """A 2x2 sample copied into a 1x2 corpus is refused in any order of access."""
        model = build_synthetic_model(
            ModelGeometry.mha(2, 2), PlantedHeadSet.uniform([(0, 1)], 0.9), 3
        )
        save_corpus(tmp_path / "other", generate_ocr_samples(model, 1, 3))
        for suffix in (".json", ".npy"):
            (tmp_path / "other" / f"sample_00000{suffix}").replace(corpus / f"sample_00001{suffix}")
        fragment = (r"sample_00001\.json scores \(2, 2\) \(layers, query_heads\), "
                    r"the first record .*sample_00000\.json \(1, 2\)")
        for order in ((1,), (0, 1), (1, 0)):
            samples = load_corpus(corpus)
            with pytest.raises(ShapeError, match=fragment):
                for i in order:
                    samples[i]
        assert load_corpus(corpus)[0][1].layers == 1
        self._rejects(corpus, tmp_path, capsys, fragment, error=ShapeError)

    def _edit_first_row(self, directory, edit):
        """Apply `edit` to the first row of sample 1's step 0 and rewrite its payload."""
        prompt_len = len(json.loads((directory / "sample_00001.json").read_text())["prompt_layout"])
        flat = self._payload(directory).copy()
        edit(flat[:prompt_len])
        self._replace_payload(directory, flat)

    def test_rows_must_be_finite(self, corpus, tmp_path, capsys):
        """A NaN row passes a sum check (NaN > 1e-9 is false); the payload read refuses it."""
        self._edit_first_row(corpus, lambda row: row.fill(np.nan))
        self._rejects(corpus, tmp_path, capsys, r"sample_00001\.npy holds a non-finite value")

    def test_rows_must_be_non_negative(self, corpus, tmp_path, capsys):
        def shift(row):  # the row still sums to 1
            row[0] -= 0.5
            row[1] += 0.5

        self._edit_first_row(corpus, shift)
        self._rejects(corpus, tmp_path, capsys, r"sample_00001\.npy holds a negative value")

    def test_rows_must_normalize(self, corpus, tmp_path, capsys):
        def scale(row):
            row *= 1 + 1e-6

        self._edit_first_row(corpus, scale)
        self._rejects(corpus, tmp_path, capsys, r"sample_00001\.npy: step 0 rows do not sum to 1")

    def test_old_format_record_with_rows(self, corpus, tmp_path, capsys):
        def to_old_format(record):
            for key in ("layers", "query_heads", "steps", "sha256"):
                record.pop(key)
            record["rows"] = [[[[1.0]]]]

        self._edit_record(corpus, to_old_format)
        (corpus / "sample_00001.npy").unlink()
        self._rejects(corpus, tmp_path, capsys, "old format; regenerate it with `sparsemm corpus`")

    def test_missing_payload(self, corpus, tmp_path, capsys):
        (corpus / "sample_00001.npy").unlink()
        self._rejects(corpus, tmp_path, capsys, "cannot read corpus payload")

    def test_truncated_payload(self, corpus, tmp_path, capsys):
        data = (corpus / "sample_00001.npy").read_bytes()
        self._replace_payload(corpus, data=data[: len(data) - 8])
        self._rejects(corpus, tmp_path, capsys, "not a readable .npy")

    def test_payload_of_wrong_dtype(self, corpus, tmp_path, capsys):
        self._replace_payload(corpus, self._payload(corpus).astype(np.float32))
        self._rejects(corpus, tmp_path, capsys, "dtype float32")

    def test_two_dimensional_payload(self, corpus, tmp_path, capsys):
        self._replace_payload(corpus, self._payload(corpus).reshape(2, -1))
        self._rejects(corpus, tmp_path, capsys, "2-D")

    def test_payload_of_wrong_size(self, corpus, tmp_path, capsys):
        self._replace_payload(corpus, self._payload(corpus)[:-1])
        self._rejects(corpus, tmp_path, capsys, "holds .* values")

    def test_payload_sha256_mismatch(self, corpus, tmp_path, capsys):
        flat = self._payload(corpus).copy()
        flat[[0, 1]] = flat[[1, 0]]  # same values, same size, other bytes
        np.save(corpus / "sample_00001.npy", flat)
        self._rejects(corpus, tmp_path, capsys, "sha256")

    def test_swapped_payloads(self, corpus, tmp_path, capsys):
        first, second = corpus / "sample_00000.npy", corpus / "sample_00001.npy"
        a, b = first.read_bytes(), second.read_bytes()
        first.write_bytes(b)
        second.write_bytes(a)
        self._rejects(corpus, tmp_path, capsys, "sample_00000.npy does not match")


class TestCompressTraceValidation:
    """`compress` rejects a malformed trace record or payload with exit 2 and a structured error."""

    @pytest.fixture
    def files(self, tmp_path, capsys):
        trace, plan = tmp_path / "trace.json", tmp_path / "plan.json"
        assert main([
            "prefill", "--layers", "2", "--query-heads", "4", "--kv-heads", "2",
            "--planted", "0,1", "--seed", "3", "--prompt-len", "40", "--out-len", "2",
            "--window", "8", "--out", str(trace),
        ]) == 0
        assert main([
            "allocate", "--layers", "2", "--heads", "2", "--budget", str(4 * 16),
            "--window", "8", "--policy", "uniform", "--out", str(plan),
        ]) == 0
        capsys.readouterr()
        return trace, plan

    def _compress(self, trace, plan, capsys):
        code = main(["compress", "--trace", str(trace), "--plan", str(plan)])
        captured = capsys.readouterr()
        return code, captured

    def _rejects(self, trace, plan, capsys, error="InvalidInputError"):
        code, captured = self._compress(trace, plan, capsys)
        assert code == 2
        err = json.loads(captured.err)
        assert set(err) == {"error", "message"}
        assert err["error"] == error
        return err["message"]

    def _rewrite(self, trace, edit):
        blob = json.loads(trace.read_text())
        edit(blob)
        trace.write_text(json.dumps(blob))

    def _payload(self, trace):
        return np.load(trace.with_suffix(".npy"), allow_pickle=False)

    def _replace_payload(self, trace, array):
        """Write `array` as the trace's payload and point the record's sha256 at it."""
        np.save(trace.with_suffix(".npy"), array)
        digest = hashlib.sha256(trace.with_suffix(".npy").read_bytes()).hexdigest()
        self._rewrite(trace, lambda blob: blob.update(sha256=digest))

    def test_valid_trace_holds_scores(self, files, capsys):
        trace, plan = files
        blob = json.loads(trace.read_text())
        assert sorted(blob) == ["kv_heads", "layers", "prompt_len", "query_heads", "sha256", "window"]
        payload = trace.with_suffix(".npy")
        assert blob["sha256"] == hashlib.sha256(payload.read_bytes()).hexdigest()
        scores = self._payload(trace)
        assert scores.shape == (2, 2, 40 - 8) and scores.dtype == np.float64
        assert blob["kv_heads"] == 2
        code, captured = self._compress(trace, plan, capsys)
        assert code == 0
        summary = json.loads(captured.out)
        assert summary["total_kept"] == 4 * 16
        assert summary["total_slots_full"] == 2 * 2 * 40

    def test_non_json_trace(self, files, capsys):
        trace, plan = files
        trace.write_text('{"window_scores": [[')
        assert "not JSON" in self._rejects(trace, plan, capsys)

    def test_missing_trace_file(self, files, capsys):
        trace, plan = files
        trace.unlink()
        assert "cannot read" in self._rejects(trace, plan, capsys)

    @pytest.mark.parametrize(
        "key", ["sha256", "layers", "query_heads", "kv_heads", "prompt_len", "window"]
    )
    def test_missing_key(self, files, capsys, key):
        trace, plan = files
        self._rewrite(trace, lambda blob: blob.pop(key))
        assert key in self._rejects(trace, plan, capsys)

    def test_fields_of_wrong_type(self, files, capsys):
        trace, plan = files
        self._rewrite(trace, lambda blob: blob.update(prompt_len="40"))
        assert "counts" in self._rejects(trace, plan, capsys)
        self._rewrite(trace, lambda blob: blob.update(prompt_len=40, sha256=[1]))
        assert "sha256" in self._rejects(trace, plan, capsys)
        self._rewrite(trace, lambda blob: blob.update(kv_heads=0))
        assert "positive counts" in self._rejects(trace, plan, capsys)
        trace.write_text("[1, 2]")
        assert "JSON object" in self._rejects(trace, plan, capsys)

    def test_old_window_attention_trace(self, files, capsys):
        trace, plan = files

        def to_old_format(blob):
            blob.pop("sha256")
            blob["window_attention"] = np.full((2, 4, 8, 40), 1.0 / 40).tolist()

        self._rewrite(trace, to_old_format)
        trace.with_suffix(".npy").unlink()
        assert "old format; regenerate it with `sparsemm prefill`" in self._rejects(trace, plan, capsys)

    def test_old_window_scores_trace(self, files, capsys):
        """The format that held the window scores as JSON lists is retired too."""
        trace, plan = files
        scores = self._payload(trace).tolist()

        def to_old_format(blob):
            blob.pop("sha256")
            blob["window_scores"] = scores

        self._rewrite(trace, to_old_format)
        trace.with_suffix(".npy").unlink()
        message = self._rejects(trace, plan, capsys)
        assert "holds window_scores, the old format; regenerate it with `sparsemm prefill`" in message

    def test_flipped_payload_byte(self, files, capsys):
        trace, plan = files
        payload = trace.with_suffix(".npy")
        data = bytearray(payload.read_bytes())
        data[-3] ^= 0x10
        payload.write_bytes(bytes(data))
        message = self._rejects(trace, plan, capsys)
        assert f"trace payload {payload} does not match its record's sha256" in message

    def test_missing_payload(self, files, capsys):
        trace, plan = files
        trace.with_suffix(".npy").unlink()
        assert f"cannot read trace payload {trace.with_suffix('.npy')}" in self._rejects(trace, plan, capsys)

    def test_payload_of_wrong_dtype(self, files, capsys):
        trace, plan = files
        self._replace_payload(trace, self._payload(trace).astype(np.float32))
        assert "dtype float32, expected float64" in self._rejects(trace, plan, capsys)

    def test_scores_of_wrong_shape(self, files, capsys):
        trace, plan = files
        self._replace_payload(trace, np.zeros((2, 2, 31)))
        assert "implies shape (2, 2, 32)" in self._rejects(trace, plan, capsys)
        self._replace_payload(trace, np.zeros((2, 4, 32)))
        assert "implies shape (2, 2, 32)" in self._rejects(trace, plan, capsys)
        self._replace_payload(trace, np.zeros(2 * 2 * 32))
        assert "1-D array of 128 values" in self._rejects(trace, plan, capsys)
        # the declared geometry must fit the scores
        self._replace_payload(trace, np.zeros((2, 2, 32)))
        self._rewrite(trace, lambda blob: blob.update(layers=7))
        assert "implies shape (7, 2, 32)" in self._rejects(trace, plan, capsys)
        self._rewrite(trace, lambda blob: blob.update(layers=2, query_heads=3))
        assert "not divisible" in self._rejects(trace, plan, capsys, error="ShapeError")

    def test_non_finite_scores(self, files, capsys):
        trace, plan = files
        scores = self._payload(trace).copy()
        scores[1, 0, 5] = np.nan
        self._replace_payload(trace, scores)
        message = self._rejects(trace, plan, capsys)
        assert "finite" in message and "trace.npy" in message

    def test_negative_scores(self, files, capsys):
        trace, plan = files
        scores = self._payload(trace).copy()
        scores[0, 1, 2] = -1e-3
        self._replace_payload(trace, scores)
        message = self._rejects(trace, plan, capsys)
        assert f"trace payload {trace.with_suffix('.npy')} holds a negative value" in message
