"""The bytes that `sparsemm bench sweep|rho|mask|cost` writes, pinned by sha256.

Each experiment runs through the CLI at two small configs, one multi-head
(4x4) and one grouped-query (2 layers, 8 query heads over 2 kv heads, planted
by fraction), and the sha256 of its `<name>.csv` and `<name>.json` must equal
the recorded values. A change that means to keep the arithmetic and the
writers' output keeps these digests; a change that alters rows on purpose
re-records them and names the rows that moved. The fix that stops recovery
from counting zero-scored heads (ROADMAP item 2) moves `mask` rows, so it
re-records the `mask` digests.
"""

import hashlib
import json

import pytest

from sparsemm.cli import main

CONFIGS = {
    "mha-4x4": {
        "geometry": {"layers": 4, "query_heads": 4},
        "planted": {"pairs": [[0, 1], [2, 3]], "strength": 0.8},
        "corpus_size": 4,
        "budgets_per_head": [40, 64],
        "rhos": [0.0, 0.5, 1.0],
        "mask_fractions": [0.0, 0.1, 0.25],
        "seeds": [0, 1],
        "prompt_len": 128,
        "out_len": 3,
        "cost_lengths": [256, 1024],
    },
    "gqa-2x8-2kv": {
        "geometry": {"layers": 2, "query_heads": 8, "kv_heads": 2},
        "planted": {"fraction": 0.25, "strength": 0.9},
        "corpus_size": 3,
        "budgets_per_head": [36],
        "policies": ["sparsemm", "uniform", "pyramid", "random", "ada"],
        "rhos": [0.1, 1.0],
        "mask_fractions": [0.0, 0.125],
        "seeds": [3],
        "prompt_len": 96,
        "out_len": 4,
        "window": 16,
        "rho": 0.25,
        "cost_out_len": 20,
        "cost_budget_per_head": 64,
    },
}

# recorded before the CSV and JSON writers moved into `artifacts`
DIGESTS = {
    ("gqa-2x8-2kv", "sweep"): {
        "csv": "f9f1e679a7c8fb98d1cd856d51e7e76202c60f8569f9d3db36e26cfe1fbee900",
        "json": "72bc689ac68db108893be7d4accdf1166e66f789eff4aa97f2bbdadf0dcd7b3c",
    },
    ("gqa-2x8-2kv", "rho"): {
        "csv": "92fba7401f0935682285a96811f8e738add6c57fdbc0e6292ed89a122b66c1dd",
        "json": "516cb2c55fb3fbb072192e3482579c5467639f83ea453e7fd9348d07d0ff035a",
    },
    ("gqa-2x8-2kv", "mask"): {
        "csv": "d65d4f92ee5d99419516c65291f9cf2326015caae6b787f90097c18b9bf280b5",
        "json": "a3dc39a1ae49cb2c73ee89c284a33c2c850abb19388d7f2711dc6213149b0593",
    },
    ("gqa-2x8-2kv", "cost"): {
        "csv": "a1d63888cc10d846aaf6fc0f082c77de4eebdb6b9680c640d423b63a55988ea3",
        "json": "4f0080b70e1bbecf9518e01280af0231f9431f022906522be2bf738532e49c84",
    },
    ("mha-4x4", "sweep"): {
        "csv": "cf433d0ebfc7055a053ea4cafaec1b1dbb17622ed26a24ac3602ece5b860d278",
        "json": "c4c0187111e87130b709c61ad8c9f273052725fc3ecd0832968f8309e3813147",
    },
    ("mha-4x4", "rho"): {
        "csv": "30b71749c77d8486363034945d144f75317f263f3946da59bef76772fd70500a",
        "json": "2953429a67a67aa97c4d9149e1a7fae6b6ea7c8ef38a01eae8fb95f65c0a85c6",
    },
    ("mha-4x4", "mask"): {
        "csv": "9092c7104b62a6da95c2ffe36d6c10a8eadb1228550db6805723609727123bf4",
        "json": "36dcf16d3c64a4ae5dee201a1fc31d5d9bd326696207f5a61592e6c4e9952fca",
    },
    ("mha-4x4", "cost"): {
        "csv": "2a44fe7658e18803e948921a744ee961463e2b132e8eb2a15525ce01dd43d8bc",
        "json": "d493b8ab323562d3ad0a052716f4dcb16abf798301733c2465e0df5c954ba6ec",
    },
}


# the MHA config's top-25% mask cell masks both planted heads, so its scores are all zero
@pytest.mark.filterwarnings("ignore:all-zero scores")
@pytest.mark.parametrize("experiment", ["sweep", "rho", "mask", "cost"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_bench_output_bytes(tmp_path, capsys, name, experiment):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIGS[name]))
    out_dir = tmp_path / "out"
    assert main(["bench", experiment, "--config", str(config), "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    written = {
        suffix: hashlib.sha256((out_dir / f"{experiment}.{suffix}").read_bytes()).hexdigest()
        for suffix in ("csv", "json")
    }
    assert written == DIGESTS[name, experiment]
