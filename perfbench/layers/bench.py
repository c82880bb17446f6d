"""bench: the packaged experiments and their CSV/JSON row writers.

`bench.run` self time includes grounding and recovery, which are private
helpers of the experiment and not wrapped.
"""

import os

from sparsemm import bench

METRICS = {
    "bench.run.self_s": "s",
    "bench.rows": "count",
    "bench.write.self_s": "s",
    "bench.bytes_written": "B-computed",
}

EXPERIMENTS = ("run_budget_sweep", "run_rho_sweep", "run_masking_study", "run_cost_model")
WRITERS = ("write_rows_csv", "write_rows_json")


def install(tr) -> None:
    def rows(result, *args, **kwargs):
        tr.count("bench.rows", len(result))

    def written(result, path, *args, **kwargs):
        tr.count("bench.bytes_written", os.path.getsize(path))

    # cli reaches these through the module attribute (`bench.run_budget_sweep`)
    for name in EXPERIMENTS:
        tr.wrap(bench, name, "bench.run", rows)
    for name in WRITERS:
        tr.wrap(bench, name, "bench.write", written)
