"""Each benchmark workload's pass at seed offset 0 gives its recorded reference rows.

`perfbench/workloads.py` holds the three workloads, the argv of one pass and
the checks of its rows; `perfbench/reference/<name>.json` holds the rows
recorded at offset 0. Here one pass of each runs through `cli.main` in a
temporary directory, so a change that moves a benchmark's rows fails the
tests, not only the benchmark. `perfbench/` is only read.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from sparsemm import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up in sys.modules while it is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


# mask-default's top cells split their budget uniformly, by design, and say so
@pytest.mark.filterwarnings("ignore:all-zero scores")
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pass_matches_its_reference(name, tmp_path, capsys):
    workload = workloads.WORKLOADS[name]
    commands, _ = workload.prepare(tmp_path, 0)
    out = tmp_path / "out"
    out.mkdir()
    capsys.readouterr()
    for argv in commands:
        assert cli.main([arg.replace("{out}", str(out)) for arg in argv]) == 0
    summaries = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    rows = workload.rows(out, summaries)
    reference = json.loads((PERFBENCH / "reference" / f"{name}.json").read_text())["rows"]
    assert workloads.check(workload, rows, reference) == []
    assert workloads.check(workload, workloads.corrupted(workload, rows), reference)
