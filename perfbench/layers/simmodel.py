"""simmodel: corpus generation, decode-workload building, decode replay."""

import numpy as np

from sparsemm import bench, cli
from sparsemm.simmodel import SyntheticModel

MIB = float(1 << 20)

METRICS = {
    "simmodel.corpus.calls": "count",
    "simmodel.corpus.self_s": "s",
    "simmodel.corpus.samples": "count",
    "simmodel.workload.calls": "count",
    "simmodel.workload.self_s": "s",
    "simmodel.workload.mib": "MiB-computed",
    "simmodel.replay.calls": "count",
    "simmodel.replay.self_s": "s",
}


def array_bytes(obj) -> int:
    """Bytes of every ndarray held by a dataclass, directly or in a tuple."""
    total = 0
    for value in vars(obj).values():
        items = value if isinstance(value, (tuple, list)) else (value,)
        total += sum(v.nbytes for v in items if isinstance(v, np.ndarray))
    return total


def install(tr) -> None:
    def samples(result, *args, **kwargs):
        tr.count("simmodel.corpus.samples", len(result))

    def workload_mib(result, *args, **kwargs):
        tr.count("simmodel.workload.mib", array_bytes(result) / MIB)

    for caller in (bench, cli):
        tr.wrap(caller, "generate_ocr_samples", "simmodel.corpus", samples)
    tr.wrap(SyntheticModel, "decode_workload", "simmodel.workload", workload_mib)
    tr.wrap(bench, "replay_decode", "simmodel.replay")
