"""One module per pipeline layer of sparsemm.

Each module declares `METRICS` (per-layer metric name -> unit) and
`install(tracer)`, which wraps that layer's public functions at their call
sites. A module may also define `finish(figures)` to derive ratios from one
pass's figures. `tensor` has no module: no workload reaches it.
"""

from . import allocator, bench, cache, chaser, cli, simmodel

LAYERS = (simmodel, chaser, allocator, cache, bench, cli)
