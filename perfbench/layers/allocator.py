"""allocator: score -> integer budget plans.

The all-zero-score fallback is only a UserWarning in the program, so it is
counted by catching that warning around each call.
"""

import warnings

from sparsemm import bench, cli

METRICS = {
    "allocator.plans": "count",
    "allocator.allocate.self_s": "s",
    "allocator.zero_score_fallbacks": "count",
}


def install(tr) -> None:
    for caller in (bench, cli):
        if not tr.has(caller, "allocate"):
            continue
        original = caller.allocate

        def counted(*args, _original=original, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with tr.span("allocator.allocate"):
                    plan = _original(*args, **kwargs)
            tr.count("allocator.plans")
            tr.count(
                "allocator.zero_score_fallbacks",
                sum(issubclass(w.category, UserWarning) and "all-zero" in str(w.message)
                    for w in caught),
            )
            return plan

        tr.patch(caller, "allocate", counted)
