"""chaser: head chasing over a corpus and GQA score aggregation."""

from sparsemm import bench, cli

METRICS = {
    "chaser.chase.calls": "count",
    "chaser.chase.self_s": "s",
    "chaser.tokens_scored": "count",
    "chaser.tokens_skipped": "count",
    "chaser.gqa.self_s": "s",
}


def install(tr) -> None:
    def tokens(result, *args, **kwargs):
        scores, skipped = result
        tr.count("chaser.tokens_scored", scores.corpus_tokens)
        tr.count("chaser.tokens_skipped", skipped)

    for caller in (bench, cli):
        tr.wrap(caller, "chase_corpus", "chaser.chase", tokens)
        tr.wrap(caller, "aggregate_gqa_scores", "chaser.gqa")
