"""perfbench's per-layer split (``python3 perfbench/run.py --trace 1``) wraps
pgzo functions by name from outside ``src/``: ``bench.run_greedy``,
``bench.run_ars``, ``build_frame`` and ``probe`` as ``pgzo.greedy`` and
``pgzo.ars`` bind them, and the biased prior feed. A renamed or bypassed one
would leave its layer empty without an error; this test notices."""

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import pgzo.bench as bench  # noqa: E402
from perfbench.tracing import SpanLog, instrument  # noqa: E402


def test_traced_layers_see_both_families():
    log = SpanLog()
    with instrument(log, "layers"):
        for algo in ("prgf", "pars_naive"):
            bench.run_single(bench.RunConfig(function="f2", dim=10, algo=algo, q=3,
                                             budget=40, lhat_scale=1.0), 0)
    greedy_iters = log.counts["greedy.run_greedy.iterations"]
    ars_iters = log.counts["ars.run_ars.iterations"]
    assert greedy_iters > 0 and ars_iters > 0
    sp = log.spans()
    calls = Counter(sp.names[i] for i in sp.name)
    # one frame, one probe and one prior-feed call per iteration of either family
    for layer in ("frames.build_frame", "frames.probe", "testfns.prior_feed"):
        assert calls[layer] == greedy_iters + ars_iters, layer
