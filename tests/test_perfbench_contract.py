"""perfbench's per-layer split (``python3 perfbench/run.py --trace 1``) wraps
pgzo functions by name from outside ``src/``: ``bench.run_greedy``,
``bench.run_ars``, ``build_frame`` and ``probe`` as ``pgzo.greedy`` and
``pgzo.ars`` bind them, the biased prior feed and ``RunTrace.append``, which
logs every trace row. A renamed or bypassed one
would leave its layer empty without an error; this test notices. It looks
up ``build_frame``, ``bench_function`` and ``run_greedy`` in
``pgzo.diagnostics`` by name as well, so removing one breaks a traced run."""

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import pgzo.bench as bench  # noqa: E402
import pgzo.diagnostics as diag  # noqa: E402
from pgzo.core import RngHandle  # noqa: E402
from perfbench.tracing import SpanLog, instrument  # noqa: E402


def test_traced_layers_see_both_families():
    log = SpanLog()
    with instrument(log, "layers"):
        traces = [bench.run_single(bench.RunConfig(function="f2", dim=10, algo=algo, q=3,
                                                   budget=40, lhat_scale=1.0), 0)
                  for algo in ("prgf", "pars_naive")]
    greedy_iters = log.counts["greedy.run_greedy.iterations"]
    ars_iters = log.counts["ars.run_ars.iterations"]
    assert greedy_iters > 0 and ars_iters > 0
    sp = log.spans()
    calls = Counter(sp.names[i] for i in sp.name)
    # one frame, one probe and one prior-feed call per iteration of either family
    for layer in ("frames.build_frame", "frames.probe", "testfns.prior_feed"):
        assert calls[layer] == greedy_iters + ars_iters, layer
    # every logged row goes through RunTrace.append, the trace.append layer
    assert calls["trace.append"] == sum(len(tr.rows) for tr in traces) > 0


def _diagnostics_pass():
    return (diag.mc_g2_moments(20, 4, 0.5, 100, RngHandle(0)),
            diag.check_lemma36(20, 4, 10.0, 30, seed=0),
            diag.subspace_optimality_margin(3, 2, 10, RngHandle(1), n_trials=3))


def test_traced_diagnostics_match_untraced():
    for attr in ("build_frame", "bench_function", "run_greedy"):
        assert attr in diag.__dict__, attr
    untraced = _diagnostics_pass()
    log = SpanLog()
    with instrument(log, "layers"):
        traced = _diagnostics_pass()
    assert traced == untraced
    sp = log.spans()
    calls = Counter(sp.names[i] for i in sp.name)
    assert calls["greedy.run_greedy"] == 1 and calls["testfns.bench_function"] == 1
    # the Monte-Carlo frames are built in blocks, past the per-frame hook:
    # only the 30 greedy iterations and the 3 margin trials show up there
    assert calls["frames.build_frame"] == 30 + 3
    assert 0 < calls["frames.g2_unbiased"] < 100
