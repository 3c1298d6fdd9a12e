import ast
import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from pgzo.bench import (ALGO_PRIORS, CSV_HEADER, Aggregate, RunConfig, aggregate_traces,
                        emit_csv, emit_svg, preset, read_csv, run_batch, run_single)
from pgzo.core import ConfigError
from pgzo.trace import RunTrace


def small_config(**kw):
    base = dict(function="f2", dim=20, algo="rgf", q=5, budget=250, lhat_scale=1.0,
                seeds=(0, 1, 2))
    base.update(kw)
    return RunConfig(**base)


def test_traces_end_within_one_iteration_of_budget():
    res = run_batch(small_config(seeds=tuple(range(10)), budget=11 * 50, q=11))
    for tr in res.traces:
        assert tr.final_queries <= 11 * 50
        assert 11 * 50 - tr.final_queries < 11


def test_single_seed_ci_degenerates():
    res = run_batch(small_config(seeds=(4,)))
    agg = res.aggregate
    np.testing.assert_array_equal(agg.lo, agg.mean)
    np.testing.assert_array_equal(agg.hi, agg.mean)


def test_aggregation_permutation_invariant():
    res = run_batch(small_config())
    fwd = aggregate_traces(res.traces)
    rev = aggregate_traces(res.traces[::-1])
    np.testing.assert_allclose(fwd.mean, rev.mean, atol=0)
    np.testing.assert_allclose(fwd.hi, rev.hi, atol=0)


def test_invalid_combos_rejected_with_reason():
    with pytest.raises(ConfigError, match="lhat"):
        RunConfig(function="f2", dim=10, algo="rgf", q=3, budget=100)
    with pytest.raises(ConfigError, match="algo"):
        RunConfig(function="f2", dim=10, algo="sgd", q=3, budget=100, lhat=1.0)
    with pytest.raises(ConfigError, match="runs with prior='none', got 'biased'"):
        RunConfig(function="f2", dim=10, algo="ars", q=3, budget=100, lhat=1.0,
                  prior="biased")
    with pytest.raises(ConfigError, match="absolute lhat"):
        run_single(RunConfig(function="f3", dim=10, algo="rgf", q=3, budget=100,
                             lhat_scale=1.0), 0)


@pytest.mark.parametrize("algo", list(ALGO_PRIORS))
def test_prior_follows_from_algo(algo):
    base = dict(function="f2", dim=10, algo=algo, q=3, budget=100, lhat=1.0)
    assert RunConfig(**base).prior == ALGO_PRIORS[algo]
    for other in {"none", "historical", "biased"} - {ALGO_PRIORS[algo]}:
        with pytest.raises(ConfigError, match=f"runs with prior='{ALGO_PRIORS[algo]}'"):
            RunConfig(**base, prior=other)


def test_target_met_at_start_stops_before_first_step():
    tr = run_single(small_config(target_log10=math.inf, stop_on_target=True), 0)
    assert len(tr.rows) == 1 and tr.rows[0][:3] == (0, 0, 0)
    assert tr.reached_queries == 0


def test_csv_round_trip_statistics(tmp_path):
    res = run_batch(small_config())
    path = str(tmp_path / "out.csv")
    emit_csv(res.traces, path)
    back = read_csv(path)
    back.sort(key=lambda t: t.seed)
    agg = aggregate_traces(back)
    assert np.allclose(res.aggregate.mean, agg.mean, rtol=0, atol=1e-12)
    assert np.allclose(res.aggregate.hi, agg.hi, rtol=0, atol=1e-12)


def test_csv_empty_traces_header_only(tmp_path):
    path = str(tmp_path / "empty.csv")
    emit_csv([], path)
    content = open(path).read()
    assert content == ",".join(CSV_HEADER) + "\n"


def test_csv_exact_float_round_trip(tmp_path):
    tr = RunTrace(seed=0, f0=1.0, f_star=0.0)
    tr.append(0, 0, 0, 1 / 3)
    tr.append(1, 7, 9, math.pi * 1e-8)
    path = str(tmp_path / "exact.csv")
    emit_csv([tr], path)
    back = read_csv(path)[0]
    assert back.rows[0][3] == 1 / 3
    assert back.rows[1][3] == math.pi * 1e-8


@pytest.mark.parametrize("line, detail", [("0,1,11,12,0.5", "got 4"),
                                          ("x,0,0,0,1,0,,,", "invalid literal"),
                                          ("0,,0,0,1,0,,,", "counts must be finite")])
def test_read_csv_rejects_a_malformed_row_naming_path_and_line(tmp_path, line, detail):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(CSV_HEADER) + "\n0,0,0,0,1,0,,,\n" + line + "\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}, line 3: ") + f".*{detail}"):
        read_csv(str(path))


def test_svg_structure_two_series(tmp_path):
    grid = np.arange(0.0, 100.0, 10.0)
    a = Aggregate(grid=grid, mean=-grid / 50, lo=-grid / 50 - 0.1, hi=-grid / 50 + 0.1,
                  label="alpha")
    b = Aggregate(grid=grid, mean=-grid / 25, lo=-grid / 25 - 0.1, hi=-grid / 25 + 0.1,
                  label="beta")
    path = str(tmp_path / "plot.svg")
    emit_svg([a, b], path)
    svg = open(path).read()
    assert svg.count('<polyline class="mean"') == 2
    assert svg.count('<path class="band"') == 2
    assert svg.startswith("<svg")
    assert "alpha" in svg and "beta" in svg


def test_svg_text_is_escaped(tmp_path):
    grid = np.arange(0.0, 30.0, 10.0)
    agg = Aggregate(grid=grid, mean=-grid, lo=-grid - 0.1, hi=-grid + 0.1, label="a<b & c>d")
    path = str(tmp_path / "escaped.svg")
    emit_svg([agg], path)
    texts = [el.text for el in ET.parse(path).getroot().iter() if el.tag.endswith("text")]
    assert "a<b & c>d" in texts


def test_preset_configs_valid():
    names = ("fig1_f1", "fig1_f2", "fig1_f3", "fig2_f1", "fig2_f2", "fig2_f4")
    for name in names:
        cfgs = preset(name)
        assert len(cfgs) >= 5
        labels = [c.label for c in cfgs]
        assert len(set(labels)) == len(labels)
    with pytest.raises(ConfigError):
        preset("fig9_f9")


def test_preset_fig1_f2_settings():
    cfgs = {c.label: c for c in preset("fig1_f2")}
    assert cfgs["RGF"].q == 11 and cfgs["PRGF"].q == 10 and cfgs["PARS"].q == 8
    assert cfgs["ARS"].tau_hat == "true"
    assert cfgs["PRGF"].prior == "biased"
    assert all(c.dim == 256 for c in cfgs.values())


def test_preset_fig2_f2_settings():
    cfgs = {c.label: c for c in preset("fig2_f2")}
    assert "RGF-0.02" in cfgs and cfgs["RGF-0.02"].lhat_scale == 50.0
    assert cfgs["History-PARS"].restart is True
    assert cfgs["History-PARS"].tau_hat == 0.0
    assert all(c.dim == 500 for c in cfgs.values())


def test_preset_rerun_byte_identical(tmp_path):
    cfg = preset("fig1_f2")[0]
    cfg.budget = 11 * 20
    cfg.seeds = (0, 1)
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    emit_csv(run_batch(cfg).traces, p1)
    emit_csv(run_batch(cfg).traces, p2)
    assert open(p1).read() == open(p2).read()


def test_emit_csv_bad_path_raises_oserror():
    res = run_batch(small_config(seeds=(0,)))
    with pytest.raises(OSError, match="no/such/dir"):
        emit_csv(res.traces, "/no/such/dir/out.csv")


def hand_trace(seed, points):
    tr = RunTrace(seed=seed, f0=1.0, f_star=0.0)
    for it, (q, f) in enumerate(points):
        tr.append(it, q, q, f)
    return tr


@pytest.mark.parametrize("order", [1, -1])
def test_aggregate_uses_union_of_query_grids(order):
    short = hand_trace(0, [(0, 1.0), (10, 0.1), (20, 0.01)])
    long = hand_trace(1, [(0, 1.0), (5, 0.1), (15, 0.001), (25, 1e-5)])
    agg = aggregate_traces([short, long][::order])
    np.testing.assert_array_equal(agg.grid, [0, 5, 10, 15, 20, 25])
    # each trace carries its last value forward past its own end
    np.testing.assert_allclose(agg.mean, [0.0, -0.5, -1.0, -2.0, -2.5, -3.5], atol=1e-12)
    # ... but counts as running only up to its own last row
    np.testing.assert_array_equal(agg.n_running, [2, 2, 2, 2, 2, 1])


def test_band_reaches_target_when_every_seed_does():
    res = run_batch(RunConfig(function="f2", dim=64, algo="rgf", q=11, budget=33000,
                              lhat_scale=1.0, seeds=(2, 0, 1), target_log10=-1.0,
                              stop_on_target=True))
    assert all(tr.reached_queries is not None for tr in res.traces)
    assert res.aggregate.grid[-1] == max(tr.final_queries for tr in res.traces)
    assert res.aggregate.mean[-1] <= -1.0
    # the seeds stopped at different query counts: the count falls from 3 to
    # the number of seeds that ran longest
    finals = sorted(tr.final_queries for tr in res.traces)
    n_running = res.aggregate.n_running
    assert n_running[0] == 3 and np.all(np.diff(n_running) <= 0)
    assert n_running[-1] == finals.count(finals[-1])
    np.testing.assert_array_equal(n_running[res.aggregate.grid > finals[0]] < 3, True)


@pytest.mark.parametrize("n", [2, 3, 10])
def test_band_half_width_is_the_t_quantile_bit_for_bit(n):
    # aggregate_traces takes the quantile from scipy.special, not scipy.stats;
    # the band must not move by a bit.
    from scipy import stats
    res = run_batch(small_config(seeds=tuple(range(n))))
    agg = res.aggregate
    mat = np.array([tr.column("log10_rel_err") for tr in res.traces])
    half = stats.t.ppf(0.975, n - 1) * mat.std(axis=0, ddof=1) / math.sqrt(n)
    np.testing.assert_array_equal(agg.mean, mat.mean(axis=0))
    np.testing.assert_array_equal(agg.hi, agg.mean + half)
    np.testing.assert_array_equal(agg.lo, agg.mean - half)


SRC = Path(__file__).resolve().parent.parent / "src"

IMPORT_GUARD = """
import json, sys
import pgzo, pgzo.bench, pgzo.cli, pgzo.diagnostics
from pgzo.core import RngHandle
from pgzo.greedy import GreedyConfig, run_greedy
from pgzo.testfns import bench_function

def loaded():
    return [m for m in ("scipy.linalg", "scipy.special", "scipy._lib._array_api", "scipy.stats")
            if m in sys.modules]

after_import = loaded()
fn = bench_function("f1", 12)
run_greedy(fn.as_objective(), GreedyConfig(L_hat=fn.L, q=3, budget=60), 0)
pgzo.diagnostics.mc_rgf_drift(12, 3, 1000, RngHandle(0))
after_library = loaded()
pgzo.cli.run_from_settings({"function": "f2", "dim": 12, "algo": "rgf", "q": 3,
                            "lhat_scale": 1.0, "budget": 60, "seeds": (0, 1),
                            "out": sys.argv[1]})
print(json.dumps([after_import, after_library, loaded()]))
"""


def run_fresh(code: str, *args: str) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports pgzo from
    ``src``, so that no other test's imports count."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    child = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                           text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    return child.stdout


def test_scipy_stats_never_loaded(tmp_path):
    # The import, a library run (f1 takes its constants from LAPACK, the run
    # builds frames), a Monte-Carlo check and a CLI run, which aggregates two
    # seeds, load none of scipy.linalg, scipy.special, the array-API layer
    # their inits share or scipy.stats: pgzo loads scipy's LAPACK and
    # special-function extensions directly. The aggregate would also execute
    # any lazy import of scipy.stats.
    after_import, after_library, after_run = json.loads(
        run_fresh(IMPORT_GUARD, str(tmp_path / "run")))
    assert after_import == [], f"importing pgzo loaded {after_import}"
    assert after_library == [], f"a library run or check loaded {after_library}"
    assert after_run == [], f"a CLI run loaded {after_run}"
    assert (tmp_path / "run.csv").is_file()


# Aggregate 2, 3 and 10 synthetic traces with scipy.special imported before
# or after pgzo, then use scipy.special and scipy.stats as a caller would.
SPECIAL_INTEROP = """
import json, math, sys
import numpy as np
if sys.argv[1] == "scipy_first":
    import scipy.special
from pgzo.bench import aggregate_traces
from pgzo.core import load_special_ufuncs
from pgzo.trace import RunTrace
rng = np.random.default_rng(5)
bands = {}
for n in (2, 3, 10):
    traces = [RunTrace(seed=s, rows=[(0, q, 0, math.nan, v, math.nan, math.nan, math.nan)
                                     for q, v in zip((0, 4, 8), rng.normal(size=3))])
              for s in range(n)]
    agg = aggregate_traces(traces)
    mat = np.array([tr.column("log10_rel_err") for tr in traces])
    bands[n] = (agg, mat)
ufuncs = load_special_ufuncs()
placeholder_left = "scipy.special" in sys.modules and not hasattr(sys.modules["scipy.special"],
                                                                  "__file__")
import scipy.special
from scipy import stats
band_is_ppf = [bool(np.array_equal(agg.hi - agg.mean, stats.t.ppf(0.975, n - 1)
                                   * mat.std(axis=0, ddof=1) / math.sqrt(n)))
               for n, (agg, mat) in bands.items()]
print(json.dumps({"placeholder_left": placeholder_left,
                  "init_ran": scipy.special.__file__.endswith("__init__.py"),
                  "same": [scipy.special._ufuncs is ufuncs,
                           scipy.special.stdtrit is ufuncs.stdtrit],
                  "ppf": [float(stats.t.ppf(0.975, df)) == float(ufuncs.stdtrit(df, 0.975))
                          for df in (1, 2, 9)],
                  "band_is_ppf": band_is_ppf}))
"""


@pytest.mark.parametrize("order", ["pgzo_first", "scipy_first"])
def test_scipy_special_after_an_aggregate_is_the_one_pgzo_used(order):
    # pgzo loads scipy.special's ufuncs under a placeholder package that it
    # removes again; a later import of scipy.special runs the real init and
    # hands out the same stdtrit, and scipy.stats' t quantile equals the
    # band's. If scipy.special came first, pgzo takes its ufuncs as they are.
    out = json.loads(run_fresh(SPECIAL_INTEROP, order))
    assert out["placeholder_left"] is False
    assert out["init_ran"] is True
    assert out["same"] == [True, True]
    assert out["ppf"] == [True] * 3
    assert out["band_is_ppf"] == [True] * 3


def test_no_module_imports_scipy_stats():
    # Also an import inside a function that no test reaches.
    for path in sorted((SRC / "pgzo").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            assert not any(n.startswith("scipy.stats") for n in names), \
                f"{path.name}:{node.lineno} imports scipy.stats"
