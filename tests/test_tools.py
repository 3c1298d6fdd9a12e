"""The scripts under ``tools/``: each answers ``--help``, and ``tools/ab.py``,
the A/B harness, measures two trees as it says. The README's library example
runs as written.

The harness is driven here without git and without perfbench: its sides are
two stub ``src/pgzo`` packages of one line each (so that a child starts in
tens of milliseconds), and its cases are tiny probes. The ``preset`` suite's
probe runs on this checkout's ``src`` at a budget of three iterations, the
``opcodes`` suite's at a few dozen."""

import importlib.util
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"
_spec = importlib.util.spec_from_file_location("ab", TOOLS / "ab.py")
ab = sys.modules["ab"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


@pytest.mark.parametrize("tool", sorted(p.name for p in TOOLS.glob("*.py")))
def test_tool_answers_help(tool):
    child = subprocess.run([sys.executable, str(TOOLS / tool), "--help"], capture_output=True,
                           text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert "usage:" in child.stdout


def test_readme_library_example_runs(tmp_path):
    section = (ROOT / "README.md").read_text().split("\n## Library example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           timeout=120, cwd=tmp_path,
                           env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert child.returncode == 0, child.stderr
    assert len(child.stdout.splitlines()) == 2  # one line per run


def stub_trees(tmp_path, values):
    """side -> a tree whose ``src/pgzo`` knows its side and a value."""
    trees = {}
    for side, value in values.items():
        pkg = tmp_path / side / "src" / "pgzo"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text(f"SIDE = {side!r}\nVALUE = {value!r}\n")
        trees[side] = tmp_path / side
    return trees


# appends its side to a log, so the n-th run of the test reads n lines
LOGGING_PROBE = """
import pathlib, pgzo
log = pathlib.Path(args)
with log.open("a") as fh:
    fh.write(pgzo.SIDE + "\\n")
n = len(log.read_text().splitlines())
print('{"lo": -1.0, "hi": -1.0}')
out = {"lo": pgzo.VALUE, "hi": pgzo.VALUE, "tie": 0.5, "nth": n * pgzo.VALUE}
"""


def test_pairs_alternate_and_are_summarized(tmp_path):
    trees = stub_trees(tmp_path, {"base": 1.0, "head": 2.0})
    log = tmp_path / "order.log"
    suite = ab.Suite({"case": ab.probe(LOGGING_PROBE, str(log))},
                     {"lo": "lower", "hi": "higher", "tie": "lower", "nth": "lower"})
    cases = ab.measure(suite, trees, pairs=4)
    assert log.read_text().split() == ["base", "head", "head", "base"] * 2
    metrics = cases["case"]["metrics"]
    # only the last line counts: the decoy line's -1.0 never shows
    assert [r["lo"] for r in cases["case"]["runs"]["base"]] == [1.0] * 4
    assert metrics["lo"]["won"] == {"base": 4, "head": 0}
    assert metrics["hi"]["won"] == {"base": 0, "head": 4}
    assert metrics["tie"]["won"] == {"base": 0, "head": 0}
    # the base side ran 1st, 4th, 5th and 8th; the head side (value 2) the rest
    expected = {"base": [1.0, 4.0, 5.0, 8.0], "head": [4.0, 6.0, 12.0, 14.0]}
    for side, values in expected.items():
        assert [r["nth"] for r in cases["case"]["runs"][side]] == values
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
        assert metrics["nth"][side] == {"median": med, "q1": q1, "q3": q3}
    assert metrics["nth"]["head_over_base"] == 9.0 / 4.5
    assert ab.report(cases) == 0


def test_ties_count_for_neither_side(tmp_path):
    trees = stub_trees(tmp_path, {"base": 1.0, "head": 3.0})
    # a pair's first run reads 3, its second run the side's value
    body = """
import pathlib, pgzo
log = pathlib.Path(args)
first = not log.exists() or len(log.read_text().splitlines()) % 2 == 0
with log.open("a") as fh:
    fh.write(pgzo.SIDE + "\\n")
out = {"m": 3.0 if first else pgzo.VALUE}
"""
    suite = ab.Suite({"case": ab.probe(body, str(tmp_path / "log"))}, {"m": "higher"})
    cases = ab.measure(suite, trees, pairs=3)
    # base 3 vs head 3, head 3 vs base 1, base 3 vs head 3
    assert [r["m"] for r in cases["case"]["runs"]["base"]] == [3.0, 1.0, 3.0]
    assert cases["case"]["metrics"]["m"]["won"] == {"base": 0, "head": 1}


def test_child_importing_pgzo_from_elsewhere_fails(tmp_path):
    trees = stub_trees(tmp_path, {"base": 1.0, "head": 1.0, "elsewhere": 1.0})
    body = "sys.path.insert(0, args)\nimport pgzo\nout = {}"
    suite = ab.Suite({"case": ab.probe(body, str(trees.pop("elsewhere") / "src"))}, {})
    with pytest.raises(SystemExit, match="outside"):
        ab.measure(suite, trees, pairs=1)


def test_result_mismatch_exits_nonzero(tmp_path):
    suite = ab.Suite({"case": ab.probe('import pgzo\nout = {"result": repr(pgzo.VALUE)}')}, {},
                     match=("result",))
    same = ab.measure(suite, stub_trees(tmp_path / "same", {"base": 1.0, "head": 1.0}), 2)
    assert same["case"]["match"] == {"result": True}
    assert ab.report(same) == 0
    differ = ab.measure(suite, stub_trees(tmp_path / "differ", {"base": 1.0, "head": 1.5}), 2)
    assert differ["case"]["match"] == {"result": False}
    assert ab.report(differ) == 1


def test_failing_child_fails_the_harness(tmp_path):
    suite = ab.Suite({"case": ab.probe("raise SystemExit(3)")}, {})
    with pytest.raises(SystemExit, match="exited 3"):
        ab.measure(suite, stub_trees(tmp_path, {"base": 1.0, "head": 1.0}), pairs=1)


def test_algos_suite_times_every_algorithm_at_both_dimensions():
    # the table of ROADMAP aim 1: each algorithm at d = 256 and d = 500, with
    # the dd-queries per iteration its config charges
    from pgzo.ars import ArsConfig
    from pgzo.bench import ALGO_PRIORS, ARS_ALGOS
    from pgzo.greedy import GreedyConfig
    assert set(ab.ALGOS) == set(ALGO_PRIORS)
    for algo, (q, _, cost) in ab.ALGOS.items():
        family = ArsConfig if algo in ARS_ALGOS else GreedyConfig
        assert family(L_hat=1.0, q=q, budget=cost, algo=algo).queries_per_iteration == cost
    assert set(ab.SUITES["algos"].cases) == {f"{a} d={d}" for a in ab.ALGOS for d in (256, 500)}
    assert set(ab.SUITES["algos"].better) == {"us_per_iter", "dd_queries_per_s", "max_rss_mb"}


def test_algos_probe_reports_both_rates(tmp_path):
    (tmp_path / "side").mkdir()
    (tmp_path / "side" / "src").symlink_to(ROOT / "src")
    body = ab.ALGOS_RUN.replace("cost * 1500", "cost * 3")
    out = ab.run_child(tmp_path / "side", ab.probe(body, ["history_prgf", 20, 3, "historical", 4]),
                       0)
    # three iterations of four dd-queries each
    assert out["dd_queries_per_s"] * out["us_per_iter"] == pytest.approx(4e6)


def test_mc_batch_times_perfbench_bound_check_shapes():
    plain = ab.MC_CASES["theorem_bounds(50,5)"]
    hist = ab.MC_CASES["theorem_bounds(50,5,hist)"]
    assert plain[:2] == ("check_theorem_bounds", [50, 5, [100]])
    assert hist[:2] == ("check_theorem_bounds", [50, 5, [50, 100]])
    assert plain[3] == {"seeds": list(range(20))}
    assert hist[3] == {"seeds": list(range(20)), "L_hat_mult": 50.0, "historical": True}
    assert plain[4] == hist[4] == 20 * 100  # seed-iterations
    assert ab.SUITES["mc_batch"].match == ("result",)


def test_timing_suites_default_to_ten_pairs():
    # a gain counts only if it wins nine of ten pairs; six could not resolve
    # a 20 % change in mc_batch
    for name in ("algos", "mc_batch", "perfbench"):
        assert ab.SUITES[name].pairs == 10


def test_mc_batch_digests_each_result_and_any_difference_fails(tmp_path):
    # stub sides whose Monte-Carlo "check" returns a float one ulp apart
    trees = stub_trees(tmp_path, {"base": 1.0, "head": 1.0, "ulp": math.nextafter(1.0, 2.0)})
    for tree in trees.values():
        (tree / "src" / "pgzo" / "core.py").write_text("RngHandle = int\n")
        (tree / "src" / "pgzo" / "diagnostics.py").write_text(
            "from . import VALUE\ndef mc_stub(n, rng):\n    return n * VALUE, rng\n")
    suite = ab.Suite({"case": ab.probe(ab.MC_BATCH, ["mc_stub", [3], [1], {}, 3])}, {},
                     match=("result",))
    cases = ab.measure(suite, {"base": trees["base"], "head": trees["head"]}, 1)
    [run] = cases["case"]["runs"]["base"]
    assert len(run["result"]) == 64 and set(run["result"]) <= set("0123456789abcdef")  # SHA-256
    assert cases["case"]["match"] == {"result": True}
    cases = ab.measure(suite, {"base": trees["base"], "head": trees["ulp"]}, 1)
    assert cases["case"]["match"] == {"result": False}
    assert ab.report(cases) == 1


def test_import_suite_batch_aggregates_two_seeds(tmp_path):
    # the cli_batch case runs this batch in a fresh interpreter after the import
    from pgzo.cli import run_from_settings
    [result] = run_from_settings(dict(ab.IMPORT_CASES["cli_batch"], out=str(tmp_path / "run")))
    assert [tr.seed for tr in result.traces] == [0, 1]
    assert (tmp_path / "run.csv").is_file() and (tmp_path / "run.svg").is_file()


def test_preset_suite_hashes_every_file_the_cli_writes(tmp_path):
    # the preset case's probe, at a budget of three iterations, in a tree whose src is this one's
    (tmp_path / "side").mkdir()
    (tmp_path / "side" / "src").symlink_to(ROOT / "src")
    argv = ab.PRESET_CASES["fig2_f2"] + ["--budget", "33"]
    first, second = (ab.run_child(tmp_path / "side", ab.probe(ab.PRESET, argv), 0)
                     for _ in range(2))
    written = sorted(p.name for p in (tmp_path / "side" / "preset").iterdir())
    assert len(written) == 9 and "fig2_f2.svg" in written
    assert first["sha256"] == second["sha256"] and first["seconds"] > 0


MC_OPCODE_CASES = {"mc_rgf_drift(50,5)", "mc_prgf_drift(101,10)", "mc_g2_moments(20,4)",
                   "mc_g2_moments(20,4,vr)"}


def test_opcodes_suite_counts_every_algorithm_and_the_contract_shapes():
    assert set(ab.SUITES["opcodes"].cases) == ({f"{a} d=500" for a in ab.ALGOS}
                                               | {"check_lemma36(100,5)", "check_lemma36(100,5) run",
                                                  "theorem_bounds(50,5)",
                                                  "theorem_bounds(50,5,hist)"}
                                               | MC_OPCODE_CASES)
    assert ab.SUITES["opcodes"].match == ("result",)
    for name in ("theorem_bounds(50,5)", "theorem_bounds(50,5,hist)"):
        fname, short, long, kwargs, units = ab.OPCODES_CASES[name]
        # perfbench's shape, extended by T's that keep the rows each seed logs
        assert (fname, short, kwargs) == (ab.MC_CASES[name][0], ab.MC_CASES[name][1],
                                          ab.MC_CASES[name][3])
        assert math.gcd(*short[2]) == math.gcd(*long[2])
        assert units == 20 * (max(long[2]) - max(short[2]))  # seed-iterations between them


@pytest.mark.parametrize("spec", [
    ["check_lemma36", [20, 4, 10.0, 10], [20, 4, 10.0, 30], {"seed": 0}, 20],
    ["lemma_run", [20, 4, 10.0, 10], [20, 4, 10.0, 30], {"seed": 0}, None],
    ["run", ["history_prgf", 10, "historical", 11 * 2], ["history_prgf", 10, "historical", 11 * 5],
     {}, None],
])
def test_opcodes_probe_counts_opcodes_per_iteration(tmp_path, spec):
    (tmp_path / "side").mkdir()
    (tmp_path / "side" / "src").symlink_to(ROOT / "src")
    first, second = (ab.run_child(tmp_path / "side", ab.probe(ab.OPCODES, spec), 0)
                     for _ in range(2))
    assert first["result"] == second["result"]
    assert 100 < first["opcodes_per_unit"] < 5000
    if spec[0] != "run":  # a run at d=500 reads ahead, and its waits on the helper vary
        assert first["opcodes_per_unit"] == second["opcodes_per_unit"]


@pytest.mark.parametrize("name", sorted(MC_OPCODE_CASES))
def test_opcodes_suite_counts_perfbench_monte_carlo_shapes_per_sample(name):
    # perfbench's contracts_small_d shapes, at its D = 0.5 where it has one
    fname, short, long, kwargs, units = ab.OPCODES_CASES[name]
    perfbench = {"mc_rgf_drift": [50, 5], "mc_prgf_drift": [101, 10, 0.5],
                 "mc_g2_moments": [20, 4, 0.5]}[fname]
    assert short[:-1] == long[:-1] == perfbench
    assert kwargs == ({"variance_reduced": True} if name.endswith(",vr)") else {})
    assert short[-1] >= 1000 and units == long[-1] - short[-1]  # samples between them


@pytest.mark.parametrize("spec", [
    ["mc_prgf_drift", [21, 4, 0.5, 1000], [21, 4, 0.5, 1400], {}, 400],
    ["mc_g2_moments", [20, 4, 0.5, 300], [20, 4, 0.5, 700], {"variance_reduced": True}, 400],
])
def test_opcodes_probe_counts_opcodes_per_monte_carlo_sample(tmp_path, spec):
    (tmp_path / "side").mkdir()
    (tmp_path / "side" / "src").symlink_to(ROOT / "src")
    first, second = (ab.run_child(tmp_path / "side", ab.probe(ab.OPCODES, spec), 0)
                     for _ in range(2))
    assert first == second  # counts and result digest alike
    # blocks of many frames: a few Python opcodes per sample, not a frame's few hundred
    assert 1 < first["opcodes_per_unit"] < 100
