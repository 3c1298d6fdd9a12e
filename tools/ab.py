#!/usr/bin/env python3
"""Before/after measurements of two pgzo trees on the same host.

    python3 tools/ab.py SUITE [--rev BASE] [--head REV] [--pairs N] [--out BENCH_<topic>.json]

The base side is a ``git archive`` of ``src/`` at ``--rev`` (default
``HEAD``). The head side is ``src/`` at ``--head``, or a copy of this
checkout's ``src/`` as it stands when ``--head`` is not given; both trees
are built in one temporary directory. Pair i runs every case of the suite
once on each side, base first in even pairs and head first in odd ones, so
that both sides see the same stretch of host speed. Every run is a fresh
interpreter that imports pgzo from its side's ``src/``, with BLAS and
OpenMP pinned to one thread; it prints one JSON line last, and only that
line is read.

Suites:
  algos            one run of each of the eight algorithms at d = 256 and
                   d = 500: microseconds per iteration, dd-queries per
                   second and peak RSS (f2, L-hat = L, fd oracle, presets'
                   q; a 50-iteration warm-up, then 1500 timed)
  import           cold import of pgzo, pgzo.bench, pgzo.cli and
                   pgzo.diagnostics, alone (case import) and followed by a
                   2-seed run_from_settings batch that aggregates (case
                   cli_batch): seconds, peak RSS and whether the package
                   inits of scipy.stats, scipy.linalg, scipy.special and
                   scipy._lib._array_api ran
  mc_batch         microseconds per sample or iteration and peak RSS of
                   the Monte-Carlo shapes of perfbench's contracts_small_d,
                   of check_lemma36(100, 5, 10, 1000) and of its two
                   check_theorem_bounds shapes over 20 seeds; the SHA-256
                   of the result's repr must be the same on both sides
  opcodes          Python opcodes (sys.settrace opcode events of the main
                   thread) per iteration of one run of each of the eight
                   algorithms at d = 500 (f2, L-hat = L, fd oracle, a
                   target, log_every 512, presets' q), per iteration of
                   check_lemma36(100, 5, 10) and of the run it makes,
                   alone, per seed-iteration of perfbench's two
                   check_theorem_bounds shapes, and per sample of its
                   Monte-Carlo shapes (mc_rgf_drift(50, 5),
                   mc_prgf_drift(101, 10), mc_g2_moments(20, 4) plain and
                   variance-reduced; 1000 and 3000 samples): the difference
                   of two run lengths after a warm-up, divided by the
                   iterations or samples between them. Counts do not depend
                   on host speed, so one pair suffices; at d = 500 the main
                   thread's waits on the read-ahead helper move them by a
                   few per iteration. The SHA-256 of the longer run's result
                   must be the same on both sides
  preset           one full-budget CLI preset run, pgzo --preset fig2_f2
                   --seeds 0,1 (192 000 trace rows): seconds of the run
                   and peak RSS; the SHA-256 over every CSV and SVG it
                   writes (names and bytes) must be the same on both sides
  perfbench        perfbench/run.py --workload W --seed 7+i --seconds 22
                   --trace 0 for each workload, pair i; correct, attempted
                   and failed must be the same on both sides
  perfbench-trace  the same with --trace 1: reports whether each
                   count-valued per-layer metric is the same on both sides.
                   Traced times are not calibrated to host speed, so they
                   are not compared.

In the perfbench suites each side's tree is its ``src/`` plus this
checkout's ``perfbench/``, so that both sides are measured by the same
benchmark code. Metric directions come from ``BENCHMARK.json``.

Writes host facts, every run, the median and quartiles per metric and side
and the number of pairs each side won (ties count for neither) to ``--out``
(default ``BENCH_ab_<suite>.json`` at the repository root) and prints a
summary. Exits non-zero if a child fails or imports pgzo from outside its
side, or if a result that must match does not.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench.run import THREAD_VARS, host_facts  # noqa: E402  (numpy loads in host_facts only)

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
PERFBENCH_SEED = 7  # pair i runs seed 7 + i on both sides, as the ROADMAP baseline did


@dataclass(frozen=True)
class Suite:
    cases: dict            # case name -> child argv after python; "{seed}" is the pair's seed
    better: dict           # metric -> "lower" | "higher": summarized per side, pairs won counted
    match: tuple = ()      # keys that must be equal on both sides in every pair
    same: tuple = ()       # keys reported as equal or not on both sides, never required to be
    pairs: int = 10        # a gain must win nine of ten pairs, so no fewer
    perfbench: bool = False  # each side's tree also holds this checkout's perfbench/


def probe(body: str, args=None) -> list:
    """argv of a child that runs ``body``, which sets the dict ``out`` from
    ``args``, and prints ``out`` with its peak RSS and pgzo's file last."""
    code = ("import json, resource, sys, time\nargs = json.loads(sys.argv[1])\n" + body
            + "\nimport pgzo\nout.update(max_rss_mb=resource.getrusage(resource.RUSAGE_SELF)"
              ".ru_maxrss / 1024, pgzo_file=pgzo.__file__)\nprint(json.dumps(out))\n")
    return ["-c", code, json.dumps(args)]


# algorithm -> (q, prior, dd-queries per iteration), as in bench.preset; older
# trees may still require prior
ALGOS = {"rgf": (11, "none", 11), "prgf": (10, "biased", 11),
         "history_prgf": (10, "historical", 11), "ars": (11, "none", 11),
         "pars_naive": (10, "biased", 11), "pars_impl": (8, "biased", 11),
         "pars_est": (10, "biased", 33), "history_pars": (10, "historical", 11)}
ALGOS_CASES = tuple((algo, d) for d in (256, 500) for algo in ALGOS)
ALGOS_RUN = """
from pgzo.bench import RunConfig, run_single
algo, dim, q, prior, cost = args
cfg = RunConfig(function="f2", dim=dim, algo=algo, q=q, prior=prior, lhat_scale=1.0, budget=0)
cfg.budget = cost * 50
run_single(cfg, 1)
cfg.budget = cost * 1500
t0 = time.perf_counter()
trace = run_single(cfg, 2)
seconds = time.perf_counter() - t0
out = {"us_per_iter": seconds / trace.rows[-1][0] * 1e6,
       "dd_queries_per_s": trace.rows[-1][1] / seconds}
"""
# import-suite key -> the scipy module whose presence after the import it reports
SCIPY_LOADED = {"scipy_stats_loaded": "scipy.stats", "scipy_linalg_loaded": "scipy.linalg",
                "scipy_special_loaded": "scipy.special",
                "scipy_array_api_loaded": "scipy._lib._array_api"}
# import-suite case -> the settings of the CLI batch it runs after the import,
# if any; the batch writes its CSV and SVG into the side's tree
IMPORT_CASES = {"import": None,
                "cli_batch": {"function": "f2", "dim": 50, "algo": "rgf", "q": 10,
                              "lhat_scale": 1.0, "budget": 2000, "seeds": [0, 1],
                              "out": "cli_batch"}}
IMPORT = """
batch, loaded = args
t0 = time.perf_counter()
import pgzo, pgzo.bench, pgzo.cli, pgzo.diagnostics
if batch:
    pgzo.cli.run_from_settings(batch)
out = {"seconds": time.perf_counter() - t0}
out.update({key: module in sys.modules for key, module in loaded.items()})
"""
# case -> (diagnostics function, args, warm-up args, kwargs, samples or seed-iterations);
# the mc_ functions get RngHandle(11) after their args
BOUND_SEEDS = list(range(20))
MC_CASES = {
    "mc_rgf_drift(50,5)": ("mc_rgf_drift", [50, 5, 4000], [50, 5, 1000], {}, 4000),
    "mc_prgf_drift(101,10,D=0.25)": ("mc_prgf_drift", [101, 10, 0.25, 2000],
                                     [101, 10, 0.25, 1000], {}, 2000),
    "mc_prgf_drift(101,10,D=0.9)": ("mc_prgf_drift", [101, 10, 0.9, 2000],
                                    [101, 10, 0.9, 1000], {}, 2000),
    "mc_g2_moments(20,4)": ("mc_g2_moments", [20, 4, 0.5, 4000], [20, 4, 0.5, 400], {}, 4000),
    "mc_g2_moments(20,4,vr)": ("mc_g2_moments", [20, 4, 0.5, 4000], [20, 4, 0.5, 400],
                               {"variance_reduced": True}, 4000),
    "check_lemma36(100,5)": ("check_lemma36", [100, 5, 10.0, 1000], [100, 5, 10.0, 100],
                             {"seed": 3}, 1000),
    "theorem_bounds(50,5)": ("check_theorem_bounds", [50, 5, [100]], [50, 5, [10]],
                                         {"seeds": BOUND_SEEDS}, 20 * 100),
    "theorem_bounds(50,5,hist)": (
        "check_theorem_bounds", [50, 5, [50, 100]], [50, 5, [50]],
        {"seeds": BOUND_SEEDS, "L_hat_mult": 50.0, "historical": True}, 20 * 100),
}
MC_BATCH = """
import hashlib
from pgzo import diagnostics as dg
from pgzo.core import RngHandle
fname, fargs, warm, kwargs, count = args
fn = getattr(dg, fname)
def call(fargs):
    rng = [RngHandle(11)] if fname.startswith("mc_") else []
    return fn(*fargs, *rng, **kwargs)
call(warm)
t0 = time.perf_counter()
result = call(fargs)
out = {"us_per_unit": (time.perf_counter() - t0) / count * 1e6,
       "result": hashlib.sha256(repr(result).encode()).hexdigest()}
"""
# case -> (function, short args, long args, kwargs, units between the two for a
# diagnostics check); "run" runs one seed of ALGOS[algo] at d = 500 with
# perfbench's greedy_f2_d500 settings (fd oracle, target, log_every = 512),
# "lemma_run" the History-PRGF run check_lemma36 makes, without its pairing;
# the mc_ functions get RngHandle(11) after their args, as in MC_CASES
OPCODE_ITERS = (40, 240)
OPCODE_SAMPLES = (1000, 3000)
OPCODES_CASES = {
    **{f"{algo} d=500": ("run", [algo, q, prior, cost * OPCODE_ITERS[0]],
                         [algo, q, prior, cost * OPCODE_ITERS[1]], {}, None)
       for algo, (q, prior, cost) in ALGOS.items()},
    "check_lemma36(100,5)": ("check_lemma36", [100, 5, 10.0, 100], [100, 5, 10.0, 300],
                             {"seed": 3}, 200),
    "check_lemma36(100,5) run": ("lemma_run", [100, 5, 10.0, 100], [100, 5, 10.0, 300],
                                 {"seed": 3}, None),
    # the T-lists keep their gcd, so both lengths log the same rows per seed
    "theorem_bounds(50,5)": ("check_theorem_bounds", [50, 5, [100]], [50, 5, [100, 200]],
                             {"seeds": BOUND_SEEDS}, 20 * 100),
    "theorem_bounds(50,5,hist)": (
        "check_theorem_bounds", [50, 5, [50, 100]], [50, 5, [50, 100, 150, 200]],
        {"seeds": BOUND_SEEDS, "L_hat_mult": 50.0, "historical": True}, 20 * 100),
    **{name: (fname, [*shape, OPCODE_SAMPLES[0]], [*shape, OPCODE_SAMPLES[1]], kwargs,
              OPCODE_SAMPLES[1] - OPCODE_SAMPLES[0])
       for name, fname, shape, kwargs in (
           ("mc_rgf_drift(50,5)", "mc_rgf_drift", [50, 5], {}),
           ("mc_prgf_drift(101,10)", "mc_prgf_drift", [101, 10, 0.5], {}),
           ("mc_g2_moments(20,4)", "mc_g2_moments", [20, 4, 0.5], {}),
           ("mc_g2_moments(20,4,vr)", "mc_g2_moments", [20, 4, 0.5],
            {"variance_reduced": True}))},
}
OPCODES = """
import hashlib
fname, short, long, kwargs, units = args
if fname == "run":
    from pgzo.bench import RunConfig, run_single
    def call(fargs):
        algo, q, prior, budget = fargs
        trace = run_single(RunConfig(function="f2", dim=500, algo=algo, q=q, prior=prior,
                                     lhat_scale=1.0, budget=budget, target_log10=-0.15,
                                     log_every=512), 1)
        return trace.rows[-1][0], (trace.rows, trace.reached_queries, trace.guess_passes)
elif fname == "lemma_run":
    from pgzo.greedy import GreedyConfig, run_greedy
    from pgzo.testfns import bench_function
    def call(fargs):
        d, q, mult, iterations = fargs
        fn = bench_function("f2", d)
        cfg = GreedyConfig(L_hat=mult * fn.L, q=q, algo="history_prgf", oracle_mode="exact",
                           budget=iterations * (q + 1), diagnostics=True)
        trace = run_greedy(fn.as_objective(), cfg, kwargs["seed"])
        return trace.rows[-1][0], trace.rows
else:
    from pgzo import diagnostics
    from pgzo.core import RngHandle
    def call(fargs):
        rng = [RngHandle(11)] if fname.startswith("mc_") else []
        return 0, getattr(diagnostics, fname)(*fargs, *rng, **kwargs)
def counted(fargs):
    # the main thread's opcode events; a read-ahead helper's are not traced
    n = 0
    def local(frame, event, arg):
        nonlocal n
        n += event == "opcode"
        return local
    def enter(frame, event, arg):
        frame.f_trace_opcodes = True
        return local
    sys.settrace(enter)
    try:
        iters, result = call(fargs)
    finally:
        sys.settrace(None)
    return n, iters, result
call(short)
n_short, i_short, _ = counted(short)
n_long, i_long, result = counted(long)
out = {"opcodes_per_unit": (n_long - n_short) / (units or i_long - i_short),
       "result": hashlib.sha256(repr(result).encode()).hexdigest()}
"""
# preset-suite case -> the CLI arguments of its run, which writes into the side's tree
PRESET_CASES = {"fig2_f2": ["--preset", "fig2_f2", "--seeds", "0,1", "--out", "preset/fig2_f2"]}
PRESET = """
import hashlib, pathlib, shutil
from pgzo.cli import main
out_dir = pathlib.Path(args[args.index("--out") + 1]).parent
shutil.rmtree(out_dir, ignore_errors=True)
out_dir.mkdir()
t0 = time.perf_counter()
code = main(args)
if code:
    raise SystemExit(code)
out = {"seconds": time.perf_counter() - t0}
digest = hashlib.sha256()
for path in sorted(out_dir.iterdir()):
    digest.update(path.name.encode() + b"\\0" + path.read_bytes())
out["sha256"] = digest.hexdigest()
"""
PERFBENCH_MATCH = ("correct", "attempted", "failed")
# per-layer metrics that count work rather than time it
LAYER_COUNTS = tuple(m["name"] for m in MANIFEST["per_layer"]
                     if m["unit"] in ("count", "flop", "B"))


def perfbench_cases(trace: int) -> dict:
    return {w["name"]: ["perfbench/run.py", "--workload", w["name"], "--seed", "{seed}",
                        "--seconds", "22", "--trace", str(trace)]
            for w in MANIFEST["workloads"]}


SUITES = {
    "algos": Suite({f"{algo} d={d}": probe(ALGOS_RUN, [algo, d, *ALGOS[algo]])
                    for algo, d in ALGOS_CASES},
                   {"us_per_iter": "lower", "dd_queries_per_s": "higher", "max_rss_mb": "lower"}),
    "import": Suite({case: probe(IMPORT, [batch, SCIPY_LOADED])
                     for case, batch in IMPORT_CASES.items()},
                    {"seconds": "lower", "max_rss_mb": "lower"}, same=tuple(SCIPY_LOADED),
                    pairs=12),
    "mc_batch": Suite({name: probe(MC_BATCH, spec) for name, spec in MC_CASES.items()},
                      {"us_per_unit": "lower", "max_rss_mb": "lower"}, match=("result",)),
    "opcodes": Suite({name: probe(OPCODES, spec) for name, spec in OPCODES_CASES.items()},
                     {"opcodes_per_unit": "lower"}, match=("result",), pairs=1),
    "preset": Suite({case: probe(PRESET, argv) for case, argv in PRESET_CASES.items()},
                    {"seconds": "lower", "max_rss_mb": "lower"}, match=("sha256",), pairs=4),
    "perfbench": Suite(perfbench_cases(0), {m["name"]: m["better"] for m in MANIFEST["end_to_end"]},
                       match=PERFBENCH_MATCH, perfbench=True),
    "perfbench-trace": Suite(perfbench_cases(1), {}, match=PERFBENCH_MATCH, same=LAYER_COUNTS,
                             pairs=1, perfbench=True),
}


def run_child(tree: Path, argv: list, pair: int) -> dict:
    """One fresh interpreter in ``tree``; its last stdout line, flattened."""
    argv = [a.replace("{seed}", str(PERFBENCH_SEED + pair)) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **dict.fromkeys(THREAD_VARS, "1"))
    child = subprocess.run([sys.executable, *argv], cwd=tree, env=env, capture_output=True,
                           text=True, timeout=1800)
    if child.returncode:
        raise SystemExit(f"error: a child in {tree} exited {child.returncode}:\n"
                         + child.stderr[-2000:])
    out = json.loads(child.stdout.splitlines()[-1])
    # probes report where pgzo came from; perfbench/run.py checks that itself and exits 2
    origin = out.pop("pgzo_file", None)
    if origin is not None and Path(origin).resolve().parent != (tree / "src" / "pgzo").resolve():
        raise SystemExit(f"error: a child imported pgzo from {origin}, outside {tree / 'src'}")
    metrics = out.pop("metrics", {})  # perfbench: name -> {"value", "unit"}
    return {**out, **{name: m["value"] for name, m in metrics.items()}}


def summary(values: list) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"median": med, "q1": q1, "q3": q3}


def measure(suite: Suite, trees: dict, pairs: int) -> dict:
    """Runs every case ``pairs`` times on the ``base`` and ``head`` trees;
    per case, every run and the summaries."""
    keys = (*suite.better, *suite.match, *suite.same)
    runs = {case: {"base": [], "head": []} for case in suite.cases}
    for pair in range(pairs):
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        for case, argv in suite.cases.items():
            for side in order:
                out = run_child(trees[side], argv, pair)
                runs[case][side].append({k: out[k] for k in keys})
        print(f"pair {pair + 1}/{pairs} done", flush=True)

    cases = {}
    for case, sides in runs.items():
        pairs_of = list(zip(sides["base"], sides["head"]))
        entry = cases[case] = {"metrics": {}, "runs": sides}
        for m, better in suite.better.items():
            won = {"base": 0, "head": 0}
            for b, h in pairs_of:
                if b[m] != h[m]:
                    won["head" if (h[m] < b[m]) == (better == "lower") else "base"] += 1
            stats = {side: summary([r[m] for r in sides[side]]) for side in sides}
            entry["metrics"][m] = {"better": better, **stats, "won": won,
                                   "head_over_base": stats["head"]["median"]
                                   / stats["base"]["median"]}
        for group in ("match", "same"):
            entry[group] = {k: all(b[k] == h[k] for b, h in pairs_of)
                            for k in getattr(suite, group)}
    return cases


def report(cases: dict) -> int:
    """Prints the summary; 1 if a result that must match does not, else 0."""
    ok = True
    print(f"{'case':30s} {'metric':16s} {'base median [q1, q3]':>28s} "
          f"{'head median [q1, q3]':>28s} {'head/base':>9s} {'won base:head':>13s}")
    for case, e in cases.items():
        for m, s in e["metrics"].items():
            b, h = s["base"], s["head"]
            print(f"{case:30s} {m:16s} {b['median']:>10.4g} [{b['q1']:.4g}, {b['q3']:.4g}]"
                  f"{h['median']:>12.4g} [{h['q1']:.4g}, {h['q3']:.4g}] "
                  f"{s['head_over_base']:9.3f} {s['won']['base']:>7d}:{s['won']['head']}")
        for group in ("match", "same"):
            differ = [k for k, equal in e[group].items() if not equal]
            if e[group]:
                print(f"{case:30s} {group}: {len(e[group]) - len(differ)} of {len(e[group])} "
                      "equal in every pair")
            for k in differ:
                values = {side: sorted({str(r[k])[:40] for r in e["runs"][side]})
                          for side in ("base", "head")}
                print(f"{'':30s}   {k} differs: base {values['base']} head {values['head']}")
        ok = ok and all(e["match"].values())
    return 0 if ok else 1


def checkout(rev, dest: Path, perfbench: bool) -> Path:
    """A tree under ``dest`` with ``src/`` of ``rev``, or of this checkout as
    it stands when ``rev`` is None, and this checkout's ``perfbench/`` when
    asked. Both sides get such a tree, so that they differ only in ``src/``."""
    no_cache = shutil.ignore_patterns("__pycache__")
    if rev is None:
        shutil.copytree(ROOT / "src", dest / "src", ignore=no_cache)
    else:
        tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                             capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
            tf.extractall(dest, filter="data")
    if perfbench:
        shutil.copytree(ROOT / "perfbench", dest / "perfbench", ignore=no_cache)
    return dest


def commit(rev: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", rev],
                          capture_output=True, text=True, check=True).stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0],
                                 epilog=__doc__.split("\n\n", 2)[2],
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("suite", choices=SUITES)
    ap.add_argument("--rev", default="HEAD", help="the base commit (default HEAD)")
    ap.add_argument("--head", help="the head commit (default: this checkout's src as it stands)")
    ap.add_argument("--pairs", type=int, help="pairs of runs (default: " + ", ".join(
        f"{name} {suite.pairs}" for name, suite in SUITES.items()) + ")")
    ap.add_argument("--out", type=Path, help="the record to write (default "
                    "BENCH_ab_<suite>.json at the repository root)")
    args = ap.parse_args(argv)
    suite = SUITES[args.suite]
    pairs = suite.pairs if args.pairs is None else args.pairs
    if pairs < 1:
        ap.error("--pairs must be at least 1")
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))  # before host_facts loads numpy

    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: checkout(rev, Path(tmp) / side, suite.perfbench)
                 for side, rev in (("base", args.rev), ("head", args.head))}
        cases = measure(suite, trees, pairs)
    record = {
        "suite": args.suite, "base": commit(args.rev),
        "head": f"working tree of {commit('HEAD')}" if args.head is None
        else commit(args.head),
        "pairs": pairs, "order": "base first in even pairs, head first in odd ones",
        "seeds": [PERFBENCH_SEED + i for i in range(pairs)] if suite.perfbench else None,
        "host": host_facts(seed=None), "cases": cases,
    }
    out = args.out or ROOT / f"BENCH_ab_{args.suite}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    code = report(cases)
    print(f"wrote {out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
