#!/usr/bin/env python3
"""Microseconds per iteration of every algorithm, this checkout against a commit.

    python3 tools/bench_readahead.py [--rev HEAD] [--rounds 6] [--iterations 1500]
                                     [--out BENCH_readahead.json]

The other side is a ``git archive`` of ``--rev`` (default ``HEAD``, the
parent of an uncommitted change; after committing, pass ``HEAD~1``),
unpacked into a temporary directory. Each round runs every (algorithm, d)
case once per side, each in a fresh interpreter, in alternating order, so
that both sides see the same stretch of host speed. A child imports pgzo
from its side's ``src``, warms up with a 50-iteration run, then times one
``bench.run_single`` of ``--iterations`` iterations on f2 (L̂ = L, fd
oracle, no diagnostics) and reports microseconds per iteration and its peak
resident set size (``ru_maxrss``). BLAS and OpenMP are pinned to one thread
in every child; the helper thread that draws normals ahead is pgzo's own.

Cases: the eight algorithms at d = 256 and d = 500, with the presets' q
(11 for plain frames, 10 with a prior, 8 for pars_impl). Writes host facts
plus, per case and side, every round and the median and quartiles to
``--out`` (default ``BENCH_readahead.json`` at the repository root), and
prints a summary.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# algorithm -> (q, prior), as in bench.preset; --rev checkouts may still require prior
ALGOS = {"rgf": (11, "none"), "prgf": (10, "biased"), "history_prgf": (10, "historical"),
         "ars": (11, "none"), "pars_naive": (10, "biased"), "pars_impl": (8, "biased"),
         "pars_est": (10, "biased"), "history_pars": (10, "historical")}
DIMS = (256, 500)
PROBE = """
import json, resource, sys, time
import pgzo
from pgzo.bench import RunConfig, run_single
algo, dim, q, prior, iterations = json.loads(sys.argv[1])
cfg = RunConfig(function="f2", dim=dim, algo=algo, q=q, prior=prior, lhat_scale=1.0, budget=0)
cost = {"rgf": q, "ars": q, "pars_impl": q + 3, "pars_est": 3 * (q + 1)}.get(algo, q + 1)
cfg.budget = cost * 50
run_single(cfg, 1)
cfg.budget = cost * iterations
t0 = time.perf_counter()
trace = run_single(cfg, 2)
dt = time.perf_counter() - t0
print(json.dumps({"us_per_iter": dt / trace.rows[-1][0] * 1e6, "iterations": trace.rows[-1][0],
                  "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "pgzo_file": pgzo.__file__}))
"""


def run_once(src: Path, case: list) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), **{v: "1" for v in THREAD_VARS})
    child = subprocess.run([sys.executable, "-c", PROBE, json.dumps(case)], env=env,
                           capture_output=True, text=True, check=True, timeout=600)
    out = json.loads(child.stdout)
    if Path(out.pop("pgzo_file")).resolve().parent != (src / "pgzo").resolve():
        raise SystemExit(f"error: a child imported pgzo from outside {src}")
    return out


def archive_src(rev: str, dest: Path) -> Path:
    """Unpack ``src`` of ``rev`` under ``dest``; returns that ``src``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return dest / "src"


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def host_facts() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "python": platform.python_version(), "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rev", default="HEAD", help="the commit to compare against")
    ap.add_argument("--rounds", type=int, default=6)
    ap.add_argument("--iterations", type=int, default=1500)
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_readahead.json")
    args = ap.parse_args(argv)
    if args.rounds < 2:
        ap.error("--rounds must be at least 2")
    if args.iterations < 1:
        ap.error("--iterations must be at least 1")
    rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.rev],
                         capture_output=True, text=True, check=True).stdout.strip()
    cases = [[algo, d, q, prior, args.iterations]
             for d in DIMS for algo, (q, prior) in ALGOS.items()]

    with tempfile.TemporaryDirectory() as tmp:
        sides = {"change": ROOT / "src", "parent": archive_src(args.rev, Path(tmp))}
        runs = {(name, c[0], c[1]): [] for name in sides for c in cases}
        for r in range(args.rounds):
            for case in cases:
                order = list(sides) if r % 2 == 0 else list(sides)[::-1]
                for name in order:
                    runs[(name, case[0], case[1])].append(run_once(sides[name], case))
            print(f"round {r + 1}/{args.rounds} done", flush=True)

    result = {"host": host_facts(), "parent": rev, "rounds": args.rounds,
              "iterations": args.iterations, "function": "f2", "lhat_scale": 1.0,
              "order": "alternating per round", "cases": []}
    for algo, d, q, prior, _ in cases:
        entry = {"algo": algo, "d": d, "q": q, "prior": prior}
        for name in sides:
            rs = runs[(name, algo, d)]
            entry[name] = {"us_per_iter": summary([x["us_per_iter"] for x in rs]),
                           "max_rss_mb": summary([x["max_rss_mb"] for x in rs]),
                           "runs": rs}
        entry["change_over_parent"] = {
            key: entry["change"][key]["median"] / entry["parent"][key]["median"]
            for key in ("us_per_iter", "max_rss_mb")}
        result["cases"].append(entry)
    args.out.write_text(json.dumps(result, indent=1) + "\n")

    print(f"{'algo':13s} {'d':>4s} {'parent us':>10s} {'change us':>10s} {'ratio':>6s} "
          f"{'RSS MB parent':>13s} {'change':>7s}")
    for e in result["cases"]:
        p, c = e["parent"], e["change"]
        print(f"{e['algo']:13s} {e['d']:4d} {p['us_per_iter']['median']:10.1f} "
              f"{c['us_per_iter']['median']:10.1f} {e['change_over_parent']['us_per_iter']:6.3f} "
              f"{p['max_rss_mb']['median']:13.1f} {c['max_rss_mb']['median']:7.1f}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
