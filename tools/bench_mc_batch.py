#!/usr/bin/env python3
"""Microseconds per Monte-Carlo sample of the contract checks, this checkout
against a commit.

    python3 tools/bench_mc_batch.py [--rev HEAD] [--rounds 6] [--out BENCH_mc_batch.json]

The other side is a ``git archive`` of ``--rev`` (default ``HEAD``, the
parent of an uncommitted change; after committing, pass ``HEAD~1``),
unpacked into a temporary directory. Each round runs every case once per
side, each in a fresh interpreter, in alternating order, so that both sides
see the same stretch of host speed. A child imports pgzo from its side's
``src``, warms up with a small call of the same check, then times one call
and reports microseconds per sample (per iteration for ``check_lemma36``),
its peak resident set size (``ru_maxrss``) and the call's result, which
must be the same on both sides. BLAS and OpenMP are pinned to one thread.

Cases: the Monte-Carlo shapes of perfbench's ``contracts_small_d``
(``mc_rgf_drift`` at (50, 5); ``mc_prgf_drift`` at (101, 10) with D = 0.25
and 0.9; ``mc_g2_moments`` at (20, 4), plain and variance-reduced) with its
sample counts, and ``check_lemma36(100, 5, 10, 1000)``, whose greedy run
builds one frame per iteration. Writes host facts plus, per case and side,
every round and the median and quartiles to ``--out`` (default
``BENCH_mc_batch.json`` at the repository root), and prints a summary.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_readahead import ROOT, THREAD_VARS, archive_src, host_facts, summary  # noqa: E402

# name -> (diagnostics function, args after the rng, kwargs, samples or iterations)
CASES = {
    "mc_rgf_drift(50,5)": ("mc_rgf_drift", [50, 5, 4000], {}, 4000),
    "mc_prgf_drift(101,10,D=0.25)": ("mc_prgf_drift", [101, 10, 0.25, 2000], {}, 2000),
    "mc_prgf_drift(101,10,D=0.9)": ("mc_prgf_drift", [101, 10, 0.9, 2000], {}, 2000),
    "mc_g2_moments(20,4)": ("mc_g2_moments", [20, 4, 0.5, 4000], {}, 4000),
    "mc_g2_moments(20,4,vr)": ("mc_g2_moments", [20, 4, 0.5, 4000],
                               {"variance_reduced": True}, 4000),
    "check_lemma36(100,5)": ("check_lemma36", [100, 5, 10.0, 1000], {"seed": 3}, 1000),
}
PROBE = """
import json, resource, sys, time
import pgzo
from pgzo import diagnostics as dg
from pgzo.core import RngHandle
fname, args, kwargs, count = json.loads(sys.argv[1])
fn = getattr(dg, fname)
def call(args):
    if fname == "check_lemma36":
        return fn(*args, **kwargs)
    *head, n = args
    return fn(*head, n, RngHandle(11), **kwargs)
call(args[:-1] + [max(args[-1] // 10, 1000 if "drift" in fname else 2)])
t0 = time.perf_counter()
out = call(args)
dt = time.perf_counter() - t0
print(json.dumps({"us_per_unit": dt / count * 1e6,
                  "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "result": repr(out), "pgzo_file": pgzo.__file__}))
"""


def run_once(src: Path, case: list) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), **{v: "1" for v in THREAD_VARS})
    child = subprocess.run([sys.executable, "-c", PROBE, json.dumps(case)], env=env,
                           capture_output=True, text=True, check=True, timeout=600)
    out = json.loads(child.stdout)
    if Path(out.pop("pgzo_file")).resolve().parent != (src / "pgzo").resolve():
        raise SystemExit(f"error: a child imported pgzo from outside {src}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rev", default="HEAD", help="the commit to compare against")
    ap.add_argument("--rounds", type=int, default=6)
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_mc_batch.json")
    args = ap.parse_args(argv)
    if args.rounds < 2:
        ap.error("--rounds must be at least 2")
    rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.rev],
                         capture_output=True, text=True, check=True).stdout.strip()

    with tempfile.TemporaryDirectory() as tmp:
        sides = {"change": ROOT / "src", "parent": archive_src(args.rev, Path(tmp))}
        runs = {(name, case): [] for name in sides for case in CASES}
        for r in range(args.rounds):
            for case, spec in CASES.items():
                order = list(sides) if r % 2 == 0 else list(sides)[::-1]
                for name in order:
                    runs[(name, case)].append(run_once(sides[name], list(spec)))
            print(f"round {r + 1}/{args.rounds} done", flush=True)

    result = {"host": host_facts(), "parent": rev, "rounds": args.rounds,
              "order": "alternating per round", "unit": "us per sample (per iteration "
              "for check_lemma36)", "cases": []}
    for case, (fname, fargs, kwargs, count) in CASES.items():
        entry = {"case": case, "function": fname, "args": fargs, "kwargs": kwargs,
                 "samples": count}
        for name in sides:
            rs = runs[(name, case)]
            entry[name] = {"us_per_unit": summary([x["us_per_unit"] for x in rs]),
                           "max_rss_mb": summary([x["max_rss_mb"] for x in rs]),
                           "runs": [{k: x[k] for k in ("us_per_unit", "max_rss_mb")}
                                    for x in rs]}
        entry["results_equal"] = len({x["result"] for name in sides
                                      for x in runs[(name, case)]}) == 1
        entry["change_over_parent"] = {
            key: entry["change"][key]["median"] / entry["parent"][key]["median"]
            for key in ("us_per_unit", "max_rss_mb")}
        result["cases"].append(entry)
    args.out.write_text(json.dumps(result, indent=1) + "\n")

    print(f"{'case':30s} {'parent us':>10s} {'change us':>10s} {'ratio':>6s} "
          f"{'RSS MB parent':>13s} {'change':>7s} {'equal':>6s}")
    for e in result["cases"]:
        p, c = e["parent"], e["change"]
        print(f"{e['case']:30s} {p['us_per_unit']['median']:10.2f} "
              f"{c['us_per_unit']['median']:10.2f} {e['change_over_parent']['us_per_unit']:6.3f} "
              f"{p['max_rss_mb']['median']:13.1f} {c['max_rss_mb']['median']:7.1f} "
              f"{str(e['results_equal']):>6s}")
    print(f"wrote {args.out}")
    return 0 if all(e["results_equal"] for e in result["cases"]) else 1


if __name__ == "__main__":
    sys.exit(main())
