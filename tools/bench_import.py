#!/usr/bin/env python3
"""Cold-start cost of importing pgzo, this checkout against its parent.

    python3 tools/bench_import.py --src PARENT/src [--rounds 12] [--out BENCH_import.json]

Each round imports ``pgzo, pgzo.bench, pgzo.cli, pgzo.diagnostics`` in a
fresh interpreter once from this checkout's ``src`` and once from the parent
checkout's (``--src``), in alternating order, so that both sides see the same stretch of host speed.
A child times its own import statement with ``perf_counter`` and reports its
peak resident set size (``ru_maxrss``) and whether ``scipy.stats`` got
loaded. BLAS and OpenMP are pinned to one thread in every child.

Writes host facts plus, for each side, every round's numbers and the median
and quartiles of import time and peak RSS to ``--out`` (default
``BENCH_import.json`` at the repository root), and prints a summary. Without
``--src`` only this checkout is measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = "pgzo, pgzo.bench, pgzo.cli, pgzo.diagnostics"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE = f"""
import json, resource, sys, time
t0 = time.perf_counter()
import {MODULES}
t1 = time.perf_counter()
print(json.dumps({{"import_s": t1 - t0,
                  "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "scipy_stats_loaded": "scipy.stats" in sys.modules,
                  "pgzo_file": pgzo.__file__}}))
"""


def import_once(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), **{v: "1" for v in THREAD_VARS})
    child = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                           text=True, check=True, timeout=120)
    out = json.loads(child.stdout)
    if Path(out.pop("pgzo_file")).resolve().parent != (src / "pgzo").resolve():
        raise SystemExit(f"error: a child imported pgzo from outside {src}")
    return out


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
    ap.add_argument("--src", type=Path, help="the parent checkout's src directory")
    ap.add_argument("--rounds", type=int, default=12)
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_import.json")
    args = ap.parse_args(argv)
    if args.rounds < 2:
        ap.error("--rounds must be at least 2")
    sides = {"change": ROOT / "src"}
    if args.src is not None:
        if not (args.src / "pgzo" / "__init__.py").is_file():
            ap.error(f"no pgzo sources under {args.src}")
        sides["parent"] = args.src.resolve()

    runs = {name: [] for name in sides}
    for r in range(args.rounds):
        order = list(sides) if r % 2 == 0 else list(sides)[::-1]
        for name in order:
            runs[name].append(import_once(sides[name]))

    result = {"host": host_facts(), "modules": MODULES, "rounds": args.rounds,
              "order": "alternating per round", "sides": {}}
    for name, rs in runs.items():
        result["sides"][name] = {
            "import_s": summary([r["import_s"] for r in rs]),
            "max_rss_mb": summary([r["max_rss_mb"] for r in rs]),
            "scipy_stats_loaded": sorted({r["scipy_stats_loaded"] for r in rs}),
            "runs": rs,
        }
    if len(sides) == 2:
        change, parent = result["sides"]["change"], result["sides"]["parent"]
        result["change_over_parent"] = {key: change[key]["median"] / parent[key]["median"]
                                        for key in ("import_s", "max_rss_mb")}
    args.out.write_text(json.dumps(result, indent=1) + "\n")

    for name, side in result["sides"].items():
        imp, rss = side["import_s"], side["max_rss_mb"]
        print(f"{name:8s} import {imp['median']:.3f} s [{imp['q1']:.3f}, {imp['q3']:.3f}]  "
              f"max RSS {rss['median']:.1f} MB [{rss['q1']:.1f}, {rss['q3']:.1f}]  "
              f"scipy.stats loaded: {side['scipy_stats_loaded']}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
