#!/usr/bin/env python3
"""pgzo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                  # all three workloads, seed 0
    python3 perfbench/run.py --write-manifest # regenerate BENCHMARK.json

Run from a checkout of the repository; pgzo is imported from its ``src``.
One run sets up several times (import, objective construction, warm-up),
then runs a fixed number of passes of the workload, each with fresh job
seeds derived from ``--seed``; the count is set by ``--seconds`` and the
workload's usual pass time, so the same seed always runs the same jobs. It
checks every pass's outputs, prints one line per metric with its unit, and
ends with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
Times are calibrated to the host's nominal speed with a reference kernel
run between jobs (see ``hostclock.py``).

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` alternates untraced and traced passes over the same inputs,
requires their outputs to be bit-identical, and reports the per-layer
metrics; the traced spans are saved under ``.perfbench-out/``.

BLAS and OpenMP are pinned to one thread in this process's environment
before numpy loads; pgzo runs single-threaded in one process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_ROUNDS = 5
IMPORT_ROUNDS = 3
IMPORT_PROBE = """
import sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import pgzo, pgzo.bench, pgzo.cli, pgzo.diagnostics
print(time.perf_counter() - t0)
"""

sys.path.insert(0, str(ROOT))
from perfbench import spec  # noqa: E402  (stdlib only; numpy is not loaded yet)
from perfbench.hostclock import HostClock  # noqa: E402


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def host_facts(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "python": platform.python_version(), "machine": platform.machine(),
        "commit": _git_commit(), "seed": seed,
    }


def _line(name: str, value: float, unit: str, note: str = ""):
    print(f"  {name:30s} {value:>14.6g} {unit:6s} {note}".rstrip())


def _end_to_end(wl, passes, job_times, import_s, setup_s, clock, tracing) -> dict:
    tail_s, tail_pct = tracing.tail(job_times)
    iterating = [p for p in passes if p.iter_s] or [None]
    # Medians over passes, so that a pass that ran slowly does not move the
    # result; every time is calibrated to the host's nominal speed.
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall for p in passes),
        "job_s_p50": tracing.p50(job_times),
        "job_s_tail": tail_s,
        "dd_queries_per_s": statistics.median(p.dd_queries / p.iter_s if p else 0.0
                                              for p in iterating),
        "iters_per_s": statistics.median(p.iterations / p.iter_s if p else 0.0
                                         for p in iterating),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median import of {IMPORT_ROUNDS} {import_s:.3f} + median of "
                   f"{SETUP_ROUNDS} construction/warm-up rounds {setup_s - import_s:.3f}",
        "wall_s": f"median of {len(passes)} passes: "
                  + " ".join(f"{p.wall:.3f}" for p in passes),
        "job_s_p50": f"n={len(job_times)} jobs",
        "job_s_tail": f"p{tail_pct:.0f} of n={len(job_times)} jobs",
        "dd_queries_per_s": f"median of {len(passes)} passes",
        "iters_per_s": f"median of {len(passes)} passes",
    }
    for name, value in values.items():
        _line(name, value, spec.END_TO_END[name][0], notes.get(name, ""))

    # Reported where they apply; not gated by BENCHMARK.json.
    unit = spec.REPORTED_ONLY
    raw_wall = statistics.median(p.raw_wall for p in passes)
    _line("raw_wall_s", raw_wall, "s", "median pass wall time, not calibrated")
    _line("host_speed", clock.median_factor(), "x",
          f"nominal / median reference-kernel time over {len(clock.refs)} marks")
    batch_s = [s for p in passes for s in p.batch_s]
    if wl.name == "greedy_f2_d500" and batch_s:
        _line("time_to_target_s", statistics.fmean(batch_s), unit["time_to_target_s"],
              f"run_batch to log10 err {wl.TARGET}, mean of {len(batch_s)} batches")
        reached = [q for p in passes for q in p.reached]
        _line("queries_to_target", statistics.median(reached), unit["queries_to_target"],
              f"median of {len(reached)} runs")
    finals = [f for p in passes for f in p.finals]
    if finals:
        _line("final_log10_rel_err", statistics.median(finals), unit["final_log10_rel_err"],
              f"median of {len(finals)} runs")
    mc_s = sum(p.mc_s for p in passes)
    if mc_s:
        _line("mc_samples_per_s", sum(p.mc_samples for p in passes) / mc_s,
              unit["mc_samples_per_s"])
        devs = [d for p in passes for d in p.devs]
        _line("contract_dev_se_max", max(devs), unit["contract_dev_se_max"],
              f"worst of {len(devs)} MC deviations")
    attempted = sum(p.attempted for p in passes)
    _line("failed_frac", sum(p.failed for p in passes) / attempted, unit["failed_frac"],
          f"of {attempted} jobs")
    diverged = [d for p in passes for d in p.diverged]
    if diverged:
        print(f"  diverged ({len(diverged)}): " + "; ".join(diverged[:6])
              + (" ..." if len(diverged) > 6 else ""))
    return values


def pass_count(wl, seconds: float, traced: bool) -> int:
    """Passes in a run: fixed by ``--seconds`` and the workload's usual pass
    time, never by the clock, so that a seed always gives the same jobs."""
    per_pass = wl.PASS_S * (2.2 if traced else 1.0)
    return max(1, round(seconds / per_pass))


def run_workload(wl, seed: int, seconds: float, traced: bool, import_s: float,
                 clock) -> dict:
    from perfbench import tracing

    OUT_DIR.mkdir(exist_ok=True)
    out_dir = OUT_DIR / f"{wl.name}-{os.getpid()}"
    rounds = []
    for _ in range(SETUP_ROUNDS):
        clock.mark()
        t0 = perf_counter()
        wl.setup(out_dir)
        rounds.append((t0, perf_counter()))
    clock.mark()
    setup_s = import_s + statistics.median(clock.calibrated(a, b) for a, b in rounds)

    jobs_log = tracing.SpanLog()
    jobs_log.clock = clock
    layer_log = tracing.SpanLog()
    layer_log.clock = clock
    passes, traced_passes = [], []
    problems = []
    n_passes = pass_count(wl, seconds, traced)
    t_start = perf_counter()
    for k in range(n_passes):
        with tracing.instrument(jobs_log, "jobs"):
            clock.mark()
            t0 = perf_counter()
            res = wl.run_pass(jobs_log, seed, k, out_dir)
            t1 = perf_counter()
            clock.mark()
        res.wall = clock.calibrated(t0, t1)
        res.raw_wall = clock.calibrated(t0, t1, scale=False)
        passes.append(res)
        problems += [f"pass {k}: {p}" for p in res.problems]
        if traced:
            with tracing.instrument(layer_log, "layers"):
                t0 = perf_counter()
                tres = wl.run_pass(layer_log, seed, k, out_dir)
                t1 = perf_counter()
                clock.mark()
            tres.wall = clock.calibrated(t0, t1)
            traced_passes.append(tres)
            if tres.digest != res.digest:
                problems.append(f"pass {k}: traced output differs from the untraced pass")
    elapsed = perf_counter() - t_start
    if out_dir.exists():
        out_dir.rmdir()

    job_times = [clock.calibrated(a, b) for a, b in jobs_log.job_bounds]
    for p in passes:
        p.iter_s = sum(job_times[i] for i in p.iter_jobs)
        p.mc_s = sum(job_times[i] for i in p.mc_jobs)
        p.batch_s = [clock.calibrated(a, b) for a, b in p.batches]

    print(f"workload {wl.name}: seed {seed}, {n_passes} passes in {elapsed:.1f} s"
          + (" (untraced and traced)" if traced else ""))
    if traced:
        overhead = (sum(p.wall for p in traced_passes) / sum(p.wall for p in passes)
                    - 1.0)
        metrics = tracing.layer_metrics(layer_log, len(traced_passes), overhead,
                                        sum(p.mc_samples for p in traced_passes))
        for name, value in metrics.items():
            unit, _, moves = spec.PER_LAYER[name]
            _line(name, value, unit, f"moves {moves}")
        layer_log.save(str(OUT_DIR / f"spans-{wl.name}.npz"))
        units = {n: u for n, (u, _, _) in spec.PER_LAYER.items()}
    else:
        metrics = _end_to_end(wl, passes, job_times, import_s, setup_s, clock, tracing)
        units = {n: u for n, (u, _, _) in spec.END_TO_END.items()}
    for p in problems[:20]:
        print(f"  GATE FAILED {p}")
    bad = [n for n, v in metrics.items() if not math.isfinite(v)]
    if bad:
        problems.append(f"non-finite metrics {bad}")
    return {
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {n: {"value": float(v), "unit": units[n]} for n, v in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=("all", *spec.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-manifest", action="store_true",
                   help="write BENCHMARK.json from perfbench/spec.py and exit")
    args = p.parse_args(argv)
    if args.write_manifest:
        print(spec.write_manifest(ROOT))
        return 0

    src = ROOT / "src"
    if not (src / "pgzo" / "__init__.py").is_file():
        print(f"error: no pgzo sources under {src}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import pgzo
    import pgzo.bench  # noqa: F401
    import pgzo.cli  # noqa: F401
    import pgzo.diagnostics  # noqa: F401
    t1 = perf_counter()
    clock = HostClock()
    clock.mark()            # the kernel needs numpy: the first mark follows the import
    import_times = [clock.calibrated(t0, t1)]
    if Path(pgzo.__file__).resolve().parent != (src / "pgzo").resolve():
        print(f"error: imported pgzo from {pgzo.__file__}, not {src}", file=sys.stderr)
        return 2
    # A module imports once per process: time the same import in fresh
    # interpreters for a median.
    for _ in range(IMPORT_ROUNDS - 1):
        t0 = perf_counter()
        child = subprocess.run([sys.executable, "-c", IMPORT_PROBE.format(src=str(src))],
                               capture_output=True, text=True, check=True, timeout=60)
        clock.mark()
        import_times.append(float(child.stdout) * clock.factor_at(t0))
    import_s = statistics.median(import_times)
    from perfbench.workloads import WORKLOADS

    print("host " + json.dumps(host_facts(args.seed)))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                              import_s, clock)
        ok = ok and result["correct"]
        print(json.dumps(result))
    return 0 if ok or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())
