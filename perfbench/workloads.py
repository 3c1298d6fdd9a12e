"""The three benchmark workloads and their correctness gates.

A workload turns (workload seed, pass index) into generated ``RunConfig``
values, CLI settings or diagnostic arguments, runs one pass of jobs through
pgzo and checks what came back. A job is one seeded run or one Monte-Carlo
check. Every pass of a run uses fresh job seeds, so a longer run averages
over more inputs; the same (seed, pass) always gives the same inputs.

Gates raise nothing: violations are collected in ``PassResult.problems``
and turn the run's ``correct`` flag off. A job that raises, returns a
non-finite value or diverges (final log10 relative error above 0) counts
as failed; its outputs are not checked.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import shutil
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import pgzo.bench as bench
import pgzo.cli as cli
import pgzo.diagnostics as diag
from pgzo.core import RngHandle
from pgzo.testfns import bench_function

# Monte-Carlo gates allow 5 standard errors: about 6e-7 false alarms per
# check under a fresh seed. The acceptance tests use 3 at fixed seeds, which
# a benchmark drawing new seeds every pass would trip by chance.
MC_Z_MAX = 5.0


def job_seeds(seed: int, k: int, n: int) -> tuple[int, ...]:
    base = seed * 10_000 + k * 100
    return tuple(base + i for i in range(n))


@dataclass
class PassResult:
    digest: str = ""
    wall: float = 0.0            # calibrated seconds (raw seconds for a traced pass)
    raw_wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    iterations: int = 0
    dd_queries: int = 0
    mc_samples: int = 0
    # Calibrated job and batch times, filled in by run.py after the pass.
    iter_s: float = 0.0          # jobs that run optimizer iterations
    mc_s: float = 0.0            # Monte-Carlo jobs
    batch_s: list = field(default_factory=list)
    iter_jobs: list = field(default_factory=list)   # indices into log.job_bounds
    mc_jobs: list = field(default_factory=list)
    batches: list = field(default_factory=list)     # (start, end) of each run_batch
    problems: list = field(default_factory=list)
    reached: list = field(default_factory=list)
    finals: list = field(default_factory=list)
    devs: list = field(default_factory=list)
    diverged: list = field(default_factory=list)


def _same_rows(a, b) -> bool:
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        for x, y in zip(ra, rb):
            if not (x == y or (math.isnan(x) and math.isnan(y))):
                return False
    return True


def _check_accounting(res: PassResult, where: str, trace, costs, budget: int,
                      fn_cost: int | None = None):
    """Row t must show exactly the queries of iterations 0..t-1."""
    cum = [0]
    for c in costs:
        cum.append(cum[-1] + c)
    for row in trace.rows:
        it, dd, fn = int(row[0]), int(row[1]), int(row[2])
        if it >= len(cum) or dd != cum[it]:
            res.problems.append(f"{where}: row {it} has {dd} dd queries, expected "
                                f"{cum[it] if it < len(cum) else '?'}")
            return
        if fn_cost is not None and fn != fn_cost * it:
            res.problems.append(f"{where}: row {it} has {fn} fn evals, expected {fn_cost * it}")
            return
    if trace.final_queries > budget:
        res.problems.append(f"{where}: {trace.final_queries} dd queries over budget {budget}")


def _record_run(res: PassResult, where: str, trace):
    final = trace.rows[-1][4]
    res.finals.append(final)
    res.iterations += int(trace.rows[-1][0])
    res.dd_queries += trace.final_queries
    if not math.isfinite(final) or final > 0.0:
        res.failed += 1
        res.diverged.append(f"{where} ({final:.3g})")


def _report_exception(res: PassResult, where: str, jobs: int):
    """A job that raised failed; the traceback goes to stderr."""
    print(f"{where}: {jobs} job(s) failed", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)
    res.failed += jobs


class GreedyF2:
    """RGF at L̂=L (q=11) and History-PRGF at L̂=50L (q=10) on f2, d=500.

    The AC08/fig2 traffic: fd oracle, ``bench.run_batch`` over several seeds
    per configuration, each run stopping at the target error, rows thinned
    with a large ``log_every``. ``build_frame`` (11x500 Gaussians plus
    CholQR) dominates, so frame, orthonormalization and seed-parallel
    changes show here.
    """

    name = "greedy_f2_d500"
    PASS_S = 5.5                 # usual wall time of a pass; sets the pass count
    TARGET = -0.15
    BUDGET = 1_100_000
    # (label, algo, q, L̂/L, prior, seeds per pass). A History-PRGF run takes
    # longer than an RGF run; unequal seed counts keep the job median inside
    # one configuration's cluster instead of in the gap between the two.
    CONFIGS = (("RGF", "rgf", 11, 1.0, "none", 3),
               ("History-PRGF", "history_prgf", 10, 50.0, "historical", 5))

    def _configs(self, seed: int, k: int, budget: int, target):
        seeds = job_seeds(seed, k, sum(c[-1] for c in self.CONFIGS))
        out, used = [], 0
        for label, algo, q, scale, prior, n in self.CONFIGS:
            out.append(bench.RunConfig(
                function="f2", dim=500, algo=algo, q=q, lhat_scale=scale, prior=prior,
                budget=budget, seeds=seeds[used:used + n], target_log10=target,
                stop_on_target=target is not None, log_every=512, label=label))
            used += n
        return out

    def setup(self, out_dir: Path):
        bench_function("f2", 500)
        for cfg in self._configs(0, 0, 11 * 64, None):
            bench.run_batch(dataclasses.replace(cfg, seeds=cfg.seeds[:1]))

    def run_pass(self, log, seed: int, k: int, out_dir: Path) -> PassResult:
        res = PassResult()
        digest = hashlib.sha256()
        for cfg in self._configs(seed, k, self.BUDGET, self.TARGET):
            seeds = cfg.seeds
            first_job = len(log.job_bounds)
            res.attempted += len(seeds)
            t0 = perf_counter()
            try:
                batch = bench.run_batch(cfg)
            except Exception:
                _report_exception(res, cfg.label, len(seeds))
                res.problems.append(f"{cfg.label}: seeds {seeds} did not reach the target")
                continue
            res.batches.append((t0, perf_counter()))
            res.iter_jobs.extend(range(first_job, len(log.job_bounds)))
            cost = cfg.q + (0 if cfg.prior == "none" else 1)
            for tr in batch.traces:
                where = f"{cfg.label} seed {tr.seed}"
                digest.update(repr((cfg.label, tr.seed, tr.rows, tr.reached_queries)).encode())
                _record_run(res, where, tr)
                iters = int(tr.rows[-1][0])
                # fd greedy: one base evaluation plus one per direction.
                _check_accounting(res, where, tr, [cost] * iters, cfg.budget, cost + 1)
                if tr.reached_queries is None or tr.rows[-1][4] > self.TARGET:
                    res.problems.append(f"{where}: did not reach log10 error {self.TARGET}")
                else:
                    res.reached.append(tr.reached_queries)
        res.digest = digest.hexdigest()
        return res


# Queries per iteration; pars_est is (q+1) per pass, see run_pass.
_ARS_COST = {"rgf": 0, "ars": 0, "prgf": 1, "pars_naive": 1, "history_prgf": 1,
             "history_pars": 1, "pars_impl": 3}


def _csv_path(prefix: str, label: str, n_results: int) -> str:
    # The CLI names one CSV per configuration after its label, with every
    # non-alphanumeric character replaced by "_"; a single config gets none.
    if n_results == 1:
        return f"{prefix}.csv"
    return prefix + "_" + "".join(c if c.isalnum() else "_" for c in label) + ".csv"


class ArsPresets:
    """The fig1_f1 and fig1_f3 presets plus one pars_est run on f1, d=256.

    Everything goes through ``cli.run_from_settings`` with generated
    settings, so aggregation, CSV and SVG output and the oracle's base-cache
    misses (pars_impl probes three base points per iteration) are all
    loaded. The fig1_f3 PARS (pars_impl, L̂=256) runs diverge: a known
    defect that counts in ``failed`` and is not hidden.
    """

    name = "ars_presets_d256"
    PASS_S = 8.0
    # (name, settings, seeds per pass, dd budget). By 1200 iterations nearly
    # every fig1_f3 PARS run has diverged. Job times cluster by algorithm
    # (RGF < ARS ~ PRGF ~ pars_est < PARS-Naive < PARS), and a percentile
    # that falls between two clusters jumps with the seed. With these counts
    # the job median lies inside the dense ARS/PRGF/pars_est/PARS-Naive band
    # and the tail (11th slowest of three passes) inside the 15 PARS runs.
    SETTINGS = (("fig1_f1", {"preset": "fig1_f1"}, 2, 11 * 1200),
                ("fig1_f3", {"preset": "fig1_f3"}, 3, 11 * 1200),
                ("pars_est_f1", {"function": "f1", "dim": 256, "algo": "pars_est", "q": 10,
                                 "prior": "biased", "lhat_scale": 1.0, "label": "PARS-Est"},
                 8, 11 * 1200))

    def setup(self, out_dir: Path):
        bench_function("f1", 256)
        bench_function("f3", 256)
        work = out_dir / "setup"
        work.mkdir(parents=True, exist_ok=True)
        for name, settings, _, _ in self.SETTINGS:
            cli.run_from_settings(dict(settings, budget=11 * 40, seeds=(0,),
                                       out=str(work / name)))
        shutil.rmtree(work)

    def run_pass(self, log, seed: int, k: int, out_dir: Path) -> PassResult:
        res = PassResult()
        seeds = job_seeds(seed, k, max(n for _, _, n, _ in self.SETTINGS))
        work = out_dir / f"pass{k}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            for name, settings, n_seeds, budget in self.SETTINGS:
                prefix = str(work / name)
                first_job = len(log.job_bounds)
                n_jobs = n_seeds * (5 if "preset" in settings else 1)
                res.attempted += n_jobs
                try:
                    results = cli.run_from_settings(dict(settings, budget=budget,
                                                         seeds=seeds[:n_seeds], out=prefix))
                except Exception:
                    _report_exception(res, name, n_jobs)
                    continue
                res.iter_jobs.extend(range(first_job, len(log.job_bounds)))
                for r in results:
                    self._check(res, name, r, _csv_path(prefix, r.config.label, len(results)))
                if not Path(prefix + ".svg").stat().st_size:
                    res.problems.append(f"{name}: empty SVG")
            digest = hashlib.sha256()
            for path in sorted(work.iterdir()):
                digest.update(path.name.encode() + path.read_bytes())
            res.digest = digest.hexdigest()
        finally:
            shutil.rmtree(work)
        return res

    def _check(self, res: PassResult, name: str, r, csv_path: str):
        cfg = r.config
        for tr in r.traces:
            where = f"{name} {cfg.label} seed {tr.seed}"
            _record_run(res, where, tr)
            iters = int(tr.rows[-1][0])
            if cfg.algo == "pars_est":
                if len(tr.guess_passes) != iters:
                    res.problems.append(f"{where}: {len(tr.guess_passes)} guess-pass "
                                        f"records for {iters} iterations")
                    continue
                costs = [(cfg.q + 1) * (2 + p) for p in tr.guess_passes]
            else:
                costs = [cfg.q + _ARS_COST[cfg.algo]] * iters
            _check_accounting(res, where, tr, costs, cfg.budget)
        back = {t.seed: t for t in bench.read_csv(csv_path)}
        for tr in r.traces:
            if tr.seed not in back or not _same_rows(back[tr.seed].rows, tr.rows):
                res.problems.append(f"{name} {cfg.label} seed {tr.seed}: CSV round trip differs")


def _drift(target: float):
    def check(out):
        mean, se = out
        return [abs(mean - target) / se], []
    return check


def _g2(d: int, q: int, D: float, n: int, variance_reduced: bool):
    """Gate mean(g2) = grad and, for the plain estimator, E||g2||^2.

    ||mean - grad||^2 has expectation (m2 - 1)||grad||^2 / n with
    m2 = E||g2||^2 / ||grad||^2, so the ratio below is in standard-error
    units. For the plain estimator ||g2||^2/||grad||^2 = D + ((d-1)/q)^2
    (1-D) B with B ~ Beta(q/2, (d-1-q)/2), which gives its exact spread.
    """
    m2 = D + (d / q if variance_reduced else (d - 1) / q) * (1.0 - D)

    def check(out):
        rel, n2 = out
        devs, problems = [], []
        if m2 - 1.0 <= 1e-12:
            if rel > 1e-9:
                problems.append(f"g2 mean off by {rel:.3g} with an exact prior")
        else:
            devs.append(rel / math.sqrt((m2 - 1.0) / n))
        if not variance_reduced:
            a, b = q / 2, (d - 1 - q) / 2
            sd = ((d - 1) / q) ** 2 * (1.0 - D) * math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
            if sd == 0.0:
                if abs(n2 - m2) > 1e-9 * m2:
                    problems.append(f"g2 norm {n2:.6g} != {m2:.6g} with an exact prior")
            else:
                devs.append(abs(n2 - m2) / (sd / math.sqrt(n)))
        return devs, problems
    return check


def _margin(out):
    return [], ([] if out >= -1e-12 else [f"subspace margin {out:.3g} < 0"])


def _lemma36(out):
    violations, samples = out
    problems = [] if violations == 0 else [f"{violations} lemma 3.6 violations"]
    if len(samples) != 999:
        problems.append(f"{len(samples)} drift samples, expected 999")
    return [], problems


def _bounds(out):
    return [], [f"{c.name}@T={c.T}: {c.observed:.4g} > {c.bound:.4g}" for c in out if not c.ok]


class ContractsSmallD:
    """The AC02-AC07 Monte-Carlo and bound checks at d <= 101.

    Frames are at most 10x101, so per-call overhead outweighs Gaussian
    throughput; the fd oracle is never used, and the exact-oracle greedy
    runs log every row. This is the bypass side for d=500 frame, fd-oracle
    and batch-parallel changes: the prediction there is no change.
    """

    name = "contracts_small_d"
    PASS_S = 1.9

    def _jobs(self, seed: int, k: int):
        """(diagnostics function, args, kwargs, MC samples, iterations, dd queries, check)."""
        s = job_seeds(seed, k, 20)
        jobs = [("mc_rgf_drift", (50, 5, 4000, RngHandle(s[0])), {}, 4000, 0, 0, _drift(0.1))]
        for i, D in enumerate((0.0, 0.25, 0.5, 0.9)):
            jobs.append(("mc_prgf_drift", (101, 10, D, 2000, RngHandle(s[1 + i])), {},
                         2000, 0, 0, _drift(D + (1.0 - D) * 10 / 100)))
        for i, D in enumerate((0.0, 0.5, 1.0)):
            jobs.append(("mc_g2_moments", (20, 4, D, 4000, RngHandle(s[5 + i])), {},
                         4000, 0, 0, _g2(20, 4, D, 4000, False)))
        for i, D in enumerate((0.0, 0.5)):
            jobs.append(("mc_g2_moments", (20, 4, D, 4000, RngHandle(s[8 + i])),
                         {"variance_reduced": True}, 4000, 0, 0, _g2(20, 4, D, 4000, True)))
        for i, d in enumerate((3, 5, 8)):
            jobs.append(("subspace_optimality_margin", (d, 2, 1000, RngHandle(s[10 + i])), {},
                         20, 0, 0, _margin))
        for i, mult in enumerate((1.0, 10.0, 50.0)):
            jobs.append(("check_lemma36", (100, 5, mult, 1000), {"seed": s[13 + i]},
                         0, 1000, 1000 * 6, _lemma36))
        bound_seeds = range(s[16] * 20, s[16] * 20 + 20)
        jobs.append(("check_theorem_bounds", (50, 5, [100]), {"seeds": bound_seeds},
                     0, 20 * 100, 20 * 100 * 5, _bounds))
        jobs.append(("check_theorem_bounds", (50, 5, [50, 100]),
                     {"seeds": bound_seeds, "L_hat_mult": 50.0, "historical": True},
                     0, 20 * 100, 20 * 100 * 6, _bounds))
        return jobs

    def setup(self, out_dir: Path):
        rng = RngHandle(0)
        diag.mc_rgf_drift(50, 5, 1000, rng)
        diag.mc_prgf_drift(101, 10, 0.5, 1000, rng)
        diag.mc_g2_moments(20, 4, 0.5, 200, rng)
        diag.mc_g2_moments(20, 4, 0.5, 200, rng, variance_reduced=True)
        diag.subspace_optimality_margin(3, 2, 100, rng, n_trials=2)
        diag.check_lemma36(100, 5, 10.0, 50, seed=0)
        diag.check_theorem_bounds(50, 5, [10], seeds=range(20))
        diag.check_theorem_bounds(50, 5, [50], seeds=range(20), L_hat_mult=50.0, historical=True)

    def run_pass(self, log, seed: int, k: int, out_dir: Path) -> PassResult:
        res = PassResult()
        digest = hashlib.sha256()
        for fname, args, kwargs, samples, iters, dd, check in self._jobs(seed, k):
            res.attempted += 1
            try:
                out = log.run_job("diagnostics." + fname, getattr(diag, fname), *args, **kwargs)
            except Exception:
                _report_exception(res, fname, 1)
                continue
            job = len(log.job_bounds) - 1
            digest.update(repr((fname, out)).encode())
            devs, problems = check(out)
            if not all(math.isfinite(v) for v in devs):
                res.failed += 1
                print(f"{fname}{args[:3]}: non-finite result {out!r}", file=sys.stderr)
                continue
            res.devs.extend(devs)
            res.problems.extend(f"{fname}{args[:3]}: {p}" for p in problems)
            res.problems.extend(f"{fname}{args[:3]}: {v:.2f} se > {MC_Z_MAX}"
                                for v in devs if v > MC_Z_MAX)
            if samples:
                res.mc_samples += samples
                res.mc_jobs.append(job)
            if iters:
                res.iterations += iters
                res.dd_queries += dd
                res.iter_jobs.append(job)
        res.digest = digest.hexdigest()
        return res


WORKLOADS = {w.name: w for w in (GreedyF2(), ArsPresets(), ContractsSmallD())}
