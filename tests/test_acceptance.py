"""Acceptance suite: one test per numbered criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete. The heavy robustness experiment (criterion 8) is RNG-throughput
bound and takes several minutes on a single-core host.
"""

import time

import numpy as np

from pgzo.ars import ArsConfig, alpha_beta_gamma, run_ars, theta_floor, theta_from_D
from pgzo.bench import RunConfig, run_single
from pgzo.core import OracleHandle, RngHandle, directional_derivative, sample_unit_sphere
from pgzo.diagnostics import (check_lemma36, check_theorem_bounds, mc_g2_moments,
                              mc_prgf_drift, mc_rgf_drift, subspace_optimality_margin)
from pgzo.greedy import GreedyConfig, run_greedy
from pgzo.testfns import bench_function, biased_prior_feed


def report(num: int, ok: bool, detail: str, t0: float):
    status = "PASS" if ok else "FAIL"
    print(f"[AC{num:02d}] {status}  {detail}  ({time.time() - t0:.1f}s)")
    assert ok, f"criterion {num}: {detail}"


def test_ac01_finite_difference_fidelity():
    t0 = time.time()
    fn = bench_function("f2", 20)
    obj = fn.as_objective()
    mu = 1e-6
    bound = 0.5 * fn.L * mu
    rng = RngHandle(101)
    worst = 0.0
    for _ in range(100):
        x = rng.gen.standard_normal(20) * 3.0
        v = sample_unit_sphere(rng, 20)
        oracle = OracleHandle(obj, mu=mu)
        err = abs(directional_derivative(oracle, x, v) - float(fn.grad(x) @ v))
        worst = max(worst, err)
    report(1, worst <= bound, f"max |g_mu - grad.v| = {worst:.3e} <= {bound:.1e}", t0)


def test_ac02_rgf_drift():
    t0 = time.time()
    mean, se = mc_rgf_drift(50, 5, 20000, RngHandle(202))
    dev = abs(mean - 0.1) / se
    report(2, dev <= 3.0, f"RGF drift mean {mean:.5f} vs 0.1 ({dev:.2f} se)", t0)


def test_ac03_prgf_drift():
    t0 = time.time()
    devs = []
    for i, D in enumerate((0.0, 0.25, 0.5, 0.9)):
        mean, se = mc_prgf_drift(101, 10, D, 20000, RngHandle(300 + i))
        target = D + (1 - D) / 10
        devs.append(abs(mean - target) / se)
    report(3, max(devs) <= 3.0, f"PRGF drift worst deviation {max(devs):.2f} se", t0)


def test_ac04_subspace_optimality():
    t0 = time.time()
    margins = [subspace_optimality_margin(d, 2, 1000, RngHandle(400 + d)) for d in (3, 5, 8)]
    report(4, min(margins) >= -1e-12, f"min cos^2 margin {min(margins):.2e}", t0)


def test_ac05_g2_contract():
    t0 = time.time()
    ok = True
    details = []
    for i, D in enumerate((0.0, 0.5, 1.0)):
        rel, n2 = mc_g2_moments(20, 4, D, 50000, RngHandle(500 + i))
        target = D + (19 / 4) * (1 - D)
        norm_err = abs(n2 - target) / target
        ok = ok and rel <= 0.01 and norm_err <= 0.02
        details.append(f"D={D}: mean {rel * 100:.2f}%, norm2 {norm_err * 100:.2f}%")
    report(5, ok, "; ".join(details), t0)


def test_ac06_lemma36_non_violation():
    t0 = time.time()
    counts = {}
    for mult in (1.0, 10.0, 50.0):
        violations, samples = check_lemma36(100, 5, mult, 1000, seed=606)
        counts[mult] = violations
        assert len(samples) == 999
    report(6, all(v == 0 for v in counts.values()),
           f"violations per L_hat multiple: {counts}", t0)


def test_ac07_convergence_bounds():
    t0 = time.time()
    strong = [c for c in check_theorem_bounds(50, 5, [100], seeds=range(20))
              if c.name == "strongly_convex_rate"]
    hist = check_theorem_bounds(50, 5, [50, 100], seeds=range(20),
                                L_hat_mult=50.0, historical=True)
    ok = all(c.ok for c in strong + hist)
    det = "; ".join(f"{c.name}@T={c.T}: {c.observed:.2f}<={c.bound:.2f}" for c in strong + hist)
    report(7, ok, det, t0)


def test_ac08_learning_rate_robustness():
    t0 = time.time()
    budget = 1_100_000
    seeds = tuple(range(10))
    common = dict(function="f2", dim=500, budget=budget, target_log10=-3.0,
                  log_every=512, diagnostics=False, seeds=seeds)

    def reaches(algo, q, scale, prior="none", stop=True):
        out = []
        finals = []
        for s in seeds:
            cfg = RunConfig(algo=algo, q=q, lhat_scale=scale, prior=prior,
                            stop_on_target=stop, **common)
            tr = run_single(cfg, s)
            out.append(tr.reached_queries)
            finals.append(tr.rows[-1][4])
        return out, finals

    rgf_opt, _ = reaches("rgf", 11, 1.0)
    hist, _ = reaches("history_prgf", 10, 50.0, prior="historical")
    rgf_slow, finals_slow = reaches("rgf", 11, 50.0)

    assert all(r is not None for r in rgf_opt), "RGF at L_hat=L must reach -3 in budget"
    mean_opt = float(np.mean(rgf_opt))
    ok_a = all(r is not None for r in hist) and float(np.mean(hist)) <= 2.0 * mean_opt
    ok_b = all(r is None or r >= 5.0 * mean_opt for r in rgf_slow)
    # the slow runs must be far from the target, not a near-miss at budget
    ok_b = ok_b and all(f >= -1.0 for f in finals_slow)
    ratio = float(np.mean(hist)) / mean_opt
    report(8, ok_a and ok_b,
           f"History-PRGF@50L used {ratio:.2f}x RGF@L queries "
           f"(mean {np.mean(hist):.0f} vs {mean_opt:.0f}); "
           f"RGF@50L reached: {sum(r is not None for r in rgf_slow)}/10 in {budget}", t0)


def test_ac09_acceleration_ordering():
    t0 = time.time()
    budget = 11 * 2500
    common = dict(function="f1", dim=256, budget=budget, seeds=tuple(range(10)),
                  lhat_scale=1.0, log_every=16, diagnostics=False)
    final = {}
    for algo, q, prior in (("rgf", 11, "none"), ("prgf", 10, "biased"),
                           ("ars", 11, "none"), ("pars_naive", 10, "biased"),
                           ("pars_impl", 8, "biased")):
        cfg = RunConfig(algo=algo, q=q, prior=prior, **common)
        vals = [run_single(cfg, s).rows[-1][4] for s in cfg.seeds]
        final[algo] = float(np.mean(vals))
    orderings = {
        "ARS<RGF": final["ars"] < final["rgf"],
        "PARS-Impl<ARS": final["pars_impl"] < final["ars"],
        "PARS-Impl<PARS-Naive": final["pars_impl"] < final["pars_naive"],
        "PRGF<RGF": final["prgf"] < final["rgf"],
    }
    det = ", ".join(f"{k}:{'ok' if v else 'NO'}" for k, v in orderings.items())
    det += "; " + ", ".join(f"{k}={v:.2f}" for k, v in final.items())
    report(9, all(orderings.values()), det, t0)


def test_ac10_theta_machinery():
    t0 = time.time()
    ok = (abs(theta_from_D(0.0, 10, 101, 1.0) - 0.01) < 1e-15
          and abs(theta_from_D(0.5, 10, 101, 1.0) - 0.1) < 1e-15
          and abs(theta_from_D(1.0, 10, 101, 1.0) - 1.0) < 1e-15)
    rng = RngHandle(1001)
    worst_residual = 0.0
    for _ in range(200):
        theta = float(rng.gen.uniform(0, 0.5))
        gamma = float(rng.gen.uniform(0.1, 4.0))
        tau = float(rng.gen.uniform(0, gamma))
        a, _, _ = alpha_beta_gamma(theta, gamma, tau)
        worst_residual = max(worst_residual,
                             abs(a * a - theta * ((1 - a) * gamma + a * tau)))
    ok = ok and worst_residual <= 1e-12

    d = 60
    fn = bench_function("f2", d)
    floor_ok = True
    for variant, q in (("pars_impl", 8), ("pars_est", 10), ("history_pars", 10)):
        feed = biased_prior_feed(fn, RngHandle(77)) if variant != "history_pars" else None
        cfg = ArsConfig(L_hat=2.0, q=q, algo=variant, budget=100 * 3 * (q + 1),
                        diagnostics=False)
        trace = run_ars(fn.as_objective(), cfg, seed=10, prior_feed=feed)
        thetas = trace.column("theta_t")
        thetas = thetas[~np.isnan(thetas)]
        floor_ok = floor_ok and np.all(thetas >= theta_floor(q, d, 2.0) - 1e-15)
    report(10, ok and floor_ok,
           f"tabulated thetas exact, alpha residual {worst_residual:.1e}, floors hold", t0)


def test_ac11_query_accounting():
    t0 = time.time()
    fn = bench_function("f2", 40)
    obj = fn.as_objective()
    checks = {}

    gcfg = GreedyConfig(L_hat=2.0, q=7, algo="rgf", budget=7 * 100, diagnostics=False)
    checks["greedy_rgf(q)"] = run_greedy(obj, gcfg, 0).final_queries == 700
    gcfg = GreedyConfig(L_hat=2.0, q=7, algo="history_prgf", budget=8 * 100, diagnostics=False)
    checks["greedy_hist(q+1)"] = run_greedy(obj, gcfg, 0).final_queries == 800

    feed = biased_prior_feed(fn, RngHandle(5))
    for variant, q, per in (("ars", 7, 7), ("pars_naive", 7, 8), ("history_pars", 7, 8),
                            ("pars_impl", 7, 10)):
        pf = feed if variant in ("pars_naive", "pars_impl") else None
        acfg = ArsConfig(L_hat=2.0, q=q, algo=variant, budget=per * 100, diagnostics=False)
        tr = run_ars(obj, acfg, 0, prior_feed=pf)
        checks[f"{variant}({per}/iter)"] = (tr.final_queries == per * 100
                                            and tr.rows[-1][0] == 100)

    acfg = ArsConfig(L_hat=2.0, q=7, algo="pars_est", budget=3 * 8 * 100, diagnostics=False)
    tr = run_ars(obj, acfg, 0, prior_feed=feed)
    analytic = sum((2 + g) * 8 for g in tr.guess_passes)
    checks["pars_est(2(q+1)+loop)"] = tr.final_queries == analytic

    report(11, all(checks.values()),
           ", ".join(f"{k}:{'ok' if v else 'NO'}" for k, v in checks.items()), t0)
