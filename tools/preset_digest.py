#!/usr/bin/env python3
"""One SHA-256 over the CSVs of all six paper presets at a small budget.

    python3 tools/preset_digest.py [--extended] [--src DIR]

Runs ``fig1_f1``, ``fig1_f2``, ``fig1_f3``, ``fig2_f1``, ``fig2_f2`` and
``fig2_f4`` through the CLI's ``run_from_settings`` with fixed seeds and a
reduced query budget, writes their CSVs to a temporary directory and prints
one SHA-256 over every CSV's file name and bytes, in file-name order. A
change that keeps every trace bit-identical prints the same digest as its
parent. To stderr it prints one SHA-256 per hashed part, so a moved digest
says what moved: each CSV by file name and, with ``--extended``, each matrix
run by ``(algo, function, mode, seed)`` and the Monte-Carlo results.

No preset runs ``pars_est``, and the CSVs hold neither the target crossing
nor the ARS restart and guess-pass counts. ``--extended`` adds one small
``pars_est`` run (f1, d=256, biased prior, fixed seeds) to the hashed CSVs,
plus a run matrix hashed from the traces themselves: all eight algorithms on
f1 and f2 at d=40, fd and exact oracles, diagnostics on, every third row,
a stopping target of log10 error -3 and restarts on for the ARS family,
seeds 0 and 1; each run hashes its rows, ``reached_queries``, ``restarts``
and ``guess_passes``. It also hashes the results of small Monte-Carlo
checks whose frames have q at or near d: ``mc_rgf_drift`` at (d, q) = (3, 3)
and (10, 3), ``mc_prgf_drift`` at (4, 3), ``mc_g2_moments`` at (6, 2), plain
and variance-reduced, ``subspace_optimality_margin`` at (3, 2) and
``check_lemma36`` at (20, 4). It prints that digest instead (about 10 s).
pgzo is imported from the ``src`` of this checkout, or from ``--src DIR``,
so the same tool can hash another checkout's traces.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

PRESETS = ("fig1_f1", "fig1_f2", "fig1_f3", "fig2_f1", "fig2_f2", "fig2_f4")
SEEDS = (0, 1)
BUDGET = 11 * 300
PARS_EST = {"function": "f1", "dim": 256, "algo": "pars_est", "q": 10, "prior": "biased",
            "lhat_scale": 1.0, "label": "PARS-Est"}
# not read from bench.ALGO_PRIORS: --src checkouts may predate it and require prior
MATRIX_PRIORS = {"rgf": "none", "prgf": "biased", "history_prgf": "historical",
                 "ars": "none", "pars_naive": "biased", "pars_impl": "biased",
                 "pars_est": "biased", "history_pars": "historical"}
MC_SAMPLES = 1000


def hash_part(digest, name: str, data: bytes) -> None:
    """Feed ``data`` to ``digest`` and print its own SHA-256 under ``name`` to stderr."""
    digest.update(data)
    print(hashlib.sha256(data).hexdigest(), name, file=sys.stderr)


def hash_matrix(digest) -> None:
    from pgzo.bench import ARS_ALGOS, RunConfig, run_single

    for algo, prior in MATRIX_PRIORS.items():
        for function in ("f1", "f2"):
            for mode in ("fd", "exact"):
                cfg = RunConfig(function=function, dim=40, algo=algo, q=5, budget=2400,
                                lhat_scale=1.0, prior=prior, oracle_mode=mode,
                                diagnostics=True, log_every=3, target_log10=-3.0,
                                stop_on_target=True, restart=algo in ARS_ALGOS)
                for seed in SEEDS:
                    tr = run_single(cfg, seed)
                    run = (algo, function, mode, seed)
                    # repr round-trips every float exactly
                    hash_part(digest, repr(run), repr((*run, tr.rows, tr.reached_queries,
                                                       tr.restarts, tr.guess_passes)).encode())


def hash_monte_carlo(digest) -> None:
    from pgzo import diagnostics as dg
    from pgzo.core import RngHandle

    n = MC_SAMPLES
    results = (dg.mc_rgf_drift(3, 3, n, RngHandle(0)),
               dg.mc_rgf_drift(10, 3, n, RngHandle(0)),
               dg.mc_prgf_drift(4, 3, 0.5, n, RngHandle(0)),
               dg.mc_g2_moments(6, 2, 0.5, n, RngHandle(0)),
               dg.mc_g2_moments(6, 2, 0.5, n, RngHandle(0), variance_reduced=True),
               dg.subspace_optimality_margin(3, 2, 100, RngHandle(0)),
               dg.check_lemma36(20, 4, 10.0, 100, seed=0))
    hash_part(digest, "monte_carlo", repr(results).encode())


def preset_digest(extended: bool = False) -> str:
    from pgzo.cli import run_from_settings

    runs = [(name, {"preset": name}) for name in PRESETS]
    if extended:
        runs.append(("pars_est", PARS_EST))
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for name, settings in runs:
            run_from_settings(dict(settings, budget=BUDGET, seeds=SEEDS,
                                   out=str(Path(tmp) / name)))
        for csv in sorted(Path(tmp).glob("*.csv")):
            hash_part(digest, csv.name, csv.name.encode() + b"\0" + csv.read_bytes())
    if extended:
        hash_matrix(digest)
        hash_monte_carlo(digest)
    return digest.hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--extended", action="store_true",
                    help="also hash one pars_est run, the run matrix and small "
                         "Monte-Carlo checks")
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                    help="directory that holds the pgzo package (default: this checkout's src)")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    print(preset_digest(args.extended))


if __name__ == "__main__":
    main()
