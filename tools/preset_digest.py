#!/usr/bin/env python3
"""One SHA-256 over the CSVs of all six paper presets at a small budget.

    python3 tools/preset_digest.py [--extended] [--src DIR]

Runs ``fig1_f1``, ``fig1_f2``, ``fig1_f3``, ``fig2_f1``, ``fig2_f2`` and
``fig2_f4`` through the CLI's ``run_from_settings`` with fixed seeds and a
reduced query budget, writes their CSVs to a temporary directory and prints
one SHA-256 over every CSV's file name and bytes, in file-name order. A
change that keeps every trace bit-identical prints the same digest as its
parent.

No preset runs ``pars_est``. ``--extended`` adds one small ``pars_est`` run
(f1, d=256, biased prior, fixed seeds) to the hashed CSVs and prints that
digest instead. pgzo is imported from the ``src`` of this checkout, or from
``--src DIR``, so the same tool can hash another checkout's traces.
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
            digest.update(csv.name.encode() + b"\0" + csv.read_bytes())
    return digest.hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--extended", action="store_true", help="also hash one pars_est run")
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                    help="directory that holds the pgzo package (default: this checkout's src)")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    print(preset_digest(args.extended))


if __name__ == "__main__":
    main()
