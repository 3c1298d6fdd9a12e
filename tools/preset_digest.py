#!/usr/bin/env python3
"""One SHA-256 over the CSVs of all six paper presets at a small budget.

    python3 tools/preset_digest.py

Runs ``fig1_f1``, ``fig1_f2``, ``fig1_f3``, ``fig2_f1``, ``fig2_f2`` and
``fig2_f4`` through the CLI's ``run_from_settings`` with fixed seeds and a
reduced query budget, writes their CSVs to a temporary directory and prints
one SHA-256 over every CSV's file name and bytes, in file-name order. A
change that keeps every trace bit-identical prints the same digest as its
parent.
Run it from a checkout; pgzo is imported from its ``src``.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pgzo.cli import run_from_settings  # noqa: E402

PRESETS = ("fig1_f1", "fig1_f2", "fig1_f3", "fig2_f1", "fig2_f2", "fig2_f4")
SEEDS = (0, 1)
BUDGET = 11 * 300


def preset_digest() -> str:
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for name in PRESETS:
            run_from_settings({"preset": name, "budget": BUDGET, "seeds": SEEDS,
                               "out": str(Path(tmp) / name)})
        for csv in sorted(Path(tmp).glob("*.csv")):
            digest.update(csv.name.encode() + b"\0" + csv.read_bytes())
    return digest.hexdigest()


if __name__ == "__main__":
    print(preset_digest())
