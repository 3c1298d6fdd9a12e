"""What the benchmark measures: workloads, metrics, bounds and layer map.

``BENCHMARK.json`` at the repository root is generated from this file with
``python3 perfbench/run.py --write-manifest``; edit here, not there.
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 22

# One line each (at most 200 characters): why the workload exists, which
# layers it loads and which it bypasses.
WORKLOADS = {
    "greedy_f2_d500": (
        "AC08/fig2 traffic: RGF and History-PRGF to log10 err -0.15 on f2 d=500, fd oracle, "
        "run_batch over 3+5 seeds; loads frames/core; bypasses trace, bench output and diagnostics"),
    "ars_presets_d256": (
        "fig1_f1+fig1_f3 presets (2+3 seeds) and pars_est (8 seeds) via cli at d=256: ARS family, "
        "oracle base misses, CSV/SVG; known defect: fig1_f3 PARS diverges, counted in failed"),
    "contracts_small_d": (
        "AC02-AC07 Monte-Carlo shapes at d<=101, exact oracle: per-call frame overhead, greedy/trace "
        "drivers; bypasses the fd oracle and d=500 frames, where no change is predicted"),
}

# name -> (unit, better, bound). The bound is the share of the parent's
# median by which the metric may worsen before a change is rejected. Times
# are calibrated to the host's nominal speed (hostclock.py): on the 2-vCPU
# reference host the same pass runs 15-40 % slower or faster from one
# ten-second stretch to the next, and calibration brings the spread of ten
# runs down to a few per cent. Every timing keeps the widest bound all the same.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "job_s_p50": ("s", "lower", 0.25),
    "job_s_tail": ("s", "lower", 0.25),
    "dd_queries_per_s": ("1/s", "higher", 0.25),
    "iters_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
}

# Printed where they apply but not gated: they exist on only some workloads,
# or they are signed/zero on others.
REPORTED_ONLY = {
    "time_to_target_s": "s",
    "queries_to_target": "count",
    "final_log10_rel_err": "log10",
    "mc_samples_per_s": "1/s",
    "contract_dev_se_max": "se",
    "failed_frac": "frac",
}

# name -> (unit, better, which end-to-end metric it should move, on which
# workload). Values are per traced pass unless the unit is a ratio or a
# per-call percentile.
PER_LAYER = {
    "frames.build_frame.calls": ("count", "lower", "time_to_target_s, dd_queries_per_s on greedy_f2_d500; mc_samples_per_s on contracts_small_d"),
    "frames.build_frame.s": ("s", "lower", "time_to_target_s, dd_queries_per_s on greedy_f2_d500; mc_samples_per_s on contracts_small_d"),
    "frames.build_frame.us_p50": ("us", "lower", "dd_queries_per_s on greedy_f2_d500; mc_samples_per_s on contracts_small_d"),
    "frames.build_frame.us_tail": ("us", "lower", "job_s_tail on greedy_f2_d500"),
    "frames.draw.s": ("s", "lower", "time_to_target_s on greedy_f2_d500 (Gaussian draws inside build_frame)"),
    "frames.orthonormalize.s": ("s", "lower", "time_to_target_s on greedy_f2_d500 (build_frame minus its draws)"),
    "frames.gaussians_drawn": ("count", "lower", "time_to_target_s on greedy_f2_d500; queries_to_target stays unless the random stream changes"),
    "frames.orth_flops_computed": ("flop", "lower", "time_to_target_s on greedy_f2_d500; mc_samples_per_s on contracts_small_d"),
    "frames.bytes_moved_computed": ("B", "lower", "time_to_target_s on greedy_f2_d500"),
    "frames.probe.self_s": ("s", "lower", "iters_per_s on all workloads"),
    "frames.estimators.s": ("s", "lower", "iters_per_s on all workloads"),
    "core.dd_calls": ("count", "lower", "dd_queries_per_s, wall_s on ars_presets_d256"),
    "core.dd_queries": ("count", "lower", "dd_queries_per_s on ars_presets_d256; queries_to_target on greedy_f2_d500"),
    "core.fn_evals": ("count", "lower", "dd_queries_per_s, wall_s on ars_presets_d256"),
    "core.base_hit_ratio": ("ratio", "higher", "dd_queries_per_s on ars_presets_d256"),
    "core.dd.self_s": ("s", "lower", "dd_queries_per_s, wall_s on ars_presets_d256"),
    "core.dd.us_p50": ("us", "lower", "dd_queries_per_s on ars_presets_d256 and greedy_f2_d500"),
    "core.gradient_at.s": ("s", "lower", "iters_per_s on contracts_small_d (exact oracle)"),
    "testfns.eval_batch.calls": ("count", "lower", "dd_queries_per_s on ars_presets_d256; ~0 on contracts_small_d"),
    "testfns.eval_batch.rows": ("count", "lower", "dd_queries_per_s on ars_presets_d256; ~0 on contracts_small_d"),
    "testfns.eval_batch.s": ("s", "lower", "dd_queries_per_s, wall_s on ars_presets_d256"),
    "testfns.eval.calls": ("count", "lower", "wall_s on ars_presets_d256"),
    "testfns.eval.s": ("s", "lower", "wall_s on ars_presets_d256"),
    "testfns.prior_feed.calls": ("count", "lower", "iters_per_s on ars_presets_d256"),
    "testfns.prior_feed.s": ("s", "lower", "iters_per_s on ars_presets_d256"),
    "ars.self_s": ("s", "lower", "iters_per_s on ars_presets_d256, final_log10_rel_err as guard"),
    "ars.frames_per_iter": ("ratio", "lower", "iters_per_s on ars_presets_d256"),
    "ars.useful_frame_ratio": ("ratio", "higher", "iters_per_s on ars_presets_d256"),
    "ars.guess_passes_mean": ("count", "lower", "iters_per_s on ars_presets_d256 (pars_est)"),
    "greedy.self_s": ("s", "lower", "iters_per_s on contracts_small_d; negligible on greedy_f2_d500"),
    "trace.append.calls": ("count", "lower", "iters_per_s on contracts_small_d"),
    "trace.append.s": ("s", "lower", "iters_per_s on contracts_small_d"),
    "bench.run_batch.s": ("s", "lower", "wall_s on ars_presets_d256; time_to_target_s on greedy_f2_d500 when seeds run in parallel"),
    "bench.aggregate_traces.s": ("s", "lower", "wall_s on ars_presets_d256"),
    "bench.emit_csv.s": ("s", "lower", "wall_s on ars_presets_d256"),
    "bench.emit_csv.bytes": ("B", "lower", "wall_s on ars_presets_d256"),
    "bench.emit_svg.s": ("s", "lower", "wall_s on ars_presets_d256"),
    "bench.emit_svg.bytes": ("B", "lower", "wall_s on ars_presets_d256"),
    "cli.run_from_settings.self_s": ("s", "lower", "wall_s on ars_presets_d256"),
    "diagnostics.samples": ("count", "higher", "mc_samples_per_s on contracts_small_d"),
    "diagnostics.self_s": ("s", "lower", "mc_samples_per_s on contracts_small_d"),
    "tracing.overhead_frac": ("ratio", "lower", "none: cost of the traced pass over the untraced one"),
    "tracing.spans": ("count", "lower", "none: spans recorded per traced pass"),
}


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, (u, b, bd) in END_TO_END.items()],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, (u, b, _) in PER_LAYER.items()],
    }


def write_manifest(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(manifest(), indent=2) + "\n")
    return path
