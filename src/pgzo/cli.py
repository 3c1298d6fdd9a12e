"""Command-line benchmark runner.

Configuration comes from an optional flat ``key = value`` file plus CLI
flags; flags win. Exit codes: 0 success, 2 bad configuration or invalid prior,
3 oracle failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from .bench import (BatchResult, RunConfig, emit_csv, emit_svg, preset, run_batch)
from .core import ConfigError, InvalidPriorError, OracleFailureError

EXIT_OK, EXIT_CONFIG, EXIT_ORACLE, EXIT_IO = 0, 2, 3, 4

_BOOL_KEYS = {"restart", "diagnostics", "stop_on_target"}
_INT_KEYS = {"dim", "q", "budget", "log_every"}
_FLOAT_KEYS = {"lhat", "lhat_scale", "mu", "gamma0", "target_log10"}
# the settings a preset run takes besides "preset" and "out"
_PRESET_OVERRIDES = {"budget", "seeds", "mu", "log_every", "diagnostics", "oracle_mode", "dim"}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pgzo", description="Zeroth-order optimization benchmarks")
    p.add_argument("--config", help="flat key = value config file; flags override")
    p.add_argument("--preset", help="fig1_f1 | fig1_f2 | fig1_f3 | fig2_f1 | fig2_f2 | fig2_f4")
    p.add_argument("--function", help="f1 | f2 | f3 | f4")
    p.add_argument("--dim", type=int)
    p.add_argument("--algo", help="rgf | prgf | history_prgf | ars | pars_naive | "
                                  "pars_est | pars_impl | history_pars")
    p.add_argument("--q", type=int)
    p.add_argument("--lhat", type=float, help="absolute smoothness upper bound")
    p.add_argument("--lhat-scale", type=float, help="multiple of the true L")
    p.add_argument("--tau-hat", help="number, or 'true' for the function's tau")
    p.add_argument("--mu", type=float, help="finite-difference step")
    p.add_argument("--budget", type=int, help="directional-derivative query budget")
    p.add_argument("--seeds", help="comma-separated seed list, e.g. 0,1,2")
    p.add_argument("--prior", help="none | historical | biased; follows from --algo")
    p.add_argument("--restart", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--gamma0", type=float)
    p.add_argument("--oracle-mode", choices=("fd", "exact"))
    p.add_argument("--log-every", type=int)
    p.add_argument("--diagnostics", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--out", help="output path prefix for CSV/SVG files")
    return p


def _parse_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected 'key = value', got {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            out[key.replace("-", "_")] = val
    return out


def _coerce(key: str, val):
    if not isinstance(val, str):
        return val
    if key in _BOOL_KEYS:
        if val.lower() in ("1", "true", "yes", "on"):
            return True
        if val.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {val!r}")
    try:
        if key in _INT_KEYS:
            return int(val)
        if key in _FLOAT_KEYS:
            return float(val)
        if key == "seeds":
            return tuple(int(s) for s in val.split(",") if s.strip())
        if key == "tau_hat":
            return val if val == "true" else float(val)
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {val!r}") from exc
    return val


def _merge_settings(args: argparse.Namespace) -> dict:
    settings: dict = {}
    if args.config:
        settings.update(_parse_config_file(args.config))
    settings.update((k, v) for k, v in vars(args).items() if k != "config" and v is not None)
    return {k: _coerce(k, v) for k, v in settings.items()}


def _configs_from_settings(settings: dict) -> tuple[List[RunConfig], str]:
    out_prefix = settings.pop("out", "pgzo_out")
    preset_name = settings.pop("preset", None)
    if preset_name:
        ignored = sorted(set(settings) - _PRESET_OVERRIDES)
        if ignored:
            raise ConfigError(f"preset {preset_name!r} does not take {', '.join(ignored)}")
        # replace() re-runs RunConfig's validation on the overridden values
        return [dataclasses.replace(cfg, **settings) for cfg in preset(preset_name)], out_prefix
    required = ("function", "dim", "algo", "q", "budget")
    missing = [k for k in required if k not in settings]
    if missing:
        raise ConfigError(f"missing required settings: {', '.join(missing)}")
    try:
        return [RunConfig(**settings)], out_prefix
    except TypeError as exc:  # unknown key in a config file
        raise ConfigError(str(exc)) from exc


def _safe_label(label: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in label)


def run_from_settings(settings: dict) -> List[BatchResult]:
    configs, out_prefix = _configs_from_settings(dict(settings))
    results = [run_batch(cfg) for cfg in configs]
    for res in results:
        suffix = f"_{_safe_label(res.config.label)}" if len(results) > 1 else ""
        emit_csv(res.traces, f"{out_prefix}{suffix}.csv")
    emit_svg([r.aggregate for r in results], f"{out_prefix}.svg")
    return results


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        settings = _merge_settings(args)
        results = run_from_settings(settings)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvalidPriorError as exc:
        print(f"invalid prior: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OracleFailureError as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    for res in results:
        final = res.mean_final_log10()
        print(f"{res.config.label:24s} seeds={len(res.traces)} "
              f"final mean log10 rel err = {final: .4f}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
