"""Command-line benchmark runner.

Configuration comes from an optional flat ``key = value`` file plus CLI
flags; flags win. Every ``RunConfig`` field is both a flag and a key, read
from text by the one parser of its annotation. Exit codes: 0 success, 2 bad
configuration or invalid prior, 3 oracle failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional, Sequence, Union, get_type_hints

from .bench import (ALGO_PRIORS, PRESETS, BatchResult, RunConfig, emit_csv, emit_svg, preset,
                    run_batch)
from .core import ConfigError, InvalidPriorError, OracleFailureError
from .testfns import FUNCTION_IDS

EXIT_OK, EXIT_CONFIG, EXIT_ORACLE, EXIT_IO = 0, 2, 3, 4

# the settings a preset run takes besides "preset" and "out"
_PRESET_OVERRIDES = {"budget", "seeds", "mu", "log_every", "diagnostics", "oracle_mode", "dim"}


def _bool(text: str) -> bool:
    value = text.lower() in ("1", "true", "yes", "on")
    if not value and text.lower() not in ("0", "false", "no", "off"):
        raise ValueError(text)
    return value


# The parser of each RunConfig annotation; a field of any other type fails here.
_PARSERS = {bool: _bool, int: int, float: float, Optional[float]: float,
            Sequence[int]: lambda text: tuple(int(s) for s in text.split(",") if s.strip()),
            Union[float, str]: lambda text: text if text == "true" else float(text),
            str: str, Optional[str]: str}
_HINTS = get_type_hints(RunConfig)
_PARSE = {f.name: _PARSERS[_HINTS[f.name]] for f in dataclasses.fields(RunConfig)}
_REQUIRED = [f.name for f in dataclasses.fields(RunConfig) if f.default is dataclasses.MISSING]
_HELP = {"function": " | ".join(FUNCTION_IDS), "algo": " | ".join(ALGO_PRIORS),
         "prior": f"{' | '.join(dict.fromkeys(ALGO_PRIORS.values()))}; follows from --algo",
         "oracle_mode": "fd | exact", "lhat": "absolute smoothness upper bound",
         "lhat_scale": "multiple of the true L", "mu": "finite-difference step",
         "tau_hat": "number, or 'true' for the function's tau", "budget": "dd-query budget",
         "seeds": "comma-separated seed list, e.g. 0,1,2"}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pgzo", description="Zeroth-order optimization benchmarks")
    p.add_argument("--config", help="flat key = value config file; flags override")
    p.add_argument("--preset", help=" | ".join(PRESETS))
    p.add_argument("--out", help="output path prefix for CSV/SVG files")
    for name, parse in _PARSE.items():  # every RunConfig field, its value as text
        action = argparse.BooleanOptionalAction if parse is _bool else None
        p.add_argument("--" + name.replace("_", "-"), action=action, help=_HELP.get(name))
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
    if not isinstance(val, str) or key not in _PARSE:
        return val
    try:
        return _PARSE[key](val)
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {val!r}") from exc


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
    missing = [k for k in _REQUIRED if k not in settings]
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
    results = []
    for cfg in configs:  # each CSV is written as its batch ends, so a failure keeps them
        results.append(run_batch(cfg))
        suffix = f"_{_safe_label(cfg.label)}" if len(configs) > 1 else ""
        emit_csv(results[-1].traces, f"{out_prefix}{suffix}.csv")
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
