import dataclasses
import os
import typing
import xml.etree.ElementTree as ET

import pytest

import pgzo.cli as cli
from pgzo.bench import ALGO_PRIORS, RunConfig, preset, run_batch
from pgzo.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from pgzo.core import InvalidPriorError, OracleFailureError


def test_single_run_writes_outputs(tmp_path, capsys):
    out = str(tmp_path / "run")
    rc = main(["--function", "f2", "--dim", "15", "--algo", "rgf", "--q", "5",
               "--lhat-scale", "1", "--budget", "200", "--seeds", "0,1",
               "--out", out])
    assert rc == EXIT_OK
    assert os.path.exists(out + ".csv") and os.path.exists(out + ".svg")
    assert "final mean log10" in capsys.readouterr().out


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# demo config\n"
        "function = f2\n"
        "dim = 15\n"
        "algo = history_prgf\n"
        "prior = historical\n"
        "q = 5\n"
        "lhat-scale = 1\n"
        "budget = 120\n"
        "seeds = 0\n"
    )
    out = str(tmp_path / "cfgrun")
    rc = main(["--config", str(cfg), "--budget", "240", "--out", out])
    assert rc == EXIT_OK
    data = open(out + ".csv").read().strip().splitlines()
    final_queries = int(data[-1].split(",")[2])
    assert final_queries == 240  # flag overrode the file's 120


def test_config_file_target_met_at_start(tmp_path):
    cfg = tmp_path / "met.cfg"
    cfg.write_text("function = f2\ndim = 10\nalgo = rgf\nq = 2\nlhat_scale = 1\n"
                   "budget = 100\ntarget_log10 = inf\nstop_on_target = true\n")
    out = str(tmp_path / "met")
    assert main(["--config", str(cfg), "--out", out]) == EXIT_OK
    assert os.path.exists(out + ".svg")
    assert len(open(out + ".csv").read().splitlines()) == 2  # header and x0


def test_config_file_stop_on_target_needs_target(tmp_path, capsys):
    cfg = tmp_path / "stop.cfg"
    cfg.write_text("function = f2\ndim = 10\nalgo = rgf\nq = 2\nlhat_scale = 1\n"
                   "budget = 100\nstop_on_target = true\n")
    out = str(tmp_path / "stop")
    assert main(["--config", str(cfg), "--out", out]) == EXIT_CONFIG
    assert "stop_on_target needs a target_log10" in capsys.readouterr().err
    assert not os.path.exists(out + ".csv")


def test_config_file_with_gamma0_is_a_config_error(tmp_path, capsys):
    # gamma starts at L-hat; a file that still sets gamma0 is told so, not run
    cfg = tmp_path / "gamma0.cfg"
    cfg.write_text("function = f2\ndim = 10\nalgo = ars\nq = 2\nlhat_scale = 1\n"
                   "budget = 100\ngamma0 = 1.0\n")
    out = str(tmp_path / "gamma0")
    assert main(["--config", str(cfg), "--out", out]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "gamma0" in err
    assert not os.path.exists(out + ".csv")


def test_config_file_label_escaped_in_svg(tmp_path):
    cfg = tmp_path / "label.cfg"
    cfg.write_text("function = f2\ndim = 10\nalgo = rgf\nq = 2\nlhat_scale = 1\n"
                   "budget = 40\nlabel = A&B <x>\n")
    out = str(tmp_path / "label")
    assert main(["--config", str(cfg), "--out", out]) == EXIT_OK
    texts = [el.text for el in ET.parse(out + ".svg").getroot().iter()
             if el.tag.endswith("text")]
    assert "A&B <x>" in texts


def test_preset_run(tmp_path):
    out = str(tmp_path / "fig")
    rc = main(["--preset", "fig1_f2", "--budget", "110", "--seeds", "0",
               "--out", out])
    assert rc == EXIT_OK
    assert os.path.exists(out + ".svg")
    assert os.path.exists(out + "_RGF.csv")
    assert os.path.exists(out + "_PARS_Naive.csv")


def test_missing_required_settings(capsys):
    rc = main(["--function", "f2", "--dim", "10"])
    assert rc == EXIT_CONFIG
    assert "missing required" in capsys.readouterr().err


def test_invalid_combo_exit_code(capsys):
    rc = main(["--function", "f2", "--dim", "10", "--algo", "ars", "--prior", "biased",
               "--q", "3", "--lhat-scale", "1", "--budget", "100"])
    assert rc == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_io_failure_exit_code(capsys):
    rc = main(["--function", "f2", "--dim", "10", "--algo", "rgf", "--q", "3",
               "--lhat-scale", "1", "--budget", "100", "--seeds", "0",
               "--out", "/no/such/dir/x"])
    assert rc == EXIT_IO
    assert "i/o error" in capsys.readouterr().err


def test_bad_config_file_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("function f2\n")
    rc = main(["--config", str(cfg)])
    assert rc == EXIT_CONFIG


def test_bad_config_file_value(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("dim = abc\n")
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: dim") and len(err.splitlines()) == 1


def test_oracle_failure_exit_code(tmp_path, capsys):
    import numpy as np
    import pgzo.cli as cli
    # a tiny lhat on Rosenbrock blows the exact-oracle iterates up to overflow
    # within a few steps; the oracle reports a structured failure. (Forward
    # differences would instead freeze once f's ULP swamps mu * grad.)
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["--function", "f3", "--dim", "10", "--algo", "rgf", "--q", "3",
                   "--lhat", "1e-9", "--budget", "3000", "--seeds", "0",
                   "--oracle-mode", "exact", "--out", str(tmp_path / "boom")])
    assert rc == cli.EXIT_ORACLE
    err = capsys.readouterr().err
    assert err.startswith("oracle failure: rgf at iteration ") and "dd-queries" in err
    assert len(err.splitlines()) == 1


def test_overflowed_historical_prior_run_exits_as_an_oracle_failure(tmp_path, capsys):
    # the run's g1 overflows; the prior keeps its last direction, so the
    # divergence exits 3 with its context instead of 2 for a zero prior
    import numpy as np
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["--function", "f2", "--dim", "30", "--algo", "history_pars", "--q", "5",
                   "--lhat", "0.5", "--restart", "--seeds", "0", "--budget", "480",
                   "--out", str(tmp_path / "boom")])
    assert rc == cli.EXIT_ORACLE
    err = capsys.readouterr().err
    assert err.startswith("oracle failure: history_pars at iteration 38 after 228 dd-queries")


def test_oracle_failure_keeps_the_finished_batches(tmp_path, monkeypatch):
    # each batch's CSV is written when the batch ends, so exit 3 in the
    # second of three entries leaves the first entry's CSV
    calls = []

    def failing_second(cfg):
        calls.append(cfg.label)
        if len(calls) == 2:
            raise OracleFailureError(f"{cfg.algo}: objective returned non-finite value nan")
        return run_batch(cfg)
    monkeypatch.setattr(cli, "preset", lambda name: preset(name)[:3])
    monkeypatch.setattr(cli, "run_batch", failing_second)
    out = str(tmp_path / "fig")
    rc = main(["--preset", "fig1_f1", "--budget", "110", "--seeds", "0", "--out", out])
    assert rc == cli.EXIT_ORACLE and calls == ["RGF", "PRGF"]
    assert os.path.exists(out + "_RGF.csv")
    assert not os.path.exists(out + "_PRGF.csv") and not os.path.exists(out + ".svg")


def test_invalid_prior_exit_code(monkeypatch, capsys):
    def bad_prior(settings):
        raise InvalidPriorError("prior must have a finite norm >= 1e-12, got nan")
    monkeypatch.setattr(cli, "run_from_settings", bad_prior)
    rc = main(["--function", "f1", "--dim", "10", "--algo", "pars_impl", "--q", "3",
               "--prior", "biased", "--lhat-scale", "1", "--budget", "100"])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("invalid prior:") and "got nan" in err
    assert len(err.splitlines()) == 1


ARS_F1 = ["--function", "f1", "--dim", "10", "--algo", "ars", "--q", "2", "--budget", "100"]


@pytest.mark.parametrize("argv,reason", [
    (["--function", "f1", "--dim", "10", "--algo", "rgf", "--q", "2", "--budget", "100",
      "--lhat-scale", "1", "--log-every", "0"], "log_every"),
    (["--preset", "fig1_f1", "--log-every", "0"], "log_every"),
    (["--preset", "fig1_f1", "--seeds", ""], "seed"),  # overrides are re-validated
    # malformed values
    (["--preset", "fig1_f1", "--seeds", "0,x"], "seeds"),
    (ARS_F1 + ["--lhat-scale", "1", "--tau-hat", "abc"], "tau_hat"),
    # settings a preset would ignore, and lhat given twice
    (["--preset", "fig1_f1", "--q", "5"], "does not take q"),
    (["--preset", "fig1_f1", "--function", "f3"], "does not take function"),
    (ARS_F1 + ["--lhat", "2", "--lhat-scale", "50"], "exactly one"),
    # non-finite numbers
    (ARS_F1 + ["--lhat", "nan"], "lhat must be finite"),
    (ARS_F1 + ["--lhat", "inf"], "lhat must be finite"),
    (ARS_F1 + ["--lhat-scale", "nan"], "lhat_scale must be finite"),
    (ARS_F1 + ["--lhat-scale", "1", "--mu", "nan"], "mu must be finite"),
    (ARS_F1 + ["--lhat-scale", "1", "--tau-hat", "nan"], "tau_hat must be finite"),
    # settings a greedy algorithm does not read, and a seed given twice
    (["--function", "f2", "--dim", "10", "--algo", "rgf", "--q", "2", "--budget", "100",
      "--lhat-scale", "1", "--tau-hat", "nan", "--restart"],
     "does not read tau_hat, restart"),
    (ARS_F1 + ["--lhat-scale", "1", "--seeds", "0,0"], "repeated seeds"),
    (ARS_F1 + ["--lhat-scale", "1", "--seeds=-1"], "seeds must be nonnegative"),
    # flags are text until the one parser reads them, so no value exits through argparse
    (["--function", "f2", "--dim", "abc", "--algo", "rgf", "--q", "2", "--budget", "100",
      "--lhat-scale", "1"], "dim: cannot parse 'abc'"),
    (ARS_F1 + ["--lhat-scale", "1", "--oracle-mode", "bogus"], "unknown oracle mode 'bogus'"),
])
def test_bad_setting_exit_code(tmp_path, capsys, argv, reason):
    rc = main(argv + ["--out", str(tmp_path / "x")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and reason in err
    assert len(err.splitlines()) == 1


def test_run_options_are_flags(tmp_path, capsys):
    out = str(tmp_path / "flags")
    rc = main(["--function", "f2", "--dim", "10", "--algo", "rgf", "--q", "2", "--budget", "2000",
               "--lhat-scale", "1", "--target-log10", "-0.1", "--stop-on-target",
               "--label", "X", "--out", out])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.startswith("X ")
    last = open(out + ".csv").read().splitlines()[-1].split(",")
    assert int(last[2]) < 2000 and float(last[5]) <= -0.1  # stopped at the target


def test_every_run_config_field_is_a_flag_with_a_parser():
    # a new RunConfig field gets its flag and config key from its annotation;
    # an annotation without a parser must fail here, not pass its text on
    hints = typing.get_type_hints(RunConfig)
    dests = {action.dest for action in cli._build_parser()._actions}
    for field in dataclasses.fields(RunConfig):
        assert field.name in dests
        assert hints[field.name] in cli._PARSERS
        assert cli._PARSE[field.name] is not str or hints[field.name] in (str, typing.Optional[str])


def test_help_lists_every_algorithm(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(algo in out for algo in ALGO_PRIORS)
