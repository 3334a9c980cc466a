import json

import pytest

from secure_ofdma import load_ensemble
from secure_ofdma.cli import main


def write_config(tmp_path, **overrides):
    cfg = {
        "N": 16, "K": 4, "K1": 2, "C": 0.3, "omega": 1.0,
        "snr_db": 20.0, "mode": "average", "rho": 1.0,
        "realizations": 250, "seed": 3, "epsilon": 0.01,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_generate_writes_loadable_ensemble(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "channels.bin"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    ens = load_ensemble(out)
    assert ens.count == 250 and ens.n_users == 4 and ens.n_subcarriers == 16
    assert "sha256" in capsys.readouterr().out


def test_solve_optimal_prints_and_dumps(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "result.json"
    assert main(["solve-optimal", "--config", str(cfg), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "converged" in text
    payload = json.loads(out.read_text())
    assert payload["converged"] is True
    assert payload["report"]["avg_power"] <= 100.0 * 1.01


def test_solve_optimal_runs_the_peak_mode(tmp_path, capsys):
    cfg = write_config(tmp_path, mode="peak", realizations=50)
    assert main(["solve-optimal", "--config", str(cfg)]) == 0
    assert "[optimal/peak] converged" in capsys.readouterr().out


def test_solve_optimal_reuses_ensemble_file(tmp_path, capsys):
    cfg = write_config(tmp_path)
    ens_path = tmp_path / "channels.bin"
    main(["generate", "--config", str(cfg), "--out", str(ens_path)])
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    main(["solve-optimal", "--config", str(cfg),
          "--ensemble", str(ens_path), "--out", str(out1)])
    main(["solve-optimal", "--config", str(cfg), "--out", str(out2)])
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    assert a["report"] == b["report"]


@pytest.mark.parametrize("command", ["solve-optimal", "solve-suboptimal"])
def test_solve_rejects_an_ensemble_file_of_other_dimensions(tmp_path, command):
    ens_path = tmp_path / "channels.bin"
    main(["generate", "--config", str(write_config(tmp_path, K=5, realizations=3)),
          "--out", str(ens_path)])
    with pytest.raises(SystemExit) as err:
        main([command, "--config", str(write_config(tmp_path)),
              "--ensemble", str(ens_path)])
    assert err.value.code == "ensemble dimensions do not match the config"


def test_solve_suboptimal_runs(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["solve-suboptimal", "--config", str(cfg)]) == 0
    assert "aggregate NU rate" in capsys.readouterr().out


def test_baseline_scheme_flag(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["baseline", "--config", str(cfg), "--scheme", "fsa1"]) == 0
    assert "fsa1" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(["baseline", "--config", str(cfg), "--scheme", "fsa9"])


@pytest.mark.parametrize("argv, message", [
    (["solve-suboptimal"], "the two-phase allocator supports only mode='average'"),
    (["baseline", "--scheme", "fsa1"],
     "the fixed-assignment baselines support only mode='average'"),
], ids=["solve-suboptimal", "baseline"])
def test_average_only_solvers_exit_with_their_message(tmp_path, argv, message):
    cfg = write_config(tmp_path, mode="peak", realizations=5)
    with pytest.raises(SystemExit) as err:
        main([argv[0], "--config", str(cfg), *argv[1:]])
    assert err.value.code == message


@pytest.mark.parametrize("argv, config, message", [
    (["solve-suboptimal"], {"mdoe": "peak"}, "unknown run config keys: ['mdoe']"),
    (["solve-optimal"], "{not json", "Expecting property name enclosed in double "
     "quotes: line 1 column 2 (char 1)"),
    (["feasibility-bound", "--n", "8", "--k", "1"], None, "need at least 2 users"),
    (["generate", "--out", "channels.bin"], {"realizations": 0},
     "realizations must be a whole number >= 1"),
], ids=["unknown-key", "malformed-json", "one-user", "no-realizations"])
def test_bad_input_exits_with_its_message(tmp_path, argv, config, message):
    if config is not None:
        path = tmp_path / "config.json"
        if isinstance(config, dict):
            path = write_config(tmp_path, **config)
        else:
            path.write_text(config)
        argv = [*argv, "--config", str(path)]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == message


def test_out_of_range_snr_exits_with_its_message(tmp_path):
    message = "snr_db=10000.0 gives no finite positive power budget"
    with pytest.raises(SystemExit) as err:
        main(["solve-optimal", "--config", str(write_config(tmp_path, snr_db=1e4))])
    assert err.value.code == message
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({
        "sweep": "snr_db", "values": [10.0, 1e4], "solvers": ["fsa1"],
        "config": {"N": 16, "K": 4, "K1": 2, "snr_db": 20.0}, "realizations": 5,
        "output": str(tmp_path / "rows.csv"),
    }))
    with pytest.raises(SystemExit) as err:
        main(["experiment", "--spec", str(spec)])
    assert err.value.code == message
    assert not (tmp_path / "rows.csv").exists()


def test_feasibility_bound_subcommand(capsys):
    assert main(["feasibility-bound", "--n", "64", "--k", "8",
                 "--targets", "0.5", "3.6"]) == 0
    out = capsys.readouterr().out
    assert "upper bound" in out
    assert "infeasible" in out
    assert "feasible" in out


@pytest.mark.parametrize("target", ["-1", "nan"])
def test_feasibility_bound_rejects_bad_targets(target):
    with pytest.raises(SystemExit) as err:
        main(["feasibility-bound", "--n", "64", "--k", "8", "--targets", "0.5", target])
    assert err.value.code == "secrecy targets must be finite and >= 0"


def test_feasibility_bound_from_config(tmp_path, capsys):
    cfg = write_config(tmp_path, C=[0.1, 0.2])
    assert main(["feasibility-bound", "--config", str(cfg)]) == 0
    assert "upper bound" in capsys.readouterr().out


def test_experiment_subcommand(tmp_path, capsys):
    spec = {
        "sweep": "C",
        "values": [0.1, 0.3],
        "solvers": ["suboptimal", "fsa1"],
        "config": {"N": 16, "K": 4, "K1": 2, "C": 0.1, "omega": 1.0,
                   "snr_db": 20.0, "mode": "average", "rho": 1.0},
        "realizations": 40,
        "seed": 2,
    }
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "rows.csv"
    assert main(["experiment", "--spec", str(spec_path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 4
    assert (tmp_path / "rows.csv.meta.json").exists()
