"""Validation suites and the command-line surface."""

import json

import numpy as np
import pytest

import agefire as af
from agefire.cli import main
from agefire.validation import run_suite


# ---------------------------------------------------------------------------
# validation suites
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("suite", ["metric", "spectral", "roundtrip", "evolution"])
def test_validation_suites_pass(suite):
    results = run_suite(suite)
    assert results
    for r in results:
        assert r.passed, r.line()


def test_unknown_suite_rejected():
    with pytest.raises(af.InputError):
        run_suite("nosuch")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_solve_monodisperse_gelation(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["solve", "--init", "dirac:0", "--t-max", "1.5",
                 "--dt", "2e-3", "--checkpoints", "0,0.5,1.0,1.5",
                 "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "t_gel = 1.000000" in text
    assert (out / "trajectory.csv").exists()
    assert (out / "config.json").exists()
    assert (out / "snapshot_t0.500000.csv").exists()
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["init"] == "dirac:0"


def test_cli_solve_phi_summary(tmp_path, capsys):
    code = main(["solve", "--init", "twoatom:0.5", "--t-max", "0",
                 "--out", str(tmp_path / "r")])
    assert code == 0
    assert "final phi = 0.250000" in capsys.readouterr().out


def test_cli_solve_requires_out(tmp_path):
    assert main(["solve", "--init", "dirac:0", "--t-max", "0.1"]) == 2


def test_cli_solve_rejects_supercritical(tmp_path):
    code = main(["solve", "--init", "dirac:2", "--t-max", "0.5",
                 "--out", str(tmp_path / "r")])
    assert code == 2


def test_cli_solve_reproducible_from_config(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["--init", "fixedpoint:200,40", "--t-max", "0.1", "--dt", "2e-3",
            "--checkpoints", "0,0.1"]
    assert main(["solve", *args, "--out", str(out1)]) == 0
    config = out1 / "config.json"
    # rerun purely from the echoed config
    loaded = json.loads(config.read_text())
    loaded["out"] = str(out2)
    (tmp_path / "cfg.json").write_text(json.dumps(loaded))
    assert main(["solve", "--config", str(tmp_path / "cfg.json")]) == 0
    assert (out1 / "trajectory.csv").read_text() == (out2 / "trajectory.csv").read_text()


def test_cli_unknown_config_key_rejected(tmp_path):
    (tmp_path / "bad.json").write_text(json.dumps({"frobnicate": 1}))
    code = main(["solve", "--config", str(tmp_path / "bad.json"),
                 "--out", str(tmp_path / "r")])
    assert code == 2


def test_cli_gel(capsys):
    assert main(["gel", "--init", "dirac:0"]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("t_gel = ")
    assert abs(float(printed.split("=")[1]) - 1.0) <= 1e-6


def test_cli_fixedpoint(tmp_path, capsys):
    out = tmp_path / "fp"
    assert main(["fixedpoint", "--atoms", "200", "--truncation", "40",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "lambda = 1.000000000000" in text
    assert (out / "fixed_point.csv").exists()
    assert (out / "fixed_point_spectral.csv").exists()


def test_cli_validate(capsys):
    assert main(["validate", "metric"]) == 0
    text = capsys.readouterr().out
    assert "[PASS]" in text and "FAIL" not in text


def test_cli_validate_all_clean_build(capsys):
    assert main(["validate"]) == 0
    text = capsys.readouterr().out
    assert "checks passed" in text and "FAIL" not in text


def test_cli_validate_unknown_suite():
    assert main(["validate", "bogus"]) == 2


def test_cli_validate_failure_exit_code(monkeypatch, capsys):
    from agefire import cli
    from agefire.validation import CheckResult

    monkeypatch.setattr(cli, "run_suite", lambda name: [
        CheckResult("always fails", False, -1.0)])
    assert main(["validate", "metric"]) == 4
    assert "[FAIL]" in capsys.readouterr().out


def test_cli_simulate_deterministic(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    args = ["simulate", "--n", "150", "--lightning", "0.05", "--t-max", "1.0",
            "--checkpoints", "0.5,1.0", "--seeds", "2"]
    assert main([*args, "--out", str(out1)]) == 0
    assert main([*args, "--out", str(out2)]) == 0
    for seed in (0, 1):
        a = (out1 / f"seed_{seed}" / "sim.csv").read_text()
        b = (out2 / f"seed_{seed}" / "sim.csv").read_text()
        assert a == b
    assert (out1 / "aggregate.csv").exists()


def test_cli_simulate_no_lightning_no_burns(tmp_path, capsys):
    out = tmp_path / "s"
    assert main(["simulate", "--n", "100", "--lightning", "0", "--t-max", "0.1",
                 "--checkpoints", "0.1", "--seeds", "1", "--out", str(out)]) == 0
    sim = (out / "seed_0" / "sim.csv").read_text().strip().splitlines()
    assert sim[1].split(",")[1] == "0"  # burned_cum


def test_cli_simulate_iid_initial_ages(tmp_path):
    out = tmp_path / "s"
    assert main(["simulate", "--n", "300", "--lightning", "0",
                 "--t-max", "0.01", "--checkpoints", "0.01", "--seeds", "1",
                 "--init", "iid:twoatom:0.5", "--out", str(out)]) == 0
    snap = af.AgeMeasure.from_csv(out / "seed_0" / "snapshot_t0.010000.csv")
    # ages drawn from {0, 2}, then aged by 0.01 with no fires
    assert set(np.round(snap.locations, 6).tolist()) <= {0.01, 2.01}
    assert abs(snap.cdf(1.0) - 0.5) < 0.15  # ~Binomial(300, 1/2) fraction at 0


def test_cli_simulate_rejects_multiatom_deterministic_init(tmp_path):
    assert main(["simulate", "--n", "50", "--lightning", "0", "--t-max", "0.1",
                 "--init", "twoatom:0.5", "--checkpoints", "0.1",
                 "--seeds", "1", "--out", str(tmp_path / "s")]) == 2


def _write_config(path, config):
    path.write_text(config if isinstance(config, str) else json.dumps(config))


@pytest.mark.parametrize("flags, config", [
    (["--n", "0"], None),
    (["--n", "-5"], None),
    (["--seeds", "0"], None),
    ([], {"seeds": []}),
    (["--lightning", "nan"], None),
    (["--lightning", "inf"], None),
    (["--t-max", "nan"], None),
    (["--lightning", "abc"], None),
    ([], {"n": "x"}),
    ([], {"init": 5}),
    (["--config", "no-such-config.json"], None),
    ([], "{not json"),
    ([], "[1, 2]"),
    ([], "5"),
])
def test_cli_simulate_rejects_bad_input(tmp_path, capsys, flags, config):
    # a dict config is written as JSON, a str config as raw text
    args = ["simulate", "--t-max", "0.1", "--checkpoints", "0.1",
            "--out", str(tmp_path / "s")]
    if config is not None:
        _write_config(tmp_path / "cfg.json", config)
        args += ["--config", str(tmp_path / "cfg.json")]
    if not isinstance(config, dict) or "n" not in config:
        args += ["--n", "50"]
    assert main([*args, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1
    named = config if isinstance(config, dict) else \
        [f for f in [*args, *flags] if f.endswith(".json")]
    assert all(key in err for key in named)


@pytest.mark.parametrize("argv, config, key", [
    (["solve", "--init", "dirac:0", "--t-max", "nan"], None, "t_max"),
    (["solve", "--init", "dirac:0", "--t-max", "inf"], None, "t_max"),
    (["solve", "--init", "dirac:0", "--t-max", "0.1", "--dt", "nan"], None,
     "dt"),
    (["solve", "--init", "dirac:0"], {"t_max": "x"}, "t_max"),
    (["solve", "--t-max", "0.1"], {"init": 5}, "init"),
    (["solve", "--init", "dirac:0", "--t-max", "0.1", "--checkpoints", "a"],
     None, "checkpoints"),
    (["gel", "--init", "twoatom:abc"], None, "init"),
    (["gel"], {"init": 5}, "init"),
    (["gel", "--init", "dirac:0"], {"tol": "x"}, "tol"),
    (["solve", "--init", "dirac:0", "--t-max", "0.1", "--checkpoints", "nan"],
     None, "checkpoints"),
    (["solve", "--init", "dirac:0", "--t-max", "0.1", "--merge-eps", "nan"],
     None, "merge_eps"),
    (["solve", "--init", "dirac:0", "--t-max", "0.1", "--merge-eps", "-1"],
     None, "merge_eps"),
    (["solve", "--init", "twoatom:0.5", "--t-max", "1", "--dt", "0.2",
      "--drift-budget", "nan"], None, "lambda_drift_budget"),
    (["solve", "--init", "dirac:0", "--config", "no-such-config.json"], None,
     "no-such-config.json"),
    (["solve", "--init", "dirac:0"], "{not json", "cfg.json"),
    (["gel", "--init", "dirac:0"], "[]", "cfg.json"),
])
def test_cli_solve_and_gel_reject_bad_input(tmp_path, capsys, argv, config,
                                            key):
    out = tmp_path / "r"
    args = [*argv, "--out", str(out)] if argv[0] == "solve" else list(argv)
    if config is not None:
        _write_config(tmp_path / "cfg.json", config)
        args += ["--config", str(tmp_path / "cfg.json")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1
    assert key in err
    assert not (out / "trajectory.csv").exists()


def test_cli_compare_trajectory_with_itself(tmp_path):
    traj_dir = tmp_path / "traj"
    main(["solve", "--init", "fixedpoint:200,40", "--t-max", "0.2",
          "--dt", "2e-3", "--checkpoints", "0.1,0.2", "--out", str(traj_dir)])
    # dress the trajectory snapshots up as a fake simulation directory
    sim_dir = tmp_path / "sim" / "seed_0"
    sim_dir.mkdir(parents=True)
    rows = ["t,burned_cum,largest_cluster,n_clusters,phi_hat_window"]
    for t in (0.1, 0.2):
        snap = traj_dir / f"snapshot_t{t:.6f}.csv"
        (sim_dir / snap.name).write_text(snap.read_text())
        rows.append(f"{t},0,1,200,0.0")
    (sim_dir / "sim.csv").write_text("\n".join(rows) + "\n")
    out = tmp_path / "cmp"
    assert main(["compare", "--traj-dir", str(traj_dir),
                 "--sim-dir", str(tmp_path / "sim"), "--out", str(out)]) == 0
    lines = (out / "comparison.csv").read_text().strip().splitlines()
    assert lines[0] == "t,w1_empirical_vs_pde,phi_hat,phi_pde"
    for line in lines[1:]:
        assert float(line.split(",")[1]) == 0.0


def test_cli_compare_grid_mismatch(tmp_path):
    traj_dir = tmp_path / "traj"
    main(["solve", "--init", "dirac:0", "--t-max", "0.5", "--checkpoints",
          "0.5", "--out", str(traj_dir)])
    sim_dir = tmp_path / "sim"
    sim_dir.mkdir()
    (sim_dir / "sim.csv").write_text(
        "t,burned_cum,largest_cluster,n_clusters,phi_hat_window\n0.3,0,1,1,0\n")
    assert main(["compare", "--traj-dir", str(traj_dir),
                 "--sim-dir", str(sim_dir), "--out", str(tmp_path / "c")]) == 2


def test_cli_exit_code_accuracy_error(tmp_path):
    code = main(["solve", "--init", "twoatom:0.5", "--t-max", "0.2",
                 "--dt", "0.1", "--drift-budget", "1e-12",
                 "--out", str(tmp_path / "r")])
    assert code == 3


def test_cli_solve_simulate_compare_end_to_end(tmp_path):
    traj_dir, sim_dir, cmp_dir = (tmp_path / d for d in ("traj", "sim", "cmp"))
    assert main(["solve", "--init", "dirac:0", "--t-max", "1.5", "--dt", "2e-3",
                 "--checkpoints", "0.5,1.0,1.5", "--out", str(traj_dir)]) == 0
    assert main(["simulate", "--n", "500", "--lightning", "auto",
                 "--t-max", "1.5", "--checkpoints", "0.5,1.0,1.5",
                 "--seeds", "3", "--out", str(sim_dir)]) == 0
    assert main(["compare", "--traj-dir", str(traj_dir),
                 "--sim-dir", str(sim_dir), "--out", str(cmp_dir)]) == 0
    lines = (cmp_dir / "comparison.csv").read_text().strip().splitlines()
    assert lines[0] == "t,w1_empirical_vs_pde,phi_hat,phi_pde"
    assert len(lines) == 4
    for line in lines[1:]:
        t, w1_med, phi_hat, phi_pde = (float(v) for v in line.split(","))
        assert np.isfinite(w1_med) and w1_med >= 0.0
        assert 0.0 <= phi_hat and 0.0 <= phi_pde <= 1.0
    # pre-gelation checkpoint: empirical measure hugs the transported start
    t, w1_med, _, phi_pde = (float(v) for v in lines[1].split(","))
    assert t == 0.5 and w1_med < 0.1 and phi_pde == 0.0
