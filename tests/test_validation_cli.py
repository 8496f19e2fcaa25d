"""Validation suites and the command-line surface."""

import json
import math

import numpy as np
import pytest

import agefire as af
from agefire import cli
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
    # every spelling of the preset is its own W1 reference: 0 at t = 0
    for k, init in enumerate(["fixedpoint:200,40", "fixed-point:200,40",
                              "FixedPoint:200,40"]):
        out = tmp_path / f"spelling{k}"
        assert main(["solve", *args, "--init", init, "--out", str(out)]) == 0
        row0 = (out / "trajectory.csv").read_text().splitlines()[1]
        assert row0.split(",")[5] == "0"


def test_cli_simulate_reproducible_from_config(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    _write_config(tmp_path / "seeds.json", {"seeds": [3, 7]})
    assert main(["simulate", "--config", str(tmp_path / "seeds.json"),
                 "--n", "150", "--lightning", "0.05", "--t-max", "1.0",
                 "--checkpoints", "0.5,1.0", "--out", str(out1)]) == 0
    # the echo holds converted values, and a rerun from it alone repeats the run
    loaded = json.loads((out1 / "config.json").read_text())
    assert loaded["seeds"] == [3, 7] and loaded["lightning"] == 0.05
    assert loaded["checkpoints"] == [0.5, 1.0]
    loaded["out"] = str(out2)
    _write_config(tmp_path / "cfg.json", loaded)
    assert main(["simulate", "--config", str(tmp_path / "cfg.json")]) == 0
    for name in ("seed_3/sim.csv", "seed_7/sim.csv", "aggregate.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# option strings and dests of every subcommand, as released; configs and
# scripts depend on them
FLAG_SURFACE = {
    "solve": [(["--config"], "config"), (["--init"], "init"),
              (["--t-max"], "t_max"), (["--dt"], "dt"),
              (["--checkpoints"], "checkpoints"), (["--merge-eps"], "merge_eps"),
              (["--drift-budget"], "lambda_drift_budget"), (["--out"], "out")],
    "simulate": [(["--config"], "config"), (["--init"], "init"), (["--n"], "n"),
                 (["--lightning"], "lightning"), (["--t-max"], "t_max"),
                 (["--checkpoints"], "checkpoints"), (["--seeds"], "seeds"),
                 (["--out"], "out")],
    "compare": [(["--config"], "config"), (["--traj-dir"], "traj_dir"),
                (["--sim-dir"], "sim_dir"), (["--out"], "out")],
    "validate": [(["--config"], "config"), ([], "suite")],
    "gel": [(["--config"], "config"), (["--init"], "init"), (["--tol"], "tol")],
    "fixedpoint": [(["--config"], "config"), (["--atoms"], "n_atoms"),
                   (["--truncation"], "truncation"), (["--out"], "out")],
}


def test_cli_flag_surface_is_pinned():
    import argparse
    from agefire.cli import build_parser

    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    surface = {name: [(a.option_strings, a.dest) for a in p._actions
                      if not isinstance(a, argparse._HelpAction)]
               for name, p in sub.choices.items()}
    assert list(surface) == list(FLAG_SURFACE)
    assert surface == FLAG_SURFACE


def test_cli_unknown_config_key_rejected(tmp_path):
    (tmp_path / "bad.json").write_text(json.dumps({"frobnicate": 1}))
    code = main(["solve", "--config", str(tmp_path / "bad.json"),
                 "--out", str(tmp_path / "r")])
    assert code == 2


@pytest.mark.filterwarnings("error")
def test_cli_gel(capsys):
    # t_gel of dirac(a) is 1 - a; a tiny age once broke the eigen-solve.
    # The fixed point is critical, and a truncation above 64 reads as 64
    for init, t_gel in (("dirac:0", 1.0), ("dirac:1e-200", 1.0),
                        ("fixedpoint:10,inf", 0.0), ("fixedpoint:1,1e300", 0.0),
                        ("fixedpoint:2000,1e15", 0.0)):
        assert main(["gel", "--init", init]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("t_gel = ")
        assert abs(float(printed.split("=")[1]) - t_gel) <= 1e-6


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
    at_most_one = snap.masses[snap.locations <= 1.0].sum()
    assert abs(at_most_one - 0.5) < 0.15  # ~Binomial(300, 1/2) fraction at 0


def test_cli_simulate_iid_graph_follows_the_product_law(tmp_path,
                                                       monkeypatch):
    # n = 2 with ages 0 (mass 0.3) or 1/0.7 (mass 0.7): given two positive
    # ages the edge is there with probability 1 - exp(-(1/0.7) / 2), and an
    # age 0 leaves it out; the ages and the graph must not share a stream
    drawn = []

    def capture(graph, *args, **kwargs):
        drawn.append((graph.ages().min(), graph.edge_count))
        return []

    monkeypatch.setattr(cli.mfffa, "run", capture)
    monkeypatch.setattr(cli.mfffa, "write_sim_outputs", lambda *args: None)
    assert main(["simulate", "--init", "iid:twoatom:0.7", "--n", "2",
                 "--lightning", "0", "--t-max", "0", "--seeds", "3000",
                 "--out", str(tmp_path / "s")]) == 0
    edges = np.array([e for a, e in drawn if a > 0])
    assert all(e == 0 for a, e in drawn if a == 0)
    p = -math.expm1(-1 / 1.4)
    assert 1300 < edges.size < 1700
    assert abs(edges.mean() - p) < 5 * math.sqrt(p * (1 - p) / edges.size)


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
    (["--n", "abc"], None),
    (["--seeds", "x"], None),
    (["--t-max", "abc"], None),
    (["--lightning", "-1"], None),
    (["--init", "twoatom:0.5"], None),
    (["--checkpoints", "0.5,0.5000001", "--t-max", "1"], None),
    ([], {"seeds": [3, 3]}),
    (["--lightning", "1e308"], None),  # n * lightning overflows
    # finite rates whose mean wait is below half an ulp of t_max
    (["--n", "1", "--lightning", "1e308", "--t-max", "0.1"], None),
    (["--n", "2", "--lightning", "1e300"], None),
    # ~1e8 and ~1e16 expected events: above the cap of 1e7 per replica
    (["--n", "1", "--lightning", "1e9", "--t-max", "0.1"], None),
    (["--n", "1", "--lightning", "1e17", "--t-max", "0.1"], None),
    # 0 expected events, but 1e12 vertices: above the cap of 1e7
    (["--n", "1000000000000", "--t-max", "0", "--lightning", "0"], None),
    ([], {"n": 10 ** 7 + 1}),
    # an atom count above the cap of 1e6, of the preset the ages come from
    (["--init", "iid:fixedpoint:1e300,40"], None),
])
def test_cli_simulate_rejects_bad_input(tmp_path, capsys, flags, config):
    # a dict config is written as JSON, a str config as raw text
    out = tmp_path / "s"
    args = ["simulate", "--t-max", "0.1", "--checkpoints", "0.1",
            "--out", str(out)]
    if config is not None:
        _write_config(tmp_path / "cfg.json", config)
        args += ["--config", str(tmp_path / "cfg.json")]
    if not isinstance(config, dict) or "n" not in config:
        args += ["--n", "50"]
    assert main([*args, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1
    named = list(config) if isinstance(config, dict) else \
        [f for f in [*args, *flags] if f.endswith(".json")]
    named += [f[2:].replace("-", "_") for f in flags[:1] if f != "--config"]
    assert all(key in err for key in named)
    assert not out.exists()


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
    (["solve", "--init", "dirac:0", "--t-max", "abc"], None, "t_max"),
    (["fixedpoint", "--atoms", "1.5"], None, "n_atoms"),
    (["fixedpoint", "--atoms", "0"], None, "n_atoms"),
    (["solve", "--init", "dirac:2", "--t-max", "0.5"], None, "init"),
    (["gel", "--init", "dirac:0", "--tol", "nan"], None, "tol"),
    (["gel", "--init", "dirac:0", "--tol", "-1"], None, "tol"),
    (["solve", "--init", "dirac:0", "--t-max", "0.01", "--checkpoints",
      "0.005,0.0050000004"], None, "checkpoints"),
    (["solve", "--init", "dirac:0", "--t-max", "1.0000004", "--checkpoints",
      "0.5,1"], None, "checkpoints"),
    # more than 1,000,000 steps, t_max / dt; the first two never move time
    (["solve", "--init", "fixedpoint:200,40", "--dt", "1e-300"], None, "dt"),
    (["solve", "--init", "dirac:0", "--t-max", "1e300"], None, "dt"),
    (["solve", "--init", "dirac:0", "--t-max", "1.000001", "--dt", "1e-6"],
     None, "1,000,000"),
    (["gel", "--init", "fixedpoint:3.5"], None, "integer atom count"),
    # atom counts above the cap of 1,000,000, refused before any allocation
    (["gel", "--init", "fixedpoint:1e300,40"], None, "1,000,000"),
    (["fixedpoint", "--atoms", "10000000000"], None, "1,000,000"),
    (["fixedpoint"], {"n_atoms": 10 ** 400}, "1,000,000"),
])
def test_cli_solve_and_gel_reject_bad_input(tmp_path, capsys, argv, config,
                                            key):
    out = tmp_path / "r"
    args = list(argv) if argv[0] == "gel" else [*argv, "--out", str(out)]
    if config is not None:
        _write_config(tmp_path / "cfg.json", config)
        args += ["--config", str(tmp_path / "cfg.json")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1
    assert key in err
    assert not out.exists()


def test_cli_each_row_has_its_own_snapshot(tmp_path):
    # the gelation switch at t = 1 is not recorded beside a checkpoint
    # with the same snapshot name
    traj = tmp_path / "traj"
    assert main(["solve", "--init", "dirac:0", "--t-max", "1.01",
                 "--checkpoints", "0.5,1.0000004,1.01", "--out", str(traj)]) == 0
    rows = (traj / "trajectory.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == [0.0, 0.5, 1.0000004, 1.01]
    assert len(list(traj.glob("snapshot_t*.csv"))) == 4
    # simulate keeps one row per distinct checkpoint, in time order
    sim = tmp_path / "sim"
    assert main(["simulate", "--n", "40", "--t-max", "0", "--seeds", "1",
                 "--out", str(sim)]) == 0
    assert (sim / "seed_0" / "sim.csv").read_text().count("\n") == 2
    assert (sim / "aggregate.csv").read_text().count("\n") == 2
    assert main(["simulate", "--n", "40", "--t-max", "1", "--checkpoints",
                 "1,0.5,1", "--seeds", "2", "--out", str(sim)]) == 0
    for path in (sim / "seed_0" / "sim.csv", sim / "aggregate.csv"):
        times = [float(r.split(",")[0])
                 for r in path.read_text().splitlines()[1:]]
        assert times == [0.5, 1.0]
    # over a horizon below 1e-5 the default checkpoints are spaced wider
    # than the 1e-6 resolution of the snapshot names
    for argv, table in [
            (["solve", "--init", "dirac:0", "--t-max", "0.000004"],
             "trajectory.csv"),
            (["simulate", "--n", "40", "--t-max", "0.000004"], "seed_0/sim.csv")]:
        out = tmp_path / argv[0]
        assert main([*argv, "--out", str(out)]) == 0
        rows = (out / table).read_text().splitlines()[1:]
        assert len(rows) == len(list(out.rglob("snapshot_t*.csv"))) > 1


def test_cli_out_naming_a_file_is_an_input_error(tmp_path, capsys):
    (tmp_path / "taken").write_text("")
    assert main(["fixedpoint", "--atoms", "20",
                 "--out", str(tmp_path / "taken")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1
    assert str(tmp_path / "taken") in err


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
    snap = "snapshot_t0.500000.csv"
    (sim_dir / snap).write_text((traj_dir / snap).read_text())
    # rows pair by snapshot name, so times up to ~1e-6 apart are one
    # checkpoint: 0.5000004 pairs with 0.5, 0.5000006 does not
    for k, (t_sim, code) in enumerate([("0.3", 2), ("0.5000006", 2),
                                       ("0.5000004", 0)]):
        (sim_dir / "sim.csv").write_text(
            "t,burned_cum,largest_cluster,n_clusters,phi_hat_window\n"
            f"{t_sim},0,1,1,0\n")
        out = tmp_path / f"c{k}"
        assert main(["compare", "--traj-dir", str(traj_dir),
                     "--sim-dir", str(sim_dir), "--out", str(out)]) == code
    rows = (out / "comparison.csv").read_text().splitlines()
    assert rows[1:] == ["0.5000004,0,0,0"]


@pytest.mark.parametrize("target, text", [
    ("traj/trajectory.csv", None),
    ("traj/trajectory.csv", "t,lambda\n0.5,1\n"),
    ("traj/snapshot_t0.500000.csv", None),
    ("sim/seed_1/sim.csv", None),
    ("sim/seed_1/sim.csv", ""),
    ("sim/seed_1/sim.csv", "t,phi_hat_window\n0.5\n"),
    ("sim/seed_1/sim.csv", "t,phi_hat_window\n0.25,0\n"),
    ("sim/seed_1/snapshot_t0.500000.csv", None),
    ("sim/seed_1/snapshot_t0.500000.csv", "location,mass\n0.5\n"),
    ("sim/seed_1/snapshot_t0.500000.csv", "age,weight\n0.5,1\n"),
    ("sim/seed_1/snapshot_t0.500000.csv", "location,mass\n0.5,x\n"),
], ids=["no-trajectory", "no-phi-column", "no-pde-snapshot", "no-sim",
        "empty-sim", "short-sim-row", "sim-misses-checkpoint", "no-snapshot",
        "short-snapshot-row", "snapshot-header", "snapshot-not-a-number"])
def test_cli_compare_rejects_missing_or_malformed_input(tmp_path, capsys,
                                                        target, text):
    assert main(["solve", "--init", "dirac:0", "--t-max", "0.5",
                 "--checkpoints", "0.5", "--out", str(tmp_path / "traj")]) == 0
    assert main(["simulate", "--n", "50", "--t-max", "0.5", "--checkpoints",
                 "0.5", "--seeds", "2", "--out", str(tmp_path / "sim")]) == 0
    # a None text deletes the file, a str replaces its contents
    if text is None:
        (tmp_path / target).unlink()
    else:
        (tmp_path / target).write_text(text)
    capsys.readouterr()
    out = tmp_path / "cmp"
    assert main(["compare", "--traj-dir", str(tmp_path / "traj"),
                 "--sim-dir", str(tmp_path / "sim"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1
    assert str(tmp_path / target) in err
    assert not out.exists()


def test_cli_compare_rejects_missing_directories(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["compare", "--traj-dir", str(tmp_path / "nope"),
                 "--sim-dir", str(tmp_path / "nope2"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1
    assert str(tmp_path / "nope" / "trajectory.csv") in err
    assert not out.exists()


def test_cli_compare_pairs_rows_by_snapshot_name(tmp_path):
    # 2.4999999999999998e-06 is written as the .12g text 2.5e-06; its files
    # are named from that text, so compare finds them from the CSV rows
    common = ["--init", "dirac:0", "--t-max", "5e-6",
              "--checkpoints", "2.4999999999999998e-06,5e-6"]
    traj, sim, cmp_dir = (tmp_path / d for d in ("s", "m", "c"))
    assert main(["solve", *common, "--out", str(traj)]) == 0
    assert main(["simulate", *common, "--n", "50", "--out", str(sim)]) == 0
    assert main(["compare", "--traj-dir", str(traj), "--sim-dir", str(sim),
                 "--out", str(cmp_dir)]) == 0
    rows = (cmp_dir / "comparison.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["2.5e-06", "5e-06"]
    for d in (traj, sim / "seed_0"):
        assert (d / "snapshot_t0.000003.csv").exists()
    assert (sim / "seed_0" / "clusters_t0.000003.csv").exists()


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
