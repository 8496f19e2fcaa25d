"""The CSV layer: every file agefire writes is byte for byte what the
hand-written writers it replaced wrote, and a malformed file is one input
error naming the file and the line.

The ``_old_*`` functions below are those writers as they were, each an
f-string row per record under a literal header; they are the oracle of the
byte-identity tests.
"""

import statistics
from pathlib import Path

import numpy as np
import pytest

import agefire as af
from agefire import measures as ms
from agefire import mfffa
from agefire.cli import main
from agefire.evolution import checkpoint_tag, snapshot_filename
from agefire.spectral import spectral_csv


# ---------------------------------------------------------------------------
# the replaced writers
# ---------------------------------------------------------------------------

def _old_to_csv(measure, path):
    lines = ["location,mass"]
    lines += [f"{x:.17g},{m:.17g}" for x, m in zip(measure.locations, measure.masses)]
    Path(path).write_text("\n".join(lines) + "\n")


def _old_from_csv(path):
    rows = Path(path).read_text().strip().splitlines()
    locs, mass = [], []
    for row in rows[1:]:
        x, m = map(float, row.split(","))
        locs.append(x)
        mass.append(m)
    return af.AgeMeasure(locs, mass)


def _old_spectral_csv(pair, path):
    src = pair.source
    lines = ["location,mass,theta"]
    lines += [f"{x:.17g},{m:.17g},{t:.17g}"
              for x, m, t in zip(src.locations, src.masses, pair.theta)]
    Path(path).write_text("\n".join(lines) + "\n")


def _old_write_trajectory(traj, out, reference):
    out.mkdir(parents=True, exist_ok=True)
    rows = ["t,lambda,phi,mean_age,atom_count,w1_to_fixed_point,mass_defect"]
    for s in traj.states:
        rows.append(",".join([
            f"{s.t:.12g}", f"{s.lam:.17g}", f"{s.phi:.17g}",
            f"{s.pi.first_moment():.17g}", str(s.atom_count),
            f"{af.w1(s.pi, reference):.17g}", f"{s.mass_defect:.17g}"]))
        _old_to_csv(s.pi, out / snapshot_filename(s.t))
    (out / "trajectory.csv").write_text("\n".join(rows) + "\n")


def _old_write_sim_outputs(records, out):
    out.mkdir(parents=True, exist_ok=True)
    rows = ["t,burned_cum,largest_cluster,n_clusters,phi_hat_window,edge_events"]
    for r in records:
        rows.append(f"{r.t:.12g},{r.burned_vertices},{r.largest_cluster},"
                    f"{r.n_clusters},{r.phi_hat_window:.17g},{r.edge_events}")
        _old_to_csv(r.age_measure, out / snapshot_filename(r.t))
        hist_rows = ["size,count"] + [f"{k},{r.cluster_hist[k]}"
                                      for k in sorted(r.cluster_hist)]
        (out / f"clusters_{checkpoint_tag(r.t)}.csv").write_text("\n".join(hist_rows) + "\n")
    (out / "sim.csv").write_text("\n".join(rows) + "\n")


def _old_aggregate(all_records, path):
    rows = ["t,burned_cum_median,largest_cluster_median,phi_hat_window_median"]
    for recs in zip(*all_records):
        rows.append(",".join([
            f"{recs[0].t:.12g}",
            f"{statistics.median(r.burned_vertices for r in recs):g}",
            f"{statistics.median(r.largest_cluster for r in recs):g}",
            f"{statistics.median(r.phi_hat_window for r in recs):.8g}"]))
    path.write_text("\n".join(rows) + "\n")


def _old_comparison(traj_dir, sim_dir, path):
    """``compare``'s reading and its comparison.csv writer, as they were."""
    def read_column(path, column):
        rows = path.read_text().strip().splitlines()
        idx = rows[0].split(",").index(column)
        cells = [r.split(",") for r in rows[1:]]
        return {snapshot_filename(float(c[0])): (float(c[0]), float(c[idx]))
                for c in cells}

    phi_pde = read_column(traj_dir / "trajectory.csv", "phi")
    seed_dirs = sorted(sim_dir.glob("seed_*")) or [sim_dir]
    phi_sims = [read_column(sd / "sim.csv", "phi_hat_window") for sd in seed_dirs]
    matches = [(name, t) for name, (t, _) in phi_sims[0].items() if name in phi_pde]
    rows = ["t,w1_empirical_vs_pde,phi_hat,phi_pde"]
    for name, t in matches:
        pde_snap = _old_from_csv(traj_dir / name)
        w1s = [af.w1(_old_from_csv(sd / name), pde_snap) for sd in seed_dirs]
        phis = [phi_sim[name][1] for phi_sim in phi_sims]
        rows.append(f"{t:.12g},{statistics.median(w1s):.8g},"
                    f"{statistics.median(phis):.8g},{phi_pde[name][1]:.8g}")
    path.write_text("\n".join(rows) + "\n")


def _assert_same_files(new_dir, old_dir):
    new = sorted(p.relative_to(new_dir) for p in new_dir.rglob("*.csv"))
    old = sorted(p.relative_to(old_dir) for p in old_dir.rglob("*.csv"))
    assert new and new == old
    for rel in new:
        assert (new_dir / rel).read_bytes() == (old_dir / rel).read_bytes(), rel


# ---------------------------------------------------------------------------
# byte identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("measure", [
    af.dirac(0.0), af.two_atom(0.5), af.three_atom(10),
    af.fixed_point_measure(300, 40.0), af.AgeMeasure([], []),
    af.AgeMeasure([0.0, 1e-300, 2.5, 1e300], [1e-300, 0.5, 0.25, 1e-10]),
], ids=["dirac-0", "twoatom-age-0", "threeatom", "fixedpoint-300", "empty",
        "extremes"])
def test_snapshot_bytes_and_round_trip(tmp_path, measure):
    measure.to_csv(tmp_path / "new.csv")
    _old_to_csv(measure, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    back = af.AgeMeasure.from_csv(tmp_path / "new.csv")
    assert np.array_equal(back.locations, measure.locations)
    assert np.array_equal(back.masses, measure.masses)


def test_fixedpoint_command_bytes(tmp_path):
    assert main(["fixedpoint", "--atoms", "300", "--out", str(tmp_path / "new")]) == 0
    pi = af.fixed_point_measure(300, 40.0)
    old = tmp_path / "old"
    old.mkdir()
    _old_to_csv(pi, old / "fixed_point.csv")
    _old_spectral_csv(af.leading_pair(pi), old / "fixed_point_spectral.csv")
    _assert_same_files(tmp_path / "new", old)


def test_spectral_dump_bytes(tmp_path):
    pair = af.leading_pair(af.two_atom(0.25))  # an atom at age 0, theta 0
    spectral_csv(pair, tmp_path / "new.csv")
    _old_spectral_csv(pair, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("t_max, checkpoints", [
    (1.5, [0.0, 0.25, 0.5, 1.5]),
    (5e-6, [2.4999999999999998e-06, 5e-6]),
], ids=["transport-and-critical", "off-grid"])
def test_trajectory_bytes(tmp_path, t_max, checkpoints):
    traj = af.solve(af.dirac(0.0), t_max,
                    af.EvolveOptions(dt=2e-3, checkpoints=checkpoints))
    ref = af.fixed_point_measure(200, 40.0)
    af.write_trajectory(traj, tmp_path / "new", reference=ref)
    _old_write_trajectory(traj, tmp_path / "old", ref)
    _assert_same_files(tmp_path / "new", tmp_path / "old")
    # transport rows: phi = 0, and lambda = 0 at dirac:0's t = 0
    assert traj.states[0].phi == 0.0 and traj.states[0].lam == 0.0


@pytest.mark.parametrize("ages, n, lightning, t_max, checkpoints", [
    (0.0, 50, 50 ** -0.5, 5e-6, [0.0, 2.4999999999999998e-06, 5e-6]),
    (0.5, 2000, 2000 ** -0.5, 2.0, [0.5, 1.0, 2.0]),
], ids=["off-grid-age-0", "fires"])
def test_sim_outputs_bytes(tmp_path, ages, n, lightning, t_max, checkpoints):
    records = af.run(af.sample_irg(ages, n=n, seed=3), lightning, t_max,
                     checkpoints)
    af.write_sim_outputs(records, tmp_path / "new")
    _old_write_sim_outputs(records, tmp_path / "old")
    _assert_same_files(tmp_path / "new", tmp_path / "old")


@pytest.mark.parametrize("t_max, checkpoints, n, seeds", [
    ("2", "0.5,1,1.5,2", 2000, 4),
    ("5e-6", "2.4999999999999998e-06,5e-6", 50, 2),
], ids=["even-seed-count", "off-grid"])
def test_simulate_and_compare_bytes(tmp_path, monkeypatch, t_max, checkpoints,
                                    n, seeds):
    all_records, mfffa_run = [], mfffa.run

    def run(*args):  # keeps each replica's records
        all_records.append(mfffa_run(*args))
        return all_records[-1]
    monkeypatch.setattr(mfffa, "run", run)
    common = ["--init", "dirac:0", "--t-max", t_max, "--checkpoints", checkpoints]
    traj, sim = tmp_path / "traj", tmp_path / "sim"
    assert main(["solve", *common, "--dt", "2e-3", "--out", str(traj)]) == 0
    assert main(["simulate", *common, "--n", str(n), "--seeds", str(seeds),
                 "--out", str(sim)]) == 0
    assert main(["compare", "--traj-dir", str(traj), "--sim-dir", str(sim),
                 "--out", str(tmp_path / "cmp")]) == 0

    old = tmp_path / "old"
    for seed, records in enumerate(all_records):
        _old_write_sim_outputs(records, old / f"seed_{seed}")
    _old_aggregate(all_records, old / "aggregate.csv")
    _assert_same_files(sim, old)
    _old_comparison(traj, sim, tmp_path / "comparison.csv")
    assert ((tmp_path / "cmp" / "comparison.csv").read_bytes()
            == (tmp_path / "comparison.csv").read_bytes())
    if seeds % 2 == 0 and n > 1000:
        # the median of an even count: both integers and half-integers
        cells = [c for row in (sim / "aggregate.csv").read_text().splitlines()[1:]
                 for c in row.split(",")[1:3]]
        assert any(c.endswith(".5") for c in cells)
        assert any("." not in c and c != "0" for c in cells)


# ---------------------------------------------------------------------------
# the writer and the reader
# ---------------------------------------------------------------------------

def test_write_csv_formats_numpy_and_python_columns_alike(tmp_path):
    x = np.array([0.0, 0.1, 1 / 3, 2.0 ** 1000])
    ms.write_csv(tmp_path / "a.csv", (("x", ".17g", x), ("k", "d", np.arange(4))))
    ms.write_csv(tmp_path / "b.csv", (("x", ".17g", list(x)),
                                      ("k", "d", list(np.arange(4)))))
    text = (tmp_path / "a.csv").read_text()
    assert text == (tmp_path / "b.csv").read_text()
    assert text == ("x,k\n0,0\n0.10000000000000001,1\n0.33333333333333331,2\n"
                    "1.0715086071862673e+301,3\n")


def test_write_csv_rejects_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError):
        ms.write_csv(tmp_path / "a.csv", (("x", "g", [1, 2]), ("y", "g", [1])))


def test_read_csv_round_trip_and_header_only(tmp_path):
    path = tmp_path / "a.csv"
    ms.write_csv(path, (("t", ".12g", [0.5, 1.0]), ("k", "d", [3, 4])))
    assert ms.read_csv(path, ("k",)) == {"t": (0.5, 1.0), "k": (3.0, 4.0)}
    path.write_text("t,k\n")
    assert ms.read_csv(path, ("t", "k")) == {"t": (), "k": ()}


@pytest.mark.parametrize("text, match", [
    ("t,k\n1,2\n3\n", "line 3"),
    ("t,k\n1,2\n3,x\n", "line 3"),
    ("t,k\n1,2,3\n", "line 2"),
    ("t\n1\n", "no column 'k'"),
    ("", "no column 't'"),
], ids=["short-row", "not-a-number", "long-row", "no-column", "empty"])
def test_read_csv_rejects_malformed_files(tmp_path, text, match):
    path = tmp_path / "a.csv"
    path.write_text(text)
    with pytest.raises(af.InputError, match=match) as err:
        ms.read_csv(path, ("t", "k"))
    assert str(err.value).startswith(str(path))
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("keep, bad_row, match", [
    (2, "0.5,0,1", "line 3"), (2, "0.5,0,1,1,x,0", "line 3"),
    (1, None, "no data rows"),
], ids=["short-row", "not-a-number", "header-only"])
def test_compare_rejects_a_malformed_sim_file(tmp_path, capsys, keep, bad_row,
                                              match):
    common = ["--init", "dirac:0", "--t-max", "0.5", "--checkpoints", "0.25,0.5"]
    assert main(["solve", *common, "--out", str(tmp_path / "traj")]) == 0
    assert main(["simulate", *common, "--n", "50", "--seeds", "2",
                 "--out", str(tmp_path / "sim")]) == 0
    sim_csv = tmp_path / "sim" / "seed_1" / "sim.csv"
    lines = sim_csv.read_text().splitlines()
    assert len(lines) == 3  # the header, t = 0.25 and t = 0.5
    lines = lines[:keep] + ([bad_row] if bad_row else [])
    sim_csv.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    out = tmp_path / "cmp"
    assert main(["compare", "--traj-dir", str(tmp_path / "traj"),
                 "--sim-dir", str(tmp_path / "sim"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1
    assert str(sim_csv) in err and match in err
    assert not out.exists()
