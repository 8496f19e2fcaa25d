"""Property test of the checkpoint names: for any checkpoint times that
``solve`` or ``run`` accepts, the snapshot name computed from each written
CSV row names a file that exists, and a rejection is a name collision."""

import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

import agefire as af
from agefire.evolution import checkpoint_tag, snapshot_filename

T_MAX = 5e-5


def _near_half(k, ulps):
    """A time a few ulps from (k + 1/2) * 1e-6, where six-decimal rounding
    turns."""
    t = (k + 0.5) * 1e-6
    return t + ulps * math.ulp(t)


TIMES = st.lists(st.one_of(
    st.floats(0.0, T_MAX),
    st.builds(_near_half, st.integers(0, 49), st.integers(-3, 3))),
    max_size=8)


def _assert_rows_name_files(out: Path, table: str) -> list[float]:
    """The times of ``table``'s rows, after checking that their snapshot
    names are distinct and are exactly the snapshot files in ``out``."""
    times = [float(r.split(",")[0])
             for r in (out / table).read_text().splitlines()[1:]]
    names = {snapshot_filename(t) for t in times}
    assert len(names) == len(times)
    assert names == {p.name for p in out.glob("snapshot_t*.csv")}
    return times


def _assert_collision(times):
    distinct = set(times)
    assert len({snapshot_filename(t) for t in distinct}) < len(distinct)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(times=TIMES)
@example(times=[2.5e-237])
@example(times=[5e-324])
@example(times=[2.2e-308, 5e-7])
def test_csv_rows_name_the_files_that_were_written(times):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        try:
            traj = af.solve(af.dirac(0.0), T_MAX,
                            af.EvolveOptions(checkpoints=times))
        except af.InputError:
            _assert_collision([0.0, *times, T_MAX])
        else:
            af.write_trajectory(traj, out / "traj", reference=af.dirac(0.0))
            _assert_rows_name_files(out / "traj", "trajectory.csv")
        try:
            records = af.run(af.sample_irg(0.0, n=2, seed=0), 0.0, T_MAX, times)
        except af.InputError:
            _assert_collision(times)
        else:
            af.write_sim_outputs(records, out / "sim")
            rows = _assert_rows_name_files(out / "sim", "sim.csv")
            assert {f"clusters_{checkpoint_tag(t)}.csv" for t in rows} == \
                {p.name for p in (out / "sim").glob("clusters_t*.csv")}
