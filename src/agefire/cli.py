"""Command-line interface.

Subcommands: solve, simulate, compare, validate, gel, fixedpoint.  Each
config key is declared once, in ``_PARAMS``: its flag, its converter, its
default and its help.  A value may come from a JSON config file (flat
schema, unknown keys rejected) or from a flag, which wins; either way it
goes through the same converter, so a bad value is one ``input error:``
line naming its key.  A command checks all of its input and computes its
results before it creates ``--out``, then echoes the converted config into
it as ``config.json``, from which the run can be repeated.

Exit codes: 0 success, 2 input error, 3 numerical-accuracy error,
4 validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

import numpy as np

from . import evolution as ev
from . import measures as ms
from . import mfffa
from . import spectral as sp
from .errors import AccuracyError, InputError, SupercriticalError
from .validation import run_suite


def _kind(what: str, parse, ok=lambda x: True):
    """A converter from a flag string or a JSON value: ``parse`` it and
    require ``ok`` of the result.  A converter raises TypeError or
    ValueError on a value it rejects; its docstring says what it accepts."""
    def convert(value):
        x = parse(value)
        if not ok(x):
            raise ValueError
        return x
    convert.__doc__ = what
    return convert


def _int(value) -> int:
    """``int(value)``, refusing to truncate a fractional float."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError
    return int(value)


def _split(value):
    """A comma-separated string as the list of its fields."""
    return [v for v in value.split(",") if v.strip()] if isinstance(value, str) else value


_text = _kind("a non-empty string", lambda v: v, lambda v: isinstance(v, str) and v)
_time = _kind("a finite number >= 0", float, lambda x: 0 <= x < math.inf)
_positive = _kind("a finite number > 0", float, lambda x: 0 < x < math.inf)
_budget = _kind("a number >= 0", float, lambda x: x >= 0)  # NaN fails
_count = _kind("an integer >= 1", _int, lambda k: k >= 1)
_seed = _kind("an integer >= 0", _int, lambda k: k >= 0)
_times = _kind("a list of finite times >= 0, or a comma-separated string of them",
               lambda v: [_time(t) for t in _split(v)])
_seeds = _kind("a replica count k >= 1 (seeds 0..k-1) or a non-empty list of "
               "distinct seeds >= 0",
               lambda v: [_seed(s) for s in v] if isinstance(v, list)
               else list(range(_count(v))),
               lambda seeds: seeds and len(set(seeds)) == len(seeds))
_lightning = _kind("'auto' (n^-1/2) or a finite number >= 0",
                   lambda v: v if v == "auto" else _time(v))


_REQUIRED = object()  # the default of a key that must be given
_MAX_EVENTS = 10 ** 7  # largest expected event count of one simulate replica
_MAX_STEPS = 10 ** 6  # largest step count t_max / dt of one solve
_MAX_VERTICES = 10 ** 7  # largest vertex count n of one simulate replica
_OUT = ("--out", _text, _REQUIRED, "output directory")

# command -> (help, {config key: (flag, converter, default, help)}); a flag
# of None makes the key a positional argument
_PARAMS = {
    "solve": ("integrate the age dynamics", {
        "init": ("--init", _text, "fixedpoint", "initial measure, e.g. dirac:0, "
                 "twoatom:0.5, threeatom:10, fixedpoint:2000,40"),
        "t_max": ("--t-max", _time, 1.0, "final time"),
        "dt": ("--dt", _positive, 1e-3, "critical step size; a run may take "
               f"at most {_MAX_STEPS:,} steps, t_max / dt"),
        "checkpoints": ("--checkpoints", _times, None, "comma-separated times"),
        "merge_eps": ("--merge-eps", _budget, 1e-6, "W1 merge budget per unit time"),
        "lambda_drift_budget": ("--drift-budget", _budget, 1e-3,
                                "largest |lambda - 1| after a critical step"),
        "out": _OUT}),
    "simulate": ("run the stochastic fire graph", {
        "init": ("--init", _text, "dirac:0", "dirac:a or iid:<preset>"),
        "n": ("--n", _count, 2000,
              f"number of vertices, at most {_MAX_VERTICES:,}"),
        "lightning": ("--lightning", _lightning, "auto",
                      "per-vertex strike rate, or 'auto' (= n^-1/2); a "
                      f"replica may expect at most {_MAX_EVENTS:,} events, "
                      "t_max * ((n - 1)/2 + n * lightning)"),
        "t_max": ("--t-max", _time, 3.0, "final time"),
        "checkpoints": ("--checkpoints", _times, None, "comma-separated times"),
        "seeds": ("--seeds", _seeds, 1, "number of replicas (seeds 0..k-1)"),
        "out": _OUT}),
    "compare": ("compare sim snapshots to a trajectory", {
        "traj_dir": ("--traj-dir", _text, _REQUIRED, "output directory of solve"),
        "sim_dir": ("--sim-dir", _text, _REQUIRED, "output directory of simulate"),
        "out": _OUT}),
    "validate": ("run an invariant suite", {
        "suite": (None, _text, "all", "metric | spectral | roundtrip | evolution | all")}),
    "gel": ("compute the gelation time of an initial measure", {
        "init": ("--init", _text, "dirac:0", "initial measure"),
        "tol": ("--tol", _budget, ev.GEL_TOL,
                "tolerance on |lambda - 1| at gelation")}),
    "fixedpoint": ("emit the discretized stationary profile and its spectral data", {
        "n_atoms": ("--atoms", _count, 2000,
                    f"number of atoms, at most {ms.MAX_ATOMS:,}"),
        "truncation": ("--truncation", _positive, 40.0, "largest age kept"),
        "out": _OUT}),
}


def _guard(path: Path, action, *args):
    """``action(path, *args)``; a missing, malformed or unwritable file is
    an InputError naming it."""
    try:
        return action(path, *args)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    except (ValueError, IndexError) as exc:
        msg = str(exc)
        raise InputError(msg if msg.startswith(str(path)) else f"{path}: {msg}") from None


def _load_config(command: str, args: argparse.Namespace) -> dict:
    """Every key of ``command``: its flag if given, else its ``--config``
    value, else its default; converted and checked."""
    params = _PARAMS[command][1]
    raw = {}
    if args.config:
        raw = _guard(Path(args.config), lambda p: json.loads(p.read_text()))
        if not isinstance(raw, dict):
            raise InputError(f"config {args.config}: expected a JSON object, "
                             f"got {type(raw).__name__}")
        unknown = set(raw) - set(params)
        if unknown:
            raise InputError(f"unknown config keys for {command}: {sorted(unknown)}")
    config = {}
    for key, (flag, convert, default, _) in params.items():
        value = getattr(args, key)
        if value is None:
            value = raw.get(key)
        if value is None:
            value = default
        if value is _REQUIRED:
            raise InputError(f"{key} is required ({flag})")
        try:
            config[key] = None if value is None else convert(value)
        except (TypeError, ValueError, OverflowError):
            raise InputError(
                f"{key}: expected {convert.__doc__}, got {value!r}") from None
    return config


def _open_out(config: dict) -> Path:
    """Create the output directory and echo the config into it."""
    out = Path(config["out"])
    _guard(out, lambda p: p.mkdir(parents=True, exist_ok=True))
    (out / "config.json").write_text(
        json.dumps(config, indent=2, sort_keys=True) + "\n")
    return out


def _init_measure(preset: str) -> ms.ProbabilityAgeMeasure:
    try:
        return ms.from_named(preset)
    except InputError as exc:
        raise InputError(f"init: {exc}") from None


# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    config = _load_config("solve", args)
    steps = config["t_max"] / config["dt"]
    if steps > _MAX_STEPS:
        raise InputError(f"dt: t_max / dt = {steps:.3g} steps, above the cap "
                         f"of {_MAX_STEPS:,}")
    pi0 = _init_measure(config["init"])
    try:
        traj = ev.solve(pi0, config["t_max"], ev.EvolveOptions(
            dt=config["dt"], checkpoints=config["checkpoints"],
            merge_eps=config["merge_eps"],
            lambda_drift_budget=config["lambda_drift_budget"]))
    except SupercriticalError as exc:
        raise InputError(f"init: {exc}") from None
    preset = ms.preset_name(config["init"].partition(":")[0])
    reference = pi0 if preset == "fixedpoint" else ms.fixed_point_measure()
    out = _open_out(config)
    ev.write_trajectory(traj, out, reference=reference)
    drift = max(s.lambda_drift for s in traj.states if s.mode == "critical") \
        if any(s.mode == "critical" for s in traj.states) else 0.0
    print(f"t_gel = {traj.t_gel:.6f}")
    print(f"max lambda drift = {drift:.3e}")
    print(f"final phi = {traj.states[-1].phi:.6f}")
    print(f"wrote {len(traj.states)} checkpoints to {out}")
    return 0


def cmd_simulate(args) -> int:
    config = _load_config("simulate", args)
    n, t_max, init, seeds = (config[k] for k in ("n", "t_max", "init", "seeds"))
    if n > _MAX_VERTICES:
        raise InputError(f"n: {n:,} vertices, above the cap of {_MAX_VERTICES:,}")
    lambda_n = n ** -0.5 if config["lightning"] == "auto" else config["lightning"]
    events = t_max * ((n - 1) / 2 + n * lambda_n)
    if events > _MAX_EVENTS:
        raise InputError(f"lightning: a replica would expect t_max * ((n - 1)/2 "
                         f"+ n * lightning) = {events:.3g} events, above the "
                         f"cap of {_MAX_EVENTS:,}")
    cps = config["checkpoints"] or ev.even_checkpoints(t_max, 6)[1:]
    iid = init.startswith("iid:")
    base = _init_measure(init[4:] if iid else init)
    if not iid and base.n_atoms != 1:
        raise InputError("init: a deterministic init must be a single atom; "
                         "use iid:<preset> for sampled ages")

    all_records = []
    for seed in seeds:
        if iid:
            # the ages and the graph draw from two independent streams
            age_seed, graph_seed = np.random.SeedSequence(seed).spawn(2)
            ages = np.random.default_rng(age_seed).choice(
                base.locations, size=n, p=base.masses)
            graph = mfffa.sample_irg(ages, seed=graph_seed)
        else:
            graph = mfffa.sample_irg(float(base.locations[0]), n=n, seed=seed)
        records = mfffa.run(graph, lambda_n, t_max, cps)
        all_records.append(records)
        if lambda_n > 0:
            print(f"seed {seed}: {records[-1].burned_vertices} vertices burned "
                  f"in {records[-1].burn_events} fires by t = {t_max:g}")
    out = _open_out(config)
    for seed, records in zip(seeds, all_records):
        mfffa.write_sim_outputs(records, out / f"seed_{seed}")
    # aggregate medians across seeds per checkpoint
    rows = ["t,burned_cum_median,largest_cluster_median,phi_hat_window_median"]
    for recs in zip(*all_records):
        rows.append(",".join([
            f"{recs[0].t:.12g}",
            f"{statistics.median(r.burned_vertices for r in recs):g}",
            f"{statistics.median(r.largest_cluster for r in recs):g}",
            f"{statistics.median(r.phi_hat_window for r in recs):.8g}"]))
    (out / "aggregate.csv").write_text("\n".join(rows) + "\n")
    print(f"wrote {len(seeds)} record sets to {out}")
    return 0


def _read_column(path: Path, column: str) -> dict[str, tuple[float, float]]:
    """{snapshot name: (t, ``column``)} over the rows of a CSV file whose
    first column is the time t."""
    rows = path.read_text().strip().splitlines()
    if len(rows) < 2:
        raise ValueError("no data rows")
    header = rows[0].split(",")
    if column not in header:
        raise ValueError(f"no column {column!r}")
    idx = header.index(column)
    cells = [r.split(",") for r in rows[1:]]
    return {ev.snapshot_filename(float(c[0])): (float(c[0]), float(c[idx])) for c in cells}


def cmd_compare(args) -> int:
    config = _load_config("compare", args)
    traj_dir, sim_dir = Path(config["traj_dir"]), Path(config["sim_dir"])
    phi_pde = _guard(traj_dir / "trajectory.csv", _read_column, "phi")
    seed_dirs = sorted(sim_dir.glob("seed_*")) or [sim_dir]
    phi_sims = [_guard(sd / "sim.csv", _read_column, "phi_hat_window")
                for sd in seed_dirs]
    # a trajectory row and a sim row are one checkpoint when they share a
    # snapshot name
    matches = [(name, t) for name, (t, _) in phi_sims[0].items()
               if name in phi_pde]
    if not matches:
        raise InputError("no common checkpoint times between trajectory and sim")
    rows = ["t,w1_empirical_vs_pde,phi_hat,phi_pde"]
    for name, t in matches:
        pde_snap = _guard(traj_dir / name, ms.AgeMeasure.from_csv)
        w1s, phis = [], []
        for sd, phi_sim in zip(seed_dirs, phi_sims):
            if name not in phi_sim:
                raise InputError(f"{sd / 'sim.csv'}: no row at t = {t:.12g}")
            emp = _guard(sd / name, ms.AgeMeasure.from_csv)
            w1s.append(ms.w1(emp, pde_snap))
            phis.append(phi_sim[name][1])
        rows.append(f"{t:.12g},{statistics.median(w1s):.8g},"
                    f"{statistics.median(phis):.8g},{phi_pde[name][1]:.8g}")
    out = _open_out(config)
    (out / "comparison.csv").write_text("\n".join(rows) + "\n")
    print(f"compared {len(matches)} checkpoints "
          f"across {len(seed_dirs)} replica(s); wrote {out / 'comparison.csv'}")
    return 0


def cmd_validate(args) -> int:
    config = _load_config("validate", args)
    results = run_suite(config["suite"])
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 4 if failed else 0


def cmd_gel(args) -> int:
    config = _load_config("gel", args)
    t_gel = ev.gelation_time(_init_measure(config["init"]), tol=config["tol"])
    print(f"t_gel = {t_gel:.9f}")
    return 0


def cmd_fixedpoint(args) -> int:
    config = _load_config("fixedpoint", args)
    pi = ms.fixed_point_measure(config["n_atoms"], config["truncation"])
    pair = sp.leading_pair(pi)
    out = _open_out(config)
    pi.to_csv(out / "fixed_point.csv")
    sp.spectral_csv(pair, out / "fixed_point_spectral.csv")
    print(f"atoms = {pi.n_atoms}")
    print(f"lambda = {pair.lam:.12f}")
    print(f"residual = {pair.residual:.3e}")
    print(f"phi = {sp.phi_of_pair(pair):.8f}")
    print(f"theta_sup = {sp.theta_sup(pair):.8f}")
    print(f"mean age = {pi.first_moment():.8f}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agefire",
        description="Self-organized-critical age dynamics of the mean-field "
                    "forest fire model: deterministic solver and stochastic "
                    "simulator.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, params) in _PARAMS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file (flags override)")
        # looked up by name so that a rebound cmd_* is the one called
        p.set_defaults(func=globals()[f"cmd_{command}"])
        for key, (flag, _, default, text) in params.items():
            if default is not None and default is not _REQUIRED:
                text += f" (default: {default})"
            if flag is None:
                p.add_argument(key, nargs="?", help=text)
            else:
                p.add_argument(flag, dest=key, help=text)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
