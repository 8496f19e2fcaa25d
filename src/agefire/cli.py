"""Command-line interface.

Subcommands: solve, simulate, compare, validate, gel, fixedpoint.  Every
run is reproducible from its config alone: parameters may come from a JSON
config file (flat schema, unknown keys rejected), CLI flags override config
keys, and the merged config is echoed into the output directory.

Exit codes: 0 success, 2 input error, 3 numerical-accuracy error,
4 validation failure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import numpy as np

from . import evolution as ev
from . import measures as ms
from . import mfffa
from . import spectral as sp
from .errors import AccuracyError, InputError
from .validation import run_suite

_SCHEMAS = {
    "solve": {"init", "t_max", "dt", "checkpoints", "merge_eps",
              "lambda_drift_budget", "out"},
    "simulate": {"init", "n", "lightning", "t_max", "checkpoints", "seeds",
                 "out"},
    "compare": {"traj_dir", "sim_dir", "out"},
    "validate": {"suite"},
    "gel": {"init", "tol"},
    "fixedpoint": {"n_atoms", "truncation", "out"},
}


def _load_config(command: str, args: argparse.Namespace) -> dict:
    """Merge JSON config (if any) with CLI flags; flags win."""
    schema = _SCHEMAS[command]
    config: dict = {}
    if getattr(args, "config", None):
        try:
            raw = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise InputError(f"config {args.config}: {exc.strerror or exc}") from None
        except ValueError as exc:  # malformed JSON or not UTF-8
            raise InputError(f"config {args.config}: {exc}") from None
        if not isinstance(raw, dict):
            raise InputError(f"config {args.config}: expected a JSON object, "
                             f"got {type(raw).__name__}")
        unknown = set(raw) - schema
        if unknown:
            raise InputError(f"unknown config keys for {command}: {sorted(unknown)}")
        config.update(raw)
    for key in schema:
        val = getattr(args, key, None)
        if val is not None:
            config[key] = val
    return config


def _as(kind: type, value, key: str):
    """``value`` converted to ``kind`` (a str must already be one); a value
    that does not convert is an InputError naming its config key."""
    try:
        if kind is str and not isinstance(value, str):
            raise TypeError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise InputError(
            f"{key}: expected {kind.__name__}, got {value!r}") from None


def _parse_checkpoints(raw, t_max: float) -> list[float] | None:
    if raw is None:
        return None
    if isinstance(raw, str):
        raw = [v for v in raw.split(",") if v.strip()]
    elif not isinstance(raw, (list, tuple)):
        raise InputError(f"checkpoints: expected a list, got {raw!r}")
    vals = [_as(float, v, "checkpoints") for v in raw]
    if not all(0 <= v <= t_max + 1e-12 for v in vals):
        raise InputError("checkpoints must lie in [0, t_max]")
    return vals


def _init_measure(preset: str) -> ms.ProbabilityAgeMeasure:
    try:
        return ms.from_named(preset)
    except InputError as exc:
        raise InputError(f"init: {exc}") from None


def _require_out(config: dict) -> Path:
    if not config.get("out"):
        raise InputError("--out <dir> is required for file-emitting commands")
    out = Path(_as(str, config["out"], "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    config = _load_config("solve", args)
    config.setdefault("init", "fixedpoint")
    config.setdefault("t_max", 1.0)
    config.setdefault("dt", 1e-3)
    config.setdefault("merge_eps", 1e-6)
    config.setdefault("lambda_drift_budget", 1e-3)
    init = _as(str, config["init"], "init")
    t_max = _as(float, config["t_max"], "t_max")
    opts = ev.EvolveOptions(
        dt=_as(float, config["dt"], "dt"),
        checkpoints=_parse_checkpoints(config.get("checkpoints"), t_max),
        merge_eps=_as(float, config["merge_eps"], "merge_eps"),
        lambda_drift_budget=_as(float, config["lambda_drift_budget"],
                                "lambda_drift_budget"))
    out = _require_out(config)
    mfffa.write_config(config, out)
    pi0 = _init_measure(init)
    traj = ev.solve(pi0, t_max, opts)
    reference = pi0 if init.startswith(("fixedpoint", "fixed_point")) \
        else ms.fixed_point_measure()
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
    config.setdefault("init", "dirac:0")
    config.setdefault("n", 2000)
    config.setdefault("lightning", "auto")
    config.setdefault("t_max", 3.0)
    config.setdefault("seeds", 1)
    n = _as(int, config["n"], "n")
    if n < 1:
        raise InputError("n must be >= 1")
    seeds = config["seeds"]
    seed_list = list(range(_as(int, seeds, "seeds"))) \
        if not isinstance(seeds, (list, tuple)) \
        else [_as(int, s, "seeds") for s in seeds]
    if not seed_list:
        raise InputError("seeds must be >= 1 or a non-empty list")
    lightning = config["lightning"]
    lambda_n = n ** -0.5 if lightning in ("auto", None) \
        else _as(float, lightning, "lightning")
    t_max = _as(float, config["t_max"], "t_max")
    cps = _parse_checkpoints(config.get("checkpoints"), t_max) \
        or list(np.linspace(0.0, t_max, 7)[1:])
    init = _as(str, config["init"], "init")
    out = _require_out(config)
    mfffa.write_config(config, out)

    all_records = []
    for seed in seed_list:
        if init.startswith("iid:"):
            base = _init_measure(init[4:])
            rng = np.random.default_rng(seed)
            ages = rng.choice(base.locations, size=n, p=base.masses)
            graph = mfffa.sample_irg(ages, seed=seed)
        else:
            base = _init_measure(init)
            if base.n_atoms != 1:
                raise InputError(
                    "deterministic init must be a single atom; "
                    "use iid:<preset> for sampled ages")
            graph = mfffa.sample_irg(float(base.locations[0]), n=n, seed=seed)
        records = mfffa.run(graph, lambda_n, t_max, cps)
        mfffa.write_sim_outputs(records, out / f"seed_{seed}")
        all_records.append(records)
        if lambda_n > 0:
            print(f"seed {seed}: {records[-1].burned_vertices} vertices burned "
                  f"in {records[-1].burn_events} fires by t = {t_max:g}")
    # aggregate medians across seeds per checkpoint
    rows = ["t,burned_cum_median,largest_cluster_median,phi_hat_window_median"]
    for k, t in enumerate(cps):
        rows.append(",".join([
            f"{t:.12g}",
            f"{statistics.median(r[k].burned_vertices for r in all_records):g}",
            f"{statistics.median(r[k].largest_cluster for r in all_records):g}",
            f"{statistics.median(r[k].phi_hat_window for r in all_records):.8g}"]))
    (out / "aggregate.csv").write_text("\n".join(rows) + "\n")
    print(f"wrote {len(seed_list)} record sets to {out}")
    return 0


def _read_column(path: Path, column: str) -> dict[float, float]:
    rows = path.read_text().strip().splitlines()
    header = rows[0].split(",")
    idx = header.index(column)
    return {float(r.split(",")[0]): float(r.split(",")[idx]) for r in rows[1:]}


def cmd_compare(args) -> int:
    config = _load_config("compare", args)
    if not config.get("traj_dir") or not config.get("sim_dir"):
        raise InputError("compare needs --traj-dir and --sim-dir")
    out = _require_out(config)
    mfffa.write_config(config, out)
    traj_dir = Path(_as(str, config["traj_dir"], "traj_dir"))
    sim_dir = Path(_as(str, config["sim_dir"], "sim_dir"))
    phi_pde = _read_column(traj_dir / "trajectory.csv", "phi")

    seed_dirs = sorted(sim_dir.glob("seed_*")) or [sim_dir]
    sim_times = sorted(_read_column(seed_dirs[0] / "sim.csv", "phi_hat_window"))
    matches = []
    for t in sim_times:
        tp = min(phi_pde, key=lambda k: abs(k - t))
        if abs(tp - t) <= 1e-9:
            matches.append((t, tp))
    if not matches:
        raise InputError("no common checkpoint times between trajectory and sim")
    rows = ["t,w1_empirical_vs_pde,phi_hat,phi_pde"]
    for t, tp in matches:
        pde_snap = ms.AgeMeasure.from_csv(traj_dir / ev.snapshot_filename(tp))
        w1s, phis = [], []
        for sd in seed_dirs:
            emp = ms.AgeMeasure.from_csv(sd / f"snapshot_t{t:.6f}.csv")
            w1s.append(ms.w1(emp, pde_snap))
            phis.append(_read_column(sd / "sim.csv", "phi_hat_window")[t])
        rows.append(f"{t:.12g},{statistics.median(w1s):.8g},"
                    f"{statistics.median(phis):.8g},{phi_pde[tp]:.8g}")
    (out / "comparison.csv").write_text("\n".join(rows) + "\n")
    print(f"compared {len(matches)} checkpoints "
          f"across {len(seed_dirs)} replica(s); wrote {out / 'comparison.csv'}")
    return 0


def cmd_validate(args) -> int:
    config = _load_config("validate", args)
    results = run_suite(config.get("suite") or "all")
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 4 if failed else 0


def cmd_gel(args) -> int:
    config = _load_config("gel", args)
    config.setdefault("init", "dirac:0")
    config.setdefault("tol", 1e-9)
    t_gel = ev.gelation_time(_init_measure(_as(str, config["init"], "init")),
                             tol=_as(float, config["tol"], "tol"))
    print(f"t_gel = {t_gel:.9f}")
    return 0


def cmd_fixedpoint(args) -> int:
    config = _load_config("fixedpoint", args)
    config.setdefault("n_atoms", 2000)
    config.setdefault("truncation", 40.0)
    n_atoms = _as(int, config["n_atoms"], "n_atoms")
    truncation = _as(float, config["truncation"], "truncation")
    out = _require_out(config)
    mfffa.write_config(config, out)
    pi = ms.fixed_point_measure(n_atoms, truncation)
    pair = sp.leading_pair(pi)
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

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file (flags override)")
        p.set_defaults(func=func)
        return p

    p = add("solve", cmd_solve, "integrate the age dynamics")
    p.add_argument("--init", help="initial measure, e.g. dirac:0, twoatom:0.5, "
                                  "threeatom:10, fixedpoint:2000,40")
    p.add_argument("--t-max", dest="t_max", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--checkpoints", help="comma-separated times")
    p.add_argument("--merge-eps", dest="merge_eps", type=float)
    p.add_argument("--drift-budget", dest="lambda_drift_budget", type=float)
    p.add_argument("--out")

    p = add("simulate", cmd_simulate, "run the stochastic fire graph")
    p.add_argument("--init", help="dirac:a or iid:<preset>")
    p.add_argument("--n", type=int)
    p.add_argument("--lightning", help="per-vertex strike rate, or 'auto' (= n^-1/2)")
    p.add_argument("--t-max", dest="t_max", type=float)
    p.add_argument("--checkpoints")
    p.add_argument("--seeds", type=int, help="number of replicas (seeds 0..k-1)")
    p.add_argument("--out")

    p = add("compare", cmd_compare, "compare sim snapshots to a trajectory")
    p.add_argument("--traj-dir", dest="traj_dir")
    p.add_argument("--sim-dir", dest="sim_dir")
    p.add_argument("--out")

    p = add("validate", cmd_validate, "run an invariant suite")
    p.add_argument("suite", nargs="?", default=None,
                   help="metric | spectral | roundtrip | evolution | all")

    p = add("gel", cmd_gel, "compute the gelation time of an initial measure")
    p.add_argument("--init")
    p.add_argument("--tol", type=float)

    p = add("fixedpoint", cmd_fixedpoint,
            "emit the discretized stationary profile and its spectral data")
    p.add_argument("--atoms", dest="n_atoms", type=int)
    p.add_argument("--truncation", type=float)
    p.add_argument("--out")
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
