"""Property test of the CLI's input checks: every command, given one bad
config value as a flag or through ``--config`` and every other value tiny
and valid, exits 2 with one ``input error:`` line naming the key and
leaves no ``--out`` behind."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from agefire import cli
from agefire.cli import main

# tiny valid values of every key but out of every command; compare reads
# the outputs of the solve and simulate rows (see ``_valid``), and
# validate runs its fastest suite, never "all"
BASE = {
    "solve": {"init": "dirac:0", "t_max": 0.1, "dt": 0.05,
              "checkpoints": [0.1], "merge_eps": 1e-6,
              "lambda_drift_budget": 1e-3},
    "simulate": {"init": "dirac:0", "n": 2, "lightning": 0.5, "t_max": 0.1,
                 "checkpoints": [0.1], "seeds": 1},
    "compare": {"traj_dir": "traj", "sim_dir": "sim"},
    "validate": {"suite": "metric"},
    "gel": {"init": "dirac:0", "tol": 1e-9},
    "fixedpoint": {"n_atoms": 10, "truncation": 40.0},
}

# kind -> a strategy of bad values; "wrong-type" and "unknown-key" exist
# only as JSON
KINDS = {
    "nan": st.just(math.nan),
    "inf": st.just(math.inf),
    "-inf": st.just(-math.inf),
    "negative": st.one_of(st.integers(max_value=-1),
                          st.floats(max_value=-1e-300, allow_infinity=False)),
    "fraction": st.floats(1e-3, 1e6).filter(lambda x: not x.is_integer()),
    "empty": st.just(""),
    "wrong-type": st.sampled_from([{"k": 1}, [[]]]),
    "unknown-key": st.integers(),
    "huge-lightning": st.floats(9e307, 1.7976931348623157e308),  # * 2 overflows
}
NUMERIC = ("nan", "inf", "-inf", "negative", "fraction")

# converter -> the kinds it must reject whether given as a flag or as JSON
BAD = {
    cli._time: ("nan", "inf", "-inf", "negative", "empty"),
    cli._positive: ("nan", "inf", "-inf", "negative", "empty"),
    cli._budget: ("nan", "-inf", "negative", "empty"),   # inf is a budget
    cli._count: (*NUMERIC, "empty"),
    cli._seeds: (*NUMERIC, "empty"),
    cli._times: ("nan", "inf", "-inf", "negative"),     # "" is no times
    cli._lightning: ("nan", "inf", "-inf", "negative", "empty"),
    cli._text: ("empty",),  # "nan" is a valid path; a JSON number is not text
}


def _targets(kind):
    """The (command, key, as JSON) triples where ``kind`` is a bad value."""
    targets = []
    for command, (_, params) in sorted(cli._PARAMS.items()):
        for key, (_, convert, _, _) in params.items():
            for as_json in (False, True):
                if kind == "huge-lightning":
                    bad = key == "lightning"
                elif kind in ("wrong-type", "unknown-key"):
                    bad = as_json
                else:
                    bad = kind in BAD[convert] or (
                        as_json and convert is cli._text and kind in NUMERIC)
                if bad:
                    targets.append((command, key, as_json))
    return targets


def _argv(command, flag_values, json_values, config_path):
    """The argument list giving ``flag_values`` as flags (a positional after
    ``--``) and ``json_values``, if any, as a JSON config."""
    argv = [command]
    if json_values:
        config_path.write_text(json.dumps(json_values))
        argv += ["--config", str(config_path)]
    params = cli._PARAMS[command][1]
    positional = []
    for key, value in flag_values.items():
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        flag = params[key][0]
        if flag is None:
            positional += ["--", text]
        else:
            argv.append(f"{flag}={text}")   # "=" keeps "-inf" a value
    return argv + positional


def _main(argv):
    """``main(argv)`` with its exit code and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _valid(command, root, out):
    """``BASE[command]`` with compare's directories under ``root``, plus
    ``out`` if the command writes one."""
    values = dict(BASE[command])
    if command == "compare":
        values = {k: str(root / v) for k, v in values.items()}
    if "out" in cli._PARAMS[command][1]:
        values["out"] = str(out)
    return values


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding the outputs of the valid solve and simulate that
    the compare configs read."""
    root = tmp_path_factory.mktemp("cli-fuzz")
    for command, out in (("solve", "traj"), ("simulate", "sim")):
        values = _valid(command, root, root / out)
        assert _main(_argv(command, values, {}, None)) == (0, "")
    return root


@pytest.mark.parametrize("command", sorted(cli._PARAMS))
@pytest.mark.parametrize("as_json", [False, True])
def test_base_configs_are_valid(workdir, tmp_path, command, as_json):
    values = _valid(command, workdir, tmp_path / "out")
    flags, config = ({}, values) if as_json else (values, {})
    code, err = _main(_argv(command, flags, config, tmp_path / "cfg.json"))
    assert (code, err) == (0, "")


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data(), rest_as_json=st.booleans())
def test_one_bad_value_is_one_input_error(workdir, kind, data, rest_as_json):
    command, key, bad_as_json = data.draw(st.sampled_from(_targets(kind)),
                                          label="target")
    params = cli._PARAMS[command][1]
    if kind == "unknown-key":
        key = data.draw(st.from_regex(r"[a-z][a-z_]{0,11}", fullmatch=True)
                        .filter(lambda k: k not in params), label="unknown")
    work = Path(tempfile.mkdtemp(dir=workdir))
    values = _valid(command, workdir, work / "out")
    values.pop(key, None)
    bad = {key: data.draw(KINDS[kind], label="value")}
    flags = {**({} if rest_as_json else values), **({} if bad_as_json else bad)}
    config = {**(values if rest_as_json else {}), **(bad if bad_as_json else {})}
    code, err = _main(_argv(command, flags, config, work / "cfg.json"))
    assert code == 2, err
    assert err.startswith("input error:") and err.count("\n") == 1, err
    assert key in err, err
    assert {p.name for p in work.iterdir()} <= {"cfg.json"}
