"""Tests for the command-line runner: exit codes, outputs, determinism."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emergence_lab
from emergence_lab.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_NUMERIC,
    EXIT_PASS,
    EXIT_USAGE,
    _format_cell,
    emit_table,
    main,
)
from emergence_lab.experiments import (
    EXPERIMENT_NAMES,
    ConfigError,
    ExperimentConfig,
    Table,
    config_from_mapping,
)
from emergence_lab.serialize import read_config


def write_cfg(tmp_path: Path, text: str) -> str:
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# happy path
# ---------------------------------------------------------------------------


def test_modes_check_passes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "experiment = modes-check\nshape = 16\n")
    out = tmp_path / "out"
    code = main(["modes-check", "--config", cfg, "--out", str(out)])
    assert code == EXIT_PASS
    captured = capsys.readouterr()
    assert "modes-check: PASS" in captured.out
    assert (out / "report.modes-check.json").exists()
    assert (out / "mode_frequencies.tsv").exists()


def test_report_schema(tmp_path):
    cfg = write_cfg(tmp_path, "experiment = modes-check\nshape = 16\n")
    out = tmp_path / "out"
    main(["modes-check", "--config", cfg, "--out", str(out)])
    payload = json.loads((out / "report.modes-check.json").read_text())
    assert set(payload) == {"experiment", "config", "seed", "pass", "checks"}
    assert payload["experiment"] == "modes-check"
    assert payload["pass"] is True
    assert payload["config"]["shape"] == 16
    for check in payload["checks"]:
        assert set(check) == {"name", "measured", "lower", "upper", "pass"}
    # timing must never reach the file, or reruns would differ
    assert "elapsed" not in (out / "report.modes-check.json").read_text()


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path, "experiment = modes-check\nshape = 16\nseed = 5\n")
    out = tmp_path / "out"
    main(["modes-check", "--config", cfg, "--out", str(out), "--seed", "9"])
    payload = json.loads((out / "report.modes-check.json").read_text())
    assert payload["seed"] == 9


def test_defaults_without_config(tmp_path):
    out = tmp_path / "out"
    code = main(["geometry-check", "--out", str(out)])
    assert code == EXIT_PASS
    payload = json.loads((out / "report.geometry-check.json").read_text())
    assert payload["seed"] == 0


def test_runs_are_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, "experiment = modes-check\nshape = 16\n")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    main(["modes-check", "--config", cfg, "--out", str(out_a)])
    main(["modes-check", "--config", cfg, "--out", str(out_b)])
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------


def test_unknown_experiment_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_USAGE


def test_unknown_config_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "experiment = modes-check\nwibble = 3\n")
    code = main(["modes-check", "--config", cfg, "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "wibble" in capsys.readouterr().err


def test_wrong_experiment_in_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "experiment = kernel\n")
    code = main(["modes-check", "--config", cfg, "--out", str(tmp_path)])
    assert code == EXIT_USAGE


def test_bad_value_type(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "experiment = modes-check\nn_trials = 1.5\n")
    code = main(["modes-check", "--config", cfg, "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "n_trials" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    code = main(["modes-check", "--config", str(tmp_path / "nope.cfg")])
    assert code == EXIT_USAGE


def test_check_failure_exits_one(tmp_path, capsys):
    # at mass 2 the 2-10 Compton fit window holds too few samples for the
    # pi2 and energy tails, so localize fails on physics, not on a setting
    cfg = write_cfg(tmp_path, "experiment = localize\nmass = 2\n")
    out = tmp_path / "out"
    code = main(["localize", "--config", cfg, "--out", str(out)])
    assert code == EXIT_CHECK_FAILURE
    captured = capsys.readouterr()
    assert "FAIL pi2_decay_within_gate" in captured.out
    payload = json.loads((out / "report.localize.json").read_text())
    assert payload["pass"] is False


def _refuse_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


def test_reports_are_strict_json(tmp_path, capsys):
    # at mass 2 localize's fit window holds too few samples for the pi2 and
    # energy tails, so their lengths and rms are NaN; reports write null
    cfg = write_cfg(tmp_path, "mass = 2\n")
    out = tmp_path / "out"
    assert main(["all", "--config", cfg, "--out", str(out)]) == EXIT_CHECK_FAILURE
    reports = sorted(out.glob("report.*.json"))
    assert len(reports) == len(EXPERIMENT_NAMES) + 1
    for path in reports:
        json.loads(path.read_text(), parse_constant=_refuse_constant)
    checks = json.loads((out / "report.localize.json").read_text())["checks"]
    nulls = {c["name"] for c in checks if c["measured"] is None}
    assert nulls == {
        "pi2_decay_within_gate", "pi2_fit_rms", "energy_decay_within_gate", "energy_fit_rms",
    }
    assert not any(c["pass"] for c in checks if c["name"] in nulls)


@pytest.mark.parametrize("shape", ["16", "8 8", "24"])
def test_elp_on_small_lattice_reports_failure(tmp_path, capsys, shape):
    # the two bump centres lie 8 sites either side of the middle; on a short
    # lattice they wrap instead of indexing past the end
    cfg = write_cfg(tmp_path, f"experiment = elp\nshape = {shape}\n")
    out = tmp_path / "out"
    code = main(["elp", "--config", cfg, "--out", str(out)])
    assert code == EXIT_CHECK_FAILURE
    assert "numeric failure" not in capsys.readouterr().err
    payload = json.loads((out / "report.elp.json").read_text())
    verdicts = {c["name"]: c["pass"] for c in payload["checks"]}
    assert verdicts["inputs_localized_in_region"] is False


@pytest.mark.parametrize(
    "unbuffered, lines_read",
    [("1", 1), ("", 0)],
    ids=["closed-after-first-line", "closed-before-output"],
)
def test_closed_stdout_keeps_every_file_and_the_verdict(tmp_path, unbuffered, lines_read):
    # `emergence-lab all --out D | head -1`: the reader closes stdout after
    # the first line (line by line), or before any output (one buffered
    # write at exit, which Python otherwise fails at shutdown with code 120)
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=str(Path(emergence_lab.__file__).parents[1]))
    out = tmp_path / "out"
    proc = subprocess.Popen(
        [sys.executable, "-m", "emergence_lab.cli", "all", "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    lines = [proc.stdout.readline() for _ in range(lines_read)]
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    code = proc.returncode
    assert [line.split(b":")[0] for line in lines] == [b"kernel"] * lines_read
    assert err == b""
    reports = {path.name for path in out.glob("report.*.json")}
    assert reports == {f"report.{name}.json" for name in EXPERIMENT_NAMES + ("all",)}
    verdict = json.loads((out / "report.all.json").read_text())["pass"]
    assert code == (EXIT_PASS if verdict else EXIT_CHECK_FAILURE)


@pytest.mark.parametrize("layout", ["existing-file", "under-a-file", "report-is-a-directory"])
def test_unusable_out_is_usage_error(tmp_path, capsys, layout):
    # an --out that cannot be created or written is a usage error, not a
    # failed check and not a traceback
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = {"existing-file": blocker, "under-a-file": blocker / "sub"}.get(layout, tmp_path)
    if layout == "report-is-a-directory":
        (tmp_path / "report.modes-check.json").mkdir()
    code = main(["modes-check", "--config", write_cfg(tmp_path, "shape = 16\n"),
                 "--out", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert blocker.read_text() == "not a directory\n"


def test_numeric_failure_exits_three(tmp_path, capsys):
    # lambda = +0.5 makes the radial integral diverge
    cfg = write_cfg(tmp_path, "experiment = asymptotics\nlambdas = 0.5\n")
    code = main(["asymptotics", "--config", cfg, "--out", str(tmp_path)])
    assert code == EXIT_NUMERIC
    assert "numeric failure" in capsys.readouterr().err


SHAPES = st.one_of(
    st.tuples(st.integers(1, 64)),
    st.lists(st.integers(1, 8), min_size=2, max_size=3).map(tuple),
)


@settings(max_examples=80, deadline=None)
@given(
    experiment=st.sampled_from(EXPERIMENT_NAMES),
    shape=SHAPES,
    spacing=st.sampled_from([1e-300, 0.05, 0.3, 1.0, 3.0, 1e300]),
    mass=st.sampled_from([1e-300, 0.05, 1.0, 4.0, 30.0, 1e300]),
)
def test_any_small_config_ends_in_an_exit_code(experiment, shape, spacing, mass):
    # outside an experiment's domain of validity a run must end in a
    # documented exit code, never in a traceback; 1e+-300 overflows or
    # underflows the stencil and mass terms
    text = (
        f"shape = {' '.join(map(str, shape))}\n"
        f"spacing = {spacing!r}\nmass = {mass!r}\n"
    )
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_cfg(Path(tmp), text)
        code = main([experiment, "--config", cfg, "--out", tmp])
    assert code in (EXIT_PASS, EXIT_CHECK_FAILURE, EXIT_USAGE, EXIT_NUMERIC)


# ---------------------------------------------------------------------------
# config values
# ---------------------------------------------------------------------------

INT_KEYS = ("n_trials", "n_pairs", "seed")
FLOAT_KEYS = ("spacing", "mass", "time", "width_compton")
NOT_AN_INTEGER = st.one_of(
    st.sampled_from(["true", "false", "1.5", "2.0", "64.7", "1e3", "abc"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
NOT_A_NUMBER = st.sampled_from(["true", "false", "abc", "1.0.0", "--1", "0x10"])
NOT_FINITE = st.sampled_from(["inf", "-inf", "nan", "Infinity", "1e999"])
BAD_ENTRIES = st.one_of(
    st.tuples(st.sampled_from(INT_KEYS), NOT_AN_INTEGER),
    st.tuples(st.just("seed"), st.integers(-10**6, -1).map(str)),
    st.tuples(st.sampled_from(FLOAT_KEYS + ("lambdas",)), NOT_A_NUMBER),
    st.tuples(st.sampled_from(FLOAT_KEYS + ("lambdas",)), NOT_FINITE),
    st.tuples(st.just("lambdas"), NOT_FINITE.map("-0.5 {}".format)),
    # a repeated exponent, even spelled apart
    st.tuples(st.just("lambdas"),
              st.sampled_from(["-0.5 -0.5", "-1 -1.0", "-0.75 -0.5 -0.75"])),
    st.tuples(st.sampled_from(FLOAT_KEYS), st.floats(-1e6, 0.0).map(repr)),
    st.tuples(st.sampled_from(("n_trials", "n_pairs")), st.integers(-5, 0).map(str)),
    # shape: a non-integer extent, an extent below 1, or four or more axes
    st.tuples(st.just("shape"), st.one_of(
        st.lists(st.one_of(st.integers(1, 8).map(str), NOT_AN_INTEGER), min_size=1, max_size=3)
        .filter(lambda tokens: not all(t.isdigit() for t in tokens)),
        st.lists(st.integers(-3, 8).map(str), min_size=1, max_size=3)
        .filter(lambda tokens: not all(t.isdigit() and int(t) > 0 for t in tokens)),
        st.lists(st.integers(1, 4).map(str), min_size=4, max_size=6),
    ).map(" ".join)),
)


@settings(max_examples=120, deadline=None)
@given(experiment=st.sampled_from(EXPERIMENT_NAMES), entry=BAD_ENTRIES)
def test_malformed_or_out_of_range_value_is_usage_error(experiment, entry):
    key, value = entry
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        cfg = write_cfg(Path(tmp), f"{key} = {value}\n")
        code = main([experiment, "--config", cfg, "--out", tmp])
    assert code == EXIT_USAGE, (key, value)
    assert key in err.getvalue()
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize(
    "key", ["decay_rtol", "rate_rtol", "form_tol", "drift_tol", "nonrel_tol"]
)
def test_gate_tolerance_is_not_a_config_key(tmp_path, capsys, key):
    # gates are constants of the experiments: a file cannot loosen one
    cfg = write_cfg(tmp_path, f"{key} = 1.0\n")
    assert main(["all", "--config", cfg, "--out", str(tmp_path)]) == EXIT_USAGE
    assert f"unknown config key {key!r}" in capsys.readouterr().err


def test_seed_flag_is_validated_too(tmp_path, capsys):
    assert main(["modes-check", "--out", str(tmp_path), "--seed", "-1"]) == EXIT_USAGE
    assert "seed" in capsys.readouterr().err


def test_config_from_python_values():
    # the form the benchmark workloads build configs in
    config = config_from_mapping("kernel", {"shape": 2048, "seed": 3, "n_pairs": 40})
    assert config.shape == (2048,)
    assert config.seed == 3 and config.n_pairs == 40
    config = config_from_mapping("localize", {"shape": (12, 12, 12), "mass": 2})
    assert config.shape == (12, 12, 12)
    assert type(config.mass) is float and config.mass == 2.0
    for key, value in [("seed", True), ("shape", True), ("n_pairs", 4.0),
                       ("shape", (8, 8.5)), ("mass", False), ("lambdas", (True,))]:
        with pytest.raises(ConfigError, match=key):
            config_from_mapping("kernel", {key: value})


@pytest.mark.parametrize(
    "key,value", [("shape", (64.7,)), ("shape", (True,)), ("shape", (8, False)),
                  ("lambdas", (True,)), ("lambdas", (-0.5, False))],
)
def test_direct_config_is_held_to_the_file_rules(key, value):
    # built in Python, a config refuses what a file or mapping is refused,
    # with the same message, instead of coercing it
    with pytest.raises(ConfigError) as direct:
        ExperimentConfig("kernel", **{key: value})
    with pytest.raises(ConfigError) as mapped:
        config_from_mapping("kernel", {key: value})
    assert str(direct.value) == str(mapped.value)
    assert str(direct.value).startswith(f"{key} must be one or more")


EVERY_KEY = """\
experiment = geometry-check
shape = {shape}
spacing = 0.5
mass = 2
lambdas = {lambdas}
time = 20.0
width_compton = 4.0
n_trials = 3
n_pairs = 7
seed = 3
"""


@pytest.mark.parametrize(
    "shape,lambdas,shape_echo,lambdas_echo",
    [("16", "-0.5", 16, -0.5), ("4 4", "-0.5 -1", [4, 4], [-0.5, -1.0])],
)
def test_every_key_echoes_into_the_report(tmp_path, shape, lambdas, shape_echo, lambdas_echo):
    cfg = write_cfg(tmp_path, EVERY_KEY.format(shape=shape, lambdas=lambdas))
    out = tmp_path / "out"
    main(["geometry-check", "--config", cfg, "--out", str(out)])
    echo = json.loads((out / "report.geometry-check.json").read_text())["config"]
    expected = {
        "experiment": "geometry-check", "shape": shape_echo, "spacing": 0.5,
        "mass": 2.0, "lambdas": lambdas_echo, "time": 20.0, "width_compton": 4.0,
        "n_trials": 3, "n_pairs": 7, "seed": 3,
    }
    # JSON text tells 2 from 2.0: one-element tuples echo as scalars, ints
    # stay ints and floats stay floats
    assert json.dumps(echo, sort_keys=True) == json.dumps(expected, sort_keys=True)


# ---------------------------------------------------------------------------
# table writer
# ---------------------------------------------------------------------------


def test_emit_table_format(tmp_path):
    table = Table(
        name="demo",
        columns=("x", "flag", "v"),
        rows=[(1, True, 0.5), (2, False, 1.5)],
    )
    path = tmp_path / "demo.tsv"
    emit_table(path, table, {"seed": 0, "mass": 1.0, "shape": (4, 5), "lambdas": (-0.5,)})
    lines = path.read_text().splitlines()
    assert lines[0] == "# table = demo"
    assert "# mass = 1.0" in lines
    assert "# seed = 0" in lines
    # tuples are spelled as a config file spells them
    assert "# shape = 4 5" in lines
    assert "# lambdas = -0.5" in lines
    assert lines[-3] == "x\tflag\tv"
    assert lines[-2] == "1\ttrue\t0.5"
    assert lines[-1] == "2\tfalse\t1.5"


def test_emit_table_writes_numpy_scalars_as_python_values(tmp_path):
    table = Table(
        name="numpy",
        columns=("v", "flag", "n"),
        rows=[(np.float64(1.6653345369377348e-16), np.bool_(True), np.int64(3)),
              (np.float32(0.5), np.bool_(False), 4)],
    )
    path = tmp_path / "numpy.tsv"
    emit_table(path, table, {"x": np.float64(2.0)})
    lines = path.read_text().splitlines()
    assert "# x = 2.0" in lines
    assert lines[-2:] == ["1.6653345369377348e-16\ttrue\t3", "0.5\tfalse\t4"]


def _format_cell_per_type(value) -> str:
    """The cell formatter as it was before its Python-float fast path."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


@pytest.mark.parametrize(
    "value,text",
    [
        (0.1, "0.1"),
        (1e-300, "1e-300"),
        (np.float64(1.6653345369377348e-16), "1.6653345369377348e-16"),
        (np.float32(0.5), "0.5"),
        (3, "3"),
        (np.int64(-7), "-7"),
        (True, "true"),
        (False, "false"),
        (np.bool_(True), "true"),
        (np.bool_(False), "false"),
        ("phi2", "phi2"),
        (float("nan"), "nan"),
        (np.float64("nan"), "nan"),
        (float("inf"), "inf"),
        (-float("inf"), "-inf"),
        (np.float64("-inf"), "-inf"),
        (-0.0, "-0.0"),
        (np.float64(-0.0), "-0.0"),
    ],
)
def test_format_cell_keeps_its_strings(value, text):
    assert _format_cell(value) == _format_cell_per_type(value) == text


@pytest.fixture(scope="module")
def all_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("all")
    assert main(["all", "--out", str(out)]) == EXIT_PASS
    return out


def test_all_writes_no_numpy_repr(all_outputs):
    for path in sorted(all_outputs.iterdir()):
        for line in path.read_text().splitlines():
            for cell in line.split("\t"):
                assert "np." not in cell, (path.name, cell)


def test_table_preambles_read_back_as_the_config_that_wrote_them(all_outputs, tmp_path):
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    tables = sorted(all_outputs.glob("*.tsv"))
    assert tables
    for path in tables:
        preamble = [line[2:] for line in path.read_text().splitlines()
                    if line.startswith("# ")]
        echoed = [line for line in preamble if line.partition(" = ")[0] in fields]
        cfg = tmp_path / f"{path.stem}.cfg"
        cfg.write_text("\n".join(echoed) + "\n")
        mapping = read_config(cfg)
        assert "lambdas" in mapping, path.name
        experiment = mapping["experiment"]
        # `all` at default config runs each experiment at its defaults
        assert config_from_mapping(experiment, mapping) == ExperimentConfig(experiment)


def test_emit_table_empty_rows(tmp_path):
    table = Table(name="empty", columns=("a", "b"), rows=[])
    path = tmp_path / "empty.tsv"
    emit_table(path, table, {})
    lines = path.read_text().splitlines()
    assert lines == ["# table = empty", "a\tb"]
