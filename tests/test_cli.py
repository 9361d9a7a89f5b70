"""Tests for the command-line runner: exit codes, outputs, determinism."""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emergence_lab.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_NUMERIC,
    EXIT_PASS,
    EXIT_USAGE,
    emit_table,
    main,
)
from emergence_lab.experiments import (
    EXPERIMENT_NAMES,
    ConfigError,
    Table,
    config_from_mapping,
)


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
        assert set(check) == {"name", "measured", "expected", "tolerance", "pass"}
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
    # an impossible tolerance turns a passing run into a failing one
    cfg = write_cfg(
        tmp_path, "experiment = geometry-check\nshape = 16\nform_tol = 1e-18\n"
    )
    out = tmp_path / "out"
    code = main(["geometry-check", "--config", cfg, "--out", str(out)])
    assert code == EXIT_CHECK_FAILURE
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    payload = json.loads((out / "report.geometry-check.json").read_text())
    assert payload["pass"] is False


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
    spacing=st.sampled_from([0.05, 0.3, 1.0, 3.0]),
    mass=st.sampled_from([0.05, 1.0, 4.0, 30.0]),
)
def test_any_small_config_ends_in_an_exit_code(experiment, shape, spacing, mass):
    # outside an experiment's domain of validity a run must end in a
    # documented exit code, never in a traceback
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
FLOAT_KEYS = (
    "spacing", "mass", "time", "width_compton",
    "decay_rtol", "rate_rtol", "form_tol", "drift_tol", "nonrel_tol",
)
NOT_AN_INTEGER = st.one_of(
    st.sampled_from(["true", "false", "1.5", "2.0", "64.7", "1e3", "abc"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
NOT_A_NUMBER = st.sampled_from(["true", "false", "abc", "1.0.0", "--1", "0x10"])
BAD_ENTRIES = st.one_of(
    st.tuples(st.sampled_from(INT_KEYS), NOT_AN_INTEGER),
    st.tuples(st.just("seed"), st.integers(-10**6, -1).map(str)),
    st.tuples(st.sampled_from(FLOAT_KEYS + ("lambdas",)), NOT_A_NUMBER),
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
decay_rtol = 0.2
rate_rtol = 0.1
form_tol = 1e-8
drift_tol = 1e-7
nonrel_tol = 0.02
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
        "n_trials": 3, "n_pairs": 7, "seed": 3, "decay_rtol": 0.2, "rate_rtol": 0.1,
        "form_tol": 1e-8, "drift_tol": 1e-7, "nonrel_tol": 0.02,
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
    emit_table(path, table, {"seed": 0, "mass": 1.0})
    lines = path.read_text().splitlines()
    assert lines[0] == "# table = demo"
    assert "# mass = 1.0" in lines
    assert "# seed = 0" in lines
    assert lines[-3] == "x\tflag\tv"
    assert lines[-2] == "1\ttrue\t0.5"
    assert lines[-1] == "2\tfalse\t1.5"


def test_emit_table_empty_rows(tmp_path):
    table = Table(name="empty", columns=("a", "b"), rows=[])
    path = tmp_path / "empty.tsv"
    emit_table(path, table, {})
    lines = path.read_text().splitlines()
    assert lines == ["# table = empty", "a\tb"]
