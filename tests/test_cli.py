"""Tests for the command-line runner: exit codes, outputs, determinism."""

from __future__ import annotations

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
from emergence_lab.experiments import EXPERIMENT_NAMES, Table


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
