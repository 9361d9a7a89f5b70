"""The README's config and record tables against the code they describe."""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

from emergence_lab import cli
from emergence_lab.cli import report_json
from emergence_lab.experiments import (
    ExperimentConfig,
    config_from_mapping,
    run_experiment,
)

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"


def _table(header: str) -> list[list[str]]:
    """Body cells of the README table whose first header cell is ``header``."""
    lines = README.read_text().splitlines()
    start = next(
        i for i, line in enumerate(lines)
        if line.startswith("|") and line.strip("|").split("|")[0].strip() == header
    )
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _section(heading: str) -> str:
    """Text of the README section under ``## heading``, up to the next one."""
    text = README.read_text()
    body = text.split(f"\n## {heading}\n", 1)[1]
    return body.split("\n## ", 1)[0]


def _code(cell: str) -> str | None:
    """Text of a cell written as `code`, or None for prose."""
    if cell.startswith("`") and cell.endswith("`"):
        return cell[1:-1]
    return None


def test_config_table_lists_every_field_with_its_default():
    rows = _table("key")
    fields = dataclasses.fields(ExperimentConfig)
    assert [_code(row[0]) for row in rows] == [f.name for f in fields]
    defaults = ExperimentConfig("kernel")
    for row, field in zip(rows, fields):
        text = _code(row[1])
        if text is None:
            # "(positional)" and "per experiment": no value of their own
            assert field.default in (dataclasses.MISSING, ()), field.name
        else:
            # the README default reads, as a config file would, as the default
            parsed = config_from_mapping("kernel", {field.name: text})
            assert getattr(parsed, field.name) == getattr(defaults, field.name)


def test_record_table_lists_the_written_fields():
    documented = sorted(_code(row[0]) for row in _table("field"))
    report, _ = run_experiment(ExperimentConfig("modes-check", shape=(8,)))
    written = json.loads(report_json(report))["checks"]
    assert written
    for record in written:
        # the writer sorts keys, so only the set of names is compared
        assert sorted(record) == documented


def test_exit_code_table_lists_the_runner_codes():
    codes = [int(row[0]) for row in _table("code")]
    assert codes == [cli.EXIT_PASS, cli.EXIT_CHECK_FAILURE, cli.EXIT_USAGE, cli.EXIT_NUMERIC]


def test_tests_section_names_every_test_file():
    named = set(re.findall(r"test_\w+\.py", _section("Tests")))
    assert named == {path.name for path in TESTS.glob("test_*.py")}
