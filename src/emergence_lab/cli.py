"""Command-line runner: configure an experiment, write reports and tables.

Usage::

    emergence-lab <experiment> [--config FILE] [--out DIR] [--seed N]

where experiment is one of kernel, modes-check, geometry-check,
oracle-verify, localize, elp, nw, asymptotics, segal-check, or all. The
config file is a flat ``key = value`` text file (see serialize.read_config);
keys it may set are the ExperimentConfig fields, and each value is parsed
and validated by its field's type (experiments.config_from_mapping). --seed
overrides the file.

Outputs land in the --out directory: ``report.<experiment>.json`` with the
per-check records, and one ``<table>.tsv`` per data table, each with a ``#``
metadata preamble. Timing is printed to stdout only, so identical configs
produce byte-identical files.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
config error (including a malformed or out-of-range config value), 3 numeric
failure (axiom violation, non-convergent quadrature, linear-algebra
breakdown).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .experiments import (
    EXPERIMENT_NAMES,
    ConfigError,
    RunReport,
    Table,
    config_from_mapping,
    run_all,
    run_experiment,
)
from .particle import KAPPA
from .serialize import read_config

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_table(path: Path, table: Table, meta: dict) -> None:
    """Write one TSV table with a metadata preamble.

    The preamble lines start with ``#`` and echo the run parameters (sorted
    keys) so a table is interpretable on its own. Empty tables still get
    their header row. Output is deterministic for fixed inputs.
    """
    lines = [f"# table = {table.name}"]
    for key in sorted(meta):
        lines.append(f"# {key} = {_format_cell(meta[key])}")
    lines.append("\t".join(table.columns))
    for row in table.rows:
        lines.append("\t".join(_format_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def report_json(report: RunReport) -> str:
    """Serialized report: sorted keys, no timing, trailing newline."""
    payload = {
        "experiment": report.experiment,
        "config": {k: list(v) if isinstance(v, tuple) else v
                   for k, v in report.config.items()},
        "seed": report.seed,
        "pass": report.passed,
        "checks": [
            {
                "name": c.name,
                "measured": c.measured,
                "expected": c.expected,
                "tolerance": c.tolerance,
                "pass": c.passed,
            }
            for c in report.checks
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _write_outputs(out_dir: Path, report: RunReport, tables: list[Table]) -> list[Path]:
    paths = []
    report_path = out_dir / f"report.{report.experiment}.json"
    report_path.write_text(report_json(report))
    paths.append(report_path)
    meta = dict(report.config)
    meta["kappa"] = KAPPA
    meta["seed"] = report.seed
    for table in tables:
        table_path = out_dir / f"{table.name}.tsv"
        emit_table(table_path, table, meta)
        paths.append(table_path)
    return paths


def _print_report(report: RunReport) -> None:
    verdict = "PASS" if report.passed else "FAIL"
    n_bad = sum(1 for c in report.checks if not c.passed)
    print(
        f"{report.experiment}: {verdict} "
        f"({len(report.checks)} checks, {n_bad} failed, "
        f"{report.elapsed_seconds:.2f} s)"
    )
    for check in report.checks:
        if not check.passed:
            print(
                f"  FAIL {check.name}: measured={check.measured!r} "
                f"expected={check.expected!r} tolerance={check.tolerance!r}"
            )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emergence-lab",
        description="run lattice field experiments and verification batteries",
    )
    parser.add_argument(
        "experiment",
        choices=EXPERIMENT_NAMES + ("all",),
        help="experiment family to run",
    )
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, help="override the config seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        mapping = read_config(args.config) if args.config else {}
        config = config_from_mapping(args.experiment, mapping)
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.experiment == "all":
            aggregate, results = run_all(config)
            written = []
            for report, tables in results:
                _print_report(report)
                written.extend(_write_outputs(out_dir, report, tables))
            _print_report(aggregate)
            written.extend(_write_outputs(out_dir, aggregate, []))
            passed = aggregate.passed
        else:
            report, tables = run_experiment(config)
            _print_report(report)
            written = _write_outputs(out_dir, report, tables)
            passed = report.passed
    except (ValueError, RuntimeError, NotImplementedError,
            np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    for path in written:
        print(f"wrote {path}")
    return EXIT_PASS if passed else EXIT_CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
