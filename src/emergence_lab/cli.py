"""Command-line runner: configure an experiment, write reports and tables.

Usage::

    emergence-lab <experiment> [--config FILE] [--out DIR] [--seed N]

where experiment is one of kernel, modes-check, geometry-check,
oracle-verify, localize, elp, nw, asymptotics, segal-check, or all. The
config file is a flat ``key = value`` text file (see serialize.read_config);
keys it may set are the ExperimentConfig fields, and each value is parsed
and validated by its field's type (experiments.config_from_mapping). --seed
overrides the file. No key sets a gate: every check's bounds are constants
of the experiment.

Outputs land in the --out directory: ``report.<experiment>.json`` with the
per-check records, and one ``<table>.tsv`` per data table, each with a ``#``
metadata preamble. A check record holds the number its gate judged
(``measured``, null when not finite, so that reports are strict JSON), the
gate's inclusive ``lower`` and ``upper`` bounds (null when a side is open)
and ``pass``, which is lower <= measured <= upper and false for a NaN
measurement. Timing is printed to stdout only, so identical configs produce
byte-identical files.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
config error (including a malformed, non-finite or out-of-range config
value, and an --out directory that cannot be created or written), 3 numeric
failure (axiom violation, non-convergent quadrature, linear-algebra
breakdown, arithmetic overflow or division by zero). Every
output is written before anything is printed, so a stdout closed early by
its reader keeps the run's verdict code and all files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
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
    # the common cell first: a Python float is its repr
    if type(value) is float:
        return repr(value)
    # numpy scalars are written as the Python values they hold: numpy 2's
    # repr of np.float64 would add the "np.float64(...)" wrapper
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def emit_table(path: Path, table: Table, meta: dict) -> None:
    """Write one TSV table with a metadata preamble.

    The preamble lines start with ``#`` and echo the run parameters (sorted
    keys) so a table is interpretable on its own; a tuple value is written
    space-separated, as a config file spells it. Empty tables still get
    their header row. Output is deterministic for fixed inputs.
    """
    lines = [f"# table = {table.name}"]
    for key in sorted(meta):
        value = meta[key]
        items = value if isinstance(value, tuple) else (value,)
        lines.append(f"# {key} = {' '.join(_format_cell(v) for v in items)}")
    lines.append("\t".join(table.columns))
    for row in table.rows:
        lines.append("\t".join(map(_format_cell, row)))
    path.write_text("\n".join(lines) + "\n")


def report_json(report: RunReport) -> str:
    """Serialized report: sorted keys, no timing, trailing newline.

    Strict JSON: a non-finite ``measured`` is null, and any other non-finite
    value raises rather than leave a NaN token that strict parsers reject.
    """
    payload = {
        "experiment": report.experiment,
        "config": report.config,
        "seed": report.config["seed"],
        "pass": report.passed,
        "checks": [
            {
                "name": c.name,
                "measured": c.measured if math.isfinite(c.measured) else None,
                "lower": c.lower,
                "upper": c.upper,
                "pass": c.passed,
            }
            for c in report.checks
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _write_outputs(out_dir: Path, report: RunReport, tables: list[Table]) -> list[Path]:
    paths = []
    report_path = out_dir / f"report.{report.experiment}.json"
    report_path.write_text(report_json(report))
    paths.append(report_path)
    meta = dict(report.config)
    meta["kappa"] = KAPPA
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
                f"lower={check.lower!r} upper={check.upper!r}"
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
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.experiment == "all":
            aggregate, runs = run_all(config)
            runs = runs + [(aggregate, [])]
        else:
            runs = [run_experiment(config)]
        # every output is written before the first line is printed, so a
        # reader that closes stdout early (``| head -1``) costs lines only
        written = [
            path for report, tables in runs
            for path in _write_outputs(out_dir, report, tables)
        ]
    except OSError as exc:
        # the only files the run touches are its --out directory's
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError, NotImplementedError,
            np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    # the last report is the run's verdict: the aggregate of ``all``
    verdict = EXIT_PASS if runs[-1][0].passed else EXIT_CHECK_FAILURE
    try:
        for report, _ in runs:
            _print_report(report)
        for path in written:
            print(f"wrote {path}")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; Python flushes stdout at exit, and the
        # unwritten rest would raise again there and exit 120
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return verdict


if __name__ == "__main__":
    sys.exit(main())
