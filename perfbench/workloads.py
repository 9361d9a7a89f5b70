"""The four benchmark workloads and their per-pass correctness checks.

A workload is built from the benchmark seed, then ``run`` performs one pass
(the part that is timed) and ``check`` verifies that pass's outputs (not
timed). Each operation of a pass either succeeds, fails on a known defect
(listed in KNOWN_DEFECTS and counted as failed), or fails unexpectedly, which
makes the whole run incorrect. An exception raised by an operation counts as
that operation failing.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

# calls go through the module attributes, so that a traced run sees them
from emergence_lab import asymptotics, cli, experiments

# failures present at the seed commit; they are counted in `failed`, never
# skipped, and any failure outside this list fails the run
KNOWN_DEFECTS = {
    "large-lattice": (
        "localize at 12x12x12: Compton-length windows exceed the box, so "
        "state_localizable fails (ROADMAP item 3)"
    ),
    "continuum-sweep": (
        "branch_cut_kernel raises AsymptoticsError at lambda = -1.5 for every "
        "symbol and at lambda = -0.75 for the two-factor symbol, though "
        "direct_radial_integral converges there"
    ),
}

BATTERY_SEED_CHECKS = 43
CROSS_QUADRATURE_RTOL = 1e-4
RATE_RTOL = 0.05


@dataclasses.dataclass
class Outcome:
    """Result of checking one pass."""

    attempted: int = 0
    failed: int = 0
    unexpected: list[str] = dataclasses.field(default_factory=list)

    def record(self, label: str, ok: bool, known: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not known:
                self.unexpected.append(label)


def _experiment_outcome(outcome: Outcome, label: str, result, known: bool) -> None:
    if isinstance(result, Exception):
        outcome.record(f"{label}: raised {type(result).__name__}", False, known)
        return
    report, _tables = result
    for check in report.checks:
        outcome.record(f"{label}.{check.name}", check.passed, known)


def _run_configs(configs) -> list:
    results = []
    for config in configs:
        try:
            results.append(experiments.run_experiment(config))
        except Exception as exc:  # a raise is a failed operation, not a crash
            results.append(exc)
    return results


class Battery:
    """`emergence-lab all` at the default config, as a user runs it."""

    name = "battery"

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.argv = ["all", "--seed", str(seed)]
        self.reference: str | None = None

    def run(self):
        out_dir = tempfile.mkdtemp(dir=self.scratch)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv + ["--out", out_dir])
        return code, Path(out_dir)

    def check(self, raw) -> Outcome:
        code, out_dir = raw
        outcome = Outcome()
        summary = out_dir / "report.all.json"
        try:
            digest = hashlib.sha256()
            for path in sorted(out_dir.iterdir()):
                digest.update(path.name.encode() + b"\0" + path.read_bytes())
            report = json.loads(summary.read_text()) if summary.exists() else {"checks": []}
        finally:
            shutil.rmtree(out_dir)
        for check in report["checks"]:
            outcome.record(check["name"], check["pass"], False)
        if code != 0:
            outcome.unexpected.append(f"exit code {code}")
        if len(report["checks"]) < BATTERY_SEED_CHECKS:
            outcome.unexpected.append(f"only {len(report['checks'])} checks")
        # criterion 11: the same seed writes the same bytes on every pass
        if self.reference is None:
            self.reference = digest.hexdigest()
        elif digest.hexdigest() != self.reference:
            outcome.unexpected.append("output bytes differ from the first pass")
        return outcome


class ExperimentList:
    """A fixed list of experiments run through run_experiment each pass."""

    def __init__(self, seed: int, plan, known=frozenset()):
        self.labels = []
        self.configs = []
        for experiment, mapping in plan:
            shape = mapping["shape"]
            size = "x".join(str(n) for n in shape) if isinstance(shape, tuple) else str(shape)
            self.labels.append(f"{experiment}@{size}")
            self.configs.append(experiments.config_from_mapping(experiment, dict(mapping, seed=seed)))
        self.known = known

    def run(self):
        return _run_configs(self.configs)

    def check(self, raw) -> Outcome:
        outcome = Outcome()
        for label, result in zip(self.labels, raw):
            _experiment_outcome(outcome, label, result, label in self.known)
        return outcome


class LargeLattice(ExperimentList):
    """Dense-dominated: 2048-site 1-D and 12^3 3-D lattices."""

    name = "large-lattice"

    def __init__(self, seed: int, scratch: Path):
        cube = (12, 12, 12)
        plan = [
            ("kernel", {"shape": 2048}),
            ("localize", {"shape": 2048}),
            ("elp", {"shape": 2048}),
            ("nw", {"shape": 2048}),
            ("geometry-check", {"shape": cube}),
            ("localize", {"shape": cube}),
        ]
        super().__init__(seed, plan, known=frozenset({"localize@12x12x12"}))


class SmallStateStream(ExperimentList):
    """Tens of thousands of 64-site applies and almost no eigh.

    Each of the three experiments makes one 64-site eigh. With a 2-thread
    BLAS pool those three cost ~0.15 s or ~0 per pass, depending on what ran
    just before each; a CLI user pays the same, so pass times here can be
    bimodal (see README.md).
    """

    name = "small-state-stream"

    def __init__(self, seed: int, scratch: Path):
        plan = [
            ("segal-check", {"shape": 64, "n_pairs": 4000}),
            ("geometry-check", {"shape": 64}),
            ("modes-check", {"shape": 64}),
        ]
        super().__init__(seed, plan)


# symbol name -> (coefficients, Compton length 1/m of its lightest factor)
CONTINUUM_SYMBOLS = {
    "kg_m1": ((1.0, 1.0), 1.0),
    "kg_m0.5": ((0.25, 1.0), 2.0),
    "two_factor_4_5_1": ((4.0, 5.0, 1.0), 1.0),
}
CONTINUUM_LAMBDAS = (-0.5, -0.75, -1.0, -1.5)


def _continuum_known(symbol: str, lam: float) -> bool:
    return lam == -1.5 or (symbol == "two_factor_4_5_1" and lam == -0.75)


class ContinuumSweep:
    """Direct calls into asymptotics: both quadratures and the rate fits."""

    name = "continuum-sweep"

    def __init__(self, seed: int, scratch: Path):
        rng = np.random.default_rng(seed)
        radii = np.sort(rng.uniform(2.0, 8.0, size=3))
        self.cells = []
        self.fits = []
        for name, (coeffs, compton) in CONTINUUM_SYMBOLS.items():
            symbol = asymptotics.SymbolPolynomial(coeffs)
            for lam in CONTINUUM_LAMBDAS:
                self.fits.append((name, lam, symbol, 1.0 / compton))
                for r in radii * compton:
                    self.cells.append((name, lam, symbol, float(r)))

    def run(self):
        cells = []
        for _, lam, symbol, r in self.cells:
            values = []
            for route in (asymptotics.branch_cut_kernel, asymptotics.direct_radial_integral):
                try:
                    values.append(route(symbol, lam, r))
                except Exception as exc:  # a raise is a failed operation
                    values.append(exc)
            cells.append(values)
        fits = []
        for _, lam, symbol, _ in self.fits:
            try:
                fits.append(asymptotics.kernel_decay_rate(symbol, lam, rtol=RATE_RTOL))
            except Exception as exc:
                fits.append(exc)
        return cells, fits

    def check(self, raw) -> Outcome:
        cells, fits = raw
        outcome = Outcome()
        for (name, lam, _, r), (cut, direct) in zip(self.cells, cells):
            ok = not isinstance(cut, Exception) and not isinstance(direct, Exception)
            if ok:
                scale = max(abs(cut), abs(direct), 1e-300)
                ok = abs(cut - direct) / scale <= CROSS_QUADRATURE_RTOL
            outcome.record(f"cell {name} lambda={lam} r={r:.4f}", ok, _continuum_known(name, lam))
        for (name, lam, _, rate), fit in zip(self.fits, fits):
            ok = not isinstance(fit, Exception) and abs(fit.rate - rate) <= RATE_RTOL * rate
            outcome.record(f"rate {name} lambda={lam}", ok, _continuum_known(name, lam))
        return outcome


WORKLOADS = {
    cls.name: cls for cls in (Battery, LargeLattice, SmallStateStream, ContinuumSweep)
}
