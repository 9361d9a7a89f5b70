"""Check records: one number against constant bounds, and what each records."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from emergence_lab.experiments import (
    FIT_RMS_UPPER,
    LEAKAGE_LOWER,
    SUPPORT_UPPER,
    CheckRecord,
    ExperimentConfig,
    run_experiment,
)
from emergence_lab.modes import PhaseVector
from emergence_lab.particle import (
    LOCALIZATION_GATE,
    SUPPORT_FRACTION_MAX,
    localization_report,
)
from emergence_lab.spectral import FIT_RMS_MAX, Lattice, build_klein_gordon, diagonalize


def _records(experiment: str, **settings) -> dict[str, CheckRecord]:
    report, _ = run_experiment(ExperimentConfig(experiment, **settings))
    return {c.name: c for c in report.checks}


# ---------------------------------------------------------------------------
# the record
# ---------------------------------------------------------------------------


def test_record_bounds_are_inclusive():
    assert CheckRecord("x", 1.0, 1.0, 1.0).passed
    assert CheckRecord("x", 0.5, lower=0.0, upper=1.0).passed
    assert not CheckRecord("x", -0.1, lower=0.0, upper=1.0).passed
    assert not CheckRecord("x", 1.1, lower=0.0, upper=1.0).passed


def test_absent_bound_is_open():
    assert CheckRecord("x", 1e300).passed
    assert CheckRecord("x", 1e300, lower=0.0).passed
    assert CheckRecord("x", -1e300, upper=0.0).passed
    assert CheckRecord("x", -math.inf, upper=0.0).passed


@pytest.mark.parametrize(
    "lower,upper",
    [(None, None), (0.0, None), (None, 0.0), (-1.0, 1.0), (-math.inf, math.inf)],
)
def test_nan_fails_every_bound(lower, upper):
    assert not CheckRecord("x", float("nan"), lower, upper).passed


def test_strict_gates_are_stored_as_inclusive_bounds():
    assert SUPPORT_UPPER == np.nextafter(0.5, -np.inf)
    assert not CheckRecord("state_localizable", 0.5, upper=SUPPORT_UPPER).passed
    assert CheckRecord("state_localizable", SUPPORT_UPPER, upper=SUPPORT_UPPER).passed
    assert LEAKAGE_LOWER == np.nextafter(0.0, np.inf) == 5e-324
    assert CheckRecord("leakage_positive", 5e-324, lower=LEAKAGE_LOWER).passed
    assert not CheckRecord("leakage_positive", 0.0, lower=LEAKAGE_LOWER).passed
    assert FIT_RMS_UPPER == np.nextafter(FIT_RMS_MAX, -np.inf)
    assert not CheckRecord("fit_rms", FIT_RMS_MAX, upper=FIT_RMS_UPPER).passed


@pytest.mark.parametrize("nsup", [7, 8, 9])
def test_support_gate_passes_exactly_the_states_that_get_probes(nsup):
    # SUPPORT_UPPER is the last fraction below the cutoff localization_report
    # applies: the record fails exactly when the report fits no probe
    assert SUPPORT_UPPER == np.nextafter(SUPPORT_FRACTION_MAX, -np.inf)
    spec = diagonalize(build_klein_gordon(1.0, Lattice((16,))))
    phi = np.zeros(16)
    phi[:nsup] = 1.0
    report = localization_report(PhaseVector(spec.lattice, phi, np.zeros(16)), spec, 1.0)
    record = CheckRecord("state_localizable", report.support_fraction, upper=SUPPORT_UPPER)
    assert report.support_fraction == nsup / 16
    assert record.passed is bool(report.probes) is (nsup / 16 < SUPPORT_FRACTION_MAX)


def test_record_holds_python_floats_and_computes_its_verdict():
    record = CheckRecord("count", np.int64(3), lower=np.float64(1.0), upper=4)
    assert (record.measured, record.lower, record.upper) == (3.0, 1.0, 4.0)
    assert all(type(v) is float for v in (record.measured, record.lower, record.upper))
    assert record.passed is True
    with pytest.raises(TypeError):
        CheckRecord("x", 1.0, 0.0, 2.0, True)
    renamed = dataclasses.replace(CheckRecord("x", 3.0, upper=2.0), name="all.x")
    assert renamed.name == "all.x" and renamed.passed is False


# ---------------------------------------------------------------------------
# what the former pass/fail flags record
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "shape,count", [((), 0), ((2, 40), 1), ((16, 16), 7)]
)
def test_profile_decreasing_counts_the_steps_that_rise(shape, count):
    record = _records("kernel", shape=shape)["profile_decreasing"]
    assert (record.measured, record.lower, record.upper) == (count, None, 0.0)
    assert record.passed is (count == 0)


def test_localize_records_the_fraction_and_each_fit():
    report, _ = run_experiment(ExperimentConfig("localize"))
    names = [c.name for c in report.checks]
    # each probe's fit rms sits right after its length
    assert names == [
        "state_localizable",
        "phi2_decay_within_gate", "phi2_fit_rms",
        "pi2_decay_within_gate", "pi2_fit_rms",
        "energy_decay_within_gate", "energy_fit_rms",
    ]
    records = {c.name: c for c in report.checks}
    assert records["state_localizable"].measured == pytest.approx(0.080, abs=1e-3)
    assert records["pi2_decay_within_gate"].measured == pytest.approx(0.4127, abs=1e-4)
    assert records["pi2_decay_within_gate"].upper == LOCALIZATION_GATE
    assert records["pi2_fit_rms"].upper == FIT_RMS_UPPER
    assert all(c.passed for c in report.checks)


def test_a_nan_trial_reaches_its_record():
    # at mass 1e150 R phi is ~1e300 and its square overflows, so every
    # trial's rhs deviation is inf/inf; a running max(0.0, nan) kept 0.0
    config = ExperimentConfig("geometry-check", mass=1e150)
    with np.errstate(over="ignore", invalid="ignore"):
        report, _ = run_experiment(config)
    record = {check.name: check for check in report.checks}["rhs_matches_hamilton"]
    assert math.isnan(record.measured)
    assert not record.passed


def test_nw_records_width_precondition_and_leakage():
    records = _records("nw")
    width = records["delta_width_near_compton"]
    assert width.measured == pytest.approx(0.964, abs=1e-3)
    assert (width.lower, width.upper) == (0.75, 1.25)
    assert records["delta_width_fit_rms"].measured < FIT_RMS_MAX
    nonrel = records["nonrel_precondition"]
    assert nonrel.measured == pytest.approx(0.99999998, abs=1e-8)
    assert (nonrel.lower, nonrel.upper) == (0.999, None)
    assert records["leakage_positive"].measured == pytest.approx(5.4e-12, rel=0.01)


@pytest.mark.parametrize("sites", [512, 2048])
def test_nw_evolution_routes_agree_to_a_few_ulp(sites):
    # the Fourier multiplier exp(-i sqrt(omega^2) t) of an exactly even
    # symbol commutes with the Hartley route to a few roundoffs
    record = _records("nw", shape=(sites,))["evolution_commutes"]
    assert record.measured <= 5e-15


def test_elp_seed_8009_trial_fails_on_fit_rms_alone():
    # at 2048 sites and seed 8009 trial 3's pi2 and energy tails fit a length
    # well inside the 1.2/m gate, but with a log residual above FIT_RMS_MAX,
    # so one trial of ten fails; the diagnosis is pinned, the failure stands
    report, (table,) = run_experiment(ExperimentConfig("elp", shape=(2048,), seed=8009))
    trial = dict(zip(table.columns, table.rows[3]))
    assert trial["passes"] == 0
    for probe in ("pi2", "energy"):
        assert trial[f"{probe}_rms"] == pytest.approx(0.635, abs=1e-3)
        assert trial[f"{probe}_rms"] > FIT_RMS_MAX
        assert trial[f"{probe}_length"] == pytest.approx(0.419, abs=1e-3)
        assert trial[f"{probe}_length"] <= LOCALIZATION_GATE
    others = [dict(zip(table.columns, row)) for i, row in enumerate(table.rows) if i != 3]
    assert all(row["passes"] == 1 for row in others)
    trials = {c.name: c for c in report.checks}["trials_passed"]
    assert (trials.measured, trials.lower, trials.upper) == (9.0, 10.0, None)
    assert not trials.passed
