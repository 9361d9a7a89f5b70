"""Check records: one number against constant bounds, and what each records."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from emergence_lab import experiments, fock_oracle
from emergence_lab.experiments import (
    BUMP_CUTOFF_WIDTHS,
    FIT_RMS_MAX,
    FIT_RMS_UPPER,
    LEAKAGE_LOWER,
    LOCALIZATION_GATE,
    SUPPORT_UPPER,
    CheckRecord,
    ExperimentConfig,
    _axis_rises,
    run_experiment,
)
from emergence_lab.modes import PhaseVector, gaussian_bump
from emergence_lab.newton_wigner import from_nw
from emergence_lab.particle import (
    PROBES,
    SUPPORT_FRACTION_MAX,
    localization_report,
    probe_excesses,
)
from emergence_lab.spectral import (
    Lattice,
    Spectrum,
    bin_by_distance,
    build_klein_gordon,
    diagonalize,
)


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
    assert record.passed is bool(report.fits) is (nsup / 16 < SUPPORT_FRACTION_MAX)


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


# the lattice kernel falls along every lattice axis through its source, but
# not with Euclidean distance: at 16 x 16, 7 of its distance bins in the
# band hold a larger value than the bin before
@pytest.mark.parametrize(
    "shape,count", [((), 0), ((2, 40), 0), ((16, 16), 0)]
)
def test_profile_decreasing_counts_the_steps_that_rise(shape, count):
    record = _records("kernel", shape=shape)["profile_decreasing"]
    assert (record.measured, record.lower, record.upper) == (count, None, 0.0)
    assert record.passed is (count == 0)


def test_profile_decreasing_holds_on_a_3d_lattice_at_spacing_0_7():
    record = _records("kernel", shape=(12, 12, 12), spacing=0.7)["profile_decreasing"]
    assert (record.measured, record.passed) == (0.0, True)


def test_one_rising_axis_step_counts_one():
    lattice = Lattice((16, 16))
    source = 8 * 16 + 3  # site (8, 3)
    column = np.exp(-lattice.distances_from(source))
    assert _axis_rises(lattice, column, source, (3.0, 30.0)) == 0
    # the site 5 steps along axis 1 rises above the one 4 steps out, and
    # still falls to the one 6 steps out
    column[8 * 16 + 8] = 1.5 * column[8 * 16 + 7]
    assert _axis_rises(lattice, column, source, (3.0, 30.0)) == 1
    # a rise inside the source's first 3 steps lies outside the band
    column[8 * 16 + 5] = 2.0
    assert _axis_rises(lattice, column, source, (3.0, 30.0)) == 1


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


@pytest.fixture(scope="module")
def nw1024():
    return _records("nw", shape=(1024,))


def test_delta_profile_matches_closed_form(nw1024):
    # the unit-norm delta's phi2 footprint through probe_excesses of from_nw
    # against 2 kappa cell [R^{-1/4} kernel column]^2
    assert nw1024["delta_profile_closed_form"].measured <= 1e-12


def test_delta_width_near_compton(nw1024):
    width = nw1024["delta_width_near_compton"].measured
    assert width > 0
    assert nw1024["delta_width_fit_rms"].measured < FIT_RMS_MAX
    # frozen: the amplitude decay length comes out just under one Compton
    assert width == pytest.approx(0.96407, rel=1e-3)
    assert abs(width - 1.0) <= 0.25


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


# At 512 sites a block holds 20 trials. geometry-check's 20 trials are one
# block of 10 applies (J u, J v, J J u, and 4 in the right-hand side) and 4
# projections (to_modes of u and v); nw's 10 are one block of 7 projections
# (to_modes of u, of J u and of the evolved u, and from_nw), plus one each
# for the NW delta and the non-relativistic comparison. nw's 7 applies are 3
# for the block (two powers of R in J u, and the NW evolution), 1 for the
# leakage, and 3 for the NW delta: the two smearings of its probe row, whose
# phi2 column it reads, and its closed-form kernel column, which is f(R) on
# a unit vector. segal-check's 100 pairs are 5 blocks of 4 applies and 4
# projections, plus 12 projections for time_invariance.
@pytest.mark.parametrize(
    "experiment, expected",
    [
        ("geometry-check", {"apply_function": 10, "project": 4, "synthesize": 0}),
        ("nw", {"apply_function": 7, "project": 9, "synthesize": 9}),
        ("segal-check", {"apply_function": 20, "project": 32, "synthesize": 4}),
    ],
)
def test_each_trial_transforms_its_fields_once(monkeypatch, experiment, expected):
    counts = dict.fromkeys(expected, 0)
    for name in expected:
        method = getattr(Spectrum, name)

        def counted(self, *args, _method=method, _name=name):
            counts[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(Spectrum, name, counted)
    report, _ = run_experiment(ExperimentConfig(experiment, shape=(512,)))
    assert report.passed
    assert counts == expected


def _count_calls(monkeypatch, owner, name, counts):
    method = getattr(owner, name)

    def counted(*args):
        counts[name] = counts.get(name, 0) + 1
        return method(*args)

    monkeypatch.setattr(owner, name, counted)


def test_localization_report_applies_each_power_once(monkeypatch):
    # R^{1/2} phi and R^{-1/2} pi, shared by the three probes
    spec = diagonalize(build_klein_gordon(1.0, Lattice((512,))))
    counts = {}
    _count_calls(monkeypatch, Spectrum, "apply_function", counts)
    bump = gaussian_bump(spec.lattice, 256, 5.0, cutoff=20.0)
    report = localization_report(bump, spec, 1.0)
    assert len(report.fits) == 3
    assert counts == {"apply_function": 2}


def test_oracle_verify_forms_each_mode_table_and_square_once(monkeypatch):
    # 7 synthesize calls: two from_modes (phi and pi each) and one f_k(x)
    # table for each of the three spaces with field operators. The phi(x)^2,
    # pi(x)^2 and (R^{1/2} phi)(x)^2 excesses at every site are taken in one
    # call: one for kappa and one for the three probes
    counts = {}
    _count_calls(monkeypatch, Spectrum, "synthesize", counts)
    _count_calls(monkeypatch, fock_oracle, "square_excess", counts)
    report, _ = run_experiment(ExperimentConfig("oracle-verify"))
    assert report.passed
    assert counts == {"synthesize": 7, "square_excess": 2}


def test_oracle_verify_forms_each_kernel_column_once(monkeypatch):
    # 6 apply_function calls: R^{-1/2} pi for kappa, R^{1/2} phi and
    # R^{-1/2} pi for the three probes, and one R^{-1/2} column per source
    # site of the 3-site two-point check
    counts = {}
    _count_calls(monkeypatch, Spectrum, "apply_function", counts)
    report, _ = run_experiment(ExperimentConfig("oracle-verify"))
    assert report.passed
    assert counts == {"apply_function": 6}


@pytest.mark.parametrize("shape,calls", [((512,), 1), ((12, 12, 12), 2)], ids=["1d", "3d"])
def test_kernel_diagonalizes_a_separate_chain_only_off_1d(monkeypatch, shape, calls):
    # the R^{-1} closed form is taken on a chain along the first axis; a 1-D
    # lattice is that chain, so its kernel spectrum is reused
    counts = {}
    _count_calls(monkeypatch, experiments, "diagonalize", counts)
    report, _ = run_experiment(ExperimentConfig("kernel", shape=shape))
    assert report.passed
    assert counts == {"diagonalize": calls}


def test_oracle_deviations_rows_hold_python_floats():
    _, (table,) = run_experiment(ExperimentConfig("oracle-verify"))
    assert [row[0] for row in table.rows] == [
        "phi2", "pi2", "energy", "two_point", "displacement", "small_state_exponent",
    ]
    assert all(type(cell) is float for row in table.rows for cell in row[1:])


# The three profile tables are built from arrays in one call; each cell must
# hold the Python float that float() of its array element gives, and the
# kernel's log column the one scalar np.log gives.
@pytest.mark.parametrize("shape", [(512,), (2048,), (12, 12, 12)])
def test_profile_tables_hold_the_per_cell_floats(shape):
    config = ExperimentConfig("kernel", shape=shape)
    spec = diagonalize(build_klein_gordon(config.mass, Lattice(shape, config.spacing)))
    source = spec.lattice.nsites // 2
    compton = 1.0 / config.mass
    column = spec.kernel_column(lambda lam: lam**-0.5, source)
    distances, values = bin_by_distance(spec.lattice.distances_from(source), column)
    kernel = tuple(
        (float(d), float(v), float(np.log(v))) for d, v in zip(distances, values) if v > 0
    )
    width = config.width_compton * compton
    bump = gaussian_bump(spec.lattice, source, width, cutoff=BUMP_CUTOFF_WIDTHS * width)
    report = localization_report(bump, spec, compton)
    localize = tuple(
        (float(d), *(float(v) for v in row)) for d, row in zip(report.distances, report.values)
    )
    delta = np.zeros(spec.lattice.nsites, dtype=complex)
    delta[source] = 1.0 / math.sqrt(spec.lattice.cell)
    phi2 = probe_excesses(from_nw(delta, spec), spec)[:, PROBES.index("phi2")]
    nw_distances, nw_values = bin_by_distance(spec.lattice.distances_from(source), phi2)
    nw = tuple((float(d), float(v)) for d, v in zip(nw_distances, nw_values))
    # at 12^3 the bump is not localizable, so its profile is empty
    assert kernel and nw and (localize or shape == (12, 12, 12))
    for experiment, want in (("kernel", kernel), ("localize", localize), ("nw", nw)):
        _, tables = run_experiment(dataclasses.replace(config, experiment=experiment))
        got = tables[0].rows
        assert all(type(cell) is float for row in got for cell in row)
        # bit for bit: repr tells -0.0 from 0.0 and compares nan to nan
        assert repr(got) == repr(want), experiment


def test_elp_draws_no_trials_when_an_input_fails():
    # on a 40 x 2 lattice both inputs' supports cover most of the sites, so
    # neither is localizable and the trials are never drawn
    report, (table,) = run_experiment(ExperimentConfig("elp", shape=(40, 2)))
    records = {c.name: c for c in report.checks}
    assert records["inputs_localized_in_region"].measured == 2
    assert records["trials_passed"].measured == 0
    assert table.rows == ()
