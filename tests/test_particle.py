"""One-particle observables, the Fock arbitration and localization checks."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from emergence_lab import fock_oracle as fo
from emergence_lab.modes import ModeVector, PhaseVector, gaussian_bump
from emergence_lab.particle import (
    KAPPA,
    calibrate_kappa,
    distance_beyond,
    elp_check,
    energy_density_diff,
    localization_report,
    make_particle,
    particle_from_modes,
    phi2_diff,
    pi2_diff,
    region_ball,
    superpose,
    support_sites,
    vacuum_two_point,
)
from emergence_lab.spectral import Lattice, build_klein_gordon, diagonalize


@pytest.fixture(scope="module")
def spec6():
    return diagonalize(build_klein_gordon(1.0, Lattice((6,))))


@pytest.fixture(scope="module")
def spec512():
    return diagonalize(build_klein_gordon(1.0, Lattice((512,))))


def particle_on_modes(spec, assignments):
    alpha = np.zeros(spec.nmodes, dtype=complex)
    for k, a in assignments.items():
        alpha[k] = a
    return particle_from_modes(ModeVector(spectrum=spec, alpha=alpha))


# ---------------------------------------------------------------------------
# convention factor
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", [0, 3, 7])
def test_kappa_is_half_on_every_mode(mode):
    spec = diagonalize(build_klein_gordon(1.0, Lattice((8,))))
    assert calibrate_kappa(spec, mode_index=mode, n_max=14) == pytest.approx(
        KAPPA, abs=1e-12
    )


def test_kappa_constant_across_mass_and_spacing():
    spec = diagonalize(build_klein_gordon(2.5, Lattice((6,), spacing=0.5)))
    assert calibrate_kappa(spec, mode_index=1) == pytest.approx(KAPPA, abs=1e-12)


# ---------------------------------------------------------------------------
# probes against the oracle
# ---------------------------------------------------------------------------

def test_probes_match_fock_oracle_two_modes(spec6):
    direction = np.array([0.8, 0.6j])
    space = fo.build_fock(spec6, (0, 1), n_max=10)
    fock_state = fo.one_particle(space, direction)
    vac = fo.vacuum(space)
    state = particle_on_modes(spec6, {0: direction[0], 1: direction[1]})

    for name, probe, which in [
        ("phi2", phi2_diff, "phi"),
        ("pi2", pi2_diff, "pi"),
    ]:
        analytic = probe(state)
        for x in range(6):
            op = fo.field_operator(space, x, which)
            op2 = op @ op
            excess = (
                fo.expectation(fock_state, op2).real - fo.expectation(vac, op2).real
            )
            assert abs(excess - analytic[x]) < 1e-12, (name, x)


def test_energy_density_equals_pi2_pointwise(spec6):
    state = particle_on_modes(spec6, {0: 0.5, 2: 0.3j, 4: -0.2})
    assert_allclose(energy_density_diff(state), pi2_diff(state), atol=1e-15)


def test_site_sums_reduce_to_mode_sums(spec512):
    rng = np.random.default_rng(3)
    u = PhaseVector(
        spec512.lattice, rng.normal(size=512), rng.normal(size=512)
    )
    state = make_particle(u, spec512)
    alpha = state.modes.alpha
    cell = spec512.lattice.cell
    assert_allclose(
        np.sum(phi2_diff(state)) * cell,
        np.sum(np.abs(alpha) ** 2 / spec512.frequencies),
        rtol=1e-12,
    )
    assert_allclose(
        np.sum(pi2_diff(state)) * cell,
        np.sum(np.abs(alpha) ** 2 * spec512.frequencies),
        rtol=1e-12,
    )


def test_phi2_closed_form(spec6):
    # phi^2 excess is 4 kappa |sum_k alpha_k f_k / sqrt(2 w_k)|^2
    state = particle_on_modes(spec6, {1: 0.7, 3: 0.2 - 0.5j})
    alpha = state.modes.alpha
    smeared = spec6.basis @ (alpha / np.sqrt(2.0 * spec6.frequencies))
    assert_allclose(phi2_diff(state), 4.0 * KAPPA * np.abs(smeared) ** 2, atol=1e-14)


def test_vacuum_two_point_matches_oracle():
    lat = Lattice((3,))
    spec = diagonalize(build_klein_gordon(1.0, lat))
    space = fo.build_fock(spec, (0, 1, 2), n_max=6)
    vac = fo.vacuum(space)
    for x in range(3):
        for y in range(3):
            phi_x = fo.field_operator(space, x, "phi")
            phi_y = fo.field_operator(space, y, "phi")
            oracle = fo.expectation(vac, phi_x @ phi_y).real
            assert abs(oracle - vacuum_two_point(spec, x, y)) < 1e-12


def test_vacuum_two_point_symmetric(spec6):
    assert vacuum_two_point(spec6, 1, 4) == pytest.approx(
        vacuum_two_point(spec6, 4, 1), rel=1e-14
    )


# ---------------------------------------------------------------------------
# superposition
# ---------------------------------------------------------------------------

def test_superpose_is_linear_in_alpha(spec6):
    s1 = particle_on_modes(spec6, {0: 1.0})
    s2 = particle_on_modes(spec6, {1: 1.0})
    mix = superpose([s1, s2], np.array([0.6, 0.8j]))
    assert_allclose(mix.modes.alpha[:2], [0.6, 0.8j], atol=1e-15)


def test_superpose_zero_coefficient_reduces(spec6):
    s1 = particle_on_modes(spec6, {0: 0.3, 2: 0.4})
    s2 = particle_on_modes(spec6, {1: 1.0})
    mix = superpose([s1, s2], np.array([1.0, 0.0]))
    assert_allclose(mix.modes.alpha, s1.modes.alpha, atol=1e-15)


def test_superpose_requires_shared_spectrum(spec6):
    other = diagonalize(build_klein_gordon(1.0, Lattice((6,))))
    s1 = particle_on_modes(spec6, {0: 1.0})
    s2 = particle_on_modes(other, {0: 1.0})
    with pytest.raises(ValueError):
        superpose([s1, s2], np.array([1.0, 1.0]))


# ---------------------------------------------------------------------------
# support and regions
# ---------------------------------------------------------------------------

def test_support_of_truncated_bump(spec512):
    bump = gaussian_bump(spec512.lattice, 256, 5.0, cutoff=20.0)
    mask = support_sites(bump)
    assert mask.sum() == 41  # sites within distance 20 of the center
    d = spec512.lattice.distances_from(256)
    assert np.array_equal(mask, d <= 20.0)


def test_support_rejects_zero_state():
    lat = Lattice((8,))
    with pytest.raises(ValueError):
        support_sites(PhaseVector(lat, np.zeros(8), np.zeros(8)))


def test_distance_beyond_support():
    lat = Lattice((16,))
    mask = np.zeros(16, dtype=bool)
    mask[7:10] = True
    d = distance_beyond(lat, mask)
    assert np.all(d[mask] == 0.0)
    assert d[10] == 1.0
    # site 0 reaches the support at site 7 directly, or site 9 by wrapping
    assert d[0] == pytest.approx(7.0)


DISTANCE_LATTICES = [
    ((2048,), 1.0),
    ((7,), 1.0),
    ((1, 5), 1.0),
    ((2, 40), 1.0),
    ((5, 6), 1.0),
    ((12, 12, 12), 0.7),
    ((3, 4, 5), 0.9),
]


@pytest.mark.parametrize("shape, spacing", DISTANCE_LATTICES)
@pytest.mark.parametrize("kind", ["sparse", "dense", "single"])
def test_distance_beyond_bytes_match_brute_force(shape, spacing, kind):
    lat = Lattice(shape, spacing)
    rng = np.random.default_rng(lat.nsites)
    if kind == "single":
        mask = np.zeros(lat.nsites, dtype=bool)
        mask[rng.integers(lat.nsites)] = True
    else:
        mask = rng.random(lat.nsites) < (0.05 if kind == "sparse" else 0.6)
        mask[rng.integers(lat.nsites)] = True
    ref = np.full(lat.nsites, np.inf)
    for i in np.nonzero(mask)[0]:
        ref = np.minimum(ref, lat.distances_from(int(i)))
    got = distance_beyond(lat, mask)
    assert got.shape == (lat.nsites,)
    assert got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()


def test_region_ball_inclusive():
    lat = Lattice((32,))
    region = region_ball(lat, 16, 3.0)
    d = lat.distances_from(16)
    assert np.array_equal(region, d <= 3.0)


# ---------------------------------------------------------------------------
# localization verdicts
# ---------------------------------------------------------------------------

def test_truncated_bump_is_localized(spec512):
    bump = gaussian_bump(spec512.lattice, 256, 5.0, cutoff=20.0)
    report = localization_report(make_particle(bump, spec512), 1.0)
    assert report.passes
    assert report.support_size == 41
    by_name = {p.probe: p for p in report.probes}
    # phi of a phi-only compact bump vanishes identically outside the support
    assert by_name["phi2"].fit.nsamples == 0
    assert by_name["phi2"].fit.length == 0.0
    # the momentum and energy excesses decay well inside the Compton gate
    for name in ("pi2", "energy"):
        fit = by_name[name].fit
        assert fit.quality_ok
        assert fit.length < 1.2
        assert_allclose(fit.length, 0.41269, rtol=1e-3)


def test_plane_wave_reported_not_localized(spec512):
    wave = PhaseVector(
        spec512.lattice,
        np.cos(2.0 * np.pi * 3.0 * np.arange(512) / 512.0),
        np.zeros(512),
    )
    report = localization_report(make_particle(wave, spec512), 1.0)
    assert not report.passes
    assert report.status.startswith("not localized")
    assert report.support_size == 510
    assert report.probes == ()


# ---------------------------------------------------------------------------
# effective localization principle
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def elp_setup(spec512):
    lattice = spec512.lattice
    cutoff = 20.0
    states = [
        make_particle(gaussian_bump(lattice, 248, 5.0, cutoff=cutoff), spec512),
        make_particle(gaussian_bump(lattice, 264, 5.0, cutoff=cutoff), spec512),
    ]
    region = region_ball(lattice, 256, 45.0)
    return states, region


@pytest.mark.parametrize("seed", [0, 42])
def test_elp_superpositions_stay_localized(elp_setup, seed):
    states, region = elp_setup
    report = elp_check(states, region, 1.0, n_trials=10, seed=seed)
    assert report.precondition_ok
    assert report.passes
    assert len(report.trials) == 10
    assert all(t.passes for t in report.trials)


def test_elp_same_seed_same_coefficients(elp_setup):
    states, region = elp_setup
    a = elp_check(states, region, 1.0, n_trials=3, seed=5)
    b = elp_check(states, region, 1.0, n_trials=3, seed=5)
    for ta, tb in zip(a.trials, b.trials):
        assert_allclose(ta.coefficients, tb.coefficients, atol=0)


def test_elp_precondition_failure_reported(spec512, elp_setup):
    states, _ = elp_setup
    small_region = region_ball(spec512.lattice, 256, 10.0)
    report = elp_check(states, small_region, 1.0, n_trials=5, seed=0)
    assert not report.precondition_ok
    assert not report.passes
    assert report.trials == ()
    assert any("support leaves the region" in msg for msg in report.failures)
