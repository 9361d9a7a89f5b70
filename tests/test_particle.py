"""One-particle observables, the Fock arbitration and localization checks."""

import dataclasses
import types

import numpy as np
import pytest
from numpy.testing import assert_allclose

from emergence_lab import fock_oracle as fo
from emergence_lab.experiments import (
    FIT_RMS_MAX,
    _calibrate_kappa,
    _judge_in_region,
    _localization_records,
    _median,
)
from emergence_lab.geometry import apply_J
from emergence_lab.modes import PhaseVector, from_modes, gaussian_bump, to_modes
from emergence_lab.particle import (
    KAPPA,
    PROBES,
    distance_beyond,
    elp_check,
    localization_report,
    probe_excesses,
    support_sites,
    vacuum_two_point,
)
from emergence_lab.spectral import (
    Lattice,
    LatticeMismatchError,
    build_klein_gordon,
    diagonalize,
)

from dense_arbiter import hartley_table


@pytest.fixture(scope="module")
def spec6():
    return diagonalize(build_klein_gordon(1.0, Lattice((6,))))


@pytest.fixture(scope="module")
def spec512():
    return diagonalize(build_klein_gordon(1.0, Lattice((512,))))


def modes_on(spec, assignments):
    alpha = np.zeros(spec.nmodes, dtype=complex)
    for k, a in assignments.items():
        alpha[k] = a
    return alpha


# ---------------------------------------------------------------------------
# convention factor
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", [0, 3, 7])
def test_kappa_is_half_on_every_mode(mode):
    spec = diagonalize(build_klein_gordon(1.0, Lattice((8,))))
    space = fo.build_fock(spec, (mode,), n_max=14)
    assert _calibrate_kappa(space, spec, mode) == pytest.approx(KAPPA, abs=1e-12)


def test_kappa_constant_across_mass_and_spacing():
    spec = diagonalize(build_klein_gordon(2.5, Lattice((6,), spacing=0.5)))
    space = fo.build_fock(spec, (1,))
    assert _calibrate_kappa(space, spec, 1) == pytest.approx(KAPPA, abs=1e-12)


@pytest.mark.parametrize("size", [1, 2, 7, 8, 63, 64])
def test_median_is_np_median_bit_for_bit(size):
    # np.median is the arbiter; _calibrate_kappa takes its own median so that
    # a run never imports numpy.ma
    rng = np.random.default_rng(size)
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-3, 4, size)
    assert np.asarray(_median(values)).tobytes() == np.asarray(np.median(values)).tobytes()
    # repeated values; sort and np.median's partition may order -0.0 and 0.0
    # either way, so a zero median's sign may differ: + 0.0 clears it
    ties = np.round(values) + 0.0
    assert np.asarray(_median(ties)).tobytes() == np.asarray(np.median(ties)).tobytes()
    values[size // 2] = np.nan
    assert np.isnan(_median(values)) and np.isnan(np.median(values))


# ---------------------------------------------------------------------------
# probes against the oracle
# ---------------------------------------------------------------------------

def probe(name, u, spec):
    return probe_excesses(u, spec)[..., PROBES.index(name)]


def test_probes_match_fock_oracle_two_modes(spec6):
    # modes 1 and 3 have different eigenvalues, at most one of them 1, and
    # the direction is generic, so a wrong power of R in a probe shows
    direction = np.array([0.48 + 0.36j, 0.64 - 0.48j])
    space = fo.build_fock(spec6, (1, 3), n_max=10)
    fock_state = fo.one_particle(space, direction)
    u = from_modes(modes_on(spec6, {1: direction[0], 3: direction[1]}), spec6)
    analytic = probe_excesses(u, spec6)
    assert analytic.shape == (6, len(PROBES))

    phi, pi, smeared_phi = fo.square_excess(space, fock_state)
    for x in range(6):
        oracle = (phi[x], pi[x], 0.5 * pi[x] + 0.5 * smeared_phi[x])
        for name, want, got in zip(PROBES, oracle, analytic[x]):
            assert abs(want - got) < 1e-12, (name, x)


def test_energy_density_equals_pi2_pointwise(spec6):
    u = from_modes(modes_on(spec6, {0: 0.5, 2: 0.3j, 4: -0.2}), spec6)
    assert_allclose(probe("energy", u, spec6), probe("pi2", u, spec6), atol=1e-15)


def test_site_sums_reduce_to_mode_sums(spec512):
    rng = np.random.default_rng(3)
    u = PhaseVector(
        spec512.lattice, rng.normal(size=512), rng.normal(size=512)
    )
    alpha = to_modes(u, spec512)
    cell = spec512.lattice.cell
    assert_allclose(
        np.sum(probe("phi2", u, spec512)) * cell,
        np.sum(np.abs(alpha) ** 2 / spec512.frequencies),
        rtol=1e-12,
    )
    assert_allclose(
        np.sum(probe("pi2", u, spec512)) * cell,
        np.sum(np.abs(alpha) ** 2 * spec512.frequencies),
        rtol=1e-12,
    )


def test_phi2_closed_form(spec6):
    # phi^2 excess is 4 kappa |sum_k alpha_k f_k / sqrt(2 w_k)|^2
    alpha = modes_on(spec6, {1: 0.7, 3: 0.2 - 0.5j})
    table = hartley_table(spec6.lattice, spec6.hartley_modes)
    smeared = table @ (alpha / np.sqrt(2.0 * spec6.frequencies))
    assert_allclose(
        probe("phi2", from_modes(alpha, spec6), spec6), 4.0 * KAPPA * np.abs(smeared) ** 2,
        atol=1e-14,
    )


def test_vacuum_two_point_matches_oracle():
    lat = Lattice((3,))
    spec = diagonalize(build_klein_gordon(1.0, lat))
    space = fo.build_fock(spec, (0, 1, 2), n_max=6)
    phi_vac = fo.field_operators(space, fo.vacuum(space))[fo.FIELDS.index("phi")]
    for x in range(3):
        for y in range(3):
            oracle = np.vdot(phi_vac[:, x], phi_vac[:, y]).real
            assert abs(oracle - vacuum_two_point(spec, x)[y]) < 1e-12


def test_vacuum_two_point_symmetric(spec6):
    assert vacuum_two_point(spec6, 1)[4] == pytest.approx(
        vacuum_two_point(spec6, 4)[1], rel=1e-14
    )


# ---------------------------------------------------------------------------
# superposition
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("coeffs", [(0.6, 0.8j), (1.0, 0.0), (0.6 - 0.2j, -0.3 + 0.7j)])
def test_j_superposition_is_linear_in_alpha(spec6, coeffs):
    # sum_i Re(c_i) u_i + Im(c_i) J u_i has amplitudes sum_i c_i alpha_i
    a1 = modes_on(spec6, {0: 0.3, 2: 0.4})
    a2 = modes_on(spec6, {1: 1.0, 2: -0.5j})
    mix = PhaseVector(spec6.lattice, np.zeros(6), np.zeros(6))
    for c, a in zip(coeffs, (a1, a2)):
        u = from_modes(a, spec6)
        mix = mix + np.real(c) * u + np.imag(c) * apply_J(u, spec6)
    expected = coeffs[0] * a1 + coeffs[1] * a2
    assert_allclose(to_modes(mix, spec6), expected, atol=1e-15)


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


def test_support_and_report_refuse_a_block():
    # each bump alone is localized (17 of 64 sites); as one block of two they
    # would be judged as a single state of support 34, so the block is refused
    spec = diagonalize(build_klein_gordon(1.0, Lattice((64,))))
    bump = gaussian_bump(spec.lattice, 16, 2.0, cutoff=8.0)
    other = gaussian_bump(spec.lattice, 48, 2.0, cutoff=8.0)
    block = PhaseVector(
        spec.lattice, np.stack((bump.phi, other.phi), axis=1), np.zeros((64, 2))
    )
    assert support_sites(bump).sum() == 17
    with pytest.raises(ValueError, match=r"not a block of shape \(64, 2\)"):
        support_sites(block)
    with pytest.raises(ValueError, match=r"not a block of shape \(64, 2\)"):
        localization_report(block, spec, 1.0)


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


def _support_mask(lat: Lattice, kind: str) -> np.ndarray:
    reach = lat.spacing * max(lat.shape)
    if kind == "hollow":
        # an annulus (a shell in 3-D) with unmasked sites inside it
        d = lat.distances_from(lat.nsites // 2)
        mask = (d >= reach / 6) & (d <= reach / 3)
        assert not mask[lat.nsites // 2]
        return mask
    if kind == "wrapped":
        # a ball around site 0 runs across every periodic edge
        return lat.distances_from(0) <= reach / 4
    if kind == "full":
        return np.ones(lat.nsites, dtype=bool)
    rng = np.random.default_rng(lat.nsites)
    if kind == "single":
        mask = np.zeros(lat.nsites, dtype=bool)
    else:
        mask = rng.random(lat.nsites) < (0.05 if kind == "sparse" else 0.6)
    mask[rng.integers(lat.nsites)] = True
    return mask


@pytest.mark.parametrize("shape, spacing", DISTANCE_LATTICES)
@pytest.mark.parametrize("kind", ["sparse", "dense", "single", "hollow", "wrapped", "full"])
def test_distance_beyond_bytes_match_brute_force(shape, spacing, kind):
    lat = Lattice(shape, spacing)
    mask = _support_mask(lat, kind)
    ref = np.full(lat.nsites, np.inf)
    for i in np.nonzero(mask)[0]:
        ref = np.minimum(ref, lat.distances_from(int(i)))
    got = distance_beyond(lat, mask)
    assert got.shape == (lat.nsites,)
    assert got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# localization reports, judged by the experiments' records
# ---------------------------------------------------------------------------

def test_truncated_bump_is_localized(spec512):
    bump = gaussian_bump(spec512.lattice, 256, 5.0, cutoff=20.0)
    report = localization_report(bump, spec512, 1.0)
    assert all(c.passed for c in _localization_records(report, 1.0))
    assert report.support_fraction == 41 / 512
    assert len(report.fits) == report.values.shape[1] == len(PROBES)
    assert report.values.shape[0] == report.distances.size
    fits = dict(zip(PROBES, report.fits))
    # phi of a phi-only compact bump vanishes identically outside the support
    assert fits["phi2"].nsamples == 0
    assert fits["phi2"].length == 0.0
    # the momentum and energy excesses decay well inside the Compton gate
    for name in ("pi2", "energy"):
        fit = fits[name]
        assert fit.length > 0 and fit.rms_log_residual < FIT_RMS_MAX
        assert fit.length < 1.2
        assert_allclose(fit.length, 0.41269, rtol=1e-3)


def test_plane_wave_reported_not_localized(spec512):
    wave = PhaseVector(
        spec512.lattice,
        np.cos(2.0 * np.pi * 3.0 * np.arange(512) / 512.0),
        np.zeros(512),
    )
    report = localization_report(wave, spec512, 1.0)
    assert report.support_fraction == 510 / 512
    assert report.fits == ()
    assert report.distances.size == report.values.size == 0
    (record,) = _localization_records(report, 1.0)
    assert record.name == "state_localizable"
    assert not record.passed


# ---------------------------------------------------------------------------
# effective localization principle
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def elp_setup(spec512):
    lattice = spec512.lattice
    cutoff = 20.0
    states = [
        gaussian_bump(lattice, 248, 5.0, cutoff=cutoff),
        gaussian_bump(lattice, 264, 5.0, cutoff=cutoff),
    ]
    region = lattice.distances_from(256) <= 45.0
    return states, region


@pytest.mark.parametrize("seed", [0, 42])
def test_elp_superpositions_stay_localized(spec512, elp_setup, seed):
    states, region = elp_setup
    assert all(_judge_in_region(u, spec512, region, 1.0)[2] for u in states)
    trials = elp_check(states, spec512, 10, np.random.default_rng(seed))
    assert len(trials) == 10
    assert all(_judge_in_region(w, spec512, region, 1.0)[2] for w in trials)


def test_elp_same_seed_same_coefficients(spec512, elp_setup):
    states, _ = elp_setup
    a = elp_check(states, spec512, 3, np.random.default_rng(5))
    b = elp_check(states, spec512, 3, np.random.default_rng(5))
    assert len(a) == len(b) == 3
    for wa, wb in zip(a, b):
        assert wa.phi.tobytes() == wb.phi.tobytes()
        assert wa.pi.tobytes() == wb.pi.tobytes()


def test_elp_precondition_failure_reported(spec512, elp_setup):
    states, _ = elp_setup
    small_region = spec512.lattice.distances_from(256) <= 10.0
    # both inputs reach past 10 sites from the centre
    for u in states:
        in_region, _, localized = _judge_in_region(u, spec512, small_region, 1.0)
        assert not in_region and not localized
        assert np.any(support_sites(u) & ~small_region)


@pytest.mark.parametrize("shape, spacing", [((256,), 1.0), ((512,), 0.5)])
def test_elp_rejects_state_on_other_lattice(spec512, elp_setup, shape, spacing):
    states, _ = elp_setup
    stray = gaussian_bump(Lattice(shape, spacing), 128, 5.0, cutoff=20.0)
    with pytest.raises(LatticeMismatchError):
        elp_check([states[0], stray], spec512, 2, np.random.default_rng(0))


def test_elp_needs_a_state(spec512, elp_setup):
    with pytest.raises(ValueError, match="at least one state"):
        elp_check([], spec512, 2, np.random.default_rng(0))


@pytest.mark.parametrize("seed", [0, 42])
def test_elp_trials_match_mode_superposition(spec512, elp_setup, seed):
    # arbiter: each trial, formed through J, against the same complex
    # combination of mode amplitudes synthesized back to fields; the
    # coefficients are redrawn by elp_check's rule, a + i b with a and b
    # standard normal, scaled to unit norm
    states, _ = elp_setup
    trials = elp_check(states, spec512, 10, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    alphas = [to_modes(u, spec512) for u in states]
    assert len(trials) == 10
    for trial in trials:
        raw = rng.normal(size=len(states)) + 1j * rng.normal(size=len(states))
        coeffs = raw / np.linalg.norm(raw)
        alpha = sum(c * a for c, a in zip(coeffs, alphas))
        w = from_modes(alpha, spec512)
        report = localization_report(trial, spec512, 1.0)
        ref = localization_report(w, spec512, 1.0)
        assert len(report.fits) == len(ref.fits) == len(PROBES)
        assert report.values.shape == ref.values.shape == (ref.distances.size, len(PROBES))
        assert np.array_equal(report.distances, ref.distances)
        peaks = probe_excesses(w, spec512).max(axis=0)
        for name, got, want, peak in zip(PROBES, report.values.T, ref.values.T, peaks):
            assert np.abs(got - want).max() <= 1e-12 * peak, name


def test_localization_chain_reads_only_lattice_and_apply_power(spec512, elp_setup):
    states, _ = elp_setup
    applier = types.SimpleNamespace(
        lattice=spec512.lattice, apply_power=spec512.apply_power
    )
    u = states[0] + apply_J(states[1], spec512)
    np.testing.assert_equal(
        dataclasses.astuple(localization_report(u, applier, 1.0)),
        dataclasses.astuple(localization_report(u, spec512, 1.0)),
    )
    via_applier = elp_check(states, applier, 3, np.random.default_rng(7))
    via_spec = elp_check(states, spec512, 3, np.random.default_rng(7))
    np.testing.assert_equal(
        [(w.phi, w.pi) for w in via_applier], [(w.phi, w.pi) for w in via_spec]
    )
