"""Mode coordinates, canonical basis checks and harmonic time evolution."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from emergence_lab.modes import (
    ModeVector,
    PhaseVector,
    check_canonical,
    evolve_modes,
    evolve_state,
    field_hamiltonian,
    from_modes,
    gaussian_bump,
    hamiltonian_energy,
    to_modes,
)
from emergence_lab.spectral import (
    Lattice,
    LatticeMismatchError,
    build_klein_gordon,
    diagonalize,
)


@pytest.fixture(scope="module")
def spec64():
    return diagonalize(build_klein_gordon(1.0, Lattice((64,))))


def random_state(lattice, seed=0):
    rng = np.random.default_rng(seed)
    return PhaseVector(
        lattice=lattice,
        phi=rng.normal(size=lattice.nsites),
        pi=rng.normal(size=lattice.nsites),
    )


# ---------------------------------------------------------------------------
# phase vectors
# ---------------------------------------------------------------------------

def test_phase_vector_validates_length():
    lat = Lattice((8,))
    with pytest.raises(ValueError):
        PhaseVector(lattice=lat, phi=np.zeros(7), pi=np.zeros(8))


def test_phase_vector_rejects_nonfinite():
    lat = Lattice((4,))
    bad = np.array([0.0, np.nan, 0.0, 0.0])
    with pytest.raises(ValueError):
        PhaseVector(lattice=lat, phi=bad, pi=np.zeros(4))


def test_phase_vector_arithmetic():
    lat = Lattice((4,))
    u = PhaseVector(lat, np.ones(4), np.zeros(4))
    v = PhaseVector(lat, np.zeros(4), np.ones(4))
    w = 2.0 * u + v - u
    assert_allclose(w.phi, np.ones(4))
    assert_allclose(w.pi, np.ones(4))
    assert w.norm() == pytest.approx(np.sqrt(8.0))


def test_phase_vector_mismatched_lattices():
    u = PhaseVector(Lattice((4,)), np.ones(4), np.zeros(4))
    v = PhaseVector(Lattice((4,), spacing=2.0), np.ones(4), np.zeros(4))
    with pytest.raises(LatticeMismatchError):
        u + v


# ---------------------------------------------------------------------------
# canonical coordinates
# ---------------------------------------------------------------------------

def test_basis_is_canonical(spec64):
    report = check_canonical(spec64)
    assert report.ok
    assert report.orthonormality_dev < 1e-12
    assert report.completeness_dev < 1e-12
    assert report.nmodes == report.nsites == 64


def test_dropped_mode_breaks_completeness(spec64):
    truncated = dataclasses.replace(spec64, dense_basis=np.delete(spec64.basis, 3, axis=1))
    report = check_canonical(truncated)
    assert not report.ok
    # a missing oscillatory mode leaves a rank-one hole of size 2/N
    assert_allclose(report.completeness_dev, 2.0 / 64.0, rtol=1e-10)


def test_mode_roundtrip(spec64):
    u = random_state(spec64.lattice, seed=1)
    back = from_modes(to_modes(u, spec64))
    assert_allclose(back.phi, u.phi, atol=1e-12)
    assert_allclose(back.pi, u.pi, atol=1e-12)


def test_alpha_encodes_q_and_p(spec64):
    u = random_state(spec64.lattice, seed=2)
    modes = to_modes(u, spec64)
    assert_allclose(modes.q, np.sqrt(2.0) * modes.alpha.real, atol=1e-14)
    assert_allclose(modes.p, np.sqrt(2.0) * modes.alpha.imag, atol=1e-14)


def test_single_mode_coordinates(spec64):
    # a pure eigenfunction with no momentum has q on its own mode only
    k = 5
    phi = spec64.basis[:, k].copy()
    u = PhaseVector(spec64.lattice, phi, np.zeros_like(phi))
    modes = to_modes(u, spec64)
    expected_q = np.zeros(64)
    expected_q[k] = spec64.frequencies[k] ** 0.5
    assert_allclose(modes.q, expected_q, atol=1e-12)
    assert_allclose(modes.p, np.zeros(64), atol=1e-12)


def test_mode_vector_length_checked(spec64):
    with pytest.raises(ValueError):
        ModeVector(spectrum=spec64, alpha=np.zeros(5, dtype=complex))


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def test_hamiltonian_matches_field_form(spec64):
    u = random_state(spec64.lattice, seed=3)
    e_modes = hamiltonian_energy(to_modes(u, spec64))
    e_field = field_hamiltonian(u, spec64.operator)
    assert_allclose(e_modes, e_field, rtol=1e-12)


def test_energy_positive(spec64):
    u = random_state(spec64.lattice, seed=4)
    assert hamiltonian_energy(to_modes(u, spec64)) > 0


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def test_evolution_phase_rotation(spec64):
    u = random_state(spec64.lattice, seed=5)
    modes = to_modes(u, spec64)
    t = 3.7
    evolved = evolve_modes(modes, t)
    assert_allclose(
        evolved.alpha, modes.alpha * np.exp(-1j * spec64.frequencies * t), atol=1e-13
    )


def test_evolution_conserves_energy(spec64):
    u = random_state(spec64.lattice, seed=6)
    e0 = hamiltonian_energy(to_modes(u, spec64))
    e1 = hamiltonian_energy(to_modes(evolve_state(u, spec64, 100.0), spec64))
    assert abs(e1 - e0) / e0 < 1e-12


def test_evolution_composes(spec64):
    u = random_state(spec64.lattice, seed=7)
    one = evolve_state(evolve_state(u, spec64, 1.3), spec64, 2.4)
    two = evolve_state(u, spec64, 3.7)
    assert_allclose(one.phi, two.phi, atol=1e-12)
    assert_allclose(one.pi, two.pi, atol=1e-12)


def test_evolution_at_zero_is_identity(spec64):
    u = random_state(spec64.lattice, seed=8)
    same = evolve_state(u, spec64, 0.0)
    assert_allclose(same.phi, u.phi, atol=1e-15)
    assert_allclose(same.pi, u.pi, atol=1e-15)


def test_single_mode_oscillates_at_its_frequency(spec64):
    k = 9
    omega = spec64.frequencies[k]
    phi0 = spec64.basis[:, k].copy()
    u = PhaseVector(spec64.lattice, phi0, np.zeros_like(phi0))
    half = evolve_state(u, spec64, np.pi / omega)
    # half a period flips the sign of phi
    assert_allclose(half.phi, -phi0, atol=1e-12)
    assert_allclose(half.pi, np.zeros(64), atol=1e-12)


# ---------------------------------------------------------------------------
# gaussian bump
# ---------------------------------------------------------------------------

def test_gaussian_bump_shape():
    lat = Lattice((64,))
    bump = gaussian_bump(lat, 32, 4.0)
    assert bump.phi[32] == pytest.approx(1.0)
    assert np.all(bump.pi == 0)
    assert bump.phi[32 + 8] == pytest.approx(np.exp(-2.0))
    # wraps: symmetric around the center
    assert_allclose(bump.phi[32 + 5], bump.phi[32 - 5], atol=1e-15)


def test_gaussian_bump_cutoff_compact_support():
    lat = Lattice((64,))
    bump = gaussian_bump(lat, 32, 4.0, cutoff=10.0)
    d = lat.distances_from(32)
    assert np.all(bump.phi[d > 10.0] == 0.0)
    assert np.all(bump.phi[d <= 10.0] > 0.0)
