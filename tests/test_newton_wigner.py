"""Tests for the single-particle wavefunction transform and its regimes."""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from emergence_lab.experiments import FIT_RMS_MAX
from emergence_lab.geometry import apply_J, segal_form
from emergence_lab.modes import evolve_state, from_modes, to_modes
from emergence_lab.newton_wigner import (
    evolve_nw,
    from_nw,
    gaussian_packet,
    nonrelativistic_compare,
    nw_norm,
    superluminal_leakage,
    to_nw,
)
from emergence_lab.spectral import Lattice, build_klein_gordon, diagonalize


@pytest.fixture(scope="module")
def spec64():
    return diagonalize(build_klein_gordon(1.0, Lattice((64,))))


@pytest.fixture(scope="module")
def spec1024():
    return diagonalize(build_klein_gordon(1.0, Lattice((1024,))))


def random_state(spec, seed):
    rng = np.random.default_rng(seed)
    from emergence_lab.modes import PhaseVector

    n = spec.lattice.nsites
    return PhaseVector(spec.lattice, rng.normal(size=n), rng.normal(size=n))


# ---------------------------------------------------------------------------
# the transform itself
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_transform_intertwines_j(spec64, seed):
    # N J u = i N u: the map turns the symplectic rotation into multiplication
    u = random_state(spec64, seed)
    lhs = to_nw(apply_J(u, spec64), spec64)
    rhs = 1j * to_nw(u, spec64)
    assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_norm_matches_segal_inner(spec64, seed):
    u = random_state(spec64, seed)
    expected = math.sqrt(segal_form(u, u, apply_J(u, spec64)).real)
    assert_allclose(nw_norm(to_nw(u, spec64), spec64), expected, rtol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_roundtrip(spec64, seed):
    u = random_state(spec64, seed)
    back = from_nw(to_nw(u, spec64), spec64)
    assert_allclose(back.phi, u.phi, atol=1e-12)
    assert_allclose(back.pi, u.pi, atol=1e-12)


def test_direct_formula(spec64):
    # psi = (R^{1/4} phi + i R^{-1/4} pi) / sqrt(2)
    u = random_state(spec64, 7)
    direct = (
        spec64.apply_power(0.25, u.phi) + 1j * spec64.apply_power(-0.25, u.pi)
    ) / math.sqrt(2.0)
    assert_allclose(to_nw(u, spec64), direct, atol=1e-12)


def test_nw_from_modes_matches_synthesis(spec64):
    rng = np.random.default_rng(3)
    alpha = rng.normal(size=64) + 1j * rng.normal(size=64)
    assert_allclose(
        spec64.synthesize(alpha), to_nw(from_modes(alpha, spec64), spec64), atol=1e-12
    )


def test_wrong_length_rejected(spec64):
    # the transforms and the norm refuse a psi of the wrong length
    psi = np.ones(65, dtype=complex)
    with pytest.raises(ValueError):
        from_nw(psi, spec64)
    with pytest.raises(ValueError):
        evolve_nw(psi, spec64, 1.0)
    with pytest.raises(ValueError, match="65 values for 64 sites"):
        nw_norm(psi, spec64)


def test_nonfinite_rejected(spec64):
    # from_nw refuses it where it becomes a field, through PhaseVector (a
    # numpy warning from the transform may come first)
    psi = np.ones(64, dtype=complex)
    psi[3] = np.nan
    with pytest.raises((ValueError, RuntimeWarning)):
        from_nw(psi, spec64)


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_evolution_commutes_with_transform(spec64, seed):
    u = random_state(spec64, seed)
    t = 17.3
    path_a = to_nw(evolve_state(u, spec64, t), spec64)
    path_b = evolve_nw(to_nw(u, spec64), spec64, t)
    assert_allclose(path_a, path_b, atol=1e-12)


def test_evolution_is_mode_phase_rotation(spec64):
    u = random_state(spec64, 11)
    t = 4.5
    alpha = to_modes(u, spec64)
    expected = spec64.synthesize(alpha * np.exp(-1j * spec64.frequencies * t))
    assert_allclose(evolve_nw(to_nw(u, spec64), spec64, t), expected, atol=1e-12)


def test_evolution_preserves_norm(spec64):
    psi = to_nw(random_state(spec64, 2), spec64)
    assert_allclose(
        nw_norm(evolve_nw(psi, spec64, 100.0), spec64), nw_norm(psi, spec64), rtol=1e-12
    )


# ---------------------------------------------------------------------------
# packets
# ---------------------------------------------------------------------------


def test_packet_is_normalized(spec64):
    packet = gaussian_packet(spec64, 32, 4.0)
    # stored complex, as every wavefunction is, though its envelope is real
    assert packet.dtype == complex
    assert_allclose(nw_norm(packet, spec64), 1.0, rtol=1e-12)


def test_packet_cutoff_gives_compact_support(spec64):
    packet = gaussian_packet(spec64, 32, 4.0, cutoff=10.0)
    d = spec64.lattice.distances_from(32)
    assert np.all(packet[d > 10.0] == 0.0)
    assert np.all(packet[d <= 10.0] != 0.0)


# ---------------------------------------------------------------------------
# non-relativistic regime
# ---------------------------------------------------------------------------


def test_nonrelativistic_limit_wide_packet(spec1024):
    packet = gaussian_packet(spec1024, 512, 20.0)
    l2_distance, low_k_weight = nonrelativistic_compare(packet, spec1024, 1.0, 10.0)
    assert low_k_weight > 0.999
    assert l2_distance < 1e-4
    # frozen against this lattice and packet
    assert l2_distance == pytest.approx(1.9865e-5, rel=1e-3)


def test_nonrelativistic_narrow_packet_is_flagged(spec1024):
    # a width-2 packet carries half its weight above the mass scale, so the
    # surrogate phases are wrong and the low-k weight must say so
    packet = gaussian_packet(spec1024, 512, 2.0)
    l2_distance, low_k_weight = nonrelativistic_compare(packet, spec1024, 1.0, 10.0)
    assert low_k_weight < 0.5
    assert l2_distance > 0.1


def test_nonrelativistic_rejects_bad_inputs(spec64):
    packet = gaussian_packet(spec64, 32, 4.0)
    with pytest.raises(ValueError, match="mass"):
        nonrelativistic_compare(packet, spec64, 0.0, 1.0)
    zero = np.zeros(64, dtype=complex)
    with pytest.raises(ValueError, match="zero"):
        nonrelativistic_compare(zero, spec64, 1.0, 1.0)


def test_group_velocity_matches_dispersion(spec1024):
    # boosted packet rides at d omega / d k = k / sqrt(k^2 + m^2)
    k0 = 0.15
    x = spec1024.lattice.site_coords()[:, 0].astype(float)
    envelope = gaussian_packet(spec1024, 512, 20.0)
    packet = envelope * np.exp(1j * k0 * x)
    t = 40.0

    def centroid(psi):
        # the packet stays far from the wrap, so a plain mean is the position
        weight = np.abs(psi) ** 2
        return float(weight @ x / weight.sum())

    measured = (centroid(evolve_nw(packet, spec1024, t)) - centroid(packet)) / t
    expected = k0 / math.sqrt(k0**2 + 1.0)
    assert abs(measured - expected) <= 0.05 * expected


# ---------------------------------------------------------------------------
# causality
# ---------------------------------------------------------------------------


def test_leakage_is_positive(spec1024):
    packet = gaussian_packet(spec1024, 512, 10.0, cutoff=40.0)
    leakage, norm_drift = superluminal_leakage(packet, spec1024, 512, 40.0, 5.0)
    assert leakage > 0.0
    assert leakage < 1e-8
    assert norm_drift < 1e-12


def test_leakage_refuses_a_zero_wavefunction(spec64):
    # 0/0 once gave a nan leakage; its sibling nonrelativistic_compare refuses
    zero = np.zeros(64, dtype=complex)
    with pytest.raises(ValueError, match="zero wavefunction"):
        superluminal_leakage(zero, spec64, 32, 8.0, 1.0)


def test_leakage_rejects_untruncated_packet(spec1024):
    packet = gaussian_packet(spec1024, 512, 10.0)
    with pytest.raises(ValueError, match="beyond radius"):
        superluminal_leakage(packet, spec1024, 512, 40.0, 5.0)


def test_regime_diagnostics_refuse_a_block(spec64):
    # both weigh one wavefunction; a block of two is refused by its shape
    packet = gaussian_packet(spec64, 32, 2.0, cutoff=8.0)
    block = np.stack((packet, packet), axis=1)
    with pytest.raises(ValueError, match=r"not a block of shape \(64, 2\)"):
        nonrelativistic_compare(block, spec64, 1.0, 1.0)
    with pytest.raises(ValueError, match=r"not a block of shape \(64, 2\)"):
        superluminal_leakage(block, spec64, 32, 8.0, 1.0)
    # the same packet alone is accepted by both
    nonrelativistic_compare(packet, spec64, 1.0, 1.0)
    superluminal_leakage(packet, spec64, 32, 8.0, 1.0)
