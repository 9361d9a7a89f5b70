"""Newton-Wigner representation of one-particle states.

A phase point (phi, pi) maps to one complex field

    psi = (1/sqrt(2)) (R^{1/4} phi + i R^{-1/4} pi),

equivalently psi = sum_k alpha_k f_k. The map intertwines the complex
structure J with multiplication by i, turns the inner product into the plain
discrete L^2 product, and turns time evolution into the one-particle
Schrodinger flow exp(-i R^{1/2} t). Position language (expectation values,
localization widths, spreading speed) only makes sense in this picture, and
the diagnostics here quantify how far it can be trusted: the NW delta has a
Compton-scale field profile, the non-relativistic limit holds for slow wide
packets, and compactly supported psi leak outside the light cone.

Like phase points (see ``modes``), a block of k wavefunctions is a (sites x k)
psi, one wavefunction per column: to_nw, from_nw and evolve_nw map it column
by column, and nw_norm returns one norm per column.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .modes import (
    ModeVector,
    PhaseVector,
    _column_sum,
    _columns,
    from_modes,
    gaussian_bump,
    to_modes,
)
from .particle import KAPPA, phi2_diff
from .spectral import (
    DecayFit,
    Lattice,
    Spectrum,
    bin_by_distance,
    fit_decay_length,
)

NW_DELTA_WINDOW_COMPTON = (3.0, 20.0)
LIGHT_SPEED = 1.0
SUPPORT_THRESHOLD = 1e-12


@dataclasses.dataclass(frozen=True)
class NWWavefunction:
    """Complex wavefunction on lattice sites, or a (sites x k) block of them."""

    spectrum: Spectrum
    psi: np.ndarray

    def __post_init__(self):
        psi = _columns(self.psi, complex, self.spectrum.lattice.shape)
        if psi.shape[0] != self.spectrum.lattice.nsites:
            raise ValueError(
                f"{psi.shape[0]} entries for {self.spectrum.lattice.nsites} sites"
            )
        if not np.all(np.isfinite(psi)):
            raise ValueError("wavefunction entries must be finite")
        object.__setattr__(self, "psi", psi)

    @property
    def lattice(self) -> Lattice:
        return self.spectrum.lattice


def nw_norm(nw: NWWavefunction) -> float | np.ndarray:
    """Discrete L2 norm, sqrt(sum |psi|^2 cell)."""
    return np.sqrt(_column_sum(np.abs(nw.psi) ** 2) * nw.lattice.cell)


def to_nw(u: PhaseVector, spec: Spectrum) -> NWWavefunction:
    """psi = sum_k alpha_k f_k; complex-linear with respect to J."""
    return nw_from_modes(to_modes(u, spec))


def from_nw(nw: NWWavefunction) -> PhaseVector:
    """Inverse transform via the mode amplitudes alpha_k = <f_k, psi>."""
    alpha = nw.spectrum.project(nw.psi)
    return from_modes(ModeVector(spectrum=nw.spectrum, alpha=alpha))


def nw_from_modes(modes: ModeVector) -> NWWavefunction:
    return NWWavefunction(
        spectrum=modes.spectrum, psi=modes.spectrum.synthesize(modes.alpha)
    )


def evolve_nw(nw: NWWavefunction, t: float) -> NWWavefunction:
    """Exact Schrodinger evolution exp(-i R^{1/2} t) in the mode basis."""
    spec = nw.spectrum
    psi = spec.apply_function(lambda lam: np.exp(-1j * np.sqrt(lam) * t), nw.psi)
    return NWWavefunction(spectrum=spec, psi=psi)


def gaussian_packet(
    spec: Spectrum,
    center: int,
    width: float,
    cutoff: float | None = None,
) -> NWWavefunction:
    """Normalized real Gaussian wave packet, optionally truncated.

    With ``cutoff`` the envelope is zeroed beyond that radius (hard
    truncation, used by the causality check).
    """
    envelope = gaussian_bump(spec.lattice, center, width, cutoff).phi
    nw = NWWavefunction(spectrum=spec, psi=envelope)
    return NWWavefunction(spectrum=spec, psi=nw.psi / nw_norm(nw))


# ---------------------------------------------------------------------------
# localization of the NW delta
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class NWDeltaReport:
    """Field-space footprint of a one-site NW wavefunction."""

    distances: np.ndarray
    values: np.ndarray
    closed_form_dev: float
    amplitude_fit: DecayFit


def nw_delta_localization(
    spec: Spectrum,
    site: int,
    compton: float,
) -> NWDeltaReport:
    """Profile of phi2_diff for psi concentrated on a single site.

    The profile admits a closed form: for the unit-norm delta it equals
    2 kappa cell [R^{-1/4} kernel column at the site]^2, checked here against
    the full pipeline (from_nw, phi2_diff). The width is the decay length of
    the profile's amplitude (its square root), fitted over
    NW_DELTA_WINDOW_COMPTON (in units of ``compton``); the nw experiment
    gates it against ``compton``.
    """
    lattice = spec.lattice
    psi = np.zeros(lattice.nsites, dtype=complex)
    psi[site] = 1.0 / math.sqrt(lattice.cell)
    nw = NWWavefunction(spectrum=spec, psi=psi)
    measured = phi2_diff(from_nw(nw), spec)

    column = spec.kernel_column(lambda lam: lam**-0.25, site)
    closed = 2.0 * KAPPA * lattice.cell * column**2
    dev = float(np.abs(measured - closed).max())

    dists = lattice.distances_from(site)
    d_out, v_out = bin_by_distance(dists, measured)
    lo, hi = NW_DELTA_WINDOW_COMPTON
    window_abs = (lo * compton, hi * compton)
    fit = fit_decay_length(d_out, np.sqrt(v_out), window_abs)
    return NWDeltaReport(
        distances=d_out, values=v_out, closed_form_dev=dev, amplitude_fit=fit
    )


# ---------------------------------------------------------------------------
# dynamical regimes
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class NonrelReport:
    """Distance between the exact flow and the non-relativistic surrogate.

    The surrogate phases are exp(-i (m + (lambda_k - m^2)/(2m)) t); they only
    approximate sqrt(lambda_k) when the state's spectral weight sits well
    below the mass scale (|k| < m/5), so the report carries that
    low-frequency weight fraction beside the distance.
    """

    l2_distance: float
    low_k_weight: float


def nonrelativistic_compare(nw: NWWavefunction, mass: float, t: float) -> NonrelReport:
    spec = nw.spectrum
    if mass <= 0:
        raise ValueError("mass must be positive")
    norm = nw_norm(nw)
    if norm == 0.0:
        raise ValueError("zero wavefunction")
    alpha = spec.project(nw.psi / norm)
    ksq = spec.eigenvalues - mass**2
    weight = np.abs(alpha) ** 2
    low = float(weight[ksq < (mass / 5.0) ** 2].sum() / weight.sum())
    exact = alpha * np.exp(-1j * spec.frequencies * t)
    surrogate = alpha * np.exp(-1j * (mass + ksq / (2.0 * mass)) * t)
    # Parseval: the L2 distance of the fields equals the amplitude distance
    return NonrelReport(
        l2_distance=float(np.linalg.norm(exact - surrogate)), low_k_weight=low
    )


@dataclasses.dataclass(frozen=True)
class LeakageReport:
    """Norm fraction beyond the light cone after evolving a truncated packet."""

    leakage: float
    norm_drift: float


def superluminal_leakage(
    nw: NWWavefunction,
    center: int,
    radius: float,
    t: float,
) -> LeakageReport:
    """Evolve a compactly supported psi and weigh what escapes the cone.

    The initial wavefunction must vanish (below SUPPORT_THRESHOLD of its peak)
    outside the given ball; after time t the weight at distances greater
    than radius + c t is reported. Any strictly positive value demonstrates
    that the NW flow is not causal.
    """
    lattice = nw.spectrum.lattice
    d = lattice.distances_from(center)
    amp = np.abs(nw.psi)
    outside_initial = amp > SUPPORT_THRESHOLD * amp.max()
    if np.any(outside_initial & (d > radius)):
        worst = float(d[outside_initial].max())
        raise ValueError(
            f"initial support reaches distance {worst}, beyond radius {radius}"
        )
    evolved = evolve_nw(nw, t)
    horizon = radius + LIGHT_SPEED * t
    weight = np.abs(evolved.psi) ** 2
    total = float(weight.sum())
    leak = float(weight[d > horizon].sum() / total)
    drift = abs(nw_norm(evolved) - nw_norm(nw))
    return LeakageReport(leakage=leak, norm_drift=drift)
