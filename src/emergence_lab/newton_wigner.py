"""Newton-Wigner representation of one-particle states.

A phase point (phi, pi) maps to one complex field

    psi = (1/sqrt(2)) (R^{1/4} phi + i R^{-1/4} pi),

equivalently psi = sum_k alpha_k f_k. The map intertwines the complex
structure J with multiplication by i, turns the inner product into the plain
discrete L^2 product, and turns time evolution into the one-particle
Schrodinger flow exp(-i R^{1/2} t). Position language (expectation values,
localization widths, spreading speed) only makes sense in this picture, and
the two diagnostics here quantify how far it can be trusted: the
non-relativistic limit holds for slow wide packets, and compactly supported
psi leak outside the light cone. Each returns its numbers as a plain tuple,
named in order in its docstring, for the nw experiment to judge. That
experiment also measures the NW delta's Compton-scale field profile, where
the map meets particle's probes; this module imports only modes and spectral.

Like mode amplitudes (see ``modes``), psi is a plain complex array, (sites,)
for one wavefunction, handed on with its Spectrum; it has no grid shape. A
block of k wavefunctions is a (sites x k) psi, one per column: to_nw,
from_nw and evolve_nw map it column by column, and nw_norm returns one norm
per column and refuses a psi whose length is not the site count. The two
regime diagnostics, nonrelativistic_compare and superluminal_leakage, weigh
one wavefunction and refuse a block or a zero wavefunction.
"""
from __future__ import annotations

import numpy as np

from .modes import PhaseVector, _column_sum, from_modes, gaussian_bump, to_modes
from .spectral import Spectrum

LIGHT_SPEED = 1.0
SUPPORT_THRESHOLD = 1e-12


def nw_norm(psi: np.ndarray, spec: Spectrum) -> float | np.ndarray:
    """Discrete L2 norm, sqrt(sum |psi|^2 cell)."""
    if len(psi) != spec.lattice.nsites:
        raise ValueError(f"psi has {len(psi)} values for {spec.lattice.nsites} sites")
    return np.sqrt(_column_sum(np.abs(psi) ** 2) * spec.lattice.cell)


def to_nw(u: PhaseVector, spec: Spectrum) -> np.ndarray:
    """psi = sum_k alpha_k f_k; complex-linear with respect to J."""
    return spec.synthesize(to_modes(u, spec))


def from_nw(psi: np.ndarray, spec: Spectrum) -> PhaseVector:
    """Inverse transform via the mode amplitudes alpha_k = <f_k, psi>."""
    return from_modes(spec.project(psi), spec)


def evolve_nw(psi: np.ndarray, spec: Spectrum, t: float) -> np.ndarray:
    """Exact Schrodinger evolution exp(-i R^{1/2} t) in the mode basis."""
    return spec.apply_function(lambda lam: np.exp(-1j * np.sqrt(lam) * t), psi)


def gaussian_packet(
    spec: Spectrum,
    center: int,
    width: float,
    cutoff: float | None = None,
) -> np.ndarray:
    """Normalized Gaussian wave packet, optionally truncated.

    With ``cutoff`` the envelope is zeroed beyond that radius (hard
    truncation, used by the causality check). The envelope is real, but the
    packet is complex, so that its transforms take the route of any other
    wavefunction's.
    """
    psi = gaussian_bump(spec.lattice, center, width, cutoff).phi.astype(complex)
    return psi / nw_norm(psi, spec)


# ---------------------------------------------------------------------------
# dynamical regimes
# ---------------------------------------------------------------------------

def _one_wavefunction(psi: np.ndarray, diagnostic: str) -> None:
    """Refuse a (sites x k) block where only one wavefunction makes sense."""
    if psi.ndim != 1:
        raise ValueError(
            f"{diagnostic} takes one wavefunction, not a block of shape {psi.shape}"
        )


def nonrelativistic_compare(
    psi: np.ndarray, spec: Spectrum, mass: float, t: float
) -> tuple[float, float]:
    """Distance between the exact flow and the non-relativistic surrogate.

    Returns (l2_distance, low_k_weight). The surrogate phases are
    exp(-i (m + (lambda_k - m^2)/(2m)) t); they only approximate
    sqrt(lambda_k) when the state's spectral weight sits well below the
    mass scale (|k| < m/5), so the low-frequency weight fraction comes
    beside the distance.
    """
    _one_wavefunction(psi, "nonrelativistic_compare")
    if mass <= 0:
        raise ValueError("mass must be positive")
    norm = nw_norm(psi, spec)
    if norm == 0.0:
        raise ValueError("zero wavefunction")
    alpha = spec.project(psi / norm)
    ksq = spec.eigenvalues - mass**2
    weight = np.abs(alpha) ** 2
    low = float(weight[ksq < (mass / 5.0) ** 2].sum() / weight.sum())
    exact = alpha * np.exp(-1j * spec.frequencies * t)
    surrogate = alpha * np.exp(-1j * (mass + ksq / (2.0 * mass)) * t)
    # Parseval: the L2 distance of the fields equals the amplitude distance
    return float(np.linalg.norm(exact - surrogate)), low


def superluminal_leakage(
    psi: np.ndarray,
    spec: Spectrum,
    center: int,
    radius: float,
    t: float,
) -> tuple[float, float]:
    """Evolve a compactly supported psi and weigh what escapes the cone.

    The initial wavefunction must vanish (below SUPPORT_THRESHOLD of its
    peak) outside the given ball. Returns (leakage, norm_drift): the norm
    fraction at distances greater than radius + c t after time t, and how
    far the evolution moved the norm. Any strictly positive leakage
    demonstrates that the NW flow is not causal.
    """
    _one_wavefunction(psi, "superluminal_leakage")
    d = spec.lattice.distances_from(center)
    amp = np.abs(psi)
    if not amp.any():
        raise ValueError("zero wavefunction")
    support = amp > SUPPORT_THRESHOLD * amp.max()
    if np.any(support & (d > radius)):
        worst = float(d[support].max())
        raise ValueError(
            f"initial support reaches distance {worst}, beyond radius {radius}"
        )
    evolved = evolve_nw(psi, spec, t)
    horizon = radius + LIGHT_SPEED * t
    weight = np.abs(evolved) ** 2
    total = float(weight.sum())
    leak = float(weight[d > horizon].sum() / total)
    drift = abs(nw_norm(evolved, spec) - nw_norm(psi, spec))
    return leak, drift
