"""Mode coordinates for classical phase-space points.

A phase point (phi, pi) is re-expressed in the eigenbasis of R as one complex
amplitude per mode,

    alpha_k = (q_k + i p_k) / sqrt(2),
    q_k = sqrt(omega_k) <f_k, phi>,   p_k = <f_k, pi> / sqrt(omega_k),

so that the field equation becomes independent phase rotations
alpha_k(t) = alpha_k exp(-i omega_k t) and the classical energy is
sum_k omega_k |alpha_k|^2. Time evolution is exact spectral rotation; there is
no integrator anywhere in this package.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .spectral import Lattice, LatticeMismatchError, ROperator, Spectrum

CANONICAL_TOL = 1e-8


@dataclasses.dataclass(frozen=True)
class PhaseVector:
    """Classical phase-space point: real fields phi and pi on lattice sites."""

    lattice: Lattice
    phi: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float).reshape(-1)
        pi = np.asarray(self.pi, dtype=float).reshape(-1)
        n = self.lattice.nsites
        if phi.shape != (n,) or pi.shape != (n,):
            raise ValueError(
                f"fields have shapes {phi.shape}/{pi.shape} for {n} sites"
            )
        if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(pi))):
            raise ValueError("phase-space fields must be finite")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "pi", pi)

    @classmethod
    def zero(cls, lattice: Lattice) -> "PhaseVector":
        n = lattice.nsites
        return cls(lattice, np.zeros(n), np.zeros(n))

    def __add__(self, other: "PhaseVector") -> "PhaseVector":
        _check_same_lattice(self.lattice, other.lattice)
        return PhaseVector(self.lattice, self.phi + other.phi, self.pi + other.pi)

    def __sub__(self, other: "PhaseVector") -> "PhaseVector":
        _check_same_lattice(self.lattice, other.lattice)
        return PhaseVector(self.lattice, self.phi - other.phi, self.pi - other.pi)

    def __mul__(self, scalar: float) -> "PhaseVector":
        s = float(scalar)
        return PhaseVector(self.lattice, s * self.phi, s * self.pi)

    __rmul__ = __mul__

    def norm(self) -> float:
        """Plain Euclidean size of the pair of fields (diagnostic only)."""
        return math.sqrt(
            float(self.phi @ self.phi + self.pi @ self.pi) * self.lattice.cell
        )


@dataclasses.dataclass(frozen=True)
class ModeVector:
    """Complex mode amplitudes alpha_k, ordered as in the Spectrum."""

    spectrum: Spectrum
    alpha: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=complex).reshape(-1)
        if a.shape != (self.spectrum.nmodes,):
            raise ValueError(
                f"{a.shape[0]} amplitudes for {self.spectrum.nmodes} modes"
            )
        if not np.all(np.isfinite(a)):
            raise ValueError("mode amplitudes must be finite")
        object.__setattr__(self, "alpha", a)

    @property
    def q(self) -> np.ndarray:
        return math.sqrt(2.0) * self.alpha.real

    @property
    def p(self) -> np.ndarray:
        return math.sqrt(2.0) * self.alpha.imag


def _check_same_lattice(a: Lattice, b: Lattice) -> None:
    if a != b:
        raise LatticeMismatchError(f"lattices differ: {a} vs {b}")


def to_modes(state: PhaseVector, spec: Spectrum) -> ModeVector:
    """Mode amplitudes of a phase point; real-linear in (phi, pi)."""
    _check_same_lattice(state.lattice, spec.lattice)
    sqrt_w = np.sqrt(spec.frequencies)
    q = sqrt_w * spec.project(state.phi)
    p = spec.project(state.pi) / sqrt_w
    return ModeVector(spectrum=spec, alpha=(q + 1j * p) / math.sqrt(2.0))


def from_modes(modes: ModeVector) -> PhaseVector:
    """Inverse of to_modes: phi = sum q_k f_k / sqrt(omega_k), pi = sum p_k sqrt(omega_k) f_k."""
    spec = modes.spectrum
    sqrt_w = np.sqrt(spec.frequencies)
    phi = spec.synthesize(modes.q / sqrt_w)
    pi = spec.synthesize(modes.p * sqrt_w)
    return PhaseVector(lattice=spec.lattice, phi=phi, pi=pi)


def evolve_modes(modes: ModeVector, t: float) -> ModeVector:
    """Exact evolution: each amplitude rotates by exp(-i omega_k t)."""
    phase = np.exp(-1j * modes.spectrum.frequencies * t)
    return ModeVector(spectrum=modes.spectrum, alpha=modes.alpha * phase)


def evolve_state(state: PhaseVector, spec: Spectrum, t: float) -> PhaseVector:
    """Field-space evolution through the mode picture (exact)."""
    return from_modes(evolve_modes(to_modes(state, spec), t))


def hamiltonian_energy(modes: ModeVector) -> float:
    """Classical energy sum_k omega_k |alpha_k|^2."""
    return float(np.sum(modes.spectrum.frequencies * np.abs(modes.alpha) ** 2))


def field_hamiltonian(state: PhaseVector, op: ROperator) -> float:
    """Field-space energy (1/2) Int (pi^2 + phi R phi); cross-check target."""
    _check_same_lattice(state.lattice, op.lattice)
    dens = state.pi @ state.pi + state.phi @ op.apply(state.phi)
    return 0.5 * float(dens) * op.lattice.cell


@dataclasses.dataclass(frozen=True)
class CanonicalReport:
    """Orthonormality/completeness deviations of the mode basis."""

    orthonormality_dev: float
    completeness_dev: float
    nmodes: int
    nsites: int
    ok: bool


def check_canonical(spec: Spectrum) -> CanonicalReport:
    """Check the discrete relations that make (q_k, p_k) canonical.

    Orthonormality: sum_x f_j f_k cell = delta_jk. Completeness:
    sum_k f_k(x) f_k(y) cell = delta_xy.
    """
    basis = spec.basis
    cell = spec.lattice.cell
    eye_modes = np.eye(basis.shape[1])
    eye_sites = np.eye(basis.shape[0])
    ortho = float(np.abs(basis.T @ basis * cell - eye_modes).max())
    complete = float(np.abs(basis @ basis.T * cell - eye_sites).max())
    ok = ortho < CANONICAL_TOL and complete < CANONICAL_TOL
    return CanonicalReport(
        orthonormality_dev=ortho,
        completeness_dev=complete,
        nmodes=basis.shape[1],
        nsites=basis.shape[0],
        ok=ok,
    )


def gaussian_bump(
    lattice: Lattice,
    center: int,
    width: float,
    cutoff: float | None = None,
) -> PhaseVector:
    """Static Gaussian field bump: phi = exp(-d^2 / 2 width^2), pi = 0.

    Distances are minimum-image, so the bump wraps smoothly on the torus.
    ``width`` is in length units. With ``cutoff`` set, the field is zeroed
    beyond that radius, giving a compactly supported progenitor (useful when
    the declared support should be exact rather than threshold-based).
    """
    d = lattice.distances_from(center)
    phi = np.exp(-(d**2) / (2.0 * width**2))
    if cutoff is not None:
        phi = np.where(d <= cutoff, phi, 0.0)
    return PhaseVector(lattice=lattice, phi=phi, pi=np.zeros(lattice.nsites))
