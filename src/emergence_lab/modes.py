"""Mode coordinates for classical phase-space points.

A phase point (phi, pi) is re-expressed in the eigenbasis of R as one complex
amplitude per mode,

    alpha_k = (q_k + i p_k) / sqrt(2),
    q_k = sqrt(omega_k) <f_k, phi>,   p_k = <f_k, pi> / sqrt(omega_k),

so that the field equation becomes independent phase rotations
alpha_k(t) = alpha_k exp(-i omega_k t) and the classical energy is
sum_k omega_k |alpha_k|^2. Time evolution is exact spectral rotation; there is
no integrator anywhere in this package.

The amplitudes are a plain complex array handed on with the Spectrum, not a
second stored form of the point: ``PhaseVector`` is the one validated state,
so a non-finite amplitude is refused where ``from_modes`` makes it a field,
and a wrong length where the Spectrum transforms it or
``hamiltonian_energy`` weighs it.

A block of k phase points is stored as (sites x k) fields, one point per
column, the batch convention of ``Spectrum.apply_function``, and its
amplitudes as a (modes x k) array. Transforms map a block column by column,
and reductions (norms, energies, products) return one value per column: a
scalar for one point, a length-k array for a block. A field in its
lattice's grid shape is always one point.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .spectral import Lattice, LatticeMismatchError, ROperator, Spectrum


@dataclasses.dataclass(frozen=True)
class PhaseVector:
    """Classical phase-space point: real fields phi and pi on lattice sites."""

    lattice: Lattice
    phi: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        n = self.lattice.nsites
        phi = _columns(self.phi, float, self.lattice.shape)
        pi = _columns(self.pi, float, self.lattice.shape)
        if phi.shape[0] != n or phi.shape != pi.shape:
            raise ValueError(
                f"fields have shapes {phi.shape}/{pi.shape} for {n} sites"
            )
        if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(pi))):
            raise ValueError("phase-space fields must be finite")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "pi", pi)

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

    def norm(self) -> float | np.ndarray:
        """Plain Euclidean size of the pair of fields (diagnostic only)."""
        dots = _column_dot(self.phi, self.phi) + _column_dot(self.pi, self.pi)
        return np.sqrt(dots * self.lattice.cell)


def _check_same_lattice(a: Lattice, b: Lattice) -> None:
    if a != b:
        raise LatticeMismatchError(f"lattices differ: {a} vs {b}")


def _columns(values, dtype, grid: tuple[int, ...]) -> np.ndarray:
    """One field as a 1-D array, or a (rows x k) block as it is.

    An array in the ``grid`` shape (a field on its lattice) is one field even
    when it is 2-D, so a (5, 1) lattice's field is not a block of one column.
    """
    values = np.asarray(values, dtype=dtype)
    if values.ndim != 2 or values.shape == grid:
        return values.reshape(-1)
    return values


def _per_row(weights: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Per-mode (or per-site) weights shaped to broadcast over a block's columns."""
    return weights.reshape(weights.shape + (1,) * (block.ndim - 1))


def _column_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_x conj(a(x)) b(x) of each column; a scalar for 1-D a and b.

    The columns are made contiguous first, so a block column reduces with
    the same bits as that column alone (one BLAS dot each).
    """
    return np.vecdot(np.ascontiguousarray(a.T), np.ascontiguousarray(b.T))


def _column_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the leading axis, with each column's bits as if alone."""
    return np.sum(np.ascontiguousarray(a.T), axis=-1)


def to_modes(state: PhaseVector, spec: Spectrum) -> np.ndarray:
    """Mode amplitudes of a phase point; real-linear in (phi, pi)."""
    _check_same_lattice(state.lattice, spec.lattice)
    sqrt_w = _per_row(np.sqrt(spec.frequencies), state.phi)
    # column-major, so that _column_dot reads the columns without a copy
    alpha = np.empty((spec.nmodes,) + state.phi.shape[1:], dtype=complex, order="F")
    np.multiply(sqrt_w, spec.project(state.phi), out=alpha.real)  # q
    np.divide(spec.project(state.pi), sqrt_w, out=alpha.imag)  # p
    alpha /= math.sqrt(2.0)
    return alpha


def from_modes(alpha: np.ndarray, spec: Spectrum) -> PhaseVector:
    """Inverse of to_modes: phi = sum q_k f_k / sqrt(omega_k), pi = sum p_k sqrt(omega_k) f_k."""
    sqrt_w = _per_row(np.sqrt(spec.frequencies), alpha)
    phi = spec.synthesize(math.sqrt(2.0) * alpha.real / sqrt_w)
    pi = spec.synthesize(math.sqrt(2.0) * alpha.imag * sqrt_w)
    return PhaseVector(lattice=spec.lattice, phi=phi, pi=pi)


def evolve_modes(alpha: np.ndarray, spec: Spectrum, t: float) -> np.ndarray:
    """Exact evolution: each amplitude rotates by exp(-i omega_k t)."""
    phase = np.exp(-1j * spec.frequencies * t)
    return alpha * _per_row(phase, alpha)


def evolve_state(state: PhaseVector, spec: Spectrum, t: float) -> PhaseVector:
    """Field-space evolution through the mode picture (exact)."""
    return from_modes(evolve_modes(to_modes(state, spec), spec, t), spec)


def hamiltonian_energy(alpha: np.ndarray, spec: Spectrum) -> float | np.ndarray:
    """Classical energy sum_k omega_k |alpha_k|^2."""
    if len(alpha) != spec.nmodes:
        raise ValueError(f"alpha has {len(alpha)} amplitudes for {spec.nmodes} modes")
    freq = _per_row(spec.frequencies, alpha)
    return _column_sum(freq * np.abs(alpha) ** 2)


def field_hamiltonian(state: PhaseVector, op: ROperator) -> float | np.ndarray:
    """Field-space energy (1/2) Int (pi^2 + phi R phi); cross-check target."""
    _check_same_lattice(state.lattice, op.lattice)
    dens = _column_dot(state.pi, state.pi) + _column_dot(state.phi, op.apply(state.phi))
    return 0.5 * dens * op.lattice.cell


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
    the declared support should be exact rather than threshold-based); a
    negative cutoff, which would zero every site, is refused.
    """
    if cutoff is not None and cutoff < 0:
        raise ValueError(f"cutoff must be non-negative, got {cutoff}")
    d = lattice.distances_from(center)
    phi = np.exp(-(d**2) / (2.0 * width**2))
    if cutoff is not None:
        phi = np.where(d <= cutoff, phi, 0.0)
    return PhaseVector(lattice=lattice, phi=phi, pi=np.zeros(lattice.nsites))
