"""Brute-force Fock-space oracle on a few selected modes.

Everything here is deliberately naive: occupation-number bases, ladder
operators acting on amplitudes, truncated exponential series. The point is
to have an independent slow path whose only approximation is the occupation
cutoff ``n_max`` (with a computable tail bound), so that closed-form
expressions used elsewhere in the package can be checked against direct
Fock-space algebra. It is a leaf: only ``experiments`` reads it, so the
layers it arbitrates never import their arbiter.

States live on a subset of at most three modes of a Spectrum; the basis is
the tensor product of per-mode number states 0..n_max, first selected mode
outermost (C order), and a state is its bare (dim,) complex amplitudes.
Operators are never stored: every quantity the package reads is a Hermitian
square, <s|A^2|s> = ||A s||^2, or a vacuum product, <0|A B|0> = <A 0, B 0>.
The one ladder action (``_ladder``) views amplitudes or a (dim, k) block as
a tensor with one axis of length n_max + 1 per mode, shifts it one step
along a mode's axis and scales by sqrt(n), as the truncated matrix would.
A FockSpace holds its modes' frequencies and the f_k(x) table that
``build_fock`` synthesizes once, from which ``field_operators`` applies
the FIELDS at every site in one call. ``small_state_limit_check`` returns
its fitted exponent and residuals as a plain pair.
"""
from __future__ import annotations

import dataclasses
import math
from functools import reduce

import numpy as np

from .spectral import Spectrum, log_linear_fit

MAX_MODES = 3
MAX_DIM = 100_000
SERIES_RTOL = 1e-18
GUARD_FRACTION = 0.25  # |alpha| above n_max * this triggers the truncation flag
FIELDS = ("phi", "pi", "smeared_phi")


@dataclasses.dataclass(frozen=True)
class FockSpace:
    """Truncated multi-mode oscillator Hilbert space; ``mode_values`` is the
    (sites x modes) table of f_k(x) for its modes."""

    n_max: int
    frequencies: np.ndarray
    mode_values: np.ndarray

    @property
    def nmodes(self) -> int:
        return len(self.frequencies)

    @property
    def dim(self) -> int:
        return (self.n_max + 1) ** self.nmodes


def _ladder(space: FockSpace, j: int, amps: np.ndarray, raising: bool = False) -> np.ndarray:
    """a_j, or adag_j when ``raising``, applied to (dim,) amplitudes or a (dim, k) block.

    With s viewed as a tensor over the occupations (n_0, ..., n_j, ...) and
    then the block's columns, (a_j s)[.., n, ..] = sqrt(n + 1) s[.., n + 1, ..]
    and (adag_j s)[.., n, ..] = sqrt(n) s[.., n - 1, ..]. Occupations past
    the cut n_max are dropped, as the truncated matrices drop them. Each
    entry is one product, so a block maps with the bits of each column alone.
    """
    amps = np.asarray(amps)
    size = space.n_max + 1
    grid = amps.reshape((size,) * space.nmodes + amps.shape[1:])
    out = np.zeros(grid.shape, np.result_type(grid, 1.0))
    # sqrt(1..n_max) along mode j's axis, broadcast over the others
    root = np.sqrt(np.arange(1.0, size)).reshape((-1,) + (1,) * (grid.ndim - 1 - j))
    upper = (slice(None),) * j + (slice(1, None),)
    lower = (slice(None),) * j + (slice(None, -1),)
    if raising:
        out[upper] = root * grid[lower]
    else:
        out[lower] = root * grid[upper]
    return out.reshape(amps.shape)


def build_fock(spec: Spectrum, mode_indices: tuple[int, ...], n_max: int = 14) -> FockSpace:
    """The truncated space of the selected modes, occupations 0..n_max each."""
    modes = tuple(int(k) for k in mode_indices)
    if not 1 <= len(modes) <= MAX_MODES:
        raise ValueError(f"oracle supports 1..{MAX_MODES} modes, got {len(modes)}")
    if len(set(modes)) != len(modes):
        raise ValueError(f"repeated mode indices {modes}")
    if not all(0 <= k < spec.nmodes for k in modes):
        raise ValueError(f"mode indices {modes} out of range for {spec.nmodes} modes")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    dim = (n_max + 1) ** len(modes)
    if dim > MAX_DIM:
        raise ValueError(f"truncated dimension {dim} exceeds {MAX_DIM}")
    # one synthesize of a unit column per mode: no table of every mode is built
    units = np.zeros((spec.nmodes, len(modes)))
    units[list(modes), range(len(modes))] = 1.0
    return FockSpace(
        n_max=n_max,
        frequencies=spec.frequencies[list(modes)],
        mode_values=spec.synthesize(units),
    )


def vacuum(space: FockSpace) -> np.ndarray:
    amps = np.zeros(space.dim, dtype=complex)
    amps[0] = 1.0
    return amps


def _amplitudes(values: np.ndarray, size: int, unit: str) -> np.ndarray:
    """``values`` as ``size`` complex amplitudes, one per mode or basis state."""
    a = np.asarray(values, dtype=complex).reshape(-1)
    if a.shape != (size,):
        raise ValueError(f"{a.shape[0]} amplitudes for {size} {unit}")
    return a


def _mode_coefficients(alpha: complex, n_max: int) -> np.ndarray:
    """Coefficients of a single-mode coherent state, exp(-|a|^2/2) a^n/sqrt(n!)."""
    c = np.empty(n_max + 1, dtype=complex)
    c[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, n_max + 1):
        c[n] = c[n - 1] * alpha / math.sqrt(n)
    return c


def coherent_tail_bound(space: FockSpace, alphas: np.ndarray) -> float:
    """Upper bound on the squared norm lost to the occupation cutoff.

    Per mode the dropped weight is exp(-|a|^2) sum_{n>n_max} |a|^{2n}/n!,
    bounded by the first dropped term times e^{|a|^2}; summing the per-mode
    first terms is the bound reported here.
    """
    total = 0.0
    for a in np.asarray(alphas, dtype=complex):
        x = abs(a) ** 2
        if x == 0.0:
            continue
        log_term = -x + (space.n_max + 1) * math.log(x) - math.lgamma(space.n_max + 2)
        total += math.exp(log_term + x)  # geometric-tail safety factor e^x
    return total


@dataclasses.dataclass(frozen=True)
class CoherentState:
    """Truncated coherent state plus honesty metadata about the cutoff."""

    amplitudes: np.ndarray
    tail_bound: float
    guard_ok: bool


def coherent_state(space: FockSpace, alphas: np.ndarray) -> CoherentState:
    """Product coherent state with per-mode amplitudes ``alphas``.

    guard_ok is False when any |alpha_k| exceeds n_max/4; the state is still
    returned, with the tail bound quantifying how much norm the cutoff lost.
    """
    a = _amplitudes(alphas, space.nmodes, "modes")
    return CoherentState(
        amplitudes=reduce(np.kron, [_mode_coefficients(ak, space.n_max) for ak in a]),
        tail_bound=coherent_tail_bound(space, a),
        guard_ok=bool(np.all(np.abs(a) <= GUARD_FRACTION * space.n_max)),
    )


def one_particle(space: FockSpace, direction: np.ndarray) -> np.ndarray:
    """sum_k alpha_k adag_k |0>; squared norm is sum |alpha_k|^2 exactly."""
    vac, a = vacuum(space), _amplitudes(direction, space.nmodes, "modes")
    return sum(ak * _ladder(space, k, vac, raising=True) for k, ak in enumerate(a))


def displacement(space: FockSpace, direction: np.ndarray, z: complex) -> np.ndarray:
    """Displaced vacuum exp(z A - conj(z) A^dag ... )|0> for A^dag = sum alpha_k adag_k.

    ``direction`` must be normalized (sum |alpha_k|^2 = 1). Acting on the
    vacuum the operator reduces to exp(-|z|^2/2) exp(z A^dag)|0>, evaluated
    as a plain power series until terms fall below SERIES_RTOL; term n holds
    n quanta, so past nmodes * n_max it is exactly zero in the truncated
    space. A partial sum whose norm overflows raises OverflowError.
    """
    a = _amplitudes(direction, space.nmodes, "modes")
    nrm = float(np.linalg.norm(a))
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"direction norm {nrm} is not 1; normalize it first")
    za = complex(z) * a
    amps = term = vacuum(space)
    with np.errstate(over="ignore"):  # an overflowed sum is refused below
        for n in range(1, space.nmodes * space.n_max + 1):
            term = sum(c * _ladder(space, k, term, raising=True) for k, c in enumerate(za)) / n
            amps = amps + term
            total = np.linalg.norm(amps)
            if not math.isfinite(total):
                raise OverflowError(f"displacement series at z = {z} overflows after {n} terms")
            if np.linalg.norm(term) < SERIES_RTOL * total:
                break
    return math.exp(-0.5 * abs(z) ** 2) * amps


def field_operators(space: FockSpace, amps: np.ndarray) -> np.ndarray:
    """The FIELDS at every site, restricted to the oracle's modes, applied to amplitudes.

    phi(x)            = sum_k f_k(x)/sqrt(2 w_k) (a_k + adag_k)
    pi(x)             = sum_k sqrt(w_k/2) f_k(x) i (adag_k - a_k)
    (R^{1/2} phi)(x)  = sum_k sqrt(w_k/2) f_k(x) (a_k + adag_k)

    The last is the potential term's field. ``amps`` is (dim,) or a (dim, k)
    block, and the result is (fields, dim[, k], sites) in FIELDS order. Each
    mode's a_j and adag_j images are formed once, and each field sums its
    terms down_j a_j s + up_j adag_j s over j in order. f_k(x) is the
    space's ``mode_values`` table. With only a mode subset these satisfy the
    canonical commutator up to the missing modes' completeness defect.
    """
    f, w = space.mode_values.T, space.frequencies[:, None]
    phi, smeared_phi = f / np.sqrt(2.0 * w), np.sqrt(w / 2.0) * f
    pi_up = 1j * smeared_phi
    # coefficients of a_j (down) and adag_j (up), (modes x sites), per field
    coefficients = ((phi, phi), (-pi_up, pi_up), (smeared_phi, smeared_phi))
    column = np.asarray(amps)[..., None]
    images = [(_ladder(space, j, column), _ladder(space, j, column, raising=True))
              for j in range(space.nmodes)]
    return np.stack([
        sum(down[j] * lower + up[j] * upper for j, (lower, upper) in enumerate(images))
        for down, up in coefficients
    ])


def square_excess(space: FockSpace, amps: np.ndarray) -> np.ndarray:
    """<s|A^2|s>/<s|s> - <0|A^2|0> for each of the FIELDS A at every site, (fields, sites).

    A is Hermitian, so each term is a squared norm, ||A s||^2/||s||^2 and
    ||A|0>||^2; the fields act once, on the block of s and the vacuum.
    """
    amps = _amplitudes(amps, space.dim, "basis states")
    n2 = float(np.vdot(amps, amps).real)
    if n2 < 1e-300:
        raise ValueError("cannot take an expectation in a zero state")
    image = field_operators(space, np.column_stack((amps, vacuum(space))))
    squares = np.sum(np.abs(image) ** 2, axis=1)
    return squares[:, 0] / n2 - squares[:, 1]


def small_state_limit_check(
    space: FockSpace, direction: np.ndarray, lams: np.ndarray
) -> tuple[float, np.ndarray]:
    """Measure how fast the displaced vacuum approaches vacuum + particle.

    Returns (exponent, residuals): the residuals are the norms of
    D(lambda)|0> - (|0> + lambda |particle>), one per lambda, and they scale
    as lambda^exponent, fitted in log-log. Quadratic scaling is what makes
    single particles dominate weakly excited states.
    """
    lams = np.asarray(lams, dtype=float).reshape(-1)
    if np.any(lams <= 0) or np.any(lams > 0.3):
        raise ValueError("lambdas must lie in (0, 0.3]")
    vac, part = vacuum(space), one_particle(space, direction)
    residuals = np.empty_like(lams)
    for i, lam in enumerate(lams):
        disp = displacement(space, direction, lam)
        residuals[i] = np.linalg.norm(disp - (vac + lam * part))
    slope, _, _ = log_linear_fit(np.log(lams), residuals)
    return slope, residuals
