"""Brute-force Fock-space oracle on a few selected modes.

Everything here is deliberately naive: occupation-number bases, explicit
ladder matrices, truncated exponential series. The point is to have an
independent slow path whose only approximation is the occupation cutoff
``n_max`` (with a computable tail bound), so that closed-form expressions used
elsewhere in the package can be checked against direct matrix algebra.

Operators are stored by their diagonals (FockOperator). A ladder operator is
one shifted diagonal, and a product of two field operators on k modes has at
most (2k+1)^2 of them, so storage stays O(dim * offsets) up to MAX_DIM.
Products, with operators and with states, are slice arithmetic on the
stored diagonals: each term multiplies exactly the rows it reaches, so the
products are exact matrix algebra and the only approximation is still
``n_max``. A FockSpace synthesizes f_k(x) of its modes once and keeps its
raising operators, so field operators at many sites share both.

States live on a subset of at most three modes of a Spectrum; the basis is
the tensor product of per-mode number states 0..n_max, first selected mode
outermost (C order).
"""
from __future__ import annotations

import dataclasses
import math
from functools import cached_property, reduce

import numpy as np

from .spectral import Spectrum, log_linear_fit

MAX_MODES = 3
MAX_DIM = 100_000
SERIES_RTOL = 1e-18
MAX_SERIES_TERMS = 400
GUARD_FRACTION = 0.25  # |alpha| above n_max * this triggers the truncation flag


def _rows(dim: int, offset: int) -> tuple[int, int]:
    """Bounds lo <= i < hi of the rows of a dim x dim matrix whose column
    i + offset lies inside it (lo == hi when there are none)."""
    lo = max(0, -offset)
    return lo, max(lo, min(dim, dim - offset))


@dataclasses.dataclass(frozen=True, eq=False)
class FockOperator:
    """Square operator stored by its diagonals: diags[offset][i] = M[i, i + offset].

    Entries whose column i + offset falls outside the matrix are zero.
    Supports +, -, scalar *, .T, and @ with another FockOperator or with a
    state array of shape (dim,) or (dim, k); ``sum`` of operators works too.
    An operand of another dimension is refused. Products are slice
    arithmetic on the stored diagonals: each term multiplies only the rows
    it reaches. An operator product adds its terms into one accumulator per
    result diagonal, and a state product sums one term per diagonal, both
    in the order the diagonals are stored.
    """

    dim: int
    diags: dict[int, np.ndarray]

    # numpy scalars defer to __rmul__ instead of broadcasting over the object
    __array_ufunc__ = None

    def _require_dim(self, dim: int) -> None:
        if dim != self.dim:
            raise ValueError(
                f"operand of dimension {dim} for an operator of dimension {self.dim}"
            )

    def __add__(self, other: FockOperator) -> FockOperator:
        self._require_dim(other.dim)
        diags = dict(self.diags)
        for offset, values in other.diags.items():
            diags[offset] = diags[offset] + values if offset in diags else values
        return FockOperator(self.dim, diags)

    def __radd__(self, other) -> FockOperator:
        # the 0 that sum() and running totals start from
        if isinstance(other, int) and other == 0:
            return self
        return NotImplemented

    def __sub__(self, other: FockOperator) -> FockOperator:
        return self + (-1.0) * other

    def __mul__(self, scalar) -> FockOperator:
        return FockOperator(self.dim, {o: scalar * v for o, v in self.diags.items()})

    __rmul__ = __mul__

    @property
    def T(self) -> FockOperator:
        # M^T[i, i - offset] = M[i - offset, i], for rows i with i - offset inside
        diags = {}
        for offset, values in self.diags.items():
            lo, hi = _rows(self.dim, -offset)
            moved = np.zeros_like(values)
            moved[lo:hi] = values[lo - offset:hi - offset]
            diags[-offset] = moved
        return FockOperator(self.dim, diags)

    def __matmul__(self, other):
        dim = self.dim
        if isinstance(other, FockOperator):
            self._require_dim(other.dim)
            # (AB)[i, i + p + q] collects A[i, i + p] B[i + p, i + p + q] over
            # the rows lo <= i < hi whose i + p is a row of B
            dtype = np.result_type(0.0, *self.diags.values(), *other.diags.values())
            diags: dict[int, np.ndarray] = {}
            for p, a in self.diags.items():
                lo, hi = _rows(dim, p)
                a = a[lo:hi]
                for q, b in other.diags.items():
                    if p + q not in diags:
                        diags[p + q] = np.zeros(dim, dtype)
                    segment = diags[p + q][lo:hi]
                    segment += a * b[lo + p:hi + p]
            return FockOperator(dim, diags)
        vec = np.asarray(other)
        self._require_dim(vec.shape[0])
        # each partial sum a new array, as ``sum`` makes them: an accumulator
        # updated in place left a long battery run ~0.4 MB higher in peak
        # RSS (x86-64 Linux, glibc). The row axis goes last, to broadcast
        # over the columns of a (dim, k) block
        vec_t = vec.T
        total = 0
        for offset, values in self.diags.items():
            lo, hi = _rows(dim, offset)
            term = np.zeros(vec.shape, np.result_type(vec, values))
            rows = term.T[..., lo:hi]
            np.multiply(values[lo:hi], vec_t[..., lo + offset:hi + offset], out=rows)
            total = total + term
        return total


@dataclasses.dataclass(frozen=True)
class FockSpace:
    """Truncated multi-mode oscillator Hilbert space."""

    spectrum: Spectrum
    mode_indices: tuple[int, ...]
    n_max: int
    frequencies: np.ndarray
    lowering: tuple[FockOperator, ...]

    @property
    def nmodes(self) -> int:
        return len(self.mode_indices)

    @property
    def dim(self) -> int:
        return (self.n_max + 1) ** self.nmodes

    def raising(self, j: int) -> FockOperator:
        return self._raising[j]

    @cached_property
    def _raising(self) -> tuple[FockOperator, ...]:
        return tuple(a.T for a in self.lowering)

    @cached_property
    def _mode_values(self) -> np.ndarray:
        """f_k(x) at every site for each of the space's modes, (sites x modes).

        The modes are ``synthesize``d once from unit coefficient columns,
        one per mode, so no site-by-mode table of the whole spectrum is built.
        """
        spec = self.spectrum
        units = np.zeros((spec.nmodes, self.nmodes))
        units[list(self.mode_indices), range(self.nmodes)] = 1.0
        return spec.synthesize(units)


@dataclasses.dataclass(frozen=True)
class FockVector:
    """State vector in a FockSpace occupation basis."""

    space: FockSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if a.shape != (self.space.dim,):
            raise ValueError(f"{a.shape[0]} amplitudes for dimension {self.space.dim}")
        object.__setattr__(self, "amplitudes", a)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def build_fock(spec: Spectrum, mode_indices: tuple[int, ...], n_max: int = 14) -> FockSpace:
    """Assemble ladder operators for the selected modes.

    The per-mode lowering matrix has entries a[n-1, n] = sqrt(n). In the
    C-ordered product basis mode j moves the index by its stride
    (n_max+1)^(nmodes-1-j), so its lowering operator is the single diagonal
    at that offset, sqrt(n_j + 1) on rows where n_j < n_max.
    """
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
    occ = np.unravel_index(np.arange(dim), (n_max + 1,) * len(modes))
    lowering = []
    for j, n in enumerate(occ):
        stride = (n_max + 1) ** (len(modes) - 1 - j)
        values = np.where(n < n_max, np.sqrt(n + 1.0), 0.0)
        lowering.append(FockOperator(dim, {stride: values}))
    return FockSpace(
        spectrum=spec,
        mode_indices=modes,
        n_max=n_max,
        frequencies=spec.frequencies[list(modes)].copy(),
        lowering=tuple(lowering),
    )


def vacuum(space: FockSpace) -> FockVector:
    amps = np.zeros(space.dim, dtype=complex)
    amps[0] = 1.0
    return FockVector(space=space, amplitudes=amps)


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

    vector: FockVector
    tail_bound: float
    guard_ok: bool


def coherent_state(space: FockSpace, alphas: np.ndarray) -> CoherentState:
    """Product coherent state with per-mode amplitudes ``alphas``.

    guard_ok is False when any |alpha_k| exceeds n_max/4; the state is still
    returned, with the tail bound quantifying how much norm the cutoff lost.
    """
    a = np.asarray(alphas, dtype=complex).reshape(-1)
    if a.shape != (space.nmodes,):
        raise ValueError(f"{a.shape[0]} amplitudes for {space.nmodes} modes")
    vecs = [_mode_coefficients(ak, space.n_max) for ak in a]
    amps = reduce(np.kron, vecs)
    guard_ok = bool(np.all(np.abs(a) <= GUARD_FRACTION * space.n_max))
    return CoherentState(
        vector=FockVector(space=space, amplitudes=amps),
        tail_bound=coherent_tail_bound(space, a),
        guard_ok=guard_ok,
    )


def one_particle(space: FockSpace, direction: np.ndarray) -> FockVector:
    """sum_k alpha_k adag_k |0>; squared norm is sum |alpha_k|^2 exactly."""
    a = np.asarray(direction, dtype=complex).reshape(-1)
    if a.shape != (space.nmodes,):
        raise ValueError(f"{a.shape[0]} amplitudes for {space.nmodes} modes")
    vac = vacuum(space).amplitudes
    out = np.zeros_like(vac)
    for k, ak in enumerate(a):
        if ak != 0:
            out += ak * (space.raising(k) @ vac)
    return FockVector(space=space, amplitudes=out)


def displacement(space: FockSpace, direction: np.ndarray, z: complex) -> FockVector:
    """Displaced vacuum exp(z A - conj(z) A^dag ... )|0> for A^dag = sum alpha_k adag_k.

    ``direction`` must be normalized (sum |alpha_k|^2 = 1). Acting on the
    vacuum the operator reduces to exp(-|z|^2/2) exp(z A^dag)|0>, evaluated
    as a plain power series until terms fall below SERIES_RTOL.
    """
    a = np.asarray(direction, dtype=complex).reshape(-1)
    if a.shape != (space.nmodes,):
        raise ValueError(f"{a.shape[0]} amplitudes for {space.nmodes} modes")
    nrm = float(np.linalg.norm(a))
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"direction norm {nrm} is not 1; normalize it first")
    adag = sum(
        complex(z) * ak * space.raising(k) for k, ak in enumerate(a) if ak != 0
    )
    amps = vacuum(space).amplitudes
    term = amps.copy()
    for n in range(1, MAX_SERIES_TERMS + 1):
        term = (adag @ term) / n
        amps = amps + term
        if np.linalg.norm(term) < SERIES_RTOL * np.linalg.norm(amps):
            break
    return FockVector(space=space, amplitudes=math.exp(-0.5 * abs(z) ** 2) * amps)


def field_operator(space: FockSpace, site: int, which: str = "phi") -> FockOperator:
    """Field operator at one site, restricted to the oracle's modes.

    phi(x) = sum_k f_k(x)/sqrt(2 w_k) (a_k + adag_k)
    pi(x)  = sum_k sqrt(w_k/2) f_k(x) i (adag_k - a_k)

    f_k(x) is the spectrum's ``synthesize`` of the unit coefficients of mode
    k, made once per space. With only a mode subset these satisfy the
    canonical commutator up to the missing modes' completeness defect.
    """
    op = 0
    for j, f in enumerate(space._mode_values[site]):
        w = space.frequencies[j]
        if which == "phi":
            op = op + (f / math.sqrt(2.0 * w)) * (space.lowering[j] + space.raising(j))
        elif which == "pi":
            op = op + math.sqrt(w / 2.0) * f * (1j * (space.raising(j) - space.lowering[j]))
        else:
            raise ValueError(f"unknown field {which!r}; use 'phi' or 'pi'")
    return op


def potential_operator(space: FockSpace, site: int) -> FockOperator:
    """(R^{1/2} phi)(x)^2 at one site, the potential term of the energy density.

    (R^{1/2} phi)(x) = sum_k sqrt(w_k / 2) f_k(x) (a_k + adag_k), summed over
    the truncated space's modes, with f_k(x) synthesized as in
    ``field_operator``.
    """
    op = sum(
        np.sqrt(space.frequencies[j] / 2.0) * f
        * (space.lowering[j] + space.raising(j))
        for j, f in enumerate(space._mode_values[site])
    )
    return op @ op


def fock_hamiltonian(space: FockSpace) -> FockOperator:
    """H = sum_k w_k adag_k a_k (normal ordered; vacuum energy dropped)."""
    return sum(
        space.frequencies[k] * (space.raising(k) @ space.lowering[k])
        for k in range(space.nmodes)
    )


def expectation(state: FockVector, op: FockOperator) -> complex:
    """Normalized matrix element <s|op|s> / <s|s>."""
    n2 = float(np.vdot(state.amplitudes, state.amplitudes).real)
    if n2 < 1e-300:
        raise ValueError("cannot take an expectation in a zero state")
    return complex(np.vdot(state.amplitudes, op @ state.amplitudes)) / n2


@dataclasses.dataclass(frozen=True)
class SmallStateReport:
    """Residuals of D(lambda)|0> against |0> + lambda |particle>, one per lambda."""

    residuals: np.ndarray
    exponent: float


def small_state_limit_check(
    space: FockSpace, direction: np.ndarray, lams: np.ndarray
) -> SmallStateReport:
    """Measure how fast the displaced vacuum approaches vacuum + particle.

    The residual norm scales as lambda^exponent; the exponent is fitted in
    log-log. Quadratic scaling is what makes single particles dominate
    weakly excited states.
    """
    lams = np.asarray(lams, dtype=float).reshape(-1)
    if np.any(lams <= 0) or np.any(lams > 0.3):
        raise ValueError("lambdas must lie in (0, 0.3]")
    vac = vacuum(space).amplitudes
    part = one_particle(space, direction).amplitudes
    residuals = np.empty_like(lams)
    for i, lam in enumerate(lams):
        disp = displacement(space, direction, lam).amplitudes
        residuals[i] = np.linalg.norm(disp - (vac + lam * part))
    slope, _, _ = log_linear_fit(np.log(lams), residuals)
    return SmallStateReport(residuals=residuals, exponent=slope)
