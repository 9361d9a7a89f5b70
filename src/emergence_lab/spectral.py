"""Operator calculus on periodic lattices.

Builds the spatial operator R of the linear field equation ``phi_tt + R phi = 0``
as a symmetric operator over lattice sites: a mass term beside the 3-point
Laplacian stencil, applied by neighbour sums and made dense only on request.
It exposes R's spectral decomposition (closed-form Fourier modes when R is
translation invariant, a dense eigensolver otherwise), arbitrary real powers
R^lambda, and tools to measure how fast the kernels of those powers decay
with distance.

Conventions
-----------
* Matrices act in "application form": ``(R u)(x) = sum_y matrix[x, y] u(y)``.
  The integral kernel against the lattice measure is ``matrix / spacing**dim``.
* Eigenbases are real and orthonormal under the discrete L2 product
  ``sum_x f_j(x) f_k(x) spacing**dim = delta_jk``.
* All lengths (distances, decay lengths, spacings) are in the same length
  units as ``Lattice.spacing``.
"""
from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

# Eigenvalues below POSITIVITY_FLOOR * lambda_max are treated as violations of
# strict positivity rather than numerical noise.
POSITIVITY_FLOOR = 1e-10
SYMMETRY_RTOL = 1e-12
DISTANCE_BIN = 1e-9
# Translation-invariant operators up to this many sites keep matrix-product
# transforms over a closed-form Hartley basis; above it they transform by FFT.
# Per call on a 2-vCPU Xeon (numpy 2.4, OpenBLAS), a real matvec costs
# 2.5/15/64 us at 64/256/512 sites and a real FFT transform 15/17/17 us;
# for complex fields the two cross near 128 sites.
DENSE_TRANSFORM_MAX_SITES = 256


class AxiomError(ValueError):
    """The operator violates a structural requirement (symmetry/positivity)."""


class LatticeMismatchError(ValueError):
    """Two objects that must share a lattice do not."""


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Lattice:
    """Periodic rectangular lattice in 1, 2 or 3 dimensions.

    Parameters
    ----------
    shape : tuple of int
        Site count per axis.
    spacing : float
        Lattice spacing (length units), identical on every axis.
    """

    shape: tuple[int, ...]
    spacing: float = 1.0

    def __post_init__(self):
        shape = tuple(int(n) for n in self.shape)
        object.__setattr__(self, "shape", shape)
        if not 1 <= len(shape) <= 3:
            raise ValueError(f"lattice dimension must be 1..3, got {len(shape)}")
        if any(n < 1 for n in shape):
            raise ValueError(f"site counts must be positive, got {shape}")
        if not self.spacing > 0:
            raise ValueError(f"spacing must be positive, got {self.spacing}")

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def nsites(self) -> int:
        return int(np.prod(self.shape))

    @property
    def cell(self) -> float:
        """Volume of one lattice cell, spacing**ndim (the quadrature weight)."""
        return float(self.spacing) ** self.ndim

    def site_coords(self) -> np.ndarray:
        """Integer coordinates of all sites, shape (nsites, ndim), C order."""
        grids = np.indices(self.shape).reshape(self.ndim, -1).T
        return grids

    def index_of(self, coord) -> int:
        """Flat index of an integer coordinate tuple (C order)."""
        return int(np.ravel_multi_index(tuple(int(c) for c in coord), self.shape))

    def min_image_deltas(self, i: int) -> np.ndarray:
        """Minimum-image coordinate differences from site i to every site.

        Integer units, shape (nsites, ndim).
        """
        coords = self.site_coords()
        delta = coords - coords[i]
        for ax, n in enumerate(self.shape):
            d = delta[:, ax]
            d += n // 2
            np.mod(d, n, out=d)
            d -= n // 2
        return delta

    def distances_from(self, i: int) -> np.ndarray:
        """Minimum-image Euclidean distance from site i to all sites."""
        delta = self.min_image_deltas(i)
        return np.sqrt((delta.astype(float) ** 2).sum(axis=1)) * self.spacing

    def distance(self, i: int, j: int) -> float:
        return float(self.distances_from(i)[j])


# ---------------------------------------------------------------------------
# the operator R and its spectrum
# ---------------------------------------------------------------------------

class ROperator:
    """Symmetric operator R over lattice sites (application form).

    Two forms share this class. The stencil form, made by
    ``build_klein_gordon`` and ``build_variable_coefficient``, stores only
    ``mass_squared`` (a scalar, or one value per site) for
    R = mass_squared - Laplacian with the 3-point central stencil per axis and
    periodic wrap: ``apply`` is an O(N) neighbour sum, and the dense
    ``matrix`` is built on first read. Its + and - neighbour weights are
    equal, so it is symmetric by construction. The explicit form holds a
    caller's dense ``matrix``, checked for shape and symmetry here, and
    applies it as a matrix product; ``mass_squared`` is then None.

    ``stencil_radius`` is the locality radius in integer site steps when the
    operator came from a differential stencil; None when unknown.
    """

    def __init__(
        self,
        lattice: Lattice,
        matrix: np.ndarray | None = None,
        stencil_radius: int | None = None,
        *,
        mass_squared=None,
    ):
        if (matrix is None) == (mass_squared is None):
            raise ValueError("give exactly one of matrix and mass_squared")
        self.lattice = lattice
        self.stencil_radius = stencil_radius
        n = lattice.nsites
        if matrix is None:
            mass = np.asarray(mass_squared, dtype=float)
            if mass.ndim and mass.size != n:
                raise ValueError(f"mass_squared has {mass.size} values for {n} sites")
            self.mass_squared = mass.reshape(-1) if mass.ndim else float(mass)
            return
        self.mass_squared = None
        m = np.asarray(matrix, dtype=float)
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} does not match {n} sites")
        scale = np.abs(m).max()
        if scale > 0 and np.abs(m - m.T).max() > SYMMETRY_RTOL * scale:
            raise AxiomError("operator matrix is not symmetric")
        # an explicit matrix shadows the lazily built one below
        self.matrix = m

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """Dense matrix of the stencil form, built on first read."""
        return _mass_minus_laplacian(self.mass_squared, self.lattice)

    def apply(self, field: np.ndarray) -> np.ndarray:
        """R field, for a field indexed by site along its leading axis."""
        if self.mass_squared is None:
            return self.matrix @ field
        return _stencil_apply(self.mass_squared, self.lattice, field)


@dataclasses.dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of an ROperator.

    ``basis`` columns are the eigenfunctions f_k, orthonormal under the
    discrete L2 product; ``eigenvalues`` (omega_k^2) ascend and are strictly
    positive; ``frequencies`` are their positive square roots.

    For a translation-invariant operator f_k is the real Fourier (Hartley)
    mode cas(2 pi q.x/N) / sqrt(N cell) of flat wavevector index
    q = ``hartley_modes[k]``; otherwise ``hartley_modes`` is None.
    ``project``/``synthesize`` are matrix products with ``dense_basis`` when
    it is set, and FFTs otherwise, in which case ``basis`` is built from the
    closed form on first access.
    """

    operator: ROperator
    eigenvalues: np.ndarray
    frequencies: np.ndarray
    dense_basis: np.ndarray | None
    hartley_modes: np.ndarray | None

    @property
    def lattice(self) -> Lattice:
        return self.operator.lattice

    @property
    def nmodes(self) -> int:
        return len(self.eigenvalues)

    @functools.cached_property
    def basis(self) -> np.ndarray:
        if self.dense_basis is not None:
            return self.dense_basis
        return _hartley_basis(self.lattice, self.hartley_modes)

    def project(self, field: np.ndarray) -> np.ndarray:
        """L2 coefficients <f_k, field> for every mode."""
        if self.dense_basis is not None:
            return (self.dense_basis.T @ field) * self.lattice.cell
        scale = math.sqrt(self.lattice.cell / self.nmodes)
        return scale * _hartley(field, self.lattice.shape)[self.hartley_modes]

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Field sum_k coeffs[k] f_k."""
        if self.dense_basis is not None:
            return self.dense_basis @ coeffs
        scale = 1.0 / math.sqrt(self.nmodes * self.lattice.cell)
        return scale * _hartley(self._on_grid(coeffs), self.lattice.shape)

    def apply_function(self, f, field: np.ndarray) -> np.ndarray:
        """Apply f(R) to a field: sum_k f(lambda_k) <f_k, field> f_k."""
        # keep this order: the reversed complex product rounds differently
        return self.synthesize(self.project(field) * f(self.eigenvalues))

    def kernel_column(self, f, site: int) -> np.ndarray:
        """Integral kernel f(R)(y, site) = sum_k f(lambda_k) f_k(y) f_k(site)."""
        if self.hartley_modes is None:
            basis = self.dense_basis
            return basis @ (f(self.eigenvalues) * basis[site, :])
        # by FFT even where the basis is stored: against an 80-bit reference
        # its roundoff is about 3x smaller than the matrix product's
        shape = self.lattice.shape
        unit = _unit(self.lattice, site)
        spread = self._on_grid(f(self.eigenvalues)) * _hartley(unit, shape)
        return _hartley(spread, shape) / (self.nmodes * self.lattice.cell)

    def _on_grid(self, coeffs: np.ndarray) -> np.ndarray:
        """Mode coefficients moved to their wavevectors' flat grid positions."""
        grid = np.empty_like(coeffs)
        grid[self.hartley_modes] = coeffs
        return grid

    def apply_power(self, exponent: float, field: np.ndarray) -> np.ndarray:
        """Apply R^exponent to a field through the eigenbasis."""
        return self.apply_function(lambda lam: lam**exponent, field)


def _hartley(values: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Unnormalized discrete Hartley transform over the leading site axis.

    ``H v(k) = sum_x v(x) cas(2 pi k.x/N)`` with cas = cos + sin, which is
    Re F - Im F of the DFT F for real v. H is symmetric and H^2 = N, so it
    also synthesizes. Complex v is transformed by parts.
    """
    if np.iscomplexobj(values):
        return _hartley(values.real, shape) + 1j * _hartley(values.imag, shape)
    grid = values.reshape(shape + values.shape[1:])
    spectrum = np.fft.fftn(grid, axes=tuple(range(len(shape))))
    return (spectrum.real - spectrum.imag).reshape(values.shape)


def _hartley_basis(lattice: Lattice, modes: np.ndarray) -> np.ndarray:
    """Columns cas(2 pi k.x/N) / sqrt(N cell) for flat wavevector indices ``modes``.

    The phase k.x/N is reduced exactly in integers, so each entry is a
    correctly rounded table value.
    """
    n = lattice.nsites
    coords = lattice.site_coords()
    wavevectors = coords[modes]
    phase = np.zeros((n, len(modes)), dtype=np.int64)
    for ax, extent in enumerate(lattice.shape):
        term = np.multiply.outer(coords[:, ax], wavevectors[:, ax])
        term %= extent
        term *= n // extent
        phase += term
    phase %= n
    angle = 2.0 * np.pi * np.arange(n) / n
    cas = (np.cos(angle) + np.sin(angle)) / math.sqrt(n * lattice.cell)
    return cas[phase]


def _laplacian_matrix(lattice: Lattice) -> np.ndarray:
    """Second-order central-difference Laplacian with periodic wrap."""
    n = lattice.nsites
    lap = np.zeros((n, n))
    inv_a2 = 1.0 / lattice.spacing**2
    coords = lattice.site_coords()
    for ax, extent in enumerate(lattice.shape):
        step = np.zeros(lattice.ndim, dtype=int)
        step[ax] = 1
        plus = (coords + step) % lattice.shape
        minus = (coords - step) % lattice.shape
        plus_idx = np.ravel_multi_index(plus.T, lattice.shape)
        minus_idx = np.ravel_multi_index(minus.T, lattice.shape)
        rows = np.arange(n)
        lap[rows, plus_idx] += inv_a2
        lap[rows, minus_idx] += inv_a2
        lap[rows, rows] -= 2.0 * inv_a2
    return lap


def _mass_minus_laplacian(mass_squared, lattice: Lattice) -> np.ndarray:
    """mass_squared (scalar or per site) on the diagonal minus the Laplacian.

    Built in the Laplacian's own storage, so no other N x N array is made.
    """
    matrix = _laplacian_matrix(lattice)
    np.subtract(0.0, matrix, out=matrix)
    idx = np.arange(lattice.nsites)
    matrix[idx, idx] += mass_squared
    return matrix


def _stencil_apply(mass_squared, lattice: Lattice, field: np.ndarray) -> np.ndarray:
    """(mass_squared - Laplacian) field by periodic neighbour sums, in O(N).

    Terms accumulate in the order ``_mass_minus_laplacian`` adds matrix
    entries, so applied to a unit vector this returns the matrix column bit
    for bit.
    """
    shape = lattice.shape
    grid = field.reshape(shape + field.shape[1:])
    inv_a2 = 1.0 / lattice.spacing**2
    lap = np.zeros_like(grid)
    for ax in range(lattice.ndim):
        lap += inv_a2 * np.roll(grid, -1, axis=ax)  # field(x + e)
        lap += inv_a2 * np.roll(grid, 1, axis=ax)  # field(x - e)
        lap -= 2.0 * inv_a2 * grid
    mass = np.reshape(mass_squared, np.shape(mass_squared) + (1,) * (field.ndim - 1))
    # 0.0 - lap, not -lap: like the matrix build, it leaves no negative zeros
    return (0.0 - lap).reshape(field.shape) + mass * field


def build_klein_gordon(mass: float, lattice: Lattice) -> ROperator:
    """R = mass^2 - Laplacian (3-point central stencil per axis, periodic).

    Raises AxiomError for mass <= 0: the constant mode would then have a
    nonpositive eigenvalue, breaking strict positivity.
    """
    if not mass > 0:
        raise AxiomError(
            f"mass must be strictly positive (got {mass}); the constant mode "
            "would violate strict positivity of R"
        )
    return ROperator(lattice, stencil_radius=1, mass_squared=mass**2)


def build_variable_coefficient(mass_field: np.ndarray, lattice: Lattice) -> ROperator:
    """KG stencil with a site-dependent mass: diagonal m(x)^2 + 2*ndim/spacing^2."""
    m = np.asarray(mass_field, dtype=float).reshape(-1)
    if m.shape[0] != lattice.nsites:
        raise ValueError(
            f"mass_field has {m.shape[0]} samples for {lattice.nsites} sites"
        )
    if np.any(m <= 0):
        raise AxiomError("mass_field must be strictly positive everywhere")
    return ROperator(lattice, stencil_radius=1, mass_squared=m**2)


def klein_gordon_symbol_eigenvalues(mass: float, lattice: Lattice) -> np.ndarray:
    """Closed-form circulant eigenvalues m^2 + sum_ax (2 - 2 cos(2 pi j/N))/a^2.

    Returned in ascending order; used as an independent cross-check on the
    FFT symbol that ``diagonalize`` reads off the matrix.
    """
    coords = lattice.site_coords()
    vals = np.full(lattice.nsites, mass**2)
    for ax, n in enumerate(lattice.shape):
        k = 2.0 * np.pi * coords[:, ax] / n
        vals += (2.0 - 2.0 * np.cos(k)) / lattice.spacing**2
    return np.sort(vals)


def _is_translation_invariant(op: ROperator) -> bool:
    """True when matrix[x + e, y + e] == matrix[x, y] exactly for every axis step e.

    The stencil form is invariant exactly when its mass is one value; an
    explicit matrix is compared with its one-step rolls.
    """
    if op.mass_squared is not None:
        mass = np.ravel(op.mass_squared)
        return bool(np.all(mass == mass[0]))
    shape = op.lattice.shape
    ndim = len(shape)
    grid = op.matrix.reshape(shape + shape)
    return all(
        np.array_equal(grid, np.roll(grid, 1, axis=(ax, ndim + ax)))
        for ax in range(ndim)
    )


def diagonalize(op: ROperator) -> Spectrum:
    """Full eigendecomposition; raises AxiomError if strict positivity fails.

    Eigenvalues ascend; eigenvectors are L2-orthonormalized. A translation
    invariant operator is diagonalized in closed form: its eigenvalues are the
    FFT of R applied to the unit vector at site 0 (by symmetry, matrix row 0,
    which the stencil form never builds), and each degenerate subspace (the
    +-k pairs and any accidental coincidences) gets the real Hartley modes
    cas(2 pi k.x/N) of its wavevectors, in stable ascending order of the
    symbol. Every other operator goes to the dense solver, and degenerate
    subspaces come back with the (deterministic) basis it picks.
    """
    lattice = op.lattice
    if _is_translation_invariant(op):
        row = op.matrix[0] if op.mass_squared is None else op.apply(_unit(lattice, 0))
        symbol = np.fft.fftn(row.reshape(lattice.shape)).real.reshape(-1)
        modes = np.argsort(symbol, kind="stable")
        vals, dense = symbol[modes], None
    else:
        vals, vecs = np.linalg.eigh(op.matrix)
        dense, modes = vecs / math.sqrt(lattice.cell), None
    floor = POSITIVITY_FLOOR * max(vals[-1], 0.0)
    if vals[0] <= floor:
        raise AxiomError(
            f"smallest eigenvalue {vals[0]:.3e} is not strictly positive "
            f"(floor {floor:.3e}); operator violates strict positivity"
        )
    if modes is not None and lattice.nsites <= DENSE_TRANSFORM_MAX_SITES:
        dense = _hartley_basis(lattice, modes)
    return Spectrum(
        operator=op,
        eigenvalues=vals,
        frequencies=np.sqrt(vals),
        dense_basis=dense,
        hartley_modes=modes,
    )


def _unit(lattice: Lattice, site: int) -> np.ndarray:
    unit = np.zeros(lattice.nsites)
    unit[site] = 1.0
    return unit


def _is_nonneg_integer(x: float) -> bool:
    return x >= 0 and abs(x - round(x)) < 1e-12


def fractional_power(spec: Spectrum, exponent: float) -> ROperator:
    """Dense R^exponent.

    Nonnegative integer exponents are computed by repeated multiplication of
    the original matrix so strict locality is exact (entries beyond
    stencil_radius * exponent are identical zeros). Everything else goes
    through the spectral sum sum_k omega_k^(2 exponent) f_k f_k^T.
    """
    lattice = spec.lattice
    if _is_nonneg_integer(exponent):
        n = int(round(exponent))
        matrix = np.linalg.matrix_power(spec.operator.matrix, n)
        base_radius = spec.operator.stencil_radius
        radius = None if base_radius is None else base_radius * n
        return ROperator(lattice=lattice, matrix=matrix, stencil_radius=radius)
    weights = spec.eigenvalues**exponent
    matrix = (spec.basis * weights) @ spec.basis.T * lattice.cell
    matrix = 0.5 * (matrix + matrix.T)
    return ROperator(lattice=lattice, matrix=matrix, stencil_radius=None)


# ---------------------------------------------------------------------------
# kernel decay diagnostics
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class KernelProfile:
    """|R^lambda(source, y)| against minimum-image distance.

    Distances are binned (1e-9 rounding); each bin keeps its maximum
    magnitude, which is the conservative choice for decay fits.
    """

    source: int
    exponent: float
    distances: np.ndarray
    values: np.ndarray


@dataclasses.dataclass(frozen=True)
class DecayFit:
    """Log-linear decay fit: |kernel| ~ exp(-d / length).

    quality_ok is set when the fit succeeded (negative slope, enough samples)
    and the RMS residual of the log values stays below 0.5.
    """

    length: float
    window: tuple[float, float]
    rms_log_residual: float
    quality_ok: bool
    nsamples: int
    slope: float


def bin_by_distance(distances: np.ndarray, values: np.ndarray):
    """Group values by rounded distance, keeping max |value| per bin."""
    keys = np.round(np.asarray(distances, dtype=float) / DISTANCE_BIN).astype(np.int64)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    mags = np.abs(np.asarray(values))[order]
    uniq, starts = np.unique(keys, return_index=True)
    out_d = uniq.astype(float) * DISTANCE_BIN
    out_v = np.maximum.reduceat(mags, starts)
    return out_d, out_v


def kernel_profile(spec: Spectrum, exponent: float, source: int) -> KernelProfile:
    """Profile of the R^exponent kernel as seen from one source site.

    A nonnegative integer exponent n applies R n times to the unit vector at
    the source, so entries beyond n * stencil_radius stay exact zeros.
    """
    lattice = spec.lattice
    if _is_nonneg_integer(exponent):
        column = _unit(lattice, source)
        for _ in range(int(round(exponent))):
            column = spec.operator.apply(column)
        column = column / lattice.cell
    else:
        column = spec.kernel_column(lambda lam: lam**exponent, source)
    out_d, out_v = bin_by_distance(lattice.distances_from(source), column)
    return KernelProfile(
        source=source, exponent=exponent, distances=out_d, values=out_v
    )


def log_linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line through (x, ln y): slope, intercept, RMS residual."""
    logy = np.log(y)
    slope, intercept = np.polyfit(x, logy, 1)
    resid = logy - (slope * x + intercept)
    return float(slope), float(intercept), float(np.sqrt(np.mean(resid**2)))


def fit_decay_length(
    distances: np.ndarray, values: np.ndarray, window: tuple[float, float]
) -> DecayFit:
    """Least-squares fit of ln|values| vs distance over the window.

    Returns a failed fit (quality_ok False, length nan) rather than raising
    when there are fewer than 6 strictly positive samples or the slope is
    nonnegative.
    """
    d_min, d_max = window
    distances = np.asarray(distances, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = (distances >= d_min) & (distances <= d_max) & (values > 0)
    d = distances[mask]
    if d.size < 6:
        slope = rms = float("nan")
    else:
        slope, _, rms = log_linear_fit(d, values[mask])
    ok = slope < 0 and rms < 0.5
    return DecayFit(
        length=-1.0 / slope if slope < 0 else float("nan"),
        window=(float(d_min), float(d_max)),
        rms_log_residual=rms,
        quality_ok=bool(ok),
        nsamples=int(d.size),
        slope=slope,
    )
