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
DISTANCE_BIN = 1e-9
# a decay fit is trusted only while the RMS residual of its log values stays
# strictly below this
FIT_RMS_MAX = 0.5
# Translation-invariant operators up to this many sites keep matrix-product
# transforms over a closed-form Hartley basis; above it they transform by FFT.
# Per call on a 2-vCPU Xeon (numpy 2.4, OpenBLAS), a real matvec costs
# 2.5/15/64 us at 64/256/512 sites and a real FFT transform 15/17/17 us;
# for complex fields the two cross near 128 sites.
DENSE_TRANSFORM_MAX_SITES = 256


class AxiomError(ValueError):
    """The operator violates a structural requirement (strict positivity)."""


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
        return math.prod(self.shape)

    @property
    def cell(self) -> float:
        """Volume of one lattice cell, spacing**ndim (the quadrature weight)."""
        return float(self.spacing) ** self.ndim

    def site_coords(self) -> np.ndarray:
        """Integer coordinates of all sites, shape (nsites, ndim), C order."""
        grids = np.indices(self.shape).reshape(self.ndim, -1).T
        return grids

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


# ---------------------------------------------------------------------------
# the operator R and its spectrum
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, eq=False)
class ROperator:
    """R = mass_squared - Laplacian over lattice sites (application form).

    ``mass_squared`` is a scalar, or one value per site; the Laplacian is the
    3-point central stencil per axis with periodic wrap. ``apply`` is an O(N)
    neighbour sum, and the dense ``matrix`` is built from it on first read.
    The + and - neighbour weights are equal, so R is symmetric by
    construction. Equality is identity.
    """

    lattice: Lattice
    mass_squared: float | np.ndarray

    def __post_init__(self):
        n = self.lattice.nsites
        mass = np.asarray(self.mass_squared, dtype=float)
        if mass.ndim and mass.size != n:
            raise ValueError(f"mass_squared has {mass.size} values for {n} sites")
        object.__setattr__(
            self, "mass_squared", mass.reshape(-1) if mass.ndim else float(mass)
        )

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """Dense matrix, built on first read as R applied to the identity."""
        return self.apply(np.eye(self.lattice.nsites))

    def apply(self, field: np.ndarray) -> np.ndarray:
        """R field, for a field indexed by site along its leading axis."""
        shape = self.lattice.shape
        grid = field.reshape(shape + field.shape[1:])
        inv_a2 = 1.0 / self.lattice.spacing**2
        lap = np.zeros_like(grid)
        for ax in range(self.lattice.ndim):
            lap += inv_a2 * np.roll(grid, -1, axis=ax)  # field(x + e)
            lap += inv_a2 * np.roll(grid, 1, axis=ax)  # field(x - e)
            lap -= 2.0 * inv_a2 * grid
        mass = np.reshape(
            self.mass_squared, np.shape(self.mass_squared) + (1,) * (field.ndim - 1)
        )
        # 0.0 - lap, not -lap: it leaves no negative zeros
        return (0.0 - lap).reshape(field.shape) + mass * field


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
    closed form on first access and ``apply_function`` skips the modes: f(R)
    is then f of the symbol on the wavevector grid (the eigenvalues placed
    through ``hartley_modes``) times the field's DFT.
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
            coeffs = _real_matmul(self.dense_basis.T, field)
            coeffs *= self.lattice.cell
        else:
            coeffs = _hartley(field, self.lattice.shape)[self.hartley_modes]
            coeffs *= math.sqrt(self.lattice.cell / self.nmodes)
        return coeffs

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Field sum_k coeffs[k] f_k."""
        if self.dense_basis is not None:
            return _real_matmul(self.dense_basis, coeffs)
        field = _hartley(self._on_grid(coeffs), self.lattice.shape)
        field *= 1.0 / math.sqrt(self.nmodes * self.lattice.cell)
        return field

    def apply_function(self, f, field: np.ndarray) -> np.ndarray:
        """Apply f(R) to a field: sum_k f(lambda_k) <f_k, field> f_k.

        A 2-D field is a batch of fields, one per column. On the FFT route
        f(R) is a Fourier multiplier, applied by one real-FFT pair when the
        weights and the field are real.
        """
        batch = (1,) * (field.ndim - 1)
        if self.dense_basis is not None:
            weights = f(self.eigenvalues).reshape((self.nmodes,) + batch)
            # keep this order: the reversed complex product rounds differently
            return self.synthesize(self.project(field) * weights)
        shape = self.lattice.shape
        axes = tuple(range(len(shape)))
        grid = field.reshape(shape + field.shape[1:])
        weights = f(self._symbol_grid)
        # the spectrum is weighted in place, weights first: the reversed
        # complex product rounds differently
        if np.iscomplexobj(weights) or np.iscomplexobj(field):
            spread = grid.astype(complex)
            np.fft.fftn(spread, axes=axes, out=spread)
            np.multiply(weights.reshape(shape + batch), spread, out=spread)
            out = np.fft.ifftn(spread, axes=axes, out=spread)
        else:
            # the real-FFT half grid: the last axis up to its Nyquist index
            half = weights[..., : shape[-1] // 2 + 1]
            spread = np.fft.rfftn(grid, axes=axes)
            np.multiply(half.reshape(half.shape + batch), spread, out=spread)
            out = np.fft.irfftn(spread, s=shape, axes=axes)
        return out.reshape(field.shape)

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

    @functools.cached_property
    def _symbol_grid(self) -> np.ndarray:
        """Eigenvalues at their wavevectors, in the lattice's shape."""
        return self._on_grid(self.eigenvalues).reshape(self.lattice.shape)

    def _on_grid(self, coeffs: np.ndarray) -> np.ndarray:
        """Mode coefficients moved to their wavevectors' flat grid positions."""
        grid = np.empty_like(coeffs)
        grid[self.hartley_modes] = coeffs
        return grid

    def apply_power(self, exponent: float, field: np.ndarray) -> np.ndarray:
        """Apply R^exponent to a field through the eigenbasis."""
        return self.apply_function(lambda lam: lam**exponent, field)


def _real_matmul(matrix: np.ndarray, values: np.ndarray) -> np.ndarray:
    """matrix @ values for a real square matrix and a field or (sites x k) block.

    A complex block is multiplied as one real (sites x 2k) block of its real
    and imaginary parts side by side (its float view), so the matrix is
    never cast to complex. At 64 sites on a 2-vCPU Xeon that took a complex
    projection from 10.7 to about 7 us, and a 64 x 8 block from 19 to 10.7 us.
    """
    if not np.iscomplexobj(values):
        return matrix @ values
    pairs = np.ascontiguousarray(values, dtype=complex).reshape(len(values), -1)
    return (matrix @ pairs.view(float)).view(complex).reshape(values.shape)


def _hartley(values: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Unnormalized discrete Hartley transform over the leading site axis.

    ``H v(k) = sum_x v(x) cas(2 pi k.x/N)`` with cas = cos + sin, which is
    Re F - Im F of the DFT F for real v. H is symmetric and H^2 = N, so it
    also synthesizes. Complex v is transformed by parts.
    """
    if np.iscomplexobj(values):
        out = np.empty(values.shape, dtype=complex)
        out.real = _hartley(values.real, shape)
        out.imag = _hartley(values.imag, shape)
        return out
    # transformed in place, so one complex copy is the only temporary
    spectrum = values.reshape(shape + values.shape[1:]).astype(complex)
    np.fft.fftn(spectrum, axes=tuple(range(len(shape))), out=spectrum)
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
    return ROperator(lattice, mass**2)


def build_variable_coefficient(mass_field: np.ndarray, lattice: Lattice) -> ROperator:
    """KG stencil with a site-dependent mass: diagonal m(x)^2 + 2*ndim/spacing^2."""
    m = np.asarray(mass_field, dtype=float).reshape(-1)
    if m.shape[0] != lattice.nsites:
        raise ValueError(
            f"mass_field has {m.shape[0]} samples for {lattice.nsites} sites"
        )
    if np.any(m <= 0):
        raise AxiomError("mass_field must be strictly positive everywhere")
    return ROperator(lattice, m**2)


def diagonalize(op: ROperator) -> Spectrum:
    """Full eigendecomposition; raises AxiomError if strict positivity fails.

    Eigenvalues ascend; eigenvectors are L2-orthonormalized. When the mass is
    one value R is translation invariant and is diagonalized in closed form:
    its eigenvalues are the FFT of R applied to the unit vector at site 0 (by
    symmetry, matrix row 0, which is never built), averaged over k and -k so
    that they are exactly even. Each degenerate subspace (the +-k pairs and
    any accidental coincidences) gets the real Hartley modes cas(2 pi k.x/N)
    of its wavevectors, in stable ascending order of the symbol. A mass that varies over the sites sends the dense
    matrix to the eigensolver, and degenerate subspaces come back with the
    (deterministic) basis it picks.
    """
    lattice = op.lattice
    mass = np.ravel(op.mass_squared)
    if np.all(mass == mass[0]):
        row = op.apply(_unit(lattice, 0))
        symbol = np.fft.fftn(row.reshape(lattice.shape)).real
        # R is symmetric, so its symbol is even in k, but the FFT's roundoff
        # is not; flipping and rolling by one maps k to -k
        axes = tuple(range(lattice.ndim))
        mirrored = np.roll(np.flip(symbol, axis=axes), 1, axis=axes)
        symbol = (0.5 * (symbol + mirrored)).reshape(-1)
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


# ---------------------------------------------------------------------------
# kernel decay diagnostics
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class KernelProfile:
    """|R^lambda(source, y)| against minimum-image distance.

    Distances are binned (1e-9 rounding); each bin keeps its maximum
    magnitude, which is the conservative choice for decay fits.
    """

    distances: np.ndarray
    values: np.ndarray


@dataclasses.dataclass(frozen=True)
class DecayFit:
    """Log-linear decay fit: |kernel| ~ exp(-d / length).

    quality_ok is set when the fit succeeded (negative slope, enough samples)
    and the RMS residual of the log values stays below FIT_RMS_MAX.
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
    the source, so entries more than n stencil steps away stay exact zeros.
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
    return KernelProfile(distances=out_d, values=out_v)


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
    ok = slope < 0 and rms < FIT_RMS_MAX
    return DecayFit(
        length=-1.0 / slope if slope < 0 else float("nan"),
        window=(float(d_min), float(d_max)),
        rms_log_residual=rms,
        quality_ok=bool(ok),
        nsamples=int(d.size),
        slope=slope,
    )
