"""Operator calculus on periodic lattices.

Builds the spatial operator R of the linear field equation ``phi_tt + R phi = 0``
as a symmetric operator over lattice sites: a mass term beside the 3-point
Laplacian stencil, applied by neighbour sums and made dense only on request.
It exposes R's spectral decomposition, arbitrary real powers R^lambda, and
tools to measure how fast the kernels of those powers decay with distance.
A decay fit only measures: the bounds that judge its length and residual
are the experiments' constants.
The mass is one value for every site, so R is translation invariant and
has one transform route at every size: closed-form Fourier modes and FFTs.

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

    ``mass_squared`` is one float for every site (an array is refused), so R
    is translation invariant; the Laplacian is the 3-point central stencil
    per axis with periodic wrap. ``apply`` is an O(N) neighbour sum, and the
    dense ``matrix`` is built from it on first read. The + and - neighbour
    weights are equal, so R is symmetric by construction. Equality is
    identity.
    """

    lattice: Lattice
    mass_squared: float

    def __post_init__(self):
        object.__setattr__(self, "mass_squared", float(self.mass_squared))

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
        # 0.0 - lap, not -lap: it leaves no negative zeros
        return (0.0 - lap).reshape(field.shape) + self.mass_squared * field


@dataclasses.dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of an ROperator.

    The eigenfunctions f_k are orthonormal under the discrete L2 product;
    ``eigenvalues`` (omega_k^2) ascend and are strictly positive;
    ``frequencies`` are their positive square roots.

    R is translation invariant, so f_k is the real Fourier (Hartley) mode
    cas(2 pi q.x/N) / sqrt(N cell) of flat wavevector index
    q = ``hartley_modes[k]``; no other module reads that field.
    ``project``/``synthesize`` are FFTs, and f(R) is f of the symbol (the
    eigenvalues placed through ``hartley_modes``) times the field's DFT; no
    N x N table of the modes is ever built. Mode coordinates go through
    ``project``/``synthesize``; every kernel column, and so every locality
    measurement, reaches f(R) through ``apply_function``.
    """

    operator: ROperator
    eigenvalues: np.ndarray
    frequencies: np.ndarray
    hartley_modes: np.ndarray

    @property
    def lattice(self) -> Lattice:
        return self.operator.lattice

    @property
    def nmodes(self) -> int:
        return len(self.eigenvalues)

    def project(self, field: np.ndarray) -> np.ndarray:
        """L2 coefficients <f_k, field> for every mode."""
        coeffs = _hartley(field, self.lattice.shape)[self.hartley_modes]
        coeffs *= math.sqrt(self.lattice.cell / self.lattice.nsites)
        return coeffs

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Field sum_k coeffs[k] f_k."""
        field = _hartley(self._on_grid(coeffs), self.lattice.shape)
        field *= 1.0 / math.sqrt(self.lattice.nsites * self.lattice.cell)
        return field

    def apply_function(self, f, field: np.ndarray) -> np.ndarray:
        """Apply f(R) to a field: sum_k f(lambda_k) <f_k, field> f_k.

        A 2-D field is a batch of fields, one per column. f(R) is a Fourier
        multiplier, applied by one real-FFT pair when the weights and the
        field are real.
        """
        batch = (1,) * (field.ndim - 1)
        shape = self.lattice.shape
        grid = field.reshape(shape + field.shape[1:])
        weights = f(self._symbol_grid)
        # the spectrum is weighted in place, weights first: the reversed
        # complex product rounds differently
        if np.iscomplexobj(weights) or np.iscomplexobj(field):
            spread = _dft(grid.astype(complex), len(shape))
            np.multiply(weights.reshape(shape + batch), spread, out=spread)
            out = _dft(spread, len(shape), inverse=True)
        else:
            # the real-FFT half grid: the last axis up to its Nyquist index
            half = weights[..., : shape[-1] // 2 + 1]
            spread = _real_dft(grid, len(shape))
            np.multiply(half.reshape(half.shape + batch), spread, out=spread)
            out = _inverse_real_dft(spread, shape)
        return out.reshape(field.shape)

    def kernel_column(self, f, site: int) -> np.ndarray:
        """Integral kernel f(R)(y, site) = sum_k f(lambda_k) f_k(y) f_k(site).

        It is f(R) applied to the unit vector at the site, over the cell.
        """
        return self.apply_function(f, _unit(self.lattice, site)) / self.lattice.cell

    @functools.cached_property
    def _symbol_grid(self) -> np.ndarray:
        """Eigenvalues at their wavevectors, in the lattice's shape."""
        return self._on_grid(self.eigenvalues).reshape(self.lattice.shape)

    def _on_grid(self, coeffs: np.ndarray) -> np.ndarray:
        """Mode coefficients at their wavevectors' grid positions, zero elsewhere."""
        grid = np.zeros_like(coeffs, shape=(self.lattice.nsites,) + coeffs.shape[1:])
        grid[self.hartley_modes] = coeffs
        return grid

    def apply_power(self, exponent: float, field: np.ndarray) -> np.ndarray:
        """Apply R^exponent to a field through ``apply_function``."""
        return self.apply_function(lambda lam: lam**exponent, field)


def _hartley(values: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Unnormalized discrete Hartley transform over the leading site axis.

    ``H v(k) = sum_x v(x) cas(2 pi k.x/N)`` with cas = cos + sin, which is
    Re F - Im F of the DFT F for real v. H is symmetric and H^2 = N, so it
    also synthesizes. Complex v is transformed by parts: its real and
    imaginary parts by one real call each, straight into those of the result.
    """
    if np.iscomplexobj(values):
        out = np.empty(values.shape, complex)
        out.real = _hartley(values.real, shape)
        out.imag = _hartley(values.imag, shape)
        return out
    # transformed in place, so one complex copy is the only temporary
    spectrum = _dft(values.reshape(shape + values.shape[1:]).astype(complex), len(shape))
    return (spectrum.real - spectrum.imag).reshape(values.shape)


# One site axis goes straight to np.fft's 1-D transforms: the n-D ones make
# those same calls after cooking their axes, so the bits are the same and
# only the per-call overhead goes.

def _dft(spread: np.ndarray, ndim: int, inverse: bool = False) -> np.ndarray:
    """DFT, or its inverse, of a complex array over its leading ndim axes, in place."""
    if ndim == 1:
        return (np.fft.ifft if inverse else np.fft.fft)(spread, axis=0, out=spread)
    axes = tuple(range(ndim))
    return (np.fft.ifftn if inverse else np.fft.fftn)(spread, axes=axes, out=spread)


def _real_dft(grid: np.ndarray, ndim: int) -> np.ndarray:
    """Half spectrum of a real array over its leading ndim axes."""
    if ndim == 1:
        return np.fft.rfft(grid, axis=0)
    return np.fft.rfftn(grid, axes=tuple(range(ndim)))


def _inverse_real_dft(spread: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The real array of the given leading shape whose half spectrum is spread."""
    if len(shape) == 1:
        return np.fft.irfft(spread, n=shape[0], axis=0)
    return np.fft.irfftn(spread, s=shape, axes=tuple(range(len(shape))))


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


def diagonalize(op: ROperator) -> Spectrum:
    """Full eigendecomposition; raises AxiomError if strict positivity fails.

    Eigenvalues ascend; eigenvectors are L2-orthonormalized. R is translation
    invariant and is diagonalized in closed form: its eigenvalues are the FFT
    of R applied to the unit vector at site 0 (by symmetry, matrix row 0,
    which is never built), averaged over k and -k so that they are exactly
    even. Each degenerate subspace (the +-k pairs and any accidental
    coincidences) gets the real Hartley modes cas(2 pi k.x/N) of its
    wavevectors, in stable ascending order of the symbol; only their
    wavevector indices are stored.
    """
    lattice = op.lattice
    row = op.apply(_unit(lattice, 0))
    symbol = np.fft.fftn(row.reshape(lattice.shape)).real
    # R is symmetric, so its symbol is even in k, but the FFT's roundoff
    # is not; flipping and rolling by one maps k to -k
    axes = tuple(range(lattice.ndim))
    mirrored = np.roll(np.flip(symbol, axis=axes), 1, axis=axes)
    symbol = (0.5 * (symbol + mirrored)).reshape(-1)
    modes = np.argsort(symbol, kind="stable")
    vals = symbol[modes]
    floor = POSITIVITY_FLOOR * max(vals[-1], 0.0)
    if vals[0] <= floor:
        raise AxiomError(
            f"smallest eigenvalue {vals[0]:.3e} is not strictly positive "
            f"(floor {floor:.3e}); operator violates strict positivity"
        )
    return Spectrum(
        operator=op,
        eigenvalues=vals,
        frequencies=np.sqrt(vals),
        hartley_modes=modes,
    )


def _unit(lattice: Lattice, site: int) -> np.ndarray:
    unit = np.zeros(lattice.nsites)
    unit[site] = 1.0
    return unit


# ---------------------------------------------------------------------------
# kernel decay diagnostics
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class DecayFit:
    """Log-linear decay fit: |kernel| ~ exp(-d / length).

    A failed fit (too few samples, or a slope that is not negative) has a
    nan length; how small the RMS residual of the log values must be is the
    caller's bound, not the fit's.
    """

    length: float
    rms_log_residual: float
    nsamples: int


def bin_by_distance(distances: np.ndarray, values: np.ndarray):
    """Group values by rounded distance, keeping max |value| per bin."""
    keys = np.round(np.asarray(distances, dtype=float) / DISTANCE_BIN).astype(np.int64)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    mags = np.abs(np.asarray(values))[order]
    # a bin starts where the sorted key changes
    starts = np.flatnonzero(np.diff(keys, prepend=keys[:1] - 1))
    out_d = keys[starts].astype(float) * DISTANCE_BIN
    out_v = np.maximum.reduceat(mags, starts)
    return out_d, out_v


def log_linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line through (x, ln y): slope, intercept, RMS residual.

    Solved in closed form on centred x: with dx = x - mean(x), the slope is
    sum(dx (ln y - mean(ln y))) / sum(dx^2) and the intercept
    mean(ln y) - slope mean(x). Raises ValueError for fewer than two
    distinct x, where the line is not determined.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0 or np.all(x == x[0]):
        distinct = min(x.size, 1)
        raise ValueError(f"a line fit needs at least two distinct x, got {distinct}")
    logy = np.log(y)
    mean_x, mean_logy = x.mean(), logy.mean()
    dx = x - mean_x
    slope = np.sum(dx * (logy - mean_logy)) / np.sum(dx * dx)
    intercept = mean_logy - slope * mean_x
    resid = logy - (slope * x + intercept)
    return float(slope), float(intercept), float(np.sqrt(np.mean(resid**2)))


def fit_decay_length(
    distances: np.ndarray, values: np.ndarray, window: tuple[float, float]
) -> DecayFit:
    """Least-squares fit of ln|values| vs distance over the window.

    Returns a failed fit (length nan) rather than raising when there are
    fewer than 6 strictly positive samples or the slope is nonnegative.
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
    return DecayFit(
        length=-1.0 / slope if slope < 0 else float("nan"),
        rms_log_residual=rms,
        nsamples=int(d.size),
    )
