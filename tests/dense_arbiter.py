"""Dense references for the Klein-Gordon operator R and the Fock ladders.

The package applies R = mass_squared - Laplacian by periodic neighbour sums
(``np.roll``). This module writes the same operator out entry by entry, by
scattering the 3-point stencil weights at the raveled neighbour indices of
each site, so a test that compares the two does not compare the stencil code
with itself. Powers of R come from ``numpy.linalg.eigh`` of that dense
matrix, never from a package ``Spectrum``, and its eigenvalues also have a
closed form, the circulant symbol written out per axis. Its eigenfunctions,
the Hartley modes, are tabulated in closed form too, with their phases reduced
in integers, so no FFT is involved. For roundoff comparisons a power of R is
also summed over its Fourier modes in long double.

The Fock oracle applies its ladder operators to amplitudes viewed as a
tensor with one axis per mode, shifting along that mode's axis. Here the
ladder operators are dense matrices instead: the one-mode matrix is written
entry by entry and joined to identities on the other modes by ``np.kron``,
so no tensor or axis arithmetic is shared.
"""

from functools import reduce

import numpy as np


def klein_gordon_matrix(lattice, mass_squared) -> np.ndarray:
    """mass_squared on the diagonal minus the Laplacian.

    Entries add in the order the stencil sums its terms (+ neighbour,
    - neighbour, centre, axis by axis), so the result matches the package's
    ``ROperator.matrix`` bit for bit.
    """
    n = lattice.nsites
    lap = np.zeros((n, n))
    inv_a2 = 1.0 / lattice.spacing**2
    coords = lattice.site_coords()
    rows = np.arange(n)
    for ax in range(lattice.ndim):
        step = np.zeros(lattice.ndim, dtype=int)
        step[ax] = 1
        plus = np.ravel_multi_index(((coords + step) % lattice.shape).T, lattice.shape)
        minus = np.ravel_multi_index(((coords - step) % lattice.shape).T, lattice.shape)
        lap[rows, plus] += inv_a2
        lap[rows, minus] += inv_a2
        lap[rows, rows] -= 2.0 * inv_a2
    matrix = 0.0 - lap
    matrix[rows, rows] += mass_squared
    return matrix


def klein_gordon_symbol_eigenvalues(mass: float, lattice) -> np.ndarray:
    """Closed-form circulant eigenvalues m^2 + sum_ax (2 - 2 cos(2 pi j/N))/a^2.

    Returned in ascending order; an independent cross-check on the FFT
    symbol that ``diagonalize`` reads off R applied to a unit vector.
    """
    coords = lattice.site_coords()
    vals = np.full(lattice.nsites, mass**2)
    for ax, n in enumerate(lattice.shape):
        k = 2.0 * np.pi * coords[:, ax] / n
        vals += (2.0 - 2.0 * np.cos(k)) / lattice.spacing**2
    return np.sort(vals)


def hartley_table(lattice, modes) -> np.ndarray:
    """Columns cas(2 pi k.x/N) / sqrt(N cell) for flat wavevector indices ``modes``.

    These are the eigenfunctions f_k of a translation-invariant R, in the
    order a spectrum lists them when ``modes`` is its ``hartley_modes``. The
    phase k.x/N is reduced exactly in integers, so each entry is a correctly
    rounded table value.
    """
    n = lattice.nsites
    coords = lattice.site_coords()
    wavevectors = coords[np.asarray(modes)]
    phase = np.zeros((n, len(wavevectors)), dtype=np.int64)
    for ax, extent in enumerate(lattice.shape):
        term = np.multiply.outer(coords[:, ax], wavevectors[:, ax])
        term %= extent
        term *= n // extent
        phase += term
    phase %= n
    angle = 2.0 * np.pi * np.arange(n) / n
    cas = (np.cos(angle) + np.sin(angle)) / np.sqrt(n * lattice.cell)
    return cas[phase]


def dense_function(matrix: np.ndarray, f) -> np.ndarray:
    """f(matrix) of a symmetric matrix, through ``eigh``; f may be complex."""
    vals, vecs = np.linalg.eigh(matrix)
    return (vecs * f(vals)) @ vecs.T


def dense_power(matrix: np.ndarray, exponent: float) -> np.ndarray:
    """matrix^exponent of a symmetric positive matrix, through ``eigh``."""
    return dense_function(matrix, lambda vals: vals**exponent)


def longdouble_power(lattice, mass: float, exponent: float, field) -> np.ndarray:
    """R^exponent field for Klein-Gordon R, as a Fourier sum in long double.

    Sums the real Fourier modes cas(2 pi k.x/N) = cos + sin directly, with
    the closed-form eigenvalue of each wavevector, in numpy's long double
    (80-bit extended precision on x86). Phases k.x are reduced exactly in
    integers before the trigonometric tables are read, so the result is a
    reference for double-precision transforms, not another one of them.
    """
    ld = np.longdouble
    n = lattice.nsites
    coords = lattice.site_coords()
    phase = np.zeros((n, n), dtype=np.int64)
    for ax, extent in enumerate(lattice.shape):
        term = np.multiply.outer(coords[:, ax], coords[:, ax]) % extent
        phase += term * (n // extent)
    phase %= n
    two_pi = 8 * np.arctan(ld(1))
    angle = two_pi * np.arange(n, dtype=ld) / n
    cas = (np.cos(angle) + np.sin(angle))[phase]
    vals = np.full(n, ld(mass) ** 2)
    for ax, extent in enumerate(lattice.shape):
        k = two_pi * coords[:, ax].astype(ld) / extent
        vals += (2 - 2 * np.cos(k)) / ld(lattice.spacing) ** 2
    coeffs = vals ** ld(exponent) * (cas.T @ np.asarray(field, dtype=ld))
    return cas @ coeffs / n


def dense_fock_lowering(nmodes: int, n_max: int) -> list[np.ndarray]:
    """Lowering matrix of each mode on the C-ordered product of 0..n_max.

    One mode has a[n-1, n] = sqrt(n); mode j of several is that matrix in
    the j-th Kronecker factor (first mode outermost) and identities
    elsewhere.
    """
    single = np.zeros((n_max + 1, n_max + 1))
    for n in range(1, n_max + 1):
        single[n - 1, n] = np.sqrt(n)
    eye = np.eye(n_max + 1)
    lowering = []
    for j in range(nmodes):
        factors = [eye] * nmodes
        factors[j] = single
        lowering.append(reduce(np.kron, factors))
    return lowering
