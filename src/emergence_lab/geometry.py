"""Complex and symplectic geometry of the classical solution space.

The space of phase points (phi, pi) carries three compatible structures:

* a complex structure J(phi, pi) = (-R^{-1/2} pi, R^{1/2} phi), which acts on
  mode amplitudes as alpha -> i alpha;
* a symplectic form Omega(u, v) = (1/2) Int (pi_u phi_v - phi_u pi_v);
* a Hermitian inner product <<u, v>> = sum_k conj(alpha_k) alpha'_k.

The inner product can be evaluated three ways (mode amplitudes, canonical
coordinates, or directly from the fields) and recovered from Omega alone via
<<u, v>> = Omega(Ju, v) - i Omega(u, v). All four routes agree to rounding,
which is what ``tests`` pin down; none is an approximation of another.
Above 256 sites (``spectral.DENSE_TRANSFORM_MAX_SITES``) the "direct" form
shares no transform with "alpha" and "qp": it applies R^{+-1/2} as Fourier
multipliers, while they read mode coordinates through Hartley transforms.

Every function takes a block of phase points, (sites x k) fields with one
point per column (see ``modes``), as readily as one point: J and the
right-hand side map it column by column, and Omega and the inner products
return one value per column pair.
"""
from __future__ import annotations

import numpy as np

from .modes import PhaseVector, _check_same_lattice, _column_dot, to_modes
from .spectral import Spectrum

INNER_PRODUCT_FORMS = ("alpha", "qp", "direct")


def apply_J(u: PhaseVector, spec: Spectrum) -> PhaseVector:
    """Complex structure: (phi, pi) -> (-R^{-1/2} pi, R^{1/2} phi)."""
    _check_same_lattice(u.lattice, spec.lattice)
    return PhaseVector(
        lattice=u.lattice,
        phi=-spec.apply_power(-0.5, u.pi),
        pi=spec.apply_power(0.5, u.phi),
    )


def _complex(re, im):
    """re + i im as stored pairs, with no 0 * inf from a product with 1j."""
    return np.stack((re, im), axis=-1).view(complex)[..., 0][()]


def symplectic(u: PhaseVector, v: PhaseVector) -> float | np.ndarray:
    """Omega(u, v) = (1/2) Int (pi_u phi_v - phi_u pi_v)."""
    _check_same_lattice(u.lattice, v.lattice)
    return 0.5 * (_column_dot(u.pi, v.phi) - _column_dot(u.phi, v.pi)) * u.lattice.cell


def inner_product(
    u: PhaseVector, v: PhaseVector, spec: Spectrum, form: str = "alpha"
) -> complex | np.ndarray:
    """Hermitian inner product <<u, v>>, antilinear in u.

    form="alpha": sum_k conj(alpha_k) alpha'_k.
    form="qp": (1/2) sum_k (q q' + p p') + (i/2) sum_k (q p' - p q').
    form="direct": (1/2) Int (phi R^{1/2} phi' + pi R^{-1/2} pi')
                 + (i/2) Int (phi pi' - pi phi').
    """
    _check_same_lattice(u.lattice, v.lattice)
    _check_same_lattice(u.lattice, spec.lattice)
    if form == "alpha":
        return _column_dot(to_modes(u, spec).alpha, to_modes(v, spec).alpha)
    if form == "qp":
        mu = to_modes(u, spec)
        mv = to_modes(v, spec)
        re = 0.5 * (_column_dot(mu.q, mv.q) + _column_dot(mu.p, mv.p))
        im = 0.5 * (_column_dot(mu.q, mv.p) - _column_dot(mu.p, mv.q))
        return _complex(re, im)
    if form == "direct":
        cell = u.lattice.cell
        re = 0.5 * (
            _column_dot(u.phi, spec.apply_power(0.5, v.phi))
            + _column_dot(u.pi, spec.apply_power(-0.5, v.pi))
        ) * cell
        im = 0.5 * (_column_dot(u.phi, v.pi) - _column_dot(u.pi, v.phi)) * cell
        return _complex(re, im)
    raise ValueError(f"unknown inner-product form {form!r}; use one of {INNER_PRODUCT_FORMS}")


def segal_inner_product(
    u: PhaseVector, v: PhaseVector, spec: Spectrum
) -> complex | np.ndarray:
    """<<u, v>> rebuilt from the symplectic form: Omega(Ju, v) - i Omega(u, v)."""
    ju = apply_J(u, spec)
    return _complex(symplectic(ju, v), -symplectic(u, v))


def schrodinger_rhs(u: PhaseVector, spec: Spectrum) -> PhaseVector:
    """Right-hand side of du/dt = -J R^{1/2} u, i.e. (pi, -R phi).

    Differentiating the exact evolution at t = 0 gives phi_dot = pi and
    pi_dot = -R phi; the same vector equals -J applied to R^{1/2} u, which is
    the first-order form the mode rotation integrates exactly.
    """
    _check_same_lattice(u.lattice, spec.lattice)
    half = PhaseVector(
        lattice=u.lattice,
        phi=spec.apply_power(0.5, u.phi),
        pi=spec.apply_power(0.5, u.pi),
    )
    ju = apply_J(half, spec)
    return PhaseVector(lattice=u.lattice, phi=-ju.phi, pi=-ju.pi)
