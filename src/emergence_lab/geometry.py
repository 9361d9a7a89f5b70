"""Complex and symplectic geometry of the classical solution space.

The space of phase points (phi, pi) carries three compatible structures:

* a complex structure J(phi, pi) = (-R^{-1/2} pi, R^{1/2} phi), which acts on
  mode amplitudes as alpha -> i alpha;
* a symplectic form Omega(u, v) = (1/2) Int (pi_u phi_v - phi_u pi_v);
* a Hermitian inner product <<u, v>> = sum_k conj(alpha_k) alpha'_k.

The inner product has four public routes, each a function of exactly what
it reads, and all four agree to rounding, which is what ``tests`` pin down;
none is an approximation of another:

* ``alpha_form(a, b)``: sum_k conj(alpha_k) alpha'_k, from the two
  points' mode amplitudes a and b (``to_modes``);
* ``qp_form(a, b)``: (1/2) sum_k (q q' + p p') + (i/2) sum_k (q p' - p q'),
  from the same amplitudes, with q = sqrt(2) Re alpha, p = sqrt(2) Im alpha;
* ``direct_form(u, v, jv)``: (1/2) Int (phi R^{1/2} phi' + pi R^{-1/2} pi')
  + (i/2) Int (phi pi' - pi phi'), from the fields of u, v and J v;
* ``segal_form(u, v, ju)``: Omega(Ju, v) - i Omega(u, v), the inner product
  rebuilt from the symplectic form alone.

A caller transforms each point once (``to_modes``, ``apply_J``) and hands
the results to every form that reads them. At every lattice size, "direct"
and "segal" still share no transform with "alpha" and "qp": J applies
R^{+-1/2} as Fourier multipliers, while the mode amplitudes come through
Hartley transforms.

Every function takes a block of phase points, (sites x k) fields with one
point per column (see ``modes``), as readily as one point, and the two
amplitude forms a (modes x k) block of amplitudes: J and the right-hand side
map a block column by column, and Omega and the inner products return one
value per column pair.
"""
from __future__ import annotations

import math

import numpy as np

from .modes import PhaseVector, _check_same_lattice, _column_dot
from .spectral import Spectrum


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


def alpha_form(a: np.ndarray, b: np.ndarray) -> complex | np.ndarray:
    """<<u, v>> = sum_k conj(alpha_k) alpha'_k, from the two points' amplitudes."""
    return _column_dot(a, b)


def qp_form(a: np.ndarray, b: np.ndarray) -> complex | np.ndarray:
    """<<u, v>> = (1/2) sum_k (q q' + p p') + (i/2) sum_k (q p' - p q')."""
    qa, pa = math.sqrt(2.0) * a.real, math.sqrt(2.0) * a.imag
    qb, pb = math.sqrt(2.0) * b.real, math.sqrt(2.0) * b.imag
    re = 0.5 * (_column_dot(qa, qb) + _column_dot(pa, pb))
    im = 0.5 * (_column_dot(qa, pb) - _column_dot(pa, qb))
    return _complex(re, im)


def direct_form(u: PhaseVector, v: PhaseVector, jv: PhaseVector) -> complex | np.ndarray:
    """<<u, v>> from the fields of u, v and J v.

    (J v).pi is R^{1/2} phi' and -(J v).phi is R^{-1/2} pi', so J v holds
    both smeared fields the real part reads.
    """
    _check_same_lattice(u.lattice, v.lattice)
    cell = u.lattice.cell
    re = 0.5 * (_column_dot(u.phi, jv.pi) - _column_dot(u.pi, jv.phi)) * cell
    im = 0.5 * (_column_dot(u.phi, v.pi) - _column_dot(u.pi, v.phi)) * cell
    return _complex(re, im)


def segal_form(u: PhaseVector, v: PhaseVector, ju: PhaseVector) -> complex | np.ndarray:
    """<<u, v>> rebuilt from the symplectic form: Omega(Ju, v) - i Omega(u, v)."""
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
