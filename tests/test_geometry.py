"""Symplectic form, complex structure J and the one-particle inner product."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from emergence_lab.geometry import (
    alpha_form,
    apply_J,
    direct_form,
    qp_form,
    schrodinger_rhs,
    segal_form,
    symplectic,
)
from emergence_lab.modes import PhaseVector, evolve_state, to_modes
from emergence_lab.spectral import Lattice, build_klein_gordon, diagonalize

from dense_arbiter import dense_power, klein_gordon_matrix

LATTICE = Lattice((8,), spacing=0.5)
SPEC = diagonalize(build_klein_gordon(1.0, LATTICE))

finite_fields = arrays(
    dtype=float,
    shape=8,
    elements=st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
)


def state(phi, pi):
    return PhaseVector(lattice=LATTICE, phi=np.asarray(phi), pi=np.asarray(pi))


def random_state(seed):
    rng = np.random.default_rng(seed)
    return state(rng.normal(size=8), rng.normal(size=8))


def inner(u, v, spec=SPEC):
    """<<u, v>> by the alpha form, from freshly transformed points."""
    return alpha_form(to_modes(u, spec), to_modes(v, spec))


# ---------------------------------------------------------------------------
# complex structure
# ---------------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(finite_fields, finite_fields)
def test_J_squares_to_minus_identity(phi, pi):
    u = state(phi, pi)
    jju = apply_J(apply_J(u, SPEC), SPEC)
    assert_allclose(jju.phi, -u.phi, atol=1e-9)
    assert_allclose(jju.pi, -u.pi, atol=1e-9)


def test_J_rotates_alpha_by_i():
    u = random_state(0)
    alpha = to_modes(u, SPEC)
    alpha_j = to_modes(apply_J(u, SPEC), SPEC)
    assert_allclose(alpha_j, 1j * alpha, atol=1e-12)


def test_J_preserves_energy_norm():
    u = random_state(1)
    a = inner(u, u).real
    b = inner(apply_J(u, SPEC), apply_J(u, SPEC)).real
    assert_allclose(a, b, rtol=1e-12)


# ---------------------------------------------------------------------------
# symplectic form
# ---------------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(finite_fields, finite_fields, finite_fields, finite_fields)
def test_symplectic_antisymmetric(phi1, pi1, phi2, pi2):
    u, v = state(phi1, pi1), state(phi2, pi2)
    assert symplectic(u, v) == pytest.approx(-symplectic(v, u), abs=1e-9)


def test_symplectic_J_invariant():
    u, v = random_state(2), random_state(3)
    assert symplectic(apply_J(u, SPEC), apply_J(v, SPEC)) == pytest.approx(
        symplectic(u, v), rel=1e-12
    )


def test_symplectic_bilinear():
    u, v, w = random_state(4), random_state(5), random_state(6)
    lhs = symplectic(u + 2.0 * w, v)
    assert lhs == pytest.approx(symplectic(u, v) + 2.0 * symplectic(w, v), rel=1e-12)


def test_symplectic_vanishes_on_same_state():
    u = random_state(7)
    assert symplectic(u, u) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# inner product forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(10))
def test_three_forms_agree(seed):
    u, v = random_state(seed), random_state(seed + 100)
    mu, mv = to_modes(u, SPEC), to_modes(v, SPEC)
    f_alpha = alpha_form(mu, mv)
    f_qp = qp_form(mu, mv)
    f_direct = direct_form(u, v, apply_J(v, SPEC))
    assert_allclose(f_qp, f_alpha, rtol=1e-11, atol=1e-12)
    assert_allclose(f_direct, f_alpha, rtol=1e-11, atol=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_segal_reconstruction_matches(seed):
    u, v = random_state(seed), random_state(seed + 200)
    assert_allclose(
        segal_form(u, v, apply_J(u, SPEC)),
        inner(u, v),
        rtol=1e-11,
        atol=1e-12,
    )


def test_inner_product_hermitian():
    u, v = random_state(8), random_state(9)
    assert_allclose(inner(u, v), np.conj(inner(v, u)), rtol=1e-12)


def test_inner_product_positive_definite():
    u = random_state(10)
    val = inner(u, u)
    assert val.real > 0
    assert abs(val.imag) < 1e-12 * val.real


def test_inner_product_real_linear():
    u, v = random_state(11), random_state(12)
    assert_allclose(inner(3.0 * u, v), 3.0 * inner(u, v), rtol=1e-12)


def test_inner_product_imag_is_symplectic():
    # <<u, v>> = Omega(Ju, v) - i Omega(u, v)
    u, v = random_state(13), random_state(14)
    val = inner(u, v)
    assert val.imag == pytest.approx(-symplectic(u, v), rel=1e-11)
    assert val.real == pytest.approx(symplectic(apply_J(u, SPEC), v), rel=1e-11)


def test_inner_product_time_invariant():
    u, v = random_state(15), random_state(16)
    before = inner(u, v)
    after = inner(evolve_state(u, SPEC, 100.0), evolve_state(v, SPEC, 100.0))
    assert_allclose(after, before, rtol=1e-10)


@functools.lru_cache(maxsize=None)
def _dense_half_powers(shape):
    """R^{1/2} and R^{-1/2} of the m = 1 Klein-Gordon R, from dense eigh."""
    matrix = klein_gordon_matrix(Lattice(shape), 1.0)
    return dense_power(matrix, 0.5), dense_power(matrix, -0.5)


@pytest.mark.parametrize("shape", [(64,), (512,), (12, 12, 12)], ids=["64", "512", "12^3"])
@pytest.mark.parametrize("columns", [None, 3])
def test_form_helpers_on_shared_transforms_equal_inner_product(shape, columns):
    # the experiments transform each point once and hand the results to all
    # four forms; each must give <<u, v>> as a dense eigh of R writes it,
    # (1/2) Int (phi R^{1/2} phi' + pi R^{-1/2} pi') + (i/2) Int (phi pi' - pi phi'),
    # one point or a block
    spec = diagonalize(build_klein_gordon(1.0, Lattice(shape)))
    rng = np.random.default_rng(23)
    size = (spec.lattice.nsites,) + ((columns,) if columns else ())
    u, v = (PhaseVector(spec.lattice, rng.normal(size=size), rng.normal(size=size))
            for _ in range(2))
    mu, mv = to_modes(u, spec), to_modes(v, spec)
    ju, jv = apply_J(u, spec), apply_J(v, spec)
    shared = {
        "alpha": alpha_form(mu, mv),
        "qp": qp_form(mu, mv),
        "direct": direct_form(u, v, jv),
        "segal": segal_form(u, v, ju),
    }
    root, inv_root = _dense_half_powers(shape)

    def dense(a, b):
        re = np.sum(a.phi * (root @ b.phi) + a.pi * (inv_root @ b.pi), axis=0)
        im = np.sum(a.phi * b.pi - a.pi * b.phi, axis=0)
        return 0.5 * spec.lattice.cell * (re + 1j * im)

    norm_u, norm_v = dense(u, u).real, dense(v, v).real
    want = dense(u, v)
    for form, value in shared.items():
        assert np.shape(value) == np.shape(want), form
        assert np.all(np.abs(value - want) <= 1e-12 * np.sqrt(norm_u * norm_v)), form
    # the norm the nw experiment reads, from one point's amplitudes twice
    assert_allclose(alpha_form(mu, mu).real, norm_u, rtol=1e-12)


# ---------------------------------------------------------------------------
# Schrodinger-form dynamics
# ---------------------------------------------------------------------------

def test_rhs_equals_hamilton_equations():
    u = random_state(18)
    rhs = schrodinger_rhs(u, SPEC)
    assert_allclose(rhs.phi, u.pi, atol=1e-10)
    assert_allclose(rhs.pi, -SPEC.operator.apply(u.phi), atol=1e-10)


def test_rhs_generates_the_flow():
    # finite-difference derivative of the evolution matches the rhs
    u = random_state(19)
    h = 1e-6
    plus = evolve_state(u, SPEC, h)
    minus = evolve_state(u, SPEC, -h)
    dphi = (plus.phi - minus.phi) / (2.0 * h)
    dpi = (plus.pi - minus.pi) / (2.0 * h)
    rhs = schrodinger_rhs(u, SPEC)
    assert_allclose(dphi, rhs.phi, atol=1e-7)
    assert_allclose(dpi, rhs.pi, atol=1e-7)
