"""Tests for continuum kernel asymptotics and the lattice comparison."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import special

from emergence_lab import asymptotics
from emergence_lab.asymptotics import (
    RATE_SAMPLES,
    AsymptoticsError,
    SymbolPolynomial,
    branch_cut_kernel,
    direct_radial_integral,
    kernel_decay_rate,
)
from emergence_lab.experiments import ExperimentConfig, _lattice_vs_continuum
from emergence_lab.spectral import AxiomError

KG = SymbolPolynomial.klein_gordon(1.0)
TWO_FACTOR = SymbolPolynomial(coeffs=(4.0, 5.0, 1.0))  # (s + 1)(s + 4)


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------


def test_klein_gordon_symbol():
    sym = SymbolPolynomial.klein_gordon(2.5)
    assert sym.coeffs == (6.25, 1.0)
    assert sym(3.0) == pytest.approx(9.25)


def test_symbol_derivative():
    assert TWO_FACTOR.derivative(2.0) == pytest.approx(5.0 + 4.0)


def test_symbol_validation():
    with pytest.raises(ValueError, match="degree 0"):
        SymbolPolynomial(coeffs=(1.0,))
    with pytest.raises(ValueError, match="degree 3"):
        SymbolPolynomial(coeffs=(36.0, 49.0, 14.0, 1.0))
    with pytest.raises(ValueError, match="leading"):
        SymbolPolynomial(coeffs=(1.0, 0.0))
    with pytest.raises(AxiomError, match="positive at k = 0"):
        SymbolPolynomial(coeffs=(0.0, 1.0))
    with pytest.raises(AxiomError, match="mass"):
        SymbolPolynomial.klein_gordon(0.0)


def test_symbol_on_real_wavenumbers():
    # omega^2(k) = P(k^2)
    k = np.array([0.0, 1.0, 2.0])
    np.testing.assert_allclose(KG(k**2), [1.0, 2.0, 5.0])


def rescale_symbol(symbol: SymbolPolynomial, c: float) -> SymbolPolynomial:
    """Dilate lengths by c: each zero k_i maps to k_i / c.

    Coefficient a_j picks up c^{2j}, so P_c(s) = P(c^2 s) and the Compton
    length scales by exactly c.
    """
    if c <= 0:
        raise ValueError("scale factor must be positive")
    return SymbolPolynomial(
        coeffs=tuple(a * c ** (2 * j) for j, a in enumerate(symbol.coeffs))
    )


@pytest.mark.parametrize("c", [0.5, 2.0, 3.0])
def test_rescale_moves_compton_exactly(c):
    assert rescale_symbol(KG, c).compton == pytest.approx(c, rel=1e-14)


def test_rescale_coefficient_law():
    scaled = rescale_symbol(TWO_FACTOR, 2.0)
    assert scaled.coeffs == (4.0, 20.0, 16.0)


def test_rescale_rejects_nonpositive():
    with pytest.raises(ValueError, match="scale"):
        rescale_symbol(KG, 0.0)


# ---------------------------------------------------------------------------
# branch structure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mass", [0.5, 1.0, 2.5])
def test_single_branch_point_at_i_mass(mass):
    sym = SymbolPolynomial.klein_gordon(mass)
    assert sym.zeros.shape == (1,)
    assert sym.zeros[0] == pytest.approx(1j * mass)
    assert sym.compton == pytest.approx(1.0 / mass, rel=1e-14)


def test_two_factor_dominant_is_lighter():
    imags = sorted(z.imag for z in TWO_FACTOR.zeros)
    np.testing.assert_allclose(imags, [1.0, 2.0], rtol=1e-12)
    assert TWO_FACTOR.compton == pytest.approx(1.0)


def test_real_zero_violates_axioms():
    # (s - 1)(s - 4) is positive at s = 0 but vanishes on the real k axis
    with pytest.raises(AxiomError, match="real nonnegative zero"):
        SymbolPolynomial(coeffs=(4.0, -5.0, 1.0))


def test_branch_points_are_found_once_per_symbol(monkeypatch):
    calls = []
    original = asymptotics._s_roots

    def counting(coeffs):
        calls.append(coeffs)
        return original(coeffs)

    monkeypatch.setattr(asymptotics, "_s_roots", counting)
    symbol = SymbolPolynomial(coeffs=(4.0, 5.0, 1.0))
    fit = kernel_decay_rate(symbol, -0.5)
    direct_radial_integral(symbol, -0.5, 3.0)
    assert symbol.compton == pytest.approx(1.0)
    assert fit.ok
    assert calls == [symbol.coeffs]
    # every caller shares the zeros, so none may write to them
    with pytest.raises(ValueError):
        symbol.zeros[0] = 0.0
    # the zeros take no part in equality or hashing
    assert SymbolPolynomial.klein_gordon(1.0) == SymbolPolynomial((1.0, 1.0))
    assert hash(SymbolPolynomial.klein_gordon(1.0)) == hash(SymbolPolynomial((1.0, 1.0)))


# np.roots, a companion-matrix eigensolve, is the arbiter of the closed-form
# roots: real zeros, the off-axis complex pairs and a double zero (which the
# contour route still refuses, test_repeated_zero_not_implemented).
# (s - 1)(s - 4) still raises AxiomError (test_real_zero_violates_axioms)
ROOT_SYMBOLS = {
    "kg": KG,
    "kg-m2.5": SymbolPolynomial.klein_gordon(2.5),
    "two-factor": TWO_FACTOR,
    "two-factor-m0.3": SymbolPolynomial((4.0 * 0.3**4, 5.0 * 0.3**2, 1.0)),
    "1-1-1": SymbolPolynomial((1.0, 1.0, 1.0)),
    "2-0.5-1": SymbolPolynomial((2.0, 0.5, 1.0)),
    "double": SymbolPolynomial((1.0, 2.0, 1.0)),  # (s+1)^2
}


def _ordered(roots: np.ndarray) -> np.ndarray:
    """Roots by imaginary part, then by real part."""
    return roots[np.lexsort((roots.real, roots.imag))]


@pytest.mark.parametrize("sym", ROOT_SYMBOLS.values(), ids=ROOT_SYMBOLS.keys())
def test_closed_form_roots_match_np_roots(sym):
    s_roots = asymptotics._s_roots(sym.coeffs)
    want = np.roots(sym.coeffs[::-1])
    assert s_roots.dtype == want.dtype
    np.testing.assert_allclose(_ordered(s_roots), _ordered(want), rtol=1e-14, atol=0)
    np.testing.assert_allclose(sym.zeros**2, s_roots, rtol=1e-14, atol=0)
    assert np.all(sym.zeros.imag > 0)


@pytest.mark.parametrize("sym", ROOT_SYMBOLS.values(), ids=ROOT_SYMBOLS.keys())
def test_horner_matches_polyval(sym):
    # the same operations in the same order: equal to the last bit on an
    # array, a Python float and a complex scalar
    P = np.polynomial.polynomial
    coeffs = np.asarray(sym.coeffs)
    for s in (np.linspace(-3.0, 5.0, 17), 2.5, -0.75, np.complex128(-1.5 + 0.25j), 0.3 - 2.0j):
        for got, want in (
            (sym(s), P.polyval(s, coeffs)),
            (sym.derivative(s), P.polyval(s, P.polyder(coeffs))),
        ):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# ---------------------------------------------------------------------------
# kernels against closed forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mass,r", [(1.0, 3.0), (1.0, 7.0), (2.0, 4.0)])
def test_inverse_sqrt_kernel_is_bessel(mass, r):
    # (-Lap + m^2)^{-1/2} in three dimensions: m K1(m r) / (2 pi^2 r)
    sym = SymbolPolynomial.klein_gordon(mass)
    got = branch_cut_kernel(sym, -0.5, r)
    want = mass * special.k1(mass * r) / (2.0 * math.pi**2 * r)
    # abs=0: approx's default absolute 1e-12 would dwarf rel on values ~1e-3
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("mass", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("lam", [-0.55, -0.6, -0.75, -0.9, -0.95])
def test_fractional_kernel_is_bessel(mass, lam):
    # (-Lap + m^2)^lam in three dimensions, with nu = 3/2 + lam:
    # (2 pi)^{-3/2} 2^{1 + lam} / Gamma(-lam) (m / r)^nu K_nu(m r)
    sym = SymbolPolynomial.klein_gordon(mass)
    nu = 1.5 + lam
    scale = (2.0 * math.pi) ** -1.5 * 2.0 ** (1.0 + lam) / math.gamma(-lam)
    for r in (1.0, 2.0, 4.0, 8.0, 15.0):
        want = scale * (mass / r) ** nu * special.kv(nu, mass * r)
        assert branch_cut_kernel(sym, lam, r) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("mass,r", [(1.0, 2.0), (1.5, 5.0), (0.5, 1.0), (2.0, 3.0)])
def test_inverse_kernel_is_yukawa(mass, r):
    # lambda = -1 collapses to the residue at the pole: exp(-m r) / (4 pi r)
    sym = SymbolPolynomial.klein_gordon(mass)
    got = branch_cut_kernel(sym, -1.0, r)
    want = math.exp(-mass * r) / (4.0 * math.pi * r)
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("sym", [KG, TWO_FACTOR], ids=["kg", "two-factor"])
@pytest.mark.parametrize("lam", [-0.5, -0.6, -0.75, -0.9, -1.0])
@pytest.mark.parametrize("r", [2.0, 4.0, 8.0, 15.0])
def test_contour_and_direct_routes_agree(sym, lam, r):
    # two-factor zeros i and 2i share one vertical line: above 2i the jump
    # vanishes only at lam = -1/2, so other exponents fail if that part of
    # the cut is counted twice
    a = branch_cut_kernel(sym, lam, r)
    b = direct_radial_integral(sym, lam, r)
    assert a == pytest.approx(b, rel=1e-4)
    # both routes are far better than the gate in practice: to r = 8 the
    # worst gap is the direct route's own 4.6e-13, and at r = 15 it is 1.9e-9
    assert abs(a - b) <= (1e-12 if r <= 8.0 else 1e-8) * abs(b)


@pytest.mark.parametrize("sym", [KG, TWO_FACTOR], ids=["kg", "two-factor"])
@pytest.mark.parametrize("lam", [-1.05, -1.25, -1.5])
def test_non_integrable_cut_raises(sym, lam):
    # the jump grows as rho^lam at the branch point: not integrable below -1
    with pytest.raises(AsymptoticsError, match="converged only"):
        branch_cut_kernel(sym, lam, 4.0)


@pytest.mark.parametrize("lam", [-0.6, -0.75, -1.0])
def test_repeated_zero_not_implemented(lam):
    # (s + 1)^2: a double zero's jump goes as rho^{2 lam}, never integrable
    # for lam <= -1/2, and its pole is not simple
    with pytest.raises(NotImplementedError, match="simple symbol zeros"):
        branch_cut_kernel(SymbolPolynomial((1.0, 2.0, 1.0)), lam, 4.0)


def test_gauss_legendre_rule_matches_leggauss():
    # numpy's leggauss, an eigensolve of the Jacobi matrix, is the arbiter
    nodes, weights = asymptotics._gauss_legendre_rule()
    want_nodes, want_weights = np.polynomial.legendre.leggauss(asymptotics.GAUSS_POINTS)
    assert np.abs(nodes - want_nodes).max() <= 1e-15
    assert np.abs(weights - want_weights).max() <= 1e-15
    assert np.all(np.diff(nodes) > 0)
    np.testing.assert_array_equal(nodes, -nodes[::-1])
    assert abs(weights.sum() - 2.0) <= 4 * np.finfo(float).eps
    # an n-point rule integrates x^d exactly for d < 2n
    for d in range(2 * asymptotics.GAUSS_POINTS):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        assert abs(weights @ nodes**d - exact) <= 1e-14, d


def test_divergent_exponent_rejected():
    with pytest.raises(ValueError, match="diverges"):
        branch_cut_kernel(KG, 0.5, 1.0)
    with pytest.raises(ValueError, match="diverges"):
        direct_radial_integral(KG, 0.5, 1.0)


def test_other_negative_integers_not_implemented():
    with pytest.raises(NotImplementedError):
        branch_cut_kernel(KG, -2.0, 1.0)


# zeros +-0.5 + 0.866i and +-0.763 + 0.912i: no vertical cut carries the jump
OFF_AXIS = [SymbolPolynomial((1.0, 1.0, 1.0)), SymbolPolynomial((2.0, 0.5, 1.0))]


@pytest.mark.parametrize("sym", OFF_AXIS, ids=["1-1-1", "2-0.5-1"])
@pytest.mark.parametrize("lam", [-0.5, -0.75])
def test_off_axis_zeros_not_implemented(sym, lam):
    with pytest.raises(NotImplementedError, match="off it"):
        branch_cut_kernel(sym, lam, 4.0)


@pytest.mark.parametrize("sym", OFF_AXIS, ids=["1-1-1", "2-0.5-1"])
@pytest.mark.parametrize("r", [2.0, 4.0, 8.0])
def test_off_axis_residue_matches_direct(sym, r):
    # the residue route closes the contour around poles, wherever they lie
    a = branch_cut_kernel(sym, -1.0, r)
    b = direct_radial_integral(sym, -1.0, r)
    assert abs(a - b) <= 1e-8 * abs(b)


def test_nonpositive_radius_rejected():
    with pytest.raises(ValueError, match="radius"):
        branch_cut_kernel(KG, -0.5, 0.0)
    with pytest.raises(ValueError, match="radius"):
        direct_radial_integral(KG, -0.5, -1.0)


def test_kernel_positive_and_decreasing():
    values = [branch_cut_kernel(KG, -0.5, r) for r in np.linspace(1.0, 12.0, 12)]
    assert all(v > 0 for v in values)
    assert all(b < a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# decay rates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "sym,lam,rate",
    [
        (KG, -0.5, 1.004037),
        (KG, -1.0, 1.0),
        (SymbolPolynomial.klein_gordon(2.0), -0.5, 2.008074),
        (TWO_FACTOR, -0.5, 1.007870),
        (TWO_FACTOR, -1.0, 0.999632),
    ],
    ids=["kg-sqrt", "kg-yukawa", "kg-m2-sqrt", "two-sqrt", "two-yukawa"],
)
def test_decay_rate_matches_branch_point(sym, lam, rate):
    fit = kernel_decay_rate(sym, lam)
    assert fit.ok
    expected = 1.0 / sym.compton
    assert abs(fit.rate - expected) / expected <= 0.01
    assert fit.rate == pytest.approx(rate, rel=1e-4)
    # the removed algebraic prefactor is r^(lam + 2): refit by hand over the
    # (5, 15) Compton-length window
    radii = np.linspace(5.0 / expected, 15.0 / expected, RATE_SAMPLES)
    values = np.array([branch_cut_kernel(sym, lam, r) for r in radii])
    slope = np.polyfit(radii, np.log(values * radii ** (lam + 2.0)), 1)[0]
    assert fit.rate == pytest.approx(-slope, rel=1e-12)


def test_decay_rate_window_default(monkeypatch):
    radii = []

    def recording(symbol, lam, r):
        radii.append(r)
        return branch_cut_kernel(symbol, lam, r)

    monkeypatch.setattr(asymptotics, "branch_cut_kernel", recording)
    sym = SymbolPolynomial.klein_gordon(2.0)
    kernel_decay_rate(sym, -1.0)
    assert (min(radii), max(radii)) == (2.5, 7.5)
    assert 1.0 / sym.compton == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# lattice refinement
# ---------------------------------------------------------------------------


def test_lattice_approaches_continuum():
    rows = _lattice_vs_continuum(ExperimentConfig("asymptotics", mass=1.0))
    devs = [deviation for *_, deviation in rows]
    assert all(dev <= 0.15 for dev in devs)
    assert all(b <= a + 1e-12 for a, b in zip(devs, devs[1:]))
    # frozen: refining a=1.0 -> 0.5 shrinks the deviation about 3.5x
    assert devs[0] == pytest.approx(0.0412, rel=0.02)
    assert devs[1] == pytest.approx(0.0118, rel=0.02)
    assert rows[0][1] == 512
    assert rows[1][1] == 1024


def test_lattice_too_small_rejected():
    with pytest.raises(ValueError, match="too small"):
        _lattice_vs_continuum(ExperimentConfig("asymptotics", mass=0.05))
