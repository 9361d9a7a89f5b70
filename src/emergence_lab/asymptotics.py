"""Continuum (3-D, rotation-invariant) radial kernels of f(R) = omega^{2 lam}.

For a polynomial symbol omega^2(k) = P(k^2) the kernel of P(k^2)^lam at
radius r is the one-dimensional integral

    R^lam(r) = (1/(2 pi^2 r)) Int_0^inf k P(k^2)^lam sin(kr) dk.

Two independent evaluations are provided. The contour route closes the
integral in the upper half plane and collects one term per complex zero k_i
of the symbol: a vertical branch-cut integral for fractional lam, or a plain
residue for lam = -1. The direct route integrates the oscillatory integrand
over half-period panels and sums the alternating series by repeated
averaging. They share no code and are compared against each other (and, for
the Klein-Gordon symbol, against Bessel/Yukawa closed forms) in the tests.

Every decay question reduces to the zeros: the slowest-decaying term comes
from the zero with the smallest imaginary part v0, giving kernels that fall
like exp(-v0 r)/r times algebraic corrections, i.e. a Compton length of
1/v0.
"""
from __future__ import annotations

import cmath
import dataclasses
import math
import warnings

import numpy as np

from .spectral import (
    AxiomError,
    Lattice,
    build_klein_gordon,
    diagonalize,
    fit_decay_length,
    kernel_profile,
    log_linear_fit,
)

LAMBDA_CONVERGENCE_MAX = -0.5  # integrals diverge for larger exponents
SIDE_OFFSET = 1e-8  # relative two-sided offset for cut discontinuities
RHO_CUTOFF = 40.0  # integrate the cut to rho = RHO_CUTOFF / r
QUAD_RTOL = 1e-10
PANELS = 64
GAUSS_POINTS = 24
EULER_TOL = 1e-9
RATE_WINDOW_COMPTON = (5.0, 15.0)
RATE_SAMPLES = 25
RATE_RTOL = 0.05
# lattice refinement: spacings, sites at the coarsest spacing, kernel exponent,
# fit window in Compton lengths, tolerance on the deviation from 1/m
REFINE_SPACINGS = (1.0, 0.5)
REFINE_BASE_NSITES = 512
REFINE_EXPONENT = -0.5
REFINE_WINDOW_COMPTON = (3.0, 20.0)
REFINE_RTOL = 0.15


class AsymptoticsError(RuntimeError):
    """Raised when a quadrature fails to converge to its target accuracy."""


@dataclasses.dataclass(frozen=True)
class SymbolPolynomial:
    """Polynomial symbol P(s), s = k^2, with real coefficients (ascending)."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if len(coeffs) < 2:
            raise ValueError("symbol needs degree at least 1")
        if coeffs[-1] == 0.0:
            raise ValueError("leading coefficient must be nonzero")
        if coeffs[0] <= 0.0:
            raise AxiomError("symbol must be strictly positive at k = 0")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def klein_gordon(cls, mass: float) -> "SymbolPolynomial":
        if mass <= 0:
            raise AxiomError(f"mass must be positive, got {mass}")
        return cls(coeffs=(mass**2, 1.0))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, s):
        return np.polynomial.polynomial.polyval(s, np.asarray(self.coeffs))

    def derivative(self, s):
        dcoeffs = np.polynomial.polynomial.polyder(np.asarray(self.coeffs))
        return np.polynomial.polynomial.polyval(s, dcoeffs)


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


@dataclasses.dataclass(frozen=True)
class BranchStructure:
    """Upper-half-plane zeros of the symbol and the dominant (lowest) one."""

    s_roots: np.ndarray
    zeros: np.ndarray  # k_i with Im k_i > 0
    dominant: int

    @property
    def compton(self) -> float:
        return 1.0 / float(self.zeros[self.dominant].imag)


def find_branch_points(symbol: SymbolPolynomial) -> BranchStructure:
    """Zeros k_i of P(k^2) in the upper half plane.

    A real nonnegative root in s would put a zero on the real k axis (the
    symbol would not be bounded away from zero), which violates the
    operator's axioms; that raises rather than returning a structure.
    """
    s_roots = np.roots(list(reversed(symbol.coeffs)))
    scale = max(1.0, float(np.abs(s_roots).max()))
    for s in s_roots:
        if abs(s.imag) < 1e-9 * scale and s.real > -1e-12 * scale:
            raise AxiomError(
                f"symbol has a real nonnegative zero s = {s.real:.6g}; "
                "omega^2 must be strictly positive"
            )
    zeros = []
    for s in s_roots:
        k = cmath.sqrt(complex(s))
        if k.imag < 0:
            k = -k
        zeros.append(k)
    zeros = np.array(zeros)
    dominant = int(np.argmin(zeros.imag))
    return BranchStructure(s_roots=s_roots, zeros=zeros, dominant=dominant)


def predict_compton(symbol: SymbolPolynomial) -> float:
    """Compton length 1/v0 from the lowest upper-half-plane zero."""
    return find_branch_points(symbol).compton


# ---------------------------------------------------------------------------
# contour route
# ---------------------------------------------------------------------------

def _require_convergent(lam: float) -> None:
    if lam > LAMBDA_CONVERGENCE_MAX + 1e-12:
        raise ValueError(
            f"kernel integral diverges for lambda = {lam}; need lambda <= -1/2"
        )


def _simple_roots(s_roots: np.ndarray) -> bool:
    if s_roots.size < 2:
        return True
    scale = max(1.0, float(np.abs(s_roots).max()))
    for i in range(s_roots.size):
        for j in range(i + 1, s_roots.size):
            if abs(s_roots[i] - s_roots[j]) < 1e-8 * scale:
                return False
    return True


def _residue_kernel(symbol: SymbolPolynomial, branch: BranchStructure, r: float) -> float:
    """Exact kernel for lam = -1: one simple pole per upper-half zero.

    Closing Int_R k e^{ikr} / P(k^2) dk upward picks up residues
    e^{i k_i r} / (2 P'(s_i)).
    """
    if not _simple_roots(branch.s_roots):
        raise NotImplementedError(
            "residue route needs simple symbol zeros; this symbol has "
            "(numerically) repeated roots"
        )
    total = 0.0 + 0.0j
    for s, k in zip(branch.s_roots, branch.zeros):
        total += cmath.exp(1j * k * r) / (2.0 * complex(symbol.derivative(s)))
    value = total / (2.0 * math.pi * r)
    if abs(value.imag) > 1e-10 * (abs(value.real) + 1e-300):
        raise AsymptoticsError(
            f"residue sum has spurious imaginary part {value.imag:.3e}"
        )
    return float(value.real)


def _factored_power(
    symbol: SymbolPolynomial, s_roots: np.ndarray, lam: float, k: complex
) -> complex:
    """P(k^2)^lam with the branch adapted to vertical cuts.

    Taking per-factor principal powers prod_j (k^2 - s_j)^lam keeps the
    function analytic away from the vertical rays whenever the s-roots are
    real and negative (each factor's own cut is then exactly that ray); the
    principal power of the assembled product would instead jump across
    spurious curves where factors' phases add up past pi. On the real axis
    both definitions coincide with the positive real value.
    """
    lead = symbol.coeffs[-1]
    value = complex(lead) ** lam
    for s in s_roots:
        value *= (k * k - s) ** lam
    return value


def _cut_discontinuity(
    symbol: SymbolPolynomial,
    s_roots: np.ndarray,
    lam: float,
    k0: complex,
    rho: float,
):
    """Two-sided jump of the adapted-branch power across the ray above k0."""
    eps = SIDE_OFFSET * rho
    k_right = k0 + eps + 1j * rho
    k_left = k0 - eps + 1j * rho
    return _factored_power(symbol, s_roots, lam, k_right) - _factored_power(
        symbol, s_roots, lam, k_left
    )


def branch_cut_kernel(symbol: SymbolPolynomial, lam: float, r: float) -> float:
    """Kernel value R^lam(r) via upper-half-plane contour pieces.

    For fractional lam each zero k_i = u_i + i v_i contributes

        e^{(i u_i - v_i) r} Int_0^inf disc_i(rho) (u_i + i (v_i + rho))
                                      e^{-rho r} d rho / (2 pi)^2 r,

    where disc_i is the principal-branch discontinuity across the vertical
    ray. The substitution rho = t^2 absorbs the inverse-square-root edge of
    the discontinuity, so an adaptive quadrature sees a smooth integrand.
    Exact for symbols whose zeros lie on the imaginary axis (any product of
    positive-mass factors); lam = -1 is routed to the residue formula.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    _require_convergent(lam)
    branch = find_branch_points(symbol)
    if abs(lam - round(lam)) < 1e-12:
        if round(lam) == -1:
            return _residue_kernel(symbol, branch, r)
        raise NotImplementedError(
            f"integer lambda = {int(round(lam))} not supported; only -1 has "
            "the simple-pole residue form"
        )
    # scipy loads here, on the first quadrature, so that importing the package
    # (and every lattice layer) never pays for it
    from scipy import integrate

    t_max = math.sqrt(RHO_CUTOFF / r)
    total = 0.0 + 0.0j
    for i, k0 in enumerate(branch.zeros):
        u, v = k0.real, k0.imag

        def integrand(t: float, _k0=k0, _u=u, _v=v) -> complex:
            if t == 0.0:
                return 0.0
            rho = t * t
            disc = _cut_discontinuity(symbol, branch.s_roots, lam, _k0, rho)
            return disc * (_u + 1j * (_v + rho)) * math.exp(-rho * r) * 2.0 * t

        # quad integrates real functions; do real and imaginary parts
        breaks = [
            math.sqrt(other.imag - v)
            for j, other in enumerate(branch.zeros)
            if j != i and abs(other.real - u) < 1e-12 and other.imag > v
            and other.imag - v < RHO_CUTOFF / r
        ]
        with warnings.catch_warnings():
            # roundoff chatter near the subtraction scale; the explicit error
            # check below is the convergence gate
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            re_val, re_err = integrate.quad(
                lambda t: integrand(t).real, 0.0, t_max,
                limit=200, epsabs=0.0, epsrel=QUAD_RTOL, points=breaks or None,
            )
            im_val, im_err = integrate.quad(
                lambda t: integrand(t).imag, 0.0, t_max,
                limit=200, epsabs=0.0, epsrel=QUAD_RTOL, points=breaks or None,
            )
        piece = complex(re_val, im_val)
        err = math.hypot(re_err, im_err)
        if err > 1e-7 * (abs(piece) + 1e-300):
            raise AsymptoticsError(
                f"cut integral at zero {k0:.6g} converged only to {err:.3e}"
            )
        total += cmath.exp((1j * u - v) * r) * piece
    value = total / ((2.0 * math.pi) ** 2 * r)
    if abs(value.imag) > 1e-8 * (abs(value.real) + 1e-300):
        raise AsymptoticsError(
            f"cut sum has spurious imaginary part {value.imag:.3e}"
        )
    return float(value.real)


# ---------------------------------------------------------------------------
# direct oscillatory route
# ---------------------------------------------------------------------------

def direct_radial_integral(symbol: SymbolPolynomial, lam: float, r: float) -> float:
    """Kernel value by direct integration of k P(k^2)^lam sin(kr).

    The integrand is sampled over half-period panels [n pi / r, (n+1) pi / r]
    with fixed Gauss-Legendre rules; the alternating partial sums are then
    contracted by repeated averaging, which also sums the Abel-convergent
    boundary case lam = -1/2 where the envelope does not decay.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    _require_convergent(lam)
    find_branch_points(symbol)  # validates positivity of the symbol
    nodes, weights = np.polynomial.legendre.leggauss(GAUSS_POINTS)
    half = math.pi / r
    panel_sums = np.empty(PANELS)
    for n in range(PANELS):
        lo = n * half
        k = lo + (nodes + 1.0) * (half / 2.0)
        values = k * np.asarray(self_energy(symbol, k)) ** lam * np.sin(k * r)
        panel_sums[n] = float(values @ weights) * (half / 2.0)
    partial = np.cumsum(panel_sums)
    estimates = [partial[-1]]
    current = partial
    while current.size > 1:
        current = 0.5 * (current[:-1] + current[1:])
        estimates.append(current[-1])
    tail = np.array(estimates[-8:])
    spread = float(np.abs(np.diff(tail)).max())
    scale = abs(float(tail[-1])) + 1e-300
    if spread > EULER_TOL * max(scale, 1e-12):
        raise AsymptoticsError(
            f"averaged partial sums did not settle (spread {spread:.3e})"
        )
    return float(tail[-1]) / (2.0 * math.pi**2 * r)


def self_energy(symbol: SymbolPolynomial, k: np.ndarray) -> np.ndarray:
    """omega^2(k) = P(k^2) on real wavenumbers."""
    return symbol(np.asarray(k) ** 2)


# ---------------------------------------------------------------------------
# decay-rate measurements
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class RateFit:
    """Exponential rate of a radial kernel, algebraic prefactor removed."""

    rate: float
    expected: float
    rel_dev: float
    rms_log_residual: float
    window: tuple[float, float]
    prefactor_power: float
    ok: bool


def kernel_decay_rate(
    symbol: SymbolPolynomial, lam: float, rtol: float = RATE_RTOL
) -> RateFit:
    """Fit exp(-rate r) to r^(lam+2) R^lam(r) over RATE_WINDOW_COMPTON.

    The window spans (5, 15) Compton lengths. Near a simple dominant
    zero the kernel behaves as exp(-v0 r) r^-(lam+2) (the cut edge goes like
    rho^lam, and the contour prefactor contributes one more power), so that
    algebraic factor is divided out before the log-linear fit; what remains
    is compared against v0 at the stated tolerance.
    """
    v0 = 1.0 / predict_compton(symbol)
    window = (RATE_WINDOW_COMPTON[0] / v0, RATE_WINDOW_COMPTON[1] / v0)
    power = lam + 2.0
    radii = np.linspace(window[0], window[1], RATE_SAMPLES)
    values = np.array([branch_cut_kernel(symbol, lam, r) for r in radii])
    if np.any(values <= 0):
        raise AsymptoticsError("kernel changed sign inside the rate window")
    slope, _, rms = log_linear_fit(radii, values * radii**power)
    rate = -slope
    rel = abs(rate - v0) / v0
    return RateFit(
        rate=rate,
        expected=v0,
        rel_dev=rel,
        rms_log_residual=rms,
        window=(float(window[0]), float(window[1])),
        prefactor_power=power,
        ok=bool(rel <= rtol),
    )


@dataclasses.dataclass(frozen=True)
class SpacingResult:
    spacing: float
    nsites: int
    fitted_length: float
    deviation: float


@dataclasses.dataclass(frozen=True)
class ContinuumComparison:
    """Lattice kernel decay lengths against the continuum Compton length."""

    continuum_length: float
    results: tuple[SpacingResult, ...]
    monotone: bool
    ok: bool


def lattice_vs_continuum(mass: float) -> ContinuumComparison:
    """Refine the lattice and watch its decay length approach 1/m.

    One-dimensional Klein-Gordon lattices at each of REFINE_SPACINGS (fixed
    physical size, so nsites scales inversely with spacing) are profiled from
    a central source; the fit removes the lattice kernel's sqrt(d) prefactor.
    Passing requires every deviation within REFINE_RTOL and the deviations
    non-increasing as the spacing shrinks.
    """
    compton = 1.0 / mass
    lo, hi = REFINE_WINDOW_COMPTON
    window = (lo * compton, hi * compton)
    results = []
    order = sorted(REFINE_SPACINGS, reverse=True)
    for spacing in order:
        nsites = int(round(REFINE_BASE_NSITES * order[0] / spacing))
        lattice = Lattice((nsites,), spacing)
        if mass * nsites * spacing < 50:
            raise ValueError(
                f"lattice too small: m N a = {mass * nsites * spacing} < 50"
            )
        spec = diagonalize(build_klein_gordon(mass, lattice))
        profile = kernel_profile(spec, REFINE_EXPONENT, nsites // 2)
        d = profile.distances
        fit = fit_decay_length(d, profile.values * np.sqrt(d), window)
        if fit.nsamples < 6:
            raise AsymptoticsError("not enough profile samples in the window")
        length = -1.0 / fit.slope
        results.append(
            SpacingResult(
                spacing=float(spacing),
                nsites=nsites,
                fitted_length=length,
                deviation=abs(length - compton) / compton,
            )
        )
    devs = [res.deviation for res in results]
    monotone = all(b <= a + 1e-12 for a, b in zip(devs, devs[1:]))
    ok = monotone and all(dev <= REFINE_RTOL for dev in devs)
    return ContinuumComparison(
        continuum_length=compton,
        results=tuple(results),
        monotone=monotone,
        ok=ok,
    )
