"""Continuum (3-D, rotation-invariant) radial kernels of f(R) = omega^{2 lam}.

For a polynomial symbol omega^2(k) = P(k^2) the kernel of P(k^2)^lam at
radius r is the one-dimensional integral

    R^lam(r) = (1/(2 pi^2 r)) Int_0^inf k P(k^2)^lam sin(kr) dk.

Two independent evaluations are provided. The contour route closes the
integral in the upper half plane around the complex zeros k_i of the
symbol: for fractional lam one branch-cut integral up the imaginary axis
from the lowest zero, of the closed-form jump 2 i sin(pi lam n) |P(-y^2)|^lam
of P^lam across it at k = i y (n zeros at or below i y), evaluated by a
fixed tanh-sinh (double-exponential) rule in numpy on the intervals between
zeros, or for lam = -1 a plain residue per zero. The direct route
integrates the oscillatory integrand over half-period panels with
Gauss-Legendre rules and sums the alternating series by repeated averaging.
They share no code and are compared against each other (and, for the
Klein-Gordon symbol, against Bessel/Yukawa closed forms) in the tests.
Neither calls LAPACK: a symbol has degree 1 or 2, so it finds its zeros in
closed form when it is built, and the Gauss-Legendre nodes come from
Newton's method.

Every decay question reduces to the zeros: the slowest-decaying term comes
from the zero with the smallest imaginary part v0, giving kernels that fall
like exp(-v0 r)/r times algebraic corrections, i.e. a Compton length of
1/v0, the symbol's ``compton``.
"""
from __future__ import annotations

import cmath
import dataclasses
import functools
import math

import numpy as np

from .spectral import AxiomError, log_linear_fit

LAMBDA_CONVERGENCE_MAX = -0.5  # integrals diverge for larger exponents
RHO_CUTOFF = 40.0  # integrate the cut to rho = RHO_CUTOFF / r
# tanh-sinh rule: step in s and node range |s| <= extent. At 6 the outermost
# node sits ~1e-275 of the interval from its end, so the neglected piece of a
# rho^lam edge, ~(1e-275)^(1 + lam), is below roundoff down to lam ~ -0.95
# (at 4 it is 1e-37, and lam = -0.9 misses 2e-4); e^{pi sinh s} overflows
# just above 6.1
TANH_SINH_STEP = 1.0 / 64.0
TANH_SINH_EXTENT = 6.0
PANELS = 64
GAUSS_POINTS = 24
EULER_TOL = 1e-9
RATE_WINDOW_COMPTON = (5.0, 15.0)
RATE_SAMPLES = 25
# a fitted rate within this fraction of the branch-point rate passes, in the
# asymptotics experiment's decay_rate checks; RateFit.ok and the rtol of
# kernel_decay_rate stay only because the benchmark harness passes rtol
RATE_RTOL = 0.05


class AsymptoticsError(RuntimeError):
    """Raised when a quadrature fails to converge to its target accuracy."""


def _horner(coeffs: tuple[float, ...], s):
    """sum_j coeffs[j] s^j by Horner's rule, step for step as polyval."""
    value = coeffs[-1] + s * 0
    for a in reversed(coeffs[:-1]):
        value = a + value * s
    return value


def _s_roots(coeffs: tuple[float, ...]) -> np.ndarray:
    """Closed-form roots s_i of the degree-1 or degree-2 polynomial ``coeffs``."""
    if len(coeffs) == 2:
        return np.array([-coeffs[0] / coeffs[1]])
    c, b, a = coeffs  # cancellation-free: roots q/a and c/q
    disc = b * b - 4.0 * a * c
    root = math.sqrt(disc) if disc >= 0.0 else 1j * math.sqrt(-disc)
    q = -0.5 * (b + math.copysign(1.0, b) * root)
    return np.array([q / a, c / q])


@dataclasses.dataclass(frozen=True)
class SymbolPolynomial:
    """Polynomial symbol P(s) of degree 1 or 2, s = k^2, real coefficients (ascending).

    Its zeros are found when it is built. The roots s_i of P are
    closed-form; a real nonnegative root would put a zero on the real k axis
    (the symbol would not be bounded away from zero), which violates the
    operator's axioms, so that raises AxiomError. ``zeros`` holds each k_i
    = sqrt(s_i) with Im k_i > 0, and ``slopes`` P'(s_i), the residues'
    denominators. Both are read-only and play no part in equality or hash.
    """

    coeffs: tuple[float, ...]
    zeros: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    slopes: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if len(coeffs) not in (2, 3):
            raise ValueError(f"symbol needs degree 1 or 2, got degree {len(coeffs) - 1}")
        if coeffs[-1] == 0.0:
            raise ValueError("leading coefficient must be nonzero")
        if coeffs[0] <= 0.0:
            raise AxiomError("symbol must be strictly positive at k = 0")
        object.__setattr__(self, "coeffs", coeffs)
        s_roots = _s_roots(coeffs)
        scale = max(1.0, float(np.abs(s_roots).max()))
        for s in s_roots:
            if abs(s.imag) < 1e-9 * scale and s.real > -1e-12 * scale:
                raise AxiomError(
                    f"symbol has a real nonnegative zero s = {s.real:.6g}; "
                    "omega^2 must be strictly positive"
                )
        zeros = [cmath.sqrt(complex(s)) for s in s_roots]
        zeros = np.array([-k if k.imag < 0 else k for k in zeros])
        # root by root: numpy's scalar complex product can round apart from its array one
        slopes = np.array([self.derivative(s) for s in s_roots])
        for name, array in (("zeros", zeros), ("slopes", slopes)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @classmethod
    def klein_gordon(cls, mass: float) -> "SymbolPolynomial":
        if mass <= 0:
            raise AxiomError(f"mass must be positive, got {mass}")
        return cls(coeffs=(mass**2, 1.0))

    def __call__(self, s):
        return _horner(self.coeffs, s)

    def derivative(self, s):
        return _horner(tuple(j * a for j, a in enumerate(self.coeffs) if j), s)

    @property
    def compton(self) -> float:
        """Compton length 1/v0 from the lowest upper-half-plane zero."""
        return 1.0 / float(self.zeros.imag.min())


# ---------------------------------------------------------------------------
# contour route
# ---------------------------------------------------------------------------

def _require_convergent(lam: float) -> None:
    if lam > LAMBDA_CONVERGENCE_MAX + 1e-12:
        raise ValueError(
            f"kernel integral diverges for lambda = {lam}; need lambda <= -1/2"
        )


def _simple_roots(zeros: np.ndarray) -> bool:
    s_roots = zeros**2
    scale = max(1.0, float(np.abs(s_roots).max()))
    return s_roots.size == 1 or not abs(s_roots[0] - s_roots[1]) < 1e-8 * scale


def _residue_kernel(symbol: SymbolPolynomial, r: float) -> float:
    """Exact kernel for lam = -1: one simple pole per upper-half zero.

    Closing Int_R k e^{ikr} / P(k^2) dk upward picks up residues
    e^{i k_i r} / (2 P'(s_i)).
    """
    total = 0.0 + 0.0j
    for slope, k in zip(symbol.slopes, symbol.zeros):
        total += cmath.exp(1j * k * r) / (2.0 * complex(slope))
    value = total / (2.0 * math.pi * r)
    if abs(value.imag) > 1e-10 * (abs(value.real) + 1e-300):
        raise AsymptoticsError(
            f"residue sum has spurious imaginary part {value.imag:.3e}"
        )
    return float(value.real)


@functools.cache
def _tanh_sinh_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tanh-sinh rule on [-1, 1]: nodes tanh((pi/2) sinh s) at s = j h.

    h = TANH_SINH_STEP and |s| <= TANH_SINH_EXTENT. Returns each node's
    signed distance to its nearer endpoint (positive: measured up from -1;
    negative: down from +1; node 0 is the midpoint), its weight in the rule
    of step h, and its weight in the rule of step 2h on the same nodes
    (doubled on even j, zero on odd). The distance 1 - tanh(x) is formed as
    2 / (1 + e^{2x}), so the outermost nodes, about 1e-275 from their
    endpoint, keep their digits instead of rounding onto it. Built on the
    first contour quadrature, not at import, like the Gauss-Legendre rule.
    """
    count = int(round(TANH_SINH_EXTENT / TANH_SINH_STEP))
    s = TANH_SINH_STEP * np.arange(count + 1)
    x = 0.5 * math.pi * np.sinh(s)
    gap = 2.0 / (1.0 + np.exp(2.0 * x))
    weight = TANH_SINH_STEP * 0.5 * math.pi * np.cosh(s) / np.cosh(x) ** 2
    coarse = np.where(np.arange(count + 1) % 2 == 0, 2.0 * weight, 0.0)
    return (
        np.concatenate([gap, -gap[1:]]),
        np.concatenate([weight, weight[1:]]),
        np.concatenate([coarse, coarse[1:]]),
    )


def branch_cut_kernel(symbol: SymbolPolynomial, lam: float, r: float) -> float:
    """Kernel value R^lam(r) via upper-half-plane contour pieces.

    For fractional lam the one cut runs up the imaginary axis from the
    lowest zero k_0 = i v. At k = i y every factor k^2 - s_j = v_j^2 - y^2
    of P is real, and the n factors whose zero i v_j lies at or below i y
    are negative, with phase +pi just right of the axis and -pi just left of
    it. So P^lam jumps by 2 i sin(pi lam n) |P(-y^2)|^lam across the cut,
    and with y = v + rho the kernel is the real integral

        -e^{-v r} Int_0^inf 2 sin(pi lam n) |P(-y^2)|^lam y e^{-rho r} d rho
        / (2 pi)^2 r.

    A higher zero only splits the cut into intervals, on each of which n
    is the number of zeros at or below its lower end. Each interval, up to
    rho = RHO_CUTOFF / r, is integrated by a fixed tanh-sinh rule (Takahasi
    & Mori 1974), whose nodes cluster double-exponentially at both ends and
    so absorb the integrable rho^lam edges there; nodes are placed by their
    distance to the nearer end, and each factor is formed relative to that
    end, so it stays exact at the branch points. The error estimate is the
    difference between the rules of step h and 2h on the same samples.
    Exact for symbols whose simple zeros lie on the imaginary axis (one or
    two distinct positive-mass factors); lam = -1 is routed to the
    residue formula, and other exponents raise NotImplementedError for zeros
    off that axis, whose per-factor cuts are not the ray integrated here. A
    repeated zero raises NotImplementedError on both routes: its jump goes
    as rho^{2 lam}, never integrable for lam <= -1/2.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    _require_convergent(lam)
    if not _simple_roots(symbol.zeros):
        raise NotImplementedError(
            "contour route needs simple symbol zeros; this symbol has "
            "(numerically) repeated roots"
        )
    if abs(lam - round(lam)) < 1e-12:
        if round(lam) == -1:
            return _residue_kernel(symbol, r)
        raise NotImplementedError(
            f"integer lambda = {int(round(lam))} not supported; only -1 has "
            "the simple-pole residue form"
        )
    off_axis = [k for k in symbol.zeros if abs(k.real) > 1e-9 * max(1.0, abs(k))]
    if off_axis:
        raise NotImplementedError(
            "cut route needs zeros on the imaginary axis; zeros "
            + ", ".join(f"{k:.6g}" for k in off_axis)
            + " lie off it"
        )
    gap, weight, coarse_weight = _tanh_sinh_rule()
    from_lower = gap > 0
    cutoff = RHO_CUTOFF / r
    heights = sorted(k.imag for k in symbol.zeros)
    v = heights[0]
    breaks = [h for h in heights[1:] if h - v < cutoff]
    ends = [0.0, *(h - v for h in breaks), cutoff]
    anchors = [v, *breaks, v + cutoff]
    lead = symbol.coeffs[-1]  # positive, since P(0) > 0 and every s_j < 0
    piece = coarse = 0.0
    # n counts the zeros at or below an interval's lower end; read off the
    # interval, since the outermost nodes round onto their end
    intervals = zip(ends, ends[1:], anchors, anchors[1:])
    for n, (lo, hi, y_lo, y_hi) in enumerate(intervals, start=1):
        half = 0.5 * (hi - lo)
        offset = half * gap
        rho = np.where(from_lower, lo, hi) + offset
        base = np.where(from_lower, y_lo, y_hi)
        # at a non-integrable edge (lam < -1) the outermost samples
        # overflow; the inf or nan they leave fails the error gate below
        with np.errstate(over="ignore", invalid="ignore"):
            modulus = lead
            for v_j in heights:
                factor = ((base - v_j) + offset) * ((base + v_j) + offset)
                modulus = modulus * np.abs(factor)
            values = (
                (-2.0 * math.sin(math.pi * lam * n))
                * modulus**lam
                * (v + rho)
                * np.exp(-rho * r)
            )
            piece += half * (values @ weight)
            coarse += half * (values @ coarse_weight)
    err = abs(piece - coarse)
    if not err <= 1e-7 * (abs(piece) + 1e-300):  # a nan error fails too
        raise AsymptoticsError(
            f"cut integral at zero {1j * v:.6g} converged only to {err:.3e}"
        )
    return float(math.exp(-v * r) * piece / ((2.0 * math.pi) ** 2 * r))


# ---------------------------------------------------------------------------
# direct oscillatory route
# ---------------------------------------------------------------------------

def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P_{n-1}(x), P_n(x) and P_n'(x), by the three-term recurrence."""
    below, p = np.ones_like(x), x
    for j in range(1, n):
        below, p = p, ((2 * j + 1) * x * p - j * below) / (j + 1)
    return below, p, n * (x * p - below) / (x * x - 1.0)


@functools.cache
def _gauss_legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """GAUSS_POINTS-point nodes and weights on [-1, 1], built on first use.

    Newton's method on the Legendre recurrence from cos(pi (i - 1/4) /
    (n + 1/2)) finds the nodes with no eigensolver (Hale & Townsend, SIAM J.
    Sci. Comput. 35 (2013) A652): four steps reach roundoff, ~1e-16, and
    the fifth is leggauss's last one. Its weights follow as leggauss forms
    them: 1 / (P_{n-1} P_n'), each factor scaled to max 1, symmetrized, sum 2.
    """
    n = GAUSS_POINTS
    x = -np.cos(math.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(5):
        _, p, slope = _legendre(n, x)
        x = x - p / slope
    below = _legendre(n, x)[0]
    weights = 1.0 / (below / np.abs(below).max() * (slope / np.abs(slope).max()))
    weights = 0.5 * (weights + weights[::-1])
    weights *= 2.0 / weights.sum()
    return 0.5 * (x - x[::-1]), weights


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
    nodes, weights = _gauss_legendre_rule()
    half = math.pi / r
    # one row of GAUSS_POINTS nodes per panel
    k = (np.arange(PANELS) * half)[:, None] + (nodes + 1.0) * (half / 2.0)
    values = k * symbol(k**2) ** lam * np.sin(k * r)
    panel_sums = (values @ weights) * (half / 2.0)
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


# ---------------------------------------------------------------------------
# decay-rate measurements
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class RateFit:
    """Exponential rate of a radial kernel, algebraic prefactor removed."""

    rate: float
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
    v0 = 1.0 / symbol.compton
    window = (RATE_WINDOW_COMPTON[0] / v0, RATE_WINDOW_COMPTON[1] / v0)
    power = lam + 2.0
    radii = np.linspace(window[0], window[1], RATE_SAMPLES)
    values = np.array([branch_cut_kernel(symbol, lam, r) for r in radii])
    if np.any(values <= 0):
        raise AsymptoticsError("kernel changed sign inside the rate window")
    slope, _, _ = log_linear_fit(radii, values * radii**power)
    rate = -slope
    return RateFit(rate=rate, ok=bool(abs(rate - v0) / v0 <= rtol))
