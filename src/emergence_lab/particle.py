"""One-particle states and where their observables live.

A one-particle state is labeled by its classical progenitor, the phase point
u = (phi, pi) whose mode amplitudes alpha_k are the state's wavefunction.
The complex structure J multiplies those amplitudes by i, so a complex
superposition sum_i c_i u_i is the real combination
sum_i Re(c_i) u_i + Im(c_i) J u_i of progenitors, with no mode coordinates.
Expectation values of squared field operators in such a state exceed their
vacuum values by an amount expressible directly in the progenitor's fields,
the three PROBES that probe_excesses returns from one R^{1/2} phi and one
R^{-1/2} pi:

    phi-square excess    kappa (phi^2 + (R^{-1/2} pi)^2)
    pi-square excess     kappa (pi^2 + (R^{1/2} phi)^2)
    energy density       2 kappa (pi^2/2 + (R^{1/2} phi)^2/2)

States need not be normalized; the excesses above are quadratic in u.
KAPPA is a fixed constant of the quantization conventions; it is not assumed
but measured against the Fock oracle, at every site, by the oracle-verify
experiment, which alone reads the oracle; the energy-density site sum
reproduces sum_k omega_k |alpha_k|^2 with no further constant. That
experiment arbitrates these same columns against the oracle, and localization
diagnostics ask how fast they decay away from the progenitor's support, and
whether superpositions of localized states stay localized. This module only
measures: a localization report holds the support fraction, the binned
distances beyond the support, each probe's largest excess per bin and one
decay fit per probe, and the ELP check returns its random superpositions as
bare progenitors, for the caller to report on and judge; the bounds that
judge those numbers are the experiments' constants.
The probes and diagnostics read only ``spec.lattice`` and
``spec.apply_power`` of the Spectrum they are given; ``vacuum_two_point``
returns one kernel column, f(R) applied to a unit vector, which holds the
two-point function from one source site to every site.
probe_excesses maps a (sites x k) block of progenitors column by column; the
support, and so every localization report, is of one state and refuses a
block.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .geometry import apply_J
from .modes import PhaseVector, _check_same_lattice
from .spectral import Lattice, Spectrum, bin_by_distance, fit_decay_length, DecayFit

KAPPA = 0.5
SUPPORT_EPS = 1e-6
FIT_WINDOW_COMPTON = (2.0, 10.0)
ZERO_TAIL_FLOOR = 1e-20  # relative: probe values below this count as vanished
SUPPORT_FRACTION_MAX = 0.5  # strict: only states under this support fraction are fitted


# ---------------------------------------------------------------------------
# observable excesses over the vacuum
# ---------------------------------------------------------------------------

PROBES = ("phi2", "pi2", "energy")


def probe_excesses(u: PhaseVector, spec: Spectrum) -> np.ndarray:
    """Site-wise excesses of <phi(x)^2>, <pi(x)^2> and the energy density.

    The last axis holds one probe each, in the order of PROBES, so a
    (sites x k) block maps column by column to (sites x k x probes). The
    energy density coincides pointwise with the pi^2 excess, as both
    quadratures carry the same mode weights in this convention.
    """
    _check_same_lattice(u.lattice, spec.lattice)
    smeared_phi = spec.apply_power(0.5, u.phi)
    smeared_pi = spec.apply_power(-0.5, u.pi)
    return np.stack(
        (
            KAPPA * (u.phi**2 + smeared_pi**2),
            KAPPA * (u.pi**2 + smeared_phi**2),
            2.0 * KAPPA * (0.5 * u.pi**2 + 0.5 * smeared_phi**2),
        ),
        axis=-1,
    )


def vacuum_two_point(spec: Spectrum, x: int) -> np.ndarray:
    """<0| phi(x) phi(y) |0> = (1/2) sum_k f_k(x) f_k(y) / omega_k at every site y."""
    return 0.5 * spec.kernel_column(lambda lam: lam**-0.5, x)


# ---------------------------------------------------------------------------
# localization diagnostics
# ---------------------------------------------------------------------------

def support_sites(u: PhaseVector) -> np.ndarray:
    """Boolean mask of sites where either field exceeds SUPPORT_EPS times the peak."""
    if u.phi.ndim != 1:
        raise ValueError(f"support takes one phase point, not a block of shape {u.phi.shape}")
    peak = max(float(np.abs(u.phi).max()), float(np.abs(u.pi).max()))
    if peak == 0.0:
        raise ValueError("zero state has no support")
    floor = SUPPORT_EPS * peak
    return (np.abs(u.phi) > floor) | (np.abs(u.pi) > floor)


def distance_beyond(lattice: Lattice, mask: np.ndarray) -> np.ndarray:
    """Minimum-image distance from each site to the nearest masked site."""
    grid = np.asarray(mask, dtype=bool).reshape(lattice.shape)
    if not grid.any():
        raise ValueError("empty support mask")
    axes = tuple(range(lattice.ndim))
    # a step from an interior masked site toward x shortens the minimum-image
    # offset, so the nearest masked site is one with an unmasked neighbour
    interior = np.logical_and.reduce(
        [np.roll(grid, step, axis=ax) for ax in axes for step in (1, -1)]
    )
    # minimum-image distance is translation invariant: distances_from(i) is
    # distances_from(0) rolled by the coordinates of i, the same floats
    base = lattice.distances_from(0).reshape(lattice.shape)
    dmin = np.full(lattice.shape, np.inf)
    for coord in zip(*np.nonzero(grid & ~interior)):
        np.minimum(dmin, np.roll(base, coord, axis=axes), out=dmin)
    dmin[grid] = 0.0
    return dmin.reshape(-1)


@dataclasses.dataclass(frozen=True)
class LocalizationReport:
    """How far a one-particle state's observable excesses reach.

    ``distances`` are the binned distances beyond the support, ``values``
    the (bins x probes) array of each probe's largest excess per bin, and
    ``fits`` one DecayFit per PROBES entry, in order. A state whose support
    covers SUPPORT_FRACTION_MAX of the lattice or more gets all three empty
    rather than fits; a delocalized plane wave simply has no outside region
    to probe, and that is a finding, not an error.
    """

    support_fraction: float
    distances: np.ndarray
    values: np.ndarray
    fits: tuple[DecayFit, ...]


def localization_report(
    u: PhaseVector,
    spec: Spectrum,
    compton: float,
) -> LocalizationReport:
    """Fit the decay of all observable excesses of progenitor u beyond its support.

    ``compton`` is the expected decay length of the theory; the fit window
    FIT_WINDOW_COMPTON is in units of it, measuring distance beyond the
    support's edge.
    """
    _check_same_lattice(u.lattice, spec.lattice)
    lattice = spec.lattice
    mask = support_sites(u)
    frac = int(mask.sum()) / lattice.nsites
    if frac >= SUPPORT_FRACTION_MAX:
        return LocalizationReport(frac, np.empty(0), np.empty((0, len(PROBES))), ())
    dist = distance_beyond(lattice, mask)
    outside = ~mask
    lo, hi = FIT_WINDOW_COMPTON
    window_abs = (lo * compton, hi * compton)
    # one column per probe, binned by one sort of the distances
    values = probe_excesses(u, spec)
    d_out, binned = bin_by_distance(dist[outside], values[outside])
    in_window = (d_out >= window_abs[0]) & (d_out <= window_abs[1])
    fits = []
    for column, v_out in zip(values.T, binned.T):
        floor = ZERO_TAIL_FLOOR * float(column.max())
        if in_window.any() and not np.any(v_out[in_window] > floor):
            # compactly supported probe: it decays faster than any
            # exponential, so there is nothing to fit, and its length is 0
            fits.append(DecayFit(length=0.0, rms_log_residual=0.0, nsamples=0))
        else:
            fits.append(fit_decay_length(d_out, v_out, window_abs))
    return LocalizationReport(frac, d_out, binned, tuple(fits))


def elp_check(
    states: list[PhaseVector],
    spec: Spectrum,
    n_trials: int,
    rng: np.random.Generator,
) -> tuple[PhaseVector, ...]:
    """Random complex superpositions of the input progenitors.

    Each of ``n_trials`` draws complex coefficients c = a + i b, with a and
    b standard normal vectors from ``rng`` (all of a, then all of b), scaled
    to unit norm, and forms sum_i c_i u_i = sum_i Re(c_i) u_i + Im(c_i) J u_i.
    The ELP holds when the inputs are localized inside a region and so is
    every superposition; reporting on them and judging is the caller's.
    """
    if not states:
        raise ValueError("need at least one state")
    for u in states:
        _check_same_lattice(u.lattice, spec.lattice)
    # (phi, pi) of each u_i and of J u_i as (2, nsites) arrays, so that a
    # trial validates one PhaseVector rather than one per term of its sum
    fields = [np.array((u.phi, u.pi)) for u in states]
    rotated = [np.array((ju.phi, ju.pi)) for ju in (apply_J(u, spec) for u in states)]
    trials = []
    for _ in range(n_trials):
        raw = rng.normal(size=len(states)) + 1j * rng.normal(size=len(states))
        coeffs = raw / np.linalg.norm(raw)
        phi, pi = sum(
            c.real * f + c.imag * jf for c, f, jf in zip(coeffs, fields, rotated)
        )
        trials.append(PhaseVector(spec.lattice, phi, pi))
    return tuple(trials)
