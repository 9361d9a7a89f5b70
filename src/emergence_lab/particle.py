"""One-particle states and where their observables live.

A one-particle state is labeled by its mode amplitudes alpha_k (equivalently
by the classical progenitor solution those amplitudes describe). Expectation
values of squared field operators in such a state exceed their vacuum values
by an amount expressible directly in the progenitor's fields:

    phi-square excess    kappa (phi^2 + (R^{-1/2} pi)^2)
    pi-square excess     kappa (pi^2 + (R^{1/2} phi)^2)
    energy density       2 kappa (pi^2/2 + (R^{1/2} phi)^2/2)

States need not be normalized; the excesses above are quadratic in alpha.
KAPPA is a fixed constant of the quantization conventions; it is not assumed
but measured against the brute-force Fock oracle by calibrate_kappa, and the
energy-density site sum reproduces sum_k omega_k |alpha_k|^2 with no further
constant. Localization diagnostics ask how fast these excesses decay away
from the progenitor's support, and whether superpositions of localized states
stay localized.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from . import fock_oracle
from .modes import ModeVector, PhaseVector, from_modes, to_modes
from .spectral import Lattice, Spectrum, bin_by_distance, fit_decay_length, DecayFit

KAPPA = 0.5
SUPPORT_EPS = 1e-6
LOCALIZATION_GATE = 1.2
FIT_WINDOW_COMPTON = (2.0, 10.0)
ZERO_TAIL_FLOOR = 1e-20  # relative: probe values below this count as vanished


@dataclasses.dataclass(frozen=True)
class OneParticleState:
    """Mode amplitudes plus the classical progenitor they label."""

    modes: ModeVector
    progenitor: PhaseVector

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.modes.alpha) ** 2))

    @property
    def spectrum(self) -> Spectrum:
        return self.modes.spectrum


def make_particle(u: PhaseVector, spec: Spectrum) -> OneParticleState:
    """One-particle state labeled by a classical solution; real-linear in u."""
    return OneParticleState(modes=to_modes(u, spec), progenitor=u)


def particle_from_modes(modes: ModeVector) -> OneParticleState:
    return OneParticleState(modes=modes, progenitor=from_modes(modes))


def superpose(
    states: list[OneParticleState], coefficients: np.ndarray
) -> OneParticleState:
    """Complex linear combination in the one-particle Hilbert space."""
    if not states:
        raise ValueError("need at least one state")
    spec = states[0].spectrum
    for s in states[1:]:
        if s.spectrum is not spec:
            raise ValueError("states belong to different spectra")
    coeffs = np.asarray(coefficients, dtype=complex).reshape(-1)
    if coeffs.shape != (len(states),):
        raise ValueError(f"{coeffs.shape[0]} coefficients for {len(states)} states")
    alpha = sum(c * s.modes.alpha for c, s in zip(coeffs, states))
    return particle_from_modes(ModeVector(spectrum=spec, alpha=alpha))


# ---------------------------------------------------------------------------
# observable excesses over the vacuum
# ---------------------------------------------------------------------------

def phi2_diff(state: OneParticleState) -> np.ndarray:
    """Site-wise excess of <phi(x)^2> over the vacuum value."""
    u = state.progenitor
    spec = state.spectrum
    smeared_pi = spec.apply_power(-0.5, u.pi)
    return KAPPA * (u.phi**2 + smeared_pi**2)


def pi2_diff(state: OneParticleState) -> np.ndarray:
    """Site-wise excess of <pi(x)^2> over the vacuum value."""
    u = state.progenitor
    spec = state.spectrum
    smeared_phi = spec.apply_power(0.5, u.phi)
    return KAPPA * (u.pi**2 + smeared_phi**2)


def energy_density_diff(state: OneParticleState) -> np.ndarray:
    """Site-wise excess of the energy density pi^2/2 + (R^{1/2} phi)^2/2.

    Summed over sites (times the cell volume) this gives exactly
    sum_k omega_k |alpha_k|^2. Pointwise it coincides with pi2_diff because
    both quadratures carry the same mode weights in this convention.
    """
    u = state.progenitor
    spec = state.spectrum
    smeared_phi = spec.apply_power(0.5, u.phi)
    return 2.0 * KAPPA * (0.5 * u.pi**2 + 0.5 * smeared_phi**2)


PROBES = {
    "phi2": phi2_diff,
    "pi2": pi2_diff,
    "energy": energy_density_diff,
}


def vacuum_two_point(spec: Spectrum, x: int, y: int) -> float:
    """<0| phi(x) phi(y) |0> = (1/2) sum_k f_k(x) f_k(y) / omega_k."""
    return 0.5 * float(spec.kernel_column(lambda lam: lam**-0.5, x)[y])


def calibrate_kappa(
    spec: Spectrum, mode_index: int = 0, n_max: int = 14
) -> float:
    """Measure KAPPA against the Fock oracle on a single mode.

    Compares the oracle's <phi(x)^2> excess in the one-excitation state of
    mode k with the classical expression phi^2 + (R^{-1/2} pi)^2 of the
    corresponding progenitor, site by site, and returns the median ratio.
    """
    space = fock_oracle.build_fock(spec, (mode_index,), n_max=n_max)
    part = fock_oracle.one_particle(space, np.array([1.0]))
    vac = fock_oracle.vacuum(space)
    alpha = np.zeros(spec.nmodes, dtype=complex)
    alpha[mode_index] = 1.0
    state = particle_from_modes(ModeVector(spectrum=spec, alpha=alpha))
    u = state.progenitor
    denom = u.phi**2 + spec.apply_power(-0.5, u.pi) ** 2
    ratios = []
    for x in range(spec.lattice.nsites):
        if denom[x] < 1e-12 * denom.max():
            continue
        op = fock_oracle.field_operator(space, x, "phi")
        op2 = (op @ op).tocsr()
        excess = (
            fock_oracle.expectation(part, op2).real
            - fock_oracle.expectation(vac, op2).real
        )
        ratios.append(excess / denom[x])
    return float(np.median(ratios))


# ---------------------------------------------------------------------------
# localization diagnostics
# ---------------------------------------------------------------------------

def support_sites(u: PhaseVector) -> np.ndarray:
    """Boolean mask of sites where either field exceeds SUPPORT_EPS times the peak."""
    peak = max(float(np.abs(u.phi).max()), float(np.abs(u.pi).max()))
    if peak == 0.0:
        raise ValueError("zero state has no support")
    floor = SUPPORT_EPS * peak
    return (np.abs(u.phi) > floor) | (np.abs(u.pi) > floor)


def distance_beyond(lattice: Lattice, mask: np.ndarray) -> np.ndarray:
    """Minimum-image distance from each site to the nearest masked site."""
    sites = np.nonzero(mask)[0]
    if sites.size == 0:
        raise ValueError("empty support mask")
    # minimum-image distance is translation invariant: distances_from(i) is
    # distances_from(0) rolled by the coordinates of i, the same floats
    base = lattice.distances_from(0).reshape(lattice.shape)
    axes = tuple(range(lattice.ndim))
    dmin = np.full(lattice.shape, np.inf)
    for coord in zip(*np.unravel_index(sites, lattice.shape)):
        np.minimum(dmin, np.roll(base, coord, axis=axes), out=dmin)
    return dmin.reshape(-1)


def region_ball(lattice: Lattice, center: int, radius: float) -> np.ndarray:
    """Boolean mask of the minimum-image ball around one site."""
    return lattice.distances_from(center) <= radius


@dataclasses.dataclass(frozen=True)
class ProbeResult:
    """Decay fit of one observable excess beyond the support."""

    probe: str
    distances: np.ndarray
    values: np.ndarray
    fit: DecayFit
    passes: bool


@dataclasses.dataclass(frozen=True)
class LocalizationReport:
    """Verdict on whether a one-particle state is localized.

    A state whose support already covers half the lattice is reported as
    not localized outright (status explains why, probes are empty) rather
    than fitted; a delocalized plane wave simply has no outside region to
    probe, and that is a finding, not an error.
    """

    status: str
    support_size: int
    support_fraction: float
    compton: float
    gate: float
    probes: tuple[ProbeResult, ...]
    passes: bool


def localization_report(
    state: OneParticleState,
    compton: float,
) -> LocalizationReport:
    """Fit the decay of all observable excesses beyond the support.

    ``compton`` is the expected decay length of the theory; the fit window
    FIT_WINDOW_COMPTON is in units of it, measuring distance beyond the
    support's edge. Each probe passes when its fitted length is at most
    LOCALIZATION_GATE * compton and the fit quality flag holds.
    """
    lattice = state.spectrum.lattice
    gate = LOCALIZATION_GATE * compton
    mask = support_sites(state.progenitor)
    nsup = int(mask.sum())
    frac = nsup / lattice.nsites
    if frac >= 0.5:
        return LocalizationReport(
            status=f"not localized: support covers {nsup} of {lattice.nsites} sites",
            support_size=nsup,
            support_fraction=frac,
            compton=compton,
            gate=gate,
            probes=(),
            passes=False,
        )
    dist = distance_beyond(lattice, mask)
    outside = ~mask
    lo, hi = FIT_WINDOW_COMPTON
    window_abs = (lo * compton, hi * compton)
    results = []
    for name, probe in PROBES.items():
        values = probe(state)
        d_out, v_out = bin_by_distance(dist[outside], values[outside])
        in_window = (d_out >= window_abs[0]) & (d_out <= window_abs[1])
        floor = ZERO_TAIL_FLOOR * float(values.max())
        if in_window.any() and not np.any(v_out[in_window] > floor):
            # compactly supported probe: it decays faster than any
            # exponential, so there is nothing to fit and the gate holds
            fit = DecayFit(
                length=0.0,
                window=window_abs,
                rms_log_residual=0.0,
                quality_ok=True,
                nsamples=0,
                slope=float("nan"),
            )
            ok = True
        else:
            fit = fit_decay_length(d_out, v_out, window_abs)
            ok = bool(fit.quality_ok and fit.length <= gate)
        results.append(
            ProbeResult(probe=name, distances=d_out, values=v_out, fit=fit, passes=ok)
        )
    all_ok = all(r.passes for r in results)
    return LocalizationReport(
        status="ok" if all_ok else "probe decay outside gate",
        support_size=nsup,
        support_fraction=frac,
        compton=compton,
        gate=gate,
        probes=tuple(results),
        passes=all_ok,
    )


@dataclasses.dataclass(frozen=True)
class TrialResult:
    coefficients: np.ndarray
    support_in_region: bool
    report: LocalizationReport

    @property
    def passes(self) -> bool:
        return self.support_in_region and self.report.passes


@dataclasses.dataclass(frozen=True)
class ELPReport:
    """Superposition-stability check of localization.

    precondition_ok records whether every input state was itself localized
    inside the region; when it fails the trials are skipped and the report
    explains which input broke the precondition.
    """

    precondition_ok: bool
    failures: tuple[str, ...]
    trials: tuple[TrialResult, ...]
    seed: int
    passes: bool


def elp_check(
    states: list[OneParticleState],
    region: np.ndarray,
    compton: float,
    n_trials: int = 10,
    seed: int = 0,
) -> ELPReport:
    """Random complex superpositions of localized states stay localized.

    Every input must be localized with support inside ``region`` (boolean
    site mask); then ``n_trials`` Gaussian complex combinations are formed
    and each must again be localized with support inside the region.
    """
    region = np.asarray(region, dtype=bool).reshape(-1)
    failures = []
    for i, s in enumerate(states):
        mask = support_sites(s.progenitor)
        if np.any(mask & ~region):
            failures.append(f"state {i}: support leaves the region")
            continue
        rep = localization_report(s, compton)
        if not rep.passes:
            failures.append(f"state {i}: {rep.status}")
    if failures:
        return ELPReport(
            precondition_ok=False,
            failures=tuple(failures),
            trials=(),
            seed=seed,
            passes=False,
        )
    rng = np.random.default_rng(seed)
    trials = []
    for _ in range(n_trials):
        raw = rng.normal(size=len(states)) + 1j * rng.normal(size=len(states))
        coeffs = raw / np.linalg.norm(raw)
        w = superpose(states, coeffs)
        mask = support_sites(w.progenitor)
        in_region = not np.any(mask & ~region)
        rep = localization_report(w, compton)
        trials.append(
            TrialResult(coefficients=coeffs, support_in_region=in_region, report=rep)
        )
    return ELPReport(
        precondition_ok=True,
        failures=(),
        trials=tuple(trials),
        seed=seed,
        passes=all(t.passes for t in trials),
    )
