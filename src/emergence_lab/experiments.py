"""Experiment battery behind the command-line runner.

Each experiment builds its own small lattice, runs one family of checks and
returns a RunReport (per-check records plus an overall verdict) together with
plot-ready tables. Experiments are pure given their config: every random draw
flows from one generator seeded with ``config.seed``, so reruns with the same
config reproduce the same reports and tables byte for byte. Timing is carried
on the report object for display but is never written to disk.
"""

from __future__ import annotations

import dataclasses
import time
import typing

import numpy as np

from . import fock_oracle
from .asymptotics import (
    SymbolPolynomial,
    branch_cut_kernel,
    direct_radial_integral,
    kernel_decay_rate,
    lattice_vs_continuum,
    predict_compton,
)
from .geometry import (
    apply_J,
    inner_product,
    schrodinger_rhs,
    segal_inner_product,
    symplectic,
)
from .modes import (
    ModeVector,
    PhaseVector,
    check_canonical,
    evolve_state,
    field_hamiltonian,
    from_modes,
    gaussian_bump,
    hamiltonian_energy,
    to_modes,
)
from .newton_wigner import (
    evolve_nw,
    from_nw,
    gaussian_packet,
    nonrelativistic_compare,
    nw_delta_localization,
    nw_norm,
    superluminal_leakage,
    to_nw,
)
from .particle import (
    PROBES,
    calibrate_kappa,
    elp_check,
    localization_report,
    make_particle,
    particle_from_modes,
    region_ball,
    vacuum_two_point,
)
from .spectral import (
    Lattice,
    Spectrum,
    build_klein_gordon,
    diagonalize,
    fit_decay_length,
    kernel_profile,
)

# cutoff radius of truncated Gaussian progenitors, in units of the width;
# 4 sigma keeps the edge value ~3e-4 of the peak, far above the support
# threshold, so declared support is stable under superposition
BUMP_CUTOFF_WIDTHS = 4.0


class ConfigError(ValueError):
    """Raised when a config mapping cannot become a valid ExperimentConfig."""


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Flat, serializable experiment parameters.

    ``shape = ()`` means "use the experiment's documented default size".
    Tolerances must be positive; the seed feeds the single random generator
    used by an experiment run.
    """

    experiment: str
    shape: tuple[int, ...] = ()
    spacing: float = 1.0
    mass: float = 1.0
    lambdas: tuple[float, ...] = (-0.5, -1.0)
    time: float = 50.0
    width_compton: float = 5.0
    n_trials: int = 10
    n_pairs: int = 100
    seed: int = 0
    decay_rtol: float = 0.1
    rate_rtol: float = 0.05
    form_tol: float = 1e-9
    drift_tol: float = 1e-8
    nonrel_tol: float = 0.01

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        object.__setattr__(self, "lambdas", tuple(float(x) for x in self.lambdas))
        if self.experiment not in EXPERIMENT_NAMES + ("all",):
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        for name in ("decay_rtol", "rate_rtol", "form_tol", "drift_tol", "nonrel_tol"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        if not self.mass > 0:
            raise ConfigError("mass must be positive")
        if not self.spacing > 0:
            raise ConfigError("spacing must be positive")
        if self.n_trials < 1 or self.n_pairs < 1:
            raise ConfigError("n_trials and n_pairs must be at least 1")
        if not self.time > 0:
            raise ConfigError("time must be positive")
        if not self.width_compton > 0:
            raise ConfigError("width_compton must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.shape:
            try:
                Lattice(self.shape, self.spacing)
            except ValueError as exc:
                raise ConfigError(f"shape must be 1 to 3 positive integers: {exc}") from None


_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)
_KIND_WORDS = {int: "integer", float: "number", str: "word"}


def _parse_field(key: str, raw):
    """Value of config field ``key`` from its text or a Python value.

    Text is split on whitespace; a Python scalar or tuple is taken as it is.
    Every token is read through ``str`` by the field's type, so ``true``,
    ``True`` and ``64.7`` are refused for an integer rather than coerced.
    Tuple fields take one or more tokens, scalar fields exactly one.
    """
    hint = _FIELD_TYPES[key]
    many = typing.get_origin(hint) is tuple
    kind = typing.get_args(hint)[0] if many else hint
    if isinstance(raw, str):
        tokens = raw.split()
    else:
        tokens = raw if isinstance(raw, tuple) else (raw,)
    word = _KIND_WORDS[kind]
    expected = f"one or more {word}s" if many else f"one {word}"
    error = ConfigError(f"{key} must be {expected}, got {raw!r}")
    if not tokens or (len(tokens) > 1 and not many):
        raise error
    try:
        values = tuple(kind(str(t)) for t in tokens)
    except ValueError:
        raise error from None
    return values if many else values[0]


def config_from_mapping(experiment: str, mapping: dict) -> ExperimentConfig:
    """Build a validated config from a flat key mapping (a parsed file).

    Each value is parsed by its ExperimentConfig field type. The experiment
    name comes from the command line, not the file; a file that names one
    anyway must agree with it.
    """
    values: dict = {}
    for key, raw in mapping.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _parse_field(key, raw)
    named = values.pop("experiment", experiment)
    if named != experiment:
        raise ConfigError(
            f"config names experiment {named!r} but {experiment!r} was requested"
        )
    return ExperimentConfig(experiment=experiment, **values)


def config_to_mapping(config: ExperimentConfig) -> dict:
    """Flat echo of a config; inverse of config_from_mapping.

    A one-element shape or lambdas echoes as its element, and the default
    empty shape is left out.
    """
    out = dataclasses.asdict(config)
    for key in ("shape", "lambdas"):
        if len(out[key]) == 1:
            out[key] = out[key][0]
    if not config.shape:
        del out["shape"]
    return out


# ---------------------------------------------------------------------------
# reports and tables
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CheckRecord:
    """One measured quantity against its expectation.

    A record passes when |measured - expected| <= tolerance; boolean checks
    encode pass as measured 1.0 against expected 1.0 at tolerance 0.
    """

    name: str
    measured: float
    expected: float
    tolerance: float
    passed: bool


@dataclasses.dataclass(frozen=True)
class Table:
    """Plot-ready rows with named columns; all rows share the column count."""

    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"table {self.name!r}: row width {len(row)} vs "
                    f"{len(self.columns)} columns"
                )


@dataclasses.dataclass(frozen=True)
class RunReport:
    """Outcome of one experiment: parameter echo plus per-check records.

    ``elapsed_seconds`` is measured wall time; it is displayed but excluded
    from serialized reports so that reruns are byte-identical.
    """

    experiment: str
    config: dict
    seed: int
    checks: tuple[CheckRecord, ...]
    passed: bool
    elapsed_seconds: float


def _check(name: str, measured: float, expected: float, tolerance: float) -> CheckRecord:
    measured = float(measured)
    passed = bool(abs(measured - expected) <= tolerance)
    return CheckRecord(
        name=name,
        measured=measured,
        expected=float(expected),
        tolerance=float(tolerance),
        passed=passed,
    )


def _flag(name: str, condition: bool) -> CheckRecord:
    return _check(name, 1.0 if condition else 0.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _default_lattice(config: ExperimentConfig, default_sites: int) -> Lattice:
    shape = config.shape if config.shape else (default_sites,)
    return Lattice(shape=shape, spacing=config.spacing)


def _spectrum(config: ExperimentConfig, default_sites: int) -> Spectrum:
    lattice = _default_lattice(config, default_sites)
    return diagonalize(build_klein_gordon(config.mass, lattice))


def _random_state(rng: np.random.Generator, lattice: Lattice) -> PhaseVector:
    n = lattice.nsites
    return PhaseVector(lattice=lattice, phi=rng.normal(size=n), pi=rng.normal(size=n))


def _rel(a: complex, b: complex) -> float:
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _run_kernel(config: ExperimentConfig, rng) -> tuple[list[CheckRecord], list[Table]]:
    spec = _spectrum(config, 512)
    compton = 1.0 / config.mass
    source = spec.lattice.nsites // 2
    profile = kernel_profile(spec, -0.5, source)
    window = (3.0 * compton, 20.0 * compton)
    fit = fit_decay_length(profile.distances, profile.values, window)
    checks = [
        _check("decay_length", fit.length, compton, config.decay_rtol * compton),
        _flag("fit_quality", fit.quality_ok),
    ]
    # beyond ~37 Compton lengths the kernel sinks under the roundoff floor
    # of its FFT sum (~1e-17 of the peak; a dense eigensolver's is ~1e-16),
    # so monotonicity is only meaningful on the physical part of the tail
    sel = (profile.distances >= 3.0 * compton) & (profile.distances <= 30.0 * compton)
    vals = profile.values[sel]
    checks.append(_flag("profile_decreasing", bool(np.all(np.diff(vals) < 0))))
    rows = tuple(
        (float(d), float(v), float(np.log(v)))
        for d, v in zip(profile.distances, profile.values)
        if v > 0
    )
    table = Table("kernel_profile", ("distance", "value", "log_value"), rows)
    return checks, [table]


def _run_modes_check(config, rng) -> tuple[list[CheckRecord], list[Table]]:
    spec = _spectrum(config, 64)
    lattice = spec.lattice
    canon = check_canonical(spec)
    u = _random_state(rng, lattice)
    modes = to_modes(u, spec)
    back = from_modes(modes)
    scale = max(np.abs(u.phi).max(), np.abs(u.pi).max())
    roundtrip = max(np.abs(back.phi - u.phi).max(), np.abs(back.pi - u.pi).max()) / scale
    e_modes = hamiltonian_energy(modes)
    e_field = field_hamiltonian(u, spec.operator)
    evolved = to_modes(evolve_state(u, spec, config.time), spec)
    drift = abs(hamiltonian_energy(evolved) - e_modes) / e_modes
    checks = [
        _check("orthonormality", canon.orthonormality_dev, 0.0, config.form_tol),
        _check("completeness", canon.completeness_dev, 0.0, config.form_tol),
        _check("mode_roundtrip", roundtrip, 0.0, config.form_tol),
        _check("energy_agreement", _rel(e_modes, e_field), 0.0, config.form_tol),
        _check("energy_drift", drift, 0.0, config.form_tol),
    ]
    rows = tuple(
        (int(k), float(spec.eigenvalues[k]), float(spec.frequencies[k]))
        for k in range(spec.nmodes)
    )
    table = Table("mode_frequencies", ("mode", "eigenvalue", "frequency"), rows)
    return checks, [table]


def _run_geometry_check(config, rng) -> tuple[list[CheckRecord], list[Table]]:
    spec = _spectrum(config, 64)
    lattice = spec.lattice
    j_sq = rhs_dev = forms = sympl = 0.0
    rows = []
    for i in range(20):
        u = _random_state(rng, lattice)
        v = _random_state(rng, lattice)
        jju = apply_J(apply_J(u, spec), spec)
        j_sq = max(j_sq, (jju + u).norm() / u.norm())
        rhs = schrodinger_rhs(u, spec)
        hamilton = PhaseVector(lattice, u.pi, -spec.operator.apply(u.phi))
        rhs_dev = max(rhs_dev, (rhs - hamilton).norm() / hamilton.norm())
        f_alpha = inner_product(u, v, spec, form="alpha")
        f_qp = inner_product(u, v, spec, form="qp")
        f_direct = inner_product(u, v, spec, form="direct")
        devs = (
            _rel(f_alpha, f_qp), _rel(f_alpha, f_direct), _rel(f_qp, f_direct),
        )
        forms = max(forms, *devs)
        om = symplectic(u, v)
        om_j = symplectic(apply_J(u, spec), apply_J(v, spec))
        sympl = max(sympl, abs(om_j - om) / max(abs(om), 1e-300))
        rows.append((i, devs[0], devs[1], devs[2]))
    checks = [
        _check("J_squared_is_minus_identity", j_sq, 0.0, config.form_tol),
        _check("rhs_matches_hamilton", rhs_dev, 0.0, config.form_tol),
        _check("forms_agree", forms, 0.0, config.form_tol),
        _check("symplectic_J_invariance", sympl, 0.0, config.form_tol),
    ]
    table = Table(
        "form_agreement", ("pair", "alpha_vs_qp", "alpha_vs_direct", "qp_vs_direct"),
        tuple(rows),
    )
    return checks, [table]


def _run_oracle_verify(config, rng) -> tuple[list[CheckRecord], list[Table]]:
    lattice = Lattice((6,), spacing=config.spacing)
    spec = diagonalize(build_klein_gordon(config.mass, lattice))
    kappa = calibrate_kappa(spec, mode_index=0, n_max=14)
    checks = [_check("kappa", kappa, 0.5, 1e-9)]

    space = fock_oracle.build_fock(spec, (0, 1), n_max=10)
    direction = np.array([0.8, 0.6j])
    state_fock = fock_oracle.one_particle(space, direction)
    alpha = np.zeros(spec.nmodes, dtype=complex)
    alpha[0], alpha[1] = direction
    state = particle_from_modes(ModeVector(spectrum=spec, alpha=alpha))
    vac = fock_oracle.vacuum(space)
    sites = range(lattice.nsites)
    fields = {
        which: [fock_oracle.field_operator(space, x, which) for x in sites]
        for which in ("phi", "pi")
    }
    rows = []
    for name, fn in PROBES.items():
        analytic = fn(state)
        worst = 0.0
        for x in sites:
            field = fields["phi" if name == "phi2" else "pi"][x]
            op = field @ field
            if name == "energy":
                op = 0.5 * op + 0.5 * _sandwich_r(spec, space, x)
            excess = (
                fock_oracle.expectation(state_fock, op).real
                - fock_oracle.expectation(vac, op).real
            )
            worst = max(worst, abs(excess - analytic[x]))
        checks.append(_check(f"{name}_matches_oracle", worst, 0.0, 1e-8))
        rows.append((name, worst, 1e-8))

    lattice3 = Lattice((3,), spacing=config.spacing)
    spec3 = diagonalize(build_klein_gordon(config.mass, lattice3))
    space3 = fock_oracle.build_fock(spec3, (0, 1, 2), n_max=6)
    vac3 = fock_oracle.vacuum(space3)
    phi3 = [fock_oracle.field_operator(space3, x, "phi") for x in range(3)]
    worst = 0.0
    for x in range(3):
        for y in range(3):
            oracle = fock_oracle.expectation(vac3, (phi3[x] @ phi3[y]).tocsr()).real
            worst = max(worst, abs(oracle - vacuum_two_point(spec3, x, y)))
    checks.append(_check("vacuum_two_point", worst, 0.0, 1e-8))
    rows.append(("two_point", worst, 1e-8))

    unit = direction / np.linalg.norm(direction)
    z = 0.4 + 0.2j
    disp = fock_oracle.displacement(space, unit, z)
    coh = fock_oracle.coherent_state(space, z * unit)
    dev = float(np.linalg.norm(disp.amplitudes - coh.vector.amplitudes))
    checks.append(_check("displacement_vs_coherent", dev, 0.0, 1e-10))
    rows.append(("displacement", dev, 1e-10))

    single = fock_oracle.build_fock(spec, (0,), n_max=14)
    report = fock_oracle.small_state_limit_check(
        single, np.array([1.0]), np.geomspace(0.02, 0.2, 8)
    )
    checks.append(_check("small_state_exponent", report.exponent, 2.0, 0.1))
    rows.append(("small_state_exponent", report.exponent, 0.1))

    table = Table("oracle_deviations", ("check", "value", "tolerance"), tuple(rows))
    return checks, [table]


def _sandwich_r(spec: Spectrum, space: fock_oracle.FockSpace, x: int):
    """Oracle operator (R^{1/2} phi)(x)^2, the potential term of the density.

    (R^{1/2} phi)(x) = sum_k sqrt(omega_k / 2) f_k(x) (a_k + a_k^dagger),
    summed over the truncated space's modes.
    """
    import scipy.sparse as sp

    op = sp.csr_matrix((space.dim, space.dim), dtype=float)
    for pos, k in enumerate(space.mode_indices):
        coeff = np.sqrt(spec.frequencies[k] / 2.0) * spec.basis[x, k]
        op = op + coeff * (space.lowering[pos] + space.raising(pos))
    return (op @ op).tocsr()


def _run_localize(config, rng) -> tuple[list[CheckRecord], list[Table]]:
    spec = _spectrum(config, 512)
    lattice = spec.lattice
    compton = 1.0 / config.mass
    width = config.width_compton * compton
    bump = gaussian_bump(
        lattice, lattice.nsites // 2, width, cutoff=BUMP_CUTOFF_WIDTHS * width
    )
    state = make_particle(bump, spec)
    report = localization_report(state, compton)
    checks = [
        _flag("state_localizable", report.support_fraction < 0.5),
    ]
    for probe in report.probes:
        checks.append(_flag(f"{probe.probe}_decay_within_gate", probe.passes))
    rows = []
    if report.probes:
        dists = report.probes[0].distances
        cols = {p.probe: p.values for p in report.probes}
        for i, d in enumerate(dists):
            rows.append((
                float(d),
                float(cols["phi2"][i]),
                float(cols["pi2"][i]),
                float(cols["energy"][i]),
            ))
    table = Table(
        "localization_profile", ("distance", "phi2", "pi2", "energy"), tuple(rows)
    )
    return checks, [table]


def _run_elp(config, rng) -> tuple[list[CheckRecord], list[Table]]:
    spec = _spectrum(config, 512)
    lattice = spec.lattice
    compton = 1.0 / config.mass
    width = config.width_compton * compton
    center = lattice.nsites // 2
    offset = max(1, int(round(8.0 * compton / lattice.spacing)))
    cutoff = BUMP_CUTOFF_WIDTHS * width
    # the centres wrap on lattices shorter than the offset
    states = [
        make_particle(
            gaussian_bump(lattice, site % lattice.nsites, width, cutoff=cutoff), spec
        )
        for site in (center - offset, center + offset)
    ]
    region = region_ball(lattice, center, 45.0 * compton)
    report = elp_check(
        states, region, compton, n_trials=config.n_trials, seed=config.seed
    )
    n_passed = sum(1 for t in report.trials if t.passes)
    checks = [
        _flag("inputs_localized_in_region", report.precondition_ok),
        _check("trials_passed", n_passed, config.n_trials, 0.0),
    ]
    rows = []
    for i, trial in enumerate(report.trials):
        lengths = {p.probe: p.fit.length for p in trial.report.probes}
        rows.append((
            i,
            int(trial.support_in_region),
            int(trial.passes),
            lengths.get("phi2", float("nan")),
            lengths.get("pi2", float("nan")),
            lengths.get("energy", float("nan")),
        ))
    table = Table(
        "elp_trials",
        ("trial", "support_in_region", "passes", "phi2_length", "pi2_length",
         "energy_length"),
        tuple(rows),
    )
    return checks, [table]


def _run_nw(config, rng) -> tuple[list[CheckRecord], list[Table]]:
    spec = _spectrum(config, 512)
    lattice = spec.lattice
    compton = 1.0 / config.mass
    commute = norm_dev = roundtrip = evolve_dev = 0.0
    for _ in range(10):
        u = _random_state(rng, lattice)
        nw = to_nw(u, spec)
        ju = to_nw(apply_J(u, spec), spec)
        commute = max(commute, float(np.abs(1j * nw.psi - ju.psi).max()))
        norm_u = np.sqrt(inner_product(u, u, spec, form="alpha").real)
        norm_dev = max(norm_dev, abs(nw_norm(nw) - norm_u) / norm_u)
        back = from_nw(nw)
        scale = max(np.abs(u.phi).max(), np.abs(u.pi).max())
        roundtrip = max(
            roundtrip,
            max(np.abs(back.phi - u.phi).max(), np.abs(back.pi - u.pi).max()) / scale,
        )
        route_a = to_nw(evolve_state(u, spec, config.time), spec)
        route_b = evolve_nw(nw, config.time)
        evolve_dev = max(evolve_dev, float(np.abs(route_a.psi - route_b.psi).max()))
    checks = [
        _check("nw_intertwines_J", commute, 0.0, config.form_tol),
        _check("norm_agreement", norm_dev, 0.0, config.form_tol),
        _check("nw_roundtrip", roundtrip, 0.0, config.form_tol),
        _check("evolution_commutes", evolve_dev, 0.0, config.form_tol),
    ]

    delta = nw_delta_localization(spec, lattice.nsites // 2, compton)
    checks.append(_check("delta_profile_closed_form", delta.closed_form_dev, 0.0, 1e-9))
    checks.append(_flag("delta_width_near_compton", delta.width_ok))
    rows = tuple(
        (float(d), float(v)) for d, v in zip(delta.distances, delta.values)
    )
    table = Table("nw_delta_profile", ("distance", "phi2_excess"), rows)

    big = diagonalize(build_klein_gordon(config.mass, Lattice((1024,), config.spacing)))
    packet = gaussian_packet(big, 512, 20.0 / config.mass)
    nonrel = nonrelativistic_compare(packet, config.mass, 10.0)
    checks.append(_flag("nonrel_precondition", nonrel.precondition_ok))
    checks.append(_check("nonrel_l2_distance", nonrel.l2_distance, 0.0, config.nonrel_tol))

    trunc = gaussian_packet(big, 512, 10.0 * big.lattice.spacing,
                            cutoff=40.0 * big.lattice.spacing)
    leak = superluminal_leakage(trunc, 512, 40.0 * big.lattice.spacing, 5.0)
    checks.append(_flag("leakage_positive", leak.leakage > 0.0))
    checks.append(_check("leakage_norm_drift", leak.norm_drift, 0.0, 1e-9))
    return checks, [table]


def _run_asymptotics(config, rng) -> tuple[list[CheckRecord], list[Table]]:
    m = config.mass
    symbol = SymbolPolynomial.klein_gordon(m)
    two_factor = SymbolPolynomial((4.0 * m**4, 5.0 * m**2, 1.0))
    compton = 1.0 / m
    checks = [
        _check("branch_point_compton", predict_compton(symbol), compton, 1e-12 * compton),
        _check(
            "two_factor_lighter_dominates",
            predict_compton(two_factor), compton, 1e-12 * compton,
        ),
    ]
    cross_rows = []
    worst = 0.0
    for lam in config.lambdas:
        for r in (2.0 * compton, 4.0 * compton, 8.0 * compton):
            cut = branch_cut_kernel(symbol, lam, r)
            direct = direct_radial_integral(symbol, lam, r)
            dev = _rel(cut, direct)
            worst = max(worst, dev)
            cross_rows.append((lam, r, cut, direct, dev))
    checks.append(_check("cross_quadrature", worst, 0.0, 1e-4))
    for lam in config.lambdas:
        fit = kernel_decay_rate(symbol, lam, rtol=config.rate_rtol)
        checks.append(
            _check(
                f"decay_rate_lambda_{lam}", fit.rate, fit.expected,
                config.rate_rtol * fit.expected,
            )
        )
    comparison = lattice_vs_continuum(m)
    checks.append(_flag("lattice_approaches_continuum", comparison.ok))
    lattice_rows = tuple(
        (res.spacing, res.nsites, res.fitted_length, res.deviation)
        for res in comparison.results
    )
    tables = [
        Table(
            "kernel_cross", ("lambda", "radius", "contour", "direct", "rel_dev"),
            tuple(cross_rows),
        ),
        Table(
            "lattice_continuum",
            ("spacing", "nsites", "fitted_length", "deviation"),
            lattice_rows,
        ),
    ]
    return checks, tables


def _run_segal_check(config, rng) -> tuple[list[CheckRecord], list[Table]]:
    spec = _spectrum(config, 64)
    lattice = spec.lattice
    worst_forms = worst_drift = 0.0
    for _ in range(config.n_pairs):
        u = _random_state(rng, lattice)
        v = _random_state(rng, lattice)
        values = [
            inner_product(u, v, spec, form="alpha"),
            inner_product(u, v, spec, form="qp"),
            inner_product(u, v, spec, form="direct"),
            segal_inner_product(u, v, spec),
        ]
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                worst_forms = max(worst_forms, _rel(values[i], values[j]))
    u = _random_state(rng, lattice)
    v = _random_state(rng, lattice)
    before = inner_product(u, v, spec, form="alpha")
    after = inner_product(
        evolve_state(u, spec, config.time), evolve_state(v, spec, config.time),
        spec, form="alpha",
    )
    worst_drift = _rel(before, after)
    checks = [
        _check("four_forms_agree", worst_forms, 0.0, config.form_tol),
        _check("time_invariance", worst_drift, 0.0, config.drift_tol),
    ]
    return checks, []


_RUNNERS = {
    "kernel": _run_kernel,
    "modes-check": _run_modes_check,
    "geometry-check": _run_geometry_check,
    "oracle-verify": _run_oracle_verify,
    "localize": _run_localize,
    "elp": _run_elp,
    "nw": _run_nw,
    "asymptotics": _run_asymptotics,
    "segal-check": _run_segal_check,
}
EXPERIMENT_NAMES = tuple(_RUNNERS)


def run_experiment(config: ExperimentConfig) -> tuple[RunReport, list[Table]]:
    """Run one named experiment and collect its report and tables."""
    if config.experiment not in _RUNNERS:
        raise ConfigError(f"unknown experiment {config.experiment!r}")
    rng = np.random.default_rng(config.seed)
    start = time.perf_counter()
    checks, tables = _RUNNERS[config.experiment](config, rng)
    elapsed = time.perf_counter() - start
    report = RunReport(
        experiment=config.experiment,
        config=config_to_mapping(config),
        seed=config.seed,
        checks=tuple(checks),
        passed=all(c.passed for c in checks),
        elapsed_seconds=elapsed,
    )
    return report, tables


def run_all(config: ExperimentConfig) -> tuple[RunReport, list[tuple[RunReport, list[Table]]]]:
    """Run every experiment and aggregate the verdicts.

    Returns the aggregate report plus each experiment's own report and
    tables, in the canonical order.
    """
    results = []
    combined: list[CheckRecord] = []
    start = time.perf_counter()
    for name in EXPERIMENT_NAMES:
        sub = dataclasses.replace(config, experiment=name)
        report, tables = run_experiment(sub)
        results.append((report, tables))
        for check in report.checks:
            combined.append(
                dataclasses.replace(check, name=f"{name}.{check.name}")
            )
    elapsed = time.perf_counter() - start
    aggregate = RunReport(
        experiment="all",
        config=config_to_mapping(dataclasses.replace(config, experiment="all")),
        seed=config.seed,
        checks=tuple(combined),
        passed=all(c.passed for c in combined),
        elapsed_seconds=elapsed,
    )
    return aggregate, results
