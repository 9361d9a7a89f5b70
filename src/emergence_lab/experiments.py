"""Experiment battery behind the command-line runner.

Each experiment builds its own small lattice, runs one family of checks and
returns a RunReport (per-check records plus an overall verdict) together with
plot-ready tables. Every check is a CheckRecord: the number its gate judged
against bounds that are module constants beside the check, so no config key
moves a gate. Experiments are pure given their config: every random draw
flows from one generator seeded with ``config.seed``, so reruns with the same
config reproduce the same reports and tables byte for byte. Timing is carried
on the report object for display but is never written to disk.
"""

from __future__ import annotations

import dataclasses
import math
import time
import typing

import numpy as np

from . import fock_oracle
from .asymptotics import (
    SymbolPolynomial,
    branch_cut_kernel,
    direct_radial_integral,
    RATE_RTOL,
    kernel_decay_rate,
    lattice_vs_continuum,
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
    KAPPA,
    PROBES,
    SUPPORT_FRACTION_MAX,
    calibrate_kappa,
    elp_check,
    localization_report,
    vacuum_two_point,
)
from .spectral import (
    FIT_RMS_MAX,
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
    The seed feeds the single random generator used by an experiment run.
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

    def __post_init__(self):
        # every field is read by its type, whether it came from a file or
        # from Python; only the default empty shape has no tokens to read
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not (field.name == "shape" and isinstance(value, tuple) and not value):
                object.__setattr__(self, field.name, _parse_field(field.name, value))
        if self.experiment not in EXPERIMENT_NAMES + ("all",):
            raise ConfigError(f"unknown experiment {self.experiment!r}")
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
    Tuple fields take one or more tokens, scalar fields exactly one, and a
    number must be finite.
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
    if kind is float and not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{key} must be finite, got {raw!r}")
    return values if many else values[0]


def config_from_mapping(experiment: str, mapping: dict) -> ExperimentConfig:
    """Build a validated config from a flat key mapping (a parsed file).

    ExperimentConfig parses each value by its field type. The experiment
    name comes from the command line, not the file; a file that names one
    anyway must agree with it.
    """
    for key in mapping:
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
    values = dict(mapping)
    named = _parse_field("experiment", values.pop("experiment", experiment))
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
    """The number one gate judged, against the gate's bounds.

    ``passed`` is computed, never given: lower <= measured <= upper, where an
    absent bound (None) is open and a NaN measurement fails. A strict gate
    x < b is stored as the inclusive bound nextafter(b, -inf), and x > b as
    nextafter(b, +inf).
    """

    name: str
    measured: float
    lower: float | None = None
    upper: float | None = None
    passed: bool = dataclasses.field(init=False)

    def __post_init__(self):
        for name in ("measured", "lower", "upper"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, float(getattr(self, name)))
        lower = -math.inf if self.lower is None else self.lower
        upper = math.inf if self.upper is None else self.upper
        # a NaN fails both comparisons, whatever the bounds
        object.__setattr__(self, "passed", lower <= self.measured <= upper)


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


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _within(name: str, measured: float, expected: float, tol: float) -> CheckRecord:
    return CheckRecord(name, measured, expected - tol, expected + tol)


def _default_lattice(config: ExperimentConfig, default_sites: int) -> Lattice:
    shape = config.shape if config.shape else (default_sites,)
    return Lattice(shape=shape, spacing=config.spacing)


def _spectrum(config: ExperimentConfig, default_sites: int) -> Spectrum:
    lattice = _default_lattice(config, default_sites)
    return diagonalize(build_klein_gordon(config.mass, lattice))


def _random_state(rng: np.random.Generator, lattice: Lattice) -> PhaseVector:
    n = lattice.nsites
    return PhaseVector(lattice=lattice, phi=rng.normal(size=n), pi=rng.normal(size=n))


# Random trials are transformed in blocks of at most this many sites x trials
# (at least one trial): 64 trials at 64 sites, 8 at 512, 2 at 2048 and 12^3.
# It bounds memory when n_pairs is large: geometry-check@12x12x12 grows a
# fresh process's RSS by 6.7 MB one trial at a time, 6.8 MB with this value
# and 10.9 MB with all 20 trials in one block. Median ms per
# run on a 2-vCPU Xeon (1 BLAS thread), one trial at a time / this value /
# 8192: segal-check 28.1 / 3.6 / 3.2, nw 15.5 / 6.9 / 5.0 and geometry-check
# 12.7 / 1.7 / 1.6 at their defaults, nw@2048 29.4 / 24.9 / 21.2 and
# geometry-check@12x12x12 63.2 / 49.5 / 38.6. 8192 is faster, but in 5 s
# benchmark runs it raised peak RSS by 0.97 MB (battery, +2.3%) and 0.70 MB
# (large-lattice), against 0.81 MB and none for this value.
TRIAL_BLOCK = 4096


def _random_blocks(rng: np.random.Generator, lattice: Lattice, count: int, points: int):
    """``count`` random trials of ``points`` phase points each, in blocks.

    Yields one tuple of ``points`` PhaseVector blocks (sites x k) per block.
    One draw per block takes the same numbers, in the same order, as
    ``points`` successive ``_random_state`` calls per trial.
    """
    n = lattice.nsites
    size = max(1, TRIAL_BLOCK // n)
    for start in range(0, count, size):
        draws = rng.normal(size=(min(size, count - start), 2 * points, n))
        yield tuple(
            PhaseVector(lattice, draws[:, 2 * i].T, draws[:, 2 * i + 1].T)
            for i in range(points)
        )


def _column_max(block: np.ndarray) -> np.ndarray:
    """Largest magnitude in each column (one value for a single field)."""
    return np.ravel(np.abs(block).max(axis=0))


def _roundtrip(back: PhaseVector, u: PhaseVector) -> np.ndarray:
    """Largest field deviation of back from u, over u's largest field, per column."""
    worst = np.maximum(_column_max(back.phi - u.phi), _column_max(back.pi - u.pi))
    return worst / np.maximum(_column_max(u.phi), _column_max(u.pi))


def _rel(a: complex, b: complex) -> float:
    # Python's complex abs, also for numpy scalars and reals: the same bits
    # whether a value came from a block or from one point
    a, b = complex(a), complex(b)
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale


# ---------------------------------------------------------------------------
# experiments, each after the constant bounds of its gates
# ---------------------------------------------------------------------------

FORM_TOL = 1e-9  # two routes to one quantity agree to roundoff
DRIFT_TOL = 1e-8  # a conserved inner product after an evolution
FIT_RMS_UPPER = float(np.nextafter(FIT_RMS_MAX, -np.inf))  # strict: rms < max
DECAY_RTOL = 0.1  # the R^{-1/2} decay length against 1/m


def _run_kernel(config: ExperimentConfig, rng) -> tuple[list[CheckRecord], list[Table]]:
    spec = _spectrum(config, 512)
    compton = 1.0 / config.mass
    source = spec.lattice.nsites // 2
    profile = kernel_profile(spec, -0.5, source)
    window = (3.0 * compton, 20.0 * compton)
    fit = fit_decay_length(profile.distances, profile.values, window)
    # beyond ~37 Compton lengths the kernel sinks under the roundoff floor
    # of its FFT sum (~1e-17 of the peak; a dense eigensolver's is ~1e-16),
    # so monotonicity is only meaningful on the physical part of the tail;
    # the record counts the steps there that fail to decrease
    sel = (profile.distances >= 3.0 * compton) & (profile.distances <= 30.0 * compton)
    steps = np.diff(profile.values[sel])
    checks = [
        _within("decay_length", fit.length, compton, DECAY_RTOL * compton),
        CheckRecord("fit_quality", fit.rms_log_residual, upper=FIT_RMS_UPPER),
        CheckRecord("profile_decreasing", np.count_nonzero(~(steps < 0)), upper=0),
    ]
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
    roundtrip = np.max(_roundtrip(from_modes(modes), u))
    e_modes = hamiltonian_energy(modes)
    e_field = field_hamiltonian(u, spec.operator)
    evolved = to_modes(evolve_state(u, spec, config.time), spec)
    drift = abs(hamiltonian_energy(evolved) - e_modes) / e_modes
    checks = [
        CheckRecord("orthonormality", canon.orthonormality_dev, upper=FORM_TOL),
        CheckRecord("completeness", canon.completeness_dev, upper=FORM_TOL),
        CheckRecord("mode_roundtrip", roundtrip, upper=FORM_TOL),
        CheckRecord("energy_agreement", _rel(e_modes, e_field), upper=FORM_TOL),
        CheckRecord("energy_drift", drift, upper=FORM_TOL),
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
    j_sq, rhs_dev, sympl, rows = [], [], [], []
    for u, v in _random_blocks(rng, lattice, 20, 2):
        ju = apply_J(u, spec)
        j_sq.extend(np.ravel((apply_J(ju, spec) + u).norm() / u.norm()))
        hamilton = PhaseVector(lattice, u.pi, -spec.operator.apply(u.phi))
        rhs = schrodinger_rhs(u, spec) - hamilton
        rhs_dev.extend(np.ravel(rhs.norm() / hamilton.norm()))
        forms = (inner_product(u, v, spec, form=f) for f in ("alpha", "qp", "direct"))
        for f_alpha, f_qp, f_direct in zip(*map(np.ravel, forms)):
            rows.append((len(rows), _rel(f_alpha, f_qp), _rel(f_alpha, f_direct),
                         _rel(f_qp, f_direct)))
        om = symplectic(u, v)
        om_j = symplectic(ju, apply_J(v, spec))
        sympl.extend(np.ravel(np.abs(om_j - om) / np.maximum(np.abs(om), 1e-300)))
    checks = [
        CheckRecord("J_squared_is_minus_identity", np.max(j_sq), upper=FORM_TOL),
        CheckRecord("rhs_matches_hamilton", np.max(rhs_dev), upper=FORM_TOL),
        CheckRecord("forms_agree", np.max([row[1:] for row in rows]), upper=FORM_TOL),
        CheckRecord("symplectic_J_invariance", np.max(sympl), upper=FORM_TOL),
    ]
    table = Table(
        "form_agreement", ("pair", "alpha_vs_qp", "alpha_vs_direct", "qp_vs_direct"),
        tuple(rows),
    )
    return checks, [table]


KAPPA_TOL = 1e-9
ORACLE_TOL = 1e-8  # probe excesses and the two-point function
DISPLACEMENT_TOL = 1e-10
SMALL_STATE_EXPONENT = 2.0
SMALL_STATE_EXPONENT_TOL = 0.1


def _run_oracle_verify(config, rng) -> tuple[list[CheckRecord], list[Table]]:
    lattice = Lattice((6,), spacing=config.spacing)
    spec = diagonalize(build_klein_gordon(config.mass, lattice))
    kappa = calibrate_kappa(spec, mode_index=0, n_max=14)
    checks = [_within("kappa", kappa, KAPPA, KAPPA_TOL)]

    space = fock_oracle.build_fock(spec, (0, 1), n_max=10)
    direction = np.array([0.8, 0.6j])
    state_fock = fock_oracle.one_particle(space, direction)
    alpha = np.zeros(spec.nmodes, dtype=complex)
    alpha[0], alpha[1] = direction
    u = from_modes(ModeVector(spectrum=spec, alpha=alpha))
    vac = fock_oracle.vacuum(space)
    sites = range(lattice.nsites)
    fields = {
        which: [fock_oracle.field_operator(space, x, which) for x in sites]
        for which in ("phi", "pi")
    }
    rows = []
    for name, fn in PROBES.items():
        analytic = fn(u, spec)
        worst = 0.0
        for x in sites:
            field = fields["phi" if name == "phi2" else "pi"][x]
            op = field @ field
            if name == "energy":
                op = 0.5 * op + 0.5 * fock_oracle.potential_operator(space, x)
            excess = (
                fock_oracle.expectation(state_fock, op).real
                - fock_oracle.expectation(vac, op).real
            )
            worst = max(worst, abs(excess - analytic[x]))
        checks.append(CheckRecord(f"{name}_matches_oracle", worst, upper=ORACLE_TOL))
        rows.append((name, worst, ORACLE_TOL))

    lattice3 = Lattice((3,), spacing=config.spacing)
    spec3 = diagonalize(build_klein_gordon(config.mass, lattice3))
    space3 = fock_oracle.build_fock(spec3, (0, 1, 2), n_max=6)
    vac3 = fock_oracle.vacuum(space3)
    phi3 = [fock_oracle.field_operator(space3, x, "phi") for x in range(3)]
    worst = 0.0
    for x in range(3):
        for y in range(3):
            oracle = fock_oracle.expectation(vac3, phi3[x] @ phi3[y]).real
            worst = max(worst, abs(oracle - vacuum_two_point(spec3, x, y)))
    checks.append(CheckRecord("vacuum_two_point", worst, upper=ORACLE_TOL))
    rows.append(("two_point", worst, ORACLE_TOL))

    unit = direction / np.linalg.norm(direction)
    z = 0.4 + 0.2j
    disp = fock_oracle.displacement(space, unit, z)
    coh = fock_oracle.coherent_state(space, z * unit)
    dev = float(np.linalg.norm(disp.amplitudes - coh.vector.amplitudes))
    checks.append(CheckRecord("displacement_vs_coherent", dev, upper=DISPLACEMENT_TOL))
    rows.append(("displacement", dev, DISPLACEMENT_TOL))

    single = fock_oracle.build_fock(spec, (0,), n_max=14)
    report = fock_oracle.small_state_limit_check(
        single, np.array([1.0]), np.geomspace(0.02, 0.2, 8)
    )
    checks.append(_within("small_state_exponent", report.exponent,
                          SMALL_STATE_EXPONENT, SMALL_STATE_EXPONENT_TOL))
    rows.append(("small_state_exponent", report.exponent, SMALL_STATE_EXPONENT_TOL))

    table = Table("oracle_deviations", ("check", "value", "tolerance"), tuple(rows))
    return checks, [table]


SUPPORT_UPPER = float(np.nextafter(SUPPORT_FRACTION_MAX, -np.inf))  # strict: frac < max


def _run_localize(config, rng) -> tuple[list[CheckRecord], list[Table]]:
    spec = _spectrum(config, 512)
    lattice = spec.lattice
    compton = 1.0 / config.mass
    width = config.width_compton * compton
    bump = gaussian_bump(
        lattice, lattice.nsites // 2, width, cutoff=BUMP_CUTOFF_WIDTHS * width
    )
    report = localization_report(bump, spec, compton)
    checks = [
        CheckRecord("state_localizable", report.support_fraction, upper=SUPPORT_UPPER)
    ]
    for p in report.probes:
        checks += [
            CheckRecord(f"{p.probe}_decay_within_gate", p.fit.length, upper=report.gate),
            CheckRecord(f"{p.probe}_fit_rms", p.fit.rms_log_residual, upper=FIT_RMS_UPPER),
        ]
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
        gaussian_bump(lattice, site % lattice.nsites, width, cutoff=cutoff)
        for site in (center - offset, center + offset)
    ]
    region = lattice.distances_from(center) <= 45.0 * compton
    report = elp_check(
        states, spec, region, compton, n_trials=config.n_trials, seed=config.seed
    )
    n_passed = sum(1 for t in report.trials if t.passes)
    checks = [
        # the count of inputs that are not localized inside the region
        CheckRecord("inputs_localized_in_region", len(report.failures), upper=0),
        CheckRecord("trials_passed", n_passed, lower=config.n_trials),
    ]
    rows = []
    for i, trial in enumerate(report.trials):
        fits = {p.probe: p.fit for p in trial.report.probes}
        lengths = [fits[p].length if p in fits else float("nan") for p in PROBES]
        rms = [fits[p].rms_log_residual if p in fits else float("nan") for p in PROBES]
        rows.append((i, int(trial.support_in_region), int(trial.passes), *lengths, *rms))
    table = Table(
        "elp_trials",
        ("trial", "support_in_region", "passes")
        + tuple(f"{p}_length" for p in PROBES)
        + tuple(f"{p}_rms" for p in PROBES),
        tuple(rows),
    )
    return checks, [table]


NW_DELTA_WIDTH_RTOL = 0.25  # the delta footprint's width against 1/m
NONREL_LOW_K_MIN = 0.999  # a packet's weight below m/5
NONREL_TOL = 0.01
LEAKAGE_LOWER = float(np.nextafter(0.0, np.inf))  # strict: leakage > 0


def _run_nw(config, rng) -> tuple[list[CheckRecord], list[Table]]:
    spec = _spectrum(config, 512)
    lattice = spec.lattice
    compton = 1.0 / config.mass
    commute, norm_dev, roundtrip, evolve_dev = [], [], [], []
    for (u,) in _random_blocks(rng, lattice, 10, 1):
        nw = to_nw(u, spec)
        commute.extend(_column_max(1j * nw.psi - to_nw(apply_J(u, spec), spec).psi))
        norm_u = np.sqrt(inner_product(u, u, spec, form="alpha").real)
        norm_dev.extend(np.ravel(np.abs(nw_norm(nw) - norm_u) / norm_u))
        roundtrip.extend(_roundtrip(from_nw(nw), u))
        route_a = to_nw(evolve_state(u, spec, config.time), spec).psi
        evolve_dev.extend(_column_max(route_a - evolve_nw(nw, config.time).psi))
    checks = [
        CheckRecord("nw_intertwines_J", np.max(commute), upper=FORM_TOL),
        CheckRecord("norm_agreement", np.max(norm_dev), upper=FORM_TOL),
        CheckRecord("nw_roundtrip", np.max(roundtrip), upper=FORM_TOL),
        CheckRecord("evolution_commutes", np.max(evolve_dev), upper=FORM_TOL),
    ]

    delta = nw_delta_localization(spec, lattice.nsites // 2, compton)
    width = delta.amplitude_fit
    checks += [
        CheckRecord("delta_profile_closed_form", delta.closed_form_dev, upper=FORM_TOL),
        _within("delta_width_near_compton", width.length, compton,
                NW_DELTA_WIDTH_RTOL * compton),
        CheckRecord("delta_width_fit_rms", width.rms_log_residual, upper=FIT_RMS_UPPER),
    ]
    rows = tuple(
        (float(d), float(v)) for d, v in zip(delta.distances, delta.values)
    )
    table = Table("nw_delta_profile", ("distance", "phi2_excess"), rows)

    big = diagonalize(build_klein_gordon(config.mass, Lattice((1024,), config.spacing)))
    packet = gaussian_packet(big, 512, 20.0 / config.mass)
    nonrel = nonrelativistic_compare(packet, config.mass, 10.0)
    checks += [
        CheckRecord("nonrel_precondition", nonrel.low_k_weight, lower=NONREL_LOW_K_MIN),
        CheckRecord("nonrel_l2_distance", nonrel.l2_distance, upper=NONREL_TOL),
    ]

    trunc = gaussian_packet(big, 512, 10.0 * big.lattice.spacing,
                            cutoff=40.0 * big.lattice.spacing)
    leak = superluminal_leakage(trunc, 512, 40.0 * big.lattice.spacing, 5.0)
    checks.append(CheckRecord("leakage_positive", leak.leakage, lower=LEAKAGE_LOWER))
    checks.append(CheckRecord("leakage_norm_drift", leak.norm_drift, upper=FORM_TOL))
    return checks, [table]


BRANCH_RTOL = 1e-12  # the branch point's Compton length against 1/m
CROSS_QUADRATURE_TOL = 1e-4
REFINE_RTOL = 0.15  # lattice decay lengths against 1/m, at every spacing
REFINE_GROWTH_MAX = 1e-12  # the deviation may not grow as the spacing shrinks


def _run_asymptotics(config, rng) -> tuple[list[CheckRecord], list[Table]]:
    m = config.mass
    symbol = SymbolPolynomial.klein_gordon(m)
    two_factor = SymbolPolynomial((4.0 * m**4, 5.0 * m**2, 1.0))
    compton = 1.0 / m
    tol = BRANCH_RTOL * compton
    checks = [
        _within("branch_point_compton", symbol.branch.compton, compton, tol),
        _within("two_factor_lighter_dominates", two_factor.branch.compton, compton, tol),
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
    checks.append(CheckRecord("cross_quadrature", worst, upper=CROSS_QUADRATURE_TOL))
    for lam in config.lambdas:
        fit = kernel_decay_rate(symbol, lam)
        tol = RATE_RTOL * fit.expected
        checks.append(_within(f"decay_rate_lambda_{lam}", fit.rate, fit.expected, tol))
    comparison = lattice_vs_continuum(m)
    devs = np.array([res.deviation for res in comparison.results])
    checks += [
        CheckRecord("lattice_approaches_continuum", devs.max(), upper=REFINE_RTOL),
        CheckRecord("lattice_continuum_monotone", np.diff(devs).max(),
                    upper=REFINE_GROWTH_MAX),
    ]
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
    forms = []
    for u, v in _random_blocks(rng, lattice, config.n_pairs, 2):
        blocks = [
            inner_product(u, v, spec, form="alpha"),
            inner_product(u, v, spec, form="qp"),
            inner_product(u, v, spec, form="direct"),
            segal_inner_product(u, v, spec),
        ]
        for values in zip(*map(np.ravel, blocks)):
            for i in range(len(values)):
                for j in range(i + 1, len(values)):
                    forms.append(_rel(values[i], values[j]))
    u = _random_state(rng, lattice)
    v = _random_state(rng, lattice)
    before = inner_product(u, v, spec, form="alpha")
    after = inner_product(
        evolve_state(u, spec, config.time), evolve_state(v, spec, config.time),
        spec, form="alpha",
    )
    worst_drift = _rel(before, after)
    checks = [
        CheckRecord("four_forms_agree", np.max(forms), upper=FORM_TOL),
        CheckRecord("time_invariance", worst_drift, upper=DRIFT_TOL),
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
