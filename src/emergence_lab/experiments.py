"""Experiment battery behind the command-line runner.

Each experiment builds its own small lattice, runs one family of checks and
returns a RunReport (per-check records plus an overall verdict) together with
plot-ready tables. Every check is a CheckRecord: the number its gate judged
against bounds that are module constants beside the check, so no config key
moves a gate. This is the one place a measurement meets its bound: the
library layers return numbers (decay fits, localization reports) and ELP
superpositions, and the records here judge them. It is also where layers
meet that do not import each other: oracle-verify sets the Fock oracle beside
particle's formulas, and nw measures the NW delta's phi2 footprint with
particle's probes, fitting its width over the kernel profile's window.
Experiments are pure given their config: every random draw flows from one
generator seeded with ``config.seed``, so reruns with the same config
reproduce the same reports and tables byte for byte. Timing is carried on
the report object for display but is never written to disk.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time
import typing

import numpy as np

from . import fock_oracle
from .asymptotics import (
    AsymptoticsError,
    SymbolPolynomial,
    branch_cut_kernel,
    direct_radial_integral,
    RATE_RTOL,
    kernel_decay_rate,
)
from .geometry import (
    alpha_form,
    apply_J,
    direct_form,
    qp_form,
    schrodinger_rhs,
    segal_form,
    symplectic,
)
from .modes import (
    PhaseVector,
    evolve_modes,
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
    nw_norm,
    superluminal_leakage,
    to_nw,
)
from .particle import (
    KAPPA,
    PROBES,
    SUPPORT_FRACTION_MAX,
    LocalizationReport,
    elp_check,
    localization_report,
    probe_excesses,
    support_sites,
    vacuum_two_point,
)
from .spectral import (
    Lattice,
    Spectrum,
    bin_by_distance,
    build_klein_gordon,
    diagonalize,
    fit_decay_length,
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
        if len(set(self.lambdas)) < len(self.lambdas):
            raise ConfigError(f"lambdas must not repeat a value, got {self.lambdas}")
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

    ``passed`` is computed, never given: every check passed. The seed is
    ``config["seed"]``. ``elapsed_seconds`` is measured wall time; it is
    displayed but excluded from serialized reports so that reruns are
    byte-identical.
    """

    experiment: str
    config: dict
    checks: tuple[CheckRecord, ...]
    elapsed_seconds: float
    passed: bool = dataclasses.field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "passed", all(c.passed for c in self.checks))


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _within(name: str, measured: float, expected: float, tol: float) -> CheckRecord:
    return CheckRecord(name, measured, expected - tol, expected + tol)


def _float_rows(*columns: np.ndarray) -> tuple[tuple[float, ...], ...]:
    """Table rows of Python floats from float columns (1-D, or 2-D blocks of
    columns) placed side by side: the values ``float()`` of each cell gives."""
    return tuple(map(tuple, np.column_stack(columns).tolist()))


def _default_lattice(config: ExperimentConfig, default_sites: int) -> Lattice:
    shape = config.shape if config.shape else (default_sites,)
    return Lattice(shape=shape, spacing=config.spacing)


def _spectrum(config: ExperimentConfig, lattice: Lattice) -> Spectrum:
    """The config's R on the lattice, diagonalized: the one place that builds R."""
    return diagonalize(build_klein_gordon(config.mass, lattice))


def _random_state(rng: np.random.Generator, lattice: Lattice) -> PhaseVector:
    n = lattice.nsites
    return PhaseVector(lattice=lattice, phi=rng.normal(size=n), pi=rng.normal(size=n))


# Random trials are transformed in blocks of at most this many sites x trials
# (at least one trial): 160 trials at 64 sites, 20 at 512, 5 at 2048 and
# 12^3. A wider block makes fewer FFT calls over more columns each, and a
# block's arrays are released before the next block is drawn, so the traced
# peak is one block's. Median ms over 40 runs and tracemalloc peak MB of one
# run at the default trial counts, 2-vCPU Xeon, 2 BLAS threads, at
# 4096 -> this value:
#                   64 sites        512 sites       2048 sites       12^3 sites
#   geometry-check  2.4->2.3 ms     7.8->5.6 ms     30.4->23.2 ms    42.6->32.0 ms
#                   0.21->0.21 MB   0.65->1.59 MB   0.71->1.64 MB    0.62->1.43 MB
#   nw              3.8->3.9 ms     6.7->5.6 ms     22.5->18.3 ms    29.7->23.3 ms
#                   0.14->0.14 MB   0.74->0.92 MB   0.80->1.88 MB    0.67->1.58 MB
#   segal-check     4.0->3.5 ms     20.3->16.3 ms   93.1->68.4 ms    125.0->88.6 ms
#                   0.41->0.63 MB   0.42->1.01 MB   0.48->1.06 MB    0.43->0.95 MB
# In the same kind of runs 8192 was slower at 512 sites and up, by up to
# 6 ms; 12288 saved up to 3 ms on geometry-check and nw, cost 4 ms on
# segal-check at 12^3, and raised the peaks at 2048 and 12^3 by 0.2-0.6 MB.
TRIAL_BLOCK = 10240


def _blockwise(rng: np.random.Generator, lattice: Lattice, count: int, points: int,
               measure) -> tuple[np.ndarray, ...]:
    """Per-trial results of ``measure`` over ``count`` random trials.

    The trials are drawn in blocks; ``measure`` takes one block's ``points``
    PhaseVector blocks (sites x k) and returns a tuple of arrays with one row
    per trial, and each result is concatenated over the blocks. A block's
    arrays are released when ``measure`` returns, before the next block is
    drawn. One draw per block takes the same numbers, in the same order, as
    ``points`` successive ``_random_state`` calls per trial.
    """
    n = lattice.nsites
    size = max(1, TRIAL_BLOCK // n)
    results = [
        measure(*_draw_block(rng, lattice, min(size, count - start), points))
        for start in range(0, count, size)
    ]
    return tuple(np.concatenate(parts) for parts in zip(*results))


def _draw_block(rng: np.random.Generator, lattice: Lattice, k: int, points: int):
    """``points`` PhaseVector blocks of k random trials each."""
    draws = rng.normal(size=(k, 2 * points, lattice.nsites))
    return tuple(
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


def _rel(a, b) -> np.ndarray:
    """|a - b| / max(|a|, |b|), elementwise over complex or real values.

    Magnitudes are hypot(re, im), the bits of Python's complex abs; numpy's
    complex abs differs from it in the last place on about a third of values.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    mag_a, mag_b, mag_diff = (np.hypot(z.real, z.imag) for z in (a, b, a - b))
    return mag_diff / np.maximum(np.maximum(mag_a, mag_b), 1e-300)


# ---------------------------------------------------------------------------
# experiments, each after the constant bounds of its gates
# ---------------------------------------------------------------------------

FORM_TOL = 1e-9  # two routes to one quantity agree to roundoff
DRIFT_TOL = 1e-8  # a conserved inner product after an evolution
# a decay fit is trusted only while the RMS residual of its log values stays
# strictly below FIT_RMS_MAX
FIT_RMS_MAX = 0.5
FIT_RMS_UPPER = float(np.nextafter(FIT_RMS_MAX, -np.inf))  # strict: rms < max
DECAY_RTOL = 0.1  # the R^{-1/2} decay length against 1/m
# where a profile's decay length is fitted, in Compton lengths: the R^{-1/2}
# kernel's, at each refinement too, and the NW delta footprint's amplitude
PROFILE_WINDOW_COMPTON = (3.0, 20.0)


def _inverse_sqrt_profile(spec: Spectrum, source: int):
    """The R^{-1/2} kernel column at the source, then bin_by_distance's
    (distances, values) pair of it: the largest magnitude at each distance."""
    column = spec.kernel_column(lambda lam: lam**-0.5, source)
    return column, *bin_by_distance(spec.lattice.distances_from(source), column)


def _axis_rises(lattice: Lattice, column: np.ndarray, source: int, band) -> int:
    """Steps of |column| that fail to decrease outward from the source.

    Counted along each lattice axis through the source, both ways up to the
    half extent (the minimum image), between offsets whose distance from the
    source lies in the closed band (lo, hi).
    """
    grid = np.abs(column).reshape(lattice.shape)
    center = np.unravel_index(source, lattice.shape)
    rises = 0
    for ax, n in enumerate(lattice.shape):
        index = list(center)
        index[ax] = slice(None)
        # line[j] is the site j steps along the axis from the source
        line = np.roll(grid[tuple(index)], -center[ax])
        offsets = np.arange(n // 2 + 1)
        distance = offsets * lattice.spacing
        sel = offsets[(distance >= band[0]) & (distance <= band[1])]
        for half in (line[sel], line[-sel]):
            rises += np.count_nonzero(~(np.diff(half) < 0))
    return rises


def _inverse_chain_deviation(config: ExperimentConfig, spec: Spectrum) -> float:
    """max |G - exact| / max exact, G the R^{-1} column at site 0 of a chain.

    The periodic chain has the first-axis length N and spacing a of the
    spectrum's lattice, which is its own chain in 1-D, and exact is
    a (e^{-kn} + e^{-k(N-n)}) / (2 sinh k (1 - e^{-kN})) with
    k = 2 asinh(m a/2): the cosh/sinh form divided through, so no term
    overflows at large N. The record pins R's stencil, which spectra reuse.
    """
    lattice, mass = spec.lattice, config.mass
    nsites, a = lattice.shape[0], lattice.spacing
    chain = spec if lattice.ndim == 1 else _spectrum(config, Lattice((nsites,), a))
    got = chain.kernel_column(lambda lam: 1.0 / lam, 0)
    kappa, n = 2.0 * math.asinh(mass * a / 2.0), np.arange(nsites)
    exact = a * (np.exp(-kappa * n) + np.exp(-kappa * (nsites - n)))
    exact /= 2.0 * math.sinh(kappa) * -math.expm1(-kappa * nsites)
    return float(np.max(np.abs(got - exact)) / np.max(exact))


def _run_kernel(config: ExperimentConfig, rng) -> tuple[list[CheckRecord], list[Table]]:
    spec = _spectrum(config, _default_lattice(config, 512))
    lattice = spec.lattice
    compton = 1.0 / config.mass
    source = lattice.nsites // 2
    column, distances, values = _inverse_sqrt_profile(spec, source)
    lo, hi = PROFILE_WINDOW_COMPTON
    fit = fit_decay_length(distances, values, (lo * compton, hi * compton))
    # beyond ~37 Compton lengths the kernel sinks under the roundoff floor
    # of its FFT sum (~1e-17 of the peak; a dense eigensolver's is ~1e-16),
    # so monotonicity is only meaningful on the physical part of the tail.
    # Off 1-D the lattice kernel is not monotone in Euclidean distance, so
    # the record counts the steps there that fail to decrease along the
    # lattice axes through the source
    band = (3.0 * compton, 30.0 * compton)
    checks = [
        _within("decay_length", fit.length, compton, DECAY_RTOL * compton),
        CheckRecord("fit_quality", fit.rms_log_residual, upper=FIT_RMS_UPPER),
        CheckRecord("profile_decreasing", _axis_rises(lattice, column, source, band), upper=0),
        CheckRecord("inverse_closed_form", _inverse_chain_deviation(config, spec),
                    upper=FORM_TOL),
    ]
    positive = values > 0
    rows = _float_rows(distances[positive], values[positive], np.log(values[positive]))
    table = Table("kernel_profile", ("distance", "value", "log_value"), rows)
    return checks, [table]


def _run_modes_check(config, rng) -> tuple[list[CheckRecord], list[Table]]:
    spec = _spectrum(config, _default_lattice(config, 64))
    lattice = spec.lattice
    # the canonical relations, on the transforms every computation uses:
    # column k of eigvecs = synthesize(I) is f_k, so project(eigvecs) = I is
    # orthonormality, synthesize(project(I)) = I is completeness, and
    # R eigvecs = eigvecs diag(lambda) pairs each mode with its eigenvalue
    eye_modes, eye_sites = np.eye(spec.nmodes), np.eye(lattice.nsites)
    eigvecs = spec.synthesize(eye_modes)
    ortho = np.max(np.abs(spec.project(eigvecs) - eye_modes))
    complete = np.max(np.abs(spec.synthesize(spec.project(eye_sites)) - eye_sites))
    residual = spec.operator.apply(eigvecs) - eigvecs * spec.eigenvalues
    eigen_residual = np.max(np.abs(residual)) / spec.eigenvalues[-1]
    u = _random_state(rng, lattice)
    alpha = to_modes(u, spec)
    roundtrip = np.max(_roundtrip(from_modes(alpha, spec), u))
    e_modes = hamiltonian_energy(alpha, spec)
    e_field = field_hamiltonian(u, spec.operator)
    evolved = to_modes(evolve_state(u, spec, config.time), spec)
    drift = abs(hamiltonian_energy(evolved, spec) - e_modes) / e_modes
    checks = [
        CheckRecord("orthonormality", ortho, upper=FORM_TOL),
        CheckRecord("completeness", complete, upper=FORM_TOL),
        CheckRecord("eigen_residual", eigen_residual, upper=FORM_TOL),
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
    spec = _spectrum(config, _default_lattice(config, 64))
    lattice = spec.lattice

    def measure(u, v):
        # each point is transformed once, and every check below shares it
        ju, jv = apply_J(u, spec), apply_J(v, spec)
        mu, mv = to_modes(u, spec), to_modes(v, spec)
        j_sq = (apply_J(ju, spec) + u).norm() / u.norm()
        hamilton = PhaseVector(lattice, u.pi, -spec.operator.apply(u.phi))
        rhs = schrodinger_rhs(u, spec) - hamilton
        f_alpha, f_qp = alpha_form(mu, mv), qp_form(mu, mv)
        f_direct = direct_form(u, v, jv)
        forms = np.column_stack(
            (_rel(f_alpha, f_qp), _rel(f_alpha, f_direct), _rel(f_qp, f_direct))
        )
        om = symplectic(u, v)
        sympl = np.abs(symplectic(ju, jv) - om) / np.maximum(np.abs(om), 1e-300)
        return np.ravel(j_sq), np.ravel(rhs.norm() / hamilton.norm()), forms, np.ravel(sympl)

    j_sq, rhs_dev, forms, sympl = _blockwise(rng, lattice, 20, 2, measure)
    checks = [
        CheckRecord("J_squared_is_minus_identity", np.max(j_sq), upper=FORM_TOL),
        CheckRecord("rhs_matches_hamilton", np.max(rhs_dev), upper=FORM_TOL),
        CheckRecord("forms_agree", np.max(forms), upper=FORM_TOL),
        CheckRecord("symplectic_J_invariance", np.max(sympl), upper=FORM_TOL),
    ]
    table = Table(
        "form_agreement", ("pair", "alpha_vs_qp", "alpha_vs_direct", "qp_vs_direct"),
        tuple((i, *map(float, row)) for i, row in enumerate(forms)),
    )
    return checks, [table]


KAPPA_TOL = 1e-9
ORACLE_TOL = 1e-8  # probe excesses and the two-point function
DISPLACEMENT_TOL = 1e-10
SMALL_STATE_EXPONENT = 2.0
SMALL_STATE_EXPONENT_TOL = 0.1


def _median(values: np.ndarray) -> float:
    """np.median of a non-empty 1-D array without importing numpy.ma: the
    same bits, nan if any value is nan, up to the sign of a zero median."""
    ordered = np.sort(values)
    mid = ordered.size // 2
    middle = ordered[mid] if ordered.size % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])
    return float(ordered[-1] if np.isnan(ordered[-1]) else middle)


def _calibrate_kappa(space: fock_oracle.FockSpace, spec: Spectrum, mode: int) -> float:
    """Measure KAPPA against the Fock oracle on ``space``, mode ``mode`` of ``spec`` alone.

    Compares the oracle's <phi(x)^2> excess in the one-excitation state of
    the mode with the classical expression phi^2 + (R^{-1/2} pi)^2 of the
    corresponding progenitor, site by site, and returns the median ratio.
    """
    part = fock_oracle.one_particle(space, np.array([1.0]))
    alpha = np.zeros(spec.nmodes, dtype=complex)
    alpha[mode] = 1.0
    u = from_modes(alpha, spec)
    denom = u.phi**2 + spec.apply_power(-0.5, u.pi) ** 2
    excess = fock_oracle.square_excess(space, part)[fock_oracle.FIELDS.index("phi")]
    kept = denom >= 1e-12 * denom.max()
    return _median(excess[kept] / denom[kept])


def _run_oracle_verify(config, rng) -> tuple[list[CheckRecord], list[Table]]:
    spec = _spectrum(config, Lattice((6,), spacing=config.spacing))
    single = fock_oracle.build_fock(spec, (0,), n_max=14)
    kappa = _calibrate_kappa(single, spec, 0)
    checks = [_within("kappa", kappa, KAPPA, KAPPA_TOL)]

    # modes 1 and 3 have eigenvalues m^2 + 1/a^2 and m^2 + 3/a^2: they
    # differ, so at most one is 1 and a wrong power of R in a probe shows.
    # The direction is generic and of unit norm, as the probes are
    # quadratic in it and the oracle's expectations are normalized
    space = fock_oracle.build_fock(spec, (1, 3), n_max=10)
    direction = np.array([0.48 + 0.36j, 0.64 - 0.48j])
    state_fock = fock_oracle.one_particle(space, direction)
    alpha = np.zeros(spec.nmodes, dtype=complex)
    alpha[[1, 3]] = direction
    u = from_modes(alpha, spec)
    # every site's excess of phi(x)^2, pi(x)^2 and (R^{1/2} phi)(x)^2, taken
    # once for the three probes, against the probes' (sites x probes) array
    phi, pi, smeared_phi = fock_oracle.square_excess(space, state_fock)
    oracle = np.column_stack((phi, pi, 0.5 * pi + 0.5 * smeared_phi))
    worst = np.max(np.abs(oracle - probe_excesses(u, spec)), axis=0)
    rows = []
    for name, dev in zip(PROBES, worst.tolist()):
        checks.append(CheckRecord(f"{name}_matches_oracle", dev, upper=ORACLE_TOL))
        rows.append((name, dev, ORACLE_TOL))

    spec3 = _spectrum(config, Lattice((3,), spacing=config.spacing))
    space3 = fock_oracle.build_fock(spec3, (0, 1, 2), n_max=6)
    # <0|phi(x) phi(y)|0> is the inner product of phi(x)|0> and phi(y)|0>
    phi_vac, _, _ = fock_oracle.field_operators(space3, fock_oracle.vacuum(space3))
    two_point = np.array([vacuum_two_point(spec3, x) for x in range(3)])
    gram = np.vecdot(phi_vac.T[:, None, :], phi_vac.T[None, :, :])  # no zgemm
    worst = float(np.max(np.abs(gram.real - two_point)))
    checks.append(CheckRecord("vacuum_two_point", worst, upper=ORACLE_TOL))
    rows.append(("two_point", worst, ORACLE_TOL))

    z = 0.4 + 0.2j
    disp = fock_oracle.displacement(space, direction, z)
    coh = fock_oracle.coherent_state(space, z * direction)
    dev = float(np.linalg.norm(disp - coh.amplitudes))
    checks.append(CheckRecord("displacement_vs_coherent", dev, upper=DISPLACEMENT_TOL))
    rows.append(("displacement", dev, DISPLACEMENT_TOL))

    exponent, _ = fock_oracle.small_state_limit_check(
        single, np.array([1.0]), np.geomspace(0.02, 0.2, 8)
    )
    checks.append(_within("small_state_exponent", exponent,
                          SMALL_STATE_EXPONENT, SMALL_STATE_EXPONENT_TOL))
    rows.append(("small_state_exponent", exponent, SMALL_STATE_EXPONENT_TOL))

    table = Table("oracle_deviations", ("check", "value", "tolerance"), tuple(rows))
    return checks, [table]


SUPPORT_UPPER = float(np.nextafter(SUPPORT_FRACTION_MAX, -np.inf))  # strict: frac < max
LOCALIZATION_GATE = 1.2  # a probe's decay length, in Compton lengths


def _localization_records(
    report: LocalizationReport, compton: float
) -> list[CheckRecord]:
    """The support fraction, then each fitted probe's decay length and fit rms.

    A compactly supported probe has length 0 and rms 0, so it passes.
    """
    checks = [
        CheckRecord("state_localizable", report.support_fraction, upper=SUPPORT_UPPER)
    ]
    gate = LOCALIZATION_GATE * compton
    for name, fit in zip(PROBES, report.fits):
        checks += [
            CheckRecord(f"{name}_decay_within_gate", fit.length, upper=gate),
            CheckRecord(f"{name}_fit_rms", fit.rms_log_residual, upper=FIT_RMS_UPPER),
        ]
    return checks


def _judge_in_region(
    u: PhaseVector, spec: Spectrum, region: np.ndarray, compton: float
) -> tuple[bool, LocalizationReport, bool]:
    """Whether u's support stays in the region, u's localization report, and
    whether u is localized there: its support stays in the region and every
    one of its localization records passes. ELP inputs and trials alike.
    """
    in_region = not np.any(support_sites(u) & ~region)
    report = localization_report(u, spec, compton)
    records = _localization_records(report, compton)
    return in_region, report, in_region and all(c.passed for c in records)


def _run_localize(config, rng) -> tuple[list[CheckRecord], list[Table]]:
    spec = _spectrum(config, _default_lattice(config, 512))
    lattice = spec.lattice
    compton = 1.0 / config.mass
    width = config.width_compton * compton
    bump = gaussian_bump(
        lattice, lattice.nsites // 2, width, cutoff=BUMP_CUTOFF_WIDTHS * width
    )
    report = localization_report(bump, spec, compton)
    checks = _localization_records(report, compton)
    rows = _float_rows(report.distances, report.values)
    table = Table("localization_profile", ("distance", *PROBES), rows)
    return checks, [table]


def _run_elp(config, rng) -> tuple[list[CheckRecord], list[Table]]:
    spec = _spectrum(config, _default_lattice(config, 512))
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
    # one failing input means no trials are drawn
    failing = sum(not _judge_in_region(u, spec, region, compton)[2] for u in states)
    trials = () if failing else elp_check(states, spec, config.n_trials, rng)
    n_passed = 0
    rows = []
    for i, trial in enumerate(trials):
        in_region, report, passes = _judge_in_region(trial, spec, region, compton)
        n_passed += passes
        fits = dict(zip(PROBES, report.fits))
        lengths = [fits[p].length if p in fits else float("nan") for p in PROBES]
        rms = [fits[p].rms_log_residual if p in fits else float("nan") for p in PROBES]
        rows.append((i, int(in_region), int(passes), *lengths, *rms))
    checks = [
        # the count of inputs that are not localized inside the region
        CheckRecord("inputs_localized_in_region", failing, upper=0),
        CheckRecord("trials_passed", n_passed, lower=config.n_trials),
    ]
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
    spec = _spectrum(config, _default_lattice(config, 512))
    lattice = spec.lattice
    compton = 1.0 / config.mass

    def measure(u):
        # u's mode amplitudes, shared by the NW map, the norm and the evolution
        mu = to_modes(u, spec)
        psi = spec.synthesize(mu)
        # i psi is formed after the NW image of J u, whose transforms set the
        # block's peak memory
        commute = _column_max(to_nw(apply_J(u, spec), spec) - 1j * psi)
        norm_u = np.sqrt(alpha_form(mu, mu).real)
        norm_dev = np.ravel(np.abs(nw_norm(psi, spec) - norm_u) / norm_u)
        roundtrip = _roundtrip(from_nw(psi, spec), u)
        # evolve_state(u, spec, t), from the shared amplitudes
        evolved = from_modes(evolve_modes(mu, spec, config.time), spec)
        route_a = to_nw(evolved, spec)
        evolve_dev = _column_max(route_a - evolve_nw(psi, spec, config.time))
        return commute, norm_dev, roundtrip, evolve_dev

    commute, norm_dev, roundtrip, evolve_dev = _blockwise(rng, lattice, 10, 1, measure)
    checks = [
        CheckRecord("nw_intertwines_J", np.max(commute), upper=FORM_TOL),
        CheckRecord("norm_agreement", np.max(norm_dev), upper=FORM_TOL),
        CheckRecord("nw_roundtrip", np.max(roundtrip), upper=FORM_TOL),
        CheckRecord("evolution_commutes", np.max(evolve_dev), upper=FORM_TOL),
    ]

    # the unit-norm NW delta's phi2 footprint, through the full pipeline,
    # against its closed form 2 kappa cell [R^{-1/4} kernel column]^2; the
    # width is the decay length of the footprint's amplitude (its square root)
    site = lattice.nsites // 2
    delta = np.zeros(lattice.nsites, dtype=complex)
    delta[site] = 1.0 / math.sqrt(lattice.cell)
    measured = probe_excesses(from_nw(delta, spec), spec)[:, PROBES.index("phi2")]
    column = spec.kernel_column(lambda lam: lam**-0.25, site)
    closed = 2.0 * KAPPA * lattice.cell * column**2
    distances, values = bin_by_distance(lattice.distances_from(site), measured)
    lo, hi = PROFILE_WINDOW_COMPTON
    width = fit_decay_length(distances, np.sqrt(values), (lo * compton, hi * compton))
    checks += [
        CheckRecord("delta_profile_closed_form", float(np.abs(measured - closed).max()),
                    upper=FORM_TOL),
        _within("delta_width_near_compton", width.length, compton,
                NW_DELTA_WIDTH_RTOL * compton),
        CheckRecord("delta_width_fit_rms", width.rms_log_residual, upper=FIT_RMS_UPPER),
    ]
    rows = _float_rows(distances, values)
    table = Table("nw_delta_profile", ("distance", "phi2_excess"), rows)

    big = _spectrum(config, Lattice((1024,), config.spacing))
    packet = gaussian_packet(big, 512, 20.0 / config.mass)
    l2_distance, low_k_weight = nonrelativistic_compare(packet, big, config.mass, 10.0)
    checks += [
        CheckRecord("nonrel_precondition", low_k_weight, lower=NONREL_LOW_K_MIN),
        CheckRecord("nonrel_l2_distance", l2_distance, upper=NONREL_TOL),
    ]

    radius = 40.0 * big.lattice.spacing
    trunc = gaussian_packet(big, 512, 10.0 * big.lattice.spacing, cutoff=radius)
    leakage, norm_drift = superluminal_leakage(trunc, big, 512, radius, 5.0)
    checks.append(CheckRecord("leakage_positive", leakage, lower=LEAKAGE_LOWER))
    checks.append(CheckRecord("leakage_norm_drift", norm_drift, upper=FORM_TOL))
    return checks, [table]


BRANCH_RTOL = 1e-12  # the branch point's Compton length against 1/m
CROSS_QUADRATURE_TOL = 1e-4
# lattice refinement: spacings, and sites at the coarsest spacing
REFINE_SPACINGS = (1.0, 0.5)
REFINE_BASE_NSITES = 512
REFINE_RTOL = 0.15  # lattice decay lengths against 1/m, at every spacing
REFINE_GROWTH_MAX = 1e-12  # the deviation may not grow as the spacing shrinks


def _lattice_vs_continuum(config) -> tuple[tuple[float, int, float, float], ...]:
    """Refine the lattice and watch its decay length approach 1/m.

    One-dimensional lattices at each of REFINE_SPACINGS (fixed physical
    size, so nsites scales inversely with spacing) are profiled from a
    central source; the fit removes the lattice kernel's sqrt(d) prefactor.
    Returns one (spacing, nsites, fitted_length, deviation) row per spacing,
    coarsest first, the deviation relative to 1/m.
    """
    compton = 1.0 / config.mass
    lo, hi = PROFILE_WINDOW_COMPTON
    window = (lo * compton, hi * compton)
    results = []
    order = sorted(REFINE_SPACINGS, reverse=True)
    for spacing in order:
        nsites = int(round(REFINE_BASE_NSITES * order[0] / spacing))
        if config.mass * nsites * spacing < 50:
            raise ValueError(
                f"lattice too small: m N a = {config.mass * nsites * spacing} < 50"
            )
        spec = _spectrum(config, Lattice((nsites,), spacing))
        _, d, values = _inverse_sqrt_profile(spec, nsites // 2)
        fit = fit_decay_length(d, values * np.sqrt(d), window)
        if fit.nsamples < 6:
            raise AsymptoticsError("not enough profile samples in the window")
        deviation = abs(fit.length - compton) / compton
        results.append((float(spacing), nsites, fit.length, deviation))
    return tuple(results)


def _run_asymptotics(config, rng) -> tuple[list[CheckRecord], list[Table]]:
    m = config.mass
    symbol = SymbolPolynomial.klein_gordon(m)
    two_factor = SymbolPolynomial((4.0 * m**4, 5.0 * m**2, 1.0))
    compton = 1.0 / m
    tol = BRANCH_RTOL * compton
    checks = [
        _within("branch_point_compton", symbol.compton, compton, tol),
        _within("two_factor_lighter_dominates", two_factor.compton, compton, tol),
    ]
    cross_rows = []
    worst = 0.0
    for lam in config.lambdas:
        for r in (2.0 * compton, 4.0 * compton, 8.0 * compton):
            cut = branch_cut_kernel(symbol, lam, r)
            direct = direct_radial_integral(symbol, lam, r)
            dev = float(_rel(cut, direct))
            worst = max(worst, dev)
            cross_rows.append((lam, r, cut, direct, dev))
    checks.append(CheckRecord("cross_quadrature", worst, upper=CROSS_QUADRATURE_TOL))
    rate = 1.0 / symbol.compton
    for lam in config.lambdas:
        fit = kernel_decay_rate(symbol, lam)
        checks.append(_within(f"decay_rate_lambda_{lam}", fit.rate, rate, RATE_RTOL * rate))
    lattice_rows = _lattice_vs_continuum(config)
    devs = np.array([deviation for *_, deviation in lattice_rows])
    checks += [
        CheckRecord("lattice_approaches_continuum", devs.max(), upper=REFINE_RTOL),
        CheckRecord("lattice_continuum_monotone", np.diff(devs).max(),
                    upper=REFINE_GROWTH_MAX),
    ]
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
    spec = _spectrum(config, _default_lattice(config, 64))
    lattice = spec.lattice

    def measure(u, v):
        mu, mv = to_modes(u, spec), to_modes(v, spec)
        values = (
            alpha_form(mu, mv),
            qp_form(mu, mv),
            direct_form(u, v, apply_J(v, spec)),
            segal_form(u, v, apply_J(u, spec)),
        )
        return (np.column_stack([_rel(a, b) for a, b in itertools.combinations(values, 2)]),)

    (forms,) = _blockwise(rng, lattice, config.n_pairs, 2, measure)
    u = _random_state(rng, lattice)
    v = _random_state(rng, lattice)
    before = alpha_form(to_modes(u, spec), to_modes(v, spec))
    after = alpha_form(
        to_modes(evolve_state(u, spec, config.time), spec),
        to_modes(evolve_state(v, spec, config.time), spec),
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
        checks=tuple(checks),
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
        checks=tuple(combined),
        elapsed_seconds=elapsed,
    )
    return aggregate, results
