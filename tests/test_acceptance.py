"""End-to-end acceptance suite.

Each test covers one headline property of the package, prints a single
pass/fail line (visible under ``pytest -s``), and enforces the stated
tolerance with plain asserts. Criteria with runtime budgets time themselves.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from emergence_lab.asymptotics import (
    SymbolPolynomial,
    branch_cut_kernel,
    direct_radial_integral,
    kernel_decay_rate,
)
from emergence_lab.cli import main as cli_main
from emergence_lab.experiments import (
    FIT_RMS_MAX,
    ExperimentConfig,
    _judge_in_region,
    run_experiment,
)
from emergence_lab.fock_oracle import (
    FIELDS,
    build_fock,
    field_operators,
    one_particle,
    small_state_limit_check,
    square_excess,
    vacuum,
)
from emergence_lab.geometry import (
    alpha_form,
    apply_J,
    direct_form,
    qp_form,
    schrodinger_rhs,
    segal_form,
)
from emergence_lab.modes import (
    PhaseVector,
    evolve_modes,
    evolve_state,
    from_modes,
    gaussian_bump,
    to_modes,
)
from emergence_lab.newton_wigner import (
    evolve_nw,
    gaussian_packet,
    nonrelativistic_compare,
    nw_norm,
    superluminal_leakage,
    to_nw,
)
from emergence_lab.particle import (
    KAPPA,
    PROBES,
    elp_check,
    localization_report,
    probe_excesses,
    vacuum_two_point,
)
from emergence_lab.spectral import (
    Lattice,
    bin_by_distance,
    build_klein_gordon,
    diagonalize,
    fit_decay_length,
)

from dense_arbiter import dense_power, klein_gordon_matrix


def _line(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _random_state(spec, seed):
    rng = np.random.default_rng(seed)
    n = spec.lattice.nsites
    return PhaseVector(spec.lattice, rng.normal(size=n), rng.normal(size=n))


@pytest.fixture(scope="module")
def spec64():
    return diagonalize(build_klein_gordon(1.0, Lattice((64,))))


@pytest.fixture(scope="module")
def spec128():
    return diagonalize(build_klein_gordon(1.0, Lattice((128,))))


@pytest.fixture(scope="module")
def spec512():
    return diagonalize(build_klein_gordon(1.0, Lattice((512,))))


@pytest.fixture(scope="module")
def spec1024():
    return diagonalize(build_klein_gordon(1.0, Lattice((1024,))))


def test_criterion_01_compton_locality():
    # the R^{-1/2} kernel of the unit-mass theory decays with length 1/m
    start = time.perf_counter()
    op = build_klein_gordon(1.0, Lattice((512,)))
    spec = diagonalize(op)
    column = spec.kernel_column(lambda lam: lam**-0.5, 256)
    distances, values = bin_by_distance(spec.lattice.distances_from(256), column)
    fit = fit_decay_length(distances, values, (3.0, 20.0))
    elapsed = time.perf_counter() - start
    dev = abs(fit.length - 1.0)
    trusted = fit.length > 0 and fit.rms_log_residual < FIT_RMS_MAX
    ok = trusted and dev <= 0.10 and elapsed < 10.0
    _line(
        "criterion 01 compton locality",
        ok,
        f"length {fit.length:.4f}, dev {dev:.1%}, {elapsed:.1f} s",
    )
    assert trusted
    assert dev <= 0.10
    assert elapsed < 10.0


def test_criterion_02_branch_structure():
    worst = 0.0
    for mass in (0.5, 1.0, 2.0):
        sym = SymbolPolynomial.klein_gordon(mass)
        assert sym.zeros.shape == (1,)
        worst = max(worst, abs(sym.zeros[0] - 1j * mass))
        assert sym.compton == 1.0 / mass
    two = SymbolPolynomial(coeffs=(4.0, 5.0, 1.0))
    lighter_dominates = abs(two.zeros[np.argmin(two.zeros.imag)] - 1j) < 1e-12
    ok = worst < 1e-12 and lighter_dominates and two.compton == 1.0
    _line(
        "criterion 02 branch structure",
        ok,
        f"zero offset {worst:.1e}, lighter dominates {lighter_dominates}",
    )
    assert ok


def test_criterion_03_cross_quadrature():
    symbols = (
        SymbolPolynomial.klein_gordon(1.0),
        SymbolPolynomial(coeffs=(4.0, 5.0, 1.0)),
    )
    cross = 0.0
    for sym in symbols:
        for lam in (-0.5, -1.0):
            for r in (2.0, 4.0, 8.0):
                a = branch_cut_kernel(sym, lam, r)
                b = direct_radial_integral(sym, lam, r)
                cross = max(cross, abs(a - b) / abs(b))
    rate_dev = 0.0
    for sym in symbols:
        for lam in (-0.5, -1.0):
            fit = kernel_decay_rate(sym, lam, rtol=0.05)
            assert fit.ok
            expected = 1.0 / sym.compton
            rate_dev = max(rate_dev, abs(fit.rate - expected) / expected)
    ok = cross <= 1e-4 and rate_dev <= 0.05
    _line(
        "criterion 03 cross quadrature",
        ok,
        f"route disagreement {cross:.1e}, worst rate dev {rate_dev:.2%}",
    )
    assert cross <= 1e-4
    assert rate_dev <= 0.05


def test_criterion_04_spectral_algebra(spec128):
    start = time.perf_counter()
    dense = klein_gordon_matrix(spec128.lattice, spec128.operator.mass_squared)
    fields = np.random.default_rng(40).normal(size=(8, spec128.lattice.nsites))
    semi = 0.0
    for a, b in ((0.5, 0.5), (0.5, -0.5), (0.25, 0.75), (-0.5, -0.5), (0.3, 0.7)):
        right = dense_power(dense, a + b)
        for field in fields:
            left = spec128.apply_power(a, spec128.apply_power(b, field))
            want = right @ field
            semi = max(semi, np.linalg.norm(left - want) / np.linalg.norm(want))
    j_sq = 0.0
    rhs_dev = 0.0
    for seed in range(20):
        u = _random_state(spec128, seed)
        jj = apply_J(apply_J(u, spec128), spec128)
        scale = math.hypot(np.linalg.norm(u.phi), np.linalg.norm(u.pi))
        j_sq = max(
            j_sq,
            math.hypot(np.linalg.norm(jj.phi + u.phi), np.linalg.norm(jj.pi + u.pi))
            / scale,
        )
        rhs = schrodinger_rhs(u, spec128)
        hamilton_phi = u.pi
        hamilton_pi = -(dense @ u.phi)
        rhs_dev = max(
            rhs_dev,
            math.hypot(
                np.linalg.norm(rhs.phi - hamilton_phi),
                np.linalg.norm(rhs.pi - hamilton_pi),
            )
            / scale,
        )
    elapsed = time.perf_counter() - start
    ok = semi <= 1e-9 and j_sq <= 1e-9 and rhs_dev <= 1e-9 and elapsed < 30.0
    _line(
        "criterion 04 spectral algebra",
        ok,
        f"semigroup {semi:.1e}, J^2 {j_sq:.1e}, rhs {rhs_dev:.1e}, {elapsed:.1f} s",
    )
    assert semi <= 1e-9
    assert j_sq <= 1e-9
    assert rhs_dev <= 1e-9
    assert elapsed < 30.0


def test_criterion_05_forms_and_segal(spec64):
    forms = 0.0
    drift = 0.0
    for seed in range(100):
        u = _random_state(spec64, 2 * seed)
        v = _random_state(spec64, 2 * seed + 1)
        mu, mv = to_modes(u, spec64), to_modes(v, spec64)
        values = [
            alpha_form(mu, mv),
            qp_form(mu, mv),
            direct_form(u, v, apply_J(v, spec64)),
            segal_form(u, v, apply_J(u, spec64)),
        ]
        scale = max(abs(z) for z in values)
        for i in range(4):
            for j in range(i + 1, 4):
                forms = max(forms, abs(values[i] - values[j]) / scale)
        evolved = alpha_form(
            to_modes(evolve_state(u, spec64, 100.0), spec64),
            to_modes(evolve_state(v, spec64, 100.0), spec64),
        )
        drift = max(drift, abs(evolved - values[0]) / scale)
    ok = forms <= 1e-9 and drift <= 1e-8
    _line(
        "criterion 05 inner-product forms",
        ok,
        f"pairwise {forms:.1e}, drift over t=100 {drift:.1e}",
    )
    assert forms <= 1e-9
    assert drift <= 1e-8


def test_criterion_06_commuting_diagrams(spec64):
    t = 13.7
    classical = 0.0
    nw = 0.0
    for seed in range(100):
        u = _random_state(spec64, seed)
        a = to_modes(evolve_state(u, spec64, t), spec64)
        b = evolve_modes(to_modes(u, spec64), spec64, t)
        classical = max(classical, np.linalg.norm(a - b) / np.linalg.norm(b))
        pa = to_nw(evolve_state(u, spec64, t), spec64)
        pb = evolve_nw(to_nw(u, spec64), spec64, t)
        nw = max(nw, np.linalg.norm(pa - pb) / np.linalg.norm(pb))
    ok = classical < 1e-10 and nw < 1e-9
    _line(
        "criterion 06 commuting diagrams",
        ok,
        f"classical {classical:.1e}, wavefunction {nw:.1e}",
    )
    assert classical < 1e-10
    assert nw < 1e-9


def test_criterion_07_oracle_arbitration():
    lattice = Lattice((6,))
    spec = diagonalize(build_klein_gordon(1.0, lattice))
    # KAPPA as oracle-verify measures it, on mode 0 of the same 6-site chain
    report, _ = run_experiment(ExperimentConfig("oracle-verify"))
    kappa = next(check.measured for check in report.checks if check.name == "kappa")

    space = build_fock(spec, (0, 1, 2), n_max=14)
    direction = np.array([0.6, 0.48j, 0.64])
    state_fock = one_particle(space, direction)
    alpha = np.zeros(spec.nmodes, dtype=complex)
    alpha[:3] = direction
    u = from_modes(alpha, spec)

    phi, pi, smeared_phi = square_excess(space, state_fock)
    # the oracle's phi2, pi2 and energy excesses, in PROBES order
    oracle = np.column_stack((phi, pi, 0.5 * pi + 0.5 * smeared_phi))
    worst = float(np.max(np.abs(oracle - probe_excesses(u, spec))))

    lattice3 = Lattice((3,))
    spec3 = diagonalize(build_klein_gordon(1.0, lattice3))
    space3 = build_fock(spec3, (0, 1, 2), n_max=6)
    phi_vac = field_operators(space3, vacuum(space3))[FIELDS.index("phi")]
    two_point = 0.0
    for x in range(3):
        for y in range(3):
            oracle = np.vdot(phi_vac[:, x], phi_vac[:, y]).real
            two_point = max(two_point, abs(oracle - vacuum_two_point(spec3, x)[y]))

    # one-particle states live exactly inside the truncation, so the
    # analytic truncation bound is zero and the floor tolerance applies
    ok = worst <= 1e-8 and two_point <= 1e-8 and abs(kappa - KAPPA) <= 1e-9
    _line(
        "criterion 07 oracle arbitration",
        ok,
        f"kappa {kappa:.12f}, probes {worst:.1e}, two-point {two_point:.1e}",
    )
    assert abs(kappa - KAPPA) <= 1e-9
    assert worst <= 1e-8
    assert two_point <= 1e-8


def test_criterion_08_small_state_limit():
    spec = diagonalize(build_klein_gordon(1.0, Lattice((6,))))
    space = build_fock(spec, (0,), n_max=14)
    exponent, _ = small_state_limit_check(
        space, np.array([1.0]), np.geomspace(0.02, 0.2, 8)
    )
    dev = abs(exponent - 2.0)
    ok = dev <= 0.1
    _line(
        "criterion 08 small-state limit",
        ok,
        f"exponent {exponent:.4f}",
    )
    assert dev <= 0.1


def test_criterion_09_localization_and_elp(spec512):
    start = time.perf_counter()
    compton = 1.0
    width = 5.0 * compton
    lattice = spec512.lattice
    bump = gaussian_bump(lattice, 256, width, cutoff=4.0 * width)
    report = localization_report(bump, spec512, compton)
    region = lattice.distances_from(256) <= 45.0 * compton
    probe_ok = _judge_in_region(bump, spec512, region, compton)[2] and all(
        fit.nsamples == 0 or fit.length <= 1.2 * compton for fit in report.fits
    )

    left = gaussian_bump(lattice, 248, width, cutoff=4.0 * width)
    right = gaussian_bump(lattice, 264, width, cutoff=4.0 * width)
    failing = sum(
        not _judge_in_region(u, spec512, region, compton)[2] for u in (left, right)
    )
    trials = elp_check([left, right], spec512, 10, np.random.default_rng(0))
    passed = sum(_judge_in_region(w, spec512, region, compton)[2] for w in trials)
    elapsed = time.perf_counter() - start
    elp_ok = failing == 0 and passed == len(trials)
    ok = probe_ok and elp_ok and elapsed < 60.0
    lengths = ", ".join(
        f"{name} {fit.length:.3f}" if fit.nsamples else f"{name} compact"
        for name, fit in zip(PROBES, report.fits)
    )
    _line(
        "criterion 09 localization and elp",
        ok,
        f"{lengths}; trials {passed}/10, {elapsed:.1f} s",
    )
    assert probe_ok
    assert failing == 0
    assert len(trials) == 10
    assert elp_ok
    assert elapsed < 60.0


def test_criterion_10_newton_wigner(spec64, spec1024):
    intertwine = 0.0
    norm_dev = 0.0
    for seed in range(100):
        u = _random_state(spec64, seed)
        lhs = to_nw(apply_J(u, spec64), spec64)
        rhs = 1j * to_nw(u, spec64)
        intertwine = max(
            intertwine, np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
        )
        segal = math.sqrt(segal_form(u, u, apply_J(u, spec64)).real)
        norm_dev = max(norm_dev, abs(nw_norm(to_nw(u, spec64), spec64) - segal) / segal)

    # the NW delta's footprint, as the default nw run measures it: 512
    # sites, the delta at site 256, mass 1
    report, _ = run_experiment(ExperimentConfig("nw"))
    records = {c.name: c.measured for c in report.checks}
    closed_form_dev = records["delta_profile_closed_form"]
    width = records["delta_width_near_compton"]
    width_ok = (
        width > 0
        and records["delta_width_fit_rms"] < FIT_RMS_MAX
        and abs(width - 1.0) <= 0.25
    )

    packet = gaussian_packet(spec1024, 512, 20.0)
    l2_distance, _ = nonrelativistic_compare(packet, spec1024, 1.0, 10.0)

    truncated = gaussian_packet(spec1024, 512, 10.0, cutoff=40.0)
    leakage, _ = superluminal_leakage(truncated, spec1024, 512, 40.0, 5.0)

    ok = (
        intertwine <= 1e-9
        and norm_dev <= 1e-9
        and closed_form_dev <= 1e-9
        and width_ok
        and l2_distance < 0.01
        and leakage > 0.0
    )
    _line(
        "criterion 10 newton-wigner",
        ok,
        f"iN=NJ {intertwine:.1e}, norm {norm_dev:.1e}, "
        f"delta dev {closed_form_dev:.1e} width {width:.3f}, "
        f"nonrel {l2_distance:.1e}, leakage {leakage:.1e}",
    )
    assert intertwine <= 1e-9
    assert norm_dev <= 1e-9
    assert closed_form_dev <= 1e-9
    assert width_ok
    assert l2_distance < 0.01
    assert leakage > 0.0


def test_criterion_11_determinism(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli_main(["all", "--out", str(out_a)]) == 0
    assert cli_main(["all", "--out", str(out_b)]) == 0
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    assert names_a == names_b
    identical = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in names_a
    )
    report = json.loads((out_a / "report.all.json").read_text())
    _line(
        "criterion 11 determinism",
        identical and report["pass"],
        f"{len(names_a)} files byte-identical, full run pass {report['pass']}",
    )
    assert identical
    assert report["pass"] is True
