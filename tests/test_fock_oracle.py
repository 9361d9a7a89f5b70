"""Truncated Fock space: ladder algebra, coherent states, small-state limit."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dense_arbiter import dense_fock_lowering, hartley_table
from emergence_lab import fock_oracle as fo
from emergence_lab.spectral import Lattice, build_klein_gordon, diagonalize


@pytest.fixture(scope="module")
def spec6():
    return diagonalize(build_klein_gordon(1.0, Lattice((6,))))


# ---------------------------------------------------------------------------
# space construction
# ---------------------------------------------------------------------------

def test_single_mode_ladder_entries(spec6):
    space = fo.build_fock(spec6, (0,), n_max=2)
    a = fo._ladder(space, 0, np.eye(3))
    assert_allclose(a, [[0, 1, 0], [0, 0, np.sqrt(2)], [0, 0, 0]])
    adag = fo._ladder(space, 0, np.eye(3), raising=True)
    assert_allclose(adag, a.T)


def test_two_mode_dimensions(spec6):
    space = fo.build_fock(spec6, (0, 1), n_max=3)
    assert space.dim == 16
    assert space.nmodes == 2


def test_occupations_c_order(spec6):
    # basis states |n0 n1> in C order: |00>, |01>, |10>, |11>
    space = fo.build_fock(spec6, (0, 1), n_max=1)
    basis = np.eye(4)
    assert_allclose(fo._ladder(space, 1, basis[0], raising=True), basis[1])
    assert_allclose(fo._ladder(space, 0, basis[0], raising=True), basis[2])
    assert_allclose(fo._ladder(space, 0, basis[1], raising=True), basis[3])


@pytest.mark.parametrize(
    "modes,n_max",
    [((), 4), ((0, 1, 2, 3), 4), ((0, 0), 4), ((99,), 4), ((0,), 0)],
)
def test_build_rejects_bad_modes(spec6, modes, n_max):
    with pytest.raises(ValueError):
        fo.build_fock(spec6, modes, n_max=n_max)


def test_build_rejects_huge_dimension(spec6):
    with pytest.raises(ValueError):
        fo.build_fock(spec6, (0, 1, 2), n_max=99)


def test_commutator_truncation_defect(spec6):
    # [a, adag] = I everywhere except the cut edge, where the defect is -n_max
    space = fo.build_fock(spec6, (0,), n_max=2)
    eye = np.eye(3)
    a_adag = fo._ladder(space, 0, fo._ladder(space, 0, eye, raising=True))
    adag_a = fo._ladder(space, 0, fo._ladder(space, 0, eye), raising=True)
    assert_allclose(np.diag(a_adag - adag_a), [1.0, 1.0, -2.0])


def _oracle_and_dense(spec, space, modes, x):
    """Each oracle action on amplitudes beside its dense matrix, keyed by name.

    ``space`` is ``build_fock(spec, modes, ...)``.
    """
    lower = dense_fock_lowering(space.nmodes, space.n_max)
    w = space.frequencies
    # f_k(x) as the oracle takes it, from the spectrum's synthesize, so the
    # entries below can match bit for bit; the closed-form table judges it
    modes = list(modes)
    units = np.zeros((spec.nmodes, len(modes)))
    units[modes, range(len(modes))] = 1.0
    f = spec.synthesize(units)[x]
    table = hartley_table(spec.lattice, spec.hartley_modes[modes])[x]
    scale = 1.0 / np.sqrt(spec.lattice.nsites * spec.lattice.cell)
    assert_allclose(f, table, rtol=0, atol=1e-15 * scale)
    pairs = {}
    for j, a in enumerate(lower):
        pairs[f"a{j}"] = (lambda s, j=j: fo._ladder(space, j, s), a)
        pairs[f"adag{j}"] = (lambda s, j=j: fo._ladder(space, j, s, raising=True), a.T)
        pairs[f"n{j}"] = (
            lambda s, j=j: fo._ladder(space, j, fo._ladder(space, j, s), raising=True),
            a.T @ a,
        )
    phi = sum(fj / np.sqrt(2.0 * wj) * (a + a.T) for fj, wj, a in zip(f, w, lower))
    pi = sum(np.sqrt(wj / 2.0) * fj * 1j * (a.T - a) for fj, wj, a in zip(f, w, lower))
    root_phi = sum(np.sqrt(wj / 2.0) * fj * (a + a.T) for fj, wj, a in zip(f, w, lower))
    for which, dense in zip(fo.FIELDS, (phi, pi, root_phi)):
        pairs[which] = (
            lambda s, i=fo.FIELDS.index(which): fo.field_operators(space, s)[i][..., x],
            dense,
        )
    return pairs


@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
@pytest.mark.parametrize("modes", [(1,), (0, 3), (0, 2, 5)])
def test_operators_match_dense_fock_build(spec6, modes, n_max):
    space = fo.build_fock(spec6, modes, n_max=n_max)
    eye = np.eye(space.dim)
    rng = np.random.default_rng(n_max)
    vec = rng.normal(size=(space.dim, 2)) @ [1.0, 1j]
    block = rng.normal(size=(space.dim, 3)) + 1j * rng.normal(size=(space.dim, 3))
    for x in (0, 4):
        for name, (act, dense) in _oracle_and_dense(spec6, space, modes, x).items():
            # every entry of these matrices is one product, on either side
            np.testing.assert_array_equal(act(eye), dense, err_msg=name)
            assert_allclose(act(vec), dense @ vec, rtol=1e-14, atol=1e-14, err_msg=name)
            # a block, real or complex, maps column by column, each column
            # with the bits it has alone
            for columns in (block, block.real):
                got = act(columns)
                assert_allclose(got, dense @ columns, rtol=1e-14, atol=1e-14, err_msg=name)
                for j in range(columns.shape[1]):
                    assert got[:, j].tobytes() == act(columns[:, j]).tobytes(), name


def test_field_operator_refuses_bad_input(spec6):
    space = fo.build_fock(spec6, (0,), n_max=2)
    # amplitudes of another dimension do not fit the occupation tensor
    for amps in (np.ones(5), np.ones((5, 2))):
        with pytest.raises(ValueError):
            fo.field_operators(space, amps)
    # square_excess takes one state, not a block of them
    for amps in (np.ones(5), np.ones((3, 2))):
        with pytest.raises(ValueError, match="amplitudes for 3 basis states"):
            fo.square_excess(space, amps)


# ---------------------------------------------------------------------------
# vacuum and one-particle states
# ---------------------------------------------------------------------------

def _energy(space, amps):
    """<s|H|s>/<s|s> for H = sum_k w_k adag_k a_k, as sum_k w_k ||a_k s||^2/||s||^2."""
    quanta = [np.linalg.norm(fo._ladder(space, k, amps)) ** 2 for k in range(space.nmodes)]
    return float(np.dot(space.frequencies, quanta)) / np.vdot(amps, amps).real


def test_vacuum_is_ground_state(spec6):
    space = fo.build_fock(spec6, (0, 1), n_max=4)
    vac = fo.vacuum(space)
    assert np.linalg.norm(vac) == 1.0
    assert abs(_energy(space, vac)) < 1e-15


def test_one_particle_norm_equals_direction_norm(spec6):
    space = fo.build_fock(spec6, (0, 1), n_max=4)
    direction = np.array([0.3, 0.4j])
    state = fo.one_particle(space, direction)
    assert_allclose(np.linalg.norm(state), np.linalg.norm(direction), atol=1e-12)


def test_one_particle_energy(spec6):
    space = fo.build_fock(spec6, (2,), n_max=4)
    state = fo.one_particle(space, np.array([1.0]))
    assert _energy(space, state) == pytest.approx(spec6.frequencies[2])


def test_expectation_rejects_zero_state(spec6):
    space = fo.build_fock(spec6, (0,), n_max=2)
    with pytest.raises(ValueError):
        fo.square_excess(space, np.zeros(3, dtype=complex))


def test_square_excess_is_the_expectation_of_the_square(spec6):
    # against the dense square of the field, on an unnormalized state
    space = fo.build_fock(spec6, (0, 3), n_max=3)
    amps = 2.0 * fo.coherent_state(space, np.array([0.3 - 0.2j, 0.5j])).amplitudes
    pairs = _oracle_and_dense(spec6, space, (0, 3), 4)
    excess = fo.square_excess(space, amps)
    assert excess.shape == (len(fo.FIELDS), spec6.lattice.nsites)
    for which, got in zip(fo.FIELDS, excess[:, 4]):
        dense = pairs[which][1]
        square = dense @ dense
        want = (np.vdot(amps, square @ amps) / np.vdot(amps, amps) - square[0, 0]).real
        assert got == pytest.approx(want, rel=1e-13, abs=1e-15), which


# ---------------------------------------------------------------------------
# coherent states and displacement
# ---------------------------------------------------------------------------

def test_coherent_coefficients_match_closed_form(spec6):
    space = fo.build_fock(spec6, (0,), n_max=10)
    alpha = 0.4 - 0.3j
    coh = fo.coherent_state(space, np.array([alpha]))
    n = np.arange(11)
    expected = np.exp(-0.5 * abs(alpha) ** 2) * alpha**n / np.sqrt(
        [math.factorial(int(k)) for k in n]
    )
    assert_allclose(coh.amplitudes, expected, atol=1e-15)


def test_coherent_lowering_eigenvalue(spec6):
    space = fo.build_fock(spec6, (0,), n_max=14)
    coh = fo.coherent_state(space, np.array([0.5]))
    amps = coh.amplitudes
    mean_a = np.vdot(amps, fo._ladder(space, 0, amps)) / np.vdot(amps, amps)
    assert_allclose(mean_a, 0.5, atol=1e-12)
    assert coh.guard_ok
    assert coh.tail_bound < 1e-12


def test_coherent_norm_within_tail_bound(spec6):
    space = fo.build_fock(spec6, (0, 1), n_max=8)
    alphas = np.array([0.9, 0.4 + 0.6j])
    coh = fo.coherent_state(space, alphas)
    lost = abs(1.0 - np.linalg.norm(coh.amplitudes) ** 2)
    assert lost <= coh.tail_bound


def test_coherent_guard_flags_large_amplitude(spec6):
    space = fo.build_fock(spec6, (0,), n_max=4)
    coh = fo.coherent_state(space, np.array([2.0]))
    assert not coh.guard_ok


def test_displacement_equals_coherent_product(spec6):
    space = fo.build_fock(spec6, (0, 1), n_max=12)
    direction = np.array([0.6, 0.8j])
    z = 0.4 + 0.2j
    disp = fo.displacement(space, direction, z)
    coh = fo.coherent_state(space, z * direction)
    assert_allclose(disp, coh.amplitudes, atol=1e-13)


def test_displacement_sums_a_long_series_to_the_coherent_state(spec6):
    # at |z|^2 = 400 the terms peak near n = 400 and the series needs some
    # 680 of them; only nmodes * n_max, past which every term is zero,
    # bounds the sum
    space = fo.build_fock(spec6, (0,), n_max=3000)
    disp = fo.displacement(space, np.array([1.0]), 20.0)
    coh = fo.coherent_state(space, np.array([20.0]))
    assert_allclose(disp, coh.amplitudes, rtol=0, atol=1e-12)


def test_displacement_refuses_an_overflowing_series(spec6):
    # at |z|^2 = 900 the unnormalized partial sums' squared norm overflows
    space = fo.build_fock(spec6, (0,), n_max=3000)
    with pytest.raises(OverflowError):
        fo.displacement(space, np.array([1.0]), 30.0)


def test_displacement_requires_unit_direction(spec6):
    space = fo.build_fock(spec6, (0, 1), n_max=4)
    with pytest.raises(ValueError):
        fo.displacement(space, np.array([1.0, 1.0]), 0.1)


def test_displacement_is_unitary_on_vacuum(spec6):
    space = fo.build_fock(spec6, (0,), n_max=14)
    disp = fo.displacement(space, np.array([1.0]), 0.3j)
    assert np.linalg.norm(disp) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# evolution by the oracle's Hamiltonian
# ---------------------------------------------------------------------------

def _evolve(space, amps, t):
    """exp(-i H t) amps for the diagonal H = sum_k w_k adag_k a_k."""
    eye = np.eye(space.dim)
    h = sum(
        wk * fo._ladder(space, k, fo._ladder(space, k, eye), raising=True)
        for k, wk in enumerate(space.frequencies)
    )
    assert np.count_nonzero(h - np.diag(np.diag(h))) == 0
    return np.exp(-1j * np.diag(h) * t) * amps


def test_evolution_preserves_norm_and_phases(spec6):
    space = fo.build_fock(spec6, (0, 1), n_max=6)
    coh = fo.coherent_state(space, np.array([0.4, 0.3j]))
    evolved = _evolve(space, coh.amplitudes, 2.5)
    assert np.linalg.norm(evolved) == pytest.approx(np.linalg.norm(coh.amplitudes), abs=1e-14)


def test_coherent_state_keeps_its_shape(spec6):
    # evolution maps a coherent state to the coherent state of rotated alphas
    space = fo.build_fock(spec6, (0, 2), n_max=10)
    alphas = np.array([0.5, 0.2 - 0.4j])
    t = 1.7
    evolved = _evolve(space, fo.coherent_state(space, alphas).amplitudes, t)
    rotated = fo.coherent_state(space, alphas * np.exp(-1j * space.frequencies * t))
    assert_allclose(evolved, rotated.amplitudes, atol=1e-13)


def test_one_particle_evolution_is_a_phase(spec6):
    space = fo.build_fock(spec6, (1,), n_max=3)
    state = fo.one_particle(space, np.array([1.0]))
    t = 0.9
    evolved = _evolve(space, state, t)
    phase = np.exp(-1j * space.frequencies[0] * t)
    assert_allclose(evolved, phase * state, atol=1e-14)


# ---------------------------------------------------------------------------
# small-state limit
# ---------------------------------------------------------------------------

def test_small_state_quadratic_residual(spec6):
    space = fo.build_fock(spec6, (0,), n_max=14)
    lams = np.geomspace(0.02, 0.2, 8)
    exponent, residuals = fo.small_state_limit_check(space, np.array([1.0]), lams)
    assert abs(exponent - 2.0) < 0.1
    # the second-order term has norm sqrt(3)/2 * lambda^2 exactly
    ratio = residuals[-1] / lams[-1] ** 2
    assert abs(ratio - np.sqrt(3.0) / 2.0) < 0.02


def test_small_state_rejects_large_lambda(spec6):
    space = fo.build_fock(spec6, (0,), n_max=8)
    with pytest.raises(ValueError):
        fo.small_state_limit_check(space, np.array([1.0]), np.array([0.5]))
    with pytest.raises(ValueError):
        fo.small_state_limit_check(space, np.array([1.0]), np.array([-0.1]))
