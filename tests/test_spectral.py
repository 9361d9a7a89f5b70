"""Lattice geometry, operator axioms, spectral calculus and kernel decay."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from emergence_lab.spectral import (
    DENSE_TRANSFORM_MAX_SITES,
    AxiomError,
    Lattice,
    ROperator,
    bin_by_distance,
    build_klein_gordon,
    build_variable_coefficient,
    diagonalize,
    fit_decay_length,
    kernel_profile,
)

from dense_arbiter import (
    dense_function,
    dense_power,
    klein_gordon_matrix,
    klein_gordon_symbol_eigenvalues,
    longdouble_power,
)


# ---------------------------------------------------------------------------
# lattice geometry
# ---------------------------------------------------------------------------

def test_lattice_basic_counts():
    lat = Lattice((4, 6), spacing=0.5)
    assert lat.ndim == 2
    assert lat.nsites == 24
    assert lat.cell == 0.25


@pytest.mark.parametrize("shape", [(0,), (4, 0), (2, 2, 2, 2)])
def test_lattice_rejects_bad_shapes(shape):
    with pytest.raises(ValueError):
        Lattice(shape)


def test_lattice_rejects_bad_spacing():
    with pytest.raises(ValueError):
        Lattice((4,), spacing=0.0)


def test_min_image_distance_symmetry_and_wrap():
    lat = Lattice((8,), spacing=2.0)
    d = lat.distances_from(0)
    # periodic: site 7 is one step away, max separation is 4 steps
    assert d[7] == 2.0
    assert d.max() == 8.0
    for j in range(8):
        assert lat.distances_from(0)[j] == lat.distances_from(j)[0]
    assert lat.distances_from(3)[3] == 0.0


def test_min_image_2d_matches_hand_count():
    lat = Lattice((4, 4))
    j = int(np.ravel_multi_index((3, 3), lat.shape))
    # (3, 3) wraps to (-1, -1)
    assert lat.distances_from(0)[j] == pytest.approx(np.sqrt(2.0))


def test_site_coords_roundtrip():
    lat = Lattice((3, 5))
    coords = lat.site_coords()
    # C order: the flat index of each row's coordinates is its row number
    flat = np.ravel_multi_index(tuple(coords.T), lat.shape)
    assert np.array_equal(flat, np.arange(lat.nsites))


# ---------------------------------------------------------------------------
# Klein-Gordon build
# ---------------------------------------------------------------------------

def test_klein_gordon_row_n4():
    op = build_klein_gordon(1.0, Lattice((4,)))
    assert_allclose(op.matrix[0], [3.0, -1.0, 0.0, -1.0])


def test_klein_gordon_eigenvalues_n4():
    spec = diagonalize(build_klein_gordon(1.0, Lattice((4,))))
    assert_allclose(spec.eigenvalues, [1.0, 3.0, 3.0, 5.0], atol=1e-12)
    assert_allclose(spec.frequencies, np.sqrt([1.0, 3.0, 3.0, 5.0]), atol=1e-12)


@pytest.mark.parametrize("n,mass,spacing", [(16, 1.0, 1.0), (9, 2.0, 0.5), (32, 0.3, 2.0)])
def test_eigenvalues_match_symbol_closed_form(n, mass, spacing):
    lat = Lattice((n,), spacing=spacing)
    spec = diagonalize(build_klein_gordon(mass, lat))
    expected = np.sort(klein_gordon_symbol_eigenvalues(mass, lat))
    assert_allclose(spec.eigenvalues, expected, rtol=1e-12, atol=1e-12)


def test_massless_operator_rejected():
    with pytest.raises(AxiomError):
        diagonalize(build_klein_gordon(0.0, Lattice((8,))))


def test_variable_coefficient_reduces_to_constant():
    lat = Lattice((8,), spacing=0.5)
    uniform = build_variable_coefficient(np.full(8, 1.3), lat)
    constant = build_klein_gordon(1.3, lat)
    assert_allclose(uniform.matrix, constant.matrix, atol=1e-14)


def test_variable_coefficient_two_region_diagonal():
    lat = Lattice((6,))
    field = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
    op = build_variable_coefficient(field, lat)
    assert_allclose(np.diag(op.matrix), field**2 + 2.0)
    spec = diagonalize(op)
    assert np.all(spec.eigenvalues > 0)


# ---------------------------------------------------------------------------
# stencil against the dense arbiter
# ---------------------------------------------------------------------------

# extents 1 and 2 make the + and - neighbours of a site coincide; on 3x3x1 at
# spacing 0.9 the order in which diagonal terms add changes their rounding
STENCIL_LATTICES = [
    ((7,), 0.5), ((1, 5), 0.5), ((2, 40), 0.5), ((5, 6), 0.5), ((7, 7, 7), 0.7),
    ((3, 3, 1), 0.9),
]


def _stencil_operators(shape, spacing):
    lat = Lattice(shape, spacing)
    ripple = 1.3 + 0.4 * np.sin(2 * np.pi * np.arange(lat.nsites) / lat.nsites)
    return [build_klein_gordon(1.3, lat), build_variable_coefficient(ripple, lat)]


def _dense(op):
    return klein_gordon_matrix(op.lattice, op.mass_squared)


@pytest.mark.parametrize("shape,spacing", STENCIL_LATTICES)
def test_stencil_apply_matches_matrix(shape, spacing):
    rng = np.random.default_rng(6)
    for op in _stencil_operators(shape, spacing):
        n = op.lattice.nsites
        for field in (rng.normal(size=n), rng.normal(size=n) + 1j * rng.normal(size=n)):
            assert _rel_dev(op.apply(field), _dense(op) @ field) < 1e-13


@pytest.mark.parametrize("shape,spacing", STENCIL_LATTICES)
def test_stencil_matrix_exactly_symmetric(shape, spacing):
    for op in _stencil_operators(shape, spacing):
        assert op.matrix.tobytes() == _dense(op).tobytes()
        assert np.array_equal(op.matrix, op.matrix.T)


@pytest.mark.parametrize("shape,spacing", STENCIL_LATTICES)
def test_stencil_and_explicit_forms_diagonalize_alike(shape, spacing):
    # the explicit form is the arbiter's dense matrix, given to eigvalsh
    for op in _stencil_operators(shape, spacing):
        explicit_vals = np.linalg.eigvalsh(_dense(op))
        assert_allclose(diagonalize(op).eigenvalues, explicit_vals, rtol=1e-12)


def test_operator_takes_exactly_one_form():
    with pytest.raises(ValueError):
        ROperator(Lattice((4,)), np.ones(3))


# at the 4096 sites below, one dense N x N float array takes 134 MB
NO_DENSE_PEAK_BYTES = 4_000_000


@pytest.mark.parametrize("shape", [(4096,), (16, 16, 16)])
def test_translation_invariant_route_allocates_no_dense_array(shape):
    lat = Lattice(shape, 0.7)
    field = np.random.default_rng(7).normal(size=lat.nsites)
    tracemalloc.start()
    try:
        op = build_klein_gordon(1.0, lat)
        spec = diagonalize(op)
        op.apply(field)
        spec.apply_power(-0.5, field)
        kernel_profile(spec, -0.5, 5)
        kernel_profile(spec, 3, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spec.hartley_modes is not None
    assert peak < NO_DENSE_PEAK_BYTES


def test_large_lattice_kernel_matches_small_one_near_source():
    # the periodic images add terms of order exp(-m L), zero at both sizes
    near = 40
    big = diagonalize(build_klein_gordon(1.0, Lattice((2**17,))))
    small = diagonalize(build_klein_gordon(1.0, Lattice((2048,))))
    got = kernel_profile(big, -0.5, 2**16)
    ref = kernel_profile(small, -0.5, 1024)
    assert_allclose(got.distances[: near + 1], ref.distances[: near + 1])
    assert _rel_dev(got.values[: near + 1], ref.values[: near + 1]) < 1e-12


# ---------------------------------------------------------------------------
# real powers
# ---------------------------------------------------------------------------

def _random_fields(n, count=4, seed=8):
    return np.random.default_rng(seed).normal(size=(count, n))


@pytest.mark.parametrize("a", [-0.5, -0.25, 0.0, 0.25, 0.5, 1.0])
@pytest.mark.parametrize("b", [-0.5, 0.25, 1.0])
def test_power_semigroup(a, b):
    spec = diagonalize(build_klein_gordon(1.0, Lattice((32,))))
    for field in _random_fields(32):
        composed = spec.apply_power(a, spec.apply_power(b, field))
        assert_allclose(composed, spec.apply_power(a + b, field), rtol=1e-9, atol=1e-9)


def test_inverse_power_is_inverse():
    spec = diagonalize(build_klein_gordon(0.7, Lattice((24,))))
    op = spec.operator
    for field in _random_fields(24):
        assert_allclose(spec.apply_power(-1.0, op.apply(field)), field, atol=1e-10)
        assert_allclose(op.apply(spec.apply_power(-1.0, field)), field, atol=1e-10)


def test_zeroth_power_is_identity():
    spec = diagonalize(build_klein_gordon(1.0, Lattice((12,))))
    for field in _random_fields(12):
        assert_allclose(spec.apply_power(0.0, field), field, atol=1e-12)


def test_integer_power_exactly_local():
    lat = Lattice((32,))
    op = build_klein_gordon(1.0, lat)
    column = op.apply(op.apply(np.eye(32)[0]))
    assert set(np.nonzero(column)[0]) == {0, 1, 2, 30, 31}
    # and the entries agree with the dense square
    dense = _dense(op)
    assert_allclose(column, (dense @ dense)[:, 0], atol=1e-12)


# ---------------------------------------------------------------------------
# f(R) primitives against dense matrix functions of R
# ---------------------------------------------------------------------------

# fixed in advance; every reference below is built from the arbiter's dense R
PRIMITIVE_RTOL = 1e-10


def _rel_dev(got, ref):
    return float(np.abs(got - ref).max() / np.abs(ref).max())


# (shape, spacing, mass ripple): "fft" cases lie above DENSE_TRANSFORM_MAX_SITES,
# where transforms run by FFT; a rippled mass takes the dense eigensolver route
@pytest.fixture(
    scope="module",
    params=[
        ((24,), 1.0, 0.0), ((5, 6), 0.5, 0.0),
        ((300,), 1.0, 0.0), ((18, 17), 0.5, 0.0), ((7, 7, 7), 0.7, 0.0),
        ((24,), 1.0, 0.4), ((5, 6), 0.5, 0.4),
    ],
    ids=["1d", "2d", "1d-fft", "2d-fft", "3d-fft", "1d-eigh", "2d-eigh"],
)
def spec_small(request):
    shape, spacing, ripple = request.param
    lattice = Lattice(shape, spacing)
    if not ripple:
        return diagonalize(build_klein_gordon(1.3, lattice))
    wave = np.sin(2 * np.pi * np.arange(lattice.nsites) / lattice.nsites)
    return diagonalize(build_variable_coefficient(1.3 + ripple * wave, lattice))


@pytest.mark.parametrize("n", [1, 2])
def test_kernel_column_matches_matrix_power(spec_small, n):
    site = 7
    ref = np.linalg.matrix_power(_dense(spec_small.operator), n)[:, site]
    ref = ref / spec_small.lattice.cell
    got = spec_small.kernel_column(lambda lam: lam**n, site)
    assert _rel_dev(got, ref) < PRIMITIVE_RTOL


def test_apply_function_matches_fractional_matrix_power(spec_small):
    field = np.random.default_rng(3).normal(size=spec_small.lattice.nsites)
    dense = scipy.linalg.fractional_matrix_power(_dense(spec_small.operator), -0.5)
    ref = np.real_if_close(dense) @ field
    got = spec_small.apply_function(lambda lam: lam**-0.5, field)
    assert _rel_dev(got, ref) < PRIMITIVE_RTOL


def test_apply_function_matches_schrodinger_propagator(spec_small):
    rng = np.random.default_rng(4)
    n = spec_small.lattice.nsites
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    t = 1.5
    root = scipy.linalg.sqrtm(_dense(spec_small.operator))
    ref = scipy.linalg.expm(-1j * t * root) @ psi
    got = spec_small.apply_function(lambda lam: np.exp(-1j * np.sqrt(lam) * t), psi)
    assert _rel_dev(got, ref) < PRIMITIVE_RTOL


@pytest.mark.parametrize("columns", ["square", 3])
def test_apply_power_on_a_batch_matches_each_column(spec_small, columns):
    # a (sites x k) batch weights the mode axis, whether or not k = sites
    n = spec_small.lattice.nsites
    k = n if columns == "square" else columns
    batch = np.random.default_rng(6).normal(size=(n, k))
    got = spec_small.apply_power(-0.5, batch)
    ref = np.column_stack([spec_small.apply_power(-0.5, col) for col in batch.T])
    assert got.shape == (n, k)
    assert _rel_dev(got, ref) < 1e-13


@pytest.mark.parametrize("columns", [1, 3])
def test_complex_block_matches_the_dense_arbiter(spec_small, columns):
    # the stored basis multiplies a complex block as one real product of its
    # real and imaginary parts; the FFT route transforms them by parts
    n = spec_small.lattice.nsites
    rng = np.random.default_rng(8)
    block = rng.normal(size=(n, columns)) + 1j * rng.normal(size=(n, columns))

    def f(lam):
        return np.exp(-1j * np.sqrt(lam) * 1.5)

    ref = dense_function(_dense(spec_small.operator), f) @ block
    got = spec_small.apply_function(f, block)
    assert got.shape == (n, columns)
    assert _rel_dev(got, ref) < PRIMITIVE_RTOL
    coeffs = spec_small.project(block)
    ref = spec_small.basis.T @ block * spec_small.lattice.cell
    assert _rel_dev(coeffs, ref) < PRIMITIVE_RTOL
    assert _rel_dev(spec_small.synthesize(coeffs), block) < PRIMITIVE_RTOL


# ---------------------------------------------------------------------------
# the FFT route's Fourier multiplier
# ---------------------------------------------------------------------------

# above DENSE_TRANSFORM_MAX_SITES, with an odd last axis in 2-D
FFT_LATTICES = [((300,), 1.0), ((18, 17), 0.5), ((7, 7, 7), 0.7)]


@pytest.mark.parametrize("shape,spacing", FFT_LATTICES)
def test_complex_weights_on_a_real_field_keep_their_imaginary_part(shape, spacing):
    # a real-FFT pair would drop Im f(R) field; the dense propagator keeps it
    lat = Lattice(shape, spacing)
    spec = diagonalize(build_klein_gordon(1.3, lat))
    assert spec.dense_basis is None
    batch = np.random.default_rng(8).normal(size=(lat.nsites, 2))

    def evolve(lam):
        return np.exp(-1j * np.sqrt(lam) * 1.5)

    propagator = dense_function(klein_gordon_matrix(lat, 1.3**2), evolve)
    got = spec.apply_function(evolve, batch[:, 0])
    assert _rel_dev(got, propagator @ batch[:, 0]) < PRIMITIVE_RTOL
    assert np.abs(got.imag).max() > 0.1 * np.abs(got).max()
    assert _rel_dev(spec.apply_function(evolve, batch), propagator @ batch) < PRIMITIVE_RTOL


# fixed in advance: a few double roundings of a peak-sized value
LONGDOUBLE_PEAK_RTOL = 1e-15


@pytest.mark.parametrize("exponent", [0.5, -0.5, -0.25])
@pytest.mark.parametrize("shape,spacing", FFT_LATTICES)
def test_apply_power_matches_long_double_fourier_sum(shape, spacing, exponent):
    lat = Lattice(shape, spacing)
    spec = diagonalize(build_klein_gordon(1.3, lat))
    assert spec.dense_basis is None
    field = np.random.default_rng(9).normal(size=lat.nsites)
    ref = longdouble_power(lat, 1.3, exponent, field)
    got = spec.apply_power(exponent, field)
    assert float(np.abs(got - ref).max() / np.abs(ref).max()) < LONGDOUBLE_PEAK_RTOL


# ---------------------------------------------------------------------------
# route selection: closed-form Hartley spectrum or dense eigensolver
# ---------------------------------------------------------------------------

ROUTE_LATTICES = [
    ((64,), 1.0), ((8, 9), 0.5), ((4, 5, 6), 0.7),
    ((300,), 1.0), ((18, 17), 0.5), ((7, 7, 7), 0.7),
]


@pytest.mark.parametrize("shape,spacing", ROUTE_LATTICES)
def test_hartley_basis_diagonalizes_translation_invariant_r(shape, spacing):
    lat = Lattice(shape, spacing)
    spec = diagonalize(build_klein_gordon(1.3, lat))
    assert spec.hartley_modes is not None
    assert (spec.dense_basis is None) == (lat.nsites > DENSE_TRANSFORM_MAX_SITES)
    basis = spec.basis
    residual = _dense(spec.operator) @ basis - basis * spec.eigenvalues
    assert np.abs(residual).max() / spec.eigenvalues[-1] <= 1e-12
    gram = basis.T @ basis * lat.cell
    assert np.abs(gram - np.eye(lat.nsites)).max() <= 1e-13
    assert np.all(np.diff(spec.eigenvalues) >= 0)


@pytest.mark.parametrize("shape,spacing", ROUTE_LATTICES)
def test_transforms_agree_with_basis(shape, spacing):
    lat = Lattice(shape, spacing)
    spec = diagonalize(build_klein_gordon(0.8, lat))
    rng = np.random.default_rng(5)
    field = rng.normal(size=lat.nsites) + 1j * rng.normal(size=lat.nsites)
    coeffs = spec.project(field)
    assert _rel_dev(coeffs, spec.basis.T @ field * lat.cell) < PRIMITIVE_RTOL
    assert _rel_dev(spec.synthesize(coeffs), field) < PRIMITIVE_RTOL


@pytest.mark.parametrize("shape", [(512,), (2048,), (18, 17), (12, 12, 12)])
def test_symbol_is_exactly_even(shape):
    # R is symmetric, so omega^2(k) = omega^2(-k) bit for bit, and each +-k
    # pair is an exact tie
    lat = Lattice(shape, 0.7)
    spec = diagonalize(build_klein_gordon(1.3, lat))
    grid = np.empty(lat.nsites)
    grid[spec.hartley_modes] = spec.eigenvalues
    grid = grid.reshape(shape)
    axes = tuple(range(len(shape)))
    negated = np.roll(np.flip(grid, axis=axes), 1, axis=axes)
    assert grid.tobytes() == negated.tobytes()


def test_uniform_variable_coefficient_takes_fourier_route():
    lat = Lattice((300,), spacing=0.5)
    op = build_variable_coefficient(np.full(lat.nsites, 0.9), lat)
    spec = diagonalize(op)
    assert spec.hartley_modes is not None
    assert_allclose(spec.eigenvalues, np.linalg.eigvalsh(_dense(op)), rtol=1e-12)


@pytest.mark.parametrize("shape", [(40,), (300,), (6, 7)])
def test_perturbed_pair_takes_dense_route(shape):
    lat = Lattice(shape)
    mass_squared = np.ones(lat.nsites)
    mass_squared[3] += 1e-3
    op = ROperator(lat, mass_squared)
    spec = diagonalize(op)
    assert spec.hartley_modes is None
    assert_allclose(spec.eigenvalues, np.linalg.eigvalsh(_dense(op)), rtol=1e-12)


@pytest.mark.parametrize(
    "shape,spacing", [((8,), 1.0), ((300,), 1.0), ((4, 5, 6), 0.7), ((7, 7, 7), 0.7)]
)
def test_massless_translation_invariant_operator_rejected(shape, spacing):
    lat = Lattice(shape, spacing)
    with pytest.raises(AxiomError):
        diagonalize(ROperator(lat, 0.0))


# ---------------------------------------------------------------------------
# kernel profiles and decay fits
# ---------------------------------------------------------------------------

def test_bin_by_distance_keeps_max_magnitude():
    d = np.array([1.0, 1.0 + 1e-12, 2.0])
    v = np.array([0.5, -0.9, 0.1])
    out_d, out_v = bin_by_distance(d, v)
    assert len(out_d) == 2
    assert_allclose(out_v, [0.9, 0.1])


def test_synthetic_exponential_fit_recovers_length():
    d = np.arange(0, 41, dtype=float)
    fit = fit_decay_length(d, np.exp(-d / 2.0), (3.0, 20.0))
    assert fit.quality_ok
    assert_allclose(fit.length, 2.0, atol=1e-6)
    assert fit.rms_log_residual < 1e-12


def test_fit_fails_cleanly_with_few_samples():
    d = np.array([3.0, 4.0, 5.0])
    fit = fit_decay_length(d, np.exp(-d), (3.0, 20.0))
    assert not fit.quality_ok
    assert np.isnan(fit.length)
    assert fit.nsamples == 3


def test_fit_fails_cleanly_on_growth():
    d = np.arange(0, 30, dtype=float)
    fit = fit_decay_length(d, np.exp(+d / 3.0), (3.0, 20.0))
    assert not fit.quality_ok
    assert np.isnan(fit.length)


def test_compton_decay_mass_one():
    spec = diagonalize(build_klein_gordon(1.0, Lattice((512,))))
    profile = kernel_profile(spec, -0.5, 256)
    fit = fit_decay_length(profile.distances, profile.values, (3.0, 20.0))
    assert fit.quality_ok
    # frozen measurement; the physical gate is the 10% band around 1/m
    assert_allclose(fit.length, 0.9887694756170995, rtol=1e-8)
    assert abs(fit.length - 1.0) < 0.10


def test_compton_decay_mass_two_scaled_window():
    spec = diagonalize(build_klein_gordon(2.0, Lattice((512,))))
    profile = kernel_profile(spec, -0.5, 256)
    fit = fit_decay_length(profile.distances, profile.values, (1.5, 10.0))
    assert abs(fit.length - 0.5) / 0.5 < 0.10
    wide = fit_decay_length(profile.distances, profile.values, (3.0, 20.0))
    assert abs(wide.length - 0.5) / 0.5 < 0.15


@pytest.mark.parametrize("lam", [-0.5, -0.25, 0.25, 0.5])
def test_all_fractional_kernels_decay_at_compton_scale(lam):
    spec = diagonalize(build_klein_gordon(1.0, Lattice((512,))))
    profile = kernel_profile(spec, lam, 256)
    fit = fit_decay_length(profile.distances, profile.values, (3.0, 20.0))
    assert fit.quality_ok
    assert abs(fit.length - 1.0) < 0.15


def test_profile_strictly_decreasing_in_physical_band():
    spec = diagonalize(build_klein_gordon(1.0, Lattice((512,))))
    profile = kernel_profile(spec, -0.5, 256)
    sel = (profile.distances >= 3.0) & (profile.distances <= 30.0)
    assert np.all(np.diff(profile.values[sel]) < 0)


@pytest.mark.parametrize("shape,spacing", [((24,), 0.5), ((9, 8), 0.5)])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_integer_kernel_profile_matches_dense_power(shape, spacing, n):
    lat = Lattice(shape, spacing)
    spec = diagonalize(build_klein_gordon(1.3, lat))
    source = 5
    got = kernel_profile(spec, n, source)
    column = np.linalg.matrix_power(_dense(spec.operator), n)[:, source] / lat.cell
    ref_d, ref_v = bin_by_distance(lat.distances_from(source), column)
    assert np.array_equal(got.distances, ref_d)
    assert _rel_dev(got.values, ref_v) < 1e-13
    # strictly local: the dense power is zero beyond n steps, and the profile
    # has exact zeros in the same bins
    steps = np.abs(lat.min_image_deltas(source)).sum(axis=1)
    assert np.all(np.abs(column[steps > n]) == 0)
    assert np.array_equal(got.values == 0, ref_v == 0)
    assert np.any(got.values == 0)


def test_profile_source_and_exponent_recorded():
    # the profile is |R^exponent(y, source)| binned by distance from the
    # source; a varying mass makes the source matter
    lat = Lattice((24,), 0.5)
    ripple = 1.3 + 0.4 * np.sin(2 * np.pi * np.arange(lat.nsites) / lat.nsites)
    spec = diagonalize(build_variable_coefficient(ripple, lat))
    profile = kernel_profile(spec, -0.5, 5)
    column = dense_power(_dense(spec.operator), -0.5)[:, 5] / lat.cell
    ref_d, ref_v = bin_by_distance(lat.distances_from(5), column)
    assert np.array_equal(profile.distances, ref_d)
    assert _rel_dev(profile.values, ref_v) < 1e-12
    # binned distances are unique and ascending
    assert np.all(np.diff(profile.distances) > 0)
