"""Lattice geometry, operator axioms, spectral calculus and kernel decay."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from emergence_lab import fock_oracle
from emergence_lab.experiments import FIT_RMS_MAX
from emergence_lab.spectral import (
    DISTANCE_BIN,
    AxiomError,
    Lattice,
    ROperator,
    bin_by_distance,
    build_klein_gordon,
    diagonalize,
    fit_decay_length,
    log_linear_fit,
)

from dense_arbiter import (
    dense_function,
    dense_power,
    hartley_table,
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


# ---------------------------------------------------------------------------
# stencil against the dense arbiter
# ---------------------------------------------------------------------------

# extents 1 and 2 make the + and - neighbours of a site coincide; on 3x3x1 at
# spacing 0.9 the order in which diagonal terms add changes their rounding
STENCIL_LATTICES = [
    ((7,), 0.5), ((1, 5), 0.5), ((2, 40), 0.5), ((5, 6), 0.5), ((7, 7, 7), 0.7),
    ((3, 3, 1), 0.9),
]


def _dense(op):
    return klein_gordon_matrix(op.lattice, op.mass_squared)


def _applied(op, n, source):
    """R^n applied to the unit vector at the source, one stencil sweep at a time."""
    column = np.zeros(op.lattice.nsites)
    column[source] = 1.0
    for _ in range(n):
        column = op.apply(column)
    return column


@pytest.mark.parametrize("shape,spacing", STENCIL_LATTICES)
def test_stencil_apply_matches_matrix(shape, spacing):
    rng = np.random.default_rng(6)
    op = build_klein_gordon(1.3, Lattice(shape, spacing))
    n = op.lattice.nsites
    for field in (rng.normal(size=n), rng.normal(size=n) + 1j * rng.normal(size=n)):
        assert _rel_dev(op.apply(field), _dense(op) @ field) < 1e-13


@pytest.mark.parametrize("shape,spacing", STENCIL_LATTICES)
def test_stencil_matrix_exactly_symmetric(shape, spacing):
    op = build_klein_gordon(1.3, Lattice(shape, spacing))
    assert op.matrix.tobytes() == _dense(op).tobytes()
    assert np.array_equal(op.matrix, op.matrix.T)


@pytest.mark.parametrize("shape,spacing", STENCIL_LATTICES)
def test_stencil_and_explicit_forms_diagonalize_alike(shape, spacing):
    # the explicit form is the arbiter's dense matrix, given to eigvalsh
    op = build_klein_gordon(1.3, Lattice(shape, spacing))
    explicit_vals = np.linalg.eigvalsh(_dense(op))
    assert_allclose(diagonalize(op).eigenvalues, explicit_vals, rtol=1e-12)


def test_operator_takes_exactly_one_form():
    # the mass is one float for every site: an array, even one value per
    # site or a single value, is refused
    for size in (1, 3, 4):
        with pytest.raises(TypeError):
            ROperator(Lattice((4,)), np.ones(size))


def _profile(spec, exponent, source):
    """|R^exponent(y, source)| binned by distance from the source."""
    column = spec.kernel_column(lambda lam: lam**exponent, source)
    return bin_by_distance(spec.lattice.distances_from(source), column)


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
        _profile(spec, -0.5, 5)
        bin_by_distance(lat.distances_from(5), _applied(op, 3, 5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < NO_DENSE_PEAK_BYTES


def test_fock_field_operators_allocate_no_dense_array():
    # the oracle reads f_k(x) for its three modes alone, at every site
    spec = diagonalize(build_klein_gordon(1.0, Lattice((2048,), 0.7)))
    tracemalloc.start()
    try:
        space = fock_oracle.build_fock(spec, (0, 1, 2), n_max=1)
        fock_oracle.field_operators(space, fock_oracle.vacuum(space))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < NO_DENSE_PEAK_BYTES


def test_large_lattice_kernel_matches_small_one_near_source():
    # the periodic images add terms of order exp(-m L), zero at both sizes
    near = 40
    big = diagonalize(build_klein_gordon(1.0, Lattice((2**17,))))
    small = diagonalize(build_klein_gordon(1.0, Lattice((2048,))))
    got_d, got_v = _profile(big, -0.5, 2**16)
    ref_d, ref_v = _profile(small, -0.5, 1024)
    assert_allclose(got_d[: near + 1], ref_d[: near + 1])
    assert _rel_dev(got_v[: near + 1], ref_v[: near + 1]) < 1e-12


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


# (shape, spacing): a constant mass transforms by FFT at every size
@pytest.fixture(
    scope="module",
    params=[
        ((24,), 1.0), ((5, 6), 0.5),
        ((300,), 1.0), ((18, 17), 0.5), ((7, 7, 7), 0.7),
    ],
    ids=["1d", "2d", "1d-fft", "2d-fft", "3d-fft"],
)
def spec_small(request):
    shape, spacing = request.param
    return diagonalize(build_klein_gordon(1.3, Lattice(shape, spacing)))


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
    # a complex block's real and imaginary parts are transformed by parts
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
    table = hartley_table(spec_small.lattice, spec_small.hartley_modes)
    ref = table.T @ block * spec_small.lattice.cell
    assert _rel_dev(coeffs, ref) < PRIMITIVE_RTOL
    assert _rel_dev(spec_small.synthesize(coeffs), block) < PRIMITIVE_RTOL


# ---------------------------------------------------------------------------
# the FFT route's Fourier multiplier
# ---------------------------------------------------------------------------

# with an odd last axis in 2-D
FFT_LATTICES = [((300,), 1.0), ((18, 17), 0.5), ((7, 7, 7), 0.7)]


@pytest.mark.parametrize("shape,spacing", FFT_LATTICES)
def test_complex_weights_on_a_real_field_keep_their_imaginary_part(shape, spacing):
    # a real-FFT pair would drop Im f(R) field; the dense propagator keeps it
    lat = Lattice(shape, spacing)
    spec = diagonalize(build_klein_gordon(1.3, lat))
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
    # two inputs: a random field, and the unit vector at one site, whose
    # image over the cell is that site's kernel column
    lat = Lattice(shape, spacing)
    spec = diagonalize(build_klein_gordon(1.3, lat))
    field = np.random.default_rng(9).normal(size=lat.nsites)
    site = lat.nsites // 3
    unit = np.zeros(lat.nsites)
    unit[site] = 1.0
    for got, ref in [
        (spec.apply_power(exponent, field), longdouble_power(lat, 1.3, exponent, field)),
        (
            spec.kernel_column(lambda lam: lam**exponent, site),
            longdouble_power(lat, 1.3, exponent, unit) / np.longdouble(lat.cell),
        ),
    ]:
        assert float(np.abs(got - ref).max() / np.abs(ref).max()) < LONGDOUBLE_PEAK_RTOL


def _nd_hartley(values, shape):
    """The Hartley transform through np.fft.fftn over all site axes."""
    if np.iscomplexobj(values):
        out = np.empty(values.shape, complex)
        out.real = _nd_hartley(values.real, shape)
        out.imag = _nd_hartley(values.imag, shape)
        return out
    spectrum = values.reshape(shape + values.shape[1:]).astype(complex)
    np.fft.fftn(spectrum, axes=tuple(range(len(shape))), out=spectrum)
    return (spectrum.real - spectrum.imag).reshape(values.shape)


def _nd_transforms(spec):
    """project, synthesize and apply_function written with the n-D FFT calls
    (fftn/ifftn, rfftn/irfftn), as the FFT route computes them at any ndim."""
    lat = spec.lattice
    shape, axes, n = lat.shape, tuple(range(lat.ndim)), spec.nmodes
    symbol = np.empty(n)
    symbol[spec.hartley_modes] = spec.eigenvalues

    def project(field):
        coeffs = _nd_hartley(field, shape)[spec.hartley_modes]
        coeffs *= np.sqrt(lat.cell / n)
        return coeffs

    def synthesize(coeffs):
        grid = np.empty_like(coeffs)
        grid[spec.hartley_modes] = coeffs
        field = _nd_hartley(grid, shape)
        field *= 1.0 / np.sqrt(n * lat.cell)
        return field

    def apply_function(f, field):
        batch = (1,) * (field.ndim - 1)
        grid = field.reshape(shape + field.shape[1:])
        weights = f(symbol.reshape(shape))
        if np.iscomplexobj(weights) or np.iscomplexobj(field):
            spread = grid.astype(complex)
            np.fft.fftn(spread, axes=axes, out=spread)
            np.multiply(weights.reshape(shape + batch), spread, out=spread)
            out = np.fft.ifftn(spread, axes=axes, out=spread)
        else:
            half = weights[..., : shape[-1] // 2 + 1]
            spread = np.fft.rfftn(grid, axes=axes)
            np.multiply(half.reshape(half.shape + batch), spread, out=spread)
            out = np.fft.irfftn(spread, s=shape, axes=axes)
        return out.reshape(field.shape)

    return project, synthesize, apply_function


@pytest.mark.parametrize("nsites", [1, 2, 64, 512, 2048])
def test_one_site_axis_transforms_match_the_nd_fft_bit_for_bit(nsites):
    # a 1-D lattice calls np.fft's 1-D transforms directly; fftn, rfftn and
    # their inverses make those same calls, so every bit must agree
    spec = diagonalize(build_klein_gordon(1.3, Lattice((nsites,), 0.7)))
    project, synthesize, apply_function = _nd_transforms(spec)
    rng = np.random.default_rng(nsites)
    real = rng.normal(size=(nsites, 3))
    fields = {
        "real": real[:, 0],
        "real block": real,
        "complex": real[:, 1] + 1j * real[:, 2],
        "complex block": real + 1j * rng.normal(size=(nsites, 3)),
    }
    weights = {
        "real": lambda lam: lam**-0.5,
        "complex": lambda lam: np.exp(-1j * np.sqrt(lam) * 1.5),
    }
    for kind, field in fields.items():
        for wkind, f in weights.items():
            got = spec.apply_function(f, field)
            assert got.tobytes() == apply_function(f, field).tobytes(), (kind, wkind)
        assert spec.project(field).tobytes() == project(field).tobytes(), kind
        assert spec.synthesize(field).tobytes() == synthesize(field).tobytes(), kind


# ---------------------------------------------------------------------------
# the closed-form Hartley spectrum
# ---------------------------------------------------------------------------

ROUTE_LATTICES = [
    ((64,), 1.0), ((8, 9), 0.5), ((4, 5, 6), 0.7),
    ((300,), 1.0), ((18, 17), 0.5), ((7, 7, 7), 0.7),
    ((1,), 1.0), ((2,), 1.0), ((40, 2), 1.0),
]


@pytest.mark.parametrize("shape,spacing", ROUTE_LATTICES)
def test_hartley_basis_diagonalizes_translation_invariant_r(shape, spacing):
    lat = Lattice(shape, spacing)
    spec = diagonalize(build_klein_gordon(1.3, lat))
    table = hartley_table(lat, spec.hartley_modes)
    # the modes the transforms use: column k of synthesize(I) is f_k
    synthesized = spec.synthesize(np.eye(spec.nmodes))
    for basis in (table, synthesized):
        residual = _dense(spec.operator) @ basis - basis * spec.eigenvalues
        assert np.abs(residual).max() / spec.eigenvalues[-1] <= 1e-12
        gram = basis.T @ basis * lat.cell
        assert np.abs(gram - np.eye(lat.nsites)).max() <= 1e-13
    assert _rel_dev(synthesized, table) <= 1e-14
    assert np.all(np.diff(spec.eigenvalues) >= 0)


@pytest.mark.parametrize("shape,spacing", ROUTE_LATTICES)
def test_transforms_agree_with_basis(shape, spacing):
    lat = Lattice(shape, spacing)
    spec = diagonalize(build_klein_gordon(0.8, lat))
    rng = np.random.default_rng(5)
    field = rng.normal(size=lat.nsites) + 1j * rng.normal(size=lat.nsites)
    coeffs = spec.project(field)
    ref = hartley_table(lat, spec.hartley_modes).T @ field * lat.cell
    assert _rel_dev(coeffs, ref) < PRIMITIVE_RTOL
    assert _rel_dev(spec.synthesize(coeffs), field) < PRIMITIVE_RTOL


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("shape", [(2048,), (12, 12, 12)])
def test_complex_synthesis_holds_few_temporaries(shape, order):
    # the result, the grid copy, and one part's complex spectrum and real
    # difference at a time: 3.5x the result, whatever its memory order
    spec = diagonalize(build_klein_gordon(1.0, Lattice(shape, 0.7)))
    rng = np.random.default_rng(2)
    size = (spec.nmodes, 5)
    coeffs = np.asarray(rng.normal(size=size) + 1j * rng.normal(size=size), order=order)
    spec.synthesize(coeffs)  # warm up outside the trace
    tracemalloc.start()
    try:
        field = spec.synthesize(coeffs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * field.nbytes


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

@pytest.mark.parametrize(
    "nsites,spacing,mass", [(64, 1.0, 1.0), (200, 0.5, 1.3), (7, 0.7, 2.0)]
)
def test_inverse_kernel_matches_the_closed_form(nsites, spacing, mass):
    # the periodic chain's Green's function, solved in closed form: with
    # cosh(kappa) = 1 + m^2 a^2 / 2 the R^{-1} kernel at offset n is
    # a cosh(kappa (N/2 - n)) / (2 sinh(kappa) sinh(kappa N/2))
    spec = diagonalize(build_klein_gordon(mass, Lattice((nsites,), spacing)))
    kappa = np.arccosh(1.0 + (mass * spacing) ** 2 / 2.0)
    scale = spacing / (2.0 * np.sinh(kappa) * np.sinh(kappa * nsites / 2.0))
    for site in (0, 3):
        offset = (np.arange(nsites) - site) % nsites
        ref = scale * np.cosh(kappa * (nsites / 2.0 - offset))
        got = spec.kernel_column(lambda lam: 1.0 / lam, site)
        assert _rel_dev(got, ref) < 1e-14


def _trusted(fit):
    # the bound the experiments hold a decay fit to: it succeeded, and the
    # RMS residual of its log values stays strictly below FIT_RMS_MAX
    return fit.length > 0 and fit.rms_log_residual < FIT_RMS_MAX


def test_bin_by_distance_keeps_max_magnitude():
    d = np.array([1.0, 1.0 + 1e-12, 2.0])
    v = np.array([0.5, -0.9, 0.1])
    out_d, out_v = bin_by_distance(d, v)
    assert len(out_d) == 2
    assert_allclose(out_v, [0.9, 0.1])


@pytest.mark.parametrize("shape", [(2048,), (12, 12, 12)])
def test_bin_by_distance_matches_unique_binning(shape):
    # bins come from the stable sort's key changes; np.unique over the same
    # sorted keys is the reference, bit for bit, on distances full of ties
    lat = Lattice(shape, 0.5)
    values = np.random.default_rng(7).standard_normal(lat.nsites)
    for source in (0, lat.nsites // 3):
        distances = lat.distances_from(source)
        keys = np.round(distances / DISTANCE_BIN).astype(np.int64)
        order = np.argsort(keys, kind="stable")
        uniq, starts = np.unique(keys[order], return_index=True)
        ref_d = uniq.astype(float) * DISTANCE_BIN
        ref_v = np.maximum.reduceat(np.abs(values)[order], starts)
        got_d, got_v = bin_by_distance(distances, values)
        assert got_d.tobytes() == ref_d.tobytes()
        assert got_v.tobytes() == ref_v.tobytes()
        assert len(got_d) < lat.nsites


def _longdouble_line(x, y):
    """Centred least-squares slope and intercept of (x, ln y) in long double."""
    x = np.asarray(x, dtype=np.longdouble)
    logy = np.log(y).astype(np.longdouble)
    dx = x - x.mean()
    slope = np.sum(dx * (logy - logy.mean())) / np.sum(dx * dx)
    return slope, logy.mean() - slope * x.mean()


def _fit_cases():
    rng = np.random.default_rng(2024)
    cases = {
        "exact": np.linspace(3.0, 20.0, 40),
        "six-points": np.arange(3.0, 9.0),
        "far-300": np.linspace(300.0, 320.0, 25),
        "far-1e4": 1e4 + np.arange(6.0),
    }
    for name, x in cases.items():
        # decay from 1 at the first x, so far windows stay in range
        logy = -(x - x[0]) / 1.3
        yield name, x, np.exp(logy)
        yield name + "-noisy", x, np.exp(logy + 0.05 * rng.standard_normal(x.size))


@pytest.mark.parametrize(
    "name,x,y", [pytest.param(*case, id=case[0]) for case in _fit_cases()]
)
def test_log_linear_fit_is_the_least_squares_line(name, x, y):
    slope, intercept, rms = log_linear_fit(x, y)
    ref_slope, ref_intercept = _longdouble_line(x, y)
    assert abs(slope - ref_slope) <= 1e-14 * abs(ref_slope)
    # the intercept carries slope * mean(x), so its error scales with it
    scale = abs(ref_intercept) + abs(ref_slope * np.mean(x))
    assert abs(intercept - ref_intercept) <= 1e-14 * scale
    poly_slope, poly_intercept = np.polyfit(x, np.log(y), 1)
    assert_allclose(slope, poly_slope, rtol=1e-12)
    assert abs(intercept - poly_intercept) <= 1e-12 * scale
    resid = np.log(y) - (slope * x + intercept)
    assert rms == np.sqrt(np.mean(resid**2))
    if "noisy" not in name:
        assert rms < 1e-12 * scale


@pytest.mark.parametrize("x,distinct", [([], 0), ([4.0], 1), ([2.5, 2.5, 2.5], 1)])
def test_log_linear_fit_refuses_fewer_than_two_distinct_x(x, distinct):
    y = np.exp(-np.asarray(x))
    with pytest.raises(ValueError, match=f"two distinct x, got {distinct}$"):
        log_linear_fit(x, y)


def test_synthetic_exponential_fit_recovers_length():
    d = np.arange(0, 41, dtype=float)
    fit = fit_decay_length(d, np.exp(-d / 2.0), (3.0, 20.0))
    assert _trusted(fit)
    assert_allclose(fit.length, 2.0, atol=1e-6)
    assert fit.rms_log_residual < 1e-12


def test_fit_fails_cleanly_with_few_samples():
    d = np.array([3.0, 4.0, 5.0])
    fit = fit_decay_length(d, np.exp(-d), (3.0, 20.0))
    assert not _trusted(fit)
    assert np.isnan(fit.length)
    assert fit.nsamples == 3


def test_fit_fails_cleanly_on_growth():
    d = np.arange(0, 30, dtype=float)
    fit = fit_decay_length(d, np.exp(+d / 3.0), (3.0, 20.0))
    assert not _trusted(fit)
    assert np.isnan(fit.length)


def test_compton_decay_mass_one():
    spec = diagonalize(build_klein_gordon(1.0, Lattice((512,))))
    distances, values = _profile(spec, -0.5, 256)
    fit = fit_decay_length(distances, values, (3.0, 20.0))
    assert _trusted(fit)
    # frozen measurement; the physical gate is the 10% band around 1/m
    assert_allclose(fit.length, 0.9887694756170995, rtol=1e-8)
    assert abs(fit.length - 1.0) < 0.10


def test_compton_decay_mass_two_scaled_window():
    spec = diagonalize(build_klein_gordon(2.0, Lattice((512,))))
    distances, values = _profile(spec, -0.5, 256)
    fit = fit_decay_length(distances, values, (1.5, 10.0))
    assert abs(fit.length - 0.5) / 0.5 < 0.10
    wide = fit_decay_length(distances, values, (3.0, 20.0))
    assert abs(wide.length - 0.5) / 0.5 < 0.15


@pytest.mark.parametrize("lam", [-0.5, -0.25, 0.25, 0.5])
def test_all_fractional_kernels_decay_at_compton_scale(lam):
    spec = diagonalize(build_klein_gordon(1.0, Lattice((512,))))
    distances, values = _profile(spec, lam, 256)
    fit = fit_decay_length(distances, values, (3.0, 20.0))
    assert _trusted(fit)
    assert abs(fit.length - 1.0) < 0.15


def test_profile_strictly_decreasing_in_physical_band():
    spec = diagonalize(build_klein_gordon(1.0, Lattice((512,))))
    distances, values = _profile(spec, -0.5, 256)
    sel = (distances >= 3.0) & (distances <= 30.0)
    assert np.all(np.diff(values[sel]) < 0)


@pytest.mark.parametrize("shape,spacing", [((24,), 0.5), ((9, 8), 0.5)])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_integer_kernel_profile_matches_dense_power(shape, spacing, n):
    lat = Lattice(shape, spacing)
    spec = diagonalize(build_klein_gordon(1.3, lat))
    source = 5
    got_d, got_v = bin_by_distance(
        lat.distances_from(source), _applied(spec.operator, n, source) / lat.cell
    )
    column = np.linalg.matrix_power(_dense(spec.operator), n)[:, source] / lat.cell
    ref_d, ref_v = bin_by_distance(lat.distances_from(source), column)
    assert np.array_equal(got_d, ref_d)
    assert _rel_dev(got_v, ref_v) < 1e-13
    # strictly local: the dense power is zero beyond n steps, and the profile
    # has exact zeros in the same bins
    steps = np.abs(lat.min_image_deltas(source)).sum(axis=1)
    assert np.all(np.abs(column[steps > n]) == 0)
    assert np.array_equal(got_v == 0, ref_v == 0)
    assert np.any(got_v == 0)


def test_profile_source_and_exponent_recorded():
    # the profile is |R^exponent(y, source)| binned by distance from the source
    lat = Lattice((24,), 0.5)
    spec = diagonalize(build_klein_gordon(1.3, lat))
    distances, values = _profile(spec, -0.5, 5)
    column = dense_power(_dense(spec.operator), -0.5)[:, 5] / lat.cell
    ref_d, ref_v = bin_by_distance(lat.distances_from(5), column)
    assert np.array_equal(distances, ref_d)
    assert _rel_dev(values, ref_v) < 1e-12
    # binned distances are unique and ascending
    assert np.all(np.diff(distances) > 0)
