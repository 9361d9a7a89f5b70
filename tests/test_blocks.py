"""Blocks of phase points, (sites x k) with one point per column, against
k single points.

Every transform and reduction of ``modes``, ``geometry`` and
``newton_wigner`` takes a block. On the FFT route (above 256 sites) a block
column meets the same arithmetic as the column alone, so the match is
bitwise; on the stored-basis route a block is one matrix product, which may
round differently from k matrix-vector products.
"""

from __future__ import annotations

import types

import numpy as np
import pytest

from emergence_lab import experiments
from emergence_lab.experiments import ExperimentConfig, run_experiment
from emergence_lab.geometry import (
    apply_J,
    inner_product,
    schrodinger_rhs,
    segal_inner_product,
    symplectic,
)
from emergence_lab.modes import (
    ModeVector,
    PhaseVector,
    evolve_state,
    field_hamiltonian,
    from_modes,
    hamiltonian_energy,
    to_modes,
)
from emergence_lab.newton_wigner import (
    NWWavefunction,
    evolve_nw,
    from_nw,
    nw_norm,
    to_nw,
)
from emergence_lab.spectral import Lattice, build_klein_gordon, diagonalize

COLUMNS = 3
STORED_BASIS_RTOL = 1e-15


@pytest.fixture(
    scope="module",
    params=[(64,), (512,), (2048,), (12, 12, 12)],
    ids=["64", "512", "2048", "12^3"],
)
def spec(request):
    return diagonalize(build_klein_gordon(1.0, Lattice(request.param)))


def _points(spec, fields):
    """Inputs of every case from six fields: (sites,) each, or (sites x k)."""
    lattice = spec.lattice
    return types.SimpleNamespace(
        u=PhaseVector(lattice, fields[0], fields[1]),
        v=PhaseVector(lattice, fields[2], fields[3]),
        modes=ModeVector(spec, fields[4] + 1j * fields[5]),
        nw=NWWavefunction(spec, fields[5] - 1j * fields[4]),
    )


CASES = {
    "to_modes": lambda s, p: to_modes(p.u, s),
    "from_modes": lambda s, p: from_modes(p.modes),
    "evolve_state": lambda s, p: evolve_state(p.u, s, 50.0),
    "apply_J": lambda s, p: apply_J(p.u, s),
    "schrodinger_rhs": lambda s, p: schrodinger_rhs(p.u, s),
    "symplectic": lambda s, p: symplectic(p.u, p.v),
    "inner_product_alpha": lambda s, p: inner_product(p.u, p.v, s, form="alpha"),
    "inner_product_qp": lambda s, p: inner_product(p.u, p.v, s, form="qp"),
    "inner_product_direct": lambda s, p: inner_product(p.u, p.v, s, form="direct"),
    "segal_inner_product": lambda s, p: segal_inner_product(p.u, p.v, s),
    "to_nw": lambda s, p: to_nw(p.u, s),
    "from_nw": lambda s, p: from_nw(p.nw),
    "nw_norm": lambda s, p: nw_norm(p.nw),
    "evolve_nw": lambda s, p: evolve_nw(p.nw, 50.0),
    "norm": lambda s, p: p.u.norm(),
    "hamiltonian_energy": lambda s, p: hamiltonian_energy(p.modes),
    "field_hamiltonian": lambda s, p: field_hamiltonian(p.u, s.operator),
}


def _arrays(result) -> list[np.ndarray]:
    if isinstance(result, PhaseVector):
        return [result.phi, result.pi]
    if isinstance(result, ModeVector):
        return [result.alpha]
    if isinstance(result, NWWavefunction):
        return [result.psi]
    return [np.asarray(result)]


@pytest.mark.parametrize("layout", ["columns", "rows"])
@pytest.mark.parametrize("name", CASES)
def test_block_equals_its_columns_one_at_a_time(spec, name, layout):
    # "columns" is how the experiments draw a block: its columns are views of
    # contiguous single-point fields; "rows" stores it row by row instead
    raw = np.random.default_rng(3).normal(size=(COLUMNS, 6, spec.lattice.nsites))
    fields = raw.transpose(1, 2, 0)
    if layout == "rows":
        fields = np.ascontiguousarray(fields)
    block = _arrays(CASES[name](spec, _points(spec, fields)))
    singles = [_arrays(CASES[name](spec, _points(spec, point))) for point in raw]
    for i, got in enumerate(block):
        ref = np.stack([single[i] for single in singles], axis=-1)
        assert got.shape == ref.shape and got.shape[-1] == COLUMNS
        if spec.dense_basis is None:
            np.testing.assert_array_equal(got, ref)
        else:
            assert np.abs(got - ref).max() <= STORED_BASIS_RTOL * np.abs(ref).max()


@pytest.mark.parametrize(
    "experiment", ["geometry-check", "segal-check", "nw"]
)
@pytest.mark.parametrize("shape", [(2048,), (12, 12, 12)], ids=["2048", "12^3"])
def test_records_do_not_depend_on_the_block_size(monkeypatch, experiment, shape):
    # at two trials per block, segal-check's nine pairs end in a short block
    config = ExperimentConfig(experiment, shape=shape, n_pairs=9, seed=5)
    blocked, blocked_tables = run_experiment(config)
    monkeypatch.setattr(experiments, "TRIAL_BLOCK", 1)
    single, single_tables = run_experiment(config)
    assert [c.measured for c in blocked.checks] == [c.measured for c in single.checks]
    assert blocked_tables == single_tables


def test_phase_fields_of_different_widths_are_refused():
    lattice = Lattice((8,))
    with pytest.raises(ValueError, match="shapes"):
        PhaseVector(lattice, np.zeros((8, 3)), np.zeros((8, 2)))
    with pytest.raises(ValueError, match="shapes"):
        PhaseVector(lattice, np.zeros((8, 1)), np.zeros(8))


@pytest.mark.parametrize("kind", ["phase", "nw"])
def test_a_field_in_its_lattice_shape_is_one_point(kind):
    # on a (5, 1) lattice a (5, 1) array is one field, not a block of one
    spec = diagonalize(build_klein_gordon(1.0, Lattice((5, 1))))
    field = np.arange(5.0).reshape(5, 1)
    if kind == "phase":
        got = [PhaseVector(spec.lattice, field, field).phi,
               PhaseVector(spec.lattice, np.ones((5, 2)), np.ones((5, 2))).phi]
    else:
        got = [NWWavefunction(spec, field).psi, NWWavefunction(spec, np.ones((5, 2))).psi]
    assert got[0].shape == (5,)
    assert got[1].shape == (5, 2)
