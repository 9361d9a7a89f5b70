"""Blocks of phase points, (sites x k) with one point per column, against
k single points.

Every transform and reduction of ``modes``, ``geometry`` and
``newton_wigner``, and ``particle.probe_excesses``, takes a block. R
transforms by FFT at every lattice size, where a block column meets the
same arithmetic as the column alone, so the match is bitwise.
"""

from __future__ import annotations

import tracemalloc
import types

import numpy as np
import pytest

from emergence_lab import experiments
from emergence_lab.experiments import ExperimentConfig, run_experiment
from emergence_lab.geometry import (
    alpha_form,
    apply_J,
    direct_form,
    qp_form,
    schrodinger_rhs,
    segal_form,
    symplectic,
)
from emergence_lab.modes import (
    PhaseVector,
    evolve_state,
    field_hamiltonian,
    from_modes,
    hamiltonian_energy,
    to_modes,
)
from emergence_lab.newton_wigner import evolve_nw, from_nw, nw_norm, to_nw
from emergence_lab.particle import PROBES, probe_excesses
from emergence_lab.spectral import Lattice, build_klein_gordon, diagonalize

COLUMNS = 3


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
        alpha=fields[4] + 1j * fields[5],
        psi=fields[5] - 1j * fields[4],
    )


# the four inner-product cases run each form from the transforms it reads
CASES = {
    "to_modes": lambda s, p: to_modes(p.u, s),
    "from_modes": lambda s, p: from_modes(p.alpha, s),
    "evolve_state": lambda s, p: evolve_state(p.u, s, 50.0),
    "apply_J": lambda s, p: apply_J(p.u, s),
    "schrodinger_rhs": lambda s, p: schrodinger_rhs(p.u, s),
    "symplectic": lambda s, p: symplectic(p.u, p.v),
    "inner_product_alpha": lambda s, p: alpha_form(to_modes(p.u, s), to_modes(p.v, s)),
    "inner_product_qp": lambda s, p: qp_form(to_modes(p.u, s), to_modes(p.v, s)),
    "inner_product_direct": lambda s, p: direct_form(p.u, p.v, apply_J(p.v, s)),
    "segal_inner_product": lambda s, p: segal_form(p.u, p.v, apply_J(p.u, s)),
    "to_nw": lambda s, p: to_nw(p.u, s),
    "from_nw": lambda s, p: from_nw(p.psi, s),
    "nw_norm": lambda s, p: nw_norm(p.psi, s),
    "evolve_nw": lambda s, p: evolve_nw(p.psi, s, 50.0),
    "norm": lambda s, p: p.u.norm(),
    "hamiltonian_energy": lambda s, p: hamiltonian_energy(p.alpha, s),
    "field_hamiltonian": lambda s, p: field_hamiltonian(p.u, s.operator),
    # the three probe columns of probe_excesses, each a site-wise difference
    # from the vacuum value
    "phi2_diff": lambda s, p: probe_excesses(p.u, s)[..., PROBES.index("phi2")],
    "pi2_diff": lambda s, p: probe_excesses(p.u, s)[..., PROBES.index("pi2")],
    "energy_density_diff": lambda s, p: probe_excesses(p.u, s)[..., PROBES.index("energy")],
}


def _arrays(result) -> list[np.ndarray]:
    if isinstance(result, PhaseVector):
        return [result.phi, result.pi]
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
        np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize(
    "experiment", ["geometry-check", "segal-check", "nw"]
)
@pytest.mark.parametrize(
    "shape", [(64,), (2048,), (12, 12, 12), (5, 1)], ids=["64", "2048", "12^3", "5x1"]
)
def test_records_do_not_depend_on_the_block_size(monkeypatch, experiment, shape):
    # at five trials per block (2048 sites and 12^3), segal-check's nine pairs
    # end in a short block; one trial per block and one block holding every
    # trial give the same records and tables. On a (5, 1) lattice a block of
    # one trial has the grid shape, so it is one point, not a block
    config = ExperimentConfig(experiment, shape=shape, n_pairs=9, seed=5)
    blocked, blocked_tables = run_experiment(config)
    for budget in (1, 10**9):
        monkeypatch.setattr(experiments, "TRIAL_BLOCK", budget)
        other, other_tables = run_experiment(config)
        # NaN records (nw's delta fit on 5 sites) match NaN
        np.testing.assert_array_equal(
            [c.measured for c in other.checks], [c.measured for c in blocked.checks]
        )
        assert other_tables == blocked_tables


@pytest.mark.parametrize("shape", [(2048,), (12, 12, 12)], ids=["2048", "12^3"])
def test_later_blocks_hold_no_more_memory_than_the_first(shape):
    # each block's arrays are released before the next block is drawn, so
    # segal-check over three full blocks peaks no higher than over one
    per_block = max(1, experiments.TRIAL_BLOCK // Lattice(shape).nsites)
    peaks = []
    for n_pairs in (per_block, 3 * per_block):
        config = ExperimentConfig("segal-check", shape=shape, n_pairs=n_pairs)
        run_experiment(config)
        tracemalloc.start()
        try:
            run_experiment(config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.02 * peaks[0]


def test_phase_fields_of_different_widths_are_refused():
    lattice = Lattice((8,))
    with pytest.raises(ValueError, match="shapes"):
        PhaseVector(lattice, np.zeros((8, 3)), np.zeros((8, 2)))
    with pytest.raises(ValueError, match="shapes"):
        PhaseVector(lattice, np.zeros((8, 1)), np.zeros(8))


def test_a_field_in_its_lattice_shape_is_one_point():
    # on a (5, 1) lattice a (5, 1) array is one field, not a block of one
    lattice = Lattice((5, 1))
    field = np.arange(5.0).reshape(5, 1)
    got = [PhaseVector(lattice, field, field).phi,
           PhaseVector(lattice, np.ones((5, 2)), np.ones((5, 2))).phi]
    assert got[0].shape == (5,)
    assert got[1].shape == (5, 2)
