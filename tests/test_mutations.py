"""Mutation audit: physics faults that the records of ``all`` must catch.

Each fault is applied in process by monkeypatching a library function,
never by editing a check, and ``run_all`` runs at seed 0. The test pins the
exact set of records that fail under each fault, so a record that stops
catching its fault, or a fault that starts failing other records, shows up.
The fault-free run fails none.
"""

from __future__ import annotations

import math

import pytest

from emergence_lab import experiments, fock_oracle, particle
from emergence_lab.experiments import ExperimentConfig, run_all


def _quarter_smeared_pi2(u, spec):
    """pi2_diff smearing phi with R^{1/4}, not R^{1/2}."""
    return particle._pi2_excess(u.pi, spec.apply_power(0.25, u.phi))


def _pi2_quarter_power(monkeypatch):
    monkeypatch.setattr(particle, "pi2_diff", _quarter_smeared_pi2)
    monkeypatch.setitem(particle.PROBES, "pi2", _quarter_smeared_pi2)


def _two_point_doubled(monkeypatch):
    original = particle.vacuum_two_point

    def doubled(spec, x):
        return 2.0 * original(spec, x)

    monkeypatch.setattr(particle, "vacuum_two_point", doubled)
    monkeypatch.setattr(experiments, "vacuum_two_point", doubled)


def _phi_over_sqrt_omega(monkeypatch):
    # the oracle's phi(x) with f_k/sqrt(w_k) in place of f_k/sqrt(2 w_k),
    # which is sqrt(2) times the true phi(x)
    original = fock_oracle.field_operator

    def faulty(space, site, which, amps):
        out = original(space, site, which, amps)
        return math.sqrt(2.0) * out if which == "phi" else out

    monkeypatch.setattr(fock_oracle, "field_operator", faulty)


FAULTS = {
    "none": (None, set()),
    "pi2_diff_smears_with_quarter_power": (
        _pi2_quarter_power,
        {"oracle-verify.pi2_matches_oracle"},
    ),
    "vacuum_two_point_doubled": (
        _two_point_doubled,
        {"oracle-verify.vacuum_two_point"},
    ),
    "oracle_phi_over_sqrt_omega": (
        _phi_over_sqrt_omega,
        {
            "oracle-verify.kappa",
            "oracle-verify.phi2_matches_oracle",
            "oracle-verify.vacuum_two_point",
        },
    ),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_fault_fails_exactly_its_records(monkeypatch, fault):
    apply, expected = FAULTS[fault]
    if apply is not None:
        apply(monkeypatch)
    report, _ = run_all(ExperimentConfig("all", seed=0))
    failed = {check.name for check in report.checks if not check.passed}
    assert failed == expected
