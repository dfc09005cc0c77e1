"""Independent oracles linked to each other, and re-checks that must raise."""

from __future__ import annotations

from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from ditlab import density, logic
from ditlab.classical import JointDist, ProbDist, entropy_profile, twoset_profile
from ditlab.errors import InternalInconsistency
from ditlab.partitions import make_partition, top
from ditlab.quantum import Observable, measure, spectral_pair_bruteforce


def _partition(labels):
    blocks = {}
    for x, label in enumerate(labels):
        blocks.setdefault(label, []).append(x)
    return make_partition(len(labels), blocks.values())


def _exact_weights(n):
    counts = st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(any)
    return counts.map(lambda c: tuple(Fraction(x, sum(c)) for x in c))


@st.composite
def exact_pairs(draw):
    n = draw(st.integers(1, 5))
    labels = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    return _partition(draw(labels)), _partition(draw(labels)), ProbDist(draw(_exact_weights(n)))


@given(exact_pairs())
@settings(max_examples=80, deadline=None)
def test_region_table_equals_ditset_regions_on_a_diagonal_joint(case):
    pi, sigma, p = case
    n = p.size
    diag = JointDist(tuple(
        tuple(p.weights[x] if x == y else 0 for y in range(n)) for x in range(n)
    ))
    assert twoset_profile(pi, sigma, diag, "regions") == entropy_profile(pi, sigma, p, "regions")


@given(
    st.integers(1, 5).flatmap(_exact_weights),
    st.integers(1, 5).flatmap(_exact_weights),
)
@settings(max_examples=60, deadline=None)
def test_spectral_oracle_equals_top_top_two_set_regions(lam, mu):
    lam = [float(x) for x in lam]
    mu = [float(x) for x in mu]
    joint = JointDist(tuple(tuple(a * b for b in mu) for a in lam))
    brute = spectral_pair_bruteforce(lam, mu)
    table = twoset_profile(top(len(lam)), top(len(mu)), joint, "regions")
    for a, b in zip(astuple(brute), astuple(table)):
        assert abs(a - b) <= 1e-12


@st.composite
def measurements(draw):
    n = draw(st.integers(1, 8))
    # Few distinct labels, so most draws have degenerate eigenvalue classes.
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = helpers.random_unitary(rng, n)
    return Observable(tuple(labels), u), u, helpers.random_state(rng, n)


@given(measurements())
@settings(max_examples=80, deadline=None)
def test_qudit_mask_equals_luders_over_eigenspace_projectors(case):
    F, u, psi = case
    projs = density.projectors_from_eigenbasis(u, F.eigenvalue_partition())
    reference = density.luders(np.outer(psi, psi.conj()), projs)
    assert np.max(np.abs(measure(F, psi) - reference)) <= 1e-12


def test_witness_recheck_raises_when_reevaluation_disagrees(monkeypatch):
    formula = logic.parse("p | q")
    real = logic.evaluate
    calls = []

    def top_on_recheck(f, env, universe):
        if f is not formula:
            return real(f, env, universe)
        calls.append(env)
        return real(f, env, universe) if len(calls) == 1 else top(universe)

    monkeypatch.setattr(logic, "evaluate", top_on_recheck)
    with pytest.raises(InternalInconsistency):
        logic.check_tautology(formula, max_n=3)
    assert len(calls) == 2
