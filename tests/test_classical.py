"""Logical entropy functionals, Shannon bridge, Hamming distance, two-set case."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from ditlab.classical import (
    JointDist,
    ProbDist,
    block_probabilities,
    cross_entropy_partitions,
    dist_cross_entropy,
    dist_entropy,
    entropy_profile,
    hamming_distance,
    logical_entropy,
    product_measure,
    shannon_entropy,
    shannon_profile,
    shannon_profile_from_transform,
    twoset_profile,
)
from ditlab.errors import (
    IndexOutOfRange,
    InvalidDistribution,
    LengthMismatch,
    UniverseMismatch,
)
from ditlab.partitions import (
    bottom,
    ditset,
    enumerate_partitions,
    join,
    make_partition,
    refines,
    top,
)

F = Fraction


# -------------------------------------------------------------- ProbDist

def test_probdist_validation():
    with pytest.raises(InvalidDistribution):
        ProbDist((F(1, 2), F(1, 3)))
    with pytest.raises(InvalidDistribution):
        ProbDist((F(3, 2), F(-1, 2)))
    with pytest.raises(InvalidDistribution):
        ProbDist((0.5, 0.5 + 1e-6))
    ProbDist((0.5, 0.5 + 1e-14))  # inside float tolerance
    assert ProbDist.uniform(6).is_exact
    assert not ProbDist((0.25, 0.75)).is_exact


@pytest.mark.parametrize("huge", [10 ** 400, F(10 ** 400, 3)])
def test_probdist_refuses_an_exact_weight_past_the_float_range_among_floats(huge):
    with pytest.raises(InvalidDistribution, match="weights sum to inf, expected 1"):
        ProbDist((0.0, huge, 0.5))


@pytest.mark.parametrize("bad", [True, np.True_, "1", 1j, None])
def test_probdist_rejects_weights_that_are_not_real_numbers(bad):
    with pytest.raises(InvalidDistribution, match="is not a real number"):
        ProbDist((bad,))
    with pytest.raises(InvalidDistribution, match="is not a real number"):
        ProbDist((0.5, bad, 0.5))
    with pytest.raises(InvalidDistribution, match="is not a real number"):
        JointDist(((0.5, bad),))


def test_probdist_accepts_ints_fractions_and_numpy_scalars():
    assert ProbDist((1,)).is_exact and ProbDist((F(1, 3), F(2, 3))).is_exact
    # Numerators and denominators beyond the float range: the check converts nothing to float.
    huge = 10 ** 400
    assert ProbDist((F(huge, huge + 1), F(1, huge + 1))).is_exact
    for w in ((np.float64(0.5), np.float32(0.5)), (np.int64(1),), (np.float64(0.25), F(3, 4))):
        assert ProbDist(w).weights == w


def test_probdist_names_the_first_negative_weight_before_forming_numerators():
    for w, first in [((F(1, 2), F(-1, 4), -1, F(7, 4)), "-1/4"), ((2, -1), "-1"), ((0.5, -0.25, 0.75), "-0.25")]:
        with pytest.raises(InvalidDistribution, match=f"^negative weight {first}$"):
            ProbDist(w)
    # Denominators past the exact bound: the sign check still comes first.
    w = [F(1, 10 ** 4000 + 2 * i + 1) for i in range(80)] + [F(-1, 3)]
    with pytest.raises(InvalidDistribution, match="^negative weight -1/3$"):
        ProbDist(tuple(w))


@pytest.mark.parametrize("indices", [[-1], [True], [5], [0, 3], [1.0], ["0"]],
                         ids=["negative", "bool", "past-the-end", "one-bad", "float", "str"])
def test_prob_refuses_indices_that_are_not_outcomes(indices):
    with pytest.raises(IndexOutOfRange, match=r"^event index .* outside universe of size 3$"):
        ProbDist((F(1, 2), F(1, 3), F(1, 6))).prob(indices)


def test_prob_counts_each_outcome_once_in_ascending_order():
    p = ProbDist((F(1, 2), F(1, 3), F(1, 6)))
    assert p.prob([0, 0]) == F(1, 2) and p.prob([2, 0, 2]) == F(2, 3)
    assert p.prob([np.int64(2), np.int32(0)]) == F(2, 3) and p.prob(np.arange(3)) == 1
    # (0.1 + 0.2) + 0.7 is 1.0, but (0.7 + 0.2) + 0.1 is not.
    assert ProbDist((0.1, 0.2, 0.7)).prob([2, 1, 0]) == 1.0


def test_jointdist_validation_and_marginals():
    with pytest.raises(LengthMismatch):
        JointDist(((F(1, 2),), (F(1, 4), F(1, 4))))
    with pytest.raises(InvalidDistribution):
        JointDist(((F(1, 2), F(1, 3)),))
    j = JointDist(((F(1, 8), F(3, 8)), (F(1, 4), F(1, 4))))
    assert j.marginal_x().weights == (F(1, 2), F(1, 2))
    assert j.marginal_y().weights == (F(3, 8), F(5, 8))


# ------------------------------------------------------- logical entropy

def test_logical_entropy_worked_numbers():
    u6 = ProbDist.uniform(6)
    parity = make_partition(6, [[0, 2, 4], [1, 3, 5]])
    assert logical_entropy(parity, u6) == F(1, 2)
    assert logical_entropy(bottom(6), u6) == 0
    for n in (2, 3, 4, 7):
        assert logical_entropy(top(n), ProbDist.uniform(n)) == F(n - 1, n)


def test_zero_probability_blocks_contribute_nothing():
    p = ProbDist((F(1, 2), F(1, 2), F(0)))
    split = make_partition(3, [[0], [1], [2]])
    assert logical_entropy(split, p) == F(1, 2)
    assert block_probabilities(split, p) == [F(1, 2), F(1, 2), F(0)]


def test_logical_entropy_universe_mismatch():
    with pytest.raises(UniverseMismatch):
        logical_entropy(top(3), ProbDist.uniform(4))


def test_entropy_bounds_and_refinement_monotonicity():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4):
        parts = list(enumerate_partitions(n))
        for _ in range(5):
            p = helpers.rational_dist(rng, n)
            for part in parts:
                h = logical_entropy(part, p)
                assert 0 <= h <= 1 - min(block_probabilities(part, p))
            for s, q in itertools.product(parts, parts):
                if refines(s, q):
                    assert logical_entropy(s, p) <= logical_entropy(q, p)


def test_product_measure_over_ditset_recovers_entropy():
    rng = np.random.default_rng(5)
    for n in (2, 4, 6):
        p = helpers.rational_dist(rng, n)
        for _ in range(10):
            part = helpers.random_partition(rng, n)
            assert product_measure(ditset(part), p) == logical_entropy(part, p)


def test_product_measure_refuses_a_pair_set_on_another_size():
    with pytest.raises(UniverseMismatch, match="pair set on size 3, distribution on 2"):
        product_measure(ditset(top(3)), ProbDist.uniform(2))


# --------------------------------------------------------------- profile

def test_profile_crossed_example():
    blocky = make_partition(4, [[0, 1], [2, 3]])
    crossed = make_partition(4, [[0, 2], [1, 3]])
    prof = entropy_profile(blocky, crossed, ProbDist.uniform(4))
    assert (prof.h_pi, prof.h_sigma, prof.h_joint) == (F(1, 2), F(1, 2), F(3, 4))
    assert (prof.h_pi_given_sigma, prof.h_sigma_given_pi, prof.mutual) == (F(1, 4), F(1, 4), F(1, 4))


def test_profile_methods_agree_exactly():
    rng = np.random.default_rng(23)
    for n in (2, 3, 5):
        for _ in range(10):
            a = helpers.random_partition(rng, n)
            b = helpers.random_partition(rng, n)
            p = helpers.rational_dist(rng, n, allow_zero=True)
            closed = entropy_profile(a, b, p, method="closed")
            regions = entropy_profile(a, b, p, method="regions")
            auto = entropy_profile(a, b, p)
            assert closed == regions == auto


def test_profile_identities_exact():
    rng = np.random.default_rng(29)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        a = helpers.random_partition(rng, n)
        b = helpers.random_partition(rng, n)
        p = helpers.rational_dist(rng, n)
        prof = entropy_profile(a, b, p, method="regions")
        assert prof.h_joint == prof.h_pi_given_sigma + prof.mutual + prof.h_sigma_given_pi
        assert prof.mutual == prof.h_pi + prof.h_sigma - prof.h_joint
        assert prof.h_joint == logical_entropy(join(a, b), p)


def test_profile_universe_mismatch():
    with pytest.raises(UniverseMismatch):
        entropy_profile(top(3), top(4), ProbDist.uniform(3))


@given(st.integers(2, 5), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_profile_identities_property(n, seed):
    rng = np.random.default_rng(seed)
    a = helpers.random_partition(rng, n)
    b = helpers.random_partition(rng, n)
    p = helpers.rational_dist(rng, n, allow_zero=True)
    prof = entropy_profile(a, b, p, method="regions")
    assert prof.h_joint == prof.h_pi_given_sigma + prof.mutual + prof.h_sigma_given_pi
    assert prof.mutual == prof.h_pi + prof.h_sigma - prof.h_joint


# --------------------------------------------------------------- shannon

def test_shannon_worked_numbers():
    assert shannon_entropy(top(8), ProbDist.uniform(8)) == pytest.approx(3.0, abs=1e-15)
    assert shannon_entropy(bottom(5), ProbDist.uniform(5)) == 0.0
    p = ProbDist((F(1, 2), F(1, 4), F(1, 4)))
    assert shannon_entropy(top(3), p) == pytest.approx(1.5, abs=1e-15)


def test_shannon_zero_probability_block():
    p = ProbDist((F(1, 2), F(1, 2), F(0)))
    assert shannon_entropy(top(3), p) == pytest.approx(1.0, abs=1e-15)


def test_shannon_profile_subtraction_identities():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a = helpers.random_partition(rng, n)
        b = helpers.random_partition(rng, n)
        p = helpers.rational_dist(rng, n)
        prof = shannon_profile(a, b, p)
        assert prof.h_joint == pytest.approx(shannon_entropy(join(a, b), p), abs=1e-12)
        assert prof.h_pi_given_sigma + prof.h_sigma + 0 == pytest.approx(prof.h_joint, abs=1e-12)
        assert prof.mutual == pytest.approx(prof.h_pi + prof.h_sigma - prof.h_joint, abs=1e-12)
        # partition-level mutual information is an ordinary mutual information
        assert prof.mutual >= -1e-12


def test_transform_profile_matches_shannon_profile():
    rng = np.random.default_rng(37)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        a = helpers.random_partition(rng, n)
        b = helpers.random_partition(rng, n)
        p = helpers.rational_dist(rng, n, allow_zero=True)
        direct = shannon_profile(a, b, p)
        transformed = shannon_profile_from_transform(a, b, p)
        for field in ("h_pi", "h_sigma", "h_joint", "h_pi_given_sigma", "h_sigma_given_pi", "mutual"):
            assert getattr(transformed, field) == pytest.approx(getattr(direct, field), abs=1e-12)


# --------------------------------------------------------------- hamming

def test_hamming_worked_numbers():
    blocky = make_partition(4, [[0, 1], [2, 3]])
    crossed = make_partition(4, [[0, 2], [1, 3]])
    assert hamming_distance(blocky, crossed, ProbDist.uniform(4)) == F(1, 2)
    assert hamming_distance(top(6), bottom(6), ProbDist.uniform(6)) == F(5, 6)


def test_hamming_is_a_pseudo_metric_on_uniform_4():
    u = ProbDist.uniform(4)
    parts = list(enumerate_partitions(4))
    d = {}
    for a, b in itertools.product(parts, parts):
        d[(a, b)] = hamming_distance(a, b, u)
    for a, b in itertools.product(parts, parts):
        assert d[(a, b)] == d[(b, a)]
        assert d[(a, a)] == 0
        assert d[(a, b)] >= 0
    for a, b, c in itertools.product(parts, parts, parts):
        assert d[(a, c)] <= d[(a, b)] + d[(b, c)]


def test_hamming_equals_two_join_form():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a = helpers.random_partition(rng, n)
        b = helpers.random_partition(rng, n)
        p = helpers.rational_dist(rng, n)
        expect = 2 * logical_entropy(join(a, b), p) - logical_entropy(a, p) - logical_entropy(b, p)
        assert hamming_distance(a, b, p) == expect


# --------------------------------------------------------- cross entropy

def test_partition_cross_entropy():
    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a = helpers.random_partition(rng, n)
        b = helpers.random_partition(rng, n)
        p = helpers.rational_dist(rng, n)
        ce = cross_entropy_partitions(a, b, p)
        assert ce == cross_entropy_partitions(b, a, p)
        assert ce == logical_entropy(join(a, b), p)
        assert cross_entropy_partitions(a, a, p) == logical_entropy(a, p)


# --------------------------------------------------------------- two-set

def test_twoset_tops_reduce_to_plain_two_variable_quantities():
    rng = np.random.default_rng(47)
    j = helpers.rational_joint(rng, 3, 4)
    prof = twoset_profile(top(3), top(4), j)
    assert prof.h_pi == dist_entropy(j.marginal_x())
    assert prof.h_sigma == dist_entropy(j.marginal_y())
    flat = ProbDist(tuple(w for row in j.weights for w in row))
    assert prof.h_joint == dist_entropy(flat)


def test_twoset_product_joint_mutual_factorizes():
    rng = np.random.default_rng(53)
    for _ in range(8):
        px = helpers.rational_dist(rng, 3)
        py = helpers.rational_dist(rng, 3)
        j = JointDist(tuple(tuple(a * b for b in py.weights) for a in px.weights))
        a = helpers.random_partition(rng, 3)
        b = helpers.random_partition(rng, 3)
        prof = twoset_profile(a, b, j, method="regions")
        assert prof.mutual == logical_entropy(a, px) * logical_entropy(b, py)


def test_twoset_methods_agree_and_identities_hold():
    rng = np.random.default_rng(59)
    for _ in range(10):
        nx, ny = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        a = helpers.random_partition(rng, nx)
        b = helpers.random_partition(rng, ny)
        j = helpers.rational_joint(rng, nx, ny, allow_zero=True)
        closed = twoset_profile(a, b, j, method="closed")
        regions = twoset_profile(a, b, j, method="regions")
        assert closed == regions == twoset_profile(a, b, j)
        assert regions.h_joint == regions.h_pi_given_sigma + regions.mutual + regions.h_sigma_given_pi


def test_twoset_shape_mismatch():
    j = helpers.rational_joint(np.random.default_rng(0), 2, 3)
    with pytest.raises(UniverseMismatch):
        twoset_profile(top(3), top(3), j)
    with pytest.raises(UniverseMismatch):
        twoset_profile(top(2), top(2), j)


# --------------------------------------------------- plain distributions

def test_dist_entropy_and_cross_entropy():
    assert dist_entropy(ProbDist.uniform(4)) == F(3, 4)
    p = ProbDist((F(1, 2), F(1, 2), F(0)))
    q = ProbDist((F(1, 3), F(1, 3), F(1, 3)))
    assert dist_cross_entropy(p, q) == 1 - (F(1, 6) + F(1, 6))
    assert dist_cross_entropy(p, q) == dist_cross_entropy(q, p)
    assert dist_cross_entropy(p, p) == dist_entropy(p)
    with pytest.raises(LengthMismatch):
        dist_cross_entropy(p, ProbDist.uniform(2))
