"""Density matrices, Lüders measurement, decoherence accounting, Von Neumann."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

import ditlab
import helpers
from ditlab.classical import ProbDist, hamming_distance, logical_entropy
from ditlab.density import (
    ClassicalDensity,
    classical_decohered_sumsq,
    decohered_sumsq,
    dm_logical_entropy,
    luders,
    projectors_from_eigenbasis,
    projectors_from_partition,
    purity,
    rho_event,
    rho_partition,
    validate_density,
    validate_projectors,
    validate_state,
    von_neumann,
)
from ditlab.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidDensityMatrix,
    InvalidProjectorSet,
    InvalidStateVector,
    NotHermitian,
    NotPSD,
    TraceNotOne,
    ZeroProbabilityEvent,
)
from ditlab.partitions import bottom, inditset, make_partition, top
from ditlab.quantum import density_pair_profile

F = Fraction

PARITY = make_partition(6, [[0, 2, 4], [1, 3, 5]])
U6 = ProbDist.uniform(6)


# ------------------------------------------------------------- validation

def test_validate_density_accepts_and_rejects():
    validate_density(np.eye(3) / 3)
    with pytest.raises(NotHermitian):
        validate_density(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(TraceNotOne):
        validate_density(np.eye(2))
    with pytest.raises(NotPSD):
        validate_density(np.diag([1.5, -0.5]))
    with pytest.raises(DimensionMismatch):
        validate_density(np.ones((2, 3)))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_validators_reject_non_finite_entries(bad):
    m = np.eye(2) / 2
    m[0, 1] = m[1, 0] = bad
    with pytest.raises(InvalidDensityMatrix):
        validate_density(m)
    with pytest.raises(InvalidStateVector):
        validate_state([bad, 0.0])
    with pytest.raises(InvalidStateVector):
        validate_state([1.0, complex(0.0, bad)])


@pytest.mark.filterwarnings("error")
def test_validators_reject_overflowing_entries():
    m = np.eye(2) / 2
    m[0, 1] = m[1, 0] = 1e308  # finite, but rho + rho^dagger overflows
    with pytest.raises(NotPSD):
        validate_density(m)
    with pytest.raises(InvalidStateVector):
        validate_state([1e200, 0.0])


def test_validate_state():
    validate_state(np.array([1.0, 0.0]))
    validate_state(np.full(4, 0.5))
    with pytest.raises(InvalidStateVector):
        validate_state(np.array([1.0, 1.0]))


# ------------------------------------------------------------ rho_event

def test_rho_event_uniform_and_singleton():
    full = rho_event(range(6), U6)
    assert np.allclose(full, np.full((6, 6), 1 / 6))
    single = rho_event([2], U6)
    expect = np.zeros((6, 6))
    expect[2, 2] = 1.0
    assert np.allclose(single, expect)


def test_rho_event_weighted_entries():
    p = ProbDist((F(1, 2), F(1, 4), F(1, 4)))
    m = rho_event([0, 1], p)
    assert m[0, 0] == pytest.approx(2 / 3)
    assert m[0, 1] == pytest.approx(math.sqrt(2) / 3)
    assert m[1, 1] == pytest.approx(1 / 3)
    assert m[2, 2] == 0.0
    # a rank-one projector: idempotent, trace one
    assert np.allclose(m @ m, m)
    assert np.trace(m) == pytest.approx(1.0)
    validate_density(m)


def test_rho_event_zero_probability():
    p = ProbDist((F(1, 2), F(1, 2), F(0)))
    with pytest.raises(ZeroProbabilityEvent):
        rho_event([2], p)


@pytest.mark.parametrize("indices", [[-1], [3], [0, 3], [1.0], [True], ["0"]],
                         ids=["negative", "past-the-end", "one-bad", "float", "bool", "str"])
def test_rho_event_rejects_indices_outside_the_universe(indices):
    with pytest.raises(IndexOutOfRange):
        rho_event(indices, ProbDist.uniform(3))


def test_rho_event_accepts_numpy_integer_indices():
    """Indices pass the element test partitions use: numpy integers are integers."""
    p = ProbDist((F(1, 2), F(1, 4), F(1, 4)))
    assert np.array_equal(rho_event([np.int64(0), np.int32(2)], p), rho_event([0, 2], p))
    assert np.array_equal(rho_event(np.arange(3), p), rho_event([0, 1, 2], p))
    assert np.array_equal(rho_event([np.int64(0)], ProbDist.uniform(3)), rho_event([0], ProbDist.uniform(3)))
    with pytest.raises(IndexOutOfRange, match="outside universe of size 3"):
        rho_event([np.int64(3)], p)


# -------------------------------------------------------- rho_partition

def test_rho_partition_die_matrix():
    m = rho_partition(PARITY, U6)
    for j in range(6):
        for k in range(6):
            expect = 1 / 6 if (j - k) % 2 == 0 else 0.0
            assert m[j, k] == pytest.approx(expect)
    validate_density(m)


def test_rho_partition_extremes():
    p = ProbDist((F(1, 2), F(1, 3), F(1, 6)))
    assert np.allclose(rho_partition(top(3), p), np.diag([1 / 2, 1 / 3, 1 / 6]))
    b = rho_partition(bottom(3), p)
    root = np.sqrt(np.array([1 / 2, 1 / 3, 1 / 6]))
    assert np.allclose(b, np.outer(root, root))


def test_partition_densities_refuse_a_distribution_of_another_size():
    for build in (rho_partition, ClassicalDensity):
        with pytest.raises(DimensionMismatch, match="partition on size 6, distribution on 3"):
            build(PARITY, ProbDist.uniform(3))


def test_rho_partition_nonzero_pattern_is_indit():
    rng = np.random.default_rng(61)
    for n in (2, 4, 6):
        part = helpers.random_partition(rng, n)
        p = helpers.rational_dist(rng, n)  # strictly positive weights
        m = rho_partition(part, p)
        ind = inditset(part)
        for j in range(n):
            for k in range(n):
                assert (m[j, k] != 0.0) == ((j, k) in ind)


def test_dm_logical_entropy_matches_partition_entropy():
    rng = np.random.default_rng(67)
    for n in (2, 3, 5, 8):
        part = helpers.random_partition(rng, n)
        p = helpers.rational_dist(rng, n, allow_zero=True)
        assert dm_logical_entropy(rho_partition(part, p)) == pytest.approx(
            float(logical_entropy(part, p)), abs=1e-12
        )


# ------------------------------------------------------ entropy and purity

def test_purity_is_sum_of_squared_entries():
    rng = np.random.default_rng(71)
    for n in (2, 4, 7):
        rho = helpers.random_density(rng, n)
        assert purity(rho) == pytest.approx(float(np.sum(np.abs(rho) ** 2)), abs=1e-12)


def test_pure_state_entropy_is_exactly_zero():
    rng = np.random.default_rng(73)
    psi = helpers.random_state(rng, 5)
    assert dm_logical_entropy(np.outer(psi, psi.conj())) == 0.0


# ------------------------------------------------------------------ luders

def test_luders_die_example():
    before = rho_partition(bottom(6), U6)
    after = luders(before, projectors_from_partition(PARITY))
    assert np.allclose(after, rho_partition(PARITY, U6), atol=1e-12)
    assert dm_logical_entropy(after) - dm_logical_entropy(before) == pytest.approx(0.5, abs=1e-12)
    assert decohered_sumsq(before, after) == pytest.approx(18 / 36, abs=1e-12)


def test_luders_identity_and_full_projectors():
    rng = np.random.default_rng(79)
    rho = helpers.random_density(rng, 4)
    assert np.allclose(luders(rho, [np.eye(4)]), rho, atol=1e-12)
    diag = luders(rho, projectors_from_partition(top(4)))
    assert np.allclose(diag, np.diag(np.diag(rho)), atol=1e-12)


def test_luders_keeps_block_entries_in_projector_basis():
    rng = np.random.default_rng(83)
    n = 5
    u = helpers.random_unitary(rng, n)
    part = make_partition(n, [[0, 1], [2, 3, 4]])
    rho = helpers.random_density(rng, n)
    after = luders(rho, projectors_from_eigenbasis(u, part))
    b = u.conj().T @ rho @ u
    a = u.conj().T @ after @ u
    for j in range(n):
        for k in range(n):
            expect = b[j, k] if part.same_block(j, k) else 0.0
            assert abs(a[j, k] - expect) < 1e-10


def test_luders_validates_projectors():
    rho = np.eye(2) / 2
    with pytest.raises(InvalidProjectorSet):
        luders(rho, [np.eye(2), np.eye(2)])  # not orthogonal
    with pytest.raises(InvalidProjectorSet):
        luders(rho, [np.diag([1.0, 0.0])])  # incomplete
    with pytest.raises(InvalidProjectorSet):
        luders(rho, [np.array([[0.5, 0.5], [0.5, 0.5]]) * 1.2, np.diag([0.0, 0.0])])
    with pytest.raises(DimensionMismatch):
        luders(rho, validate_projectors(projectors_from_partition(top(3))))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("projs", [
    [[[math.nan]]],
    [[[math.inf]]],
    [np.zeros((0, 0))],
    [np.diag([1.0, 0.0]), np.diag([0.0, math.nan])],
    [np.diag([1.0, 0.0]), np.diag([0.0, math.inf])],
], ids=["nan", "inf", "0x0", "nan-second", "inf-second"])
def test_projector_validation_rejects_non_finite_and_empty_matrices(projs):
    with pytest.raises(InvalidProjectorSet):
        validate_projectors(projs)


def test_projector_validation_refuses_mixed_dimensions():
    with pytest.raises(DimensionMismatch, match="^projectors have mixed dimensions$"):
        validate_projectors([np.eye(2), np.eye(3)])


def test_stacked_projector_arrays_are_validated_like_lists():
    stacked = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert [P.tolist() for P in validate_projectors(stacked)] == stacked.tolist()
    rho = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert np.array_equal(luders(rho, stacked), luders(rho, list(stacked)))
    with pytest.raises(InvalidProjectorSet, match="empty"):
        validate_projectors(np.zeros((0, 2, 2)))
    with pytest.raises(InvalidProjectorSet, match="sum to the identity"):
        validate_projectors(stacked[:1])


def test_luders_rejects_a_nan_projector():
    with pytest.raises(InvalidProjectorSet):
        luders([[1.0]], [[[math.nan]]])


@pytest.mark.filterwarnings("error")
def test_luders_refuses_projectors_whose_square_overflows_without_a_warning():
    """They sum to the identity and are Hermitian; P @ P overflows, and fails as not idempotent."""
    p1 = np.array([[0.5, 1e200], [1e200, 0.5]])
    with pytest.raises(InvalidProjectorSet, match="^projector 0 is not idempotent"):
        luders(np.eye(2) / 2, [p1, np.eye(2) - p1])


@pytest.mark.parametrize("p1, message", [
    ([[1.0, 1.0], [0.0, 0.0]], "projector 0 is not Hermitian"),
    (np.diag([2.0, 0.0]), "projector 0 is not idempotent"),
], ids=["not-hermitian", "not-idempotent"])
def test_projectors_that_sum_to_the_identity_are_still_checked_one_by_one(p1, message):
    with pytest.raises(InvalidProjectorSet, match=f"^{message} within"):
        validate_projectors([p1, np.eye(2) - np.asarray(p1)])


def test_fundamental_identity_random_instances():
    rng = np.random.default_rng(89)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        if rng.integers(0, 2):
            rho = helpers.random_density(rng, n)
        else:
            psi = helpers.random_state(rng, n)
            rho = np.outer(psi, psi.conj())
        after = luders(rho, helpers.random_projector_set(rng, n))
        increase = dm_logical_entropy(after) - dm_logical_entropy(rho)
        assert increase == pytest.approx(decohered_sumsq(rho, after), abs=1e-10)
        assert increase >= -1e-10  # measurement never removes logical entropy


# ------------------------------------------------------------ von neumann

def test_validation_factors_once_and_spectra_come_only_where_read(monkeypatch):
    """One ``cholesky`` per input matrix; ``eigvalsh`` only for a route that reads a spectrum, no ``eigh``."""
    calls = {name: helpers.count_calls(monkeypatch, np.linalg, name)
             for name in ("cholesky", "eigvalsh", "eigh")}
    rng = np.random.default_rng(3)
    rho, tau = helpers.random_density(rng, 5), helpers.random_density(rng, 5)
    big = helpers.random_density(rng, 32), helpers.random_density(rng, 32)
    # The pair profile's spectral oracle runs at dim 5 and not at dim 32.
    for f, args, eigvalsh in ((dm_logical_entropy, (rho,), 0), (von_neumann, (rho,), 1),
                              (density_pair_profile, (rho, tau), 2), (density_pair_profile, big, 0)):
        for made in calls.values():
            made.clear()
        f(*args)
        assert {name: len(made) for name, made in calls.items()} == {
            "cholesky": len(args), "eigvalsh": eigvalsh, "eigh": 0}, (f.__name__, len(args[0]))


def test_von_neumann_worked_values():
    assert von_neumann(np.diag([1.0, 0.0, 0.0])) == 0.0
    assert von_neumann(np.eye(4) / 4) == pytest.approx(2.0, abs=1e-12)
    # two equal-weight blocks, each pure: one bit
    assert von_neumann(rho_partition(PARITY, U6)) == pytest.approx(1.0, abs=1e-12)


def test_von_neumann_monotone_under_luders():
    rng = np.random.default_rng(97)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        rho = helpers.random_density(rng, n)
        after = luders(rho, helpers.random_projector_set(rng, n))
        assert von_neumann(after) >= von_neumann(rho) - 1e-9


# ------------------------------------------------- exact classical channel

def test_classical_density_exact_die_accounting():
    before = ClassicalDensity(bottom(6), U6)
    after = before.luders_with(PARITY)
    assert before.purity() == 1
    assert after.purity() == F(1, 2)
    assert after.logical_entropy() - before.logical_entropy() == F(1, 2)
    assert classical_decohered_sumsq(before, after) == F(18, 36)


def test_classical_density_matches_float_path():
    rng = np.random.default_rng(101)
    for _ in range(15):
        n = int(rng.integers(2, 7))
        base = helpers.random_partition(rng, n)
        target = helpers.random_partition(rng, n)
        p = helpers.rational_dist(rng, n, allow_zero=True)
        cd = ClassicalDensity(base, p)
        cd_after = cd.luders_with(target)
        m_after = luders(cd.matrix(), projectors_from_partition(target))
        assert np.allclose(cd_after.matrix(), m_after, atol=1e-12)
        assert float(classical_decohered_sumsq(cd, cd_after)) == pytest.approx(
            decohered_sumsq(cd.matrix(), m_after), abs=1e-12
        )


def test_classical_density_purity_is_the_left_to_right_fold():
    """A compensated sum (Python 3.12's builtin ``sum``) would end in ...0009."""
    cd = ClassicalDensity(top(1001), ProbDist((1 - 1e-6,) + (1e-9,) * 1000))
    assert cd.purity() == 0.9999980000009999


def test_classical_density_entry_squares():
    cd = ClassicalDensity(PARITY, U6)
    assert cd.entry_squared(0, 2) == F(1, 36)
    assert cd.entry_squared(0, 1) == 0
    assert sum(cd.entry_squared(j, k) for j in range(6) for k in range(6)) == cd.purity()


# ------------------------------------------------ bridge to classical Hamming

def test_partition_hamming_equals_density_trace_form():
    rng = np.random.default_rng(103)
    for _ in range(15):
        n = int(rng.integers(2, 7))
        a = helpers.random_partition(rng, n)
        b = helpers.random_partition(rng, n)
        p = helpers.rational_dist(rng, n)
        ra, rb = rho_partition(a, p), rho_partition(b, p)
        trace_form = np.trace(ra @ ra) + np.trace(rb @ rb) - 2 * np.trace(ra @ rb)
        assert float(hamming_distance(a, b, p)) == pytest.approx(float(trace_form.real), abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_overflowing_hermitian_gap_is_not_hermitian():
    """Finite entries whose gap rho - rho^dagger overflows are not called non-finite."""
    with pytest.raises(NotHermitian):
        validate_density([[0.5, 1e308], [-1e308, 0.5]])


def test_package_exports_the_projectors_the_readme_imports():
    assert ditlab.projectors_from_partition is projectors_from_partition
