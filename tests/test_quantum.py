"""Observable-state entropy, joint profiles, and density pair distances."""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

import helpers
from ditlab import quantum
from ditlab.classical import ProbDist, dist_cross_entropy, dist_entropy
from ditlab.density import rho_partition, state_density
from ditlab.errors import (
    BoundExceeded,
    DimensionMismatch,
    InvalidObservable,
    InvalidStateVector,
    NotCommuting,
)
from ditlab.partitions import ditset, make_partition, top
from ditlab.quantum import (
    Observable,
    degeneracy_check,
    density_pair_profile,
    eigenvalue_partition,
    h_observable_state,
    hilbert_schmidt_distance,
    measure,
    mutual_qudit_tuples,
    noncommuting_profile,
    noncommuting_profile_dense,
    commuting_profile,
    quantum_cross_entropy,
    quantum_fundamental_check,
    quantum_hamming,
    qudit_pairs,
    qudit_region_tuples,
    spectral_pair_bruteforce,
    state_probabilities,
)

F = Fraction


# ----------------------------------------------------------- observables

def test_observable_validation():
    Observable((1, 0, 1))
    Observable((1.5, -2.0))
    Observable((complex(2, 0), 1))  # real-valued complex is fine
    with pytest.raises(InvalidObservable):
        Observable((1j, 0))
    with pytest.raises(InvalidObservable):
        Observable((True, False))
    with pytest.raises(InvalidObservable):
        Observable(())
    with pytest.raises(DimensionMismatch):
        Observable((1, 2), np.eye(3))
    with pytest.raises(InvalidObservable):
        Observable((1, 2), np.array([[1, 1], [0, 1]], dtype=complex))


@pytest.mark.parametrize("bad", ["1.5", "x", None, np.True_, [1.5]])
def test_observable_rejects_eigenvalues_that_are_not_real_numbers(bad):
    with pytest.raises(InvalidObservable, match="is not a real number"):
        Observable((bad, 0))


def test_observable_accepts_numpy_scalars_and_fractions():
    assert Observable((np.float32(1.5), np.int64(0), Fraction(1, 3))).eigenvalues == (1.5, 0.0, Fraction(1, 3))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_observable_and_state_reject_non_finite_numbers(bad):
    with pytest.raises(InvalidObservable):
        Observable((bad, 0.0))
    with pytest.raises(InvalidObservable):
        Observable((1, 0), np.array([[1, 0], [0, bad]], dtype=complex))
    F = Observable((1, 0))
    for f in (measure, h_observable_state, quantum_fundamental_check):
        with pytest.raises(InvalidStateVector):
            f(F, np.array([bad, 0.0]))


@pytest.mark.filterwarnings("error")
def test_observable_rejects_values_that_overflow_a_float():
    with pytest.raises(InvalidObservable):
        Observable((10 ** 400, 0.5))
    with pytest.raises(InvalidObservable):
        Observable((1, 0), np.array([[1e308, 0], [0, 1]], dtype=complex))
    assert Observable((10 ** 400, 1)).eigenvalue_partition().n_blocks == 2


def test_observable_from_matrix_roundtrip():
    rng = np.random.default_rng(7)
    u = helpers.random_unitary(rng, 4)
    m = (u * np.array([3.0, 3.0, -1.0, 2.0])) @ u.conj().T
    obs = Observable.from_matrix(m)
    assert np.allclose(obs.matrix(), m, atol=1e-10)
    assert obs.eigenvalue_partition().n_blocks == 3


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mat", [
    np.zeros((0, 0)),
    [[np.inf, 0.0], [0.0, 1.0]],
    [[0.0, np.inf], [np.inf, 0.0]],
    [[np.nan, 0.0], [0.0, 1.0]],
], ids=["0x0", "inf-diagonal", "inf-offdiagonal", "nan"])
def test_observable_from_matrix_rejects_empty_and_non_finite_matrices(mat):
    with pytest.raises(InvalidObservable):
        Observable.from_matrix(mat)


def test_eigenvalues_are_grouped_once():
    obs = Observable((0.5, 1.0, 0.5))
    assert obs.eigenvalue_partition() is obs.eigenvalue_partition()


def test_eigenvalue_partition_exact_grouping():
    obs = Observable((1, 0, 1, 0, 1, 0))
    assert obs.eigenvalue_partition() == make_partition(6, [[0, 2, 4], [1, 3, 5]])
    assert eigenvalue_partition(obs) == obs.eigenvalue_partition()
    assert Observable((F(1, 3), F(2, 6), 5)).eigenvalue_partition().n_blocks == 2


def test_eigenvalue_partition_float_clustering():
    # within tolerance collapses, beyond tolerance separates
    assert Observable((1.0, 1.0 + 1e-12, 2.0)).eigenvalue_partition().n_blocks == 2
    assert Observable((1.0, 1.0 + 1e-6, 2.0)).eigenvalue_partition().n_blocks == 3


def test_qudit_pairs_is_partition_ditset():
    obs = Observable((2, 7, 2, 5))
    assert qudit_pairs(obs) == ditset(obs.eigenvalue_partition())


def test_state_probabilities_computational():
    obs = Observable((1, 0, 1, 0))
    psi = np.array([0.5, 0.5, 0.5, 0.5])
    assert np.allclose(state_probabilities(obs, psi), [0.25] * 4)


# ----------------------------------------------- entropy of a measurement

def test_entropy_vanishes_on_eigenvectors():
    rng = np.random.default_rng(11)
    u = helpers.random_unitary(rng, 3)
    obs = Observable((4, 1, 0), u)
    for k in range(3):
        r = h_observable_state(obs, u[:, k])
        assert float(r) == pytest.approx(0.0, abs=1e-12)


def test_entropy_uniform_superposition_nondegenerate():
    for n in (2, 3, 5, 8):
        obs = Observable(tuple(range(n)))
        psi = np.full(n, 1 / np.sqrt(n))
        assert float(h_observable_state(obs, psi)) == pytest.approx((n - 1) / n, abs=1e-12)


def test_entropy_three_routes_agree_randomly():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        degenerate = bool(rng.integers(0, 2)) and n > 2
        obs = helpers.random_observable(rng, n, degenerate=degenerate, min_classes=2)
        psi = helpers.random_state(rng, n)
        r = h_observable_state(obs, psi)
        assert r.via_qudit_pairs == pytest.approx(r.via_partition, abs=1e-10)
        assert r.via_qudit_pairs == pytest.approx(r.via_measurement, abs=1e-10)


def test_die_measurement_worked_example():
    obs = Observable((1, 0, 1, 0, 1, 0))
    psi = np.full(6, 1 / np.sqrt(6))
    assert float(h_observable_state(obs, psi)) == pytest.approx(0.5, abs=1e-12)
    after = measure(obs, psi)
    assert np.allclose(after, rho_partition(make_partition(6, [[0, 2, 4], [1, 3, 5]]),
                                            ProbDist.uniform(6)), atol=1e-12)
    chk = quantum_fundamental_check(obs, psi)
    assert chk.entropy_increase == pytest.approx(0.5, abs=1e-12)
    assert abs(chk.residual) < 1e-12


def test_fundamental_check_random():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        obs = helpers.random_observable(rng, n, min_classes=2, basis="random")
        psi = helpers.random_state(rng, n)
        chk = quantum_fundamental_check(obs, psi)
        assert abs(chk.residual) < 1e-10
        assert chk.entropy_increase >= -1e-10


# --------------------------------------------------- commuting profiles

def test_commuting_profile_shared_basis_crossed():
    # two two-valued observables on a four-level system, independent splits
    f = Observable((1, 1, 0, 0))
    g = Observable((1, 0, 1, 0))
    prof = commuting_profile(f, g, np.full(4, 0.5))
    assert prof.h_f == pytest.approx(0.5, abs=1e-12)
    assert prof.h_g == pytest.approx(0.5, abs=1e-12)
    assert prof.h_joint == pytest.approx(0.75, abs=1e-12)
    assert prof.mutual == pytest.approx(0.25, abs=1e-12)
    assert prof.h_f_given_g == pytest.approx(0.25, abs=1e-12)


def test_commuting_profile_joint_diagonalization():
    rng = np.random.default_rng(19)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        u = helpers.random_unitary(rng, n)
        f = helpers.random_observable(rng, n, min_classes=2, basis="given", unitary=u)
        g = helpers.random_observable(rng, n, min_classes=2, basis="given", unitary=u)
        psi = helpers.random_state(rng, n)
        # matrix route has to rediscover the shared eigenbasis
        prof_direct = commuting_profile(f, g, psi)
        fm = Observable.from_matrix(f.matrix())
        gm = Observable.from_matrix(g.matrix())
        prof_matrix = commuting_profile(fm, gm, psi)
        assert prof_matrix.h_joint == pytest.approx(prof_direct.h_joint, abs=1e-8)
        assert prof_matrix.mutual == pytest.approx(prof_direct.mutual, abs=1e-8)


def test_the_commuting_reduction_reuses_the_class_partitions(monkeypatch):
    """A shared basis hands over F's and G's own partitions and builds no Observable; a rotated
    basis builds one, to group G's values on its columns, whose classes the diagonals give."""
    built = []
    real = Observable.__post_init__
    monkeypatch.setattr(Observable, "__post_init__", lambda self: built.append(self) or real(self))
    f, g = Observable((1, 1, 0, 0)), Observable((1, 0, 1, 0))
    built.clear()
    _, pi_f, pi_g = quantum._joint_eigenbasis(f, g)
    commuting_profile(f, g, np.full(4, 0.5))
    assert pi_f is f.eigenvalue_partition() and pi_g is g.eigenvalue_partition() and built == []
    fm, gm = Observable.from_matrix(f.matrix()), Observable.from_matrix(g.matrix())
    built.clear()
    basis, pi_f, pi_g = quantum._joint_eigenbasis(fm, gm)
    assert len(built) == 1
    for obs, part in ((fm, pi_f), (gm, pi_g)):
        diagonal = np.real(np.diag(basis.conj().T @ obs.matrix() @ basis))
        assert part == Observable(tuple(diagonal.tolist())).eigenvalue_partition()


def test_commuting_profile_rejects_noncommuting():
    x = Observable.from_matrix(np.array([[0, 1], [1, 0]], dtype=complex))
    z = Observable((1, -1))
    with pytest.raises(NotCommuting):
        commuting_profile(x, z, np.array([1.0, 0.0]))


@pytest.mark.filterwarnings("error")
def test_a_commutator_that_overflows_is_refused_as_not_commuting_without_a_warning():
    """Eigenvalues near the float limit overflow FG - GF to NaN, which is no commutator within tolerance."""
    rng = np.random.default_rng(97)
    f = Observable((1.7e308, 1.7e308, -1.7e308), helpers.random_unitary(rng, 3))
    g = Observable((1.0, 2.0, 3.0), helpers.random_unitary(rng, 3))
    with pytest.raises(NotCommuting, match=r"^max \|FG - GF\| = nan exceeds"):
        commuting_profile(f, g, np.array([1.0, 0.0, 0.0]))


def test_commuting_venn_identities():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        u = helpers.random_unitary(rng, n)
        f = helpers.random_observable(rng, n, min_classes=2, unitary=u)
        g = helpers.random_observable(rng, n, min_classes=2, unitary=u)
        psi = helpers.random_state(rng, n)
        prof = commuting_profile(f, g, psi)
        assert prof.h_joint == pytest.approx(prof.h_f + prof.h_g_given_f, abs=1e-10)
        assert prof.mutual == pytest.approx(prof.h_f + prof.h_g - prof.h_joint, abs=1e-10)


# ------------------------------------------------ noncommuting profiles

def _bell_state(n=2):
    psi2 = np.zeros(n * n, dtype=complex)
    for i in range(n):
        psi2[i * n + i] = 1.0
    return psi2 / np.linalg.norm(psi2)


def test_noncommuting_product_state_factorizes():
    rng = np.random.default_rng(29)
    for _ in range(8):
        n = int(rng.integers(2, 5))
        f = helpers.random_observable(rng, n, min_classes=2)
        g = helpers.random_observable(rng, n, min_classes=2)
        a = helpers.random_state(rng, n)
        b = helpers.random_state(rng, n)
        prof = noncommuting_profile(f, g, np.kron(a, b))
        assert prof.mutual == pytest.approx(prof.h_f * prof.h_g, abs=1e-10)


def test_noncommuting_maximally_correlated_pair():
    f = Observable((1, 0))
    g = Observable((1, 0))
    prof = noncommuting_profile(f, g, _bell_state())
    assert prof.h_f == pytest.approx(0.5, abs=1e-12)
    assert prof.h_g == pytest.approx(0.5, abs=1e-12)
    assert prof.h_joint == pytest.approx(0.5, abs=1e-12)
    assert prof.h_f_given_g == pytest.approx(0.0, abs=1e-12)
    assert prof.h_g_given_f == pytest.approx(0.0, abs=1e-12)
    assert prof.mutual == pytest.approx(0.5, abs=1e-12)


def test_noncommuting_venn_identities():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        f = helpers.random_observable(rng, n, min_classes=2)
        g = helpers.random_observable(rng, n, min_classes=2)
        psi2 = helpers.random_state(rng, n * n)
        prof = noncommuting_profile(f, g, psi2)
        assert prof.h_joint == pytest.approx(prof.h_f + prof.h_g_given_f, abs=1e-10)
        assert prof.h_joint == pytest.approx(prof.h_g + prof.h_f_given_g, abs=1e-10)
        assert prof.mutual == pytest.approx(prof.h_f + prof.h_g - prof.h_joint, abs=1e-10)


def test_noncommuting_rejects_wrong_dimension():
    f = Observable((1, 0))
    g = Observable((1, 0, 2))
    with pytest.raises(DimensionMismatch):
        noncommuting_profile(f, g, np.array([1.0, 0.0, 0.0, 0.0]))


def test_dense_oracle_matches_combinatorial():
    rng = np.random.default_rng(37)
    for n in (2, 3):
        for _ in range(6):
            f = helpers.random_observable(rng, n, min_classes=2)
            g = helpers.random_observable(rng, n, min_classes=2)
            psi2 = helpers.random_state(rng, n * n)
            fast = noncommuting_profile(f, g, psi2)
            slow = noncommuting_profile_dense(f, g, psi2)
            for name in ("h_f", "h_g", "h_joint", "h_f_given_g", "h_g_given_f", "mutual"):
                assert getattr(fast, name) == pytest.approx(getattr(slow, name), abs=1e-12)


def test_dense_oracle_reads_zero_on_an_empty_region():
    """A one-class F distinguishes nothing, so the regions F must split hold no index tuple."""
    rng = np.random.default_rng(30)
    for n in (2, 3):
        f = Observable((1,) * n)
        g = helpers.random_observable(rng, n, min_classes=2)
        psi2 = helpers.random_state(rng, n * n)
        fast = noncommuting_profile(f, g, psi2, "regions")
        slow = noncommuting_profile_dense(f, g, psi2)
        for name in ("h_f", "h_g", "h_joint", "h_f_given_g", "h_g_given_f", "mutual"):
            assert getattr(fast, name) == pytest.approx(getattr(slow, name), abs=1e-12)
        assert (slow.h_f, slow.h_f_given_g, slow.mutual) == (0.0, 0.0, 0.0)


def test_dense_oracle_guard():
    f = helpers.random_observable(np.random.default_rng(1), 5, min_classes=2)
    with pytest.raises(BoundExceeded):
        noncommuting_profile_dense(f, f, np.eye(25)[0].astype(complex))


def test_qudit_region_tuples():
    f = Observable((1, 0))
    g = Observable((1, 0))
    mut = mutual_qudit_tuples(f, g)
    assert mut, "distinct-class observables must share mutual qudits"
    assert mut == qudit_region_tuples(f, g, "mutual")
    joint = qudit_region_tuples(f, g, "joint")
    assert set(mut) <= set(joint)
    f_only = qudit_region_tuples(f, g, "f_only")
    assert set(f_only) & set(mut) == set()
    with pytest.raises(ValueError):
        qudit_region_tuples(f, g, "nope")


# ----------------------------------------------------- degeneracy audit

def test_degeneracy_check_finds_product_collisions():
    f = Observable((1, 2))
    g = Observable((2, 1))
    hits = degeneracy_check(f, g)
    assert hits == [((0, 0), (1, 1))]
    clear = degeneracy_check(Observable((1, 2)), Observable((1, 5)))
    assert clear == []


def test_degeneracy_check_scalar_observable():
    # every product collides when one factor is constant
    hits = degeneracy_check(Observable((3, 3)), Observable((1, 2)))
    assert hits == []  # constant factor has no distinct pair on its own side


# ------------------------------------------------- density pair profiles

def test_density_pair_closed_forms():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        rho = helpers.random_density(rng, n)
        tau = helpers.random_density(rng, m)
        a = float(np.trace(rho @ rho).real)
        b = float(np.trace(tau @ tau).real)
        prof = density_pair_profile(rho, tau)
        assert prof.h_f == pytest.approx(1 - a, abs=1e-12)
        assert prof.h_g == pytest.approx(1 - b, abs=1e-12)
        assert prof.h_joint == pytest.approx(1 - a * b, abs=1e-12)
        assert prof.h_f_given_g == pytest.approx((1 - a) * b, abs=1e-12)
        assert prof.h_g_given_f == pytest.approx(a * (1 - b), abs=1e-12)
        assert prof.mutual == pytest.approx((1 - a) * (1 - b), abs=1e-12)


def test_density_pair_matches_spectral_bruteforce():
    rng = np.random.default_rng(43)
    for _ in range(10):
        n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        rho = helpers.random_density(rng, n)
        tau = helpers.random_density(rng, m)
        lam = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
        mu = np.clip(np.linalg.eigvalsh(tau), 0.0, None)
        brute = spectral_pair_bruteforce(lam, mu)
        prof = density_pair_profile(rho, tau)
        for name in ("h_f", "h_g", "h_joint", "h_f_given_g", "h_g_given_f", "mutual"):
            assert getattr(prof, name) == pytest.approx(getattr(brute, name), abs=1e-12)


# --------------------------------------------------- cross entropy, metric

def test_cross_entropy_diagonal_and_symmetry():
    rng = np.random.default_rng(47)
    rho = helpers.random_density(rng, 4)
    tau = helpers.random_density(rng, 4)
    assert quantum_cross_entropy(rho, rho) == pytest.approx(
        1 - float(np.trace(rho @ rho).real), abs=1e-12
    )
    assert quantum_cross_entropy(rho, tau) == pytest.approx(
        quantum_cross_entropy(tau, rho), abs=1e-12
    )


def test_cross_entropy_unitary_invariance():
    rng = np.random.default_rng(53)
    rho = helpers.random_density(rng, 3)
    tau = helpers.random_density(rng, 3)
    u = helpers.random_unitary(rng, 3)
    before = quantum_cross_entropy(rho, tau)
    after = quantum_cross_entropy(u @ rho @ u.conj().T, u @ tau @ u.conj().T)
    assert after == pytest.approx(before, abs=1e-12)


def test_cross_entropy_diagonal_matches_distribution_form():
    p = ProbDist((F(1, 2), F(1, 3), F(1, 6)))
    q = ProbDist((F(1, 4), F(1, 4), F(1, 2)))
    rho = np.diag([float(v) for v in p.weights])
    tau = np.diag([float(v) for v in q.weights])
    assert quantum_cross_entropy(rho, tau) == pytest.approx(
        float(dist_cross_entropy(p, q)), abs=1e-12
    )
    assert quantum_cross_entropy(rho, rho) == pytest.approx(float(dist_entropy(p)), abs=1e-12)


def test_quantum_hamming_properties():
    rng = np.random.default_rng(59)
    rho = helpers.random_density(rng, 4)
    tau = helpers.random_density(rng, 4)
    d = quantum_hamming(rho, tau)
    assert d == pytest.approx(hilbert_schmidt_distance(rho, tau), abs=1e-12)
    assert quantum_hamming(rho, rho) == 0.0
    assert d > 1e-12  # independently drawn matrices differ
    assert quantum_hamming(rho, tau) == pytest.approx(quantum_hamming(tau, rho), abs=1e-12)


def test_quantum_hamming_pure_states():
    # orthogonal pure states sit at the metric's maximum, distance two
    psi = np.array([1.0, 0.0])
    phi = np.array([0.0, 1.0])
    d = quantum_hamming(state_density(psi), state_density(phi))
    assert d == pytest.approx(2.0, abs=1e-12)


def test_quantum_hamming_shape_check():
    with pytest.raises(DimensionMismatch):
        quantum_hamming(np.eye(2) / 2, np.eye(3) / 3)


@pytest.mark.filterwarnings("error")
def test_exact_eigenvalue_beyond_float_range_has_no_float_matrix():
    big = Observable((10 ** 400, 1))
    with pytest.raises(InvalidObservable):
        big.matrix()
    other = Observable((0, 1), np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    for F, G in ((big, other), (other, big)):
        with pytest.raises(InvalidObservable):
            commuting_profile(F, G, np.array([1.0, 0.0]))
