"""Density matrices for classical partitions and quantum states.

The density matrix of an event ``S`` under a distribution ``p`` has entries
``sqrt(p_j p_k) / Pr(S)`` on ``S x S``; the density matrix of a partition
is the probability mixture of its block densities, which works out to
entries ``sqrt(p_j p_k)`` exactly on the same-block (indit) pairs.  The
logical entropy of any density matrix is ``1 - tr[rho^2]``, and since
``tr[rho^2]`` is the sum of all squared entry magnitudes, the entropy a
projective (Lüders) measurement creates equals the summed squared magnitude
of the off-diagonal entries it zeroes.  That bookkeeping identity is the
backbone of the quantum module and of the acceptance tests.

Numerical work uses numpy (complex128).  For partition densities with
rational weights there is an exact side channel: squared entries are the
rational numbers ``p_j p_k``, so purities, entropies and decoherence sums
are computed as exact fractions by :class:`ClassicalDensity` without ever
materializing the irrational square roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .classical import Number, ProbDist, _bits, block_probabilities
from .errors import (
    DimensionMismatch,
    InvalidDensityMatrix,
    InvalidProjectorSet,
    InvalidStateVector,
    NotHermitian,
    NotPSD,
    TraceNotOne,
    ZeroProbabilityEvent,
)
from .partitions import Partition, join

#: Tolerance for Hermiticity, trace, positivity and projector checks.
DENSITY_TOL = 1e-10


def _as_square_matrix(mat) -> np.ndarray:
    m = np.asarray(mat)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m.astype(np.complex128, copy=False)


def validate_density(mat, tol: float = DENSITY_TOL) -> np.ndarray:
    """Check finite entries, Hermiticity, unit trace and positive semidefiniteness.

    Returns the matrix as complex128 on success; raises
    :class:`InvalidDensityMatrix` for a non-finite entry, else
    :class:`NotHermitian`, :class:`TraceNotOne` or :class:`NotPSD`.
    """
    m = _as_square_matrix(mat)
    herm_gap = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    # A NaN or infinite entry leaves a NaN or an infinity in rho - rho^dagger.
    if not math.isfinite(herm_gap):
        raise InvalidDensityMatrix("matrix has a non-finite entry")
    if herm_gap > tol:
        raise NotHermitian(f"max |rho - rho^dagger| = {herm_gap:.3e} exceeds {tol}")
    tr = complex(np.trace(m))
    if abs(tr - 1) > tol:
        raise TraceNotOne(f"trace is {tr}, expected 1 within {tol}")
    evals = np.linalg.eigvalsh((m + m.conj().T) / 2)
    if float(evals.min()) < -tol:
        raise NotPSD(f"minimum eigenvalue {float(evals.min()):.3e} is below -{tol}")
    return m


def validate_state(vec, tol: float = DENSITY_TOL) -> np.ndarray:
    """Check that a vector is finite and normalized; returns it as complex128."""
    v = np.asarray(vec).astype(np.complex128, copy=False).reshape(-1)
    norm_sq = float(np.sum(np.abs(v) ** 2))
    if not abs(norm_sq - 1) <= tol:  # a NaN amplitude makes the norm NaN
        raise InvalidStateVector(f"squared norm is {norm_sq!r}, expected 1 within {tol}")
    return v


def state_density(psi) -> np.ndarray:
    """The pure-state density matrix ``|psi><psi|``."""
    v = validate_state(psi)
    return np.outer(v, v.conj())


def rho_event(indices: Sequence[int], p: ProbDist) -> np.ndarray:
    """Density matrix of an event: entries ``sqrt(p_j p_k)/Pr(S)`` on S x S.

    A rank-one projector onto the unit vector with amplitudes
    ``sqrt(p_j/Pr(S))`` on the event.  Raises :class:`ZeroProbabilityEvent`
    when the event carries no probability.
    """
    idx = sorted(set(indices))
    pr = p.prob(idx)
    if pr == 0:
        raise ZeroProbabilityEvent("cannot condition on an event of probability zero")
    n = p.size
    amps = np.zeros(n)
    for j in idx:
        amps[j] = math.sqrt(float(p.weights[j]) / float(pr))
    return np.outer(amps, amps)


def rho_partition(pi: Partition, p: ProbDist) -> np.ndarray:
    """Mixture of block densities: entries ``sqrt(p_j p_k)`` on same-block pairs.

    Blocks of probability zero are retained in the partition but contribute
    nothing; the nonzero entry pattern (for strictly positive weights) is
    exactly the indit relation of the partition.
    """
    if pi.universe.size != p.size:
        raise DimensionMismatch(
            f"partition on size {pi.universe.size}, distribution on {p.size}"
        )
    n = p.size
    root = [math.sqrt(float(w)) for w in p.weights]
    m = np.zeros((n, n))
    for block in pi.blocks:
        for j in block:
            for k in block:
                m[j, k] = root[j] * root[k]
    return m


def _trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """``Re tr[a b]``."""
    return float(np.real(np.trace(a @ b)))


def _entropy(m: np.ndarray, tol: float = DENSITY_TOL) -> float:
    """``1 - tr[m^2]`` of a matrix known to be a density matrix; 0.0 when pure within ``tol``."""
    val = 1.0 - _trace_product(m, m)
    return 0.0 if abs(val) <= tol else val


def purity(rho, tol: float = DENSITY_TOL) -> float:
    """``tr[rho^2]``, equal to the sum of squared entry magnitudes."""
    m = validate_density(rho, tol)
    return _trace_product(m, m)


def dm_logical_entropy(rho, tol: float = DENSITY_TOL) -> float:
    """Logical entropy ``1 - tr[rho^2]`` of a density matrix.

    Reported as exactly 0.0 when the matrix is pure within tolerance
    (``tr[rho^2]`` within ``tol`` of one), so pure states have entropy zero
    rather than a stray rounding residue.
    """
    return _entropy(validate_density(rho, tol), tol)


def validate_projectors(projs, tol: float = DENSITY_TOL) -> list:
    """Check a complete set of mutually orthogonal Hermitian projectors."""
    if not projs:
        raise InvalidProjectorSet("empty projector set")
    mats = [_as_square_matrix(P) for P in projs]
    dim = mats[0].shape[0]
    for i, P in enumerate(mats):
        if P.shape[0] != dim:
            raise DimensionMismatch("projectors have mixed dimensions")
        if float(np.max(np.abs(P - P.conj().T))) > tol:
            raise InvalidProjectorSet(f"projector {i} is not Hermitian within {tol}")
        if float(np.max(np.abs(P @ P - P))) > tol:
            raise InvalidProjectorSet(f"projector {i} is not idempotent within {tol}")
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if float(np.max(np.abs(mats[i] @ mats[j]))) > tol:
                raise InvalidProjectorSet(f"projectors {i} and {j} are not orthogonal within {tol}")
    total = sum(mats)
    if float(np.max(np.abs(total - np.eye(dim)))) > tol:
        raise InvalidProjectorSet(f"projectors do not sum to the identity within {tol}")
    return mats


def projectors_from_partition(pi: Partition) -> list:
    """Computational-basis projectors onto the blocks of a partition."""
    n = pi.universe.size
    out = []
    for block in pi.blocks:
        P = np.zeros((n, n))
        for j in block:
            P[j, j] = 1.0
        out.append(P)
    return out


def projectors_from_eigenbasis(basis, pi: Partition) -> list:
    """Projectors onto the spans of basis-column groups given by a partition."""
    b = _as_square_matrix(basis)
    if b.shape[0] != pi.universe.size:
        raise DimensionMismatch(
            f"basis dimension {b.shape[0]} does not match partition size {pi.universe.size}"
        )
    out = []
    for block in pi.blocks:
        cols = b[:, list(block)]
        out.append(cols @ cols.conj().T)
    return out


def luders(rho, projs, tol: float = DENSITY_TOL) -> np.ndarray:
    """Projective measurement without selection: ``sum_i P_i rho P_i``.

    Validates the inputs, then re-symmetrizes the result to scrub rounding
    asymmetry.  The output is again a density matrix; in the basis where
    the projectors are diagonal blocks it keeps the within-block entries of
    ``rho`` and zeroes the rest.
    """
    m = validate_density(rho, tol)
    mats = validate_projectors(projs, tol)
    if mats[0].shape[0] != m.shape[0]:
        raise DimensionMismatch(
            f"density is {m.shape[0]}-dimensional, projectors are {mats[0].shape[0]}-dimensional"
        )
    out = sum(P @ m @ P for P in mats)
    return (out + out.conj().T) / 2


def decohered_sumsq(before, after) -> float:
    """Summed squared magnitude lost from the entries: ``sum |b_jk|^2 - sum |a_jk|^2``.

    When ``after`` is a Lüders application to ``before`` this is exactly the
    summed squared magnitude of the off-diagonal entries the measurement
    zeroed (in the measurement basis), and it equals the logical-entropy
    increase.  Computed entrywise, independently of any trace.
    """
    b = _as_square_matrix(before)
    a = _as_square_matrix(after)
    if b.shape != a.shape:
        raise DimensionMismatch(f"shapes {b.shape} and {a.shape} differ")
    return float(np.sum(np.abs(b) ** 2) - np.sum(np.abs(a) ** 2))


def von_neumann(rho, tol: float = DENSITY_TOL) -> float:
    """Von Neumann entropy ``-sum lambda log2 lambda`` in bits.

    Eigenvalues within tolerance of the boundary are clamped into [0, 1];
    zero eigenvalues contribute zero.
    """
    m = validate_density(rho, tol)
    evals = np.linalg.eigvalsh((m + m.conj().T) / 2)
    return _bits(np.clip(evals, 0.0, 1.0))


# ------------------------------------------------------- exact side channel

@dataclass(frozen=True)
class ClassicalDensity:
    """A partition density matrix with exact-rational accounting.

    Squared entry magnitudes of ``rho(pi)`` are the rational numbers
    ``p_j p_k`` on same-block pairs, so purity, logical entropy and
    decoherence sums are exact Fractions whenever the weights are; the
    float matrix itself is available through :meth:`matrix`.
    """

    partition: Partition
    dist: ProbDist

    def __post_init__(self):
        if self.partition.universe.size != self.dist.size:
            raise DimensionMismatch(
                f"partition on size {self.partition.universe.size}, "
                f"distribution on {self.dist.size}"
            )

    def matrix(self) -> np.ndarray:
        return rho_partition(self.partition, self.dist)

    def purity(self) -> Number:
        """``tr[rho^2] = sum_B Pr(B)^2``, exact for rational weights."""
        return sum(q * q for q in block_probabilities(self.partition, self.dist))

    def logical_entropy(self) -> Number:
        return 1 - self.purity()

    def entry_squared(self, j: int, k: int) -> Number:
        """Exact squared magnitude of entry (j, k)."""
        if self.partition.same_block(j, k):
            return self.dist.weights[j] * self.dist.weights[k]
        return 0

    def luders_with(self, other: Partition) -> "ClassicalDensity":
        """Measure by the block projectors of ``other`` (computational basis).

        Zeroes every entry on a pair distinguished by ``other``, so the
        result is the density of the join of the two partitions.
        """
        return ClassicalDensity(join(self.partition, other), self.dist)


def classical_decohered_sumsq(before: ClassicalDensity, after: ClassicalDensity) -> Number:
    """Exact version of :func:`decohered_sumsq` for partition densities."""
    if before.dist != after.dist:
        raise DimensionMismatch("decoherence accounting needs a common distribution")
    return before.purity() - after.purity()
