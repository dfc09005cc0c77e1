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

Validation certifies positivity by one Cholesky factor; the private
:class:`_Density` computes a spectrum only when one is read.  Passed in place of
a matrix, that carrier is reused, so a report validates and decomposes each input once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .classical import Number, ProbDist, _bits, _purity, block_probabilities
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
from .partitions import Partition, _same_block, join

#: Tolerance for Hermiticity, trace, positivity and projector checks.
DENSITY_TOL = 1e-10


def _as_square_matrix(mat) -> np.ndarray:
    m = np.asarray(mat)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m.astype(np.complex128, copy=False)


@dataclass(frozen=True, eq=False)
class _Density:
    """A checked matrix ``m``, and its ``evals`` and ``eigh`` on first use."""

    m: np.ndarray

    @cached_property
    def evals(self) -> np.ndarray:
        return np.linalg.eigvalsh((self.m + self.m.conj().T) / 2)

    @cached_property
    def eigh(self) -> tuple:
        return np.linalg.eigh((self.m + self.m.conj().T) / 2)


def _validated(mat) -> _Density:
    """The checks of :func:`validate_density`, keeping the spectrum; a carrier passes through."""
    if isinstance(mat, _Density):
        return mat
    m = _as_square_matrix(mat)
    # Non-finite or huge entries overflow to inf or NaN below, and each check
    # rejects those; numpy's warnings about them would only be noise.
    with np.errstate(over="ignore", invalid="ignore"):
        # A NaN or infinite entry leaves a NaN or an infinity in rho - rho^dagger;
        # so do huge finite entries, which fail as NotHermitian below.
        herm_gap = float(np.abs(m - m.conj().T).max()) if m.size else 0.0
        if not math.isfinite(herm_gap) and not np.isfinite(m).all():
            raise InvalidDensityMatrix("matrix has a non-finite entry")
        if herm_gap > DENSITY_TOL:
            raise NotHermitian(f"max |rho - rho^dagger| = {herm_gap:.3e} exceeds {DENSITY_TOL}")
        tr = complex(m.trace())
        if abs(tr - 1) > DENSITY_TOL:
            raise TraceNotOne(f"trace is {tr}, expected 1 within {DENSITY_TOL}")
        # h = 2H + tol I, H = (m + m^dagger)/2, has a Cholesky factor iff lambda_min(H) > -tol/2.
        # A trace-one H the spectral test accepts has ||H||_2 <= 1 + n tol, so the factor's backward
        # error, about n eps ||h||, is far below tol/2: the spectrum never rejects a certified H.
        # Without a finite factor (an overflowed input can give inf or NaN), the spectrum decides.
        h = m + m.conj().T
        h.flat[::len(h) + 1] += DENSITY_TOL
        try:
            certified = bool(np.isfinite(np.linalg.cholesky(h).diagonal()).all())
        except np.linalg.LinAlgError:
            certified = False
        d = _Density(m)
        low = 0.0 if certified else float(d.evals.min())
    if not low >= -DENSITY_TOL:  # NaN when a huge entry overflowed
        raise NotPSD(f"minimum eigenvalue {low:.3e} is below -{DENSITY_TOL}")
    return d


def validate_density(mat) -> np.ndarray:
    """Check finite entries, Hermiticity, unit trace and positive semidefiniteness.

    Each test allows ``DENSITY_TOL``.  Returns the matrix as complex128 on
    success; raises :class:`InvalidDensityMatrix` for a non-finite entry,
    else :class:`NotHermitian`, :class:`TraceNotOne` or :class:`NotPSD`.
    """
    return _validated(mat).m


def _pair(rho, tau) -> tuple:
    """Two validated densities that share a shape."""
    r, t = _validated(rho), _validated(tau)
    if r.m.shape != t.m.shape:
        raise DimensionMismatch(f"shapes {r.m.shape} and {t.m.shape} differ")
    return r, t


def validate_state(vec) -> np.ndarray:
    """Check that a vector is finite with unit norm within ``DENSITY_TOL``; returns complex128."""
    v = np.asarray(vec).astype(np.complex128, copy=False).reshape(-1)
    with np.errstate(over="ignore"):  # a huge amplitude makes the norm inf, rejected below
        norm_sq = float(np.sum(np.abs(v) ** 2))
    if not abs(norm_sq - 1) <= DENSITY_TOL:  # a NaN amplitude makes the norm NaN
        raise InvalidStateVector(f"squared norm is {norm_sq!r}, expected 1 within {DENSITY_TOL}")
    return v


def state_density(psi) -> np.ndarray:
    """The pure-state density matrix ``|psi><psi|``."""
    v = validate_state(psi)
    return np.outer(v, v.conj())


def rho_event(indices: Sequence[int], p: ProbDist) -> np.ndarray:
    """Density matrix of an event: entries ``sqrt(p_j p_k)/Pr(S)`` on S x S.

    A rank-one projector onto the unit vector with amplitudes
    ``sqrt(p_j/Pr(S))`` on the event.  Raises :class:`IndexOutOfRange` for
    an index that is not an integer in ``range(p.size)`` (a bool is not one)
    and :class:`ZeroProbabilityEvent` when the event carries no probability.
    """
    indices = list(indices)
    pr = p.prob(indices)
    if pr == 0:
        raise ZeroProbabilityEvent("cannot condition on an event of probability zero")
    idx = sorted(set(indices))
    amps = np.zeros(p.size)
    amps[idx] = np.sqrt([float(p.weights[j]) / float(pr) for j in idx])
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
    root = np.sqrt([float(w) for w in p.weights])
    return np.where(_same_block(pi), np.outer(root, root), 0.0)


def _trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """``Re tr[a b]`` as the sum of ``a[j, k] b[k, j]``: n^2 work, where ``a @ b`` is n^3."""
    return float((a * b.T).sum().real)


def _entropy(m: np.ndarray) -> float:
    """``1 - tr[m^2]`` of a known density matrix; 0.0 when pure within ``DENSITY_TOL``."""
    val = 1.0 - _trace_product(m, m)
    return 0.0 if abs(val) <= DENSITY_TOL else val


def purity(rho) -> float:
    """``tr[rho^2]``, equal to the sum of squared entry magnitudes."""
    m = _validated(rho).m
    return _trace_product(m, m)


def dm_logical_entropy(rho) -> float:
    """Logical entropy ``1 - tr[rho^2]`` of a density matrix.

    Reported as exactly 0.0 when the matrix is pure within tolerance
    (``tr[rho^2]`` within ``DENSITY_TOL`` of one), so pure states have
    entropy zero rather than a stray rounding residue.
    """
    return _entropy(_validated(rho).m)


def validate_projectors(projs) -> list:
    """Check a complete set of mutually orthogonal Hermitian projectors within ``DENSITY_TOL``.

    Each gap must be ``<= DENSITY_TOL``, so a NaN gap fails too.
    """
    if len(projs) == 0:  # not ``not projs``: a stacked (k, n, n) array has no truth value
        raise InvalidProjectorSet("empty projector set")
    mats = [_as_square_matrix(P) for P in projs]
    dim = mats[0].shape[0]
    if any(P.shape[0] != dim for P in mats):
        raise DimensionMismatch("projectors have mixed dimensions")
    if dim == 0:
        raise InvalidProjectorSet("projectors are 0 x 0")
    # Overflow and NaN fail the gap tests silently; the sum comes first, so inf or NaN fails there.
    with np.errstate(over="ignore", invalid="ignore"):
        if not float(np.abs(sum(mats) - np.eye(dim)).max()) <= DENSITY_TOL:
            raise InvalidProjectorSet(
                f"projectors do not sum to the identity within {DENSITY_TOL}, or are not finite")
        for i, P in enumerate(mats):
            if not float(np.abs(P - P.conj().T).max()) <= DENSITY_TOL:
                raise InvalidProjectorSet(f"projector {i} is not Hermitian within {DENSITY_TOL}")
            if not float(np.abs(P @ P - P).max()) <= DENSITY_TOL:
                raise InvalidProjectorSet(f"projector {i} is not idempotent within {DENSITY_TOL}")
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                if not float(np.abs(mats[i] @ mats[j]).max()) <= DENSITY_TOL:
                    raise InvalidProjectorSet(
                        f"projectors {i} and {j} are not orthogonal within {DENSITY_TOL}")
    return mats


def projectors_from_partition(pi: Partition) -> list:
    """Computational-basis projectors onto the blocks of a partition, as complex128."""
    return projectors_from_eigenbasis(np.eye(pi.universe.size), pi)


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


def luders(rho, projs) -> np.ndarray:
    """Projective measurement without selection: ``sum_i P_i rho P_i``.

    Validates the inputs, then re-symmetrizes the result to scrub rounding
    asymmetry.  The output is again a density matrix; in the basis where
    the projectors are diagonal blocks it keeps the within-block entries of
    ``rho`` and zeroes the rest.
    """
    m = validate_density(rho)
    mats = validate_projectors(projs)
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


def von_neumann(rho) -> float:
    """Von Neumann entropy ``-sum lambda log2 lambda`` in bits.

    Eigenvalues are clamped into [0, 1]; zero eigenvalues contribute zero.
    """
    return _bits(np.clip(_validated(rho).evals, 0.0, 1.0))


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
        return _purity(block_probabilities(self.partition, self.dist))

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
