"""Quantum logical entropy of observables, states and density pairs.

An observable distinguishes a pair of its eigenbasis vectors when their
eigenvalues differ.  For a state ``psi`` the quantum logical entropy
``h(F : psi)`` is the product-measure weight of those distinguished pairs
under the eigenbasis outcome probabilities ``p_j = |<u_j|psi>|^2``; it is
simultaneously

* a diagonal-projector trace ``tr[P (rho x rho)]`` over the doubled space,
* the classical logical entropy of the eigenvalue partition under ``p``,
* the post-measurement mixed-state entropy ``1 - tr[rho'^2]``,

and :func:`h_observable_state` computes all three routes and insists they
agree; the pair route is the classical region oracle on ``p``.
Measurement follows the fundamental theorem: measuring ``F`` decoheres
exactly its qudits, the eigenvector pairs with different eigenvalues.  So
:func:`measure` sums the class projections, ``rho' = sum_c (P_c psi)
(P_c psi)^dagger`` with ``P_c psi`` the sum of ``a_j u_j`` over the
eigenvectors of class ``c``, ``a = U^dagger psi``.  :class:`_Measured` holds the
state, ``a``, the partition and ``rho'``; passed in place of ``psi`` it is
reused, so a report builds them once, while the three ``h(F : psi)`` routes
and the two sides of :func:`quantum_fundamental_check` still run apart.

The two-observable quantities (commuting and not), the spectral
pair profile for two density matrices, the cross entropy ``1 - tr[rho tau]``
and the Hamming distance (which coincides with the squared Hilbert-Schmidt
norm of the difference) follow the same pattern: a combinatorial index-set
reduction implemented directly, with dense-matrix oracles kept alongside
for validation.  The density-pair functions also take ``density._Density``
carriers, validated once; ``tr[rho tau]`` and its expansion still run apart.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from . import classical, density
from .classical import JointDist, ProbDist
from .errors import BoundExceeded, DimensionMismatch, InvalidObservable, NotCommuting, _agree, _lazy
from .partitions import PairSet, Partition, Universe, _grouped, ditset

#: Tolerance used when grouping float eigenvalues into classes.
EIGENVALUE_GROUP_TOL = 1e-9

#: Agreement tolerance for the independent computation routes.
ROUTE_TOL = 1e-10

#: Commutator max-norm below which joint diagonalization is attempted.
COMMUTATION_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Observable:
    """A Hermitian observable given by eigenvalues and an eigenbasis.

    ``eigenvalues[j]`` belongs to basis column ``j``.  ``eigenbasis=None``
    means the computational basis.  Eigenvalues may repeat (degeneracy);
    equal values form one eigenvalue class.
    """

    eigenvalues: tuple
    eigenbasis: Optional[np.ndarray] = None

    def __post_init__(self):
        vals = [v.real if isinstance(v, complex) and v.imag == 0 else v for v in self.eigenvalues]
        classical._check_real(vals, InvalidObservable, "eigenvalue")
        for i, v in enumerate(vals):
            if not classical._all_exact((v,)):
                v = vals[i] = float(v)
                if not math.isfinite(v):
                    raise InvalidObservable(f"eigenvalue {v!r} is not finite")
        object.__setattr__(self, "eigenvalues", tuple(vals))
        if not vals:
            raise InvalidObservable("an observable needs at least one eigenvalue")
        # With a float among them, the eigenvalues are grouped as floats.
        if not classical._all_exact(vals) and max(map(abs, vals)) > sys.float_info.max:
            raise InvalidObservable("an exact eigenvalue beyond the float range beside float ones")
        if self.eigenbasis is not None:
            b = np.asarray(self.eigenbasis).astype(np.complex128, copy=True)
            if b.ndim != 2 or b.shape[0] != b.shape[1]:
                raise InvalidObservable(f"eigenbasis must be square, got shape {b.shape}")
            if b.shape[0] != len(vals):
                raise DimensionMismatch(
                    f"{len(vals)} eigenvalues but a {b.shape[0]}-dimensional basis"
                )
            if not np.all(np.isfinite(b)):
                raise InvalidObservable("eigenbasis has a non-finite entry")
            with np.errstate(over="ignore", invalid="ignore"):  # huge entries: rejected below
                gap = float(np.max(np.abs(b.conj().T @ b - np.eye(b.shape[0]))))
            if not gap <= ROUTE_TOL:
                raise InvalidObservable(
                    f"eigenbasis columns are not orthonormal: max deviation {gap:.3e}"
                )
            b.flags.writeable = False
            object.__setattr__(self, "eigenbasis", b)

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    @classmethod
    def from_matrix(cls, mat) -> "Observable":
        """Eigendecompose a matrix that is Hermitian within ``ROUTE_TOL`` into an Observable."""
        m = np.asarray(mat).astype(np.complex128, copy=False)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
            raise InvalidObservable(f"expected a nonempty square matrix, got shape {m.shape}")
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite entry leaves a NaN gap
            gap = float(np.max(np.abs(m - m.conj().T)))
        if not gap <= ROUTE_TOL:
            raise InvalidObservable("matrix is not finite and Hermitian within tolerance")
        vals, vecs = np.linalg.eigh(m)
        return cls(tuple(float(v) for v in vals), vecs)

    def basis_matrix(self) -> np.ndarray:
        if self.eigenbasis is None:
            return np.eye(self.dim, dtype=np.complex128)
        return self.eigenbasis

    def matrix(self) -> np.ndarray:
        """Reconstruct ``sum_j value_j |u_j><u_j|``."""
        if max(map(abs, self.eigenvalues)) > sys.float_info.max:
            raise InvalidObservable("an eigenvalue beyond the float range has no float matrix")
        u = self.basis_matrix()
        d = np.array([float(v) for v in self.eigenvalues])
        return (u * d) @ u.conj().T

    def eigenvalue_partition(self) -> Partition:
        """Partition of basis indices by equal eigenvalue.

        Exact equality when every eigenvalue is an int or Fraction;
        otherwise values within ``EIGENVALUE_GROUP_TOL`` of each other
        (transitively) share a class.  Grouped on the first call only.
        """
        return self._classes

    @_lazy
    def _classes(self) -> Partition:
        labels = self.eigenvalues
        if not classical._all_exact(labels):
            # Along the sorted values, each gap above the tolerance starts a new class.
            vals = [float(v) for v in labels]
            order = sorted(range(self.dim), key=vals.__getitem__)
            labels = [0] * self.dim
            for prev, cur in zip(order, order[1:]):
                labels[cur] = labels[prev] + (vals[cur] - vals[prev] > EIGENVALUE_GROUP_TOL)
        return _grouped(Universe(self.dim), labels)

    def class_values(self) -> list:
        """Representative eigenvalue of each class, in canonical block order."""
        return [self.eigenvalues[block[0]] for block in self.eigenvalue_partition().blocks]


def eigenvalue_partition(F: Observable) -> Partition:
    return F.eigenvalue_partition()


def qudit_pairs(F: Observable) -> PairSet:
    """Eigenbasis index pairs the observable distinguishes (eigenvalues differ)."""
    return ditset(F.eigenvalue_partition())


def _state(psi, dim: int) -> np.ndarray:
    """The validated unit vector of dimension ``dim``."""
    v = density.validate_state(psi)
    if v.shape[0] != dim:
        raise DimensionMismatch(f"state dimension {v.shape[0]}, expected {dim}")
    return v / np.linalg.norm(v)


def state_probabilities(F: Observable, psi) -> np.ndarray:
    """Outcome weights ``p_j = |<u_j|psi>|^2`` in the observable's eigenbasis."""
    v = _state(psi, F.dim)
    return np.abs(F.basis_matrix().conj().T @ v) ** 2


@dataclass(frozen=True)
class ObservableStateEntropy:
    """``h(F : psi)`` with the three independent computation routes."""

    value: float
    via_qudit_pairs: float
    via_partition: float
    via_measurement: float

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class _Measured:
    """``F`` measured on the unit state ``v``: its amplitudes, the partition and ``rho'``."""

    v: np.ndarray
    amp: np.ndarray
    part: Partition
    rho_prime: np.ndarray


def _measured(F: Observable, psi) -> _Measured:
    """The measurement carrier of ``psi``; a carrier passes through unchanged."""
    if isinstance(psi, _Measured):
        return psi
    v = _state(psi, F.dim)
    u = F.basis_matrix()
    amp = u.conj().T @ v
    part = F.eigenvalue_partition()
    # Column c is P_c psi, the sum of amp[j] u[:, j] over class c, in the original basis.
    phi = (u * amp) @ (np.array(part._block_of)[:, None] == np.arange(part.n_blocks))
    out = phi @ phi.conj().T
    return _Measured(v, amp, part, (out + out.conj().T) / 2)


def h_observable_state(F: Observable, psi) -> ObservableStateEntropy:
    """Quantum logical entropy of measuring ``F`` on ``psi``.

    Computed three ways: the double sum of ``p_j p_k`` over distinguished
    index pairs (the classical region oracle), the classical logical
    entropy of the eigenvalue partition under ``p``, and the
    post-measurement entropy ``1 - tr[rho'^2]``.  Raises
    :class:`InternalInconsistency` if any two routes disagree beyond
    ``ROUTE_TOL``.
    """
    m = _measured(F, psi)
    p = np.abs(m.amp) ** 2
    # With one block on the second side, t[1][0] sums p_j p_k over the qudits.
    via_pairs = float(classical._region_table(p, m.part._block_of, [0] * F.dim)[1][0])
    via_partition = float(classical.logical_entropy(m.part, ProbDist(tuple((p / p.sum()).tolist()))))
    via_measurement = density._entropy(m.rho_prime)
    routes = (via_pairs, via_partition, via_measurement)
    _agree("h(F:psi) routes pairs|partition|measurement and partition|measurement|pairs",
           routes, routes[1:] + routes[:1], False, ROUTE_TOL)
    return ObservableStateEntropy(via_pairs, via_pairs, via_partition, via_measurement)


def measure(F: Observable, psi) -> np.ndarray:
    """Lüders mixture of ``|psi><psi|`` over the eigenspace projectors of ``F``.

    Computed from the class projections as ``sum_c (P_c psi)(P_c psi)^dagger``:
    in the eigenbasis, the entries of ``|psi><psi|`` on pairs of
    eigenvectors with different eigenvalues are zeroed, the rest kept.
    """
    return _measured(F, psi).rho_prime


@dataclass(frozen=True)
class FundamentalCheck:
    """Entropy increase of a measurement next to its decoherence sum."""

    entropy_increase: float
    decohered_sumsq: float

    @property
    def residual(self) -> float:
        return abs(self.entropy_increase - self.decohered_sumsq)


def quantum_fundamental_check(F: Observable, psi) -> FundamentalCheck:
    """Entropy created by measuring ``psi`` with ``F`` vs the squared entries zeroed.

    The two numbers are computed independently (trace of the square vs
    entrywise sums) and coincide up to rounding.
    """
    m = _measured(F, psi)
    rho_before = np.outer(m.v, m.v.conj())
    increase = density._entropy(m.rho_prime) - density._entropy(rho_before)
    lost = density.decohered_sumsq(rho_before, m.rho_prime)
    return FundamentalCheck(entropy_increase=increase, decohered_sumsq=lost)


# ------------------------------------------------------------ two observables

@dataclass(frozen=True)
class QuantumProfile:
    """Joint/conditional/mutual quantum logical entropies for two observables."""

    h_f: float
    h_g: float
    h_joint: float
    h_f_given_g: float
    h_g_given_f: float
    mutual: float


def _profile_from_classical(prof: classical.EntropyProfile) -> QuantumProfile:
    return QuantumProfile(*(float(getattr(prof, f.name)) for f in fields(prof)))


def _dim(F: Observable, G: Observable) -> int:
    if F.dim != G.dim:
        raise DimensionMismatch(f"observable dimensions {F.dim} and {G.dim} differ")
    return F.dim


def _joint_eigenbasis(F: Observable, G: Observable):
    """Shared basis and per-column eigenvalue lists for commuting observables.

    Prefers an explicitly shared eigenbasis.  Otherwise checks the
    commutator and rotates within each eigenspace of ``F`` to diagonalize
    ``G`` there; raises :class:`NotCommuting` when that cannot work.
    """
    _dim(F, G)
    uf, ug = F.basis_matrix(), G.basis_matrix()
    if np.allclose(uf, ug, atol=classical.FLOAT_TOL, rtol=0.0):
        return uf, list(F.eigenvalues), list(G.eigenvalues)

    fm, gm = F.matrix(), G.matrix()
    with np.errstate(over="ignore", invalid="ignore"):  # huge eigenvalues leave a NaN: refused
        comm = float(np.max(np.abs(fm @ gm - gm @ fm)))
    if not comm <= COMMUTATION_TOL:
        raise NotCommuting(
            f"max |FG - GF| = {comm:.3e} exceeds {COMMUTATION_TOL}; "
            "supply a shared eigenbasis or commuting observables"
        )
    part = F.eigenvalue_partition()
    cols = []
    f_vals: list = []
    g_vals: list = []
    for block in part.blocks:
        ub = uf[:, list(block)]
        sub = ub.conj().T @ gm @ ub
        sub = (sub + sub.conj().T) / 2
        vals, rot = np.linalg.eigh(sub)
        cols.append(ub @ rot)
        f_vals.extend([F.eigenvalues[block[0]]] * len(block))
        g_vals.extend(float(v) for v in vals)
    basis = np.hstack(cols)
    gap = float(np.max(np.abs(basis.conj().T @ gm @ basis - np.diag(g_vals))))
    if not gap <= math.sqrt(COMMUTATION_TOL):
        raise NotCommuting(
            f"joint diagonalization failed: residual off-diagonal {gap:.3e}"
        )
    return basis, f_vals, g_vals


def commuting_profile(F: Observable, G: Observable, psi) -> QuantumProfile:
    """Compound entropies for two commuting observables measured on one state.

    On the shared eigenbasis the joint measurement is classical: the
    profile is exactly the classical one of the two eigenvalue partitions
    under the shared outcome distribution.
    """
    basis, f_vals, g_vals = _joint_eigenbasis(F, G)
    v = _state(psi, F.dim)
    p = np.abs(basis.conj().T @ v) ** 2
    pi_f = Observable(tuple(f_vals)).eigenvalue_partition()
    pi_g = Observable(tuple(g_vals)).eigenvalue_partition()
    dist = ProbDist(tuple(float(x) for x in p / p.sum()))
    return _profile_from_classical(classical.entropy_profile(pi_f, pi_g, dist))


def noncommuting_profile(
    F: Observable,
    G: Observable,
    psi2,
    method: str = "auto",
) -> QuantumProfile:
    """Compound entropies for two observables evaluated on a doubled state.

    ``psi2`` lives on the tensor square (dimension ``n^2``); the outcome
    weights are ``p(x, y) = |<x_i (x) y_j|psi2>|^2`` over the two
    eigenbases, and the six quantities are the two-set region sums of the
    eigenvalue partitions under that joint distribution.  No commutation is
    required.  ``method`` is forwarded to the two-set computation
    (``"regions"`` is the quadruple-sum oracle path).
    """
    n = _dim(F, G)
    v = _state(psi2, n * n)
    amp = F.basis_matrix().conj().T @ v.reshape(n, n) @ G.basis_matrix().conj()
    p = np.abs(amp) ** 2
    p = p / p.sum()
    joint = JointDist(tuple(map(tuple, p.tolist())))
    prof = classical.twoset_profile(F.eigenvalue_partition(), G.eigenvalue_partition(), joint, method)
    return _profile_from_classical(prof)


#: Names of the six distinction regions, in profile field order (as in
#: ``classical._REGION_CELLS``).
_REGIONS = ("f", "g", "joint", "f_only", "g_only", "mutual")


def qudit_region_tuples(F: Observable, G: Observable, region: str) -> list:
    """Index 4-tuples ``(i, j, i2, j2)`` of the requested distinction region.

    Indices run over the two eigenbases; ``(i, j, i2, j2)`` is in the
    ``"f"`` region when the eigenvalue classes of ``i`` and ``i2`` differ,
    in ``"g"`` when those of ``j`` and ``j2`` differ, and the remaining
    regions are the boolean combinations (``"mutual"`` = both differ).
    """
    if region not in _REGIONS:
        raise ValueError(f"unknown region {region!r}; expected one of {_REGIONS}")
    n = _dim(F, G)
    cells = classical._REGION_CELLS[_REGIONS.index(region)]
    fid = F.eigenvalue_partition()._block_of
    gid = G.eigenvalue_partition()._block_of
    return [
        (i, j, i2, j2)
        for i, j, i2, j2 in itertools.product(range(n), repeat=4)
        if (fid[i] != fid[i2], gid[j] != gid[j2]) in cells
    ]


def mutual_qudit_tuples(F: Observable, G: Observable) -> list:
    """The mutual-distinction index set; nonempty iff both observables split."""
    return qudit_region_tuples(F, G, "mutual")


def noncommuting_profile_dense(F: Observable, G: Observable, psi2) -> QuantumProfile:
    """Dense-projector oracle for :func:`noncommuting_profile`.

    Builds, for each region, the explicit projector onto the span of the
    product vectors ``(x_i (x) y_j) (x) (x_i2 (x) y_j2)`` on the doubled
    doubled space and evaluates ``tr[P (rho (x) rho)]`` with full matrices.
    Exponentially sized, so guarded to dimension <= 4 (matrices up to
    256 x 256); it exists to validate the combinatorial reduction.
    """
    n = _dim(F, G)
    if n > 4:
        raise BoundExceeded(f"dense oracle materializes {n ** 4}^2 entries; limit is dim 4")
    v = _state(psi2, n * n)
    rho = np.outer(v, v.conj())
    big = np.kron(rho, rho)
    x = F.basis_matrix()
    y = G.basis_matrix()
    prod = {}
    for i in range(n):
        for j in range(n):
            prod[(i, j)] = np.kron(x[:, i], y[:, j])

    def region_value(region: str) -> float:
        tuples = qudit_region_tuples(F, G, region)
        if not tuples:
            return 0.0
        w = np.column_stack([np.kron(prod[(i, j)], prod[(i2, j2)]) for i, j, i2, j2 in tuples])
        proj = w @ w.conj().T
        return float(np.real(np.trace(proj @ big)))

    return QuantumProfile(*(region_value(region) for region in _REGIONS))


def degeneracy_check(F: Observable, G: Observable) -> list:
    """Accidental eigenvalue-product coincidences between two observables.

    Returns the class-index pairs ``((i, j), (i2, j2))`` with ``i != i2``,
    ``j != j2`` and ``value_i * value_j == value_i2 * value_j2`` (within
    ``EIGENVALUE_GROUP_TOL`` for float values).  Empty means products
    separate the classes, so a product observable has no accidental
    degeneracy.
    """
    fv = F.class_values()
    gv = G.class_values()
    exact = classical._all_exact(fv + gv)
    out = []
    cells = [(i, j) for i in range(len(fv)) for j in range(len(gv))]
    for a in range(len(cells)):
        i, j = cells[a]
        for b in range(a + 1, len(cells)):
            i2, j2 = cells[b]
            if i == i2 or j == j2:
                continue
            p1 = fv[i] * gv[j]
            p2 = fv[i2] * gv[j2]
            same = p1 == p2 if exact else abs(float(p1) - float(p2)) <= EIGENVALUE_GROUP_TOL
            if same:
                out.append(((i, j), (i2, j2)))
    return out


# ---------------------------------------------------------- density matrices

def spectral_pair_bruteforce(lam: Sequence[float], mu: Sequence[float]) -> QuantumProfile:
    """Oracle: the six quantities as explicit quadruple sums over spectra.

    A draw is a pair of independent eigenvalue indices for each matrix;
    distinctions are index inequalities on each side.
    """
    lam = [float(x) for x in lam]
    mu = [float(x) for x in mu]
    t = classical._region_table(
        [li * mj for li in lam for mj in mu],
        [i for i in range(len(lam)) for _ in mu],
        list(range(len(mu))) * len(lam),
    )
    return classical._regions(QuantumProfile, [[float(v) for v in row] for row in t])


def density_pair_profile(rho, tau) -> QuantumProfile:
    """Compound entropies of an independent pair of density matrices.

    With purities ``a = tr[rho^2]`` and ``b = tr[tau^2]`` the closed forms
    are ``h_f = 1 - a``, ``h_g = 1 - b`` and ``h_joint = 1 - ab``; the
    subtractions then give ``h_f_given_g = (1 - a) b``,
    ``h_g_given_f = a (1 - b)`` and ``mutual = (1 - a)(1 - b)``.  For
    small dimensions the spectral quadruple-sum oracle is run alongside and
    disagreement beyond ``ROUTE_TOL`` raises :class:`InternalInconsistency`;
    only that oracle reads the spectra, the closed forms the entry sums ``tr[m^2]``.
    """
    r, t = density._validated(rho), density._validated(tau)
    a, b = density._trace_product(r.m, r.m), density._trace_product(t.m, t.m)
    return classical._route(
        "density pair profile", "auto",
        lambda: classical._six(QuantumProfile, 1.0 - a, 1.0 - b, 1.0 - a * b),
        lambda: spectral_pair_bruteforce(np.clip(r.evals, 0.0, None), np.clip(t.evals, 0.0, None)),
        (len(r.m) * len(t.m)) ** 2 <= classical.REGION_ORACLE_BOUND, ROUTE_TOL,
    )


def quantum_cross_entropy(rho, tau) -> float:
    """``1 - tr[rho tau]``: two draws, one from each matrix, distinguished.

    Symmetric; equals the plain logical entropy on the diagonal.  The trace
    is cross-checked, within ``ROUTE_TOL``, against its eigenbasis overlap
    expansion ``sum_ij lambda_i mu_j |<u_i|v_j>|^2``.
    """
    r, t = density._pair(rho, tau)
    overlap = density._trace_product(r.m, t.m)
    (lam, u), (mu, v) = r.eigh, t.eigh
    gram = np.abs(u.conj().T @ v) ** 2
    expansion = float(lam @ gram @ mu)
    _agree("tr[rho tau] and its overlap expansion", (overlap,), (expansion,), False, ROUTE_TOL)
    return 1.0 - overlap


def hilbert_schmidt_distance(rho, tau) -> float:
    """``tr[(rho - tau)^2]``, the squared Hilbert-Schmidt norm of the gap."""
    r, t = density._pair(rho, tau)
    return density._trace_product(r.m - t.m, r.m - t.m)


def quantum_hamming(rho, tau) -> float:
    """Entropy-form distance ``2 h(rho||tau) - h(rho) - h(tau)``.

    Equals ``tr[rho^2] + tr[tau^2] - 2 tr[rho tau] = tr[(rho - tau)^2]``,
    which is checked within ``classical.FLOAT_TOL``; nonnegative, and zero
    exactly when the two matrices coincide.
    """
    r, t = density._pair(rho, tau)
    tr = density._trace_product
    d = tr(r.m, r.m) + tr(t.m, t.m) - 2.0 * tr(r.m, t.m)
    hs = hilbert_schmidt_distance(r, t)
    _agree("distance trace form and Hilbert-Schmidt form", (d,), (hs,), False, classical.FLOAT_TOL)
    return d
