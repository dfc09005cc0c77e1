"""Random-instance generators shared across the test modules.

Everything takes an explicit numpy Generator so the suites stay
reproducible under their fixed seeds.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

import numpy as np

from ditlab import classical, cli
from ditlab.classical import EntropyProfile, JointDist, ProbDist
from ditlab.density import DENSITY_TOL
from ditlab.errors import (
    EmptyBlock, IndexOutOfRange, InvalidDensityMatrix, NotHermitian, NotPSD, OverlappingBlocks,
    TraceNotOne, UncoveredElement,
)
from ditlab.logic import evaluate, variables
from ditlab.partitions import PairSet, Partition, Universe, _as_universe, enumerate_partitions, top
from ditlab.quantum import EIGENVALUE_GROUP_TOL, Observable


def rational_dist(rng, n, allow_zero=False) -> ProbDist:
    """Random exact distribution with small denominators."""
    lo = 0 if allow_zero else 1
    while True:
        a = [int(v) for v in rng.integers(lo, 12, size=n)]
        s = sum(a)
        if s > 0:
            return ProbDist(tuple(Fraction(x, s) for x in a))


def rational_joint(rng, nx, ny, allow_zero=False) -> JointDist:
    lo = 0 if allow_zero else 1
    while True:
        a = [[int(v) for v in rng.integers(lo, 9, size=ny)] for _ in range(nx)]
        s = sum(sum(r) for r in a)
        if s > 0:
            return JointDist(tuple(tuple(Fraction(x, s) for x in r) for r in a))


def random_partition(rng, n) -> Partition:
    """Uniformly shaped random partition via a random growth string."""
    labels = [0]
    mx = 0
    for _ in range(n - 1):
        v = int(rng.integers(0, mx + 2))
        labels.append(v)
        mx = max(mx, v)
    blocks: dict = {}
    for x, lab in enumerate(labels):
        blocks.setdefault(lab, []).append(x)
    return Partition(Universe(n), tuple(tuple(b) for b in blocks.values()))


def random_state(rng, n) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def random_unitary(rng, n) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_density(rng, n) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = a @ a.conj().T
    return m / np.trace(m).real


def random_projector_set(rng, n) -> list:
    """Projectors onto random orthogonal subspaces spanning everything."""
    u = random_unitary(rng, n)
    part = random_partition(rng, n)
    out = []
    for block in part.blocks:
        cols = u[:, list(block)]
        out.append(cols @ cols.conj().T)
    return out


def random_observable(rng, n, degenerate=None, min_classes=1, basis="random",
                      unitary=None) -> Observable:
    """Observable with integer eigenvalues; ``degenerate`` forces repeats.

    Repeats are only possible when ``n`` exceeds ``min_classes``; below that
    the eigenvalues fall back to a plain permutation.
    """
    if degenerate is None:
        degenerate = bool(rng.integers(0, 2))
    want_repeat = degenerate and n > max(min_classes, 1)
    while True:
        if want_repeat:
            k = int(rng.integers(max(min_classes, 1), n))
            vals = [int(v) for v in rng.integers(0, k, size=n)]
            ok = min_classes <= len(set(vals)) < n
        else:
            vals = [int(v) for v in rng.permutation(n)]
            ok = len(set(vals)) >= min_classes
        if ok:
            break
    if unitary is not None:
        u = unitary
    elif basis == "random":
        u = random_unitary(rng, n)
    else:
        u = None
    return Observable(tuple(vals), u)


def region_table_loop(weights, ids_a, ids_b) -> list:
    """Reference for ``classical._region_table``: the double loop over ordered cell pairs."""
    cells = [(w, a, b) for w, a, b in zip(weights, ids_a, ids_b) if w]
    t = [[0, 0], [0, 0]]
    for w, a, b in cells:
        for w2, a2, b2 in cells:
            t[a != a2][b != b2] += w * w2
    return t


def make_partition_loop(universe, blocks) -> Partition:
    """Reference for ``partitions.make_partition``: a seen set, then the canonicalizing constructor."""
    u = _as_universe(universe)
    n = u.size
    seen = set()
    cleaned = []
    for block in blocks:
        block = list(block)
        if not block:
            raise EmptyBlock("empty block is not allowed")
        for x in block:
            if not isinstance(x, int) or isinstance(x, bool) or not (0 <= x < n):
                raise IndexOutOfRange(f"element {x!r} outside universe of size {n}")
            if x in seen:
                raise OverlappingBlocks(f"element {x} appears in more than one block")
            seen.add(x)
        cleaned.append(tuple(block))
    if len(seen) < n:
        least = next(x for x in range(n) if x not in seen)
        raise UncoveredElement(f"elements covered by no block: {n - len(seen)}, the least is {least}")
    return Partition(u, tuple(cleaned))


def load_dist_loop(path):
    """Reference for ``cli._load_dist``: every weight through ``cli._parse_number``, then ``ProbDist``."""
    doc, digest = cli._load_document(path, "dist", "weights")
    weights = doc["weights"]
    if not isinstance(weights, list):
        raise cli.InputSchemaError(f"{path}: field 'weights' must be a list")
    return ProbDist(tuple(cli._parse_number(w, path) for w in weights)), digest


def load_joint_loop(path):
    """Reference for ``cli._load_joint``: every cell through ``cli._parse_number``, row by row, then ``JointDist``."""
    doc, digest = cli._load_document(path, "joint", "x", "y", "matrix")
    x, y, matrix = cli._integer(doc, "x", path), cli._integer(doc, "y", path), doc["matrix"]
    if not isinstance(matrix, list) or not all(isinstance(r, list) for r in matrix):
        raise cli.InputSchemaError(f"{path}: field 'matrix' must be a list of rows")
    if len(matrix) != x or any(len(r) != y for r in matrix):
        raise cli.InputSchemaError(f"{path}: matrix shape does not match x={x}, y={y}")
    rows = tuple(tuple(cli._parse_number(w, path) for w in r) for r in matrix)
    return JointDist(rows), digest


def ditset_loop(p, distinct=True) -> frozenset:
    """Reference for ``partitions.ditset`` (``distinct=False``: ``inditset``): the test on every ordered pair."""
    n = p.universe.size
    ids = p._block_of
    return frozenset((a, b) for a in range(n) for b in range(n) if (ids[a] != ids[b]) == distinct)


def product_measure_loop(region, p):
    """Reference for ``classical.product_measure``: ``w[a] w[b]`` added left to right over the sorted pairs."""
    w = p.weights
    return functools.reduce(operator.add, (w[a] * w[b] for a, b in sorted(region.pairs)), 0)


def ditset_oracle_loop(pi, sigma, p) -> EntropyProfile:
    """Reference for ``entropy_profile(pi, sigma, p, "regions")``: the ditset oracle on frozensets.

    The two ditsets come from :func:`ditset_loop`, their three disjoint
    regions from frozenset algebra, each region's product measure from
    :func:`product_measure_loop`, and the six quantities from
    ``classical._regions``, as the oracle reads them.
    """
    dit_pi, dit_sigma = ditset_loop(pi), ditset_loop(sigma)

    def measure(pairs):
        return product_measure_loop(PairSet(pi.universe, pairs), p)

    return classical._regions(EntropyProfile, [
        [None, measure(dit_sigma - dit_pi)],
        [measure(dit_pi - dit_sigma), measure(dit_pi & dit_sigma)],
    ])


def block_probabilities_loop(blocks, weights) -> list:
    """Reference for ``classical._sums``: each block's weights added left to right from the int 0.

    ``blocks`` are ascending tuples of point indices, so this is the
    per-block loop ``block_probabilities`` ran before its one-pass sums.
    """
    return [functools.reduce(operator.add, (weights[x] for x in block), 0) for block in blocks]


def tautology_search_loop(f, max_n):
    """Reference for ``logic.check_tautology``: the tree evaluator over every assignment.

    Returns ``None`` for a tautology up to ``max_n``, else the first
    refuting ``(n, assignment)`` in the search's order.
    """
    names = variables(f)
    for n in range(2, max_n + 1):
        u = Universe(n)
        parts = list(enumerate_partitions(u, max_n)) if names else []
        for combo in itertools.product(parts, repeat=len(names)):
            env = dict(zip(names, combo))
            if evaluate(f, env, u) != top(u):
                return n, env
    return None


def rho_partition_loop(pi, p) -> np.ndarray:
    """Reference for ``density.rho_partition``: ``sqrt(p_j) sqrt(p_k)`` set pair by pair in each block."""
    n = p.size
    root = [math.sqrt(float(w)) for w in p.weights]
    m = np.zeros((n, n))
    for block in pi.blocks:
        for j in block:
            for k in block:
                m[j, k] = root[j] * root[k]
    return m


def validate_density_spectral(mat) -> np.ndarray:
    """Reference for ``density.validate_density``: its finite, Hermitian and trace checks, then
    positivity decided by the spectrum alone, ``eigvalsh(...).min() >= -DENSITY_TOL``."""
    m = np.asarray(mat).astype(np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        herm_gap = float(np.abs(m - m.conj().T).max())
        if not math.isfinite(herm_gap) and not np.isfinite(m).all():
            raise InvalidDensityMatrix("matrix has a non-finite entry")
        if herm_gap > DENSITY_TOL:
            raise NotHermitian(f"max |rho - rho^dagger| = {herm_gap:.3e} exceeds {DENSITY_TOL}")
        tr = complex(m.trace())
        if abs(tr - 1) > DENSITY_TOL:
            raise TraceNotOne(f"trace is {tr}, expected 1 within {DENSITY_TOL}")
        low = float(np.linalg.eigvalsh((m + m.conj().T) / 2).min())
    if not low >= -DENSITY_TOL:
        raise NotPSD(f"minimum eigenvalue {low:.3e} is below -{DENSITY_TOL}")
    return m


def measured_mask(F, psi) -> np.ndarray:
    """Reference for ``quantum._measured(F, psi).rho_prime``: the qudit mask in the eigenbasis,
    ``U (M o a a^dagger) U^dagger`` with ``a = U^dagger psi`` and ``M[j, k] = 1`` iff ``j`` and
    ``k`` share an eigenvalue class, symmetrized."""
    u = F.basis_matrix()
    amp = u.conj().T @ (psi / np.linalg.norm(psi))
    ids = np.array(F.eigenvalue_partition()._block_of)
    out = u @ ((ids[:, None] == ids) * np.outer(amp, amp.conj())) @ u.conj().T
    return (out + out.conj().T) / 2


def eigenvalue_classes_loop(values) -> Partition:
    """Reference for ``Observable.eigenvalue_partition``: the grouping loops it replaced.

    Exact values group by equal ``Fraction``; otherwise the sorted floats
    start a new block at each gap above ``EIGENVALUE_GROUP_TOL``.
    """
    n = len(values)
    if all(isinstance(v, (int, Fraction)) for v in values):
        groups: dict = {}
        for j, v in enumerate(values):
            groups.setdefault(Fraction(v), []).append(j)
        return Partition(Universe(n), tuple(tuple(g) for g in groups.values()))
    order = sorted(range(n), key=lambda j: float(values[j]))
    blocks = [[order[0]]]
    for prev, cur in zip(order, order[1:]):
        if float(values[cur]) - float(values[prev]) > EIGENVALUE_GROUP_TOL:
            blocks.append([])
        blocks[-1].append(cur)
    return Partition(Universe(n), tuple(tuple(sorted(b)) for b in blocks))


def count_calls(monkeypatch, owner, name) -> list:
    """Wrap ``owner.name`` so that each call appends the name to the returned list."""
    calls: list = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def complex_pairs(a) -> list:
    """An array as nested ``[re, im]`` pairs, the CLI's document format."""
    a = np.asarray(a, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1).tolist()
