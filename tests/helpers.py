"""Random-instance generators shared across the test modules.

Everything takes an explicit numpy Generator so the suites stay
reproducible under their fixed seeds.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ditlab.classical import JointDist, ProbDist
from ditlab.partitions import Partition, Universe
from ditlab.quantum import Observable


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
