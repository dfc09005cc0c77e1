"""Set partitions of a finite universe and their distinction structure.

A partition of the universe ``{0, ..., n-1}`` is stored as its canonical
code: each element's block id, the blocks numbered by least element (a
restricted growth string), so equal codes are equal partitions; its
``blocks`` are formed from the code when first read.  The *ditset* of a
partition is the set of ordered pairs of elements lying in different blocks
(its "distinctions"); the *inditset* is the complement, the pairs lying in
the same block.  Partial order, join, meet and implication are all defined
through these pair sets, with kernels on codes that are checked against the
pair-set definitions in the test suite.  Every partition the library builds
comes from :func:`_coded`, given a code from a kernel or :func:`_renumber`.
Every pair set the library derives comes from :func:`_pairset`, unchecked
(the public ``PairSet`` checks each pair), as an n x n boolean indicator.

Conventions used throughout:

* ``refines(sigma, pi)`` is true when ``ditset(sigma) <= ditset(pi)``,
  i.e. sigma is the coarser (or equal) partition and pi the finer one; it
  is read off the implication, ``sigma -> pi`` being ``top`` exactly then.
* ``bottom`` is the single-block partition (no distinctions), ``top`` the
  all-singletons partition (all distinctions).
* Joins add distinctions, meets remove them.
"""

from __future__ import annotations

import itertools
import numbers
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Union

import numpy as np

from .errors import (
    BoundExceeded,
    EmptyBlock,
    IndexOutOfRange,
    OverlappingBlocks,
    PartitionError,
    UncoveredElement,
    UniverseMismatch,
)

#: Largest universe for which ditsets are materialized as explicit pair sets.
#: Membership tests never need the bound (see :func:`is_dit`).
DITSET_MATERIALIZE_BOUND = 64

#: Default cap for exhaustive partition enumeration (Bell(9) = 21147).
ENUMERATION_BOUND = 9


@dataclass(frozen=True)
class Universe:
    """The finite carrier set ``{0, ..., size-1}``."""

    size: int

    def __post_init__(self):
        if not isinstance(self.size, int) or isinstance(self.size, bool) or self.size < 1:
            raise PartitionError(f"universe size must be an integer >= 1, got {self.size!r}")

    def elements(self) -> range:
        return range(self.size)


UniverseLike = Union[Universe, int]


def _as_universe(u: UniverseLike) -> Universe:
    return u if isinstance(u, Universe) else Universe(u)


def _check_same_universe(a: Universe, b: Universe, what: str) -> None:
    if a != b:
        raise UniverseMismatch(f"{what}: universes of size {a.size} and {b.size} differ")


def _is_element(x, n: int) -> bool:
    """Whether ``x`` is in ``{0, ..., n-1}``: an integer, numpy's included, but not a bool.

    A Python int is decided by its type alone, without the ``Integral`` check.
    """
    return (type(x) is int and 0 <= x < n
            or isinstance(x, numbers.Integral) and not isinstance(x, bool) and 0 <= x < n)


@dataclass(frozen=True)
class PairSet:
    """A set of ordered pairs of universe elements, e.g. a ditset.  The public constructor keeps
    a checked frozenset ``pairs``; a set the library builds keeps its n x n boolean indicator
    (entry ``[a, b]`` for pair ``(a, b)``) and forms ``pairs`` when they are first read."""

    universe: Universe
    pairs: frozenset

    def __post_init__(self):
        pairs = list(self.pairs)
        n = self.universe.size
        for pair in pairs:  # before hashing, so an unhashable member is refused like any other
            if not (isinstance(pair, tuple) and len(pair) == 2
                    and _is_element(pair[0], n) and _is_element(pair[1], n)):
                raise IndexOutOfRange(f"pair {pair!r} outside universe of size {n}")
        # Python ints inserted in sorted order, as a built set forms its pairs, so equal sets print alike.
        object.__setattr__(self, "pairs", frozenset(sorted({(int(a), int(b)) for a, b in pairs})))

    def __getattr__(self, name):
        if name != "pairs" or "_indicator" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, "pairs", frozenset(zip(*(a.tolist() for a in self._coords()))))
        return self.pairs

    def _coords(self):
        """The pairs' first and second elements, two index arrays in sorted (row-major) pair order."""
        ind = self.__dict__.get("_indicator")
        return ind.nonzero() if ind is not None else np.array(sorted(self.pairs), np.intp).reshape(-1, 2).T

    def _apply(self, other: "PairSet", what: str, op, on_arrays=None):
        _check_same_universe(self.universe, other.universe, what)
        both = "_indicator" in self.__dict__ and "_indicator" in other.__dict__
        return (on_arrays or op)(self._indicator, other._indicator) if both else op(self.pairs, other.pairs)

    def __len__(self) -> int:
        return int(np.count_nonzero(self._indicator)) if "_indicator" in self.__dict__ else len(self.pairs)

    def __contains__(self, pair) -> bool:
        return pair in self.pairs

    def __iter__(self):
        return iter(sorted(self.pairs))

    def union(self, other: "PairSet") -> "PairSet":
        return _pairset(self.universe, self._apply(other, "pair-set union", lambda a, b: a | b))

    def intersection(self, other: "PairSet") -> "PairSet":
        return _pairset(self.universe, self._apply(other, "pair-set intersection", lambda a, b: a & b))

    def difference(self, other: "PairSet") -> "PairSet":
        # On boolean arrays, a > b is a and not b.
        return _pairset(self.universe, self._apply(other, "pair-set difference", frozenset.__sub__, np.greater))

    def complement(self) -> "PairSet":
        """All of ``U x U`` minus these pairs."""
        return _pairset(self.universe, np.ones((self.universe.size,) * 2, bool)).difference(self)

    def issubset(self, other: "PairSet") -> bool:
        return bool(np.all(self._apply(other, "pair-set comparison", lambda a, b: a <= b)))


def _pairset(u: Universe, pairs) -> PairSet:
    """The set of ``pairs`` in ``u``, an n x n boolean indicator or a frozenset, built without the check."""
    s = object.__new__(PairSet)
    s.__dict__.update({"universe": u, "pairs" if isinstance(pairs, frozenset) else "_indicator": pairs})
    return s


@dataclass(frozen=True)
class Partition:
    """A set partition, stored as its canonical code ``_block_of``, which ``==`` and ``hash`` read.

    The canonical ``blocks`` are derived from the code on first read.  Construct
    through :func:`make_partition`, which validates raw block lists, or the
    algebra operations below; the constructor keeps only the code of its
    blocks, and assumes that they partition the universe.
    """

    universe: Universe
    blocks: tuple = field(compare=False)
    _block_of: tuple = field(init=False)

    def __post_init__(self):
        ids = [-1] * self.universe.size
        for i, block in enumerate(self.blocks):
            for x in block:
                ids[x] = i
        object.__setattr__(self, "_block_of", _renumber(ids))
        del self.__dict__["blocks"]

    def __getattr__(self, name):
        """The canonical ``blocks``, formed from the code once, when first read."""
        if name != "blocks" or "_block_of" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        blocks = [[] for _ in range(self.n_blocks)]
        for x, i in enumerate(self._block_of):
            blocks[i].append(x)
        object.__setattr__(self, "blocks", tuple(map(tuple, blocks)))
        return self.blocks

    def block_containing(self, x: int) -> int:
        """Index (into ``blocks``) of the block holding element ``x``."""
        if not _is_element(x, self.universe.size):
            raise IndexOutOfRange(f"element {x!r} outside universe of size {self.universe.size}")
        return self._block_of[x]

    def same_block(self, a: int, b: int) -> bool:
        return self.block_containing(a) == self.block_containing(b)

    @cached_property
    def n_blocks(self) -> int:
        return max(self._block_of) + 1

    def is_top(self) -> bool:
        return self.n_blocks == self.universe.size

    def is_bottom(self) -> bool:
        return self.n_blocks == 1

    def __repr__(self) -> str:
        inner = "|".join(",".join(str(x) for x in b) for b in self.blocks)
        return f"Partition({self.universe.size}: {inner})"


def make_partition(universe: UniverseLike, blocks: Iterable[Iterable[int]]) -> Partition:
    """Validate raw blocks in one pass, then keep their canonical code.

    Raises :class:`EmptyBlock`, :class:`IndexOutOfRange`, :class:`OverlappingBlocks`
    or :class:`UncoveredElement`, for the first bad element in input order, when the
    blocks fail to partition ``{0, ..., n-1}``.  The pass labels each element with
    the index of its block; those labels, renumbered by least element, are the code,
    from which canonical ``blocks`` of Python ints are formed when first read.
    """
    u = _as_universe(universe)
    n = u.size
    blocks = list(map(tuple, blocks))
    # Block index per element; blocks too few to cover n (an error) use a dict, not n slots.
    owner = [None] * n if sum(map(len, blocks)) >= n else defaultdict(lambda: None)
    for i, block in enumerate(blocks):
        if not block:
            raise EmptyBlock("empty block is not allowed")
        for x in block:
            if not (type(x) is int and 0 <= x < n or _is_element(x, n)):  # an in-range int skips the call
                raise IndexOutOfRange(f"element {x!r} outside universe of size {n}")
            if owner[x] is not None:
                raise OverlappingBlocks(f"element {x} appears in more than one block")
            owner[x] = i
    if len(owner) < n:  # a dict, then: every element seen is in range and seen once
        least = next(x for x in range(n) if x not in owner)
        raise UncoveredElement(f"elements covered by no block: {n - len(owner)}, the least is {least}")
    return _grouped(u, owner)


def _renumber(labels: Iterable) -> tuple:
    """Each label's id by first appearance: the code of the partition that groups equal labels."""
    ids: defaultdict = defaultdict()
    ids.default_factory = ids.__len__  # called before a new label is stored, so it gives the next id
    return tuple(map(ids.__getitem__, labels))


def _coded(u: Universe, code: tuple) -> Partition:
    """The partition of ``u`` with canonical code ``code``, built without the constructor."""
    p = object.__new__(Partition)
    p.__dict__.update(universe=u, _block_of=code)
    return p


def _grouped(u: Universe, labels: Iterable) -> Partition:
    """The partition of ``u`` that groups equal labels."""
    return _coded(u, _renumber(labels))


# Lattice kernels on codes: ``_block_of`` of canonical partitions, a block id per element.

def _join_code(a: tuple, b: tuple) -> tuple:
    """Blocks are the nonempty intersections: one id per pair of block ids."""
    return _renumber(zip(a, b))


def _meet_code(a: tuple, b: tuple) -> tuple:
    """Blocks of ``a`` joined by union-find wherever one block of ``b`` meets both."""
    parent = list(range(len(a)))
    met: dict = {}
    for x, y in zip(a, b):
        r, s = x, met.setdefault(y, x)
        while parent[r] != r:
            r = parent[r]
        while parent[s] != s:
            s = parent[s]
        parent[max(r, s)] = min(r, s)
    for i, up in enumerate(parent):  # up <= i, so parent[up] is already a root
        parent[i] = parent[up]
    return _renumber(map(parent.__getitem__, a))


def _implication_code(s: tuple, p: tuple) -> tuple:
    """Blocks of ``p`` inside one block of ``s`` become singletons; the rest stay."""
    first: dict = {}
    stays = {y for x, y in zip(s, p) if first.setdefault(y, x) != x}
    if not stays:
        return tuple(range(len(p)))
    return _renumber(y if y in stays else -1 - i for i, y in enumerate(p))


def top(universe: UniverseLike) -> Partition:
    """The discrete partition: every element its own block (all distinctions)."""
    u = _as_universe(universe)
    return _coded(u, tuple(u.elements()))


def bottom(universe: UniverseLike) -> Partition:
    """The indiscrete partition: one block (no distinctions)."""
    u = _as_universe(universe)
    return _coded(u, (0,) * u.size)


def is_dit(p: Partition, a: int, b: int) -> bool:
    """Whether ``(a, b)`` is a distinction of ``p``.  O(1), any universe size."""
    return not p.same_block(a, b)


def _same_block(p: Partition) -> np.ndarray:
    """The n x n boolean same-block indicator ``ids[a] == ids[b]`` over the block ids ``p._block_of``."""
    ids = np.array(p._block_of)
    return ids[:, None] == ids


def ditset(p: Partition) -> PairSet:
    """The set of ordered pairs distinguished by ``p``.

    Materialized as its n x n indicator, the negated :func:`_same_block`;
    for universes above ``DITSET_MATERIALIZE_BOUND`` use :func:`is_dit`
    for membership instead (raises :class:`BoundExceeded`).
    """
    n = p.universe.size
    if n > DITSET_MATERIALIZE_BOUND:
        raise BoundExceeded(
            f"ditset materialization for n={n} exceeds bound {DITSET_MATERIALIZE_BOUND}; "
            "use is_dit for membership queries"
        )
    return _pairset(p.universe, ~_same_block(p))


def inditset(p: Partition) -> PairSet:
    """The complement of the ditset: pairs lying in a common block, the :func:`_same_block` indicator."""
    n = p.universe.size
    if n > DITSET_MATERIALIZE_BOUND:
        raise BoundExceeded(f"inditset materialization for n={n} exceeds bound {DITSET_MATERIALIZE_BOUND}")
    return _pairset(p.universe, _same_block(p))


def refines(sigma: Partition, pi: Partition) -> bool:
    """True iff ``ditset(sigma) <= ditset(pi)``.

    Equivalently: every block of ``pi`` lies inside some block of ``sigma``
    (``pi`` is the finer partition, ``sigma`` the coarser or equal one), so
    ``implication(sigma, pi)`` is ``top``, which is how it is read off.
    The pair-set form is verified exhaustively in the tests.
    """
    _check_same_universe(sigma.universe, pi.universe, "refinement comparison")
    return implication(sigma, pi).is_top()


def join(pi: Partition, sigma: Partition) -> Partition:
    """Least upper bound: blocks are the nonempty intersections.

    Satisfies ``ditset(join) = ditset(pi) | ditset(sigma)``.
    """
    _check_same_universe(pi.universe, sigma.universe, "join")
    return _coded(pi.universe, _join_code(pi._block_of, sigma._block_of))


def meet(pi: Partition, sigma: Partition) -> Partition:
    """Greatest lower bound: the connected components of "same block in either"."""
    _check_same_universe(pi.universe, sigma.universe, "meet")
    return _coded(pi.universe, _meet_code(pi._block_of, sigma._block_of))


def implication(sigma: Partition, pi: Partition) -> Partition:
    """The partition conditional ``sigma -> pi``.

    Each block of ``pi`` contained in some block of ``sigma`` is replaced by
    singletons ("locally forced to top"); other blocks of ``pi`` stay.  The
    result equals ``top`` exactly when ``refines(sigma, pi)``.
    """
    _check_same_universe(sigma.universe, pi.universe, "implication")
    return _coded(pi.universe, _implication_code(sigma._block_of, pi._block_of))


def common_dits(pi: Partition, sigma: Partition) -> PairSet:
    """Pairs distinguished by both partitions: ``ditset(pi) & ditset(sigma)``.

    Nonempty for every pair of non-bottom partitions on a shared universe of
    size >= 2 (no two nontrivial partitions have disjoint ditsets).
    """
    return ditset(pi).intersection(ditset(sigma))


def _bell_numbers() -> Iterator[int]:
    """Yield B(0), B(1), B(2), ... from one pass of the Bell triangle."""
    row = [1]
    while True:
        yield row[0]
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt


def bell_number(n: int) -> int:
    """Number of set partitions of an n-element set (Bell number)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return next(itertools.islice(_bell_numbers(), n, None))


def enumerate_partitions(universe: UniverseLike, bound: int = ENUMERATION_BOUND) -> Iterator[Partition]:
    """Yield every partition of the universe, in restricted-growth-string order.

    The first partition yielded is ``bottom`` (string 00...0) and the last is
    ``top``.  Raises :class:`BoundExceeded` when the universe size exceeds
    ``bound`` (Bell numbers grow too fast for exhaustive enumeration).
    """
    u = _as_universe(universe)
    n = u.size
    if n > bound:
        raise BoundExceeded(
            f"enumerating partitions of an n={n} universe exceeds bound {bound}"
        )
    for code in _growth_strings(n):
        yield _coded(u, code)


def _growth_strings(n: int) -> list:
    """Every restricted growth string of length ``n``, in lexicographic order."""
    codes = [(0,)]
    for _ in range(n - 1):
        codes = [c + (v,) for c in codes for v in range(max(c) + 2)]
    return codes
