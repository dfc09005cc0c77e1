"""Set partitions of a finite universe and their distinction structure.

A partition of the universe ``{0, ..., n-1}`` is stored in canonical form:
every block sorted ascending and the blocks ordered by least element, so
structural equality is partition equality.  The *ditset* of a partition is
the set of ordered pairs of elements lying in different blocks (its
"distinctions"); the *inditset* is the complement, the pairs lying in the
same block.  Partial order, join, meet and implication are all defined
through these pair sets, with block-level implementations that are checked
against the pair-set definitions in the test suite.

Conventions used throughout:

* ``refines(sigma, pi)`` is true when ``ditset(sigma) <= ditset(pi)``,
  i.e. sigma is the coarser (or equal) partition and pi the finer one.
* ``bottom`` is the single-block partition (no distinctions), ``top`` the
  all-singletons partition (all distinctions).
* Joins add distinctions, meets remove them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Union

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


@dataclass(frozen=True)
class PairSet:
    """A set of ordered pairs of universe elements, e.g. a ditset."""

    universe: Universe
    pairs: frozenset

    def __post_init__(self):
        object.__setattr__(self, "pairs", frozenset(self.pairs))
        n = self.universe.size
        for a, b in self.pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise IndexOutOfRange(f"pair ({a}, {b}) outside universe of size {n}")

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair) -> bool:
        return pair in self.pairs

    def __iter__(self):
        return iter(sorted(self.pairs))

    def union(self, other: "PairSet") -> "PairSet":
        _check_same_universe(self.universe, other.universe, "pair-set union")
        return PairSet(self.universe, self.pairs | other.pairs)

    def intersection(self, other: "PairSet") -> "PairSet":
        _check_same_universe(self.universe, other.universe, "pair-set intersection")
        return PairSet(self.universe, self.pairs & other.pairs)

    def difference(self, other: "PairSet") -> "PairSet":
        _check_same_universe(self.universe, other.universe, "pair-set difference")
        return PairSet(self.universe, self.pairs - other.pairs)

    def complement(self) -> "PairSet":
        """All of ``U x U`` minus these pairs."""
        n = self.universe.size
        full = {(a, b) for a in range(n) for b in range(n)}
        return PairSet(self.universe, frozenset(full - self.pairs))

    def issubset(self, other: "PairSet") -> bool:
        _check_same_universe(self.universe, other.universe, "pair-set comparison")
        return self.pairs <= other.pairs


@dataclass(frozen=True)
class Partition:
    """A set partition in canonical form.

    Construct through :func:`make_partition` (which validates raw block
    lists) or the algebra operations below; the constructor canonicalizes
    but assumes the blocks already partition the universe.
    """

    universe: Universe
    blocks: tuple

    def __post_init__(self):
        canon = tuple(sorted((tuple(sorted(b)) for b in self.blocks), key=lambda b: b[0]))
        object.__setattr__(self, "blocks", canon)

    @cached_property
    def _block_of(self) -> tuple:
        """Element -> index of its block, for O(1) membership queries."""
        out = [-1] * self.universe.size
        for i, block in enumerate(self.blocks):
            for x in block:
                out[x] = i
        return tuple(out)

    def block_containing(self, x: int) -> int:
        """Index (into ``blocks``) of the block holding element ``x``."""
        if not (0 <= x < self.universe.size):
            raise IndexOutOfRange(f"element {x} outside universe of size {self.universe.size}")
        return self._block_of[x]

    def same_block(self, a: int, b: int) -> bool:
        return self.block_containing(a) == self.block_containing(b)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def is_top(self) -> bool:
        return self.n_blocks == self.universe.size

    def is_bottom(self) -> bool:
        return self.n_blocks == 1

    def __repr__(self) -> str:
        inner = "|".join(",".join(str(x) for x in b) for b in self.blocks)
        return f"Partition({self.universe.size}: {inner})"


def make_partition(universe: UniverseLike, blocks: Iterable[Iterable[int]]) -> Partition:
    """Validate raw blocks and build a canonical :class:`Partition`.

    Raises :class:`EmptyBlock`, :class:`IndexOutOfRange`,
    :class:`OverlappingBlocks` or :class:`UncoveredElement` when the blocks
    fail to partition ``{0, ..., n-1}``.
    """
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
    missing = set(range(n)) - seen
    if missing:
        raise UncoveredElement(f"elements {sorted(missing)} are covered by no block")
    return Partition(u, tuple(cleaned))


def top(universe: UniverseLike) -> Partition:
    """The discrete partition: every element its own block (all distinctions)."""
    u = _as_universe(universe)
    return Partition(u, tuple((x,) for x in u.elements()))


def bottom(universe: UniverseLike) -> Partition:
    """The indiscrete partition: one block (no distinctions)."""
    u = _as_universe(universe)
    return Partition(u, (tuple(u.elements()),))


def is_dit(p: Partition, a: int, b: int) -> bool:
    """Whether ``(a, b)`` is a distinction of ``p``.  O(1), any universe size."""
    return not p.same_block(a, b)


def ditset(p: Partition) -> PairSet:
    """The set of ordered pairs distinguished by ``p``.

    Materialized explicitly; for universes above ``DITSET_MATERIALIZE_BOUND``
    use :func:`is_dit` for membership instead (raises :class:`BoundExceeded`).
    """
    n = p.universe.size
    if n > DITSET_MATERIALIZE_BOUND:
        raise BoundExceeded(
            f"ditset materialization for n={n} exceeds bound {DITSET_MATERIALIZE_BOUND}; "
            "use is_dit for membership queries"
        )
    ids = p._block_of
    pairs = frozenset((a, b) for a in range(n) for b in range(n) if ids[a] != ids[b])
    return PairSet(p.universe, pairs)


def inditset(p: Partition) -> PairSet:
    """The complement of the ditset: pairs lying in a common block."""
    n = p.universe.size
    if n > DITSET_MATERIALIZE_BOUND:
        raise BoundExceeded(f"inditset materialization for n={n} exceeds bound {DITSET_MATERIALIZE_BOUND}")
    ids = p._block_of
    pairs = frozenset((a, b) for a in range(n) for b in range(n) if ids[a] == ids[b])
    return PairSet(p.universe, pairs)


def refines(sigma: Partition, pi: Partition) -> bool:
    """True iff ``ditset(sigma) <= ditset(pi)``.

    Equivalently: every block of ``pi`` lies inside some block of ``sigma``
    (``pi`` is the finer partition, ``sigma`` the coarser or equal one).
    Implemented through block containment; the pair-set form is verified
    exhaustively in the tests.
    """
    _check_same_universe(sigma.universe, pi.universe, "refinement comparison")
    ids = sigma._block_of
    for block in pi.blocks:
        first = ids[block[0]]
        if any(ids[x] != first for x in block[1:]):
            return False
    return True


def join(pi: Partition, sigma: Partition) -> Partition:
    """Least upper bound: blocks are the nonempty intersections.

    Satisfies ``ditset(join) = ditset(pi) | ditset(sigma)``.
    """
    _check_same_universe(pi.universe, sigma.universe, "join")
    cells = {}
    for x in pi.universe.elements():
        key = (pi._block_of[x], sigma._block_of[x])
        cells.setdefault(key, []).append(x)
    return Partition(pi.universe, tuple(tuple(c) for c in cells.values()))


def meet(pi: Partition, sigma: Partition) -> Partition:
    """Greatest lower bound via union-find closure.

    Elements are merged when they share a block in either partition; the
    meet's blocks are the connected components of that relation.
    """
    _check_same_universe(pi.universe, sigma.universe, "meet")
    n = pi.universe.size
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for part in (pi, sigma):
        for block in part.blocks:
            for other in block[1:]:
                union(block[0], other)
    comps = {}
    for x in range(n):
        comps.setdefault(find(x), []).append(x)
    return Partition(pi.universe, tuple(tuple(c) for c in comps.values()))


def implication(sigma: Partition, pi: Partition) -> Partition:
    """The partition conditional ``sigma -> pi``.

    Each block of ``pi`` contained in some block of ``sigma`` is replaced by
    singletons ("locally forced to top"); other blocks of ``pi`` stay.  The
    result equals ``top`` exactly when ``refines(sigma, pi)``.
    """
    _check_same_universe(sigma.universe, pi.universe, "implication")
    ids = sigma._block_of
    out = []
    for block in pi.blocks:
        first = ids[block[0]]
        if all(ids[x] == first for x in block[1:]):
            out.extend((x,) for x in block)
        else:
            out.append(block)
    return Partition(pi.universe, tuple(out))


def common_dits(pi: Partition, sigma: Partition) -> PairSet:
    """Pairs distinguished by both partitions: ``ditset(pi) & ditset(sigma)``.

    Nonempty for every pair of non-bottom partitions on a shared universe of
    size >= 2 (no two nontrivial partitions have disjoint ditsets).
    """
    return ditset(pi).intersection(ditset(sigma))


def bell_number(n: int) -> int:
    """Number of set partitions of an n-element set (Bell number)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


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
            f"enumerating partitions of an n={n} universe exceeds bound {bound} "
            f"(Bell({n}) = {bell_number(n)})"
        )
    a = [0] * n

    def rec(i: int, mx: int):
        if i == n:
            blocks = {}
            for x, label in enumerate(a):
                blocks.setdefault(label, []).append(x)
            yield Partition(u, tuple(tuple(b) for b in blocks.values()))
            return
        for v in range(mx + 2):
            a[i] = v
            yield from rec(i + 1, max(mx, v))

    # a[0] is pinned to 0; positions 1..n-1 range over their growth bound.
    yield from rec(1, 0)
