"""Set partitions of a finite universe and their distinction structure.

A partition of the universe ``{0, ..., n-1}`` is stored in canonical form:
every block sorted ascending and the blocks ordered by least element, so
structural equality is partition equality.  The *ditset* of a partition is
the set of ordered pairs of elements lying in different blocks (its
"distinctions"); the *inditset* is the complement, the pairs lying in the
same block.  Partial order, join, meet and implication are all defined
through these pair sets, with block-level implementations that are checked
against the pair-set definitions in the test suite.  Every partition the
library builds from labels comes from :func:`_grouped`; :func:`make_partition`
keeps validated blocks as they are, sorted, with the labels of its one pass
as ``_block_of``.  Every pair set the library derives, from blocks or from
validated pair sets, comes from :func:`_pairset`, which checks no pair again
(the public ``PairSet`` does).

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


def _is_element(x, n: int) -> bool:
    """Whether ``x`` is in ``{0, ..., n-1}``: an integer, numpy's included, but not a bool.

    A Python int is decided by its type alone, without the ``Integral`` check.
    """
    return (type(x) is int and 0 <= x < n
            or isinstance(x, numbers.Integral) and not isinstance(x, bool) and 0 <= x < n)


@dataclass(frozen=True)
class PairSet:
    """A set of ordered pairs of universe elements, e.g. a ditset."""

    universe: Universe
    pairs: frozenset

    def __post_init__(self):
        object.__setattr__(self, "pairs", frozenset(self.pairs))
        n = self.universe.size
        for pair in self.pairs:
            if not (isinstance(pair, tuple) and len(pair) == 2
                    and _is_element(pair[0], n) and _is_element(pair[1], n)):
                raise IndexOutOfRange(f"pair {pair!r} outside universe of size {n}")

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair) -> bool:
        return pair in self.pairs

    def __iter__(self):
        return iter(sorted(self.pairs))

    def union(self, other: "PairSet") -> "PairSet":
        _check_same_universe(self.universe, other.universe, "pair-set union")
        return _pairset(self.universe, self.pairs | other.pairs)

    def intersection(self, other: "PairSet") -> "PairSet":
        _check_same_universe(self.universe, other.universe, "pair-set intersection")
        return _pairset(self.universe, self.pairs & other.pairs)

    def difference(self, other: "PairSet") -> "PairSet":
        _check_same_universe(self.universe, other.universe, "pair-set difference")
        return _pairset(self.universe, self.pairs - other.pairs)

    def complement(self) -> "PairSet":
        """All of ``U x U`` minus these pairs."""
        full = frozenset(itertools.product(self.universe.elements(), repeat=2))
        return _pairset(self.universe, full - self.pairs)

    def issubset(self, other: "PairSet") -> bool:
        _check_same_universe(self.universe, other.universe, "pair-set comparison")
        return self.pairs <= other.pairs


def _pairset(u: Universe, pairs: Iterable) -> PairSet:
    """The pair set of ``pairs``, already known to lie in ``u``, built without the per-pair check."""
    s = object.__new__(PairSet)
    s.__dict__.update(universe=u, pairs=frozenset(pairs))
    return s


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
        if not _is_element(x, self.universe.size):
            raise IndexOutOfRange(f"element {x!r} outside universe of size {self.universe.size}")
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
    """Validate raw blocks in one pass, then put them in canonical form.

    Raises :class:`EmptyBlock`, :class:`IndexOutOfRange`, :class:`OverlappingBlocks`
    or :class:`UncoveredElement`, for the first bad element in input order, when the
    blocks fail to partition ``{0, ..., n-1}``.  The pass labels each element with
    the index of its block, so ``_block_of`` is those labels, renumbered if the
    input's blocks are not in canonical order.  The blocks keep the input's own
    ints, each block sorted and the blocks ordered by least element, as
    ``Partition`` orders them (a numpy integer becomes an int).
    """
    u = _as_universe(universe)
    n = u.size
    blocks = list(map(tuple, blocks))
    # Block index per element; blocks too few to cover n (an error) use a dict, not n slots.
    owner = [None] * n if sum(map(len, blocks)) >= n else defaultdict(lambda: None)
    converted = False
    for i, block in enumerate(blocks):
        if not block:
            raise EmptyBlock("empty block is not allowed")
        for x in block:
            if not (type(x) is int and 0 <= x < n):  # an in-range int skips the call
                if not _is_element(x, n):
                    raise IndexOutOfRange(f"element {x!r} outside universe of size {n}")
                converted = True
            if owner[x] is not None:
                raise OverlappingBlocks(f"element {x} appears in more than one block")
            owner[x] = i
    if len(owner) < n:  # a dict, then: every element seen is in range and seen once
        least = next(x for x in range(n) if x not in owner)
        raise UncoveredElement(f"elements covered by no block: {n - len(owner)}, the least is {least}")
    canon = [tuple(sorted(map(int, b) if converted else b)) for b in blocks]
    ordered = sorted(canon)  # by least element, since the blocks are disjoint
    if ordered != canon:  # renumber the input's blocks in canonical order
        rank = {b[0]: r for r, b in enumerate(ordered)}
        owner = map([rank[b[0]] for b in canon].__getitem__, owner)
    p = object.__new__(Partition)
    p.__dict__.update(universe=u, blocks=tuple(ordered), _block_of=tuple(owner))
    return p


def _grouped(u: Universe, labels: Iterable) -> Partition:
    """The partition of ``u`` that groups equal labels; its blocks come out canonical."""
    blocks: dict = {}
    for x, label in enumerate(labels):
        blocks.setdefault(label, []).append(x)
    p = object.__new__(Partition)
    p.__dict__.update(universe=u, blocks=tuple(map(tuple, blocks.values())))
    return p


# Lattice kernels on codes: ``_block_of`` of canonical partitions, a block id per element.

def _join_code(a: tuple, b: tuple) -> tuple:
    """Blocks are the nonempty intersections: one id per pair of block ids."""
    ids: dict = {}
    return tuple([ids.setdefault(pair, len(ids)) for pair in zip(a, b)])


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
    ids: dict = {}
    return tuple([ids.setdefault(parent[x], len(ids)) for x in a])


def _implication_code(s: tuple, p: tuple) -> tuple:
    """Blocks of ``p`` inside one block of ``s`` become singletons; the rest stay."""
    first: dict = {}
    stays = {y for x, y in zip(s, p) if first.setdefault(y, x) != x}
    if not stays:
        return tuple(range(len(p)))
    ids: dict = {}
    return tuple([ids.setdefault(y if y in stays else -1 - i, len(ids)) for i, y in enumerate(p)])


def top(universe: UniverseLike) -> Partition:
    """The discrete partition: every element its own block (all distinctions)."""
    u = _as_universe(universe)
    return _grouped(u, u.elements())


def bottom(universe: UniverseLike) -> Partition:
    """The indiscrete partition: one block (no distinctions)."""
    u = _as_universe(universe)
    return _grouped(u, [0] * u.size)


def is_dit(p: Partition, a: int, b: int) -> bool:
    """Whether ``(a, b)`` is a distinction of ``p``.  O(1), any universe size."""
    return not p.same_block(a, b)


def ditset(p: Partition) -> PairSet:
    """The set of ordered pairs distinguished by ``p``.

    Materialized explicitly, block by block, as the union of ``B x (U - B)``
    over the blocks ``B``; for universes above ``DITSET_MATERIALIZE_BOUND``
    use :func:`is_dit` for membership instead (raises :class:`BoundExceeded`).
    """
    n = p.universe.size
    if n > DITSET_MATERIALIZE_BOUND:
        raise BoundExceeded(
            f"ditset materialization for n={n} exceeds bound {DITSET_MATERIALIZE_BOUND}; "
            "use is_dit for membership queries"
        )
    # One product per block B, with every element outside B: fewer iterators than one per block pair.
    flat = tuple(itertools.chain.from_iterable(p.blocks))
    rows, start = [], 0
    for block in p.blocks:
        end = start + len(block)
        rows.append(itertools.product(block, flat[:start] + flat[end:]))
        start = end
    return _pairset(p.universe, itertools.chain.from_iterable(rows))


def inditset(p: Partition) -> PairSet:
    """The complement of the ditset: pairs lying in a common block, ``B x B`` per block."""
    n = p.universe.size
    if n > DITSET_MATERIALIZE_BOUND:
        raise BoundExceeded(f"inditset materialization for n={n} exceeds bound {DITSET_MATERIALIZE_BOUND}")
    squares = (itertools.product(b, repeat=2) for b in p.blocks)
    return _pairset(p.universe, itertools.chain.from_iterable(squares))


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
    return _grouped(pi.universe, _join_code(pi._block_of, sigma._block_of))


def meet(pi: Partition, sigma: Partition) -> Partition:
    """Greatest lower bound: the connected components of "same block in either"."""
    _check_same_universe(pi.universe, sigma.universe, "meet")
    return _grouped(pi.universe, _meet_code(pi._block_of, sigma._block_of))


def implication(sigma: Partition, pi: Partition) -> Partition:
    """The partition conditional ``sigma -> pi``.

    Each block of ``pi`` contained in some block of ``sigma`` is replaced by
    singletons ("locally forced to top"); other blocks of ``pi`` stay.  The
    result equals ``top`` exactly when ``refines(sigma, pi)``.
    """
    _check_same_universe(sigma.universe, pi.universe, "implication")
    return _grouped(pi.universe, _implication_code(sigma._block_of, pi._block_of))


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
        yield _grouped(u, code)


def _growth_strings(n: int) -> list:
    """Every restricted growth string of length ``n``, in lexicographic order."""
    codes = [(0,)]
    for _ in range(n - 1):
        codes = [c + (v,) for c in codes for v in range(max(c) + 2)]
    return codes
