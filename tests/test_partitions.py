"""Partition construction, ditsets, refinement order and lattice operations."""

from __future__ import annotations

import itertools
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from ditlab import partitions
from ditlab.errors import (
    BoundExceeded,
    EmptyBlock,
    IndexOutOfRange,
    OverlappingBlocks,
    PartitionError,
    UncoveredElement,
    UniverseMismatch,
)
from ditlab.partitions import (
    PairSet,
    Partition,
    Universe,
    bell_number,
    bottom,
    common_dits,
    ditset,
    enumerate_partitions,
    implication,
    inditset,
    is_dit,
    join,
    make_partition,
    meet,
    refines,
    top,
)


def _parts(n):
    return list(enumerate_partitions(n))


# ----------------------------------------------------------- construction

def test_make_partition_canonical_form():
    p = make_partition(4, [[3, 2], [1, 0]])
    assert p.blocks == ((0, 1), (2, 3))
    assert p == make_partition(4, [[0, 1], [2, 3]])


def test_make_partition_errors():
    with pytest.raises(OverlappingBlocks):
        make_partition(3, [[0, 1], [1, 2]])
    with pytest.raises(UncoveredElement):
        make_partition(3, [[0, 1]])
    with pytest.raises(EmptyBlock):
        make_partition(3, [[0, 1, 2], []])
    with pytest.raises(IndexOutOfRange):
        make_partition(3, [[0, 1, 3]])
    with pytest.raises(IndexOutOfRange):
        make_partition(3, [[0, 1, -1]])
    with pytest.raises(PartitionError):
        Universe(0)


def test_uncovered_elements_are_counted_not_listed():
    """Coverage is a count: a one-block document for a huge universe is refused at once."""
    start = time.perf_counter()
    with pytest.raises(UncoveredElement) as err:
        make_partition(10 ** 6, [[0]])
    assert time.perf_counter() - start < 0.1
    msg = str(err.value)
    assert len(msg) < 200 and "999999" in msg and msg.endswith("least is 1")


@given(st.integers(1, 9).flatmap(lambda n: st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
@settings(max_examples=200)
def test_grouped_equals_make_partition_block_for_block(labels):
    u = Universe(len(labels))
    groups: dict = {}
    for x, label in enumerate(labels):
        groups.setdefault(label, []).append(x)
    built = partitions._grouped(u, labels)
    assert built.blocks == make_partition(u, groups.values()).blocks
    assert built == Partition(u, tuple(reversed(built.blocks)))


@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, n - 1), min_size=n, max_size=n), st.randoms())))
@settings(max_examples=200)
def test_make_partition_matches_its_loop_reference(case):
    n, labels, rng = case
    groups: dict = {}
    for x, label in enumerate(labels):
        groups.setdefault(label, []).append(x)
    blocks = [rng.sample(b, len(b)) for b in groups.values()]
    rng.shuffle(blocks)
    built, want = make_partition(n, blocks), helpers.make_partition_loop(n, blocks)
    assert built.blocks == want.blocks and built._block_of == want._block_of


@pytest.mark.parametrize("n, blocks", [
    (3, [[0, 1], [], [2]]),  # an empty block
    (3, [[0, 1], [1, 2]]),  # a repeated element
    (3, [[0, 1], [2, 2]]),  # a repeated element within one block
    (3, [[0, 1], [3, 2]]),  # an element out of range
    (3, [[0, -1], [1, 2]]),  # a negative element
    (3, [[0, True], [2]]),  # a bool element
    (3, [[0, 1.0], [2]]),  # a float element
    (4, [[0, 1], [3]]),  # a missing element
    (10 ** 18, [[0]]),  # a universe far larger than its blocks
    (3, [[0, 5], []]),  # the first bad element in input order decides
    (3, [[0], [0], []]),
])
def test_make_partition_errors_match_its_loop_reference(n, blocks):
    with pytest.raises(PartitionError) as got:
        make_partition(n, blocks)
    with pytest.raises(PartitionError) as want:
        helpers.make_partition_loop(n, blocks)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def test_partition_is_hashable_and_comparable():
    a = make_partition(3, [[0, 2], [1]])
    b = make_partition(3, [[1], [2, 0]])
    assert a == b and hash(a) == hash(b)
    assert a != top(3)
    assert len({a, b, top(3)}) == 2


def test_block_lookup():
    p = make_partition(5, [[0, 3], [1, 2], [4]])
    assert p.block_containing(3) == 0
    assert p.same_block(1, 2)
    assert not p.same_block(0, 4)
    with pytest.raises(IndexOutOfRange):
        p.block_containing(5)


@pytest.mark.parametrize("x", [True, 1.0, "0", -1, 5])
def test_element_queries_refuse_what_is_not_an_element(x):
    p = make_partition(5, [[0, 3], [1, 2], [4]])
    for query in (p.block_containing, lambda x: p.same_block(0, x), lambda x: is_dit(p, x, 0)):
        with pytest.raises(IndexOutOfRange, match=re.escape(f"element {x!r} outside universe of size 5")):
            query(x)


# ---------------------------------------------------------------- ditsets

@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_top_bottom_dit_counts(n):
    assert len(ditset(top(n))) == n * n - n
    assert len(ditset(bottom(n))) == 0
    assert len(inditset(bottom(n))) == n * n


def test_dit_indit_complementary():
    p = make_partition(4, [[0, 1], [2, 3]])
    d, ind = ditset(p), inditset(p)
    assert d.intersection(ind).pairs == frozenset()
    assert len(d) + len(ind) == 16
    assert d.complement() == ind


def test_ditset_symmetric_irreflexive():
    for p in _parts(4):
        d = ditset(p)
        for a, b in d:
            assert a != b
            assert (b, a) in d


def test_is_dit_matches_materialized():
    for p in _parts(4):
        d = ditset(p)
        for a in range(4):
            for b in range(4):
                assert is_dit(p, a, b) == ((a, b) in d)


def test_ditset_materialization_bound():
    big = bottom(100)
    with pytest.raises(BoundExceeded):
        ditset(big)
    assert not is_dit(big, 3, 97)
    assert is_dit(top(100), 3, 97)


def test_pairset_universe_mismatch():
    with pytest.raises(UniverseMismatch):
        ditset(top(3)).union(ditset(top(4)))
    with pytest.raises(IndexOutOfRange):
        PairSet(Universe(2), frozenset({(0, 5)}))


def _labels(n):
    return st.lists(st.integers(0, n - 1), min_size=n, max_size=n)


# Two random partitions of one universe of size 1..8, from random labels.
_partition_pairs = st.integers(1, 8).flatmap(lambda n: st.tuples(_labels(n), _labels(n))).map(
    lambda pair: tuple(partitions._grouped(Universe(len(labels)), labels) for labels in pair))


@given(_partition_pairs)
@settings(max_examples=200)
def test_ditset_and_inditset_match_the_pairwise_reference(pair):
    for p in pair:
        assert ditset(p) == PairSet(p.universe, helpers.ditset_loop(p))
        assert inditset(p) == PairSet(p.universe, helpers.ditset_loop(p, distinct=False))


@given(_partition_pairs)
@settings(max_examples=200)
def test_pair_set_algebra_matches_frozenset_algebra(pair):
    d, e = (ditset(p) for p in pair)
    u = d.universe
    square = frozenset(itertools.product(range(u.size), repeat=2))
    for got, want in [(d.complement(), square - d.pairs), (inditset(pair[1]).complement(), e.pairs),
                      (d.union(e), d.pairs | e.pairs), (d.intersection(e), d.pairs & e.pairs),
                      (d.difference(e), d.pairs - e.pairs)]:
        assert type(got) is PairSet and got.universe == u
        assert type(got.pairs) is frozenset and got.pairs == want


@pytest.mark.parametrize("member", [(0.5, 1), (True, 0), (0, np.True_), (1, 2, 3), (1,), "ab", (0, 3), (-1, 0)])
def test_pairset_refuses_members_that_are_not_pairs_of_elements(member):
    with pytest.raises(IndexOutOfRange, match=re.escape(f"pair {member!r} outside universe of size 3")):
        PairSet(Universe(3), {member})


def test_pairset_accepts_numpy_integers():
    pairs = PairSet(Universe(3), {(np.int64(0), np.uint8(2)), (2, np.int32(1))})
    assert pairs == PairSet(Universe(3), {(0, 2), (2, 1)})


def test_make_partition_accepts_numpy_integer_elements():
    assert make_partition(3, np.array([[0, 1, 2]])) == bottom(3)
    p = make_partition(4, [[np.int64(3), np.uint8(0)], [1, np.int32(2)]])
    assert p.blocks == ((0, 3), (1, 2)) and all(type(x) is int for b in p.blocks for x in b)
    for blocks, error, message in [
        ([[np.int64(0), np.int64(3)]], IndexOutOfRange, f"element {np.int64(3)!r} outside universe of size 3"),
        ([[np.True_, 0, 2]], IndexOutOfRange, f"element {np.True_!r} outside universe of size 3"),
        ([[np.int64(1)], [0, 1, 2]], OverlappingBlocks, "element 1 appears in more than one block"),
    ]:
        with pytest.raises(error, match=re.escape(message)):
            make_partition(3, blocks)


def test_make_partition_keeps_the_input_ints_and_returns_its_block_map():
    """The blocks hold the document's own int objects, not copies, and ``_block_of`` is set."""
    n = 1000
    blocks = [list(range(n - 1, 499, -1)), list(range(0, 500, 2)), list(range(1, 500, 2))]
    own = {x: x for b in blocks for x in b}
    p = make_partition(n, blocks)
    assert "_block_of" in p.__dict__
    assert all(x is own[x] for b in p.blocks for x in b if x > 256)
    assert p.blocks == (tuple(range(0, 500, 2)), tuple(range(1, 500, 2)), tuple(range(500, n)))
    assert p._block_of == helpers.make_partition_loop(n, blocks)._block_of


# ------------------------------------------------------------- refinement

def test_refines_examples():
    assert refines(bottom(4), make_partition(4, [[0, 1], [2, 3]]))
    assert refines(make_partition(4, [[0, 1], [2, 3]]), top(4))
    crossed = make_partition(4, [[0, 2], [1, 3]])
    assert not refines(make_partition(4, [[0, 1], [2, 3]]), crossed)
    assert not refines(crossed, make_partition(4, [[0, 1], [2, 3]]))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_refines_equals_ditset_inclusion(n):
    parts = [(p, ditset(p)) for p in _parts(n)]
    for (s, ds), (p, dp) in itertools.product(parts, parts):
        assert refines(s, p) == ds.issubset(dp)


def test_refines_partial_order():
    parts = _parts(4)
    for a, b in itertools.product(parts, parts):
        if refines(a, b) and refines(b, a):
            assert a == b
    for a, b, c in itertools.product(parts[:8], parts[:8], parts[:8]):
        if refines(a, b) and refines(b, c):
            assert refines(a, c)


def test_refines_universe_mismatch():
    with pytest.raises(UniverseMismatch):
        refines(top(3), top(4))


# ------------------------------------------------------------ join / meet

def test_join_meet_examples():
    blocky = make_partition(4, [[0, 1], [2, 3]])
    crossed = make_partition(4, [[0, 2], [1, 3]])
    assert join(blocky, crossed) == top(4)
    assert meet(blocky, crossed) == bottom(4)
    p = make_partition(5, [[0, 1, 2], [3, 4]])
    assert join(p, top(5)) == top(5)
    assert join(p, bottom(5)) == p
    assert meet(p, top(5)) == p
    assert meet(p, bottom(5)) == bottom(5)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_join_ditset_is_union(n):
    parts = [(p, ditset(p)) for p in _parts(n)]
    for (a, da), (b, db) in itertools.product(parts, parts):
        assert ditset(join(a, b)) == da.union(db)


def test_lattice_laws():
    parts = _parts(4)
    for a, b in itertools.product(parts, parts):
        assert join(a, b) == join(b, a)
        assert meet(a, b) == meet(b, a)
        assert join(a, meet(a, b)) == a
        assert meet(a, join(a, b)) == a
    for a, b, c in itertools.product(parts[:8], parts[:8], parts[:8]):
        assert join(join(a, b), c) == join(a, join(b, c))
        assert meet(meet(a, b), c) == meet(a, meet(b, c))


def test_join_meet_are_bounds():
    parts = _parts(4)
    for a, b in itertools.product(parts, parts):
        j = join(a, b)
        m = meet(a, b)
        assert refines(a, j) and refines(b, j)
        assert refines(m, a) and refines(m, b)
    # least/greatest among all candidates on a smaller universe
    small = _parts(3)
    for a, b in itertools.product(small, small):
        j, m = join(a, b), meet(a, b)
        for c in small:
            if refines(a, c) and refines(b, c):
                assert refines(j, c)
            if refines(c, a) and refines(c, b):
                assert refines(c, m)


def test_meet_universe_mismatch():
    with pytest.raises(UniverseMismatch):
        meet(top(3), bottom(4))


# ------------------------------------------------------------ implication

def test_implication_examples():
    sigma = make_partition(4, [[0, 1], [2, 3]])
    pi = make_partition(4, [[0], [1], [2, 3]])
    assert implication(sigma, pi) == top(4)
    for p in _parts(4):
        assert implication(top(4), p) == p


def test_implication_discretizes_contained_blocks():
    sigma = make_partition(5, [[0, 1, 2], [3, 4]])
    pi = make_partition(5, [[0, 1], [2, 3], [4]])
    # {0,1} sits inside {0,1,2} -> singletons; {2,3} straddles -> kept
    assert implication(sigma, pi) == make_partition(5, [[0], [1], [2, 3], [4]])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_implication_top_iff_refines(n):
    parts = _parts(n)
    for s, p in itertools.product(parts, parts):
        assert (implication(s, p) == top(n)) == refines(s, p)


# ------------------------------------------------------------ enumeration

def test_bell_numbers():
    assert [bell_number(n) for n in range(10)] == [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_enumeration_count_and_extremes(n):
    parts = _parts(n)
    assert len(parts) == bell_number(n)
    assert len(set(parts)) == len(parts)
    assert parts[0] == bottom(n)
    assert parts[-1] == top(n)


def test_enumeration_bound():
    with pytest.raises(BoundExceeded):
        list(enumerate_partitions(10))
    assert len(list(enumerate_partitions(10, bound=10))) == 115975


def test_enumeration_refusal_does_not_format_the_bell_number():
    # B(2300) has more digits than Python converts to text by default.
    with pytest.raises(BoundExceeded, match="n=2300 universe exceeds bound 9"):
        next(enumerate_partitions(2300))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_growth_strings_are_every_code_in_order_and_kernels_return_codes(n):
    codes = partitions._growth_strings(n)
    assert codes == sorted(set(codes)) and len(codes) == bell_number(n)
    assert all(c[0] == 0 and all(c[i] <= max(c[:i]) + 1 for i in range(1, n)) for c in codes)
    canonical = set(codes)
    for a, b in itertools.product(codes, codes):
        for kernel in (partitions._join_code, partitions._meet_code, partitions._implication_code):
            assert kernel(a, b) in canonical


# ------------------------------------------------------------ common dits

def test_common_dits_examples():
    blocky = make_partition(4, [[0, 1], [2, 3]])
    crossed = make_partition(4, [[0, 2], [1, 3]])
    c = common_dits(blocky, crossed)
    assert len(c) > 0
    assert c == ditset(blocky).intersection(ditset(crossed))
    assert len(common_dits(blocky, bottom(4))) == 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_common_dits_nonempty_for_nontrivial_pairs(n):
    parts = [p for p in _parts(n) if not p.is_bottom()]
    for a, b in itertools.product(parts, parts):
        assert len(common_dits(a, b)) > 0
