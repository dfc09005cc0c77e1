"""Partition construction, ditsets, refinement order and lattice operations."""

from __future__ import annotations

import copy
import dataclasses
import itertools
import pickle
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from ditlab import partitions
from ditlab.classical import ProbDist, product_measure, shannon_profile
from ditlab.errors import (
    BoundExceeded,
    EmptyBlock,
    IndexOutOfRange,
    OverlappingBlocks,
    PartitionError,
    UncoveredElement,
    UniverseMismatch,
    _lazy,
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


#: Block elements of every kind: in and out of range, bools and floats.
_ELEMENTS = st.one_of(st.integers(-1, 7), st.booleans(), st.sampled_from([0.0, 1.0, 2.5]))


@st.composite
def block_lists(draw):
    """A universe size and blocks that partition it, in any order, or arbitrary blocks of any elements."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        groups: dict = {}
        for x, label in enumerate(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))):
            groups.setdefault(label, []).append(x)
        return n, draw(st.permutations(list(groups.values())))
    return n, draw(st.lists(st.lists(_ELEMENTS, max_size=4), max_size=4))


@example((3, [[0], [1]]))
@example((3, [[0, 1], [1, 2]]))
@example((3, [[0, 5]]))
@given(block_lists())
@settings(max_examples=300)
def test_the_constructor_validates_blocks_as_make_partition_does(case):
    """Both give the same partition, or raise the same exception class with the same message."""
    n, blocks = case

    def outcome(build):
        try:
            return build()
        except Exception as e:
            return type(e), str(e)

    got = outcome(lambda: Partition(Universe(n), tuple(map(tuple, blocks))))
    sized = outcome(lambda: Partition(n, tuple(map(tuple, blocks))))
    want = outcome(lambda: make_partition(n, blocks))
    assert got == want and sized == want
    if isinstance(want, Partition):
        assert got.blocks == want.blocks
        assert sized.universe == Universe(n) and hash(sized) == hash(want) and repr(sized) == repr(want)


def test_a_universe_size_may_be_a_numpy_integer_and_is_kept_as_an_int():
    u = Universe(np.int64(3))
    assert u == Universe(3) and type(u.size) is int and hash(u) == hash(Universe(3))
    assert top(np.int64(3)) == top(3) and make_partition(np.uint8(3), [[0, 1], [2]]) == make_partition(3, [[0, 1], [2]])
    for bad in (0, True, np.True_, 3.0, "3"):
        with pytest.raises(PartitionError) as err:
            Universe(bad)
        assert str(err.value) == f"universe size must be an integer >= 1, got {bad!r}"


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


def test_pairset_refuses_an_unhashable_member():
    with pytest.raises(IndexOutOfRange, match=re.escape("pair [0, 1] outside universe of size 3")):
        PairSet(Universe(3), [[0, 1]])


def test_pairset_accepts_numpy_integers():
    pairs = PairSet(Universe(3), {(np.int64(0), np.uint8(2)), (2, np.int32(1))})
    assert pairs == PairSet(Universe(3), {(0, 2), (2, 1)})
    assert repr(pairs) == repr(PairSet(Universe(3), {(0, 2), (2, 1)}))
    assert PairSet(3, {(0, 2), (2, 1)}) == PairSet(Universe(3), {(0, 2), (2, 1)})


def test_a_pair_set_from_the_constructor_prints_as_its_sorted_twin():
    """The repr of a checked pair set does not depend on the order in which its pairs were given."""
    rng = np.random.default_rng(24)
    for _ in range(500):
        n = int(rng.integers(2, 10))
        pairs = [pair for pair in itertools.product(range(n), repeat=2) if rng.random() < 0.5]
        shuffled = [pairs[i] for i in rng.permutation(len(pairs))]
        s = PairSet(Universe(n), shuffled)
        assert repr(s) == repr(PairSet(Universe(n), pairs)) and s.pairs == frozenset(pairs)


def _built_and_wanted(pair) -> list:
    """Each kind of pair set the library builds from two partitions, with the frozenset it holds."""
    d, e = (ditset(p) for p in pair)
    want_d, want_e = (helpers.ditset_loop(p) for p in pair)
    square = frozenset(itertools.product(range(d.universe.size), repeat=2))
    return [(d, want_d), (inditset(pair[0]), square - want_d), (d.complement(), square - want_d),
            (d.union(e), want_d | want_e), (d.intersection(e), want_d & want_e),
            (d.difference(e), want_d - want_e), (common_dits(*pair), want_d & want_e)]


@given(_partition_pairs)
@settings(max_examples=100)
def test_a_pair_set_the_library_builds_behaves_as_one_from_the_constructor(pair):
    n = pair[0].universe.size
    members = list(itertools.product(range(n), repeat=2))
    for built, want in _built_and_wanted(pair):
        twin = PairSet(built.universe, sorted(want))
        # The copies are taken before anything reads the built set's pairs.
        for s in (pickle.loads(pickle.dumps(built)), copy.copy(built), built):
            assert s == twin and twin == s and hash(s) == hash(twin)
            assert repr(s) == repr(twin)
            assert type(s.pairs) is frozenset and s.pairs == want
            assert all(type(a) is int and type(b) is int for a, b in s.pairs)
            assert len(s) == len(want) and list(s) == sorted(want)
            assert [m in s for m in members] == [m in want for m in members]
            assert dataclasses.replace(s) == s
        assert built.issubset(twin) and twin.issubset(built)


def test_the_derived_fields_are_lazy_fields():
    for cls, name in ((ProbDist, "weights"), (PairSet, "pairs"), (Partition, "blocks")):
        assert isinstance(vars(cls)[name], _lazy)


def test_the_length_of_a_ditset_is_read_without_forming_its_pairs():
    d = ditset(make_partition(4, [[0, 1], [2, 3]]))
    assert len(d) == 8 and "pairs" not in vars(d)


def test_a_pair_set_from_the_constructor_on_a_large_universe_forms_no_square_array():
    n = 10 ** 6
    weights = [0.0] * n
    weights[0], weights[1], weights[-1] = 0.5, 0.25, 0.25
    tracemalloc.start()
    try:
        p = ProbDist(tuple(weights))
        s = PairSet(Universe(n), {(0, 1), (n - 1, 0), (3, 3)})
        t = PairSet(Universe(n), [(0, 1), (1, 0)])
        measure = product_measure(s, p)
        assert type(s.pairs) is frozenset
        assert s.union(t) == PairSet(Universe(n), {(0, 1), (1, 0), (n - 1, 0), (3, 3)})
        assert s.difference(t) == PairSet(Universe(n), {(n - 1, 0), (3, 3)})
        assert len(s) == 3 and (n - 1, 0) in s and (0, 0) not in s
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert measure == 0.25 and type(measure) is float
    assert peak < 64 * 2 ** 20


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
    """``_block_of`` is set, and the blocks formed from it are canonical and match the reference's code."""
    n = 1000
    blocks = [list(range(n - 1, 499, -1)), list(range(0, 500, 2)), list(range(1, 500, 2))]
    p = make_partition(n, blocks)
    assert "_block_of" in p.__dict__
    assert p.blocks == (tuple(range(0, 500, 2)), tuple(range(1, 500, 2)), tuple(range(500, n)))
    assert p._block_of == helpers.make_partition_loop(n, blocks)._block_of


@pytest.mark.parametrize("seed", range(5))
def test_a_validated_partition_forms_its_blocks_when_first_read(seed):
    """Shuffled blocks, of Python or numpy ints, are read as canonical blocks of Python ints."""
    rng = np.random.default_rng(seed)
    n = 12
    labels = rng.integers(0, 4, n)
    blocks = [rng.permutation(np.flatnonzero(labels == i)) for i in rng.permutation(4) if (labels == i).any()]
    want = tuple(sorted(tuple(sorted(b.tolist())) for b in blocks))
    for doc in ([b.tolist() for b in blocks], [[np.uint8(x) for x in b] for b in blocks], blocks):
        p = make_partition(n, doc)
        assert "blocks" not in vars(p)
        got = p.blocks
        assert vars(p)["blocks"] is got and got == want
        assert all(type(x) is int for b in got for x in b)


def test_make_partition_at_a_million_elements_retains_only_its_code():
    """Two 20-block documents, one in canonical and one in reversed block order: each keeps one n-tuple."""
    n = 10 ** 6
    labels = np.random.default_rng(24).integers(0, 20, n)
    canonical = sorted((np.flatnonzero(labels == i).tolist() for i in range(20)), key=min)
    for blocks in (canonical, canonical[::-1]):
        tracemalloc.start()
        try:
            p = make_partition(n, blocks)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 10 * 2 ** 20 and "blocks" not in vars(p)


def _codes_only(n):
    """One partition of each kind the library builds on a universe of size ``n``, none of them read."""
    a, b = make_partition(n, [range(0, n, 2), range(1, n, 2)]), make_partition(n, [range(n // 2), range(n // 2, n)])
    return [join(a, b), meet(a, b), implication(a, b), implication(b, a), top(n), bottom(n),
            partitions._grouped(Universe(n), [x % 3 for x in range(n)]), Partition(Universe(n), b.blocks[::-1]),
            *enumerate_partitions(min(n, 4))]


@pytest.mark.parametrize("n", [2, 5, 9])
def test_partitions_the_library_builds_keep_their_code_and_form_no_blocks(n):
    for p in _codes_only(n):
        u = p.universe
        p.n_blocks, p.is_top(), p.is_bottom(), p.block_containing(0), is_dit(p, 0, u.size - 1)
        refines(p, top(u)), refines(bottom(u), p), ditset(p), inditset(p)
        assert "blocks" not in vars(p) and "_block_of" in vars(p)
        blocks = p.blocks
        assert vars(p)["blocks"] is blocks and p.n_blocks == len(blocks)
        assert blocks == make_partition(u, blocks).blocks


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_a_partition_the_library_builds_behaves_as_one_from_the_constructor(n):
    parts = _parts(n)
    u = Universe(n)
    for a, b in itertools.product(parts, parts):
        for built in (join(a, b), meet(a, b), implication(a, b)):
            groups: dict = {}
            for x, i in enumerate(built._block_of):
                groups.setdefault(i, []).append(x)
            # One twin from the constructor, one from make_partition's validating pass.
            twins = (Partition(u, tuple(map(tuple, groups.values()))[::-1]), make_partition(u, groups.values()))
            # The copies are taken before anything reads the built partition's blocks.
            for s in (pickle.loads(pickle.dumps(built)), copy.copy(built), built):
                assert "blocks" not in vars(s)
                for twin in twins:
                    assert s == twin and twin == s and hash(s) == hash(twin)
                assert repr(s) == repr(twins[0]) == repr(twins[1])
                assert s.blocks == twins[1].blocks and all(type(x) is int for b in s.blocks for x in b)
                assert pickle.loads(pickle.dumps(s)) == s and copy.copy(s).blocks == s.blocks
                assert dataclasses.replace(s) == s


def test_a_shannon_profile_forms_no_blocks_of_its_join(monkeypatch):
    n = 10 ** 4
    rng = np.random.default_rng(7)
    pi, sigma = (partitions._grouped(Universe(n), rng.integers(0, 20, n).tolist()) for _ in range(2))
    built = []
    real = partitions._coded

    def recorded(u, code):
        built.append(real(u, code))
        return built[-1]

    monkeypatch.setattr(partitions, "_coded", recorded)
    shannon_profile(pi, sigma, ProbDist((1 / n,) * n))
    assert built and built[0] == join(pi, sigma)
    assert not any("blocks" in vars(p) for p in (pi, sigma, *built))


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
