"""Independent oracles linked to each other, and re-checks that must raise."""

from __future__ import annotations

import dataclasses
import io
import json
import math
from dataclasses import astuple
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from ditlab import classical, cli, density, errors, logic, partitions, quantum
from ditlab.classical import (
    EntropyProfile, JointDist, ProbDist, block_probabilities, entropy_profile, twoset_profile,
)
from ditlab.errors import InternalInconsistency
from ditlab.partitions import PairSet, Universe, ditset, join, make_partition, top
from ditlab.quantum import Observable, measure, spectral_pair_bruteforce


def _partition(labels):
    blocks = {}
    for x, label in enumerate(labels):
        blocks.setdefault(label, []).append(x)
    return make_partition(len(labels), blocks.values())


def _exact_weights(n):
    counts = st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(any)
    return counts.map(lambda c: tuple(Fraction(x, sum(c)) for x in c))


@st.composite
def exact_pairs(draw):
    n = draw(st.integers(1, 5))
    labels = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    return _partition(draw(labels)), _partition(draw(labels)), ProbDist(draw(_exact_weights(n)))


@given(exact_pairs())
@settings(max_examples=80, deadline=None)
def test_region_table_equals_ditset_regions_on_a_diagonal_joint(case):
    pi, sigma, p = case
    n = p.size
    diag = JointDist(tuple(
        tuple(p.weights[x] if x == y else 0 for y in range(n)) for x in range(n)
    ))
    assert twoset_profile(pi, sigma, diag, "regions") == entropy_profile(pi, sigma, p, "regions")


@given(
    st.integers(1, 5).flatmap(_exact_weights),
    st.integers(1, 5).flatmap(_exact_weights),
)
@settings(max_examples=60, deadline=None)
def test_spectral_oracle_equals_top_top_two_set_regions(lam, mu):
    lam = [float(x) for x in lam]
    mu = [float(x) for x in mu]
    joint = JointDist(tuple(tuple(a * b for b in mu) for a in lam))
    brute = spectral_pair_bruteforce(lam, mu)
    table = twoset_profile(top(len(lam)), top(len(mu)), joint, "regions")
    for a, b in zip(astuple(brute), astuple(table)):
        assert abs(a - b) <= 1e-12


# ------------------------------------------------ the region kernel vs the loop

def _same(x, y):
    """Equal, of one type, and with one sign, so -0.0 and 0.0 differ."""
    return type(x) is type(y) and x == y and math.copysign(1, x) == math.copysign(1, y)


@st.composite
def float_cells(draw):
    n = draw(st.integers(1, 40))
    # Tiny and negative weights make products that round to +-0.0.
    value = st.one_of(st.just(0.0), st.floats(-1e3, 1e3), st.floats(-1e-160, 1e-160))
    weights = draw(st.lists(value, min_size=n, max_size=n))
    if draw(st.booleans()):
        weights = list(np.array(weights))
    ids = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    return weights, draw(ids), draw(ids)


@given(float_cells(), st.integers(1, 64))
@example(([1e-170, -1e-170], [0, 1], [0, 1]), 1)  # t[1][1] holds two -0.0 products only
@settings(max_examples=300, deadline=None)
def test_region_kernel_equals_the_loop_bit_for_bit_on_float_weights(cells, chunk):
    with mock.patch.object(classical, "_REGION_CHUNK", chunk):
        got = classical._region_table(*cells)
    want = helpers.region_table_loop(*cells)
    assert all(_same(got[i][j], want[i][j]) for i in (0, 1) for j in (0, 1)), (got, want)


@st.composite
def exact_cells(draw):
    n = draw(st.integers(1, 30))
    # Denominators up to 2**40 put D^2, and the sums, past int64.
    top_den = draw(st.sampled_from([12, 2 ** 40]))
    value = st.builds(Fraction, st.integers(0, 9), st.integers(1, top_den)) | st.integers(0, 3)
    ids = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    return draw(st.lists(value, min_size=n, max_size=n)), draw(ids), draw(ids)


@given(exact_cells(), st.integers(1, 64))
@settings(max_examples=200, deadline=None)
def test_region_kernel_equals_the_loop_on_exact_weights(cells, chunk):
    with mock.patch.object(classical, "_REGION_CHUNK", chunk):
        assert classical._region_table(*cells) == helpers.region_table_loop(*cells)


def test_region_kernel_sums_past_int64_in_python_ints():
    weights = [Fraction(1, 2 ** 32 + 1), Fraction(1, 2 ** 32 + 3), Fraction(5, 7)]
    d = math.lcm(*(w.denominator for w in weights))
    assert d * d >= 2 ** 63
    t = classical._region_table(weights, [0, 0, 1], [0, 1, 1])
    assert t == helpers.region_table_loop(weights, [0, 0, 1], [0, 1, 1])
    assert all(isinstance(v, Fraction) for row in t for v in row)


@pytest.mark.parametrize("n", [1, 255, 256, 257])
def test_region_kernel_at_the_chunk_boundary(n):
    """256 cells fill one chunk of 2**16 pairs exactly."""
    assert classical._REGION_CHUNK == 256 ** 2
    rng = np.random.default_rng(n)
    weights = [float(x) for x in rng.random(n)]
    ids_a, ids_b = rng.integers(0, 5, n).tolist(), rng.integers(0, 3, n).tolist()
    want = helpers.region_table_loop(weights, ids_a, ids_b)
    got = classical._region_table(weights, ids_a, ids_b)
    assert all(_same(got[i][j], want[i][j]) for i in (0, 1) for j in (0, 1))


#: The narrow and the wide weight of each kind: a region's total is wide if one of its pairs is.
_REGION_KINDS = {
    "int/Fraction": (int, lambda k: Fraction(k, 7)),
    "float": (lambda k: k / 7, lambda k: k / 7),
    "np.float64": (lambda k: np.float64(k / 7), lambda k: np.float64(k / 7)),
    "float/np.float64": (lambda k: k / 7, lambda k: np.float64(k / 7)),
}


def _region_cases(kind, cells, rng):
    """Weight lists with ``cells`` nonzero weights and zeros between them, and their two id lists.

    In case 0 every weight is narrow but the last, and one region's pairs hold narrow weights only.
    """
    narrow, wide = _REGION_KINDS[kind]
    for case in range(20):
        ks = [int(k) for k in rng.integers(1, 9, cells)]
        nonzero = [(wide if case and rng.random() < 0.5 else narrow)(k) for k in ks[:-1]] + [wide(ks[-1])]
        weights = []
        for w in nonzero:
            weights += [w] + [narrow(0), wide(0)][:int(rng.integers(0, 3))]
        n = len(weights)
        if case == 0:  # every cell in its own a-block, the last nonzero weight alone in b-block 1
            ids_a, ids_b = list(range(n)), [0] * n
            ids_b[max(i for i, w in enumerate(weights) if w)] = 1
        else:
            ids_a, ids_b = rng.integers(0, 3, n).tolist(), rng.integers(0, 2, n).tolist()
        yield weights, ids_a, ids_b


@pytest.mark.parametrize("kind", sorted(_REGION_KINDS))
@pytest.mark.parametrize("above", [0, 1])
def test_both_region_paths_equal_the_loop_bit_for_bit_and_type_for_type(monkeypatch, kind, above):
    """The Python loop runs up to ``_REGION_LOOP_CELLS`` nonzero cells, the numpy kernel above."""
    cells = classical._REGION_LOOP_CELLS + above
    kernel = helpers.count_calls(monkeypatch, classical, "_region_kernel")
    for weights, ids_a, ids_b in _region_cases(kind, cells, np.random.default_rng(cells)):
        got = classical._region_table(weights, ids_a, ids_b)
        want = helpers.region_table_loop(weights, ids_a, ids_b)
        assert all(_same(got[i][j], want[i][j]) for i in (0, 1) for j in (0, 1)), (got, want)
    assert len(kernel) == 20 * above


@pytest.mark.parametrize("above", [0, 1])
def test_both_region_paths_refuse_a_runaway_denominator(above):
    cells = classical._REGION_LOOP_CELLS + above
    weights = [Fraction(1, 10 ** 4000 + 2 * i + 1) for i in range(cells)]
    with pytest.raises(errors.BoundExceeded, match="common denominator"):
        classical._region_table(weights, range(cells), range(cells))


@pytest.mark.parametrize("weight", [0.375, np.float64(0.375), Fraction(3, 8)])
def test_region_kernel_with_a_single_nonzero_weight(weight):
    weights = [0.0] * 5 + [weight] + [0] * 5
    t = classical._region_table(weights, range(11), range(11))
    assert t == helpers.region_table_loop(weights, range(11), range(11)) == [[weight * weight, 0], [0, 0]]
    assert type(t[0][0]) is type(weight) and [type(v) for v in t[0][1:] + t[1]] == [int] * 3


def test_region_kernel_sums_past_int64_in_python_ints_above_the_loop_cut_off(monkeypatch):
    weights = [Fraction(1, 2 ** 32 + 1), Fraction(1, 2 ** 32 + 3)] + [Fraction(k, 7) for k in range(1, 12)]
    d = math.lcm(*(w.denominator for w in weights))
    assert d * d >= 2 ** 63 and len(weights) > classical._REGION_LOOP_CELLS
    ids_a, ids_b = [k % 3 for k in range(13)], [k % 2 for k in range(13)]
    kernel = helpers.count_calls(monkeypatch, classical, "_region_kernel")
    t = classical._region_table(weights, ids_a, ids_b)
    assert len(kernel) == 1
    assert t == helpers.region_table_loop(weights, ids_a, ids_b)
    assert all(isinstance(v, Fraction) for row in t for v in row)


@pytest.mark.parametrize("chunk", [1, 40, 97, 2 ** 16])
def test_region_kernel_on_mixed_float_weights_across_chunks(chunk):
    """Plain floats beside ``np.float64``: a region is ``np.float64`` once one of its pairs holds one.

    In case 0 the one ``np.float64`` is the last weight, alone in b-block 1,
    so it reaches the kernel in its last chunk and one region holds plain
    floats only; the other cases mix the two kinds at random.
    """
    rng = np.random.default_rng(chunk)
    for case in range(10):
        n = 40
        weights = [k / 7 for k in rng.integers(1, 9, n).tolist()]
        if case == 0:
            weights[-1] = np.float64(weights[-1])
            ids_a, ids_b = list(range(n)), [0] * (n - 1) + [1]
        else:
            weights = [np.float64(w) if rng.random() < 0.2 else w for w in weights]
            ids_a, ids_b = rng.integers(0, 3, n).tolist(), rng.integers(0, 2, n).tolist()
        with mock.patch.object(classical, "_REGION_CHUNK", chunk):
            got = classical._region_table(weights, ids_a, ids_b)
        want = helpers.region_table_loop(weights, ids_a, ids_b)
        assert all(_same(got[i][j], want[i][j]) for i in (0, 1) for j in (0, 1)), (case, got, want)
        if case == 0:
            assert [type(v) for row in got for v in row] == [np.float64, int, float, np.float64]


@pytest.mark.parametrize("dim", [13, 16, 64])
def test_h_observable_state_value_is_the_pair_loop_bit_for_bit(monkeypatch, dim):
    """``value``, which ``ditlab measure`` prints as ``h_F_psi``, is the kernel's sum over the qudits."""
    rng = np.random.default_rng(dim)
    kernel = helpers.count_calls(monkeypatch, classical, "_region_kernel")
    for _ in range(3):
        F = helpers.random_observable(rng, dim, basis="random")
        psi = helpers.random_state(rng, dim)
        p = np.abs(quantum._measured(F, psi).amp) ** 2
        want = float(helpers.region_table_loop(p, F.eigenvalue_partition()._block_of, [0] * dim)[1][0])
        assert quantum.h_observable_state(F, psi).value == want
    assert len(kernel) == 3


# ------------------------------------------------ the ditset oracle's product measure vs the fold

def _regions_of(n):
    return st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))).map(
        lambda pairs: PairSet(Universe(n), pairs))


@st.composite
def exact_measure_cases(draw):
    """A pair set and int 0, Fraction 0 and Fraction weights, over denominators past 2**64 if drawn."""
    n = draw(st.integers(1, 7))
    kinds = draw(st.lists(st.sampled_from(["int 0", "Fraction 0", "Fraction"]), min_size=n, max_size=n))
    counts = [draw(st.integers(1, draw(st.sampled_from([9, 2 ** 70])))) if k == "Fraction" else 0
              for k in kinds]
    if not any(counts):  # one int 1 or Fraction(1, 1) carries all the weight
        kinds[0], counts[0] = draw(st.sampled_from(["int", "Fraction"])), 1
    s = sum(counts)
    weights = [0 if k == "int 0" else Fraction(c, s) if k.startswith("Fraction") else c
               for k, c in zip(kinds, counts)]
    return draw(_regions_of(n)), ProbDist(tuple(weights))


@given(exact_measure_cases())
@example((PairSet(Universe(2), {(0, 1), (1, 1)}),
          ProbDist((Fraction(1, 2 ** 65), Fraction(2 ** 65 - 1, 2 ** 65)))))
@example((PairSet(Universe(3), {(1, 2), (2, 1)}), ProbDist((1, Fraction(0, 1), 0))))
@example((PairSet(Universe(3), {(0, 2), (2, 2)}), ProbDist((1, Fraction(0, 1), 0))))
@example((PairSet(Universe(2), set()), ProbDist((Fraction(1, 3), Fraction(2, 3)))))
@settings(max_examples=300, deadline=None)
def test_product_measure_equals_the_fold_in_value_and_type_on_exact_weights(case):
    region, p = case
    got, want = classical.product_measure(region, p), helpers.product_measure_loop(region, p)
    assert got == want and type(got) is type(want), (got, want)


@st.composite
def float_measure_cases(draw):
    n = draw(st.integers(1, 7))
    raw = draw(st.lists(st.one_of(st.just(0.0), st.floats(0, 1), st.floats(0, 1e-160)),
                        min_size=n, max_size=n).filter(lambda w: sum(w) > 0.1))
    weights = [x / sum(raw) for x in raw]
    if draw(st.booleans()):
        weights = list(np.array(weights))
    return draw(_regions_of(n)), ProbDist(tuple(weights))


@given(float_measure_cases())
@settings(max_examples=300, deadline=None)
def test_product_measure_equals_the_fold_bit_for_bit_on_float_weights(case):
    region, p = case
    assert _same(classical.product_measure(region, p), helpers.product_measure_loop(region, p))


# ------------------------------------------------ the ditset oracle vs its frozenset loop

_WEIGHT_KINDS = ("int and Fraction", "float", "np.float64", "float and np.float64", "int among floats")


@st.composite
def _weights(draw, n, kind):
    """``n`` weights of ``kind`` (one of ``_WEIGHT_KINDS``) that sum to one, zero weights among them if drawn."""
    if kind == "int and Fraction":
        kinds = draw(st.lists(st.sampled_from(["int 0", "Fraction 0", "Fraction"]), min_size=n, max_size=n))
        counts = [draw(st.integers(1, draw(st.sampled_from([9, 2 ** 70])))) if k == "Fraction" else 0
                  for k in kinds]
        if not any(counts):  # one int 1 or Fraction(1, 1) carries all the weight
            kinds[0], counts[0] = draw(st.sampled_from(["int", "Fraction"])), 1
        s = sum(counts)
        return tuple(0 if k == "int 0" else Fraction(c, s) if k.startswith("Fraction") else c
                     for k, c in zip(kinds, counts))
    zero = st.just(0) if kind == "int among floats" else st.sampled_from([0.0, -0.0])
    raw = draw(st.lists(st.one_of(zero, st.floats(0, 1), st.floats(0, 1e-160)),
                        min_size=n, max_size=n).filter(lambda w: sum(w) > 0.1))
    total = sum(raw)
    weights = [x / total if isinstance(x, float) else x for x in raw]
    if kind == "int among floats" and draw(st.booleans()):  # an int 1 carries all the weight
        weights = [0.0 if isinstance(x, float) else 0 for x in weights]
        weights[draw(st.integers(0, n - 1))] = 1
    if kind == "np.float64":
        weights = list(map(np.float64, weights))
    if kind == "float and np.float64":
        weights = [np.float64(x) if draw(st.booleans()) else x for x in weights]
    return tuple(weights)


def _block_labels(n):
    """Labels of ``n`` points in a drawn number of blocks."""
    return st.integers(1, n).flatmap(lambda k: st.lists(st.integers(0, k - 1), min_size=n, max_size=n))


@st.composite
def oracle_cases(draw):
    n = draw(st.integers(1, 8))
    p = ProbDist(draw(_weights(n, draw(st.sampled_from(_WEIGHT_KINDS)))))
    return _partition(draw(_block_labels(n))), _partition(draw(_block_labels(n))), p


@given(oracle_cases())
@settings(max_examples=500, deadline=None)
def test_ditset_oracle_equals_the_frozenset_loop_in_value_and_type(case):
    got, want = entropy_profile(*case, "regions"), helpers.ditset_oracle_loop(*case)
    assert all(map(_same, astuple(got), astuple(want))), (got, want)


def _seeded_weights(rng, n, kind) -> tuple:
    """Weights of ``kind`` with a few zeros; ``"past 2**63"`` is exact over a denominator ``D`` with ``D^2 > 2^63``."""
    if kind in ("int and Fraction", "past 2**63"):
        counts = [int(c) for c in rng.integers(0, 2 ** 40 if kind == "past 2**63" else 12, size=n)]
        counts[:3] = 0, 0, 1
        s = sum(counts)
        return tuple(0 if i == 0 else Fraction(c, s) for i, c in enumerate(counts))
    raw = rng.random(n)
    raw[:2] = 0.0
    w = raw / raw.sum()
    if kind == "float and np.float64":
        return tuple(x if i % 2 else float(x) for i, x in enumerate(w))
    return tuple(w.tolist() if kind == "float" else w)


@pytest.mark.parametrize("n, kind, seed", [
    (63, "int and Fraction", 630), (64, "int and Fraction", 640), (64, "past 2**63", 641),
    (63, "past 2**63", 631), (63, "float", 632), (64, "float", 642), (64, "np.float64", 643),
    (64, "float and np.float64", 644),
])
def test_ditset_oracle_equals_the_frozenset_loop_at_the_materialize_bound(n, kind, seed):
    rng = np.random.default_rng(seed)
    pi, sigma = helpers.random_partition(rng, n), helpers.random_partition(rng, n)
    p = ProbDist(_seeded_weights(rng, n, kind))
    if kind == "past 2**63":
        assert p._terms[1] ** 2 > 2 ** 63
    got, want = entropy_profile(pi, sigma, p, "regions"), helpers.ditset_oracle_loop(pi, sigma, p)
    assert all(map(_same, astuple(got), astuple(want))), (got, want)


@st.composite
def ditset_region_cases(draw):
    """A region made by ditset algebra on two partitions of at most 64 points, and weights of one kind."""
    n = draw(st.one_of(st.integers(1, 8), st.integers(9, classical.DITSET_MATERIALIZE_BOUND)))
    d, e = (ditset(_partition(draw(_block_labels(n)))) for _ in range(2))
    region = draw(st.sampled_from([d, d.complement(), d.union(e), d.intersection(e), d.difference(e)]))
    return region, ProbDist(draw(_weights(n, draw(st.sampled_from(_WEIGHT_KINDS)))))


@given(ditset_region_cases())
@example((ditset(top(2)), ProbDist((-0.0, 1.0))))  # every product is -0.0, the fold's total 0.0
@settings(max_examples=200, deadline=None)
def test_product_measure_equals_the_fold_on_regions_of_ditset_algebra(case):
    region, p = case
    assert _same(classical.product_measure(region, p), helpers.product_measure_loop(region, p))


@pytest.mark.parametrize("weights", [(math.nan, math.inf, 0.0), (math.nan, 1e300, 1e300),
                                     (1e300, math.nan, 1e300), (0.5, math.nan, 0.5)])
def test_product_measure_folds_non_finite_weights_as_the_loop_does_and_warns_of_nothing(weights):
    """A NaN weight still passes validation; whatever passes folds as the loop does, with no numpy warning."""
    try:
        p = ProbDist(weights)
    except errors.InvalidDistribution:
        return
    region = ditset(top(3))
    got, want = classical.product_measure(region, p), helpers.product_measure_loop(region, p)
    assert type(got) is type(want) and repr(got) == repr(want)


# ------------------------------------------------ one-pass block sums vs the per-block loop

def _groups(ids, size):
    """The ascending points of each key in ``range(size)``."""
    groups = [[] for _ in range(size)]
    for x, k in enumerate(ids):
        groups[k].append(x)
    return groups


def _sum_cases(draw, weight):
    """Block ids of two partitions, up to 3000 points and 40 blocks each, and ``weight(rng, n)``.

    Hypothesis draws the sizes and a seed; numpy draws the long arrays.
    """
    n = draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ids = [rng.integers(0, draw(st.integers(1, 40)), n).tolist() for _ in range(2)]
    return _partition(ids[0]), _partition(ids[1]), weight(rng, n)


def _float_weights(rng, n):
    """Zeros, subnormal and tiny weights among ordinary ones."""
    pool = np.array([0.0, 5e-324, 1e-300, 1e-17, 1.0])
    w = np.where(rng.random(n) < 0.5, rng.choice(pool, n), rng.random(n))
    w = w / w.sum() if w.sum() > 0 else np.full(n, 1 / n)
    return list(w) if rng.random() < 0.3 else [float(x) for x in w]


def _exact_weights_mixed(big):
    """Int 0 and Fraction weights summing to 1, over a denominator near 2**40 if ``big``."""
    def weights(rng, n):
        counts = rng.integers(0, 2 ** 30 if big else 9, n) * (rng.random(n) < 0.7)
        if not counts.any():
            counts[0] = 1
        s = int(counts.sum())
        return [Fraction(int(c), s) if c else 0 for c in counts]
    return weights


@st.composite
def float_sum_cases(draw):
    return _sum_cases(draw, _float_weights)


@st.composite
def exact_sum_cases(draw):
    return _sum_cases(draw, _exact_weights_mixed(draw(st.booleans())))


def _table_loop(pi, sigma, weights):
    """The occupied cells of the block-pair table by the per-block loop, in row-major order."""
    ids = [i * sigma.n_blocks + j for i, j in zip(pi._block_of, sigma._block_of)]
    groups = _groups(ids, pi.n_blocks * sigma.n_blocks)
    return helpers.block_probabilities_loop([g for g in groups if g], weights)


def _sums_and_loops(pi, sigma, weights):
    c = classical._blocks(pi, sigma, ProbDist(tuple(weights)), "block sums")
    cells = classical._cells(pi._block_of, sigma._block_of, sigma.n_blocks)[0]
    got = [classical._typed(keys, raw, c.p._terms) for keys, raw in
           ((pi._block_of, c.pi_raw), (sigma._block_of, c.sigma_raw), (cells, c.table_raw))]
    got.append(block_probabilities(pi, c.p))
    want = [helpers.block_probabilities_loop(pi.blocks, weights),
            helpers.block_probabilities_loop(sigma.blocks, weights),
            _table_loop(pi, sigma, weights),
            helpers.block_probabilities_loop(pi.blocks, weights)]
    return got, want


@given(float_sum_cases())
@settings(max_examples=60, deadline=None)
def test_block_sums_equal_the_loop_bit_for_bit_on_float_weights(case):
    got, want = _sums_and_loops(*case)
    for g, w in zip(got, want):
        assert len(g) == len(w) and all(map(_same, g, w)), (g, w)


@given(exact_sum_cases())
@settings(max_examples=60, deadline=None)
def test_block_sums_equal_the_loop_in_value_and_type_on_exact_weights(case):
    got, want = _sums_and_loops(*case)
    for g, w in zip(got, want):
        assert g == w and list(map(type, g)) == list(map(type, w))


def test_block_pair_table_holds_the_occupied_cells_only():
    """All-singleton partitions of 2000 points occupy 2000 of the 4 000 000 block pairs."""
    n = 2000
    c = classical._blocks(top(n), top(n), ProbDist((1.0 / n,) * n), "block sums")
    keys = classical._cells(c.pi._block_of, c.sigma._block_of, n)[0]
    table = classical._typed(keys, c.table_raw, c.p._terms)
    assert len(table) == n and table == classical._typed(c.pi._block_of, c.pi_raw, c.p._terms)


@st.composite
def exact_keyed_weights(draw):
    """Int and Fraction weights over a few denominators up to 2**40, and keys for them."""
    n = draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dens = draw(st.lists(st.integers(1, 2 ** 40), min_size=1, max_size=3))
    weights = [int(rng.integers(0, 4)) if rng.random() < 0.3
               else Fraction(int(rng.integers(0, 10)), dens[int(rng.integers(len(dens)))])
               for _ in range(n)]
    size = draw(st.integers(1, 40))
    return rng.integers(0, size, n).tolist(), size, weights


@given(exact_keyed_weights())
@settings(max_examples=60, deadline=None)
def test_sums_equal_the_loop_on_mixed_int_and_fraction_weights(case):
    """Keys holding only ints total to ints, empty keys to the int 0, the rest to Fractions."""
    ids, size, weights = case
    values, d = classical._numerators(weights)
    got = classical._typed(ids, classical._sums(ids, size, values),
                           (values, d, [isinstance(x, Fraction) for x in weights]))
    want = helpers.block_probabilities_loop(_groups(ids, size), weights)
    assert got == want and list(map(type, got)) == list(map(type, want))


def test_sums_past_int64_stay_exact():
    weights = [Fraction(1, 2 ** 32 + 1), Fraction(1, 2 ** 32 + 3), 2, 0]
    values, d = classical._numerators(weights)
    assert d * d >= 2 ** 63
    keys = [0, 0, 1, 1]
    got = classical._typed(keys, classical._sums(keys, 3, values), (values, d, [True, True, False, False]))
    assert got == [weights[0] + weights[1], 2, 0]
    assert list(map(type, got)) == [Fraction, int, int]


# ------------------------------------------------ the classical carrier

def _report_profiles(pi, sigma, p):
    return [classical.entropy_profile(pi, sigma, p), classical.shannon_profile(pi, sigma, p),
            classical.shannon_profile_from_transform(pi, sigma, p)]


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("n", [1, 6, 64, 65, 300])
def test_one_carrier_gives_the_raw_calls_field_for_field(monkeypatch, exact, n):
    rng = np.random.default_rng(n)
    pi, sigma = helpers.random_partition(rng, n), helpers.random_partition(rng, n)
    p = helpers.rational_dist(rng, n, allow_zero=True)
    if not exact:
        p = ProbDist(tuple(float(x) for x in p.weights))
    want = _report_profiles(pi, sigma, p)
    c = classical._blocks(pi, sigma, p, "carrier")
    assert classical._blocks(pi, sigma, c, "carrier") is c and c.weights is p.weights
    sums = helpers.count_calls(monkeypatch, classical, "_sums")
    got = _report_profiles(pi, sigma, c)
    for g, w in zip(got, want):
        assert all(map(_same, astuple(g), astuple(w))), (g, w)
    assert len(sums) == 4  # each partition's blocks, the block-pair table, the join's blocks


_labels = st.integers(1, 9).flatmap(lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n))


GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


@pytest.mark.parametrize("argv, calls", [
    (["--pi", "parity6.json", "--sigma", "thirds6.json", "--p", "p6_exact.json", "--shannon"], 1),
    (["--pi", "x4.json", "--sigma", "y5.json", "--joint", "joint_exact.json"], 2),
    (["--pi", "parity6.json", "--p", "p6_exact.json", "--shannon"], 1),
])
def test_exact_reports_form_numerators_once_per_distribution(monkeypatch, argv, calls):
    """Validation forms them; the two-set report's region oracle forms its own."""
    argv = [a if a.startswith("--") else str(GOLDEN_INPUTS / a) for a in argv]
    numerators = helpers.count_calls(monkeypatch, classical, "_numerators")
    assert cli.main(["entropy", *argv], stdout=io.StringIO(), stderr=io.StringIO()) == 0
    assert len(numerators) == calls


def test_profiles_on_a_built_distribution_form_no_numerators(monkeypatch):
    rng = np.random.default_rng(7)
    pi, sigma = helpers.random_partition(rng, 6), helpers.random_partition(rng, 6)
    p = helpers.rational_dist(rng, 6, allow_zero=True)
    numerators = helpers.count_calls(monkeypatch, classical, "_numerators")
    _report_profiles(pi, sigma, p)
    block_probabilities(pi, p)
    assert numerators == []


# ------------------------------------------------ Shannon bits from raw totals

#: A common denominator past the float range, 3^700 > 2^1109.
_HUGE_DENOMINATOR = 3 ** 700


def _shannon_weights(kind, rng, n):
    """``n`` weights of one ``kind``: int 0 and Fractions over one sum of counts below 2**40; a point
    mass of ints; Fractions over ``_HUGE_DENOMINATOR``; ``Fraction(1, 10**400)``, whose float
    underflows, beside its complement; or floats, or ``np.float64`` values, with zeros and subnormals."""
    if kind in ("float", "numpy"):
        return list(map(float if kind == "float" else np.float64, _float_weights(rng, n)))
    w = [0] * n
    if kind == "point":
        w[int(rng.integers(n))] = 1
    elif kind == "underflow":
        i, j = rng.choice(n, 2, replace=False).tolist()
        w[i], w[j] = Fraction(1, 10 ** 400), 1 - Fraction(1, 10 ** 400)
    elif kind == "huge":
        cuts = sorted(int(rng.integers(2 ** 62)) * _HUGE_DENOMINATOR // 2 ** 62 for _ in range(n - 1))
        w = [Fraction(b - a, _HUGE_DENOMINATOR) for a, b in zip([0, *cuts], [*cuts, _HUGE_DENOMINATOR])]
    else:
        counts = rng.integers(0, 2 ** 40 // n if rng.random() < 0.7 else 12, n) * (rng.random(n) < 0.7)
        counts[0] += not counts.any()
        w = [Fraction(int(c), int(counts.sum())) if c else 0 for c in counts]
    return w


@st.composite
def shannon_cases(draw):
    """Two partitions of up to 60 points and weights of one kind."""
    kind = draw(st.sampled_from(["mixed", "point", "huge", "underflow", "float", "numpy"]))
    n = draw(st.integers(2 if kind in ("huge", "underflow") else 1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pi, sigma = (_partition(rng.integers(0, draw(st.integers(1, 8)), n).tolist()) for _ in range(2))
    return kind, pi, sigma, _shannon_weights(kind, rng, n)


@given(shannon_cases())
@settings(max_examples=150, deadline=None)
def test_shannon_fields_equal_the_float_of_each_typed_block_sum_bit_for_bit(case):
    """``x / d`` on a raw total rounds to the double that ``float(Fraction(x, d))`` rounds to."""
    kind, pi, sigma, weights = case
    p = ProbDist(tuple(weights))
    if kind in ("huge", "underflow"):
        assert p._terms[1] > 2 ** 1024 and max(p._terms[0]) > 2 ** 1024
    ids = [i * sigma.n_blocks + j for i, j in zip(pi._block_of, sigma._block_of)]
    cells = [g for g in _groups(ids, pi.n_blocks * sigma.n_blocks) if g]
    h_pi, h_sigma = helpers.bits_loop(pi.blocks, weights), helpers.bits_loop(sigma.blocks, weights)
    got = [*astuple(classical.shannon_profile(pi, sigma, p)),
           *astuple(classical.shannon_profile_from_transform(pi, sigma, p)), classical.shannon_entropy(pi, p)]
    want = [*astuple(classical._six(EntropyProfile, h_pi, h_sigma,
                                    helpers.bits_loop(join(pi, sigma).blocks, weights))),
            *astuple(classical._six(EntropyProfile, h_pi, h_sigma, helpers.bits_loop(cells, weights))), h_pi]
    assert all(map(_same, got, want)), (got, want)


# ------------------------------------------------ closed forms on integer numerators

#: A prime common denominator whose square is past int64.
_WIDE_DENOMINATOR = 2 ** 61 - 1


def _closed_form_weights(kind, rng, n):
    """``n`` weights of one ``kind``: int 0 and Fractions; a point mass of ints; Fractions
    over ``_WIDE_DENOMINATOR``; or floats with zeros and subnormals."""
    if kind == "float":
        return _float_weights(rng, n)
    if kind == "point":
        return [int(x == 0) for x in rng.permutation(n)]
    d = _WIDE_DENOMINATOR if kind == "wide" else 12
    cuts = sorted(rng.integers(0, d + 1, n - 1).tolist())
    counts = [b - a for a, b in zip([0, *cuts], [*cuts, d])]
    return [Fraction(c, d) if c or rng.random() < 0.5 else 0 for c in counts]


@st.composite
def closed_form_cases(draw):
    """Two partitions of ``nx * ny`` points, two of the sides ``nx`` and ``ny``, and weights of one kind."""
    kind = draw(st.sampled_from(["mixed", "point", "wide", "float"]))
    nx, ny = draw(st.integers(1, 4)), draw(st.integers(2 if kind == "wide" else 1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = nx * ny
    parts = [_partition(rng.integers(0, size, size).tolist()) for size in (n, n, nx, ny)]
    return kind, parts, _closed_form_weights(kind, rng, n)


@given(closed_form_cases())
@settings(max_examples=150, deadline=None)
def test_closed_forms_equal_the_fold_of_typed_sums_in_value_and_type(case):
    """Floats bit for bit; exact values of the fold's types, all ints on a point mass."""
    kind, (pi, sigma, px, py), weights = case
    p = ProbDist(tuple(weights))
    if kind == "wide":
        assert p._terms[1] ** 2 >= 2 ** 63
    ny, n_b = py.universe.size, py.n_blocks
    joint = JointDist(tuple(tuple(weights[x:x + ny]) for x in range(0, len(weights), ny)))
    ids = [px._block_of[k // ny] * n_b + py._block_of[k % ny] for k in range(len(weights))]
    q = helpers.block_probabilities_loop(_groups(ids, px.n_blocks * n_b), weights)
    rows = [helpers.block_probabilities_loop([range(r, r + n_b)], q)[0] for r in range(0, len(q), n_b)]
    cols = [helpers.block_probabilities_loop([range(j, len(q), n_b)], q)[0] for j in range(n_b)]
    pi_sums = helpers.block_probabilities_loop(pi.blocks, weights)
    got = [*astuple(entropy_profile(pi, sigma, p, "closed")), *astuple(twoset_profile(px, py, joint, "closed")),
           classical.logical_entropy(pi, p), classical.dist_entropy(p),
           density.ClassicalDensity(pi, p).purity()]
    want = [*astuple(helpers.closed_profile_loop(pi_sums, helpers.block_probabilities_loop(sigma.blocks, weights),
                                                 _table_loop(pi, sigma, weights))),
            *astuple(helpers.closed_profile_loop(rows, cols, q)),
            helpers.logical_loop(pi_sums), helpers.logical_loop(weights), helpers.purity_loop(pi_sums)]
    if kind == "float":
        assert all(map(_same, got, want)), (got, want)
    else:
        assert got == want and list(map(type, got)) == list(map(type, want)), (got, want)
    if kind == "point":
        assert {type(x) for x in got} == {int}


@pytest.mark.parametrize("route", ["entropy_profile", "twoset_profile", "cli"])
def test_the_oracle_catches_an_integer_purity_off_by_one_over_d_squared(monkeypatch, route):
    """Far below any float tolerance, and still caught: the exact oracle compares with ``!=``."""
    purity = classical._purity
    monkeypatch.setattr(classical, "_purity", lambda totals: purity(totals) + 1)
    if route == "cli":
        argv = [str(GOLDEN_INPUTS / name) for name in ("parity6.json", "thirds6.json", "p6_exact.json")]
        err = io.StringIO()
        code = cli.main(["entropy", "--pi", argv[0], "--sigma", argv[1], "--p", argv[2]],
                        stdout=io.StringIO(), stderr=err)
        assert code == 3 and "closed form and oracle" in err.getvalue()
        return
    rng = np.random.default_rng(5)
    with pytest.raises(InternalInconsistency, match="closed form and oracle"):
        if route == "entropy_profile":
            n = 64
            entropy_profile(helpers.random_partition(rng, n), helpers.random_partition(rng, n),
                            helpers.rational_dist(rng, n), "auto")
        else:
            twoset_profile(top(3), _partition([0, 1, 0, 1]), helpers.rational_joint(rng, 3, 4), "auto")


@st.composite
def exact_joints(draw):
    pi, sigma = _partition(draw(_labels)), _partition(draw(_labels))
    nx, ny = pi.universe.size, sigma.universe.size
    w = draw(_exact_weights(nx * ny))
    return pi, sigma, JointDist(tuple(w[x * ny:(x + 1) * ny] for x in range(nx)))


@given(exact_joints())
@settings(max_examples=100, deadline=None)
def test_twoset_profile_is_the_profile_of_the_partitions_lifted_to_the_product(case):
    """Cell (x, y) of X x Y lies in block pi(x) of the lifted pi and sigma(y) of the lifted sigma."""
    pi, sigma, joint = case
    ny = joint.y_size
    cells = range(joint.x_size * ny)
    lifted_pi = _partition([pi._block_of[k // ny] for k in cells])
    lifted_sigma = _partition([sigma._block_of[k % ny] for k in cells])
    flat = ProbDist(tuple(w for row in joint.weights for w in row))
    want = entropy_profile(lifted_pi, lifted_sigma, flat)
    for m in ["closed", "regions"] + (["auto"] if len(cells) <= 64 else []):
        assert twoset_profile(pi, sigma, joint, m) == want, m


_small_labels = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n))


@st.composite
def backend_cases(draw):
    """Rational weights for two partitions of n <= 6 points and for partitions of two such sets."""
    n = draw(st.integers(1, 6))
    labels = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    pi, sigma = _partition(draw(labels)), _partition(draw(labels))
    x, y = _partition(draw(_small_labels)), _partition(draw(_small_labels))
    nx, ny = x.universe.size, y.universe.size
    w = draw(_exact_weights(nx * ny))
    return pi, sigma, draw(_exact_weights(n)), x, y, [w[i * ny:(i + 1) * ny] for i in range(nx)]


def _close(exact, approx):
    return all(abs(a - b) <= classical.FLOAT_TOL for a, b in zip(astuple(exact), astuple(approx)))


@given(backend_cases())
@settings(max_examples=100, deadline=None)
def test_exact_and_float_backends_agree(case):
    """The same rational weights as Fractions and as floats give one profile within FLOAT_TOL."""
    pi, sigma, w, x, y, rows = case
    exact, approx = ProbDist(w), ProbDist(tuple(map(float, w)))
    assert exact.is_exact and not approx.is_exact
    assert _close(entropy_profile(pi, sigma, exact), entropy_profile(pi, sigma, approx))
    assert _close(classical.shannon_profile(pi, sigma, exact),
                  classical.shannon_profile(pi, sigma, approx))
    assert _close(twoset_profile(x, y, JointDist(rows)),
                  twoset_profile(x, y, JointDist([tuple(map(float, r)) for r in rows])))


@st.composite
def weighted_partitions(draw):
    pi = _partition(draw(_labels))
    n = pi.universe.size
    if draw(st.booleans()):
        return pi, ProbDist(draw(_exact_weights(n)))
    raw = draw(st.lists(st.floats(0, 1), min_size=n, max_size=n).filter(lambda w: sum(w) > 0.1))
    return pi, ProbDist(tuple(x / sum(raw) for x in raw))


@given(weighted_partitions())
@settings(max_examples=200, deadline=None)
def test_rho_partition_mask_equals_the_block_loop_bit_for_bit(case):
    got, want = density.rho_partition(*case), helpers.rho_partition_loop(*case)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@given(_labels)
@settings(max_examples=100, deadline=None)
def test_partition_projectors_are_the_diagonal_block_indicators(labels):
    pi, n = _partition(labels), len(labels)
    want = [np.diag([float(j in block) for j in range(n)]) for block in pi.blocks]
    got = density.projectors_from_partition(pi)
    assert len(got) == len(want)
    assert all(P.dtype == np.complex128 and np.array_equal(P, W) for P, W in zip(got, want))


_exact_eigenvalues = st.sampled_from([0, 1, 3, Fraction(1, 2), Fraction(2, 4), Fraction(3, 1), Fraction(-1, 3)])


@given(st.lists(_exact_eigenvalues, min_size=1, max_size=9))
@settings(max_examples=200, deadline=None)
def test_exact_eigenvalue_classes_equal_the_grouping_loop(values):
    assert Observable(tuple(values)).eigenvalue_partition() == helpers.eigenvalue_classes_loop(values)


@st.composite
def float_chains(draw):
    """Shuffled chains whose gaps sit just below and just above ``EIGENVALUE_GROUP_TOL``."""
    n = draw(st.integers(1, 9))
    tol = quantum.EIGENVALUE_GROUP_TOL
    steps = st.sampled_from([0.0, 0.5 * tol, 0.999 * tol, tol, 1.001 * tol, 2 * tol, 1.0])
    values = [draw(st.floats(-3, 3))]
    for step in draw(st.lists(steps, min_size=n - 1, max_size=n - 1)):
        values.append(values[-1] + step)
    return draw(st.permutations(values))


@given(float_chains())
@settings(max_examples=300, deadline=None)
def test_float_eigenvalue_classes_equal_the_chain_loop(values):
    assert Observable(tuple(values)).eigenvalue_partition() == helpers.eigenvalue_classes_loop(values)


@st.composite
def measurements(draw):
    n = draw(st.integers(1, 8))
    # Few distinct labels, so most draws have degenerate eigenvalue classes.
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = helpers.random_unitary(rng, n)
    return Observable(tuple(labels), u), u, helpers.random_state(rng, n)


@given(measurements())
@settings(max_examples=80, deadline=None)
def test_qudit_mask_equals_luders_over_eigenspace_projectors(case):
    F, u, psi = case
    projs = density.projectors_from_eigenbasis(u, F.eigenvalue_partition())
    reference = density.luders(np.outer(psi, psi.conj()), projs)
    assert np.max(np.abs(measure(F, psi) - reference)) <= 1e-12


@st.composite
def report_inputs(draw):
    n = draw(st.integers(1, 8))
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return (helpers.random_density(rng, n), helpers.random_density(rng, n),
            Observable(tuple(labels), helpers.random_unitary(rng, n)), helpers.random_state(rng, n))


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("reports")


def _cli_report(report_dir, command, documents, *options):
    argv = [command, *options]
    for flag, doc in documents.items():
        path = report_dir / f"{flag}.json"
        path.write_text(json.dumps(doc))
        argv += [f"--{flag}", str(path)]
    out, err = io.StringIO(), io.StringIO()
    assert (cli.main(argv, stdout=out, stderr=err), err.getvalue()) == (0, "")
    return json.loads(out.getvalue())


@given(report_inputs())
@settings(max_examples=60, deadline=None)
def test_cli_reports_equal_the_public_functions_bit_for_bit(report_dir, case):
    """The CLI shares one validated input between quantities; the numbers must not move."""
    rho, tau, F, psi = case
    rep = _cli_report(report_dir, "distance", {
        "rho": {"kind": "density", "matrix": helpers.complex_pairs(rho)},
        "tau": {"kind": "density", "matrix": helpers.complex_pairs(tau)},
    })
    cross, d = quantum.quantum_cross_entropy(rho, tau), quantum.quantum_hamming(rho, tau)
    hs = quantum.hilbert_schmidt_distance(rho, tau)
    assert rep["quantities"] == {
        "h_rho": density.dm_logical_entropy(rho), "h_tau": density.dm_logical_entropy(tau),
        "cross_entropy": cross, "hamming_distance": d, "hilbert_schmidt": hs,
    }
    assert {k: v["residual"] for k, v in rep["identities_checked"].items()} == {
        "hamming_equals_hilbert_schmidt": abs(d - hs),
        "cross_entropy_symmetric": abs(cross - quantum.quantum_cross_entropy(tau, rho)),
        "nonnegative": max(0.0, -d),
    }

    rep = _cli_report(report_dir, "measure", {
        "state": {"kind": "state", "amplitudes": helpers.complex_pairs(psi)},
        "observable": {"kind": "observable", "eigenvalues": list(F.eigenvalues),
                       "eigenbasis": helpers.complex_pairs(F.eigenbasis)},
    }, "--emit-density")
    h, check = quantum.h_observable_state(F, psi), quantum.quantum_fundamental_check(F, psi)
    assert rep["quantities"] == {
        "h_F_psi": h.value, "h_via_partition": h.via_partition,
        "h_via_measurement": h.via_measurement, "entropy_increase": check.entropy_increase,
        "decohered_sumsq": check.decohered_sumsq,
    }
    assert {k: v["residual"] for k, v in rep["identities_checked"].items()} == {
        "route_partition_agrees": abs(h.value - h.via_partition),
        "route_measurement_agrees": abs(h.value - h.via_measurement),
        "fundamental_theorem": check.residual,
    }
    assert rep["matrices"]["rho_prime"] == helpers.complex_pairs(measure(F, psi))


# ---------------------------- the compiled tautology search vs the tree evaluator

def _formulas(depth):
    """Formulas over p, q, r and the constants, nested at most ``depth`` deep."""
    leaf = st.one_of(st.builds(logic.Var, st.sampled_from("pqr")),
                     st.just(logic.Const0()), st.just(logic.Const1()))
    if depth == 0:
        return leaf
    kid = _formulas(depth - 1)
    return st.one_of(leaf, *(st.builds(node, kid, kid) for node in (logic.Join, logic.Meet, logic.Implies)))


@st.composite
def formula_assignments(draw):
    f, n = draw(_formulas(4)), draw(st.integers(2, 7))
    labels = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    return f, n, {name: _partition(draw(labels)) for name in logic.variables(f)}


@given(formula_assignments())
@settings(max_examples=200, deadline=None)
def test_compiled_evaluator_equals_the_tree_evaluator(case):
    f, n, env = case
    names = logic.variables(f)
    table = logic._Masks(n)
    value_of = logic._compiled(f, names, table)
    masks = tuple(table[env[name]._block_of] for name in names)
    want = logic.evaluate(f, env, n)._block_of
    assert table[value_of(masks)] == want
    assert table[value_of(masks)] == want  # a second call answers from the memo


#: The bench's named formulas with their search bounds.
NAMED_FORMULAS = (
    ("p | q", 4),
    ("(p & (p -> q)) -> q", 5),
    ("p -> p", 6),
    ("((p -> q) & (q -> r)) -> (p -> r)", 4),
    ("((p -> q) -> p) -> p", 5),
    ("p | (p -> 0)", 5),
    ("(p & q) -> p", 4),
    ("p -> (p | q)", 4),
    ("p -> (q -> p)", 4),
    ("(p | q) -> (q | p)", 4),
    ("((p -> r) & (q -> r)) -> ((p | q) -> r)", 3),
    ("(p & (q | r)) -> ((p & q) | (p & r))", 3),
    ("((p | q) & (p | r)) -> (p | (q & r))", 3),
    ("(p -> q) | (q -> p)", 4),
)


def _random_formula(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.85:
            return "pqr"[int(rng.integers(0, 3))]
        return str(int(rng.integers(0, 2)))
    op = ("|", "&", "->", "->")[int(rng.integers(0, 4))]
    return f"({_random_formula(rng, depth - 1)} {op} {_random_formula(rng, depth - 1)})"


def _same_verdict_as_the_tree_search(text, max_n):
    f = logic.parse(text)
    verdict = logic.check_tautology(f, max_n)
    want = helpers.tautology_search_loop(f, max_n)
    assert (verdict.is_tautology_up_to_bound, verdict.witness) == (want is None, want), text
    return want is None


@pytest.mark.parametrize("text, max_n", NAMED_FORMULAS)
def test_search_finds_the_verdict_and_witness_of_the_tree_search(text, max_n):
    _same_verdict_as_the_tree_search(text, max_n)


def test_search_agrees_with_the_tree_search_on_seeded_random_formulas():
    rng = np.random.default_rng(11)
    tautologies = sum(_same_verdict_as_the_tree_search(_random_formula(rng, 3), 4) for _ in range(200))
    assert 0 < tautologies < 200


def test_witness_recheck_raises_when_reevaluation_disagrees(monkeypatch):
    # The search runs on codes; the tree evaluator on partitions re-checks
    # only the counterexample, so a re-check that says top must disagree.
    formula = logic.parse("p | q")
    real = logic.evaluate
    calls = []

    def top_on_recheck(f, env, universe):
        if f is not formula:
            return real(f, env, universe)
        calls.append(env)
        return top(universe)

    monkeypatch.setattr(logic, "evaluate", top_on_recheck)
    with pytest.raises(InternalInconsistency):
        logic.check_tautology(formula, max_n=3)
    assert len(calls) == 1


# ------------------------------------ the PSD certificate and the class projections

@st.composite
def density_cases(draw):
    """A trace-one Hermitian matrix in a random basis, its lowest eigenvalue near -tol or -tol/2."""
    n = draw(st.integers(2, 128))
    low = draw(st.one_of(st.floats(-1.05, -0.95), st.floats(-0.55, -0.45), st.floats(-3, 0)))
    low *= density.DENSITY_TOL
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):  # rank one, its other eigenvalues at the low one
        lam = np.full(n, low)
        lam[-1] = 1 - (n - 1) * low
    else:
        rest = rng.random(n - 1) + 0.01
        lam = np.concatenate([[low], rest * (1 - low) / rest.sum()])
    u = helpers.random_unitary(rng, n)
    m = (u * lam) @ u.conj().T
    return (m + m.conj().T) / 2


@given(density_cases())
@example(np.diag([1 + 1.2e-10, -1.2e-10]).astype(complex))
@example(np.diag([1 + 0.9e-10, -0.9e-10]).astype(complex))
@settings(max_examples=200, deadline=None)
def test_the_cholesky_certificate_decides_as_the_spectrum(m):
    def outcome(validate):
        try:
            return validate(m).tobytes()
        except errors.InvalidDensityMatrix as e:
            return type(e), str(e)

    assert outcome(density.validate_density) == outcome(helpers.validate_density_spectral)


@pytest.mark.parametrize("dim", [1, 2, 5, 31, 64, 128])
def test_the_measured_state_is_the_qudit_mask_form(dim):
    rng = np.random.default_rng(dim)
    for k in sorted({1, 2, min(24, dim), dim}):
        F = Observable(tuple(int(x) for x in rng.permutation(dim) % k), helpers.random_unitary(rng, dim))
        psi = helpers.random_state(rng, dim)
        gap = np.abs(quantum._measured(F, psi).rho_prime - helpers.measured_mask(F, psi)).max()
        assert gap <= 1e-14, (k, gap)


# ------------------------------------------- every cross-check's failure path

HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def _pair(n):
    """Two crossed partitions of ``range(n)`` and a float distribution on it."""
    w = np.arange(1, n + 1, dtype=float)
    return (_partition([x % 2 for x in range(n)]), _partition([x % 3 for x in range(n)]),
            ProbDist(tuple(float(x) for x in w / w.sum())))


def _joint(x, y):
    w = np.arange(1, x * y + 1, dtype=float).reshape(x, y)
    return JointDist(tuple(tuple(float(v) for v in row) for row in w / w.sum()))


def _densities(n):
    rng = np.random.default_rng(n)
    return helpers.random_density(rng, n), helpers.random_density(rng, n)


def _shifted(fn, delta):
    return lambda *args: fn(*args) + delta


def _skewed_table(fn, a, b, delta):
    def table(*args):
        t = fn(*args)
        t[a][b] += delta
        return t
    return table


def test_entropy_profile_raises_when_its_ditset_oracle_disagrees(monkeypatch):
    monkeypatch.setattr(classical, "product_measure",
                        _shifted(classical.product_measure, Fraction(1, 10 ** 9)))
    with pytest.raises(InternalInconsistency, match="entropy profile: closed form and oracle"):
        entropy_profile(_partition([0, 0, 1]), _partition([0, 1, 1]), ProbDist.uniform(3))


def test_twoset_profile_raises_when_its_region_oracle_disagrees(monkeypatch):
    monkeypatch.setattr(classical, "_region_table",
                        _skewed_table(classical._region_table, 1, 1, 1e-9))
    with pytest.raises(InternalInconsistency, match="two-set profile: closed form and oracle"):
        twoset_profile(top(2), top(3), _joint(2, 3))


def test_density_pair_profile_raises_when_its_spectral_oracle_disagrees(monkeypatch):
    real = quantum.spectral_pair_bruteforce
    monkeypatch.setattr(quantum, "spectral_pair_bruteforce",
                        lambda lam, mu: quantum.QuantumProfile(*astuple(real(lam, mu))[:-1], 0.5))
    with pytest.raises(InternalInconsistency, match="density pair profile: closed form and oracle"):
        quantum.density_pair_profile(*_densities(3))


@pytest.mark.parametrize("route", ["pairs", "partition", "measurement"])
def test_h_observable_state_raises_when_one_route_disagrees(monkeypatch, route):
    if route == "pairs":
        monkeypatch.setattr(classical, "_region_table",
                            _skewed_table(classical._region_table, 1, 0, 1e-8))
    elif route == "partition":
        monkeypatch.setattr(classical, "logical_entropy", _shifted(classical.logical_entropy, 1e-8))
    else:
        monkeypatch.setattr(density, "_entropy", _shifted(density._entropy, 1e-8))
    with pytest.raises(InternalInconsistency, match=r"h\(F:psi\) routes"):
        quantum.h_observable_state(Observable((0, 1, 1)), np.ones(3) / np.sqrt(3))


def test_quantum_cross_entropy_raises_when_its_overlap_expansion_disagrees(monkeypatch):
    monkeypatch.setattr(density, "_trace_product", _shifted(density._trace_product, 1e-8))
    with pytest.raises(InternalInconsistency, match="tr\\[rho tau\\] and its overlap expansion"):
        quantum.quantum_cross_entropy(*_densities(3))


def test_quantum_hamming_raises_when_its_two_forms_disagree(monkeypatch):
    # Shifting every trace leaves the trace form unchanged and moves tr[(r - t)^2].
    monkeypatch.setattr(density, "_trace_product", _shifted(density._trace_product, 1e-8))
    with pytest.raises(InternalInconsistency, match="trace form and Hilbert-Schmidt form"):
        quantum.quantum_hamming(*_densities(3))


def test_witness_recheck_names_the_check(monkeypatch):
    real = logic._compiled
    found = []

    def recording_counterexamples(f, names, table):
        value_of = real(f, names, table)

        def value(masks):
            out = value_of(masks)
            if out:  # top's indit mask is 0
                found.append(out)
            return out

        return value

    monkeypatch.setattr(logic, "_compiled", recording_counterexamples)
    monkeypatch.setattr(logic, "evaluate", lambda f, env, universe: top(universe))
    with pytest.raises(InternalInconsistency, match="counterexample at n=2 and its re-evaluation"):
        logic.check_tautology(logic.parse("p"), max_n=2)
    assert len(found) == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_compare_never_lets_nan_or_infinity_agree(bad):
    with pytest.raises(InternalInconsistency, match="on 0"):
        errors._agree("check", (bad,), (bad,), False, 1.0)
    errors._agree("check", (0.5, Fraction(1, 3)), (0.5 + 1e-13, Fraction(1, 3)), False, 1e-12)
    errors._agree("check", (Fraction(1, 3),), (Fraction(1, 3),), True, 0)


def test_compare_names_values_too_long_to_print_without_them():
    f = Fraction(1, 10 ** 5000 + 1)
    with pytest.raises(InternalInconsistency, match=r"^check disagree on 0$"):
        errors._agree("check", (f,), (2 * f,), True, 0)
    with pytest.raises(InternalInconsistency, match=r"^check disagree on 0: Fraction\(1, 3\) vs 0\.5$"):
        errors._agree("check", (Fraction(1, 3),), (0.5,), False, 1e-12)


def test_exact_compare_names_the_first_field_that_differs():
    a = EntropyProfile(*map(Fraction, range(6)))
    errors._agree("check", a, EntropyProfile(*map(Fraction, range(6))), True, 0)
    b = dataclasses.replace(a, h_pi_given_sigma=Fraction(7, 2), mutual=Fraction(9))
    with pytest.raises(InternalInconsistency, match=r"^check disagree on h_pi_given_sigma: Fraction\(3, 1\) vs "):
        errors._agree("check", a, b, True, 0)
    with pytest.raises(InternalInconsistency, match=r"^check disagree on 1: 2 vs 3$"):
        errors._agree("check", (1, 2, 4), (1, 3, 5), True, 0)


def test_a_lazy_field_is_computed_once_and_kept_on_its_instance(monkeypatch):
    rng = np.random.default_rng(5)
    pi, sigma = helpers.random_partition(rng, 6), helpers.random_partition(rng, 6)
    c = classical._blocks(pi, sigma, helpers.rational_dist(rng, 6), "carrier")
    assert isinstance(classical._Blocks.pi_raw, errors._lazy) and "pi_raw" not in vars(c)
    sums = helpers.count_calls(monkeypatch, classical, "_sums")
    first = c.pi_raw
    assert c.pi_raw is first and vars(c)["pi_raw"] is first and len(sums) == 1
    for name in ("p", "pi_raw", "table"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(c, name, None)
    assert c.pi_raw is first


def test_a_wrong_closed_form_on_a_long_denominator_exits_three(monkeypatch, tmp_path):
    """Its profile's values have more digits than Python prints; the verdict still reads exit 3."""
    huge = 10 ** 3000 + 7
    part, dist = tmp_path / "pi.json", tmp_path / "p.json"
    part.write_text(json.dumps({"kind": "partition", "n": 2, "blocks": [[0], [1]]}))
    dist.write_text(json.dumps({"kind": "dist", "weights": [f"1/{huge}", f"{huge - 1}/{huge}"]}))
    purity = classical._purity
    monkeypatch.setattr(classical, "_purity", lambda totals: purity(totals) + 1)
    err = io.StringIO()
    code = cli.main(["entropy", "--pi", str(part), "--sigma", str(part), "--p", str(dist)],
                    stdout=io.StringIO(), stderr=err)
    assert code == 3 and "closed form and oracle disagree on h_pi" in err.getvalue()


def test_nan_on_both_routes_raises(monkeypatch):
    monkeypatch.setattr(density, "_trace_product", lambda a, b: float("nan"))
    with pytest.raises(InternalInconsistency, match="trace form and Hilbert-Schmidt form"):
        quantum.quantum_hamming(*_densities(2))


class OracleRan(Exception):
    pass


def _refuse(*args):
    raise OracleRan


@pytest.fixture
def oracles_refused(monkeypatch):
    for module, name in ((classical, "ditset"), (classical, "_region_table"),
                         (quantum, "spectral_pair_bruteforce")):
        monkeypatch.setattr(module, name, _refuse)


def test_closed_method_never_runs_the_oracle(oracles_refused):
    entropy_profile(*_pair(5), "closed")
    twoset_profile(top(2), top(3), _joint(2, 3), "closed")
    psi2 = np.ones(4) / 2
    quantum.noncommuting_profile(Observable((0, 1)), Observable((0, 1), HADAMARD), psi2, "closed")


def test_each_oracle_runs_up_to_its_cutoff_and_not_above(oracles_refused):
    """n <= 64 for the ditset oracle; (cells)^2 <= 10^6 for the region oracles."""
    at_cutoff = [
        lambda: entropy_profile(*_pair(classical.DITSET_MATERIALIZE_BOUND)),
        lambda: twoset_profile(top(25), top(40), _joint(25, 40)),
        lambda: quantum.density_pair_profile(*_densities(31)),
    ]
    above = [
        lambda: entropy_profile(*_pair(classical.DITSET_MATERIALIZE_BOUND + 1)),
        lambda: twoset_profile(top(7), top(143), _joint(7, 143)),
        lambda: quantum.density_pair_profile(*_densities(32)),
    ]
    for run in at_cutoff:
        with pytest.raises(OracleRan):
            run()
    for run in above:
        run()


@pytest.mark.parametrize("dim, runs", [(31, 1), (32, 0)])
def test_region_kernel_runs_at_dim_31_and_not_at_dim_32(monkeypatch, dim, runs):
    """The quantum oracles go through ``classical._region_table`` up to their cut-off."""
    calls = helpers.count_calls(monkeypatch, classical, "_region_table")
    quantum.density_pair_profile(*_densities(dim))
    assert len(calls) == runs
    rng = np.random.default_rng(dim)
    F, G = (helpers.random_observable(rng, dim) for _ in range(2))
    quantum.noncommuting_profile(F, G, helpers.random_state(rng, dim * dim))
    assert len(calls) == 2 * runs


@pytest.mark.parametrize("call, message", [
    (lambda: entropy_profile(*_pair(3), "fast"), "unknown method 'fast'"),
    (lambda: logic.check_tautology(logic.parse("p"), 1), "max_n must be >= 2, got 1"),
    (lambda: partitions.bell_number(-1), "n must be >= 0"),
    (lambda: quantum.qudit_region_tuples(Observable((0, 1)), Observable((0, 1)), "x"), "unknown region 'x'"),
], ids=["method", "max-n", "bell-number", "region"])
def test_a_refused_argument_is_a_ditlab_error_and_a_value_error(call, message):
    with pytest.raises(errors.DitlabError, match=message) as info:
        call()
    assert type(info.value) is errors.InvalidArgument and isinstance(info.value, ValueError)


def test_unknown_method_raises_value_error():
    psi2 = np.ones(4) / 2
    calls = [
        lambda: entropy_profile(*_pair(3), "fast"),
        lambda: twoset_profile(top(2), top(3), _joint(2, 3), "fast"),
        lambda: quantum.noncommuting_profile(Observable((0, 1)), Observable((0, 1)), psi2, "fast"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="unknown method 'fast'"):
            call()
