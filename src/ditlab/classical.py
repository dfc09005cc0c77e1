"""Classical logical entropy and its compound forms.

The logical entropy of a partition under a probability distribution is the
probability that two independent draws land in different blocks:

    h(pi) = 1 - sum_B Pr(B)^2

Joint, conditional and mutual versions are the product measures of the
union, differences and intersection of the two ditsets, so they satisfy
inclusion-exclusion identities exactly.  Replacing each averaged dit-count
``1 - Pr(.)`` by ``log2(1/Pr(.))`` term by term turns every formula of the
logical profile into the corresponding Shannon formula; that transform is
exposed here so the correspondence is executable rather than folklore.

Every two-partition profile applies an entropy functional to the two
marginals and to the block-pair table ``q[i][j]`` (probability of block ``i``
of one partition and block ``j`` of the other); ``_six`` then subtracts out
the conditional and mutual parts.  One builder, ``_cells``, keys that table
for partitions of one set and for the two-set profile; it keeps only the
cells that hold a point.

A :class:`ProbDist` forms its exact weights' integer numerators over one
common denominator ``d`` once, in validation (``ProbDist._terms``).  Block
sums, the table's cells and the join's blocks are each one pass of
``_sums`` over them, which adds floats to the bit as the per-block loop
does.  The private carrier ``_Blocks`` takes these raw totals once per
report, on first use, for :func:`entropy_profile`, :func:`shannon_profile`
and :func:`shannon_profile_from_transform`.  The join keeps its own pass,
so the Shannon joint entropy and the transform's table stay two routes.

The closed forms (:func:`logical_entropy`, :func:`dist_entropy` and the
closed routes of :func:`entropy_profile` and :func:`twoset_profile`)
square the integer totals and add them over ``D = d^2``, subtract in
integers, and form one Fraction (or int) per printed field; float weights
run the same code with ``D = 1``, so their folds keep their bits.
Shannon's ``_bits`` reads the same raw totals as ``x / d``: int true
division rounds correctly, so each block gives the double that
``float(Fraction(x, d))`` gives, with no Fraction formed.  Only
:func:`block_probabilities` types the raw totals, a Fraction or an int per
block (``_typed``).  The oracles still form their own
numerators: summing them as integers too would speed the exact cycle past
what the benchmark's per-cycle samples allow under its peak-RSS bound
(ROADMAP item 1).

The brute-force oracle, ``_region_table``, sums ``w w'`` over
ordered pairs of cells into a 2x2 table indexed by which partitions
distinguish the pair; each quantity is a region of it (``_REGION_CELLS``).
On a few cells it runs the double loop over cells; above
``_REGION_LOOP_CELLS`` a numpy kernel adds each row chunk of ``w w^T`` to
the four regions in one scatter-add, left to right in that loop's order,
so float results are the loop's to the bit.  Exact weights run on integer
numerators over one common denominator, so exact results stay exact, of
the loop's types.
:func:`entropy_profile` fills the same table from explicit ditsets, whose
:func:`product_measure` adds exact weights as integer numerators.

Arithmetic is exact when the weights are :class:`fractions.Fraction` (or
int) valued; with float weights the same code runs in floating point and
comparisons allow ``FLOAT_TOL``.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, compress, repeat
from typing import Sequence, Union

import numpy as np

from .errors import (BoundExceeded, IndexOutOfRange, InvalidArgument, InvalidDistribution, LengthMismatch,
                     UniverseMismatch, _agree, _lazy)
from .partitions import (
    DITSET_MATERIALIZE_BOUND,
    PairSet,
    Partition,
    _is_element,
    ditset,
    join,
)

Number = Union[Fraction, int, float]

#: Comparison tolerance for the float backend.
FLOAT_TOL = 1e-12

#: Most ordered pairs of cells the brute-force region oracle is run on.
REGION_ORACLE_BOUND = 10 ** 6

#: Most decimal digits of the common denominator of a distribution's exact
#: weights; every exact sum and region total is taken over it.
EXACT_DENOMINATOR_DIGITS = 10_000

#: Most cell pairs in one row chunk of the region oracle, so its product and
#: code buffers stay near 0.5 MB each.
_REGION_CHUNK = 2 ** 16

#: Most cells on which the region oracle runs its double loop in Python,
#: which is faster than its numpy kernel's fixed cost up to about this size.
_REGION_LOOP_CELLS = 12

#: The six profile quantities, in field order, as regions of the table
#: ``t[first partition distinguishes][second distinguishes]``: first, second,
#: joint, first only, second only, both.
_REGION_CELLS = (
    ((1, 0), (1, 1)),
    ((0, 1), (1, 1)),
    ((1, 0), (0, 1), (1, 1)),
    ((1, 0),),
    ((0, 1),),
    ((1, 1),),
)


def _all_exact(values) -> bool:
    """Whether every value is an int or a Fraction, tested in C up to the first that is not.

    For values :func:`_check_real` has passed, or that the library computed: no bool is among them.
    """
    return all(map(isinstance, values, repeat((Fraction, int))))


def _check_real(values, error, what: str) -> None:
    """Raise ``error`` at the first bool or non-real of ``values``; each type is tested once."""
    for t in set(map(type, values)):
        if t is bool or t not in (float, int, Fraction) and not issubclass(t, numbers.Real):
            x = next(x for x in values if type(x) is bool or not isinstance(x, numbers.Real))
            raise error(f"{what} {x!r} is not a real number")


def _numerators(weights, denominators=None) -> tuple:
    """Exact weights as integer numerators over their common denominator ``d``.

    Takes a sequence of exact weights (ints and Fractions), or their reduced
    numerators as ints with their ``denominators``.  Returns
    ``(numerators, d)``.  ``d`` is grown one distinct denominator at a time,
    and :class:`BoundExceeded` is raised as soon as it has more than
    ``EXACT_DENOMINATOR_DIGITS`` digits, before any numerator is formed.
    """
    if denominators is None:
        weights, denominators = [x.numerator for x in weights], [x.denominator for x in weights]
    d = 1
    for b in set(denominators):
        d = math.lcm(d, b)
        # 10**k has more than 3k bits, so the cheap test comes first.
        if d.bit_length() > 3 * EXACT_DENOMINATOR_DIGITS and d >= 10 ** EXACT_DENOMINATOR_DIGITS:
            raise BoundExceeded(
                f"exact weights need a common denominator of more than "
                f"{EXACT_DENOMINATOR_DIGITS} digits")
    return [a * (d // b) for a, b in zip(weights, denominators)], d


@dataclass(frozen=True, init=False)
class ProbDist:
    """A probability distribution on ``{0, ..., n-1}``.

    Weights may be Fractions/ints (exact backend) or floats.  They must be
    nonnegative and sum to one (exactly in the exact backend, within
    ``FLOAT_TOL`` otherwise).

    Validation forms ``_terms``, what every sum reads.  A distribution loaded
    from ``"a/b"`` strings is built from their ints by :meth:`_from_ratios` and
    keeps only ``_terms``; its Fraction ``weights``, a lazy field, are formed
    from it on first read.  One built from its weights has them from the start.
    """

    weights: tuple

    @_lazy
    def weights(self):
        return tuple(map(Fraction, self._terms[0], repeat(self._terms[1])))

    def __init__(self, weights):
        w = tuple(weights)
        object.__setattr__(self, "weights", w)
        if not w:
            raise InvalidDistribution("a distribution needs at least one weight")
        _check_real(w, InvalidDistribution, "weight")
        exact = _all_exact(w)
        # An exact weight's sign is its numerator's, which compares faster than a Fraction.
        for sign in map(operator.attrgetter("numerator"), w) if exact else w:
            if sign < 0:
                raise InvalidDistribution(f"negative weight {next(x for x in w if x < 0)}")
        # What _sums adds, formed once, here: exact weights as integer numerators over their
        # common denominator d, the Fraction ones flagged; other weights as they are.
        self._keep((*_numerators(w), [isinstance(x, Fraction) for x in w]) if exact else (w, None, None))

    def _keep(self, terms: tuple) -> None:
        """Keep ``terms`` as ``_terms``, once the weights they hold sum to one."""
        object.__setattr__(self, "_terms", terms)
        values, d, _ = terms
        if d is None:
            try:
                total = sum(values)
            except OverflowError:  # an exact weight past the float range among the floats
                total = math.inf
            if abs(total - 1) > FLOAT_TOL:
                raise InvalidDistribution(f"weights sum to {total!r}, expected 1 within {FLOAT_TOL}")
        elif sum(values) != d:
            try:
                message = f"weights sum to {Fraction(sum(values), d)}, expected 1"
            except ValueError:  # more digits than Python converts to text
                message = "weights do not sum to 1"
            raise InvalidDistribution(message)

    @classmethod
    def _from_ratios(cls, numerators: list, denominators: list) -> "ProbDist":
        """``ProbDist(tuple(map(Fraction, numerators, denominators)))``, built from the ints.

        For at least one nonnegative numerator over positive denominators.
        ``_terms`` and every check are those of that call, and ``_terms`` is
        all it keeps: ``weights`` is formed from it when first read.
        """
        g = list(map(math.gcd, numerators, denominators))
        p = object.__new__(cls)
        p._keep((*_numerators(list(map(operator.floordiv, numerators, g)),
                              list(map(operator.floordiv, denominators, g))), [True] * len(g)))
        return p

    @_lazy
    def _arrays(self):
        """``_terms`` for :func:`product_measure`: numerators (int64 while ``d^2`` fits) or float
        weights none past 1 (so no product overflows), and the Fraction or np.float64 flags; or None."""
        values, d, wide = self._terms
        if d is None and not (set(map(type, values)) <= {float, np.float64} and max(values) <= 1):
            return None
        wide = wide or [type(x) is np.float64 for x in values]
        values = np.array(values, np.float64 if d is None else np.int64 if d * d < 2 ** 63 else object)
        return values, np.array(wide) if any(wide) and not all(wide) else wide[0]

    @property
    def size(self) -> int:
        return len(self._terms[0])

    @property
    def is_exact(self) -> bool:
        return self._terms[1] is not None

    @staticmethod
    def uniform(n: int) -> "ProbDist":
        return ProbDist(tuple(Fraction(1, n) for _ in range(n)))

    def prob(self, indices: Sequence[int]) -> Number:
        """Probability of the event given by a collection of outcome indices, each outcome
        counted once and summed in ascending order.

        Raises :class:`IndexOutOfRange` for an index that is not an integer in
        ``range(size)`` (a bool is not one).
        """
        n, indices = self.size, list(indices)
        for j in indices:
            if not _is_element(j, n):
                raise IndexOutOfRange(f"event index {j!r} outside universe of size {n}")
        return _sum(self.weights[i] for i in sorted(set(indices)))


@dataclass(frozen=True)
class JointDist:
    """A joint distribution on ``X x Y``; ``weights[x][y]`` is p(x, y)."""

    weights: tuple

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.weights)
        object.__setattr__(self, "weights", rows)
        if not rows or not rows[0]:
            raise InvalidDistribution("a joint distribution needs at least one cell")
        if any(len(r) != len(rows[0]) for r in rows):
            raise LengthMismatch("joint distribution rows have unequal length")
        self._flat  # validates the cells as one distribution

    @_lazy
    def _flat(self) -> ProbDist:
        """The distribution on cells ``x * y_size + y``, built once, by validation."""
        return ProbDist(tuple(chain.from_iterable(self.weights)))

    @property
    def x_size(self) -> int:
        return len(self.weights)

    @property
    def y_size(self) -> int:
        return len(self.weights[0])

    def marginal_x(self) -> ProbDist:
        return ProbDist(tuple(_sum(r) for r in self.weights))

    def marginal_y(self) -> ProbDist:
        return ProbDist(tuple(_sum(col) for col in zip(*self.weights)))


@dataclass(frozen=True)
class EntropyProfile:
    """The six compound quantities for a pair of partitions.

    Satisfies ``h_joint = h_pi_given_sigma + mutual + h_sigma_given_pi`` and
    ``mutual = h_pi + h_sigma - h_joint`` (exactly in the exact backend).
    """

    h_pi: Number
    h_sigma: Number
    h_joint: Number
    h_pi_given_sigma: Number
    h_sigma_given_pi: Number
    mutual: Number


def _check_dist(pi: Partition, p: ProbDist, what: str) -> None:
    if pi.universe.size != p.size:
        raise UniverseMismatch(
            f"{what}: partition on size {pi.universe.size}, distribution on {p.size}"
        )


def _sum(values) -> Number:
    """Left-to-right sum.

    Python 3.12's ``sum`` compensates float rounding, so using it here would
    make the last digits of a report depend on the interpreter version.
    """
    return reduce(operator.add, values, 0)


def _purity(values) -> Number:
    """``sum v^2`` folded left to right: on raw totals, exact ones are integer numerators over ``d^2``."""
    return _sum(map(operator.mul, values, values))


def _scale(addends) -> tuple:
    """``(D, form)`` for sums of squared raw totals of ``addends``: ``D = d^2``, and ``form(x)`` is
    ``Fraction(x, D)`` if a weight is a Fraction, else the int ``x // D``; on floats ``D = 1`` and ``x``."""
    _, d, fractions = addends
    if d is None:
        return 1, lambda x: x
    D = d * d
    return D, (lambda x: Fraction(x, D)) if any(fractions) else (lambda x: x // D)


def _logical(totals, addends) -> Number:
    """``1 - sum s^2`` over the raw totals ``s`` of ``addends``, formed once (:func:`_scale`)."""
    D, form = _scale(addends)
    return form(D - _purity(totals))


def _bits(values, d=None) -> float:
    """``-sum v log2 v`` in bits over ``values`` as floats or, given ``d``, over exact raw totals
    as ``x / d``: int true division rounds correctly, to the double ``float(Fraction(x, d))`` gives."""
    values = map(float, values) if d is None else map(operator.truediv, values, repeat(d))
    return _sum(-v * math.log2(v) if v > 0.0 else 0.0 for v in values)


def _six(cls, h_a, h_b, h_joint, form=None):
    """A profile ``cls`` from two entropies and their joint, the rest by subtraction; ``form``
    maps each of the six fields, if given."""
    six = (h_a, h_b, h_joint, h_joint - h_b, h_joint - h_a, h_a + h_b - h_joint)
    return cls(*six if form is None else map(form, six))


def _closed(cls, addends, *totals):
    """The profile ``cls`` from the raw totals of two marginals and their table: each entropy is
    ``D - sum s^2`` (:func:`_scale`), the rest follow by subtraction, and each field is formed once."""
    D, form = _scale(addends)
    return _six(cls, *(D - _purity(s) for s in totals), form=form)


def _sums(keys, size: int, values) -> list:
    """Raw total of each key in ``range(size)``, in one pass: ``s[keys[x]] += values[x]``.

    ``values`` are ``ProbDist._terms[0]``: exact weights' integer numerators
    over ``d``, or floats.  Each key's values are added left to right in
    index order, as :func:`_sum` adds them over the key's ascending points,
    so float totals are its totals to the bit.
    """
    s = [0] * size
    for k, x in zip(keys, values):
        s[k] += x
    return s


def _typed(keys, totals: list, addends) -> list:
    """Raw totals by key as the values :func:`_sum` gives: ``Fraction(s, d)`` if one of the
    key's weights is a Fraction, an int if all are ints, and the int 0 if it has none."""
    _, d, fractions = addends
    if d is None:
        return totals
    hit = set(compress(keys, fractions))
    return [Fraction(x, d) if k in hit else x // d for k, x in enumerate(totals)]


def _cells(ids_a, ids_b, n_b: int) -> tuple:
    """Keys and size for one :func:`_sums` pass over the occupied cells of the block-pair table,
    in row-major order: cell ``(i, j)`` totals the points ``k`` with ``ids_a[k] == i`` and
    ``ids_b[k] == j``.  An empty cell would only add an int 0 to a sum over the table."""
    keys = [i * n_b + j for i, j in zip(ids_a, ids_b)]
    occupied = set(keys)
    if len(occupied) <= max(occupied):  # a cell before the last is empty: number the occupied ones
        cell = {k: c for c, k in enumerate(sorted(occupied))}
        keys = [cell[k] for k in keys]
    return keys, len(occupied)


def _region_table(weights, ids_a, ids_b) -> list:
    """Brute-force oracle over ordered pairs of cells.

    Cell ``k`` has weight ``weights[k]`` and lies in block ``ids_a[k]`` of
    the first partition and ``ids_b[k]`` of the second.  ``t[da][db]`` sums
    ``w w'`` over the pairs whose a-blocks differ (``da``) and whose
    b-blocks differ (``db``); :func:`_regions` reads the six quantities off
    it.  Values and types are those of the double loop over the cells of
    nonzero weight that adds each product to a region starting at the int 0.

    Up to ``_REGION_LOOP_CELLS`` cells that loop runs; above, the numpy
    kernel :func:`_region_kernel`.  Both add Python floats, or exact
    weights' integer numerators over their common denominator ``D``.  A
    region's total is then ``Fraction(total, D^2)`` if one of its pairs
    holds a Fraction weight, else the int ``total // D^2``; on floats, an
    ``np.float64`` if one of its pairs holds a numpy weight, else a float.
    """
    cells = [(w, a, b) for w, a, b in zip(weights, ids_a, ids_b) if w]
    if not cells:
        return [[0, 0], [0, 0]]
    w, a, b = zip(*cells)
    exact = _all_exact(w)
    # The weights whose type a product takes: Fractions among exact weights, numpy scalars among floats.
    wide = list(map(isinstance, w, repeat(Fraction if exact else np.generic)))
    if exact:
        w, d = _numerators(w)
    if len(w) <= _REGION_LOOP_CELLS:
        t, hit = [0] * 4, [False] * 4
        cells = list(zip(w if exact else map(float, w), a, b, wide))
        for x, i, j, f in cells:
            for y, k, l, g in cells:
                c = (i != k) << 1 | (j != l)
                t[c] += x * y
                if f or g:
                    hit[c] = True
    else:
        t, hit = _region_kernel(w, a, b, wide, exact)
    if exact:
        t = [Fraction(x, d * d) if h else x // (d * d) for x, h in zip(t, hit)]
    else:
        t = [np.float64(x) if h else x for x, h in zip(t, hit)]
    return [t[:2], t[2:]]


def _region_kernel(w, a, b, wide, exact: bool) -> tuple:
    """The region totals of :func:`_region_table` on floats or on exact weights' integer
    numerators, and which of them hold a pair with a ``wide`` weight.

    Per row chunk of ``w w^T`` (at most ``_REGION_CHUNK`` pairs), buffers
    allocated once take the products and the codes ``2 (a differs) + (b
    differs)``, and one ``np.add.at`` adds the products to the four running
    totals in index order: a strict left-to-right fold of each region in
    row-major pair order from 0.0, so float results are bit-for-bit those
    of the double loop.  Numerators run in int64 while no partial sum can
    overflow it, as Python ints otherwise.
    """
    if exact:
        # Every partial sum of products is at most (sum |n|)^2.
        fits = sum(map(abs, w)) ** 2 < 2 ** 63
        w = np.array(w, dtype=np.int64 if fits else object)
    else:
        w = np.array(w, dtype=np.float64)
    flags = np.array(wide) if any(wide) and not all(wide) else None  # only a mix needs pair flags
    # Region 0 holds (x, x); 1 (a same, b differs) holds a pair iff an a-block meets two b-blocks, and 2
    # likewise; 3 iff each side has two blocks: then some (i, j) meets (i', j'), or (i', j) meets (i, j').
    ua, ub, kab = sorted(set(a)), sorted(set(b)), len(set(zip(a, b)))
    held = [True, kab > len(ua), kab > len(ub), len(ua) > 1 and len(ub) > 1]
    # The codes by table: row ia[x] of ta holds 2 where a[y] != a[x], row ib[x] of tb 1 where b[y] != b[x].
    a, b, ua, ub = np.array(a), np.array(b), np.array(ua), np.array(ub)
    ia, ib = np.searchsorted(ua, a), np.searchsorted(ub, b)
    ta, tb = (ua[:, None] != a).view(np.uint8) << 1, (ub[:, None] != b).view(np.uint8)
    n, step = len(w), max(1, _REGION_CHUNK // len(w))
    pairs, code = np.empty((min(step, n), n), w.dtype), np.empty((min(step, n), n), np.intp)
    t, hit = np.zeros(4, w.dtype), np.zeros(4, bool)
    for r in range(0, n, step):
        rows = slice(r, r + step)
        p, c = pairs[:min(step, n - r)], code[:min(step, n - r)]
        np.multiply(w[rows, None], w, out=p)
        np.add(ta[ia[rows]], tb[ib[rows]], out=c)
        np.add.at(t, c.ravel(), p.ravel())
        if flags is not None:
            np.logical_or.at(hit, c.ravel(), (flags[rows, None] | flags).ravel())
    if flags is None:  # every weight wide, or none
        hit = [h and wide[0] for h in held]
    return [x if h else 0 for x, h in zip(t.tolist(), held)], hit


def _regions(cls, t):
    """The six quantities as sums over their regions of a 2x2 table ``t``."""
    return cls(*(_sum(t[a][b] for a, b in cells) for cells in _REGION_CELLS))


def _route(what: str, method: str, closed, oracle, small: bool, tol=FLOAT_TOL):
    """The one oracle policy, for every profile that has an oracle.

    ``"closed"`` returns ``closed()``, ``"regions"`` returns ``oracle()``, and ``"auto"``
    returns ``closed()`` after checking it against ``oracle()`` if the size test ``small`` passed:
    exactly when the weights, and so the profile, are exact, else within ``tol``.
    """
    if method not in ("auto", "closed", "regions"):
        raise InvalidArgument(f"unknown method {method!r}")
    if method == "regions":
        return oracle()
    prof = closed()
    if method == "auto" and small:
        _agree(f"{what}: closed form and oracle", prof, oracle(), _all_exact((prof.h_joint,)), tol)
    return prof


@dataclass(frozen=True, eq=False)
class _Blocks:
    """Two partitions of one universe under ``p``, and their raw block totals on first use.

    Passed in place of ``p`` to the two-partition profiles, it is reused,
    so a report sums each partition's blocks, the block-pair table and the
    join's blocks once, each in one :func:`_sums` pass.  The closed forms
    and Shannon's bits read these raw totals; nothing types them.
    """

    pi: Partition
    sigma: Partition
    p: ProbDist

    @property
    def weights(self) -> tuple:
        """The weights of ``p``; ``bench/tracing.py`` reads them off a carrier it is passed."""
        return self.p.weights

    @_lazy
    def pi_raw(self) -> list:
        return _sums(self.pi._block_of, self.pi.n_blocks, self.p._terms[0])

    @_lazy
    def sigma_raw(self) -> list:
        return _sums(self.sigma._block_of, self.sigma.n_blocks, self.p._terms[0])

    @_lazy
    def table_raw(self) -> list:
        """The block-pair table of ``pi`` and ``sigma`` (:func:`_cells`)."""
        return _sums(*_cells(self.pi._block_of, self.sigma._block_of, self.sigma.n_blocks), self.p._terms[0])

    @_lazy
    def join_raw(self) -> list:
        """The join's blocks, from their own pass rather than from the table."""
        j = join(self.pi, self.sigma)
        return _sums(j._block_of, j.n_blocks, self.p._terms[0])


def _blocks(pi: Partition, sigma: Partition, p: ProbDist | _Blocks, what: str) -> _Blocks:
    """The carrier of ``p`` for ``pi`` and ``sigma``; a carrier passes through unchanged."""
    if isinstance(p, _Blocks):
        return p
    if pi.universe != sigma.universe:
        raise UniverseMismatch(f"{what} needs partitions on one universe")
    _check_dist(pi, p, what)
    return _Blocks(pi, sigma, p)


def block_probabilities(pi: Partition, p: ProbDist) -> list:
    """Pr(B) for each block of ``pi``, in canonical block order."""
    return _typed(pi._block_of, _block_totals(pi, p), p._terms)


def _block_totals(pi: Partition, p: ProbDist) -> list:
    """The raw block totals of ``pi`` under ``p`` (:func:`_sums`)."""
    _check_dist(pi, p, "block probabilities")
    return _sums(pi._block_of, pi.n_blocks, p._terms[0])


def logical_entropy(pi: Partition, p: ProbDist) -> Number:
    """Two-draw distinction probability ``1 - sum_B Pr(B)^2``."""
    return _logical(_block_totals(pi, p), p._terms)


def product_measure(region: PairSet, p: ProbDist) -> Number:
    """Probability that an independent pair of draws lands in ``region``.

    The value and type of the fold of ``w[a] w[b]`` over the sorted pairs, read
    off the region's indicator in row-major order.  Exact weights add ``n[a] n[b]``
    over the numerators of ``p._terms`` and divide once by ``d^2``; floats fold
    with ``np.cumsum``, or in Python if ``p._arrays`` is ``None``.
    """
    if region.universe.size != p.size:
        raise UniverseMismatch(
            f"product measure: pair set on size {region.universe.size}, "
            f"distribution on {p.size}"
        )
    rows, cols = region._coords()
    values, d, _ = p._terms
    if not len(rows) or p._arrays is None:
        return _sum(values[a] * values[b] for a, b in zip(rows.tolist(), cols.tolist()))
    w, wide = p._arrays
    touched = wide if type(wide) is bool else (wide[rows] | wide[cols]).any()
    if d is not None:
        total = int(w[rows] @ w[cols])
        return Fraction(total, d * d) if touched else total // (d * d)
    total = (w[rows] * w[cols]).cumsum()[-1] + 0.0  # the fold from the int 0 never ends on -0.0
    return total if touched else float(total)


def entropy_profile(
    pi: Partition,
    sigma: Partition,
    p: ProbDist | _Blocks,
    method: str = "auto",
) -> EntropyProfile:
    """All six compound logical entropies for a pair of partitions.

    ``method="closed"`` uses the block-probability closed forms, with the
    conditional and mutual parts obtained by subtraction.  ``"regions"``
    is the oracle path: it takes the product measures of the disjoint ditset
    regions (the two differences and the intersection) and sums each
    quantity over its regions.  ``"auto"``
    (default) computes the closed forms and, when the ditsets are small
    enough to materialize, checks them against the region path.

    ``p`` may be a ``_Blocks`` carrier of ``pi`` and ``sigma`` instead of
    a distribution.
    """
    c = _blocks(pi, sigma, p, "entropy profile")

    def regions():
        dit_pi, dit_sigma = ditset(c.pi), ditset(c.sigma)
        # No region reads t[0][0], the pairs neither partition distinguishes.
        return _regions(EntropyProfile, [
            [None, product_measure(dit_sigma.difference(dit_pi), c.p)],
            [product_measure(dit_pi.difference(dit_sigma), c.p),
             product_measure(dit_pi.intersection(dit_sigma), c.p)],
        ])

    return _route(
        "entropy profile", method,
        lambda: _closed(EntropyProfile, c.p._terms, c.pi_raw, c.sigma_raw, c.table_raw),
        regions, c.pi.universe.size <= DITSET_MATERIALIZE_BOUND,
    )


def shannon_entropy(pi: Partition, p: ProbDist) -> float:
    """Shannon entropy of the block distribution, in bits.

    Blocks of probability zero contribute zero.
    """
    return _bits(_block_totals(pi, p), p._terms[1])


def shannon_profile(pi: Partition, sigma: Partition, p: ProbDist | _Blocks) -> EntropyProfile:
    """Joint/conditional/mutual Shannon entropies (bits) for a partition pair.

    The joint entropy is the entropy of the join; conditionals and mutual
    information come from the standard subtraction identities.  ``p`` may
    be a ``_Blocks`` carrier, as in :func:`entropy_profile`.
    """
    c = _blocks(pi, sigma, p, "shannon profile")
    d = c.p._terms[1]
    return _six(EntropyProfile, *(_bits(s, d) for s in (c.pi_raw, c.sigma_raw, c.join_raw)))


def shannon_profile_from_transform(
    pi: Partition, sigma: Partition, p: ProbDist | _Blocks,
) -> EntropyProfile:
    """Shannon profile obtained by the dit-count -> bit-count substitution.

    Each logical quantity is first written as an average of dit counts
    ``sum Pr(.) (1 - Pr(.))`` over its defining blocks or block pairs; the
    substitution ``1 - Pr(.) => log2(1/Pr(.))`` then yields these sums,
    computed here directly from the block pair table without forming the
    join partition.  Agrees with :func:`shannon_profile` within float error.
    ``p`` may be a ``_Blocks`` carrier, as in :func:`entropy_profile`.
    """
    c = _blocks(pi, sigma, p, "shannon profile")
    d = c.p._terms[1]
    return _six(EntropyProfile, *(_bits(s, d) for s in (c.pi_raw, c.sigma_raw, c.table_raw)))


def hamming_distance(pi: Partition, sigma: Partition, p: ProbDist) -> Number:
    """Probability that two draws are distinguished by exactly one partition.

    Equals ``h(pi|sigma) + h(sigma|pi)`` and also
    ``2 h(join) - h(pi) - h(sigma)``; a pseudo-metric on partitions (zero
    iff the partitions identify the same probability-carrying blocks).
    """
    prof = entropy_profile(pi, sigma, p)
    return prof.h_pi_given_sigma + prof.h_sigma_given_pi


def cross_entropy_partitions(pi: Partition, sigma: Partition, p: ProbDist) -> Number:
    """Two-draw probability of a distinction by at least one partition.

    Symmetric; equals the logical entropy of the join, and reduces to plain
    logical entropy when the two partitions coincide.
    """
    prof = entropy_profile(pi, sigma, p)
    return prof.h_joint


def twoset_profile(
    pi: Partition,
    sigma: Partition,
    joint: JointDist,
    method: str = "auto",
) -> EntropyProfile:
    """Compound logical entropies for partitions on *different* sets.

    ``pi`` partitions X, ``sigma`` partitions Y, and ``joint`` is a
    distribution on ``X x Y``.  Distinctions are judged on independent
    draws of pairs: the ``pi`` side distinguishes two pairs when their X
    components fall in different blocks, likewise for Y.  With
    ``pi = top(X)`` and ``sigma = top(Y)`` this reduces to the ordinary
    two-variable logical entropies of the joint distribution.

    ``method`` works as in :func:`entropy_profile`: ``"regions"`` is the
    brute-force double sum over ordered pairs of cells, ``"closed"`` uses
    the aggregated block-pair table, ``"auto"`` cross-checks the two.
    """
    if pi.universe.size != joint.x_size:
        raise UniverseMismatch(
            f"pi partitions size {pi.universe.size}, joint X side is {joint.x_size}"
        )
    if sigma.universe.size != joint.y_size:
        raise UniverseMismatch(
            f"sigma partitions size {sigma.universe.size}, joint Y side is {joint.y_size}"
        )
    p = joint._flat
    # Cell (x, y) lies in block pi(x) of pi and sigma(y) of sigma.
    ids_a = [a for a in pi._block_of for _ in range(joint.y_size)]
    ids_b = sigma._block_of * joint.x_size

    def closed():
        n_b = sigma.n_blocks
        q = _sums(*_cells(ids_a, ids_b, n_b), p._terms[0])
        # Row and column sums of the table, not per-point sums: the two round floats differently.
        qa = [_sum(q[r:r + n_b]) for r in range(0, len(q), n_b)]
        qb = [_sum(q[j::n_b]) for j in range(n_b)]
        return _closed(EntropyProfile, p._terms, qa, qb, q)

    def regions():
        return _regions(EntropyProfile, _region_table(p.weights, ids_a, ids_b))

    return _route("two-set profile", method, closed, regions, p.size ** 2 <= REGION_ORACLE_BOUND)


def dist_entropy(p: ProbDist) -> Number:
    """Logical entropy of a distribution: two draws differ, ``1 - sum p_i^2``."""
    return _logical(p._terms[0], p._terms)


def dist_cross_entropy(p: ProbDist, q: ProbDist) -> Number:
    """Two independent draws, one from each distribution, differ: ``1 - sum p_i q_i``.

    Symmetric in its arguments and equal to :func:`dist_entropy` on the
    diagonal ``q = p``.
    """
    if p.size != q.size:
        raise LengthMismatch(f"distributions have sizes {p.size} and {q.size}")
    return 1 - _sum(a * b for a, b in zip(p.weights, q.weights))
