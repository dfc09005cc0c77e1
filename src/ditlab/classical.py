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

Every two-partition profile comes from the block-pair table ``q[i][j]``
(probability of block ``i`` of one partition and block ``j`` of the other)
through one kernel, ``_profile``, which applies an entropy functional to the
marginals and cells; ``_six`` then subtracts out the conditional and mutual
parts.  The brute-force oracle, ``_region_table``, sums ``w w'`` over
ordered pairs of cells into a 2x2 table indexed by which partitions
distinguish the pair; each quantity is a region of it (``_REGION_CELLS``).
:func:`entropy_profile` fills the same table from explicit ditsets.

Arithmetic is exact when the weights are :class:`fractions.Fraction` (or
int) valued; with float weights the same code runs in floating point and
comparisons allow ``FLOAT_TOL``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Sequence, Union

from .errors import InvalidDistribution, LengthMismatch, UniverseMismatch, _agree
from .partitions import (
    DITSET_MATERIALIZE_BOUND,
    PairSet,
    Partition,
    Universe,
    ditset,
    join,
)

Number = Union[Fraction, int, float]

#: Comparison tolerance for the float backend.
FLOAT_TOL = 1e-12

#: Most ordered pairs of cells the brute-force region oracle is run on.
REGION_ORACLE_BOUND = 10 ** 6

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


def _is_exact(x: Number) -> bool:
    return isinstance(x, (Fraction, int)) and not isinstance(x, bool)


@dataclass(frozen=True)
class ProbDist:
    """A probability distribution on ``{0, ..., n-1}``.

    Weights may be Fractions/ints (exact backend) or floats.  They must be
    nonnegative and sum to one (exactly in the exact backend, within
    ``FLOAT_TOL`` otherwise).
    """

    weights: tuple

    def __post_init__(self):
        w = tuple(self.weights)
        object.__setattr__(self, "weights", w)
        if not w:
            raise InvalidDistribution("a distribution needs at least one weight")
        for x in w:
            if x < 0:
                raise InvalidDistribution(f"negative weight {x}")
        total = sum(w)
        if self.is_exact:
            if total != 1:
                try:
                    message = f"weights sum to {total}, expected 1"
                except ValueError:  # more digits than Python converts to text
                    message = "weights do not sum to 1"
                raise InvalidDistribution(message)
        elif abs(total - 1) > FLOAT_TOL:
            raise InvalidDistribution(f"weights sum to {total!r}, expected 1 within {FLOAT_TOL}")

    @property
    def size(self) -> int:
        return len(self.weights)

    @property
    def universe(self) -> Universe:
        return Universe(len(self.weights))

    @property
    def is_exact(self) -> bool:
        return all(_is_exact(x) for x in self.weights)

    @staticmethod
    def uniform(n: int) -> "ProbDist":
        return ProbDist(tuple(Fraction(1, n) for _ in range(n)))

    def prob(self, indices: Sequence[int]) -> Number:
        """Probability of the event given by a collection of outcome indices."""
        return _sum(self.weights[i] for i in indices)


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
        ProbDist(tuple(x for r in rows for x in r))

    @property
    def x_size(self) -> int:
        return len(self.weights)

    @property
    def y_size(self) -> int:
        return len(self.weights[0])

    @property
    def is_exact(self) -> bool:
        return all(_is_exact(x) for r in self.weights for x in r)

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


def _logical(values) -> Number:
    return 1 - _sum(v * v for v in values)


def _bits(values) -> float:
    return _sum(-v * math.log2(v) if v > 0.0 else 0.0 for v in map(float, values))


def _six(cls, h_a, h_b, h_joint):
    """A profile ``cls`` from two entropies and their joint, the rest by subtraction."""
    return cls(h_a, h_b, h_joint, h_joint - h_b, h_joint - h_a, h_a + h_b - h_joint)


def _block_table(cells, n_a: int, n_b: int) -> list:
    """Block-pair table ``q[i][j]``: total weight of the cells ``(i, j, w)``."""
    q = [[0] * n_b for _ in range(n_a)]
    for i, j, w in cells:
        q[i][j] += w
    return q


def _profile(h, qa, qb, q) -> EntropyProfile:
    """Apply the entropy functional ``h`` to both marginals and to the cells of ``q``.

    The marginals come from the caller, because summing per point and
    summing the table's rows round floats differently.
    """
    return _six(EntropyProfile, h(qa), h(qb), h(v for row in q for v in row))


def _region_table(weights, ids_a, ids_b) -> list:
    """Brute-force oracle over ordered pairs of cells.

    Cell ``k`` has weight ``weights[k]`` and lies in block ``ids_a[k]`` of
    the first partition and ``ids_b[k]`` of the second.  ``t[da][db]`` sums
    ``w w'`` over the pairs whose a-blocks differ (``da``) and whose
    b-blocks differ (``db``); :func:`_regions` reads the six quantities off
    it.
    """
    cells = [(w, a, b) for w, a, b in zip(weights, ids_a, ids_b) if w]
    t = [[0, 0], [0, 0]]
    for w, a, b in cells:
        for w2, a2, b2 in cells:
            t[a != a2][b != b2] += w * w2
    return t


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
        raise ValueError(f"unknown method {method!r}")
    if method == "regions":
        return oracle()
    prof = closed()
    if method == "auto" and small:
        _agree(f"{what}: closed form and oracle", prof, oracle(), _is_exact(prof.h_joint), tol)
    return prof


def block_probabilities(pi: Partition, p: ProbDist) -> list:
    """Pr(B) for each block of ``pi``, in canonical block order."""
    _check_dist(pi, p, "block probabilities")
    return [p.prob(b) for b in pi.blocks]


def logical_entropy(pi: Partition, p: ProbDist) -> Number:
    """Two-draw distinction probability ``1 - sum_B Pr(B)^2``."""
    return _logical(block_probabilities(pi, p))


def product_measure(region: PairSet, p: ProbDist) -> Number:
    """Probability that an independent pair of draws lands in ``region``."""
    if region.universe.size != p.size:
        raise UniverseMismatch(
            f"product measure: pair set on size {region.universe.size}, "
            f"distribution on {p.size}"
        )
    w = p.weights
    return _sum(w[a] * w[b] for a, b in region)


def _point_table(pi: Partition, sigma: Partition, p: ProbDist) -> list:
    return _block_table(zip(pi._block_of, sigma._block_of, p.weights), pi.n_blocks, sigma.n_blocks)


def entropy_profile(
    pi: Partition,
    sigma: Partition,
    p: ProbDist,
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
    """
    if pi.universe != sigma.universe:
        raise UniverseMismatch("entropy profile needs partitions on one universe")
    _check_dist(pi, p, "entropy profile")

    def regions():
        dit_pi, dit_sigma = ditset(pi), ditset(sigma)
        # No region reads t[0][0], the pairs neither partition distinguishes.
        return _regions(EntropyProfile, [
            [None, product_measure(dit_sigma.difference(dit_pi), p)],
            [product_measure(dit_pi.difference(dit_sigma), p),
             product_measure(dit_pi.intersection(dit_sigma), p)],
        ])

    return _route(
        "entropy profile", method,
        lambda: _profile(_logical, block_probabilities(pi, p), block_probabilities(sigma, p),
                         _point_table(pi, sigma, p)),
        regions, pi.universe.size <= DITSET_MATERIALIZE_BOUND,
    )


def shannon_entropy(pi: Partition, p: ProbDist) -> float:
    """Shannon entropy of the block distribution, in bits.

    Blocks of probability zero contribute zero.
    """
    return _bits(block_probabilities(pi, p))


def shannon_profile(pi: Partition, sigma: Partition, p: ProbDist) -> EntropyProfile:
    """Joint/conditional/mutual Shannon entropies (bits) for a partition pair.

    The joint entropy is the entropy of the join; conditionals and mutual
    information come from the standard subtraction identities.
    """
    if pi.universe != sigma.universe:
        raise UniverseMismatch("shannon profile needs partitions on one universe")
    return _six(
        EntropyProfile,
        shannon_entropy(pi, p), shannon_entropy(sigma, p), shannon_entropy(join(pi, sigma), p),
    )


def shannon_profile_from_transform(pi: Partition, sigma: Partition, p: ProbDist) -> EntropyProfile:
    """Shannon profile obtained by the dit-count -> bit-count substitution.

    Each logical quantity is first written as an average of dit counts
    ``sum Pr(.) (1 - Pr(.))`` over its defining blocks or block pairs; the
    substitution ``1 - Pr(.) => log2(1/Pr(.))`` then yields these sums,
    computed here directly from the block pair table without forming the
    join partition.  Agrees with :func:`shannon_profile` within float error.
    """
    if pi.universe != sigma.universe:
        raise UniverseMismatch("shannon profile needs partitions on one universe")
    _check_dist(pi, p, "shannon profile")
    return _profile(
        _bits, block_probabilities(pi, p), block_probabilities(sigma, p),
        _point_table(pi, sigma, p),
    )


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
    ids_a = [a for a in pi._block_of for _ in range(joint.y_size)]
    ids_b = sigma._block_of * joint.x_size
    weights = [w for row in joint.weights for w in row]

    def closed():
        q = _block_table(zip(ids_a, ids_b, weights), pi.n_blocks, sigma.n_blocks)
        return _profile(_logical, [_sum(row) for row in q], [_sum(col) for col in zip(*q)], q)

    return _route(
        "two-set profile", method, closed,
        lambda: _regions(EntropyProfile, _region_table(weights, ids_a, ids_b)),
        len(weights) ** 2 <= REGION_ORACLE_BOUND,
    )


def dist_entropy(p: ProbDist) -> Number:
    """Logical entropy of a distribution: two draws differ, ``1 - sum p_i^2``."""
    return _logical(p.weights)


def dist_cross_entropy(p: ProbDist, q: ProbDist) -> Number:
    """Two independent draws, one from each distribution, differ: ``1 - sum p_i q_i``.

    Symmetric in its arguments and equal to :func:`dist_entropy` on the
    diagonal ``q = p``.
    """
    if p.size != q.size:
        raise LengthMismatch(f"distributions have sizes {p.size} and {q.size}")
    return 1 - _sum(a * b for a, b in zip(p.weights, q.weights))
