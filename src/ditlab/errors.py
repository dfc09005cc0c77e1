"""Exception types shared across the library.

Everything raised deliberately by ditlab derives from :class:`DitlabError`,
so callers can catch one base class.  Most conditions are also ``ValueError``
subclasses because they signal bad arguments.
"""

from __future__ import annotations


class DitlabError(Exception):
    """Base class for all errors raised by this library."""


class InvalidArgument(DitlabError, ValueError):
    """An argument outside its domain: an unknown method or region name, or a size below its least."""


# ---------------------------------------------------------------- partitions

class PartitionError(DitlabError, ValueError):
    """A collection of blocks does not form a partition of the universe."""


class OverlappingBlocks(PartitionError):
    """Two blocks share an element."""


class UncoveredElement(PartitionError):
    """Some element of the universe appears in no block."""


class EmptyBlock(PartitionError):
    """A block is empty."""


class IndexOutOfRange(PartitionError):
    """An element is not an integer in ``range(n)``."""


class UniverseMismatch(DitlabError, ValueError):
    """Two objects that must live on the same universe do not."""


class BoundExceeded(DitlabError, RuntimeError):
    """An enumeration or search would exceed its configured work bound."""


# ------------------------------------------------------------------ formulas

class FormulaSyntaxError(DitlabError, ValueError):
    """The formula text does not parse.  Carries the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnboundVariable(DitlabError, ValueError):
    """A formula variable has no partition assigned in the environment."""


# ------------------------------------------------- distributions and vectors

class InvalidDistribution(DitlabError, ValueError):
    """Weights are negative or do not sum to one."""


class LengthMismatch(DitlabError, ValueError):
    """Two sequences that must have equal length do not."""


class DimensionMismatch(DitlabError, ValueError):
    """Two arrays that must share a dimension do not."""


class ZeroProbabilityEvent(DitlabError, ValueError):
    """A conditional object was requested for an event of probability zero."""


# ------------------------------------------------------------------ matrices

class InvalidDensityMatrix(DitlabError, ValueError):
    """A matrix fails one of the density-matrix conditions."""


class NotHermitian(InvalidDensityMatrix):
    """The matrix is not Hermitian within tolerance."""


class TraceNotOne(InvalidDensityMatrix):
    """The trace differs from one beyond tolerance."""


class NotPSD(InvalidDensityMatrix):
    """The matrix has an eigenvalue below zero beyond tolerance."""


class InvalidStateVector(DitlabError, ValueError):
    """A state vector is not normalized within tolerance."""


class InvalidProjectorSet(DitlabError, ValueError):
    """Matrices fail to be a complete set of orthogonal projectors."""


class InvalidObservable(DitlabError, ValueError):
    """Eigenbasis is not orthonormal, or eigenvalues are malformed."""


class NotCommuting(DitlabError, ValueError):
    """A joint eigenbasis was required but the observables do not commute."""


class InternalInconsistency(DitlabError, RuntimeError):
    """Two internal computation routes disagreed; signals a library bug."""


def _agree(what: str, a, b, exact: bool, tol: float) -> None:
    """Raise :class:`InternalInconsistency` where two routes to one result differ.

    ``a`` and ``b`` are two profiles of one dataclass type, compared field by
    field, or two tuples, compared item by item.  Exact mode compares with
    ``!=``, first the two value tuples in one comparison, then field by field
    only if they differ; float mode fails unless ``abs(x - y) <= tol``, so NaN
    and infinity never agree.  The message names the first field that differs
    and shows the two values unless either has more digits than Python
    converts to text.
    """
    if isinstance(a, tuple):
        names = range(len(a))
    else:
        names, a, b = vars(a), tuple(vars(a).values()), tuple(vars(b).values())
    if exact and a == b:
        return
    for name, x, y in zip(names, a, b):
        if (x != y) if exact else not abs(x - y) <= tol:
            try:
                message = f"{what} disagree on {name}: {x!r} vs {y!r}"
            except ValueError:  # more digits than Python converts to text
                message = f"{what} disagree on {name}"
            raise InternalInconsistency(message)


class _lazy:
    """A field computed from its instance on first read and kept in the instance ``__dict__``.

    ``functools.cached_property`` without its lock: Python 3.10 and 3.11 take
    an RLock on every first read, and the library's carriers are built per
    call, so nearly every read is a first one.  As a non-data descriptor, it
    is found again only while the instance holds no value under its name.
    Read on the class, it is the descriptor itself.  It serves a dataclass field
    too, as its default under ``init=False``: the class's own ``__init__`` sets it or leaves it.
    """

    def __init__(self, fn):
        self.fn, self.__doc__ = fn, fn.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value
