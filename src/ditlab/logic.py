"""A propositional language interpreted in partition algebras.

Formulas are built from variables, the constants ``0`` (one block) and ``1``
(all singletons), and the connectives ``|`` (join), ``&`` (meet) and ``->``
(implication).  Given an assignment of partitions on a common universe to
the variables, a formula evaluates to a partition.  A formula is a
*tautology up to a bound* when it evaluates to the all-singletons partition
under every assignment on every universe of size 2 through the bound; the
checker never claims validity beyond the bound it searched.

The search runs a compiled formula on *indit masks* end to end: bit
``y(y-1)/2 + x`` is set when ``x < y`` share a block, so top is 0 and any other
value is a counterexample.  A join unites ditsets, so on masks it is ``a & b``.
A meet is the equivalence closure of ``a | b`` and an implication that of
``b & ~a``; one memo per size maps each such *deciding mask* to its closure, so
a kernel runs at most once per mask.  One table per size, built in one pass,
holds every mask and its block-id code; codes are read off it only for a kernel
call and for a counterexample, which the tree :func:`evaluate` re-checks.

Grammar (``->`` associates to the right and binds loosest, ``&`` tightest)::

    formula := or ('->' formula)?
    or      := and ('|' and)*
    and     := atom ('&' atom)*
    atom    := '0' | '1' | IDENT | '(' formula ')'

:func:`parse` does not recurse: one operator-precedence loop refuses each
parenthesis or node nested past :data:`MAX_FORMULA_DEPTH` as it is read or
built, which keeps the recursive ``to_text``, ``variables`` and ``evaluate``
within that bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional

from .errors import (
    BoundExceeded,
    FormulaSyntaxError,
    UnboundVariable,
    UniverseMismatch,
    _agree,
)
from .partitions import (
    Partition,
    Universe,
    UniverseLike,
    _as_universe,
    _bell_numbers,
    _coded,
    _implication_code,
    _meet_code,
    bottom,
    implication,
    join,
    meet,
    top,
)

#: Default cap on the number of formula evaluations a tautology search may plan.
DEFAULT_WORK_LIMIT = 10_000_000

#: Deepest nesting :func:`parse` accepts, of parentheses and of the tree.  The
#: parser checks it as each node is built, and it keeps the recursive
#: ``to_text``, ``variables`` and ``evaluate`` within Python's recursion limit.
MAX_FORMULA_DEPTH = 100
_TOO_DEEP = f"formula nests deeper than {MAX_FORMULA_DEPTH} levels"


class Formula:
    """Base class for formula AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Formula):
    name: str


@dataclass(frozen=True)
class Const0(Formula):
    pass


@dataclass(frozen=True)
class Const1(Formula):
    pass


@dataclass(frozen=True)
class Join(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Meet(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Implies(Formula):
    lhs: Formula
    rhs: Formula


# ------------------------------------------------------------------- parsing

#: How tightly each connective binds, and the node it builds.
_BINDS = {"->": 1, "|": 2, "&": 3}
_NODES = {"->": Implies, "|": Join, "&": Meet}
_SYMBOLS = {node: op for op, node in _NODES.items()}


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text.startswith("->", i):
            tokens.append(("->", "->", i))
            i += 2
            continue
        if c in "()|&01":
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise FormulaSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


def parse(text: str) -> Formula:
    """Parse formula text into an AST.  Raises :class:`FormulaSyntaxError`."""
    done: list = []     # finished subformulas, each with its height
    pending: list = []  # connectives and open parentheses, each with its position
    opened = 0
    want_operand = True
    for kind, tok, pos in _tokenize(text):
        if want_operand:
            if kind == "(":
                opened += 1
                if opened > MAX_FORMULA_DEPTH:
                    raise FormulaSyntaxError(_TOO_DEEP, pos)
                pending.append((kind, pos))
            elif kind in ("0", "1", "ident"):
                done.append((Const0() if kind == "0" else Const1() if kind == "1" else Var(tok), 0))
                want_operand = False
            else:
                raise FormulaSyntaxError(f"expected a formula, found {tok or 'end of input'!r}", pos)
            continue
        # Reduce the pending connectives that bind tighter, and those that
        # bind as tight unless the arriving one is the right-associative '->'.
        binds = _BINDS.get(kind, 0)
        while pending and pending[-1][0] != "(" and _BINDS[pending[-1][0]] >= binds + (kind == "->"):
            op, at = pending.pop()
            (rhs, right), (lhs, left) = done.pop(), done.pop()
            height = max(left, right) + 1
            if height > MAX_FORMULA_DEPTH:
                raise FormulaSyntaxError(_TOO_DEEP, at)
            done.append((_NODES[op](lhs, rhs), height))
        if binds:
            pending.append((kind, pos))
            want_operand = True
        elif kind == ")" and opened:
            pending.pop()
            opened -= 1
        elif kind == "end" and not opened:
            return done[0][0]
        elif opened:
            raise FormulaSyntaxError(f"expected ')', found {tok or 'end of input'!r}", pos)
        else:
            raise FormulaSyntaxError(f"unexpected trailing input {tok!r}", pos)


def to_text(f: Formula) -> str:
    """Render with full parentheses; ``parse(to_text(f)) == f``."""
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Const0):
        return "0"
    if isinstance(f, Const1):
        return "1"
    return f"({to_text(f.lhs)} {_SYMBOLS[type(f)]} {to_text(f.rhs)})"


def variables(f: Formula) -> list:
    """Variable names in order of first appearance (left to right)."""
    out: dict = {}  # keeps the order of insertion, with O(1) membership

    def walk(node: Formula):
        if isinstance(node, Var):
            out[node.name] = None
        elif isinstance(node, (Join, Meet, Implies)):
            walk(node.lhs)
            walk(node.rhs)

    walk(f)
    return list(out)


# ---------------------------------------------------------------- evaluation

def evaluate(f: Formula, env: Mapping[str, Partition], universe: UniverseLike) -> Partition:
    """Evaluate a formula to a partition on the given universe.

    Raises :class:`UnboundVariable` for a variable missing from ``env`` and
    :class:`UniverseMismatch` when a bound partition lives on a different
    universe.
    """
    u = _as_universe(universe)
    if isinstance(f, Var):
        if f.name not in env:
            raise UnboundVariable(f"no partition bound to variable {f.name!r}")
        p = env[f.name]
        if p.universe != u:
            raise UniverseMismatch(
                f"variable {f.name!r} bound to a partition on size "
                f"{p.universe.size}, expected {u.size}"
            )
        return p
    if isinstance(f, Const0):
        return bottom(u)
    if isinstance(f, Const1):
        return top(u)
    lhs = evaluate(f.lhs, env, u)
    rhs = evaluate(f.rhs, env, u)
    if isinstance(f, Join):
        return join(lhs, rhs)
    if isinstance(f, Meet):
        return meet(lhs, rhs)
    return implication(lhs, rhs)


# ---------------------------------------------------------- tautology search

class VerdictStatus(Enum):
    TAUTOLOGY_UP_TO_BOUND = "tautology_up_to_bound"
    COUNTEREXAMPLE = "counterexample"


@dataclass(frozen=True)
class TautologyVerdict:
    """Outcome of a bounded tautology search.

    ``witness`` is ``None`` for a bounded tautology; for a counterexample it
    is ``(n, assignment)`` where the assignment maps each variable to a
    partition on the size-``n`` universe under which the formula does not
    evaluate to the all-singletons partition.
    """

    status: VerdictStatus
    bound: int
    witness: Optional[tuple] = None

    @property
    def is_tautology_up_to_bound(self) -> bool:
        return self.status is VerdictStatus.TAUTOLOGY_UP_TO_BOUND


def planned_evaluations(f: Formula, max_n: int) -> int:
    """Number of formula evaluations a search up to ``max_n`` would perform."""
    return _planned(len(variables(f)), max_n, float("inf"))


def _planned(k: int, max_n: int, stop: float) -> int:
    """Evaluations over ``k`` variables on sizes 2..``max_n``, summed only
    until the sum passes ``stop``.  With no variables only size 2 is searched."""
    if k == 0:
        return int(max_n >= 2)
    total = 0
    for bell in itertools.islice(_bell_numbers(), 2, max_n + 1):
        total += bell ** k
        if total > stop:
            break
    return total


def check_tautology(
    f: Formula,
    max_n: int,
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> TautologyVerdict:
    """Search all assignments on universes of size 2..``max_n``.

    Returns a counterexample as soon as some assignment evaluates ``f`` to
    anything other than the all-singletons partition, otherwise a
    tautology-up-to-bound verdict.  The verdict never claims more than the
    searched bound; a formula with no variables is top on every size from 2
    on or on none, so size 2 alone is searched.  Raises :class:`BoundExceeded`
    up front when the planned number of evaluations exceeds ``work_limit``;
    the plan stops counting as soon as it does.
    """
    if max_n < 2:
        raise ValueError(f"max_n must be >= 2, got {max_n}")
    names = variables(f)
    if _planned(len(names), max_n, work_limit) > work_limit:
        raise BoundExceeded(
            f"tautology search up to n={max_n} would evaluate more than "
            f"{work_limit} assignments, the work limit"
        )
    for n in range(2, max_n + 1 if names else 3):
        table = _Masks(n)
        value_of = _compiled(f, names, table)
        # No enumeration bound applies: the work limit is the only bound.
        for masks in itertools.product(table.masks, repeat=len(names)):
            value = value_of(masks)
            if value:
                # The tree evaluator on partitions must give the same value.
                u = Universe(n)
                env = {name: _coded(u, table[m]) for name, m in zip(names, masks)}
                _agree(f"counterexample at n={n} and its re-evaluation",
                       (_coded(u, table[value]),), (evaluate(f, env, u),), True, 0)
                return TautologyVerdict(VerdictStatus.COUNTEREXAMPLE, max_n, (n, env))
    return TautologyVerdict(VerdictStatus.TAUTOLOGY_UP_TO_BOUND, max_n)


def _compiled(f: Formula, names: list, table: _Masks):
    """``f`` on the universe of ``table``'s size: a tuple of indit masks, in the order of
    ``names``, to an indit mask."""
    closure = table.closure

    def build(node: Formula):
        if isinstance(node, Var):
            i = names.index(node.name)
            return lambda masks: masks[i]
        if isinstance(node, (Const0, Const1)):
            const = table.masks[0] if isinstance(node, Const0) else 0  # the all-zeros code is bottom
            return lambda masks: const
        lhs, rhs = build(node.lhs), build(node.rhs)
        if isinstance(node, Join):
            return lambda masks: lhs(masks) & rhs(masks)
        meets = isinstance(node, Meet)
        kernel = _meet_code if meets else _implication_code

        def value(masks):
            a, b = lhs(masks), rhs(masks)
            deciding = a | b if meets else b & ~a
            out = closure.get(deciding)
            if out is None:
                out = closure[deciding] = table[kernel(table[a], table[b])]
            return out

        return value

    return build(f)


class _Masks(dict):
    """Codes of length ``n`` (tuples) and their indit masks (ints), each mapped to the other,
    the ``masks`` in growth-string order and ``closure`` with each mask as its own, all filled
    in one pass over prefixes: a row holds a code, its mask and each block's members as bits."""

    def __init__(self, n: int):
        rows = [((0,), 0, (1,))]
        for y in range(1, n):
            shift, bit = y * (y - 1) // 2, 1 << y
            rows = [(code + (b,), mask | m << shift, mates[:b] + (m | bit,) + mates[b + 1:])
                    for code, mask, mates in rows for b, m in enumerate(mates + (0,))]
        self.masks = [mask for _, mask, _ in rows]
        self.closure = dict(zip(self.masks, self.masks))
        for code, mask, _ in rows:
            self[code], self[mask] = mask, code
