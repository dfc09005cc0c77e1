"""A propositional language interpreted in partition algebras.

Formulas are built from variables, the constants ``0`` (one block) and ``1``
(all singletons), and the connectives ``|`` (join), ``&`` (meet) and ``->``
(implication).  Given an assignment of partitions on a common universe to
the variables, a formula evaluates to a partition.  A formula is a
*tautology up to a bound* when it evaluates to the all-singletons partition
under every assignment on every universe of size 2 through the bound; the
checker never claims validity beyond the bound it searched.

Grammar (``->`` associates to the right and binds loosest, ``&`` tightest)::

    formula := or ('->' formula)?
    or      := and ('|' and)*
    and     := atom ('&' atom)*
    atom    := '0' | '1' | IDENT | '(' formula ')'
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional

from .errors import (
    BoundExceeded,
    FormulaSyntaxError,
    InternalInconsistency,
    UnboundVariable,
    UniverseMismatch,
)
from .partitions import (
    Partition,
    Universe,
    UniverseLike,
    _as_universe,
    bell_number,
    bottom,
    enumerate_partitions,
    implication,
    join,
    meet,
    top,
)

#: Default cap on the number of formula evaluations a tautology search may plan.
DEFAULT_WORK_LIMIT = 10_000_000


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

_PUNCT = ("->", "(", ")", "|", "&", "0", "1")


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


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            raise FormulaSyntaxError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return self.advance()

    def formula(self) -> Formula:
        left = self.or_level()
        if self.peek()[0] == "->":
            self.advance()
            return Implies(left, self.formula())
        return left

    def or_level(self) -> Formula:
        node = self.and_level()
        while self.peek()[0] == "|":
            self.advance()
            node = Join(node, self.and_level())
        return node

    def and_level(self) -> Formula:
        node = self.atom()
        while self.peek()[0] == "&":
            self.advance()
            node = Meet(node, self.atom())
        return node

    def atom(self) -> Formula:
        kind, text, pos = self.peek()
        if kind == "0":
            self.advance()
            return Const0()
        if kind == "1":
            self.advance()
            return Const1()
        if kind == "ident":
            self.advance()
            return Var(text)
        if kind == "(":
            self.advance()
            node = self.formula()
            self.expect(")")
            return node
        raise FormulaSyntaxError(f"expected a formula, found {text or 'end of input'!r}", pos)


def parse(text: str) -> Formula:
    """Parse formula text into an AST.  Raises :class:`FormulaSyntaxError`."""
    p = _Parser(text)
    node = p.formula()
    kind, tok_text, pos = p.peek()
    if kind != "end":
        raise FormulaSyntaxError(f"unexpected trailing input {tok_text!r}", pos)
    return node


def to_text(f: Formula) -> str:
    """Render with full parentheses; ``parse(to_text(f)) == f``."""
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Const0):
        return "0"
    if isinstance(f, Const1):
        return "1"
    ops = {Join: "|", Meet: "&", Implies: "->"}
    op = ops[type(f)]
    return f"({to_text(f.lhs)} {op} {to_text(f.rhs)})"


def variables(f: Formula) -> list:
    """Variable names in order of first appearance (left to right)."""
    out: list = []

    def walk(node: Formula):
        if isinstance(node, Var):
            if node.name not in out:
                out.append(node.name)
        elif isinstance(node, (Join, Meet, Implies)):
            walk(node.lhs)
            walk(node.rhs)

    walk(f)
    return out


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
    k = len(variables(f))
    return sum(bell_number(n) ** k for n in range(2, max_n + 1))


def check_tautology(
    f: Formula,
    max_n: int,
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> TautologyVerdict:
    """Search all assignments on universes of size 2..``max_n``.

    Returns a counterexample as soon as some assignment evaluates ``f`` to
    anything other than the all-singletons partition, otherwise a
    tautology-up-to-bound verdict.  The verdict never claims more than the
    searched bound.  Raises :class:`BoundExceeded` up front when the planned
    number of evaluations exceeds ``work_limit``.
    """
    if max_n < 2:
        raise ValueError(f"max_n must be >= 2, got {max_n}")
    planned = planned_evaluations(f, max_n)
    if planned > work_limit:
        raise BoundExceeded(
            f"tautology search would evaluate {planned} assignments, "
            f"limit is {work_limit}"
        )
    names = variables(f)
    for n in range(2, max_n + 1):
        u = Universe(n)
        want = top(u)
        # Enumerate up to max_n itself: the work limit is the only bound.
        parts = list(enumerate_partitions(u, max_n)) if names else []
        for combo in itertools.product(parts, repeat=len(names)):
            env = dict(zip(names, combo))
            if evaluate(f, env, u) != want:
                # Defensive re-evaluation: a counterexample witness must
                # reproduce a non-top value when evaluated again.
                if evaluate(f, env, u) == want:
                    raise InternalInconsistency(
                        f"counterexample at n={n} evaluates to top when re-checked"
                    )
                return TautologyVerdict(VerdictStatus.COUNTEREXAMPLE, max_n, (n, env))
    return TautologyVerdict(VerdictStatus.TAUTOLOGY_UP_TO_BOUND, max_n)
