"""Formula parsing, evaluation and the bounded tautology search."""

from __future__ import annotations

import itertools
import sys
import time
import traceback

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from ditlab import logic, partitions
from ditlab.errors import (
    BoundExceeded,
    FormulaSyntaxError,
    UnboundVariable,
    UniverseMismatch,
)
from ditlab.logic import (
    Const0,
    Const1,
    Implies,
    Join,
    Meet,
    TautologyVerdict,
    Var,
    VerdictStatus,
    check_tautology,
    evaluate,
    parse,
    planned_evaluations,
    to_text,
    variables,
)
from ditlab.partitions import (
    bell_number,
    bottom,
    enumerate_partitions,
    implication,
    inditset,
    make_partition,
    refines,
    top,
)


# -------------------------------------------------------------- parsing

def test_parse_precedence_and_associativity():
    assert parse("a -> b -> c") == Implies(Var("a"), Implies(Var("b"), Var("c")))
    assert parse("a | b & c") == Join(Var("a"), Meet(Var("b"), Var("c")))
    assert parse("a & b | c") == Join(Meet(Var("a"), Var("b")), Var("c"))
    assert parse("a | b -> c") == Implies(Join(Var("a"), Var("b")), Var("c"))
    assert parse("(a | b) & c") == Meet(Join(Var("a"), Var("b")), Var("c"))
    assert parse("a & (b | c)") == Meet(Var("a"), Join(Var("b"), Var("c")))


def test_parse_constants_and_identifiers():
    assert parse("0") == Const0()
    assert parse("1") == Const1()
    assert parse("x_1 & _tmp") == Meet(Var("x_1"), Var("_tmp"))
    assert parse("  p  ") == Var("p")


def test_parse_left_associative_chains():
    assert parse("a | b | c") == Join(Join(Var("a"), Var("b")), Var("c"))
    assert parse("a & b & c") == Meet(Meet(Var("a"), Var("b")), Var("c"))


@pytest.mark.parametrize(
    "text,pos",
    [
        ("", 0),
        ("a &", 3),
        ("(a", 2),
        (")", 0),
        ("a b", 2),
        ("a + b", 2),
        ("a -> ", 5),
        ("a ->> b", 4),
    ],
)
def test_parse_errors_carry_position(text, pos):
    with pytest.raises(FormulaSyntaxError) as exc:
        parse(text)
    assert exc.value.position == pos


def test_to_text_round_trip_examples():
    for text in ["(s & (s -> p)) -> p", "p | q", "0 -> x", "1", "a & b | c -> d"]:
        f = parse(text)
        assert parse(to_text(f)) == f


@pytest.mark.parametrize("text", [
    "(" * 300 + "p" + ")" * 300,
    " -> ".join(["p"] * 3000),
    " | ".join(["p"] * 3000),
    " & ".join(["p"] * 3000),
    "(p -> " * 300 + "q" + ")" * 300,
], ids=["parentheses", "implication-chain", "join-chain", "meet-chain", "nested-implications"])
def test_parse_refuses_formulas_nested_past_the_bound(text):
    with pytest.raises(FormulaSyntaxError, match="nests deeper than"):
        parse(text)


def test_formulas_at_the_depth_bound_parse_print_and_evaluate():
    d = logic.MAX_FORMULA_DEPTH
    for text in ["(" * d + "p" + ")" * d, " -> ".join(["p"] * (d + 1)),
                 " | ".join(["p"] * (d + 1)), "(p & " * d + "q" + ")" * d]:
        f = parse(text)
        assert parse(to_text(f)) == f
        assert variables(f) and evaluate(f, {"p": top(2), "q": top(2)}, 2) == top(2)
    with pytest.raises(FormulaSyntaxError):
        parse(" | ".join(["p"] * (d + 2)))


def test_parse_does_not_recurse():
    d = logic.MAX_FORMULA_DEPTH
    texts = ["(" * d + "p" + ")" * d, " -> ".join(["p"] * (d + 1)), "(p & " * d + "q" + ")" * d]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(traceback.extract_stack()) + 50)
    try:
        for text in texts:
            parse(text)
    finally:
        sys.setrecursionlimit(limit)


def test_variables_first_appearance_order():
    assert variables(parse("(q | p) & q -> r")) == ["q", "p", "r"]
    assert variables(parse("0 | 1")) == []


def test_variables_is_linear_in_the_distinct_names():
    """A balanced ``&`` tree of 16 384 distinct variables, 14 levels deep."""
    level = [f"v{i}" for i in range(2 ** 14)]
    while len(level) > 1:
        level = [f"({a} & {b})" for a, b in zip(level[::2], level[1::2])]
    f = parse(level[0])
    start = time.perf_counter()
    names = variables(f)
    assert time.perf_counter() - start < 0.5
    assert names == [f"v{i}" for i in range(2 ** 14)]


_names = st.sampled_from(["p", "q", "r", "s"])
_formulas = st.recursive(
    st.one_of(st.builds(Var, _names), st.just(Const0()), st.just(Const1())),
    lambda kids: st.one_of(
        st.builds(Join, kids, kids),
        st.builds(Meet, kids, kids),
        st.builds(Implies, kids, kids),
    ),
    max_leaves=16,
)


@given(_formulas)
@settings(max_examples=200)
def test_print_parse_round_trip(f):
    assert parse(to_text(f)) == f


_LEVELS = {Implies: (1, "->"), Join: (2, "|"), Meet: (3, "&")}


def _sparse_text(f, space):
    """Render with only the parentheses precedence needs; ``space()`` gives
    the whitespace around each connective and parenthesis."""
    if type(f) not in _LEVELS:
        return to_text(f)
    binds, op = _LEVELS[type(f)]

    def side(g, right):
        inner = _LEVELS.get(type(g), (4,))[0]
        # '->' groups to the right, '|' and '&' to the left.
        text = _sparse_text(g, space)
        if inner < binds or (inner == binds and right != (op == "->")):
            return f"({space()}{text}{space()})"
        return text

    return f"{side(f.lhs, False)}{space()}{op}{space()}{side(f.rhs, True)}"


@given(_formulas, st.randoms(use_true_random=False))
@settings(max_examples=200)
def test_parse_minimal_parentheses_round_trip(f, rnd):
    text = _sparse_text(f, lambda: rnd.choice(["", " ", "  ", "\t", "\n"]))
    assert parse(text) == f


# ----------------------------------------------------------- evaluation

def test_evaluate_basic():
    blocky = make_partition(4, [[0, 1], [2, 3]])
    crossed = make_partition(4, [[0, 2], [1, 3]])
    env = {"a": blocky, "b": crossed}
    assert evaluate(parse("a | b"), env, 4) == top(4)
    assert evaluate(parse("a & b"), env, 4) == bottom(4)
    assert evaluate(parse("0"), {}, 4) == bottom(4)
    assert evaluate(parse("1"), {}, 4) == top(4)
    assert evaluate(parse("a -> b"), env, 4) == implication(blocky, crossed)


def test_evaluate_errors():
    with pytest.raises(UnboundVariable):
        evaluate(parse("missing"), {}, 3)
    with pytest.raises(UniverseMismatch):
        evaluate(parse("a"), {"a": top(3)}, 4)


@pytest.mark.parametrize("n", [2, 3])
def test_implication_evaluates_to_top_iff_refines(n):
    parts = list(enumerate_partitions(n))
    f = parse("s -> p")
    for s, p in itertools.product(parts, parts):
        value = evaluate(f, {"s": s, "p": p}, n)
        assert (value == top(n)) == refines(s, p)


# ------------------------------------------------------------ tautology

def test_modus_ponens_is_tautology_up_to_bound():
    verdict = check_tautology(parse("(s & (s -> p)) -> p"), 4)
    assert verdict.status is VerdictStatus.TAUTOLOGY_UP_TO_BOUND
    assert verdict.bound == 4
    assert verdict.witness is None
    assert verdict.is_tautology_up_to_bound


@pytest.mark.parametrize("text", ["p -> p", "(p & q) -> p", "p -> (q -> p)", "1", "0 -> p"])
def test_more_tautologies(text):
    assert check_tautology(parse(text), 3).is_tautology_up_to_bound


def test_join_of_variables_has_counterexample():
    verdict = check_tautology(parse("p | q"), 4)
    assert verdict.status is VerdictStatus.COUNTEREXAMPLE
    n, env = verdict.witness
    assert n == 2
    assert env["p"] == bottom(2) and env["q"] == bottom(2)
    # the witness must re-evaluate to something other than top
    assert evaluate(parse("p | q"), env, n) != top(n)


def test_the_witness_partitions_hold_their_code_and_print_their_blocks():
    n, env = check_tautology(parse("(p -> q) | (q -> p)"), 4).witness
    assert not any("blocks" in vars(p) for p in env.values())
    assert {name: p.blocks for name, p in env.items()} == {
        name: make_partition(n, p.blocks).blocks for name, p in env.items()}


@pytest.mark.parametrize("text", ["p", "0", "p -> q", "p & q", "1 -> 0"])
def test_non_tautologies(text):
    verdict = check_tautology(parse(text), 3)
    assert verdict.status is VerdictStatus.COUNTEREXAMPLE
    n, env = verdict.witness
    assert evaluate(parse(text), env, n) != top(n)


def test_counterexample_search_order_is_deterministic():
    a = check_tautology(parse("p | q"), 4)
    b = check_tautology(parse("p | q"), 4)
    assert a == b


def test_planned_evaluations_and_work_limit():
    f = parse("p | q")
    assert planned_evaluations(f, 4) == sum(bell_number(n) ** 2 for n in (2, 3, 4))
    with pytest.raises(BoundExceeded):
        check_tautology(f, 4, work_limit=10)
    # limit equal to the plan is allowed
    assert check_tautology(f, 2, work_limit=4).status is VerdictStatus.COUNTEREXAMPLE


def test_zero_variable_formulas_scan_all_sizes():
    assert planned_evaluations(parse("1"), 5) == 1
    assert check_tautology(parse("1"), 5).is_tautology_up_to_bound


def test_work_limit_is_the_only_bound_on_the_search(monkeypatch):
    f = parse("1")
    real = logic._compiled
    calls = []

    def counting(g, names, n):
        value_of = real(g, names, n)

        def counted(codes):
            calls.append(n)
            return value_of(codes)

        return counted

    monkeypatch.setattr(logic, "_compiled", counting)
    assert check_tautology(f, 10).is_tautology_up_to_bound
    assert len(calls) == planned_evaluations(f, 10) == 1


def test_variable_free_formula_is_searched_at_size_two_only():
    start = time.perf_counter()
    v = check_tautology(parse("1"), 20_000)
    assert time.perf_counter() - start < 0.1
    assert v.status is VerdictStatus.TAUTOLOGY_UP_TO_BOUND and v.bound == 20_000


def test_max_n_below_two_rejected():
    with pytest.raises(ValueError):
        check_tautology(parse("p"), 1)


# -------------------------------------------------- indit masks of the search

@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_indit_masks_are_the_same_block_pairs_and_decide_each_lattice_op(n):
    table = logic._Masks(n)
    mask = {}
    for p in enumerate_partitions(n):
        code = p._block_of
        mask[code] = table[code]
        assert mask[code] == sum(1 << y * (y - 1) // 2 + x for x, y in inditset(p) if x < y)
        assert logic._Masks(n)[mask[code]] == code
    # A meet is the closure of a | b and an implication that of b & ~a, so one
    # map from deciding masks serves both, and a same-block relation is its own closure.
    closure = {m: m for m in mask.values()}
    for a, b in itertools.product(mask, mask):
        assert mask[partitions._join_code(a, b)] == mask[a] & mask[b]
        met, implied = mask[partitions._meet_code(a, b)], mask[partitions._implication_code(a, b)]
        assert closure.setdefault(mask[a] | mask[b], met) == met
        assert closure.setdefault(mask[b] & ~mask[a], implied) == implied


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_mask_table_is_full_before_any_lookup(n):
    table = logic._Masks(n)
    assert len(table) == 2 * bell_number(n) and len(table.closure) == bell_number(n)
    codes = [key for key in table if isinstance(key, tuple)]
    assert codes == partitions._growth_strings(n)
    assert all(table[table[code]] == code and table.closure[table[code]] == table[code] for code in codes)


def test_search_enumerates_only_its_mask_table(monkeypatch):
    def refuse(n):
        raise AssertionError("the search enumerated growth strings beside its mask table")

    monkeypatch.setattr(partitions, "_growth_strings", refuse)
    monkeypatch.setattr(logic, "_growth_strings", refuse, raising=False)
    assert check_tautology(parse("(p & (p -> q)) -> q"), 5).is_tautology_up_to_bound
    assert check_tautology(parse("p | q"), 3).status is VerdictStatus.COUNTEREXAMPLE


def test_search_runs_one_kernel_call_per_deciding_mask(monkeypatch):
    meets = helpers.count_calls(monkeypatch, logic, "_meet_code")
    implications = helpers.count_calls(monkeypatch, logic, "_implication_code")
    assert check_tautology(parse("(p & (p -> q)) -> q"), 5).is_tautology_up_to_bound
    # Meet and implication share one memo, keyed by the 2^(n(n-1)/2) masks at each size.
    assert len(meets) + len(implications) <= sum(2 ** (n * (n - 1) // 2) for n in range(2, 6)) == 1098


def test_search_runs_no_join_kernel(monkeypatch):
    owners = [partitions, logic] if hasattr(logic, "_join_code") else [partitions]
    joins = [helpers.count_calls(monkeypatch, owner, "_join_code") for owner in owners]
    assert check_tautology(parse("(p | q) -> (q | p)"), 4).is_tautology_up_to_bound
    assert not any(joins)
