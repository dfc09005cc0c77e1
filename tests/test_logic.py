"""Formula parsing, evaluation and the bounded tautology search."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ditlab import logic
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


def test_variables_first_appearance_order():
    assert variables(parse("(q | p) & q -> r")) == ["q", "p", "r"]
    assert variables(parse("0 | 1")) == []


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
    assert planned_evaluations(parse("1"), 5) == 4
    assert check_tautology(parse("1"), 5).is_tautology_up_to_bound


def test_work_limit_is_the_only_bound_on_the_search(monkeypatch):
    f = parse("1")
    real = logic.evaluate
    calls = []

    def counting(g, env, universe):
        if g is f:
            calls.append(universe)
        return real(g, env, universe)

    monkeypatch.setattr(logic, "evaluate", counting)
    assert check_tautology(f, 10).is_tautology_up_to_bound
    assert len(calls) == planned_evaluations(f, 10) == 9


def test_max_n_below_two_rejected():
    with pytest.raises(ValueError):
        check_tautology(parse("p"), 1)
