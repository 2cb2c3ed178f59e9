import pytest

from hylo.checker import (
    UnboundNominalError,
    UnboundVariableError,
    UnknownStateError,
    _Evaluator,
    eval_formula,
    global_eval,
    phi_type,
)
from hylo.formula import MODAL_FORMS, UNTIL_FORMS, And, Bot, Diamond, Not, Top, parse, prop
from hylo.model import HybridModel


def M(states, rel, val=None, nom=None):
    return HybridModel(tuple(states), frozenset(rel), val or {}, nom or {})


COMPLETE2 = M(["a", "b"], [("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")])
SINGLE = M(["a"], [])
LOOP = M(["a"], [("a", "a")])


def test_down_box_diamond_on_complete_clique():
    f = parse("down $x . []<> $x")
    assert eval_formula(COMPLETE2, {}, "a", f)
    assert eval_formula(COMPLETE2, {}, "b", f)


def test_down_box_diamond_on_terminal():
    f = parse("down $x . []<> $x")
    assert eval_formula(SINGLE, {}, "a", f)  # box is vacuous
    assert not eval_formula(SINGLE, {}, "a", parse("down $x . <> $x"))
    assert eval_formula(LOOP, {}, "a", parse("down $x . <> $x"))


def test_eval_basic_connectives():
    m = M(["a", "b"], [("a", "b")], val={"p": {"b"}})
    assert eval_formula(m, {}, "a", parse("<>p"))
    assert not eval_formula(m, {}, "b", parse("<>p"))
    assert eval_formula(m, {}, "b", parse("[]p"))  # vacuous
    assert eval_formula(m, {}, "b", parse("P ~p"))
    assert eval_formula(m, {}, "a", parse("H false"))
    assert eval_formula(m, {}, "a", parse("E p"))
    assert not eval_formula(m, {}, "a", parse("A p"))
    assert eval_formula(m, {}, "a", parse("p | ~p"))
    assert eval_formula(m, {}, "a", parse("p -> false"))
    assert eval_formula(m, {}, "b", parse("p <-> true"))


def test_at_and_assignment():
    m = M(["a", "b"], [("a", "b")], val={"p": {"b"}}, nom={"i": "b"})
    assert eval_formula(m, {}, "a", parse("@'i p"))
    assert eval_formula(m, {"x": "b"}, "a", parse("@$x p"))
    assert eval_formula(m, {"x": "b"}, "a", parse("<> $x"))


def test_distinct_errors():
    m = M(["a"], [], val={"p": {"a"}})
    with pytest.raises(UnknownStateError):
        eval_formula(m, {}, "zz", parse("p"))
    with pytest.raises(UnboundNominalError):
        eval_formula(m, {}, "a", parse("'i"))
    with pytest.raises(UnboundVariableError):
        eval_formula(m, {}, "a", parse("$x"))
    with pytest.raises(UnknownStateError):
        eval_formula(m, {"x": "zz"}, "a", parse("$x"))


def test_errors_are_raised_only_where_evaluation_reaches():
    # compiling a node fixes how it evaluates, not whether it raises: an
    # operand that is skipped, or a body with no state to run at, raises nothing
    m = M(["a"], [])
    assert not eval_formula(m, {}, "a", parse("false & 'i"))
    assert eval_formula(m, {}, "a", parse("[]$x"))
    assert not eval_formula(m, {}, "a", And(Bot(), 5))
    with pytest.raises(TypeError):
        eval_formula(m, {}, "a", And(Top(), 5))
    with pytest.raises(UnboundNominalError):
        eval_formula(m, {}, "a", parse("@'i p"))
    with pytest.raises(UnboundVariableError):
        eval_formula(m, {}, "a", parse("@$x p"))


def test_memo_holds_only_the_nodes_that_fan_out():
    ev = _Evaluator(COMPLETE2)
    f = parse("down $x . ([]<>($x | ~p) & (p -> U(true, $x)) & E $x)")
    ev.run(f, {}, "a")
    assert ev.memo
    # keyed on a weak reference to the node, live while f is
    assert {type(key[0]()) for key in ev.memo} <= MODAL_FORMS.keys() | UNTIL_FORMS.keys()


def test_global_eval():
    m = M(["a", "b"], [("a", "b")], val={"p": {"a"}})
    assert global_eval(m, parse("true"))
    empty_p = M(["a", "b"], [("a", "b")])
    assert global_eval(empty_p, parse("~p"))
    assert not global_eval(m, parse("p"))
    with pytest.raises(UnboundVariableError):
        global_eval(m, parse("<> $x"))


def test_until_since():
    chain = M(
        ["a", "b", "c"],
        [("a", "b"), ("b", "c"), ("a", "c")],
        val={"p": {"c"}, "q": {"b"}},
    )
    assert eval_formula(chain, {}, "a", parse("U(p, q)"))
    assert not eval_formula(chain, {}, "a", parse("U(p, ~q)"))
    # immediate step: nothing in between
    assert eval_formula(chain, {}, "a", parse("U(q, false)"))
    assert not eval_formula(chain, {}, "a", parse("U(p, false)"))
    assert eval_formula(chain, {}, "c", parse("S(q, false)"))
    assert eval_formula(chain, {}, "c", parse("S(~q & ~p, q)"))


def test_until_plus_variants_use_closure():
    # non-transitive chain: U+ and U++ quantify over the closure
    raw = M(["a", "b", "c"], [("a", "b"), ("b", "c")], val={"p": {"c"}, "q": {"b"}})
    assert not eval_formula(raw, {}, "a", parse("U(p, false)"))  # c not an R-successor
    assert eval_formula(raw, {}, "a", parse("U++(p, q)"))
    assert not eval_formula(raw, {}, "a", parse("U++(p, ~q)"))
    assert eval_formula(raw, {}, "a", parse("U+(q, false)"))
    assert eval_formula(raw, {}, "c", parse("S++(~p & ~q, q)"))


def test_phi_type_chain_example():
    m = M(["a", "b"], [("a", "b")], val={"p": {"b"}})
    phi = parse("<>p & <><>p")
    assert phi_type(m, phi, "b") == {prop("p")}
    assert phi_type(m, phi, "a") == {prop("p"), Diamond(prop("p"))}


def test_phi_type_no_diamonds():
    m = M(["a"], [])
    assert phi_type(m, parse("p & ~q"), "a") == frozenset()


def test_phi_type_clique_states_share():
    m = M(
        ["a", "b"],
        [("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")],
        val={"p": {"a", "b"}},
    )
    phi = parse("<>p")
    assert phi_type(m, phi, "a") == phi_type(m, phi, "b") == {prop("p")}


def test_phi_type_requires_transitive():
    m = M(["a", "b", "c"], [("a", "b"), ("b", "c")])
    with pytest.raises(ValueError):
        phi_type(m, parse("<>p"), "a")


def test_memoized_down_blowup_is_fast():
    states = [f"s{i}" for i in range(5)]
    rel = [(a, b) for a in states for b in states]
    m = M(states, rel, val={"p": {"s0"}})
    f = parse("down $x . <> down $y . <> down $z . (<> $x & <> $y & <> $z & <>p)")
    assert eval_formula(m, {}, "s1", f)


def test_deep_modal_nesting_evaluates():
    # a modal level costs one closure frame, so 250 nested diamonds stay
    # inside the default recursion limit
    m = M(["a"], [("a", "a")], val={"p": {"a"}})
    assert eval_formula(m, {}, "a", parse("<>" * 250 + "p"))
