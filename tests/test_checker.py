import sys
import threading

import pytest

from hylo import checker
from hylo.blocktree import FiniteRep, compute_types, verify
from hylo.checker import (
    UnboundNominalError,
    UnboundVariableError,
    UnknownStateError,
    _Evaluator,
    eval_formula,
    global_eval,
    phi_type,
)
from hylo.formula import (
    MODAL_FORMS,
    SHALLOW,
    UNTIL_FORMS,
    And,
    Bot,
    Diamond,
    Down,
    FragmentError,
    Not,
    Since,
    Top,
    Until,
    diamond_closure,
    map_nodes,
    on_deep_stack,
    parse,
    prop,
    strip_free,
    subformulas,
    svar,
)
from hylo.model import HybridModel
from hylo.oracle import brute_fo_sat, brute_global_sat, brute_sat, find_eval_difference
from hylo.satellites import (
    DownP,
    Exists,
    FOAnd,
    FONot,
    FOStructure,
    FOVar,
    PdlAtom,
    PdlDiamond,
    PdlNot,
    Pred,
    Rel,
    SiblingTree,
    Star,
    fo_eval,
    fo_rename,
    pdl_eval,
    pdl_program_relation,
)
from hylo.solver import Budget, sat_complete, sat_transitive
from hylo.translate import ht, ml_to_until, pdl_translate, standard_translation, tt_to_nat_at


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



# -- depth: a formula taller than SHALLOW levels runs on a deep-stack thread --

P, X = prop("p"), svar("x")
LOOP_P = M(["a"], [("a", "a")], val={"p": {"a"}})
REP_P = FiniteRep(("a",), (), {("a", "a")}, {"p": {"a"}})
ONE_P = FOStructure((0,), {(0, 0)}, {"p": {0}})
LEAF_P = SiblingTree(("r",), {"r": None}, {"r": ()}, {"p": {"r"}})


def _chain(node, n, leaf):
    """n applications of the one-argument constructor node over leaf."""
    for _ in range(n):
        leaf = node(leaf)
    return leaf


def _dia(n, leaf=P):
    return _chain(Diamond, n, leaf)


def _eval_chain(node, h):
    """eval_formula at LOOP_P's state on h applications of node over p."""
    return eval_formula(LOOP_P, {}, "a", _chain(node, h, P))


def _fo_chain(h, var="x"):
    """E x. ~...~ p(x), h levels tall: an atom is one level above its terms."""
    return Exists(var, _chain(FONot, h - 2, Pred("p", FOVar(var))))


def _st_chain(h):
    """The standard translation of h nested diamonds over p."""
    out = Pred("p", FOVar(f"y{h - 1}"))
    for i in reversed(range(h)):
        out = Exists(f"y{i}", FOAnd(Rel(FOVar(f"y{i - 1}" if i else "x"), FOVar(f"y{i}")), out))
    return out


def _alpha_spine(h):
    """The alpha code of _fo_chain(h) read down its spine: the levels above
    the atom, the atom's code and the free-variable slots."""
    (code, slots), levels = _fo_chain(h).alpha_code, 0
    while code[0] is not Pred:
        code, levels = code[1], levels + 1
    return levels, code, slots


def _pdl_spine(f, h):
    """Whether f is h diamonds over one program, then the atom p."""
    program = f.program
    for _ in range(h):
        if type(f) is not PdlDiamond or f.program is not program:
            return False
        f = f.body
    return f is PdlAtom("p")


# each guarded entry point, called so that its guard reads a formula h levels
# tall (A phi for brute_global_sat, ~(f1 <-> f2) for find_eval_difference), as
# (the value it returns, the value it must return)
DEPTH_CASES = {
    "eval_formula": lambda h: (eval_formula(LOOP_P, {}, "a", _dia(h)), True),
    "eval_formula U(p, phi)": lambda h: (_eval_chain(lambda g: Until(P, g), h), True),
    "eval_formula S(p, phi)": lambda h: (_eval_chain(lambda g: Since(P, g), h), True),
    "eval_formula U(phi, false)": lambda h: (_eval_chain(lambda g: Until(g, Bot()), h), False),
    "global_eval": lambda h: (global_eval(LOOP_P, _dia(h)), True),
    "phi_type": lambda h: (phi_type(LOOP_P, _dia(h), "a"), frozenset(subformulas(_dia(h - 1)))),
    "verify": lambda h: (verify(REP_P, _dia(h), {}).accepted, True),
    "compute_types": lambda h: (compute_types(REP_P, _dia(h), {}), {"a": frozenset(subformulas(_dia(h - 1)))}),
    "sat_transitive": lambda h: (sat_transitive(_dia(h), Budget(1, 1, 0)).status, "sat"),
    "sat_complete": lambda h: (sat_complete(_dia(h), Budget(1, 1, 0)).status, "sat"),
    "brute_sat": lambda h: (brute_sat(_dia(h), "transitive", 1).state, "s0"),
    "brute_global_sat": lambda h: (brute_global_sat(_dia(h - 1), "transitive", 1).states, ("s0",)),
    "find_eval_difference": lambda h: (find_eval_difference(_dia(h - 2), _dia(h - 2), "transitive", 1), None),
    "fo_eval": lambda h: (fo_eval(ONE_P, {}, _fo_chain(h)), h % 2 == 0),
    "brute_fo_sat": lambda h: (brute_fo_sat(_fo_chain(h), "transitive", 1) is not None, True),
    "alpha_code": lambda h: (_alpha_spine(h), (h - 1, (Pred, "p", ("b", 0)), ())),
    "fo_rename": lambda h: (fo_rename(_fo_chain(h), lambda v, scope: "z", FOVar), _fo_chain(h, "z")),
    "pdl_eval": lambda h: (pdl_eval(LEAF_P, "r", _chain(PdlNot, h, PdlAtom("p"))), h % 2 == 0),
    "pdl_program_relation": lambda h: (pdl_program_relation(LEAF_P, _chain(Star, h, DownP())), {("r", "r")}),
    "strip_free": lambda h: (strip_free(_dia(h, X)), _dia(h, Bot())),
    "diamond_closure": lambda h: (diamond_closure(Diamond(_chain(Not, h, X))), {_chain(Not, h, Bot())}),
    "map_nodes": lambda h: (map_nodes(_dia(h), lambda g: g), _dia(h)),
    "ml_to_until": lambda h: (ml_to_until(_dia(h)), _chain(lambda g: Until(g, Bot()), h, P)),
    "standard_translation": lambda h: (standard_translation(_dia(h)), _st_chain(h)),
    "ht": lambda h: (ht(_fo_chain(h)), Diamond(Down(X, _chain(Not, h - 2, Diamond(And(X, P)))))),
    "tt_to_nat_at": lambda h: (tt_to_nat_at(_dia(h)).body.left.left.left, Diamond(_dia(h))),
    "pdl_translate": lambda h: (_pdl_spine(pdl_translate(_dia(h)), h), True),
}


@pytest.mark.parametrize("name", DEPTH_CASES)
def test_tall_formulas_get_their_value_in_process(name):
    # 10,000 levels, called on this thread under its own recursion limit
    limit, stack = sys.getrecursionlimit(), threading.stack_size()
    got, want = DEPTH_CASES[name](10_000)
    assert got == want
    assert (sys.getrecursionlimit(), threading.stack_size()) == (limit, stack)


@pytest.mark.parametrize("name", DEPTH_CASES)
def test_formulas_up_to_the_shallow_bound_stay_on_the_calling_thread(name, monkeypatch):
    def refuse(thread):
        raise RuntimeError("no thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    got, want = DEPTH_CASES[name](SHALLOW)
    assert got == want
    with pytest.raises(RuntimeError, match="no thread"):
        DEPTH_CASES[name](SHALLOW + 1)


def test_a_tall_call_raises_its_workers_exception(monkeypatch):
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread) or start(thread))
    tall = _dia(10_000)
    with pytest.raises(UnknownStateError):
        eval_formula(LOOP_P, {}, "z", tall)
    with pytest.raises(FragmentError):  # checked on the worker
        phi_type(LOOP_P, ml_to_until(tall), "a")
    assert len(started) == 3  # eval_formula, ml_to_until and phi_type each hopped
    with pytest.raises(FragmentError):  # ml_to_until checks the language before its walk
        ml_to_until(_dia(10_000, X))


def test_two_threads_evaluating_tall_formulas_at_once_both_get_their_value(monkeypatch):
    limit, hops = sys.getrecursionlimit(), []
    monkeypatch.setattr(checker, "on_deep_stack", lambda *a: hops.append(a) or on_deep_stack(*a))
    barrier, values = threading.Barrier(2), []

    def evaluate(n):
        barrier.wait()
        values.append(eval_formula(LOOP_P, {}, "a", _dia(n)))

    callers = [threading.Thread(target=evaluate, args=(n,)) for n in (10_000, 10_001)]
    for t in callers:
        t.start()
    for t in callers:
        t.join()
    assert values == [True, True] and len(hops) == 2
    assert sys.getrecursionlimit() == limit
