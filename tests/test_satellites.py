import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hylo.formula import ParseError
from hylo.satellites import (
    Choice,
    DownP,
    Eq,
    Exists,
    FOAnd,
    FOConst,
    FOEvalError,
    FOFalse,
    FOImplies,
    FONot,
    FOOr,
    FOParseError,
    FOStructure,
    FOTrue,
    FOVar,
    Forall,
    Left,
    PdlAtom,
    PdlDiamond,
    PdlNot,
    PdlParseError,
    PdlAnd,
    Pred,
    Rel,
    RelPlus,
    Right,
    Seq,
    SiblingTree,
    Star,
    Test,
    Up,
    enumerate_trees,
    fo_eval,
    fo_free_vars,
    fo_rename,
    fo_to_text,
    is_all_u1,
    is_mc_eq,
    parse_fo,
    parse_pdl,
    pdl_box,
    pdl_eval,
    pdl_program_relation,
    pdl_prog_to_text,
    pdl_to_text,
    plus_prog,
    string_structure,
    tree_from_dict,
    tree_to_dict,
)
from operator_rows import rows_beside_rows, unary_floors_clear_infix

x, y = FOVar("x"), FOVar("y")


def test_fo_eval_basic():
    s = FOStructure((0, 1), {(0, 1)})
    assert fo_eval(s, {}, Exists("x", Exists("y", Rel(x, y))))
    assert not fo_eval(s, {}, FOAnd(Forall("x", FONot(Rel(x, x))), Exists("x", Rel(x, x))))


def test_fo_eval_closure_atom():
    s = FOStructure((0, 1), {(0, 1)})
    assert fo_eval(s, {"x": 0, "y": 1}, RelPlus(x, y))
    assert not fo_eval(s, {"x": 1, "y": 0}, RelPlus(x, y))
    chain = FOStructure((0, 1, 2), {(0, 1), (1, 2)})
    assert fo_eval(chain, {"x": 0, "y": 2}, RelPlus(x, y))


def test_fo_eval_errors_are_raised_only_where_evaluation_reaches():
    s = FOStructure((0, 1), {(0, 1)}, constants={"c": 1})
    with pytest.raises(FOEvalError, match="unbound variable 'x'"):
        fo_eval(s, {}, Rel(x, y))
    with pytest.raises(FOEvalError, match="unbound constant 'd'"):
        fo_eval(s, {"x": 0}, Eq(x, FOConst("d")))
    assert fo_eval(s, {"x": 1}, Eq(x, FOConst("c")))
    assert not fo_eval(s, {}, FOAnd(FOFalse(), Rel(x, y)))
    assert not fo_eval(s, {}, FOAnd(FOFalse(), 5))
    with pytest.raises(TypeError):
        fo_eval(s, {}, FOAnd(FOTrue(), 5))


def test_fo_eval_mc_eq():
    one = FOStructure((0,), set())
    two = FOStructure((0, 1), set())
    f = Exists("x", Exists("y", FONot(Eq(x, y))))
    assert not fo_eval(one, {}, f)
    assert fo_eval(two, {}, f)


def test_fo_eval_constants_and_preds():
    s = FOStructure((0, 1), set(), unary={"p": {1}}, constants={"c": 1})
    assert fo_eval(s, {}, Pred("p", FOConst("c")))
    assert fo_eval(s, {}, Exists("x", Eq(x, FOConst("c"))))


def test_fo_parser_binds_free_names_as_constants():
    f = parse_fo("E x. R(x, c)")
    assert f == Exists("x", Rel(FOVar("x"), FOConst("c")))
    g = parse_fo("E x. A y. (R(x,y) -> ~x=y)")
    assert fo_free_vars(g) == frozenset()


@pytest.mark.parametrize("text", ["E _x. R(_x,_x)", "E x. _p(x)", "E x. R(x, _c)"])
def test_fo_parser_rejects_reserved_identifiers(text):
    with pytest.raises(FOParseError, match="reserved namespace"):
        parse_fo(text)


@pytest.mark.parametrize(
    "text,message",
    [
        ("E x. (P(x)", "1:11: expected ')', found ''"),
        ("E x. x", "1:7: dangling term 'x' (found 'end of input')"),
        ("S(x,y)", "1:1: unknown binary relation 'S'"),
        ("R+(x,", "1:6: expected a term (found 'end of input')"),
        ("P(x) Q(x)", "1:6: trailing input (found 'Q')"),
        ("E _y. P(_y)", "1:3: identifier '_y' uses the reserved namespace"),
        ("E x.\n  x # y", "2:5: unexpected character '#'"),
        ("E x. P(x) &", "1:12: expected an FO formula (found 'end of input')"),
    ],
)
def test_fo_parse_error_messages(text, message):
    with pytest.raises(FOParseError) as err:
        parse_fo(text)
    assert isinstance(err.value, ParseError)
    assert str(err.value) == message
    assert (err.value.line, err.value.col) == tuple(map(int, message.split(":")[:2]))


@pytest.mark.parametrize(
    "text,message",
    [
        ("<down", "1:6: expected '>', found ''"),
        ("<?(p)q", "1:6: expected '>', found 'q'"),
        ("<down;>p", "1:7: expected a program (found '>')"),
        ("~", "1:2: expected a PDL formula (found 'end of input')"),
        ("p & q r", "1:7: trailing input (found 'r')"),
        ("(p", "1:3: expected ')', found ''"),
        ("p #", "1:3: unexpected character '#'"),
        ("<left |\n  >p", "2:3: expected a program (found '>')"),
    ],
)
def test_pdl_parse_error_messages(text, message):
    with pytest.raises(PdlParseError) as err:
        parse_pdl(text)
    assert isinstance(err.value, ParseError)
    assert str(err.value) == message
    assert (err.value.line, err.value.col) == tuple(map(int, message.split(":")[:2]))


def test_fo_equal_structure_is_the_same_node():
    import copy
    import pickle

    text = "E x. A y. (R(x,y) | x=y) & ~p(c) & (R+(c,c) -> true)"
    f = parse_fo(text)
    assert parse_fo(text) is f
    assert Rel(x, FOConst("c")) is Rel(x, FOConst("c"))
    assert copy.deepcopy(f) is f
    assert copy.copy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f


def test_pdl_equal_structure_is_the_same_node():
    import copy
    import pickle

    text = "<(down;?(~q))*;(left;left*)>p & ~<up+ | right>(p & q)"
    f = parse_pdl(text)
    assert parse_pdl(text) is f
    assert PdlNot(PdlAtom("p")) is PdlNot(PdlAtom("p"))
    assert Test(PdlAtom("q")) is Test(PdlAtom("q"))
    for g in (f, f.left.program):
        assert copy.deepcopy(g) is g
        assert copy.copy(g) is g
        assert pickle.loads(pickle.dumps(g)) is g


def test_fo_intern_table_is_weak():
    import gc
    import weakref

    f = parse_fo("E x. (zz1(x) & A y. R(x,y))")
    assert f.alpha_code and not f.fv  # fills the per-node caches too
    dead = weakref.ref(f.body.right)
    del f
    gc.collect()
    assert dead() is None


def test_fo_parser_syntax():
    assert parse_fo("x < y") == Rel(FOConst("x"), FOConst("y"))
    assert parse_fo("R+(x, y)") == RelPlus(FOConst("x"), FOConst("y"))
    assert parse_fo("p(x) & q(x)") == FOAnd(Pred("p", FOConst("x")), Pred("q", FOConst("x")))


def test_fo_roundtrip():
    for text in [
        "E x. A y. (R(x,y) | x=y)",
        "~(E x. p(x)) -> A y. q(y)",
        "E x. R+(x, x)",
        "E a. E b. (R(a,b) & 0(a) & 1(b))",
    ]:
        f = parse_fo(text)
        assert parse_fo(fo_to_text(f)) == f


def test_fo_to_text_lfp_mode():
    f = RelPlus(FOVar("x"), FOVar("y"))
    assert fo_to_text(f, rplus_as_lfp=True) == "[LFP W(x,y). (R(x,y) | E z. (R(z,y) & W(x,z)))](x,y)"


def test_fragment_checks():
    assert is_all_u1(parse_fo("E x. R(x,x) & 0(x)"))
    assert not is_all_u1(parse_fo("E x. x=x"))
    assert not is_all_u1(parse_fo("E x. R+(x,x)"))
    assert is_mc_eq(parse_fo("E x. p(x) & x=x"))
    assert not is_mc_eq(parse_fo("E x. R(x,x)"))


def test_string_structure():
    s = string_structure("ab")
    assert s.domain == (1, 2)
    assert s.binrel == {(1, 2)}
    assert s.unary == {"a": frozenset({1}), "b": frozenset({2})}
    single = string_structure("a")
    assert single.domain == (1,)
    # letter predicates partition the domain
    for word in ["a", "ab", "aba", "bbab"]:
        st = string_structure(word)
        covered = set()
        for letter, ns in st.unary.items():
            assert not (covered & ns)
            covered |= ns
        assert covered == set(st.domain)


def _tree(shape_children, labels=None):
    # small helper: linear chain r -> a -> b given list of labels
    return SiblingTree(**shape_children, labels=labels or {})


def test_pdl_eval_basic():
    t = SiblingTree(
        ("r", "c"),
        {"r": None, "c": "r"},
        {"r": ("c",), "c": ()},
        {"p": {"c"}},
    )
    assert pdl_eval(t, "r", PdlDiamond(DownP(), PdlAtom("p")))
    assert not pdl_eval(t, "r", PdlDiamond(Up(), PdlNot(PdlAtom("zz"))))


def test_pdl_eval_until_program():
    t = SiblingTree(
        ("r", "a", "b"),
        {"r": None, "a": "r", "b": "a"},
        {"r": ("a",), "a": ("b",), "b": ()},
        {"q": {"a"}, "p": {"b"}},
    )
    prog = Seq(Star(Seq(DownP(), Test(PdlAtom("q")))), DownP())
    assert pdl_eval(t, "r", PdlDiamond(prog, PdlAtom("p")))
    prog_bad = Seq(Star(Seq(DownP(), Test(PdlAtom("p")))), DownP())
    # q-node blocks the test-path to b... the single down step still reaches a
    assert pdl_eval(t, "r", PdlDiamond(prog_bad, PdlAtom("q")))
    assert not pdl_eval(t, "r", PdlDiamond(prog_bad, PdlAtom("p")))


def test_pdl_program_algebra():
    for t in enumerate_trees(4):
        rd = pdl_program_relation(t, DownP())
        ru = pdl_program_relation(t, Up())
        assert ru == frozenset((b, a) for a, b in rd)
        rl = pdl_program_relation(t, Left())
        rr = pdl_program_relation(t, Right())
        assert rl == frozenset((b, a) for a, b in rr)
        union = pdl_program_relation(t, Choice(DownP(), Up()))
        assert union == rd | ru


def test_pdl_box_and_plus():
    t = SiblingTree(("r",), {"r": None}, {"r": ()}, {"p": {"r"}})
    assert pdl_eval(t, "r", pdl_box(DownP(), PdlAtom("q")))  # vacuous
    assert not pdl_eval(t, "r", PdlDiamond(plus_prog(DownP()), PdlAtom("p")))
    assert pdl_eval(t, "r", PdlDiamond(Star(DownP()), PdlAtom("p")))


def test_enumerate_trees_counts():
    assert sum(1 for _ in enumerate_trees(1)) == 1
    assert sum(1 for t in enumerate_trees(2) if len(t.nodes) == 2) == 1
    shapes3 = [t for t in enumerate_trees(3) if len(t.nodes) == 3]
    assert len(shapes3) == 2  # chain and two children
    labeled = [t for t in enumerate_trees(2, atoms=("p",)) if len(t.nodes) == 2]
    assert len(labeled) == 4


def test_pdl_text_roundtrip():
    formulas = [
        PdlDiamond(Seq(Star(Seq(DownP(), Test(PdlAtom("q")))), DownP()), PdlAtom("p")),
        pdl_box(plus_prog(Up()), PdlNot(PdlAtom("i"))),
        PdlDiamond(Choice(Left(), Seq(Right(), Star(Up()))), PdlAtom("p")),
        PdlNot(PdlAtom("p")),
        # a right operand with the same operator keeps its brackets
        PdlDiamond(Seq(Seq(Star(Up()), plus_prog(Left())), Star(DownP())), PdlAtom("i")),
        PdlDiamond(Choice(Left(), Choice(Right(), Up())), PdlAtom("p")),
        PdlDiamond(Choice(Choice(Left(), Right()), Seq(Up(), Seq(DownP(), Up()))), PdlAtom("p")),
    ]
    for f in formulas:
        assert parse_pdl(pdl_to_text(f)) is f
    assert pdl_to_text(formulas[4]) == "<up*;(left;left*);down*>i"
    assert pdl_to_text(formulas[5]) == "<left | (right | up)>p"


# -- the operator tables ---------------------------------------------------


def _fo_roundtrip(f):
    return parse_fo(fo_to_text(f))


def test_every_fo_operator_row_round_trips_beside_every_other():
    from hylo.satellites import _FO_OPS

    a, b = Pred("p", FOConst("c")), Rel(FOConst("c"), FOConst("d"))
    # 3 infix rows hold each of the 6 rows on either side, ~ holds each once
    assert rows_beside_rows(_FO_OPS, [a, b], _fo_roundtrip) == 3 * 6 * 2 + 6
    # and beside a quantifier, whose body extends maximally
    for f in (FOAnd(Exists("x", Pred("p", x)), a), FONot(Forall("x", Pred("p", x))), FOImplies(a, Exists("x", a))):
        assert _fo_roundtrip(f) is f


def test_every_pdl_operator_row_round_trips_beside_every_other():
    from hylo.satellites import _PDL_OPS, _PROG_OPS

    p, q = PdlAtom("p"), PdlAtom("q")
    assert rows_beside_rows(_PDL_OPS, [p, q], lambda f: parse_pdl(pdl_to_text(f))) == 2 * 2 + 2
    # a program reads back inside a diamond; 2 infix rows hold each of the
    # 7 rows on either side, * holds each once
    checked = rows_beside_rows(
        _PROG_OPS, [Left(), Test(PdlAnd(p, q))], lambda g: parse_pdl(pdl_to_text(PdlDiamond(g, p))).program
    )
    assert checked == 2 * 7 * 2 + 7


def test_prefix_and_postfix_floors_are_above_every_infix_strength():
    # the parsers read a prefix or postfix operand as a unary, without a floor
    from hylo.satellites import _FO_OPS, _PDL_OPS, _PROG_OPS

    for ops in (_FO_OPS, _PDL_OPS, _PROG_OPS):
        assert unary_floors_clear_infix(ops)


_terms = st.sampled_from([x, y, FOConst("c"), FOConst("d")])


def _fo_formulas():
    atoms = st.one_of(
        st.sampled_from([FOTrue(), FOFalse()]),
        st.builds(Rel, _terms, _terms),
        st.builds(RelPlus, _terms, _terms),
        st.builds(Eq, _terms, _terms),
        st.builds(Pred, st.sampled_from(["p", "q"]), _terms),
    )

    def extend(child):
        return st.one_of(
            st.builds(FONot, child),
            *[st.builds(cls, child, child) for cls in (FOAnd, FOOr, FOImplies)],
            *[st.builds(cls, st.sampled_from(["x", "y"]), child) for cls in (Exists, Forall)],
        )

    return st.recursive(atoms, extend, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(_fo_formulas())
def test_fo_print_parse_roundtrip(f):
    # the parser reads a free variable as a constant
    assert _fo_roundtrip(f) is fo_rename(f, lambda v, scope: v, FOConst)


_pdl_atoms = st.sampled_from([PdlAtom("p"), PdlAtom("q"), PdlAtom("i'")])
_programs = st.recursive(
    st.one_of(st.sampled_from([Left(), Right(), Up(), DownP()]), st.builds(Test, st.deferred(lambda: _pdl_formulas))),
    lambda c: st.one_of(st.builds(Seq, c, c), st.builds(Choice, c, c), st.builds(Star, c), st.builds(plus_prog, c)),
    max_leaves=6,
)
_pdl_formulas = st.recursive(
    _pdl_atoms,
    lambda c: st.one_of(st.builds(PdlNot, c), st.builds(PdlAnd, c, c), st.builds(PdlDiamond, _programs, c)),
    max_leaves=10,
)


@settings(max_examples=200, deadline=None)
@given(_pdl_formulas)
def test_pdl_print_parse_roundtrip(f):
    assert parse_pdl(pdl_to_text(f)) is f


def test_deep_fo_and_pdl_prefix_chains_parse():
    # prefix chains are read in a loop, parse_fo renames a formula this tall
    # on a deep-stack thread, and the free variables are a fact, computed on
    # an explicit stack
    f = parse_fo("~" * 3000 + "q(c)")
    for _ in range(3000):
        f = f.body
    assert f is Pred("q", FOConst("c"))
    assert fo_free_vars(parse_fo("E x. " + "~" * 3000 + "p(x)")) == frozenset()
    # an atom is a level above its terms, the innermost diamond above its program
    assert parse_fo("E x. " + "~" * 3000 + "p(x)").height == parse_pdl("~<down;left*>" * 1500 + "p").height == 3002
    g = Rel(FOVar("x"), FOVar("y"))
    for _ in range(3000):
        g = FONot(g)
    assert fo_free_vars(Exists("x", g)) == {"y"}
    g = parse_pdl("~<down;left*>" * 1500 + "p")
    for _ in range(1500):
        assert type(g) is PdlNot and g.body.program is Seq(DownP(), Star(Left()))
        g = g.body.body
    assert g is PdlAtom("p")


def test_deep_fo_and_pdl_formulas_print():
    # built by a loop; the printers walk an explicit stack
    f = FOTrue()
    for _ in range(5000):
        f = FONot(FOAnd(f, Pred("q", FOConst("c"))))
    assert fo_to_text(f) == "~(" * 5000 + "true" + " & q(c))" * 5000
    g, prog = PdlAtom("p"), DownP()
    for _ in range(5000):
        g, prog = PdlNot(PdlAnd(g, PdlAtom("q"))), Star(Seq(prog, Left()))
    assert pdl_to_text(g) == "~(" * 5000 + "p" + " & q)" * 5000
    assert pdl_prog_to_text(prog) == "(" * 5000 + "down" + ";left)*" * 5000
    assert pdl_to_text(PdlDiamond(prog, g)) == f"<{pdl_prog_to_text(prog)}>{pdl_to_text(g)}"


def test_tree_dict_roundtrip():
    t = SiblingTree(
        ("r", "a", "b"),
        {"r": None, "a": "r", "b": "r"},
        {"r": ("a", "b"), "a": (), "b": ()},
        {"p": {"a"}},
    )
    assert tree_from_dict(tree_to_dict(t)) == t
    with pytest.raises(ValueError):
        tree_from_dict({"nodes": ["r"], "bogus": {}})


@pytest.mark.parametrize(
    "doc,message",
    [
        ({}, "lacks 'nodes'"),
        ([], "must be a mapping"),
        ({"nodes": "ra"}, "'nodes' must be a list"),
        ({"nodes": ["r", "a"], "parent": {"a": ["r"]}}, "'parent' must map"),
        ({"nodes": ["r", "a"], "parent": {"a": "r"}}, "children/parent mismatch"),
        ({"nodes": ["r", "a"], "parent": {"a": "r"}, "children": {"r": ["a", "a"]}}, "children/parent mismatch"),
        ({"nodes": ["r", "a"], "parent": {"a": "x"}}, "nodes outside the tree: ['x']"),
        ({"nodes": ["r"], "parent": {"a": "r"}, "children": {"r": ["a"]}}, "nodes outside the tree: ['a']"),
        ({"nodes": ["r", "r"]}, "repeated node"),
        (
            {"nodes": ["r", "a", "b"], "parent": {"a": "b", "b": "a"}, "children": {"a": ["b"], "b": ["a"]}},
            "nodes not below the root: ['a', 'b']",
        ),
    ],
)
def test_tree_from_dict_rejects_documents_that_are_not_trees(doc, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        tree_from_dict(doc)
