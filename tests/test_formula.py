import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hylo.formula import (
    And,
    Atom,
    Bot,
    Box,
    Diamond,
    Down,
    Formula,
    FragmentError,
    Everywhere,
    Future,
    Globally,
    Historically,
    Iff,
    Implies,
    Not,
    Or,
    Past,
    RESERVED_WORDS,
    ParseError,
    Since,
    Somewhere,
    Top,
    Until,
    UntilPlusPlus,
    At,
    NOM,
    PROP,
    atoms_of,
    children,
    diamond_closure,
    fragment_of,
    free_vars,
    map_nodes,
    modal_depth_count,
    noms_of,
    nom,
    parse,
    print_formula,
    prop,
    props_of,
    rebuild,
    recode_nominals,
    strip_free,
    subformulas,
    svar,
    svars_of,
)
from operator_rows import placed, rows_beside_rows, unary_floors_clear_infix

p, q = prop("p"), prop("q")
x, y = svar("x"), svar("y")

CHAIN = And(And(And(p, Diamond(p)), Box(Diamond(p))), Box(Down(x, Not(Diamond(x)))))


def test_parse_chain_formula():
    assert parse("p & <>p & []<>p & [] down $x . ~<> $x") == CHAIN


def test_parse_constants_and_at():
    assert parse("true") == Top()
    assert parse("@'i <>p") == At(nom("i"), Diamond(p))


@pytest.mark.parametrize(
    "f,text",
    [
        (Diamond(p), "<>p"),
        (Down(x, Not(Diamond(x))), "down $x . ~<>$x"),
        (Until(p, q), "U(p, q)"),
        (Implies(p, Implies(q, p)), "p -> q -> p"),
        (Implies(Implies(p, q), p), "(p -> q) -> p"),
        (And(Or(p, q), q), "(p | q) & q"),
        (Box(And(p, q)), "[](p & q)"),
    ],
)
def test_print_examples(f, text):
    assert print_formula(f) == text


def test_print_protects_trailing_down():
    f = And(Down(x, p), q)
    assert parse(print_formula(f)) == f
    g = And(p, Down(x, And(q, p)))
    assert parse(print_formula(g)) == g


def test_down_extends_maximally_right():
    f = parse("p & down $x . q & p")
    assert f == And(p, Down(x, And(q, p)))


@pytest.mark.parametrize(
    "text,message",
    [
        ("(p", "1:3: expected ')', found ''"),
        ("p & ", "1:5: expected a formula (found 'end of input')"),
        ("p q", "1:3: trailing input (found 'q')"),
        ("@p q", "1:2: at-term must be a nominal or state variable"),
        ("down p . q", "1:6: down binds a state variable"),
        ("U+++(p, q)", "1:4: expected '(', found '+'"),
        ("U(p q)", "1:5: expected ',', found 'q'"),
        ("$_x", "1:1: identifier '$_x' uses the reserved namespace"),
        ("p\n  & #", "2:5: unexpected character '#'"),
        ("p -> \n(q", "2:3: expected ')', found ''"),
    ],
)
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert type(err.value) is ParseError
    assert str(err.value) == message
    assert (err.value.line, err.value.col) == tuple(map(int, message.split(":")[:2]))


def test_keywords_are_the_parser_tokens_and_name_no_proposition():
    from hylo.formula import _APP_CLASSES, _CONSTANTS, _PREFIX_CLASSES

    idents = {t for t in [*_PREFIX_CLASSES, *_APP_CLASSES, *_CONSTANTS, "down"] if t.isidentifier()}
    assert RESERVED_WORDS == idents
    for word in RESERVED_WORDS:
        with pytest.raises(ValueError, match="keyword"):
            prop(word)
        assert parse(print_formula(nom(word))) == nom(word)


def test_every_operator_row_round_trips_beside_every_other():
    from hylo.formula import _OPS

    # 4 infix rows hold each of the 15 rows on either side, 9 prefix rows
    # hold each once
    assert rows_beside_rows(_OPS, [p, q], lambda f: parse(print_formula(f))) == 4 * 15 * 2 + 9 * 15
    # beside the hand-written forms too: a down binder's body extends
    # maximally, so a binder that more tokens follow is bracketed
    for inner in [Down(x, And(p, x)), At(nom("i"), Or(p, q)), Until(p, q)]:
        for cls, op in _OPS.items():
            for f in placed(cls, op, inner, q):
                assert parse(print_formula(f)) is f


def test_prefix_floors_are_above_every_infix_strength():
    # the parser reads a prefix operand, and @'s body, as a unary
    from hylo.formula import _OPS, _UNARY

    assert unary_floors_clear_infix(_OPS)
    assert _UNARY > max(op.strength for op in _OPS.values() if op.left is not None)


def test_deep_brackets_parse():
    # a bracket level costs the parser two Python frames
    assert parse("(" * 300 + "p & q" + ")" * 300) == And(p, q)
    f = parse("~(p & " * 150 + "q" + ")" * 150)
    for _ in range(150):
        assert type(f) is Not and f.body.left is p
        f = f.body.right
    assert f is q


def test_deep_prefix_chains_parse():
    # a prefix chain is read in a loop, so its length takes no Python frame
    text = "~<>[]F G P H E A @'i @$x " * 300 + "p"
    f = parse(text)
    assert print_formula(f) == text
    links = [Not, Diamond, Box, Future, Globally, Past, Historically, Somewhere, Everywhere]
    links = [(cls, None) for cls in links] + [(At, nom("i")), (At, x)]
    for _ in range(300):
        for cls, term in links:
            assert type(f) is cls and getattr(f, "term", None) is term
            f = f.body
    assert f is p


def test_deep_formulas_print():
    # built by a loop; the printer walks an explicit stack
    f = p
    for _ in range(5000):
        f = Not(And(f, Diamond(q)))
    assert print_formula(f) == "~(" * 5000 + "p" + " & <>q)" * 5000
    g = q
    for _ in range(5000):
        g = And(Down(x, p), g)
    assert print_formula(g) == "(down $x . p) & (" * 4999 + "(down $x . p) & q" + ")" * 4999


def test_until_variants_parse():
    assert parse("U+(p, q)") == parse("U+(p,q)")
    assert parse("U++(p, q)") == UntilPlusPlus(p, q)
    assert parse("S(p, q)") == Since(p, q)


def test_parse_errors_have_position():
    with pytest.raises(ParseError, match="1:5"):
        parse("p & ")
    with pytest.raises(ParseError):
        parse("down p . q")
    with pytest.raises(ParseError, match="reserved"):
        parse("$_g0")
    parse("$_g0", allow_reserved=True)
    with pytest.raises(ParseError, match="nominal or state"):
        parse("@p q")


def test_free_vars():
    assert free_vars(parse("down $x . <> $x")) == frozenset()
    assert free_vars(parse("<> $x")) == {"x"}
    assert free_vars(parse("$x & down $x . <> $x")) == {"x"}
    assert free_vars(parse("@$x p")) == {"x"}


def test_strip_free():
    assert strip_free(parse("<>$x")) == parse("<>false")
    sentence = parse("down $x . <> $x")
    assert strip_free(sentence) == sentence
    assert strip_free(parse("$x & down $x . $x")) == parse("false & down $x . $x")
    # at-term occurrences vanish with the whole jump
    assert strip_free(At(svar("x"), p)) == Bot()


def test_diamond_closure_chain():
    got = diamond_closure(CHAIN)
    expected = {
        p,
        Bot(),
        Not(Diamond(p)),
        Not(Down(x, Not(Diamond(x)))),
    }
    assert got == frozenset(expected)
    # independent walk: strip every diamond body / negated box body by hand
    manual = set()
    for g in subformulas(CHAIN):
        if isinstance(g, Diamond):
            manual.add(strip_free(g.body))
        elif isinstance(g, Box):
            manual.add(strip_free(Not(g.body)))
    assert got == frozenset(manual)


def test_diamond_closure_small():
    assert diamond_closure(Diamond(p)) == {p}
    assert diamond_closure(p) == frozenset()
    with pytest.raises(FragmentError):
        diamond_closure(Until(p, q))
    with pytest.raises(FragmentError):
        diamond_closure(At(nom("i"), p))


def test_closure_bounded_by_modal_occurrences():
    for text in ["<>p & <>p", "[]<>p", "<>(p & <>q) & []q", "down $x . <> $x & <> $x"]:
        f = parse(text)
        assert len(diamond_closure(f)) <= modal_depth_count(f)


@pytest.mark.parametrize(
    "text,label",
    [
        ("down $x . <> $x", "HL↓"),
        ("U(p, q)", "ML_U"),
        ("E U(p, q)", "HL^E_{U,S}"),
        ("p & <>q", "ML"),
        ("'i -> ~<>'i", "HL"),
        ("@'i p", "HL^@"),
        ("down $x . @$x P p", "HL↓,@_{F,P}"),
        ("U++(p, q)", "ML_{U++,S++}"),
    ],
)
def test_fragment_of(text, label):
    assert fragment_of(parse(text)) == label


def test_recode_nominals():
    f = parse("'i & <>(p & 'j)")
    g = recode_nominals(f)
    assert g == parse("_n_i & <>(p & _n_j)", allow_reserved=True)


# -- node shape ---------------------------------------------------------------


def _shapes():
    """One node of every interned class, with the children it must report."""
    from hylo import formula, satellites as fo

    unary = [Not, Diamond, Box, Future, formula.Globally, formula.Past,
             formula.Historically, Somewhere, formula.Everywhere]
    binary = [And, Or, Implies, Iff, *formula.UNTIL_FORMS]
    a, b = fo.FOTrue(), fo.Pred("P", fo.FOVar("x"))
    u, v = fo.FOVar("x"), fo.FOConst("c")
    # PDL's two families hold each other: a test a formula, a diamond a program
    pa, step = fo.PdlAtom("p"), fo.DownP()
    pb = fo.PdlNot(pa)
    return [
        (p, ()), (nom("i"), ()), (x, ()), (Top(), ()), (Bot(), ()),
        *[(cls(p), (p,)) for cls in unary],
        *[(cls(p, q), (p, q)) for cls in binary],
        (At(nom("i"), p), (p,)), (At(x, p), (p,)), (Down(x, p), (p,)),
        (a, ()), (fo.FOFalse(), ()), (b, ()),
        (fo.Rel(u, v), ()), (fo.RelPlus(u, u), ()), (fo.Eq(u, v), ()),
        (fo.FONot(b), (b,)), (fo.FOAnd(a, b), (a, b)), (fo.FOOr(a, b), (a, b)),
        (fo.FOImplies(a, b), (a, b)), (fo.Exists("x", b), (b,)), (fo.Forall("x", b), (b,)),
        (u, ()), (v, ()),
        (fo.Left(), ()), (fo.Right(), ()), (fo.Up(), ()), (step, ()),
        (fo.Seq(step, fo.Up()), (step, fo.Up())), (fo.Choice(step, fo.Up()), (step, fo.Up())),
        (fo.Star(step), (step,)), (fo.Test(pb), (pb,)),
        (pa, ()), (pb, (pa,)), (fo.PdlAnd(pa, pb), (pa, pb)), (fo.PdlDiamond(step, pa), (step, pa)),
    ]


_SHAPES = _shapes()


def test_every_node_class_has_a_pinned_shape():
    from hylo.formula import _Node

    def concrete(cls):
        subs = cls.__subclasses__()
        return set().union(*map(concrete, subs)) if subs else {cls}

    assert {type(f) for f, _ in _SHAPES} == concrete(_Node)


def _replacement(kid):
    """A node of kid's family, unlike every child in the pinned table."""
    from hylo import satellites as fo

    families = {Formula: Bot(), fo.FOFormula: fo.FOFalse(),
                fo.PdlFormula: fo.PdlAtom("z"), fo.PdlProgram: fo.Left()}
    return next(new for family, new in families.items() if isinstance(kid, family))


@pytest.mark.parametrize("f,kids", _SHAPES, ids=[type(f).__name__ for f, _ in _SHAPES])
def test_children_and_rebuild(f, kids):
    assert children(f) == kids
    assert rebuild(f, children(f)) is f
    # new children land in the child fields; every other field is kept
    new = tuple(map(_replacement, kids))
    g = rebuild(f, new)
    assert type(g) is type(f) and children(g) == new
    for name in f.__match_args__:
        if getattr(f, name) not in kids:
            assert getattr(g, name) == getattr(f, name)


# -- property tests ---------------------------------------------------------

_atoms = st.one_of(
    st.sampled_from([p, q, prop("r"), nom("i"), nom("j"), svar("x"), svar("y"), Top(), Bot()])
)


def _formulas():
    from hylo.formula import (
        Everywhere,
        Globally,
        Historically,
        Past,
        SincePlus,
        SincePlusPlus,
        UntilPlus,
        UntilPlusPlus,
    )

    unary = [Not, Diamond, Box, Future, Globally, Past, Historically, Somewhere, Everywhere]
    binary = [And, Or, Implies, Iff, Until, Since, UntilPlus, SincePlus, UntilPlusPlus, SincePlusPlus]

    def extend(child):
        terms = st.sampled_from([nom("i"), svar("x"), svar("y")])
        return st.one_of(
            *[st.builds(cls, child) for cls in unary],
            *[st.builds(cls, child, child) for cls in binary],
            st.builds(At, terms, child),
            st.builds(Down, st.sampled_from([svar("x"), svar("y")]), child),
        )

    return st.recursive(_atoms, extend, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(_formulas())
def test_print_parse_roundtrip(f):
    assert parse(print_formula(f)) == f


@settings(max_examples=150, deadline=None)
@given(_formulas())
def test_strip_free_properties(f):
    s = strip_free(f)
    assert free_vars(s) == frozenset()
    assert strip_free(s) == s
    if not free_vars(f):
        assert s == f


# -- facts kept per node ------------------------------------------------------


def _walked_atoms(f):
    """The atoms of f by a walk over its nodes: atoms, at-terms, bound variables."""
    out = set()
    for g in subformulas(f):
        if isinstance(g, Atom):
            out.add(g)
        elif isinstance(g, At):
            out.add(g.term)
        elif isinstance(g, Down):
            out.add(g.var)
    return out


def _rewritten_nominals(f):
    def rewrite(g):
        return Atom(PROP, "_n_" + g.name) if isinstance(g, Atom) and g.kind == NOM else g

    return map_nodes(f, rewrite)


# the formulas mix @ with nominal and variable terms, down binders, the six
# Until/Since forms and E/A with every other operator
@settings(max_examples=200, deadline=None)
@given(_formulas())
def test_atom_facts_match_a_walk(f):
    atoms = _walked_atoms(f)
    assert atoms_of(f) == atoms
    assert props_of(f) == tuple(sorted(a.name for a in atoms if a.kind == "prop"))
    assert noms_of(f) == tuple(sorted(a.name for a in atoms if a.kind == "nom"))
    assert svars_of(f) == tuple(sorted(a.name for a in atoms if a.kind == "var"))


@settings(max_examples=200, deadline=None)
@given(_formulas())
def test_recoding_matches_a_rewrite(f):
    g = recode_nominals(f)
    assert g is _rewritten_nominals(f)
    assert recode_nominals(f) is g
    if NOM not in f.signature:
        assert g is f


def test_equal_atom_sets_are_one_object():
    assert atoms_of(parse("p & <>q")) is atoms_of(parse("[]q | p"))
    assert atoms_of(parse("~<>p")) is atoms_of(parse("p"))
    assert props_of(parse("p & q")) is props_of(parse("q -> p"))


def test_a_node_gets_its_height_when_built():
    # one more than its tallest field that is a node; a malformed operand
    # does not stop the build
    assert (p.height, Down(x, x).height, Diamond(Down(x, p)).height, And(Bot(), 5).height) == (0, 1, 2, 1)


@pytest.mark.parametrize("depth", [400, 900])
def test_deep_formulas_get_their_facts(depth):
    # built by a loop, since the parser and printer take a frame per level
    f = g = And(And(nom("i"), p), Down(x, x))
    recoded = And(And(prop("_n_i"), p), Down(x, x))
    for _ in range(depth):
        f, recoded = Diamond(f), Diamond(recoded)
    assert f.signature == {"<>", "↓", "nom", "var"}
    assert (f.height, g.height) == (depth + 2, 2)
    assert free_vars(f) == frozenset()
    assert atoms_of(f) == {nom("i"), p, x}
    assert (props_of(f), noms_of(f), svars_of(f)) == (("p",), ("i",), ("x",))
    assert recode_nominals(f) is recoded
    assert len(diamond_closure(recoded)) == depth
    assert g in diamond_closure(f)


# -- interning ---------------------------------------------------------------


def test_equal_structure_is_the_same_node():
    import copy
    import pickle

    text = "p & <>p & []<>p & [] down $x . ~<> $x & @'i U(q, $x)"
    f = parse(text)
    assert parse(text) is f
    assert And(p, q) is And(p, q)
    assert copy.deepcopy(f) is f
    assert copy.copy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f


def test_intern_table_is_weak():
    import gc
    import weakref

    f = parse("<>(zz1 & []zz2) & down $x . <>(zz3 & $x)")
    diamond_closure(f)  # fills the per-node caches too
    dead = weakref.ref(f.right)
    del f
    gc.collect()
    assert dead() is None


_EVALUATE_AND_DROP = """
import gc
gc.disable()
from hylo.formula import _TABLE
{run}
del f
print(sorted(repr(n) for n in list(_TABLE.values()) if "zz" in repr(n)))
"""


@pytest.mark.parametrize(
    "run",
    [
        # the checker: modal, Until, atom, at and down closures
        "from hylo.checker import eval_formula\n"
        "from hylo.formula import parse\n"
        "from hylo.model import HybridModel\n"
        "m = HybridModel(('a', 'b'), {('a', 'b'), ('b', 'b')}, {}, {'i': 'b'})\n"
        "for text in ['<>(zz & <>zz)', \"down $x . @'i U(zz, <>$x & 'i)\"]:\n"
        "    f = parse(text)\n"
        "    eval_formula(m, {}, 'a', f)",
        # fo_eval: predicate and quantifier closures
        "from hylo.satellites import fo_eval, parse_fo, string_structure\n"
        "f = parse_fo('E x. (zz(x) & A y. (zz(y) | R(x,y)))')\n"
        "fo_eval(string_structure('ab'), {}, f)",
        # the solver: the recoding, the atom sets and the closure kept on
        # the nodes, and the checker's closures on the recoded ones
        "from hylo.formula import parse\n"
        "from hylo.solver import Budget, sat_transitive\n"
        "f = parse(\"'zz & <>(zz & ~'zz) & []<>zz\")\n"
        "assert sat_transitive(f, Budget(1, 2, 1)).is_sat",
    ],
    ids=["checker", "fo_eval", "solver"],
)
def test_evaluated_nodes_die_without_the_cycle_collector(run):
    # a compiled closure that held its own node would put the node in a
    # reference cycle, and the table would keep it until a collection
    import os
    import subprocess
    import sys

    import hylo

    src = os.path.dirname(os.path.dirname(os.path.abspath(hylo.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _EVALUATE_AND_DROP.format(run=run)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.stderr == ""
    assert proc.stdout == "[]\n"
