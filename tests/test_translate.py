import pytest

from hylo.checker import eval_formula
from hylo.formula import (
    NOM,
    And,
    Atom,
    Bot,
    Diamond,
    FragmentError,
    Not,
    Since,
    Top,
    Until,
    free_vars,
    parse,
    print_formula,
    prop,
    subformulas,
)
from hylo.oracle import brute_fo_sat, brute_sat, enumerate_models, find_eval_difference
from hylo.satellites import (
    Exists,
    FOAnd,
    FONot,
    FOVar,
    Forall,
    PdlAnd,
    PdlAtom,
    Pred,
    Rel,
    SiblingTree,
    enumerate_trees,
    fo_to_text,
    parse_fo,
    parse_pdl,
    pdl_eval,
)
from hylo.translate import (
    at_elim_linear,
    complete_reduction,
    exists_to_at,
    flat_path_marker,
    globsat_reduction,
    ht,
    ml_to_until,
    nominal_uniqueness,
    pdl_reduction,
    pdl_reduction_flat,
    pdl_translate,
    spy_at,
    spy_fp,
    standard_translation,
    string_reduction,
    tt_to_nat_at,
    tt_to_nat_tense,
    u_to_upp,
    until_via_down,
    until_via_down_tense,
    upp_to_u,
    zigzag,
)

p, q = prop("p"), prop("q")


def fo_open(text, keep=()):
    """Parse FO text, reading free names as variables (not constants)."""
    from hylo.satellites import (
        Eq,
        Exists,
        FOAnd,
        FOConst,
        FOImplies,
        FONot,
        FOOr,
        FOVar,
        Forall,
        Pred,
        Rel,
        RelPlus,
    )

    def fix_term(t):
        if isinstance(t, FOConst) and t.name not in keep:
            return FOVar(t.name)
        return t

    def rec(g):
        if isinstance(g, (Rel, RelPlus, Eq)):
            return type(g)(fix_term(g.left), fix_term(g.right))
        if isinstance(g, Pred):
            return Pred(g.name, fix_term(g.term))
        if isinstance(g, FONot):
            return FONot(rec(g.body))
        if isinstance(g, (FOAnd, FOOr, FOImplies)):
            return type(g)(rec(g.left), rec(g.right))
        if isinstance(g, (Exists, Forall)):
            return type(g)(g.var, rec(g.body))
        return g

    return rec(parse_fo(text))


def test_until_via_down_display():
    got = until_via_down(p, q)
    assert got == parse("down $x.<>down $y.(p & @$x[](<> $y -> q))")


def test_until_via_down_substitution_instance():
    got = until_via_down(p, Bot())
    assert got == parse("down $x.<>down $y.(p & @$x[](<> $y -> false))")


def test_until_via_down_top_top_is_diamond_top():
    got = until_via_down(Top(), Top())
    assert find_eval_difference(got, parse("<>true"), "any", 3) is None


def test_until_via_down_tense_display():
    got = until_via_down_tense(p, q)
    assert got == parse("down $x . F(p & H(P $x -> q))")


def test_until_simulations_fresh_variables():
    phi, psi = parse("<> $x"), parse("$y")
    out = until_via_down(phi, psi)
    assert free_vars(out) == {"x", "y"}
    out = until_via_down_tense(phi, psi)
    assert free_vars(out) == {"x", "y"}


def test_ml_to_until_table():
    assert ml_to_until(parse("<>p")) == parse("U(p, false)")
    assert ml_to_until(p) == p
    assert ml_to_until(parse("[]p")) == parse("~U(~p, false)")
    with pytest.raises(FragmentError):
        ml_to_until(parse("'i"))
    with pytest.raises(FragmentError):
        ml_to_until(parse("P p"))


def test_globsat_reduction_display():
    assert globsat_reduction(parse("<>p")) == parse("U(p, false) & []U(p, false)")


def test_u_upp_bijection():
    assert u_to_upp(parse("U(p, q)")) == parse("U++(p, q)")
    assert u_to_upp(p) == p
    for text in ["U(p, S(q, p))", "E U(p, q)", "down $x . U($x, p)"]:
        f = parse(text)
        assert upp_to_u(u_to_upp(f)) == f


def test_standard_translation_table():
    assert standard_translation(parse("<>p")) == fo_open("E y0. (R(x, y0) & p(y0))")
    got = standard_translation(parse("'i"))
    assert got == fo_open("i = x", keep=("i",))  # the nominal is a constant
    upp = standard_translation(parse("U++(p, q)"))
    expected = fo_open(
        "E y0. (R+(x,y0) & p(y0) & A y1. (R+(x,y1) & R+(y1,y0) -> q(y1)))"
    )
    assert upp == expected
    # a past form's path runs from the witness y0 to the anchor x
    for text, expected in [
        ("P p", "E y0. (R(y0,x) & p(y0))"),
        ("H p", "A y0. (R(y0,x) -> p(y0))"),
        ("S(p, q)", "E y0. (R(y0,x) & p(y0) & A y1. (R(y0,y1) & R(y1,x) -> q(y1)))"),
        ("S+(p, q)", "E y0. (R(y0,x) & p(y0) & A y1. (R+(y0,y1) & R+(y1,x) -> q(y1)))"),
        ("S++(p, q)", "E y0. (R+(y0,x) & p(y0) & A y1. (R+(y0,y1) & R+(y1,x) -> q(y1)))"),
    ]:
        assert standard_translation(parse(text)) == fo_open(expected), text


def test_standard_translation_down_and_at():
    assert standard_translation(parse("down $v . <> $v")) == fo_open(
        "E v. (x = v & E y0. (R(x, y0) & v = y0))"
    )
    assert standard_translation(parse("@'i p")) == fo_open(
        "E y0. (y0 = i & p(y0))", keep=("i",)
    )


def test_ht_table():
    assert ht(fo_open("p(x)")) == parse("<>($x & p)")
    assert ht(fo_open("E x. p(x)")) == parse("<>(down $x.<>($x & p))")
    assert ht(fo_open("x = y")) == parse("<>($x & $y)")
    with pytest.raises(FragmentError):
        ht(parse_fo("E x. R(x,x)"))


def test_ht_uppercase_predicates_lowered():
    assert ht(fo_open("P(x)")) == parse("<>($x & p)")


def test_complete_reduction_display():
    got = complete_reduction(parse_fo("E x. P(x)"))
    assert got == parse("(down $x.[]<> $x) & <>(down $x.<>($x & p))")


def test_zigzag_atom_shape():
    got = zigzag(parse_fo("E x. E y. R(x,y)"))
    expected = parse_fo(
        "E x. (0(x) & E y. (0(y) & "
        "E a0. E b0. E c0. (R(x,a0) & R(b0,a0) & R(b0,c0) & R(y,c0)"
        " & 0(x) & 1(a0) & 2(b0) & 3(c0) & 0(y))))"
    )
    assert got == expected


def test_zigzag_homomorphic_negation():
    inner = parse_fo("E x. R(x,x)")
    from hylo.satellites import FONot

    assert zigzag(FONot(inner)) == FONot(zigzag(inner))


def test_zigzag_sat_transfer_small():
    alpha = parse_fo("E x. E y. R(x,y)")
    assert brute_fo_sat(alpha, "any", 2) is not None
    assert brute_fo_sat(zigzag(alpha), "transitive", 8) is not None
    bad = parse_fo("(A x. ~R(x,x)) & (E x. R(x,x))")
    assert brute_fo_sat(bad, "any", 2) is None
    assert brute_fo_sat(zigzag(bad), "transitive", 6) is None


def test_spy_at_table():
    got = spy_at(parse_fo("E x. E y. R(x,y)"))
    expected = parse(
        "down $i . ~<> $i & <>@$i <>down $x . @$i <>down $y . @$x <> $y"
    )
    assert got == expected


def test_spy_fp_table():
    got = spy_fp(parse_fo("E x. p(x)"))
    expected = parse(
        "down $i . ~F $i & F P($i & F down $x . P($i & F($x & p)))"
    )
    assert got == expected


def test_spy_sat_transfer():
    alpha = parse_fo("E x. p(x)")
    assert brute_fo_sat(alpha, "transitive", 3) is not None
    assert brute_sat(spy_at(alpha), "transitive", 4) is not None
    assert brute_sat(spy_fp(alpha), "transitive", 4) is not None
    bad = parse_fo("(E x. p(x)) & (A x. ~p(x))")
    assert brute_fo_sat(bad, "transitive", 3) is None
    assert brute_sat(spy_at(bad), "transitive", 3) is None
    assert brute_sat(spy_fp(bad), "transitive", 3) is None


def test_spy_names_avoid_every_input_name():
    # built as ASTs: the parser rejects the reserved name _spy; a spy or
    # string point named _spy would be rebound by the inner quantifier
    spy, z, w = FOVar("_spy"), FOVar("z"), FOVar("w")
    alpha = Exists(
        "i", Exists("_spy", FOAnd(Forall("z", FONot(Rel(spy, z))), Exists("w", Rel(w, w))))
    )
    assert brute_fo_sat(alpha, "any", 3) is not None
    assert brute_sat(spy_at(alpha), "any", 4) is not None
    assert brute_sat(spy_fp(alpha), "any", 4) is not None
    word = Exists("s", Exists("_spy", FOAnd(Pred("a", spy), Exists("w", Rel(w, spy)))))
    assert brute_fo_sat(word, "linear", 3) is not None
    assert brute_sat(string_reduction(word, ["a"]), "linear", 5) is not None
    phi = And(parse("'i"), Atom(NOM, "_spy"))
    assert brute_sat(phi, "transitive", 2) is not None
    assert brute_sat(exists_to_at(phi), "transitive", 3) is not None


def test_tt_to_nat_tense_fully_expanded():
    out = tt_to_nat_tense(parse("p & F p"))
    assert not any(isinstance(g, (Until, Since)) for g in subformulas(out))
    # f(phi) ends with the rootedness conjunct P H false
    assert print_formula(out).endswith("P H false")


def test_tt_to_nat_tense_sat_on_trees():
    out = tt_to_nat_tense(parse("true"))
    assert brute_sat(out, "transitive-tree", 3) is not None


def test_tt_to_nat_at_past_rule():
    out = tt_to_nat_at(parse("P p"))
    # f' = down i.(dia image & mu & lambda & box lambda); extract the image
    image = out.body.left.left.left.body
    assert image == parse("down $v . @$i <>(p & <> $v)")


def test_at_elim_linear_display():
    got = at_elim_linear(parse("@'i p"))
    assert got == parse("P('i&p) | ('i&p) | F('i&p)")
    plain = parse("p & F q")
    assert at_elim_linear(plain) == plain


def test_at_elim_linear_equivalence_small():
    f = parse("@'i p")
    assert find_eval_difference(f, at_elim_linear(f), "linear", 3) is None


def test_string_reduction_structure():
    out = string_reduction(parse_fo("E x. a(x)"), ["a", "b"])
    # down s. (HT(alpha) & (FL & DISCRETE & UNIQUE))
    ht_part = out.body.left
    assert ht_part == parse("@$s <>down $x . @$s <>($x & a)")
    unique = out.body.right.right
    assert unique == parse("[](a & ~b | b & ~a)")
    lt = string_reduction(parse_fo("E x. E y. x < y"), ["a"])
    inner = lt.body.left
    assert inner == parse(
        "@$s <>down $x . @$s <>down $y . @$s <>($x & <> $y)"
    )


def test_string_reduction_sat_transfer():
    out = string_reduction(parse_fo("E x. a(x)"), ["a"])
    assert brute_sat(out, "linear", 4) is not None
    none = string_reduction(parse_fo("(E x. a(x)) & (A x. ~a(x))"), ["a"])
    assert brute_sat(none, "linear", 4) is None


def test_exists_to_at_displays():
    assert exists_to_at(p) == parse("'i & ~<>'i & <>p")
    assert exists_to_at(parse("E p")) == parse("'i & ~<>'i & <>@'i <>p")
    with pytest.raises(FragmentError):
        exists_to_at(parse("down $x . <> $x"))


def test_exists_to_at_sat_transfer():
    phi = parse("E p & E ~p")
    assert brute_sat(phi, "transitive", 4) is not None
    assert brute_sat(exists_to_at(phi), "transitive", 4) is not None


def test_pdl_translate_table():
    assert pdl_translate(parse("U(p, q)")) == parse_pdl("<(down;?(q))*;down>p")
    assert pdl_translate(parse("E p")) == parse_pdl("<up*;down*>p")
    assert pdl_translate(p) == parse_pdl("p")


def test_pdl_reduction_one_node_tree():
    f = pdl_reduction(p)
    t = SiblingTree(("r",), {"r": None}, {"r": ()}, {"p": {"r"}})
    assert pdl_eval(t, "r", f)
    bare = SiblingTree(("r",), {"r": None}, {"r": ()}, {})
    assert not pdl_eval(bare, "r", f)


# a nominal and a proposition sharing a name are two atoms over the tree
PDL_COLLISIONS = [
    ("'i & ~i", True),
    ("i & ~'i & E('i & i)", True),
    ("'i & ~i & i_1 & E ~i_1", True),
    ("'i & ~i & E(i & 'i)", False),
    ("'i & U(i, ~'i)", True),
]


@pytest.mark.parametrize("text,expected", PDL_COLLISIONS)
def test_pdl_reduction_keeps_a_nominal_apart_from_its_namesake(text, expected):
    phi = parse(text)
    hybrid = brute_sat(phi, "transitive-tree", 4) is not None
    reduction = pdl_reduction(phi)
    atoms = sorted(
        {g.name for g in subformulas(reduction) if isinstance(g, PdlAtom) and not g.name.startswith("_")}
    )
    pdl = any(pdl_eval(t, t.root, reduction) for t in enumerate_trees(4, atoms=atoms))
    assert hybrid == pdl == expected


def test_pdl_nominal_takes_the_first_free_suffix():
    assert pdl_translate(parse("'i & ~i")) is parse_pdl("i_1 & ~i")
    assert pdl_translate(parse("'i & ~i & i_1")) is parse_pdl("(i_2 & ~i) & i_1")
    assert pdl_translate(parse("'i & 'j & j")) is parse_pdl("(i & j_1) & j")
    # the uniqueness constraint is on the nominal's own atom
    assert pdl_reduction(parse("'i & ~i")) is PdlAnd(
        parse_pdl("<down*>(i_1 & ~i)"), nominal_uniqueness("i_1")
    )


def test_pdl_nominal_uniqueness():
    f = pdl_reduction(parse("'i"))
    one = SiblingTree(("r", "a"), {"r": None, "a": "r"}, {"r": ("a",), "a": ()}, {"i": {"a"}})
    both = SiblingTree(("r", "a"), {"r": None, "a": "r"}, {"r": ("a",), "a": ()}, {"i": {"r", "a"}})
    assert pdl_eval(one, "r", f)
    assert not pdl_eval(both, "r", f)
    nu = nominal_uniqueness("i")
    assert pdl_eval(one, "r", nu)
    assert not pdl_eval(both, "r", nu)


def test_pdl_flat_programs():
    f = pdl_reduction_flat(parse("U(p, q)"))
    text = str(f)
    assert "(down;?(~_flat)) | ?(_flat);up" in text.replace("((", "(").replace("))", ")") or "_flat" in text
    # structural check on the flat step programs
    from hylo.satellites import Choice, DownP, Seq, Star, Test, PdlNot, PdlAtom, Up

    flat = PdlAtom("_flat")
    dn = Choice(Seq(DownP(), Test(PdlNot(flat))), Seq(Test(flat), Up()))
    img = pdl_translate(parse("U(p, q)"), flat=True)
    assert img == parse_pdl("<(((down;?(~_flat)) | ?(_flat);up);?(q))*;((down;?(~_flat)) | ?(_flat);up)>p")
    assert img.program.first.body.first == dn


def test_flat_marker_unsat_on_finite_trees():
    # the rootless variant forces an infinite marked path, so no finite
    # sibling tree satisfies beta
    beta = flat_path_marker()
    from hylo.satellites import enumerate_trees

    assert not any(
        pdl_eval(t, t.root, beta) for t in enumerate_trees(3, atoms=("_flat",))
    )


def test_translations_commute_with_not_and():
    f1, f2 = parse("<>p"), parse("[]q")
    assert ml_to_until(Not(f1)) == Not(ml_to_until(f1))
    assert ml_to_until(And(f1, f2)) == And(ml_to_until(f1), ml_to_until(f2))
    assert u_to_upp(Not(parse("U(p,q)"))) == Not(u_to_upp(parse("U(p,q)")))
    g = parse("@'i p")
    assert at_elim_linear(Not(g)) == Not(at_elim_linear(g))


def test_standard_translation_binder_named_like_anchor():
    from hylo.satellites import FOStructure, fo_eval

    texts = ["down $x . ~<>$x", "down $x . <>$x", "p & down $x . [](p -> <>$x)",
             "down $x . <>down $y . @$x <>$y"]
    for text in texts:
        phi = parse(text)
        alpha = standard_translation(phi, anchor="x")
        for m in enumerate_models("any", 3, atoms=[p] if "p" in text else ()):
            s = FOStructure(m.states, m.rel, dict(m.val), dict(m.nomval))
            for state in m.states:
                assert eval_formula(m, {}, state, phi) == fo_eval(s, {"x": state}, alpha), (text, m)


def test_reductions_keep_distinct_predicates_apart():
    # P and p once both became the proposition p, so a satisfiable
    # sentence mapped to an unsatisfiable image
    alpha = parse_fo("E x. (P(x) & ~p(x))")
    assert brute_fo_sat(alpha, "complete", 1) is not None
    assert brute_sat(ht(alpha), "complete", 1) is not None
    assert ht(alpha) == parse("<>down $x . <>($x & p_1) & ~<>($x & p)")
    beta = parse_fo("E x. E y. (R(x,y) & P(x) & ~p(x))")
    assert brute_fo_sat(beta, "any", 2) is not None
    assert brute_sat(spy_at(beta), "any", 3) is not None
    assert brute_sat(spy_fp(beta), "any", 3) is not None
    digits = ht(parse_fo("E x. (1(x) & q1(x) & Q1(x))"))
    assert digits == parse("<>down $x . <>($x & q1_1) & <>($x & q1) & <>($x & q1_2)")


@pytest.mark.parametrize("text", ["E x. ~True(x)", "E x. Down(x)", "E x. (P(x) & ~p(x) & p_1(x))"])
def test_reduction_images_print_and_read_back(text):
    alpha = parse_fo(text)
    for image in (ht(alpha), spy_at(alpha), spy_fp(alpha)):
        assert parse(print_formula(image)) == image
    assert brute_sat(ht(alpha), "complete", 1) is not None


@pytest.mark.parametrize("letter,reason", [("F", "keywords"), ("_b", "reserved namespace")])
def test_string_reduction_rejects_letters_that_do_not_read_back(letter, reason):
    with pytest.raises(FragmentError, match=reason):
        string_reduction(parse_fo("E x. a(x)"), ["a", letter])


def test_renamed_binders_avoid_constants():
    alpha = parse_fo("E x. E x. R(x, x0)")
    out = zigzag(alpha)
    assert parse_fo(fo_to_text(out)) == out
    image = spy_at(alpha)
    assert parse(print_formula(image)) == image
    assert "'x0" in print_formula(image) and "$x0" not in print_formula(image)


def test_shadowing_binders_are_numbered_per_name():
    # each rebound name counts its own renamings: x0 for x, y0 for y
    alpha = parse_fo("E x. (E x. E y. (E y. R(x,y)))")
    assert fo_to_text(zigzag(alpha)) == (
        "E x. 0(x) & (E x0. 0(x0) & (E y. 0(y) & (E y0. 0(y0) & (E a0. E b0. E c0. "
        "R(x0,a0) & R(b0,a0) & R(b0,c0) & R(y0,c0) & 0(x0) & 1(a0) & 2(b0) & 3(c0) & 0(y0)))))"
    )
    assert print_formula(spy_at(alpha)) == (
        "down $i . ~<>$i & <>@$i <>down $x . @$i <>down $x0 . @$i <>down $y . @$i <>down $y0 . "
        "@$x0 <>$y0"
    )
    image = string_reduction(alpha, ["a"])
    assert "down $y0 . @$s <>($x0 & <>$y0)" in print_formula(image)
    assert parse(print_formula(image)) == image
