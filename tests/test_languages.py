"""Which languages admit which formulas: every fragment check and the
``fragment_of`` labels, pinned on one-operator formulas and the corpora."""

import pytest

from hylo import formula, satellites
from hylo.formula import (
    MARKS,
    NOM,
    SVAR,
    FragmentError,
    _Node,
    check_hld,
    diamond_closure,
    fragment_of,
    parse,
)
from hylo.oracle import _needs_closure, brute_fo_sat
from hylo.satellites import PdlFormula, PdlProgram, fo_preds, is_all_u1, is_mc_eq, parse_fo
from hylo.translate import (
    at_elim_linear,
    exists_to_at,
    ht,
    ml_to_until,
    pdl_translate,
    spy_at,
    spy_fp,
    st_complete,
    string_reduction,
    tt_to_nat_at,
    tt_to_nat_tense,
    zigzag,
)
from test_acceptance import (
    AT_LINEAR_CORPUS_10,
    HLD_CORPUS_12,
    ML_CORPUS_20,
    PDL_CORPUS_10,
    ST_CORPUS_25,
)
from test_invariants import MC_CORPUS
from test_oracle import CLOSURE_UNTILS, FO_BATTERY, LANE_BATTERY
from test_solver_reference import PROPOSITIONALLY_UNSAT, SHAPED

# one formula per hybrid node class and atom kind
ML = ["p", "true", "false", "~p", "p & q", "p | q", "p -> q", "p <-> q", "<>p", "[]p"]
TENSE = ["F p", "G p", "P p", "H p"]
HLD = ML + ["'i", "$x", "down $x . p"]
AT = ["@'i p", "@$x p"]
UNTILS = ["U(p, q)", "S(p, q)", *CLOSURE_UNTILS]
HL_ONE_OPERATOR = HLD + TENSE + ["E p", "A p"] + AT + UNTILS
E_US = ML + ["'i", "F p", "G p", "E p", "A p", "U(p, q)", "S(p, q)"]

HL_ACCEPTS = {
    check_hld: HLD,
    diamond_closure: HLD,
    st_complete: HLD,
    ml_to_until: ML,
    tt_to_nat_tense: HLD + TENSE,
    tt_to_nat_at: HLD + TENSE,
    at_elim_linear: HLD + TENSE + AT,
    exists_to_at: E_US,
    pdl_translate: E_US,
}


@pytest.mark.parametrize("check", HL_ACCEPTS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("text", HL_ONE_OPERATOR)
def test_hybrid_checks_accept_exactly_their_language(check, text):
    if text in HL_ACCEPTS[check]:
        check(parse(text))
    else:
        with pytest.raises(FragmentError):
            check(parse(text))


@pytest.mark.parametrize("text", HL_ONE_OPERATOR)
def test_only_closure_untils_need_the_closure(text):
    assert _needs_closure(parse(text)) == (text in CLOSURE_UNTILS)


# one sentence per first-order node class
FO_BOOLEANS = ["true", "false", "~true", "true & false", "true | false", "true -> false", "E x. true", "A x. true"]
FO_ONE_OPERATOR = FO_BOOLEANS + ["R(a,b)", "R+(a,b)", "a=b", "p(a)"]


def _string_reduction(alpha):
    return string_reduction(alpha, sorted(fo_preds(alpha) | {"a"}))


def _fo_sat_over_any(alpha):
    return brute_fo_sat(alpha, "any", 1)


FO_ACCEPTS = {
    ht: FO_BOOLEANS + ["a=b", "p(a)"],
    zigzag: FO_BOOLEANS + ["R(a,b)"],
    spy_at: FO_BOOLEANS + ["R(a,b)", "p(a)"],
    spy_fp: FO_BOOLEANS + ["R(a,b)", "p(a)"],
    _string_reduction: FO_BOOLEANS + ["R(a,b)", "a=b", "p(a)"],
    _fo_sat_over_any: FO_BOOLEANS + ["R(a,b)", "a=b", "p(a)"],
}


@pytest.mark.parametrize("check", FO_ACCEPTS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("text", FO_ONE_OPERATOR)
def test_first_order_checks_accept_exactly_their_language(check, text):
    if text in FO_ACCEPTS[check]:
        check(parse_fo(text))
    else:
        with pytest.raises(ValueError):
            check(parse_fo(text))


@pytest.mark.parametrize("text", FO_ONE_OPERATOR + FO_BATTERY + MC_CORPUS)
def test_first_order_class_tests(text):
    alpha = parse_fo(text)
    assert is_all_u1(alpha) == ("=" not in text and "R+" not in text)
    assert is_mc_eq(alpha) == ("R(" not in text and "R+" not in text)


ONE_OPERATOR_LABELS = {
    "'i": "HL",
    "$x": "HL↓",
    "down $x . p": "HL↓",
    "F p": "ML_{F,P}",
    "G p": "ML_{F,P}",
    "P p": "ML_{F,P}",
    "H p": "ML_{F,P}",
    "E p": "HL^E",
    "A p": "HL^E",
    "@'i p": "HL^@",
    "@$x p": "HL↓,@",
    "U(p, q)": "ML_U",
    "S(p, q)": "ML_{U,S}",
    "U+(p, q)": "ML_{U+,S+}",
    "S+(p, q)": "ML_{U+,S+}",
    "U++(p, q)": "ML_{U++,S++}",
    "S++(p, q)": "ML_{U++,S++}",
}

MIXED_LABELS = {
    "E U(p, q)": "HL^E_{U,S}",
    "'i & U(p, q)": "HL_{U,S}",
    "U(p, 'i)": "HL_{U,S}",
    "$x & U(p, q)": "HL↓_{U,S}",
    "U(p, q) & U+(p, q)": "ML_{U,S,U+,S+}",
    "U(p, q) & U++(p, q)": "ML_{U,S,U++,S++}",
    "U+(p, q) & U++(p, q)": "ML_{U+,S+,U++,S++}",
    "F p & U(p, q)": "ML_{F,P,U}",
    "P p & S(p, q) & S++(p, q)": "ML_{F,P,U,S,U++,S++}",
    "@'i E p": "HL^@,E",
    "E p & F p": "HL^E_{F,P}",
    "'i & $x": "HL↓",
    "down $x . @$x E P U+(p, q)": "HL↓,@,E_{F,P,U+,S+}",
}

# every corpus formula not listed here is labelled ML
CORPUS_LABELS = {
    "@'i p": "HL^@",
    "@'i <>p": "HL^@",
    "@'i ~p": "HL^@",
    "@'i (p & <>q)": "HL^@",
    "@'i <>(q & <>p)": "HL^@",
    "p & @'i ~p": "HL^@",
    "@'i P p": "HL^@_{F,P}",
    "@'i F(p | q)": "HL^@_{F,P}",
    "@'i H ~p": "HL^@_{F,P}",
    "p & @'i (q -> P p)": "HL^@_{F,P}",
    "@'i down $v . F $v": "HL↓,@_{F,P}",
    "E p": "HL^E",
    "E 'i & p": "HL^E",
    "A p -> p": "HL^E",
    "E (p & ~p)": "HL^E",
    "A p": "HL^E",
    "E p & A (p | q)": "HL^E",
    "U(p, q)": "ML_U",
    "U(p, q) & U(q, p)": "ML_U",
    "U(p, false)": "ML_U",
    "S(p, q)": "ML_{U,S}",
    "S(p, true) & p": "ML_{U,S}",
    "U(p, q) & S(q, p)": "ML_{U,S}",
    "'i": "HL",
    "'i & <>'i": "HL",
    "F p": "ML_{F,P}",
    "G p": "ML_{F,P}",
    "P p": "ML_{F,P}",
    "H p": "ML_{F,P}",
    "F p & G q": "ML_{F,P}",
    "H ~p": "ML_{F,P}",
    "down $v . <> $v": "HL↓",
    "down $x . <> $x": "HL↓",
    "down $x . <>(p & <> $x)": "HL↓",
    "(down $x . []<> $x) & p": "HL↓",
    "(down $x . ~<> $x) & <>true": "HL↓",
    "down $x . []<> $x": "HL↓",
    "down $x . <>(q & <> $x)": "HL↓",
    "down $x . <>(~$x & <>$x)": "HL↓",
    "down $x . (p & <>(~$x & p & <>$x))": "HL↓",
    "down $x . (p & <>(~$x & ~p & <>$x))": "HL↓",
    "down $x . (~p & ~q & <>(~$x & ~p & ~q & <>$x))": "HL↓",
    "down $x . (p & <>(~$x & p & <>(~$x & p & <>$x)))": "HL↓",
    "<>(p & down $x . <>(~$x & <>$x)) & <>(~p & []false)": "HL↓",
    "down $x . ([]~$x & <>$x)": "HL↓",
    "down $v . @$v p": "HL↓,@",
    "down $x . <> down $y . (@$x <>$y & (p | ~<>$x))": "HL↓,@",
    "down $x . @$x <>p": "HL↓,@",
    "U+(p, q)": "ML_{U+,S+}",
    "S+(p, q)": "ML_{U+,S+}",
    "U++(p, q)": "ML_{U++,S++}",
    "S++(p, q)": "ML_{U++,S++}",
}

CORPORA = (
    ML_CORPUS_20 + AT_LINEAR_CORPUS_10 + PDL_CORPUS_10 + ST_CORPUS_25 + HLD_CORPUS_12
    + LANE_BATTERY + CLOSURE_UNTILS + [text for text, _ in SHAPED] + PROPOSITIONALLY_UNSAT
)


@pytest.mark.parametrize(
    "text, label",
    [(t, ONE_OPERATOR_LABELS.get(t, "ML")) for t in HL_ONE_OPERATOR]
    + list(MIXED_LABELS.items())
    + [(t, CORPUS_LABELS.get(t, "ML")) for t in dict.fromkeys(CORPORA)],
)
def test_fragment_labels(text, label):
    assert fragment_of(parse(text)) == label


# the classes every language admits, so they leave no mark
UNMARKED = {
    formula.Formula, formula.Top, formula.Bot, formula.Not,
    formula.And, formula.Or, formula.Implies, formula.Iff,
    satellites.FOFormula, satellites.FOTrue, satellites.FOFalse, satellites.FONot,
    satellites.FOAnd, satellites.FOOr, satellites.FOImplies, satellites.Exists, satellites.Forall,
    satellites.FOTerm, satellites.FOVar, satellites.FOConst,
}


def test_every_operator_class_has_a_mark():
    # a class without a mark would pass every language check; PDL has no
    # languages, so its classes need none
    for module in (formula, satellites):
        for cls in vars(module).values():
            if not isinstance(cls, type) or not issubclass(cls, _Node) or cls.__module__ != module.__name__:
                continue
            if cls is _Node or issubclass(cls, (PdlFormula, PdlProgram)):
                continue
            if cls is formula.Atom:
                assert NOM in MARKS and SVAR in MARKS
            else:
                assert (cls in MARKS) != (cls in UNMARKED), cls.__name__


@pytest.mark.parametrize(
    "check, text, message",
    [
        (ml_to_until, "'i", "atom 'i is outside modal logic"),
        (ml_to_until, "<>U(p, 'i)", "operator Until is outside modal logic"),
        (check_hld, "p & <>@'i F p", "operator At is outside the down-fragment"),
        (tt_to_nat_tense, "F E p", "operator Somewhere is outside the down-F,P fragment"),
        (at_elim_linear, "P U(p, q)", "operator Until is outside the down-@-F,P fragment"),
        (exists_to_at, "E <>$x", "atom $x is outside the E-U,S language"),
        (pdl_translate, "down $x . <>$x", "operator Down is outside the E-U,S language"),
    ],
)
def test_errors_name_the_first_operator_or_atom_and_the_language(check, text, message):
    with pytest.raises(FragmentError) as err:
        check(parse(text))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "check, text, message",
    [
        (ht, "E x. (p(x) & R(x,x))", "atom R(x,x) is outside the monadic class with equality"),
        (zigzag, "E x. (R(x,x) & p(x))", "atom p(x) is outside first-order logic over one binary relation only"),
        (spy_at, "E x. (R(x,x) & x=x)", "atom x=x is outside [all,(u,1)]"),
        (_string_reduction, "E x. R+(x,x)", "atom R+(x,x) is outside the string signature"),
    ],
)
def test_first_order_errors_name_the_atom_and_the_language(check, text, message):
    with pytest.raises(FragmentError) as err:
        check(parse_fo(text))
    assert str(err.value) == message


def test_fo_search_over_any_frames_names_the_closure_atom():
    with pytest.raises(FragmentError) as err:
        _fo_sat_over_any(parse_fo("E x. (x=x & R+(x,x))"))
    assert str(err.value).startswith("atom R+(x,x) is outside first-order logic without closure atoms")


def test_equal_signatures_are_one_object():
    assert parse("<>p & []q").signature is parse("[]<>r").signature
    assert parse_fo("E x. R(x,x)").signature is parse_fo("R(a,b) | ~true").signature
    assert parse("p").signature is parse_fo("true").signature == frozenset()
