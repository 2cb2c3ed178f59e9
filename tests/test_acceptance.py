"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every tolerance and bound is pinned here.
"""

import time

from hylo.blocktree import realize, verify
from hylo.checker import eval_formula, global_eval
from hylo.formula import map_nodes, parse, print_formula, prop, nom, recode_nominals, subformulas
from hylo.model import (
    HybridModel,
    generated_submodel,
    is_complete,
    is_transitive,
)
from hylo.oracle import (
    brute_fo_sat,
    brute_global_sat,
    brute_sat,
    enumerate_models,
    find_eval_difference,
    frames,
)
from hylo.satellites import (
    FOStructure,
    fo_eval,
    fo_preds,
    Exists,
    Forall,
    enumerate_trees,
    parse_fo,
    pdl_eval,
)
from hylo.solver import Budget, sat_transitive
from hylo.translate import (
    at_elim_linear,
    globsat_reduction,
    ht,
    pdl_reduction,
    spy_at,
    spy_fp,
    standard_translation,
    st_complete,
    until_via_down,
    until_via_down_tense,
    zigzag,
)

CHAIN_TEXT = "p & <>p & []<>p & [] down $x . ~<> $x"


def _report(number, elapsed, detail=""):
    suffix = f" — {detail}" if detail else ""
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.1f}s){suffix}")


def test_ac1_infinite_chain_separation():
    t0 = time.time()
    chain = parse(CHAIN_TEXT)
    assert brute_sat(chain, "transitive", 6) is None
    result = sat_transitive(chain, Budget(max_clique=2, max_nodes=2, max_c=2))
    assert result.is_sat
    assert verify(result.witness_rep, chain, result.witness_guess).accepted
    m = realize(result.witness_rep, 4)
    assert is_transitive(m)
    p_states = sorted(m.val["p"])
    assert len(p_states) >= 5
    for a in p_states:
        for b in p_states:
            assert a == b or (a, b) in m.rel or (b, a) in m.rel
    elapsed = time.time() - t0
    assert elapsed < 60
    _report(1, elapsed, "no finite model at n=6, solver witness realizes a p-chain")


def test_ac2_until_equivalence():
    t0 = time.time()
    u = parse("U(p, q)")
    simulated = until_via_down(prop("p"), prop("q"))
    assert find_eval_difference(u, simulated, "any", 3) is None
    elapsed = time.time() - t0
    assert elapsed < 120
    _report(2, elapsed, "binder simulation of Until agrees on every model <= 3")


def test_ac3_tense_until_simulation():
    t0 = time.time()
    u = parse("U(p, q)")
    simulated = until_via_down_tense(prop("p"), prop("q"))
    assert find_eval_difference(u, simulated, "transitive", 3) is None
    _report(3, time.time() - t0, "tense simulation agrees on transitive models <= 3")


def test_ac4_complete_frame_force():
    t0 = time.time()
    f = parse("down $x . []<> $x")
    vacuous = 0
    for k in range(1, 5):
        names = tuple(f"s{i}" for i in range(k))
        for rel in frames("transitive", k):
            m = HybridModel(names, rel)
            for s in names:
                got = eval_formula(m, {}, s, f)
                terminal = not m.successors(s)
                expected = is_complete(generated_submodel(m, s)) or terminal
                assert got == expected, (sorted(rel), s)
                if got and terminal and not is_complete(generated_submodel(m, s)):
                    vacuous += 1
    assert vacuous > 0  # the vacuous-terminal disjunct really fires
    _report(4, time.time() - t0, f"checked all transitive models <= 4; {vacuous} vacuous terminals")


ML_CORPUS_20 = [
    "p | ~p",
    "~<>p",
    "[]p",
    "p & []p",
    "p -> p",
    "~<>true",
    "[]p -> p",
    "p & ~q",
    "[](p & q)",
    "~<>~p",
    "p <-> p",
    "[]false",
    "~p & (<>true -> p)",
    "p & ~p",
    "p & <>~p",
    "q -> []q",
    "[]q & ~<>~q",
    "(p | q) & ~p & ~q",
    "[]~p",
    "false",
]


def test_ac5_globsat_reduction():
    t0 = time.time()
    assert len(ML_CORPUS_20) == 20
    globally_sat = 0
    for text in ML_CORPUS_20:
        phi = parse(text)
        f = globsat_reduction(phi)
        if brute_global_sat(phi, "any", 3) is not None:
            globally_sat += 1
            assert brute_sat(f, "transitive-tree", 5) is not None, text
        if brute_sat(f, "transitive", 4) is not None:
            assert brute_global_sat(phi, "any", 4) is not None, text
    assert globally_sat >= 5
    elapsed = time.time() - t0
    assert elapsed < 300
    _report(5, elapsed, f"{globally_sat} globally satisfiable members transferred")


FO_01_CORPUS_15 = [
    "E x. R(x,x)",
    "A x. R(x,x)",
    "E x. E y. R(x,y)",
    "A x. E y. R(x,y)",
    "~(E x. R(x,x))",
    "A x. A y. R(x,y)",
    "E x. ~R(x,x)",
    "A x. A y. (R(x,y) -> R(y,x))",
    "E x. E y. (R(x,y) & ~R(y,x))",
    "(A x. ~R(x,x)) & (E x. E y. R(x,y))",
    "(A x. ~R(x,x)) & (A x. E y. R(x,y))",
    "E x. E y. (R(x,y) & R(y,x))",
    "(A x. ~R(x,x)) & (E x. R(x,x))",
    "E x. (R(x,x) & ~R(x,x))",
    "(A x. A y. R(x,y)) & (E x. E y. ~R(x,y))",
]


def test_ac6_zigzag_transfer():
    t0 = time.time()
    assert len(FO_01_CORPUS_15) == 15
    found, refuted = 0, 0
    for text in FO_01_CORPUS_15:
        alpha = parse_fo(text)
        direct = brute_fo_sat(alpha, "any", 2) is not None
        image = brute_fo_sat(zigzag(alpha), "transitive", 8) is not None
        assert direct == image, text
        found += direct
        refuted += not direct
    assert found and refuted
    _report(6, time.time() - t0, f"{found} found / {refuted} refuted at the paired bounds")


FO_41_CORPUS_10 = [
    "E x. p0(x)",
    "E x. (p0(x) & ~p1(x))",
    "E x. E y. (R(x,y) & p0(x) & p1(y))",
    "A x. (p0(x) -> E y. (R(x,y) & p1(y)))",
    "(E x. R(x,x)) & (A x. p0(x))",
    "E x. E y. (~R(x,y) & p0(x))",
    "(E x. p0(x)) & (A x. ~p0(x))",
    "(A x. E y. R(x,y)) & (A x. ~R(x,x))",
    "E x. (p1(x) & ~p1(x))",
    "(A x. A y. R(x,y)) & (E x. ~R(x,x))",
]


def test_ac7_spy_point_reductions():
    t0 = time.time()
    assert len(FO_41_CORPUS_10) == 10
    sats = 0
    for text in FO_41_CORPUS_10:
        alpha = parse_fo(text)
        direct = brute_fo_sat(alpha, "transitive", 3) is not None
        sats += direct
        for variant in (spy_at, spy_fp):
            hybrid = brute_sat(variant(alpha), "transitive", 4) is not None
            assert hybrid == direct, (text, variant.__name__)
    assert 0 < sats < 10
    _report(7, time.time() - t0, f"both spy variants agree on {sats} sat / {10 - sats} unsat")


AT_LINEAR_CORPUS_10 = [
    "@'i p",
    "@'i <>p",
    "@'i ~p",
    "@'i (p & <>q)",
    "@'i P p",
    "@'i F(p | q)",
    "@'i <>(q & <>p)",
    "@'i H ~p",
    "p & @'i (q -> P p)",
    "@'i down $v . F $v",
]


def test_ac8_at_elimination_linear():
    t0 = time.time()
    assert len(AT_LINEAR_CORPUS_10) == 10
    for text in AT_LINEAR_CORPUS_10:
        f = parse(text)
        assert find_eval_difference(f, at_elim_linear(f), "linear", 5) is None, text
    _report(8, time.time() - t0, "@-free simulations agree on all linear models <= 5")


PDL_CORPUS_10 = [
    "E p",
    "U(p, q)",
    "S(p, q)",
    "U(p, q) & U(q, p)",
    "'i",
    "E 'i & p",
    "A p -> p",
    "U(p, false)",
    "E (p & ~p)",
    "S(p, true) & p",
]


def test_ac9_pdl_tree_embedding():
    t0 = time.time()
    assert len(PDL_CORPUS_10) == 10
    sats = 0
    for text in PDL_CORPUS_10:
        phi = parse(text)
        hybrid = brute_sat(phi, "transitive-tree", 4) is not None
        reduction = pdl_reduction(phi)
        atoms = sorted(
            {a.name for a in _hybrid_atoms(phi)}
        )
        pdl = any(
            pdl_eval(t, t.root, reduction) for t in enumerate_trees(4, atoms=atoms)
        )
        assert pdl == hybrid, text
        sats += hybrid
    assert 0 < sats < 10
    _report(9, time.time() - t0, f"tree embedding agrees on {sats} sat / {10 - sats} unsat")


def _hybrid_atoms(phi):
    from hylo.formula import atoms_of

    return [a for a in atoms_of(phi) if a.kind in ("prop", "nom")]


ST_CORPUS_25 = [
    "p & true",
    "'i",
    "false | p",
    "~p",
    "p & q",
    "p | q",
    "p -> q",
    "p <-> q",
    "<>p",
    "[]p",
    "F p",
    "G p",
    "P p",
    "H p",
    "E p",
    "A p",
    "@'i p",
    "down $v . <> $v",
    "down $v . @$v p",
    "U(p, q)",
    "S(p, q)",
    "U+(p, q)",
    "S+(p, q)",
    "U++(p, q)",
    "S++(p, q)",
]


def _structure_of(m: HybridModel) -> FOStructure:
    return FOStructure(
        m.states,
        m.rel,
        {p: ss for p, ss in m.val.items()},
        dict(m.nomval),
    )


def test_ac10_standard_translation_agreement():
    t0 = time.time()
    assert len(ST_CORPUS_25) == 25
    for text in ST_CORPUS_25:
        phi = parse(text)
        alpha = standard_translation(phi, anchor="x")
        atoms = _hybrid_atoms(phi)
        for m in enumerate_models("any", 3, atoms=atoms):
            s = _structure_of(m)
            for state in m.states:
                assert eval_formula(m, {}, state, phi) == fo_eval(
                    s, {"x": state}, alpha
                ), (text, state)
    _report(10, time.time() - t0, "checker and FO evaluator agree on every connective")


HT_CORPUS_10 = [
    ("hl", "p"),
    ("hl", "<>p"),
    ("hl", "[](p -> q)"),
    ("hl", "down $v . <>(p & $v)"),
    ("hl", "<>(p & 'i)"),
    ("mc", "E x. p(x)"),
    ("mc", "A x. (p(x) -> q(x))"),
    ("mc", "E x. E y. ~x=y"),
    ("mc", "E x. (p(x) & A y. (p(y) -> x=y))"),
    ("mc", "A x. x=x"),
]


def _monadic_structures(preds, consts, max_elems):
    for k in range(1, max_elems + 1):
        domain = tuple(range(k))
        for bits in range(1 << (len(preds) * k)):
            unary = {
                p: frozenset(e for e in domain if (bits >> (i * k + e)) & 1)
                for i, p in enumerate(preds)
            }
            for assignment in _const_assignments(consts, k):
                yield FOStructure(domain, frozenset(), unary, assignment)


def _const_assignments(consts, k):
    from itertools import product

    for combo in product(range(k), repeat=len(consts)):
        yield dict(zip(consts, combo))


def test_ac11_ht_complete_frame_equivalence():
    t0 = time.time()
    assert len(HT_CORPUS_10) == 10
    for kind, text in HT_CORPUS_10:
        if kind == "hl":
            phi = parse(text)
            alpha = st_complete(phi, "x")
            atoms = _hybrid_atoms(phi)
            for m in enumerate_models("complete", 3, atoms=atoms):
                s = _structure_of(m)
                for state in m.states:
                    assert eval_formula(m, {}, state, phi) == fo_eval(
                        s, {"x": state}, alpha
                    ), (text, state)
        else:
            alpha = parse_fo(text)
            image = ht(alpha)
            preds = sorted(fo_preds(alpha))
            consts = sorted(
                t.name
                for g in subformulas(alpha)
                for t in _fo_terms(g)
                if _is_const(t)
            )
            for s in _monadic_structures(preds, consts, 3):
                m = _complete_model_of(s)
                expected = fo_eval(s, {}, alpha)
                for state in m.states:
                    assert eval_formula(m, {}, state, image) == expected, (text, state)
    _report(11, time.time() - t0, "both reduction directions agree at <= 3 elements")


def _fo_terms(g):
    from hylo.satellites import Eq, Pred, Rel, RelPlus

    if isinstance(g, (Rel, RelPlus, Eq)):
        return (g.left, g.right)
    if isinstance(g, Pred):
        return (g.term,)
    return ()


def _is_const(t):
    from hylo.satellites import FOConst

    return isinstance(t, FOConst)


def _complete_model_of(s: FOStructure) -> HybridModel:
    names = tuple(f"s{e}" for e in s.domain)
    rel = frozenset((a, b) for a in names for b in names)
    val = {p: frozenset(f"s{e}" for e in elems) for p, elems in s.unary.items()}
    nomval = {c: f"s{e}" for c, e in s.constants.items()}
    return HybridModel(names, rel, val, nomval)


HLD_CORPUS_12 = [
    "p",
    "<>p & <>q",
    "down $x . <> $x",
    "down $x . <>(p & <> $x)",
    "[]false",
    "p & []p & <>p",
    "<><>p",
    "(down $x . []<> $x) & p",
    "'i & <>'i",
    "~p & <>(p & ~<>p)",
    "p & ~p",
    "(down $x . ~<> $x) & <>true",
]


def test_ac12_solver_oracle_completeness():
    t0 = time.time()
    assert len(HLD_CORPUS_12) == 12
    budget = Budget(max_clique=4, max_nodes=8, max_c=4)
    solved = 0
    for text in HLD_CORPUS_12:
        phi = parse(text)
        recoded = recode_nominals(phi)
        if brute_sat(recoded, "transitive", 4) is None:
            continue
        result = sat_transitive(phi, budget)
        assert result.is_sat, text
        assert verify(result.witness_rep, recoded, result.witness_guess).accepted, text
        solved += 1
    assert solved >= 9
    elapsed = time.time() - t0
    assert elapsed < 600
    _report(12, elapsed, f"{solved} oracle-satisfiable members solved and verified")


def test_ac13_complexity_claims_not_reproduced():
    t0 = time.time()
    # The quantitative complexity results (NEXPTIME-completeness, the
    # nonelementary lower bounds, undecidability) are covered only through
    # the executable reduction functions and the property suites above;
    # nothing here measures asymptotic behavior.
    _report(13, time.time() - t0, "covered by construction, not by experiment")


def test_identity_rewrite_returns_each_corpus_node():
    hybrid = [
        *ML_CORPUS_20, *AT_LINEAR_CORPUS_10, *PDL_CORPUS_10, *ST_CORPUS_25, *HLD_CORPUS_12,
        *(text for kind, text in HT_CORPUS_10 if kind == "hl"),
    ]
    first_order = [
        *FO_01_CORPUS_15, *FO_41_CORPUS_10,
        *(text for kind, text in HT_CORPUS_10 if kind == "mc"),
    ]
    # the tree-PDL images of AC9 are nodes too, walked through tests and diamonds
    pdl = [pdl_reduction(parse(text)) for text in PDL_CORPUS_10]
    for f in [*map(parse, hybrid), *map(parse_fo, first_order), *pdl]:
        assert map_nodes(f, lambda g: g) is f, f
