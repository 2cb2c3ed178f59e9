import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hylo.blocktree import (
    FiniteRep,
    Recording,
    compute_types,
    realize,
    rep_from_dict,
    rep_to_dict,
    verify,
)
from hylo.checker import eval_formula, phi_type
from hylo.formula import (
    And,
    Bot,
    Box,
    Diamond,
    Down,
    Not,
    Or,
    Top,
    diamond_closure,
    parse,
    print_formula,
    prop,
    svar,
)
from hylo.model import is_transitive

CHAIN = parse("p & <>p & []<>p & [] down $x . ~<> $x")


def chain_rep(label_c=True):
    val_p = {"m0", "m1", "c0"} if label_c else {"m0", "m1"}
    return FiniteRep(
        ("m0", "m1"),
        ("c0",),
        frozenset([("m0", "m1"), ("m0", "c0"), ("m1", "c0")]),
        {"p": frozenset(val_p)},
        {"c0": "m1"},
    )


def test_rep_validation():
    with pytest.raises(ValueError, match="outgoing"):
        FiniteRep(("m0",), ("c0",), frozenset([("m0", "c0"), ("c0", "m0")]), {}, {"c0": "m0"})
    with pytest.raises(ValueError, match="total"):
        FiniteRep(("m0",), ("c0",), frozenset([("m0", "c0")]), {}, {})
    with pytest.raises(ValueError):
        # non-transitive m-part
        FiniteRep(("a", "b", "c"), (), frozenset([("a", "b"), ("b", "c")]), {}, {})
    with pytest.raises(ValueError, match="ancestors"):
        # c attached below m1 but unreachable from the m0 side: preds not
        # a node plus all its ancestors
        FiniteRep(
            ("m0", "m1"),
            ("c0",),
            frozenset([("m0", "m1"), ("m1", "c0")]),
            {},
            {"c0": "m1"},
        )
    with pytest.raises(ValueError, match="root"):
        FiniteRep(("a", "b"), (), frozenset(), {}, {})


def test_rep_condensation_must_be_tree():
    # diamond at node level: two immediate predecessors
    with pytest.raises(ValueError, match="tree"):
        FiniteRep(
            ("r", "a", "b", "d"),
            (),
            frozenset(
                [("r", "a"), ("r", "b"), ("a", "d"), ("b", "d"), ("r", "d")]
            ),
            {},
            {},
        )


def test_compute_types_chain_example():
    rep = chain_rep()
    guess = {"c0": frozenset({prop("p")})}
    types = compute_types(rep, CHAIN, guess)
    assert types["m0"] == types["m1"] == {prop("p")}
    assert all(Bot() not in t for t in types.values())
    assert types["c0"] == guess["c0"]


def test_compute_types_empty_c_matches_checker():
    rep = FiniteRep(
        ("a", "b"),
        (),
        frozenset([("a", "b")]),
        {"p": frozenset({"b"})},
        {},
    )
    phi = parse("<>p & <><>p")
    types = compute_types(rep, phi, {})
    from hylo.model import HybridModel

    m = HybridModel(("a", "b"), frozenset([("a", "b")]), {"p": frozenset({"b"})})
    assert types["a"] == phi_type(m, phi, "a")
    assert types["b"] == phi_type(m, phi, "b")


def test_compute_types_total_under_bad_guess():
    rep = chain_rep()
    from hylo.formula import diamond_closure

    full = diamond_closure(CHAIN)
    types = compute_types(rep, CHAIN, {"c0": full})
    assert set(types) == {"m0", "m1", "c0"}


def test_verify_chain_accept():
    rep = chain_rep()
    res = verify(rep, CHAIN, {"c0": frozenset({prop("p")})})
    assert res.accepted
    assert res.reason is None


def test_verify_chain_reject_wrong_guess():
    rep = chain_rep()
    res = verify(rep, CHAIN, {"c0": frozenset()})
    assert not res.accepted
    assert "mismatch" in res.reason


def test_verify_single_state():
    rep = FiniteRep(("m0",), (), frozenset(), {"p": frozenset({"m0"})}, {})
    assert verify(rep, parse("p"), {}).accepted
    assert not verify(rep, parse("~p"), {}).accepted


def test_verify_guess_must_be_within_closure():
    rep = chain_rep()
    with pytest.raises(ValueError, match="closure"):
        verify(rep, parse("<>p"), {"c0": frozenset({prop("zz")})})


def test_realize_chain_depths():
    rep = chain_rep()
    m0 = realize(rep, 0)
    assert set(m0.states) == {"m0", "m1", "c0"}
    assert m0.val["p"] == {"m0", "m1"}  # leaf labels stripped
    m2 = realize(rep, 2)
    assert is_transitive(m2)
    assert len(m2.val["p"]) == 4
    assert len(m2.states) == 5
    # p-states form a chain: each non-last sees the next
    m4 = realize(rep, 4)
    assert len(m4.val["p"]) == 6
    assert is_transitive(m4)


def test_realize_empty_c_identity():
    rep = FiniteRep(
        ("a", "b"),
        (),
        frozenset([("a", "b")]),
        {"p": frozenset({"a"})},
        {},
    )
    for depth in (0, 1, 3):
        m = realize(rep, depth)
        assert m.states == ("a", "b")
        assert m.rel == {("a", "b")}
        assert m.val["p"] == {"a"}


def test_realized_chain_satisfies_closure_sentences():
    # monotone realization consistency on the accepted chain witness
    rep = chain_rep()
    types = compute_types(rep, CHAIN, {"c0": frozenset({prop("p")})})
    m = realize(rep, 4)
    for chi in types["m0"]:
        assert any(eval_formula(m, {}, s, chi) for s in m.states)


def test_clique_type_invariance_in_reps():
    rep = FiniteRep(
        ("a", "b", "t"),
        (),
        frozenset(
            [("a", "b"), ("b", "a"), ("a", "a"), ("b", "b"), ("a", "t"), ("b", "t")]
        ),
        {"p": frozenset({"t"})},
        {},
    )
    phi = parse("<>p & <><>p")
    types = compute_types(rep, phi, {})
    assert types["a"] == types["b"]


def test_rep_file_roundtrip(tmp_path):
    rep = chain_rep()
    doc = rep_to_dict(rep)
    assert rep_from_dict(doc) == rep
    with pytest.raises(ValueError, match="unknown keys"):
        rep_from_dict({"states": ["a"], "nom": {}})


def test_verify_empty_c_equals_explicit_satisfiability():
    from hylo.model import HybridModel

    cases = [
        ("<>p", True),
        ("p & ~p", False),
        ("[]false & p", True),
        ("down $x . <> $x", False),
    ]
    rep = FiniteRep(
        ("a", "b"),
        (),
        frozenset([("a", "b")]),
        {"p": frozenset({"b"})},
        {},
    )
    m = HybridModel(("a", "b"), frozenset([("a", "b")]), {"p": frozenset({"b"})})
    for text, _ in cases:
        phi = parse(text)
        expected = any(eval_formula(m, {}, s, phi) for s in m.states)
        assert verify(rep, phi, {}).accepted == expected, text



def _hld_formulas():
    atoms = st.sampled_from([prop("p"), prop("q"), svar("x"), Top()])

    def extend(child):
        return st.one_of(
            st.builds(Not, child),
            st.builds(Diamond, child),
            st.builds(Box, child),
            st.builds(And, child, child),
            st.builds(Or, child, child),
            st.builds(Down, st.just(svar("x")), child),
        )

    return st.recursive(atoms, extend, max_leaves=8)


def _verify_texts(text, guess_texts):
    """verify on freshly parsed formulas, its answer as plain text, and a
    weak reference to the parsed formula."""
    phi = parse(text)
    res = verify(chain_rep(), phi, {"c0": frozenset(parse(t) for t in guess_texts)})
    types = {s: sorted(print_formula(chi) for chi in t) for s, t in res.types.items()}
    return (res.accepted, res.reason, types), weakref.ref(phi)


@settings(max_examples=100, deadline=None)
@given(_hld_formulas(), st.data())
def test_verify_depends_on_structure_only(body, data):
    phi = Down(svar("x"), body)
    text = print_formula(phi)
    held = weakref.ref(phi)  # alive after the del only if another formula holds it
    del phi
    closure = sorted(print_formula(chi) for chi in diamond_closure(parse(text)))
    guess_texts = data.draw(st.sets(st.sampled_from(closure))) if closure else set()
    first, root = _verify_texts(text, guess_texts)
    # the first parse's root has left the intern table unless another
    # formula holds it, so new nodes may reuse the addresses of dead ones;
    # nodes hold no cycles, so the collector is only a fallback
    if root() is not held():
        gc.collect()
    assert root() is held()
    assert _verify_texts(text, guess_texts)[0] == first
    assert _verify_texts(text, guess_texts)[0] == first


def _two_leaf_rep():
    """m0 below-links to m1; c0 hangs below m1 and repeats m1, c1 hangs
    below m0 and repeats m0."""
    return FiniteRep(
        ("m0", "m1"),
        ("c0", "c1"),
        frozenset([("m0", "m1"), ("m0", "c0"), ("m1", "c0"), ("m0", "c1")]),
        {"p": frozenset({"m1"})},
        {"c0": "m1", "c1": "m0"},
    )


@settings(max_examples=100, deadline=None)
@given(_hld_formulas(), st.data())
def test_verify_answers_as_the_full_types_do(body, data):
    # verify stops at the first closure sentence that differs, but rejects
    # for the same c-state, and for the same reason, as the full types do
    phi = Down(svar("x"), body)
    closure = sorted(diamond_closure(phi), key=print_formula)
    rep = _two_leaf_rep()
    guesses = st.sets(st.sampled_from(closure)) if closure else st.just(set())
    guess = {c: frozenset(data.draw(guesses)) for c in rep.c_states}
    types = compute_types(rep, phi, guess)
    res = verify(rep, phi, guess)
    bad = [c for c in rep.c_states if types[rep.ref[c]] != guess[c]]
    if bad:
        reason = f"type mismatch: guess for {bad[0]!r} differs from type of {rep.ref[bad[0]]!r}"
        assert (res.accepted, res.reason, res.types) == (False, reason, {})
    elif res.accepted:
        assert res.reason is None and res.types == types
    else:
        assert (res.reason, res.types) == ("formula holds at no explicit state", {})


def test_with_val_reuses_the_structure_and_checks_the_valuation():
    rep = chain_rep()
    other = rep.with_val({"p": frozenset({"m1"})})
    fresh = FiniteRep(rep.m_states, rep.c_states, rep.rel, {"p": frozenset({"m1"})}, rep.ref)
    assert other == fresh
    assert other._parts is rep._parts
    assert rep.val == {"p": frozenset({"m0", "m1", "c0"})}
    assert compute_types(other, CHAIN, {"c0": frozenset()}) == compute_types(
        fresh, CHAIN, {"c0": frozenset()}
    )
    assert verify(rep.with_val(rep.val), CHAIN, {"c0": frozenset()}).accepted == verify(
        rep, CHAIN, {"c0": frozenset()}
    ).accepted
    with pytest.raises(ValueError, match="outside states"):
        rep.with_val({"p": frozenset({"zz"})})


def test_successor_lists_are_cached_per_structure():
    rep = chain_rep()
    assert rep.m_successors("m0") == ["m1"]
    assert rep.c_successors("m0") == ["c0"] and rep.c_successors("m1") == ["c0"]
    rep.c_successors("m0").clear()
    assert rep.c_successors("m0") == ["c0"]


def test_with_leaves_checks_only_the_leaves_of_a_shared_explicit_part():
    explicit = FiniteRep(("m0", "m1"), (), frozenset([("m0", "m1")]), {"p": frozenset({"m0"})}, {})
    rep = explicit.with_leaves({"c0": "m1"}, [("m0", "c0"), ("m1", "c0")])
    whole = FiniteRep(
        ("m0", "m1"),
        ("c0",),
        frozenset([("m0", "m1"), ("m0", "c0"), ("m1", "c0")]),
        {"p": frozenset({"m0"})},
        {"c0": "m1"},
    )
    assert rep == whole and rep._c_succ == whole._c_succ
    assert rep._m_model is explicit._m_model and rep._parts is explicit._parts
    assert explicit.c_states == () and explicit.c_successors("m0") == []
    with pytest.raises(ValueError, match="ancestors"):
        explicit.with_leaves({"c0": "m1"}, [("m1", "c0")])
    with pytest.raises(ValueError, match="attached to no node"):
        explicit.with_leaves({"c0": "m1"}, [])
    with pytest.raises(ValueError, match="not an m-state"):
        explicit.with_leaves({"c0": "c1"}, [("m0", "c0"), ("m1", "c0")])
    with pytest.raises(ValueError, match="overlap"):
        explicit.with_leaves({"m1": "m0"}, [("m0", "m1")])
    with pytest.raises(ValueError, match="into a c-state"):
        explicit.with_leaves({"c0": "m1"}, [("m0", "c0"), ("m1", "c0"), ("m1", "m0")])
    with pytest.raises(ValueError, match="without c-states"):
        rep.with_leaves({"c1": "m1"}, [("m0", "c1"), ("m1", "c1")])


@settings(max_examples=100, deadline=None)
@given(_hld_formulas(), st.data())
def test_a_recording_settles_every_guess_that_answers_its_tests_alike(body, data):
    # a recorded evaluation gives the targets' types under its own guess,
    # and under any guess that answers the tests it logged the same way
    phi = Down(svar("x"), body)
    closure = sorted(diamond_closure(phi), key=print_formula)
    rep = _two_leaf_rep()
    slots = {"m0": [0, 1], "m1": [0]}  # c0 (target m1) is slot 0, c1 (target m0) slot 1
    guesses = st.sets(st.sampled_from(closure)) if closure else st.just(set())
    vectors = [tuple(frozenset(data.draw(guesses)) for _ in range(2)) for _ in range(2)]
    recording = Recording(rep, phi, slots, vectors[0], ["m1", "m0"])
    assert recording.settles(vectors[0])
    for vector in vectors:
        types = compute_types(rep, phi, {"c0": vector[0], "c1": vector[1]})
        if recording.settles(vector):
            assert recording.types == (types["m1"], types["m0"])
    assert recording.explicit_types() == {
        s: t for s, t in compute_types(rep, phi, {"c0": vectors[0][0], "c1": vectors[0][1]}).items() if s in rep.m_states
    }
