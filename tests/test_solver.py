from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hylo.solver
from hylo.blocktree import NO_STATE, Recording, realize, verify
from hylo.checker import eval_formula
from hylo.formula import Down, FragmentError, parse, recode_nominals, svar
from hylo.model import _decode_valuation, is_transitive
from hylo.oracle import brute_sat
from hylo.solver import (
    Budget,
    _canonical_trees,
    _Compiled,
    _explicit,
    _node_kinds,
    _Shape,
    bounds_for,
    sat_complete,
    sat_transitive,
)
from test_blocktree import _hld_formulas

CHAIN = parse("p & <>p & []<>p & [] down $x . ~<> $x")


def test_chain_formula_is_sat_with_verified_witness():
    result = sat_transitive(CHAIN, Budget(max_clique=2, max_nodes=2, max_c=2))
    assert result.is_sat
    assert verify(result.witness_rep, CHAIN, result.witness_guess).accepted
    m = realize(result.witness_rep, 4)
    assert is_transitive(m)
    assert len(m.val["p"]) >= 5


def test_contradiction_unsat_exhaustive():
    result = sat_transitive(parse("p & ~p"), Budget(max_clique=1, max_nodes=1, max_c=0))
    assert result.status == "unsat"
    assert result.exhaustive
    assert result.bounds == (1, 1, 0)


def test_modal_free_bounds():
    assert bounds_for(parse("p & ~q")) == (1, 1, 0)
    nodes, clique, c = bounds_for(CHAIN)
    assert nodes == 32 and c == 32  # d = 4 closure sentences
    assert clique == 4


def test_self_blocking_formula_unknown_at_small_budget():
    phi = parse("down $x . <>($x & ~<> $x)")
    result = sat_transitive(phi, Budget(max_clique=2, max_nodes=2, max_c=1))
    assert result.status == "unknown"
    assert not result.is_sat
    assert "finite model property" in result.note
    # ground truth: no transitive model up to 5 states either
    assert brute_sat(phi, "transitive", 5) is None


def test_sat_complete_examples():
    result = sat_complete(parse("down $x . <> $x"), Budget(max_clique=2))
    assert result.is_sat
    rep = result.witness_rep
    assert len(rep.m_states) == 1
    assert (rep.m_states[0], rep.m_states[0]) in rep.rel

    result = sat_complete(parse("p"), Budget(max_clique=2))
    assert result.is_sat
    assert result.witness_rep.val["p"]

    result = sat_complete(parse("(down $x . ~<> $x) & <>true"), Budget(max_clique=4))
    assert result.status == "unsat"
    assert result.exhaustive


def test_sat_complete_unknown_below_bound():
    phi = parse("(down $x . ~<> $x) & <>true")
    result = sat_complete(phi, Budget(max_clique=1))
    assert result.status == "unknown"


def test_solver_rejects_non_hld():
    with pytest.raises(FragmentError):
        sat_transitive(parse("U(p, q)"))
    with pytest.raises(ValueError):
        sat_transitive(parse("<> $x"))


def test_nominal_recoding_and_warning():
    result = sat_transitive(parse("'i & <>p"), Budget(max_clique=2, max_nodes=2, max_c=1))
    assert result.is_sat
    assert result.nominal_warning
    plain = sat_transitive(parse("p & <>p"), Budget(max_clique=2, max_nodes=2, max_c=1))
    assert not plain.nominal_warning


def test_determinism():
    budget = Budget(max_clique=2, max_nodes=2, max_c=2)
    a = sat_transitive(CHAIN, budget)
    b = sat_transitive(CHAIN, budget)
    assert a.witness_rep == b.witness_rep
    assert a.witness_guess == b.witness_guess
    assert a.candidates == b.candidates


def test_oracle_agreement_small_models():
    # formulas with oracle-found finite transitive models are found SAT
    corpus = [
        "p",
        "<>p",
        "p & <>q",
        "down $x . <> $x",
        "down $x . <>(p & <> $x)",
        "[]false",
        "<>true & []down $x . ~<> $x",
    ]
    budget = Budget(max_clique=4, max_nodes=4, max_c=2)
    for text in corpus:
        phi = parse(text)
        oracle_hit = brute_sat(recode_nominals(phi), "transitive", 3)
        assert oracle_hit is not None, text
        result = sat_transitive(phi, budget)
        assert result.is_sat, text
        assert verify(result.witness_rep, recode_nominals(phi), result.witness_guess).accepted


def test_witness_realization_satisfies_formula_when_finite():
    # when a formula has a finite model, some realization of the witness
    # satisfies it explicitly
    phi = parse("down $x . <>(p & <> $x)")
    result = sat_transitive(phi, Budget(max_clique=3, max_nodes=3, max_c=2))
    assert result.is_sat
    m = realize(result.witness_rep, 2)
    assert any(eval_formula(m, {}, s, phi) for s in m.states)


@pytest.mark.parametrize(
    "text, limits",
    [
        ("[]p & []q & <>~q", (2, 2, 1)),
        ("<>true & []p & []~p", (2, 2, 1)),
        ("<>[]p & []<>~p", (1, 3, 1)),
        ("<>p & <>q & [](~p | ~q) & []p", (1, 2, 1)),
    ],
)
def test_unsat_below_bounds_is_unknown(text, limits):
    # UNSAT on every frame; the budgets are below the completeness bounds
    clique, nodes, c = limits
    result = sat_transitive(parse(text), Budget(max_clique=clique, max_nodes=nodes, max_c=c))
    assert result.status == "unknown"


def test_stats_count_structures_prunings_and_rejections():
    result = sat_transitive(parse("<>(p & ~p)"), Budget(max_clique=1, max_nodes=3, max_c=1))
    stats = result.stats
    assert set(stats) == {
        "structures",
        "valuations_skipped",
        "guesses_fixed",
        "guesses_skipped",
        "rejected",
    }
    assert sum(stats["rejected"].values()) == result.candidates
    assert stats["structures"] > 0
    assert stats["valuations_skipped"] > 0
    assert stats["guesses_fixed"] > 0
    sat = sat_transitive(CHAIN, Budget(max_clique=2, max_nodes=2, max_c=2))
    assert sum(sat.stats["rejected"].values()) == sat.candidates - 1
    # a guess unlike its target's type is skipped before verify
    assert set(sat.stats["rejected"]) <= {"formula holds at no explicit state"}


def test_recorded_evaluations_settle_the_type_mismatches():
    # the guess vectors unlike their targets' types are skipped, and the
    # two counts sum to the candidates the enumeration had before
    phi = parse("down $x . <>($x & ~<> $x)")
    result = sat_transitive(phi, Budget(max_clique=2, max_nodes=3, max_c=2))
    assert result.status == "unknown"
    assert (result.candidates, result.stats["guesses_skipped"]) == (1995, 13293)
    assert result.stats["rejected"] == {"formula holds at no explicit state": 1995}


@pytest.mark.parametrize(
    "text, limits, counts",
    [
        # (candidates, guesses skipped, evaluations recorded beyond the
        # empty-guess one of each valuation)
        ("<>(p & []false) & <>(~p & []false) & []([]false | <>p)", (1, 3, 1), (91, 1612, 54)),
        ("<>(p & down $x . <>(~$x & <>$x)) & <>(~p & []false)", (2, 3, 1), (212, 1705, 127)),
    ],
)
def test_guesses_the_empty_guess_does_not_settle_are_evaluated_again(monkeypatch, text, limits, counts):
    # a guess vector that answers some test of the empty-guess evaluation
    # differently has its targets evaluated once more
    again = []

    class Counted(Recording):
        def __init__(self, rep, phi, slots, vector, targets):
            super().__init__(rep, phi, slots, vector, targets)
            if any(vector):
                again.append(vector)

    monkeypatch.setattr(hylo.solver, "Recording", Counted)
    clique, nodes, c = limits
    result = sat_transitive(parse(text), Budget(max_clique=clique, max_nodes=nodes, max_c=c))
    assert result.is_sat
    assert verify(result.witness_rep, recode_nominals(parse(text)), result.witness_guess).accepted
    assert (result.candidates, result.stats["guesses_skipped"], len(again)) == counts


@settings(max_examples=100, deadline=None)
@given(_hld_formulas(), st.data())
def test_the_solver_reads_the_verdict_verify_gives(body, data):
    # a solver structure under a valuation: the first consistent vectors,
    # in the solver's order, each with the verdict read on its evaluation
    # under its own guesses
    phi = Down(svar("x"), body)
    nodes = data.draw(st.integers(1, 3))
    parents = data.draw(st.sampled_from(_canonical_trees(nodes)))
    kinds = tuple(data.draw(st.sampled_from(_node_kinds(2, False))) for _ in range(nodes))
    pairs = [(u, t) for u in range(nodes) for t in range(nodes)]
    c_pairs = tuple(sorted(data.draw(st.sets(st.sampled_from(pairs), max_size=2))))
    shape = _Shape(_explicit(parents, kinds), c_pairs, [])
    code = data.draw(st.integers(0, (1 << (2 * shape.n_m)) - 1))
    rep = shape.rep.with_val(_decode_valuation(code, ("p", "q"), shape.rep.m_states))
    stats = {"guesses_fixed": 0, "guesses_skipped": 0}
    for guess, holds in islice(shape.guesses(rep, _Compiled(phi), stats), 20):
        result = verify(rep, phi, guess)
        assert result.accepted or result.reason == NO_STATE
        assert holds == result.accepted


def test_a_second_search_reuses_the_explicit_parts_of_the_first():
    _explicit.cache_clear()
    budget = Budget(max_clique=2, max_nodes=2, max_c=1)
    sat_transitive(parse("<>(p & ~p)"), budget)
    first = _explicit.cache_info()
    assert first.misses > 0
    sat_transitive(parse("[]q & <>~q"), budget)
    second = _explicit.cache_info()
    assert second.misses == first.misses and second.hits > first.hits
    # bounded: one explicit part more than it holds leaves it full
    kinds = _node_kinds(4, False)
    parts = ((parents, k) for parents in _canonical_trees(4) for k in product(kinds, repeat=4))
    for parents, k in islice(parts, second.maxsize + 1):
        _explicit(parents, k)
    assert _explicit.cache_info().currsize == second.maxsize
    _explicit.cache_clear()
