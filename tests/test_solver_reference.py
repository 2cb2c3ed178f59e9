"""Differential tests of the symmetry-reduced solver against the unreduced
enumeration in ``solver_reference.py``, and against ground truth that
needs no solver: sentences UNSAT on every frame must never come out SAT.
In every search here, each guess vector the solver hands to verify is
accepted there: the solver rejects the others on an evaluation under
their own guesses.
"""

import json
import os
import random
from itertools import combinations, product
import subprocess
import sys
from pathlib import Path

import pytest

import hylo.solver
from hylo.blocktree import realize, verify
from hylo.checker import eval_formula
from hylo.formula import nom, noms_of, parse, recode_nominals
from hylo.model import HybridModel
from hylo.solver import (
    NOMINAL_SPLIT,
    Budget,
    _canonical_trees,
    _Explicit,
    _node_kinds,
    _Shape,
    sat_transitive,
)
from solver_reference import _build_rep, reference_sat_transitive

BUDGETS = [(2, 2, 1), (1, 3, 1), (2, 1, 2), (1, 2, 2)]


@pytest.fixture(autouse=True)
def verify_accepts_every_vector(monkeypatch):
    """The solver's verify, failing the search on any rejection: the
    recorded evaluations settle every guess vector unlike its targets'
    types, and each candidate's evaluation under its own guesses rejects
    it where phi holds at no explicit state, before it reaches verify.
    Yields the list of verify results."""
    results = []

    def checked(rep, phi, guess):
        result = verify(rep, phi, guess)
        assert not (result.reason or "").startswith("type mismatch"), result.reason
        assert result.accepted, result.reason
        results.append(result)
        return result

    monkeypatch.setattr(hylo.solver, "verify", checked)
    return results


def _subformula(rng, depth, bound, atoms):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(list(atoms) + [f"${v}" for v in bound])
    op = rng.choices(["~", "&", "|", "<>", "[]", "down"], weights=[3, 2, 2, 3, 3, 2])[0]
    if op == "~":
        return f"~{_subformula(rng, depth - 1, bound, atoms)}"
    if op in ("&", "|"):
        left, right = (_subformula(rng, depth - 1, bound, atoms) for _ in range(2))
        return f"({left} {op} {right})"
    if op in ("<>", "[]"):
        return f"{op}{_subformula(rng, depth - 1, bound, atoms)}"
    if len(bound) >= 2:
        return _subformula(rng, depth, bound, atoms)
    var = "xy"[len(bound)]
    return f"(down ${var} . {_subformula(rng, depth - 1, bound + [var], atoms)})"


def _sentences(seed, count, atoms=("p", "q"), conjuncts=2):
    """Distinct random down-fragment sentences over atoms, each a
    conjunction of subformulas of depth at most 3."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        text = " & ".join(_subformula(rng, 3, [], atoms) for _ in range(conjuncts))
        if text not in out:
            out.append(text)
    return out


SENTENCES = _sentences(20081, 50)


@pytest.mark.parametrize("text", SENTENCES)
def test_reduced_search_matches_reference(text):
    # 50 sentences x 4 budgets = 200 queries
    for clique, nodes, c in BUDGETS:
        budget = Budget(max_clique=clique, max_nodes=nodes, max_c=c)
        new = sat_transitive(parse(text), budget)
        ref = reference_sat_transitive(parse(text), budget)
        assert new.status == ref.status, (text, budget)
        assert new.candidates <= ref.candidates, (text, budget)
        if new.is_sat:
            fresh = recode_nominals(parse(text))
            assert verify(new.witness_rep, fresh, new.witness_guess).accepted, (text, budget)


def test_leaves_added_to_a_shared_explicit_part_give_the_full_representation():
    # every (tree, kinds, pairs) structure up to 3 nodes, cliques of 2 and
    # 2 leaves is the representation the reference builds and validates whole
    structures = 0
    for nodes in (1, 2, 3):
        pairs = [(u, t) for u in range(nodes) for t in range(nodes)]
        for parents in _canonical_trees(nodes):
            for kinds in product(_node_kinds(2, False), repeat=nodes):
                explicit = _Explicit(parents, kinds)
                for c_pairs in (c for n_c in (0, 1, 2) for c in combinations(pairs, n_c)):
                    rep = _Shape(explicit, c_pairs, []).rep
                    targets = [(u, rep.ref[f"c{i}"]) for i, (u, _) in enumerate(c_pairs)]
                    whole = _build_rep(parents, kinds, targets, 0, ())
                    assert rep == whole, (parents, kinds, c_pairs)
                    assert rep._c_succ == whole._c_succ
                    assert rep._m_model is explicit.rep._m_model
                    structures += 1
    assert structures == 2589


# Sentences whose models need the shapes the prunings act on: cliques whose
# states agree or differ on every atom, and isomorphic sibling subtrees.
SHAPED = [
    ("down $x . <>(~$x & <>$x)", (2, 1, 0)),
    ("down $x . (p & <>(~$x & p & <>$x))", (2, 1, 0)),
    ("down $x . (p & <>(~$x & ~p & <>$x))", (2, 1, 0)),
    ("down $x . (~p & ~q & <>(~$x & ~p & ~q & <>$x))", (2, 1, 0)),
    ("down $x . (p & <>(~$x & p & <>(~$x & p & <>$x)))", (3, 1, 1)),
    ("<>(p & []false) & <>(~p & []false) & []([]false | <>p)", (1, 3, 1)),
    ("<>(p & <>(q & []false)) & <>(~p & <>(q & []false))", (1, 4, 0)),
    ("<>(p & down $x . <>(~$x & <>$x)) & <>(~p & []false)", (2, 3, 1)),
    ("<>([]false & ~p) & <>(p & <>p & []p)", (1, 3, 0)),
]


@pytest.mark.parametrize("text, limits", SHAPED)
def test_reduced_search_matches_reference_on_symmetric_shapes(text, limits):
    clique, nodes, c = limits
    budget = Budget(max_clique=clique, max_nodes=nodes, max_c=c)
    new = sat_transitive(parse(text), budget)
    ref = reference_sat_transitive(parse(text), budget)
    assert new.status == ref.status == "sat"
    assert new.candidates <= ref.candidates
    assert verify(new.witness_rep, recode_nominals(parse(text)), new.witness_guess).accepted


# Sentences UNSAT on every frame for propositional reasons: a successor
# or the state itself would have to satisfy contradictory literals.
PROPOSITIONALLY_UNSAT = [
    "p & ~p",
    "<>(p & ~p)",
    "p & ~p & <>q",
    "[]p & <>~p",
    "[](p -> q) & <>(p & ~q)",
    "[]p & []q & <>~q",
    "<>true & []p & []~p",
    "<>[]p & []<>~p",
    "<>p & <>q & [](~p | ~q) & []p",
    "[]false & <>true",
    "<>(p & q) & [](~p | ~q)",
    "down $x . ([]~$x & <>$x)",
]


@pytest.mark.parametrize("text", PROPOSITIONALLY_UNSAT)
def test_unsat_on_every_frame_is_never_sat(text):
    for clique, nodes, c in [(1, 1, 0), (3, 1, 1), (2, 1, 2), (2, 2, 1), (1, 2, 2)]:
        result = sat_transitive(parse(text), Budget(max_clique=clique, max_nodes=nodes, max_c=c))
        assert result.status in ("unknown", "unsat"), (text, clique, nodes, c)


# Sentences UNSAT on every frame because a nominal names one state.  Their
# recodings are SAT: the nominal's proposition holds at two states.
NOMINALLY_UNSAT = ["'i & p & <>('i & ~p)", "<>('i & p) & <>('i & ~p)"]


@pytest.mark.parametrize("text", NOMINALLY_UNSAT)
def test_a_nominal_at_two_states_is_never_sat(text):
    for clique, nodes, c in BUDGETS:
        result = sat_transitive(parse(text), Budget(max_clique=clique, max_nodes=nodes, max_c=c))
        assert result.status == "unknown", (text, clique, nodes, c)
        assert result.stats["rejected"][NOMINAL_SPLIT] > 0


def _read_back(m, phi):
    """m with the proposition each nominal of phi was recoded as read back
    as that nominal: it names the one state where the proposition holds,
    or a fresh state that no other state sees."""
    val, nomval, states = dict(m.val), {}, list(m.states)
    for i in noms_of(phi):
        where = val.pop(recode_nominals(nom(i)).name, frozenset())
        assert len(where) <= 1, (i, sorted(where))
        nomval[i] = min(where) if where else f"fresh {i}"
        if not where:
            states.append(nomval[i])
    return HybridModel(tuple(states), m.rel, val, nomval)


# Seeded sentences over p and a nominal: at the three-conjunct depth the
# first recoded witness of some of them holds the nominal at two states.
NOMINAL_SENTENCES = [t for t in _sentences(1, 40, ("p", "'i"), 3) if "'i" in t]


def test_nominal_witnesses_realize_to_models_of_the_sentence():
    sat = 0
    for text in NOMINAL_SENTENCES:
        phi = parse(text)
        for clique, nodes, c in BUDGETS:
            result = sat_transitive(phi, Budget(max_clique=clique, max_nodes=nodes, max_c=c))
            if result.is_sat:
                m = _read_back(realize(result.witness_rep, 3), phi)
                assert any(eval_formula(m, {}, s, phi) for s in m.states), (text, clique, nodes, c)
                sat += 1
    # three more came out SAT when the gate ignored nominals
    assert (len(NOMINAL_SENTENCES), sat) == (38, 138)


def test_candidates_the_empty_guess_recording_settles_reach_verify_only_when_sat():
    # the empty-guess recording also gave the explicit part's types, and
    # its evaluation kept what their tests answered under the empty guess;
    # each candidate it settles is read under its own guesses, so the
    # strict fixture sees verify reject none of them
    result = sat_transitive(parse("~<>p & ~q & <><>p"), Budget(max_clique=2, max_nodes=2, max_c=1))
    assert (result.status, result.candidates) == ("unknown", 1656)


# The benchmark's budget-exhausting searches (perfbench/workloads.py,
# REFUTATION_GRID): each is UNKNOWN at its budget.
GRID = [
    ("[]p & <>~p", (2, 2, 1)),
    ("[]q & <>~q", (2, 2, 1)),
    ("<>(p & ~p)", (2, 2, 1)),
    ("<>(q & ~q)", (2, 2, 1)),
    ("<>p & []~p", (2, 2, 1)),
    ("<>(p & ~p)", (1, 3, 1)),
    ("down $x . ([]~$x & <>$x)", (1, 3, 1)),
    ("down $x . <>($x & ~<> $x)", (1, 3, 1)),
    ("[]false & <>true", (2, 2, 2)),
    ("down $x . ([]~$x & <>$x)", (2, 2, 2)),
    ("down $x . <>($x & ~<> $x)", (2, 2, 2)),
    ("[]p & <>(q & ~p)", (1, 2, 1)),
    ("[](p -> q) & <>(p & ~q)", (1, 2, 1)),
    ("<>p & <>q & [](~p | ~q) & []p", (2, 1, 1)),
    ("p & ~p & <>q", (1, 2, 2)),
]


def test_grid_searches_hand_verify_only_consistent_guesses(verify_accepts_every_vector):
    candidates = skipped = 0
    for text, (clique, nodes, c) in GRID:
        result = sat_transitive(parse(text), Budget(max_clique=clique, max_nodes=nodes, max_c=c))
        assert result.status == "unknown", text
        candidates += result.candidates
        skipped += result.stats["guesses_skipped"]
    # each candidate is rejected on its evaluation under its own guesses:
    # verify sees only SAT answers, and these searches have none
    assert verify_accepts_every_vector == []
    # the enumeration before recorded evaluations handed all 10,750 to verify
    assert (candidates, skipped) == (4398, 6352)


_DETERMINISM_SCRIPT = """
import json
from hylo.blocktree import rep_to_dict
from hylo.formula import parse, print_formula
from hylo.solver import Budget, sat_transitive
cases = [
    ("p & <>p & []<>p & [] down $x . ~<> $x", (2, 2, 2)),
    ("<>(p & ~p)", (1, 3, 1)),
    ("<>(p & q) & <>(p & ~q) & <>(~p & q) & [] down $x . ~<> $x", (1, 4, 0)),
]
out = []
for text, (clique, nodes, c) in cases:
    r = sat_transitive(parse(text), Budget(max_clique=clique, max_nodes=nodes, max_c=c))
    out.append({
        "status": r.status,
        "candidates": r.candidates,
        "stats": r.stats,
        "witness": rep_to_dict(r.witness_rep) if r.is_sat else None,
        "guess": {k: sorted(map(print_formula, t)) for k, t in (r.witness_guess or {}).items()},
    })
print(json.dumps(out, sort_keys=True))
"""


def test_search_is_identical_across_hash_seeds():
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _DETERMINISM_SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]
    # the prunings fire in these searches, so their order is covered too
    cases = json.loads(outputs[0])
    assert [c["status"] for c in cases] == ["sat", "unknown", "sat"]
    assert cases[1]["stats"]["valuations_skipped"] > 0
    assert cases[1]["stats"]["guesses_fixed"] > 0
    assert cases[2]["stats"]["valuations_skipped"] > 0
