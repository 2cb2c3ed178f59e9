"""Differential tests of the symmetry-reduced solver against the unreduced
enumeration in ``solver_reference.py``, and against ground truth that
needs no solver: sentences UNSAT on every frame must never come out SAT.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hylo.blocktree import verify
from hylo.formula import parse, recode_nominals
from hylo.solver import Budget, sat_transitive
from solver_reference import reference_sat_transitive

BUDGETS = [(2, 2, 1), (1, 3, 1), (2, 1, 2), (1, 2, 2)]


def _subformula(rng, depth, bound):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(["p", "q"] + [f"${v}" for v in bound])
    op = rng.choices(["~", "&", "|", "<>", "[]", "down"], weights=[3, 2, 2, 3, 3, 2])[0]
    if op == "~":
        return f"~{_subformula(rng, depth - 1, bound)}"
    if op in ("&", "|"):
        return f"({_subformula(rng, depth - 1, bound)} {op} {_subformula(rng, depth - 1, bound)})"
    if op in ("<>", "[]"):
        return f"{op}{_subformula(rng, depth - 1, bound)}"
    if len(bound) >= 2:
        return _subformula(rng, depth, bound)
    var = "xy"[len(bound)]
    return f"(down ${var} . {_subformula(rng, depth - 1, bound + [var])})"


def _sentences(seed, count):
    """Distinct random down-fragment sentences over p and q, each a
    conjunction of two subformulas of depth at most 3."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        text = " & ".join(_subformula(rng, 3, []) for _ in range(2))
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
