"""Seeded and shaped corpora for the symmetry-breaking first-order search.

The differential against the search without the cut is retired (it gave
the same first structure in no more search nodes on every sentence here).
What stays needs no reference: every hit satisfies its sentence, and the
existential closure of a standard translation has a model exactly when the
hybrid sentence has one of the same size.
"""

import random

import pytest

from hylo.formula import parse
from hylo.oracle import brute_fo_sat, brute_sat
from hylo.satellites import Exists, fo_constants, fo_eval, parse_fo
from hylo.translate import standard_translation

FRAMES = ["any", "transitive", "complete"]
MAX_ELEMS = 4


def _fo_formula(rng, depth, bound, consts):
    terms = bound + consts
    if depth == 0 or (terms and rng.random() < 0.25):
        if not terms:
            return "true"
        kind = rng.choice(["R", "R", "p", "q", "="])
        a, b = rng.choice(terms), rng.choice(terms)
        if kind == "R":
            return f"R({a},{b})"
        if kind == "=":
            return f"{a}={b}"
        return f"{kind}({a})"
    op = rng.choices(["~", "&", "|", "->", "E", "A"], weights=[2, 2, 2, 1, 3, 3])[0]
    if op == "~":
        return f"~{_fo_formula(rng, depth - 1, bound, consts)}"
    if op in ("&", "|", "->"):
        left = _fo_formula(rng, depth - 1, bound, consts)
        right = _fo_formula(rng, depth - 1, bound, consts)
        return f"({left} {op} {right})"
    if len(bound) >= 3:
        return _fo_formula(rng, depth, bound, consts)
    var = "xyz"[len(bound)]
    return f"({op} {var}. {_fo_formula(rng, depth - 1, bound + [var], consts)})"


# conjuncts that need two or three elements, so that first hits are not
# all on one element and existential branches have several candidates
FO_WIDTH = ["", "(E x. E y. ~x=y)", "(E x. E y. E z. (~x=y & ~x=z & ~y=z))"]
HL_WIDTH = ["", "<>~'i", "down $x . <>(~$x & <>~$x)"]


def _fo_sentences(seed, count):
    """Distinct random sentences over R, p, q and =, with 0, 1 or 2
    constants (c, d) in turn and at most three nested quantifiers."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        consts = ["c", "d"][: len(out) % 3]
        parts = [_fo_formula(rng, 4, [], consts) for _ in range(2)] + [rng.choice(FO_WIDTH)]
        text = " & ".join(p for p in parts if p)
        alpha = parse_fo(text)
        if len(fo_constants(alpha)) == len(consts) and text not in out:
            out.append(text)
    return out


def _hl_formula(rng, depth, bound):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(["p", "q", "'i", "'j"] + [f"${v}" for v in bound])
    op = rng.choices(["~", "&", "|", "<>", "[]", "P", "@", "down"], weights=[3, 2, 2, 3, 3, 1, 2, 2])[0]
    if op == "~":
        return f"~{_hl_formula(rng, depth - 1, bound)}"
    if op in ("&", "|"):
        return f"({_hl_formula(rng, depth - 1, bound)} {op} {_hl_formula(rng, depth - 1, bound)})"
    if op in ("<>", "[]", "P"):
        return f"{op} {_hl_formula(rng, depth - 1, bound)}"
    if op == "@":
        target = rng.choice(["'i", "'j"] + [f"${v}" for v in bound])
        return f"@{target} {_hl_formula(rng, depth - 1, bound)}"
    if len(bound) >= 2:
        return _hl_formula(rng, depth, bound)
    var = "xy"[len(bound)]
    return f"(down ${var} . {_hl_formula(rng, depth - 1, bound + [var])})"


def _st_sentences(seed, count):
    """Existential closures of standard translations of random hybrid
    sentences; their nominals 'i and 'j become constants."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        parts = [_hl_formula(rng, 3, []) for _ in range(2)] + [rng.choice(HL_WIDTH)]
        text = " & ".join(p for p in parts if p)
        if text not in out:
            out.append(text)
    return out


FO_SENTENCES = _fo_sentences(5, 90)
ST_SENTENCES = _st_sentences(7, 60)

# Existential branches inside instances of universal constraints: the
# instance's own element must count as named, or the search tries too few
# witnesses and loses models.  Random sentences seldom have this shape.
SHAPED = [
    "(A x. E y. R(x,y)) & (A x. ~R(x,x))",
    "(A x. E y. (R(x,y) & ~p(y))) & (A x. (p(x) | ~R(x,x)))",
    "(A x. ((E y. (R(x,x) & ~R(y,x))) | ~R(x,x))) & (A x. R(x,x)) & (E x. E y. ~x=y)",
    "(A x. (~x=x | (E y. (~R(y,x) & ~q(y))) | R(x,x))) & (A x. (q(x) | (E y. ~q(y)) | ~R(x,x)))"
    " & (A x. (R(x,x) | (E y. (~q(x) & q(x))))) & (E x. E y. ~x=y)",
    "(A x. E y. (R(x,y) & ~y=c)) & p(c) & (A x. (p(x) -> ~R(x,x)))",
    "(A x. E y. E z. (R(x,y) & R(y,z) & ~R(x,z))) & (E x. E y. (~x=y & ~R(x,y)))",
]


def test_corpora_cover_constants_and_both_verdicts():
    counts = {len(fo_constants(parse_fo(t))) for t in FO_SENTENCES}
    assert counts == {0, 1, 2}
    verdicts = {brute_fo_sat(parse_fo(t), "transitive", MAX_ELEMS) is None for t in FO_SENTENCES}
    assert verdicts == {True, False}


@pytest.mark.parametrize("frame", FRAMES)
@pytest.mark.parametrize("text", FO_SENTENCES + SHAPED)
def test_hits_satisfy_their_sentence(text, frame):
    alpha = parse_fo(text)
    found = brute_fo_sat(alpha, frame, MAX_ELEMS)
    if found is not None:
        assert fo_eval(found.structure, {}, alpha)


@pytest.mark.parametrize("frame", FRAMES)
@pytest.mark.parametrize("text", ST_SENTENCES)
def test_standard_translations_agree_with_the_lane_sweep(text, frame):
    phi = parse(text)
    alpha = Exists("w", standard_translation(phi, anchor="w"))
    first_order = brute_fo_sat(alpha, frame, MAX_ELEMS)
    hybrid = brute_sat(phi, frame, MAX_ELEMS)
    assert (first_order is None) == (hybrid is None)
    if hybrid is not None:
        assert len(first_order.structure.domain) == len(hybrid.model.states)
        assert fo_eval(first_order.structure, {}, alpha)
