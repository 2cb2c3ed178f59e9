"""Seeded inputs for the benchmark: random HL-down sentences and random
transitive models.

Everything here is plain Python on a ``random.Random`` made from the
workload seed, so the same seed gives the same corpus, and the library
only ever sees the generated texts and model documents.
"""

from __future__ import annotations

import random

PROPS = ("p", "q")


def rng_for(seed: int, stream: str) -> random.Random:
    """An independent generator per corpus, so adding one corpus does not
    shift the inputs of another."""
    return random.Random(f"{seed}:{stream}")


def _subformula(rng, depth, bound):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(list(PROPS) + [f"${v}" for v in bound])
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


def hl_sentence(rng: random.Random, conjuncts: int = 3, depth: int = 3) -> str:
    """A conjunction of random HL-down subformulas over p and q; every state
    variable is bound, so the text is a sentence."""
    return " & ".join(_subformula(rng, depth, []) for _ in range(conjuncts))


def mentions_all_props(text: str) -> bool:
    return all(p in text for p in PROPS)


def transitive_model(rng: random.Random, n: int) -> dict:
    """A random transitive model document on states s0..s{n-1}.

    Edges go mostly forward in a random order (so the frame is mostly a
    partial order), some states get loops and a few back edges create
    clusters; the relation is then closed transitively.
    """
    states = [f"s{i}" for i in range(n)]
    order = states[:]
    rng.shuffle(order)
    rel = set()
    for i, a in enumerate(order):
        for b in order[i + 1 :]:
            if rng.random() < 0.3:
                rel.add((a, b))
        if rng.random() < 0.3:
            rel.add((a, a))
    for _ in range(rng.randint(0, 2)):
        i, j = sorted(rng.sample(range(n), 2))
        rel.add((order[j], order[i]))
    changed = True
    while changed:
        extra = {(a, d) for a, b in rel for c, d in rel if b == c} - rel
        rel |= extra
        changed = bool(extra)
    val = {p: sorted(s for s in states if rng.random() < 0.5) for p in PROPS}
    return {"states": states, "rel": sorted([a, b] for a, b in rel), "val": val, "nom": {}}
