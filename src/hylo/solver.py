"""Bounded satisfiability search over transitive and complete frames.

The nondeterministic guess-and-verify procedure becomes an exhaustive
enumeration in canonical order: clique trees small-first, clique kinds per
node, reference leaves as distinct (node, target) pairs, valuations in
lexicographic order over the atoms of the input, and guessed types first
from the types realized in the explicit part, then all remaining subsets
of the closure.

Verdicts: SAT always carries a witness that verify() accepts.  A bounded
failure is UNSAT only when the budget covers the (conservative) theoretical
completeness bounds; otherwise the answer is UNKNOWN, because transitive
frames have no finite model property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product

from .blocktree import FiniteRep, compute_types, verify
from .formula import (
    Formula,
    check_hld,
    diamond_closure,
    free_vars,
    noms_of,
    print_formula,
    props_of,
    recode_nominals,
    svars_of,
)


@dataclass(frozen=True)
class Budget:
    max_clique: int = 4
    max_nodes: int = 8
    max_c: int = 4
    depth_schedule: tuple | None = None

    def levels(self):
        if self.depth_schedule is not None:
            return list(self.depth_schedule)
        triples = [
            (nodes, cliq, c)
            for nodes in range(1, self.max_nodes + 1)
            for cliq in range(1, self.max_clique + 1)
            for c in range(0, self.max_c + 1)
        ]
        triples.sort(key=lambda t: (t[0] * t[1] + t[2], t[0], t[1], t[2]))
        return triples


@dataclass(frozen=True)
class SatResult:
    status: str  # "sat" | "unsat" | "unknown"
    witness_rep: FiniteRep | None = None
    witness_guess: dict | None = None
    exhaustive: bool = False
    nominal_warning: bool = False
    bounds: tuple = (0, 0, 0)
    candidates: int = 0
    note: str | None = None

    @property
    def is_sat(self):
        return self.status == "sat"


def bounds_for(phi: Formula) -> tuple[int, int, int]:
    """Conservative completeness bounds (nodes, clique, c) for phi.

    A formula without modal operators only constrains a single state.  With
    modalities: every type appears at most twice among nodes, so 2*2^d
    nodes and references suffice for d closure sentences; cliques are
    bounded by the exponential complete-frame model bound (distinct
    labelings times namable states).
    """
    d = len(diamond_closure(recode_nominals(phi)))
    if d == 0:
        return (1, 1, 0)
    a = len(props_of(phi)) + len(noms_of(phi))
    v = len(svars_of(phi))
    clique_bound = (2**a) * (v + len(noms_of(phi)) + 1)
    return (2 * 2**d, clique_bound, 2 * 2**d)


def _canonical_trees(n):
    """Non-isomorphic rooted trees on n nodes as parent vectors, parents first."""
    seen = {}
    order = []

    def canon(parents):
        kids = {i: [] for i in range(n)}
        for i in range(1, n):
            kids[parents[i]].append(i)

        def enc(i):
            return tuple(sorted(enc(j) for j in kids[i]))

        return enc(0)

    def rec(i, parents):
        if i == n:
            key = canon(parents)
            if key not in seen:
                seen[key] = tuple(parents)
                order.append(tuple(parents))
            return
        for p in range(i):
            rec(i + 1, parents + [p])

    rec(1, [-1])
    return order


def _node_kinds(cliq, complete_only):
    kinds = []
    if not complete_only:
        kinds.append((1, False))
    kinds.append((1, True))
    for size in range(2, cliq + 1):
        kinds.append((size, True))
    return kinds


def _build_rep(parents, kinds, c_pairs, val_code, atoms):
    n = len(parents)
    node_states = []
    counter = 0
    for size, _refl in kinds:
        node_states.append([f"m{counter + j}" for j in range(size)])
        counter += size
    m_states = [s for group in node_states for s in group]
    ancestors = [[] for _ in range(n)]
    for i in range(1, n):
        p = parents[i]
        ancestors[i] = ancestors[p] + [p]
    rel = set()
    for i, (size, refl) in enumerate(kinds):
        if size >= 2 or refl:
            for a in node_states[i]:
                for b in node_states[i]:
                    rel.add((a, b))
        for anc in ancestors[i]:
            for a in node_states[anc]:
                for b in node_states[i]:
                    rel.add((a, b))
    c_states = []
    ref = {}
    for idx, (node, target) in enumerate(c_pairs):
        cname = f"c{idx}"
        c_states.append(cname)
        ref[cname] = target
        for a in node_states[node]:
            rel.add((a, cname))
        for anc in ancestors[node]:
            for a in node_states[anc]:
                rel.add((a, cname))
    n_m = len(m_states)
    val = {
        p: frozenset(
            m_states[s] for s in range(n_m) if (val_code >> (i * n_m + s)) & 1
        )
        for i, p in enumerate(atoms)
    }
    return FiniteRep(tuple(m_states), tuple(c_states), frozenset(rel), val, ref)


def _guess_candidates(rep, phi, closure_list):
    """Guess order: types realized in the explicit part first, then all
    remaining subsets by size and position."""
    if not rep.c_states:
        return [frozenset()]
    empty = {c: frozenset() for c in rep.c_states}
    base = compute_types(rep, phi, empty)
    realized = []
    for s in rep.m_states:
        if base[s] not in realized:
            realized.append(base[s])
    rest = []
    for size in range(len(closure_list) + 1):
        for combo in combinations(range(len(closure_list)), size):
            t = frozenset(closure_list[i] for i in combo)
            if t not in realized:
                rest.append(t)
    return realized + rest


def _search(phi, budget, complete_only, nominal_warning, bounds):
    recoded = recode_nominals(phi)
    check_hld(recoded)
    closure = diamond_closure(recoded)
    closure_list = sorted(closure, key=print_formula)
    atoms = props_of(recoded)
    candidates = 0
    levels = budget.levels()
    for nodes, cliq, n_c in levels:
        if complete_only and (nodes != 1 or n_c != 0):
            continue
        kinds_pool = _node_kinds(cliq, complete_only)
        for parents in _canonical_trees(nodes):
            for kinds in product(kinds_pool, repeat=nodes):
                if max(size for size, _ in kinds) != cliq:
                    continue
                n_m = sum(size for size, _ in kinds)
                pair_pool = [
                    (node, f"m{t}") for node in range(nodes) for t in range(n_m)
                ]
                for c_pairs in combinations(pair_pool, n_c):
                    for val_code in range(1 << (len(atoms) * n_m)):
                        rep = _build_rep(parents, kinds, c_pairs, val_code, atoms)
                        for guess_vector in product(
                            _guess_candidates(rep, recoded, closure_list),
                            repeat=len(rep.c_states),
                        ):
                            guess = dict(zip(rep.c_states, guess_vector))
                            candidates += 1
                            if verify(rep, recoded, guess).accepted:
                                return SatResult(
                                    "sat",
                                    witness_rep=rep,
                                    witness_guess=guess,
                                    nominal_warning=nominal_warning,
                                    bounds=bounds,
                                    candidates=candidates,
                                )
    limit = (budget.max_nodes, budget.max_clique, budget.max_c)
    if budget.depth_schedule is None and all(a >= b for a, b in zip(limit, bounds)):
        return SatResult(
            "unsat",
            exhaustive=True,
            nominal_warning=nominal_warning,
            bounds=bounds,
            candidates=candidates,
            note=(
                "exhausted all representations within the conservative "
                f"completeness bounds nodes={bounds[0]}, clique={bounds[1]}, "
                f"c={bounds[2]}"
            ),
        )
    return SatResult(
        "unknown",
        nominal_warning=nominal_warning,
        bounds=bounds,
        candidates=candidates,
        note=(
            "search exhausted the budget without reaching the conservative "
            f"completeness bounds nodes={bounds[0]}, clique={bounds[1]}, "
            f"c={bounds[2]}; transitive frames lack the finite model property"
        ),
    )


def sat_transitive(phi: Formula, budget: Budget = Budget()) -> SatResult:
    """Satisfiability of an HL-down sentence over transitive frames."""
    _sentence_guard(phi)
    warning = bool(noms_of(phi))
    return _search(
        phi, budget, complete_only=False, nominal_warning=warning, bounds=bounds_for(phi)
    )


def sat_complete(phi: Formula, budget: Budget = Budget()) -> SatResult:
    """Satisfiability over complete frames: single-clique representations."""
    _sentence_guard(phi)
    warning = bool(noms_of(phi))
    budget_c = Budget(budget.max_clique, 1, 0, budget.depth_schedule)
    _, clique_bound, _ = bounds_for(phi)
    return _search(
        phi,
        budget_c,
        complete_only=True,
        nominal_warning=warning,
        bounds=(1, clique_bound, 0),
    )


def _sentence_guard(phi):
    fv = free_vars(phi)
    if fv:
        raise ValueError(f"not a sentence, free: {sorted(fv)}")
