"""The solver's enumeration before symmetry reduction, kept as a test-only
reference for the differential tests in ``test_solver_reference.py``.

It enumerates every reference target state, every valuation and every
guess vector, and builds and validates a fresh representation per
valuation.  The solver must give the same verdicts with at most as many
candidates.  Not collected by pytest (no ``test_`` prefix).
"""

from __future__ import annotations

from itertools import combinations, product

from hylo.blocktree import FiniteRep, compute_types, verify
from hylo.formula import check_hld, diamond_closure, print_formula, props_of, recode_nominals
from hylo.solver import SatResult, _sentence_guard, bounds_for


def _canonical_trees(n):
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


def _node_kinds(cliq):
    return [(1, False), (1, True)] + [(size, True) for size in range(2, cliq + 1)]


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
        p: frozenset(m_states[s] for s in range(n_m) if (val_code >> (i * n_m + s)) & 1)
        for i, p in enumerate(atoms)
    }
    return FiniteRep(tuple(m_states), tuple(c_states), frozenset(rel), val, ref)


def _guess_candidates(rep, phi, closure_list):
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


def reference_sat_transitive(phi, budget):
    """``sat_transitive`` as the unreduced enumeration answers it."""
    _sentence_guard(phi)
    bounds = bounds_for(phi)
    recoded = recode_nominals(phi)
    check_hld(recoded)
    closure_list = sorted(diamond_closure(recoded), key=print_formula)
    atoms = props_of(recoded)
    candidates = 0
    for nodes, cliq, n_c in budget.levels():
        kinds_pool = _node_kinds(cliq)
        for parents in _canonical_trees(nodes):
            for kinds in product(kinds_pool, repeat=nodes):
                if max(size for size, _ in kinds) != cliq:
                    continue
                n_m = sum(size for size, _ in kinds)
                pair_pool = [(node, f"m{t}") for node in range(nodes) for t in range(n_m)]
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
                                    bounds=bounds,
                                    candidates=candidates,
                                )
    limit = (budget.max_nodes, budget.max_clique, budget.max_c)
    if all(a >= b for a, b in zip(limit, bounds)):
        return SatResult("unsat", exhaustive=True, bounds=bounds, candidates=candidates)
    return SatResult("unknown", bounds=bounds, candidates=candidates)
