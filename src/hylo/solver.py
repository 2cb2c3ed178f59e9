"""Bounded satisfiability search over transitive and complete frames.

The nondeterministic guess-and-verify procedure becomes an exhaustive
enumeration in canonical order: clique trees small-first, clique kinds per
node, reference leaves as distinct (node, target) pairs, valuations in
lexicographic order over the atoms of the input, and guessed types first
from the types realized in the explicit part, then all remaining subsets
of the closure.

The enumeration is symmetry-reduced: a candidate is skipped when an
earlier one in this order is accepted exactly when it is, which is
lex-leader symmetry breaking (Crawford et al. 1996).
- A reference points at the first state of a clique, because all members
  of a clique have the same type.
- A valuation is kept only when no permutation inside a clique and no
  exchange of isomorphic sibling subtrees makes its code smaller; clique
  kinds and reference pairs are reduced by the same exchanges.
- Leaves with the same target share one guess.
- A target whose subtree attaches no leaf has a type that no guess
  changes; the empty-guess pass computes it and it is the only guess.

The guess vectors keep that order, but only the candidates, those whose
every guess equals its target's type, are checked.  The checker reads a
guess only by testing whether a closure sentence belongs to it, so an
evaluation under one vector, recorded with the tests it made
(``Recording``), gives the targets' types of every vector that answers
those tests the same way.  The empty-guess pass is the first recording of
each valuation; a vector that no recording settles is evaluated once more
and recorded.  A vector unlike its targets' types is exactly one that
verify() would reject with a type mismatch, so verdicts and first
witnesses do not change.

Each candidate is evaluated once more, plainly, under its own guesses, to
tell whether phi holds at some explicit state; a structure without
c-states has no guesses and is evaluated on its explicit part.  A
candidate under which phi holds nowhere is rejected there, exactly as
verify() would reject it.  The others reach verify(), the SAT gate, which
checks the guesses and phi again from scratch.  For nominal input the
gate also asks that each recoded nominal hold at no more than one
explicit state, outside every referenced subtree; any other witness is
rejected with its own reason and the search goes on.

``candidates`` counts the candidates, and ``stats["guesses_skipped"]``
the settled vectors unlike their targets' types; together they are
every canonical guess vector.  The explicit part of each (tree, kinds)
depends on neither the formula nor the budget, so it is built and
validated once per process (``_explicit``, a bounded cache); each
reference-pair set adds its leaves through ``FiniteRep.with_leaves`` and
each valuation through ``FiniteRep.with_val``.  ``SatResult.stats``
counts structures built, valuations skipped by symmetry, guesses fixed
directly, guess vectors skipped, and rejected candidates by reason.

Verdicts: SAT always carries a witness that verify() accepts.  A bounded
failure is UNSAT only when the budget covers the (conservative) theoretical
completeness bounds and no witness was rejected for its nominals;
otherwise the answer is UNKNOWN, because transitive frames have no finite
model property.
"""

from __future__ import annotations

from functools import cache, cached_property, lru_cache
from itertools import combinations, product

from .blocktree import NO_STATE, FiniteRep, Recording, _evaluator, holds_somewhere, verify
from .formula import (
    Formula,
    _sentence_guard,
    check_hld,
    diamond_closure,
    nom,
    noms_of,
    print_formula,
    props_of,
    recode_nominals,
    record,
    svars_of,
)
from .formula import SHALLOW, deep_stack, on_deep_stack
from .model import _decode_valuation


@record
class Budget:
    max_clique: int = 4
    max_nodes: int = 8
    max_c: int = 4

    def levels(self):
        triples = [
            (nodes, cliq, c)
            for nodes in range(1, self.max_nodes + 1)
            for cliq in range(1, self.max_clique + 1)
            for c in range(0, self.max_c + 1)
        ]
        triples.sort(key=lambda t: (t[0] * t[1] + t[2], t[0], t[1], t[2]))
        return triples


@record
class SatResult:
    status: str  # "sat" | "unsat" | "unknown"
    witness_rep: FiniteRep | None = None
    witness_guess: dict | None = None
    exhaustive: bool = False
    nominal_warning: bool = False
    bounds: tuple = (0, 0, 0)
    candidates: int = 0
    note: str | None = None
    stats: dict = {}

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


@cache
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
    return tuple(order)


@cache
def _sibling_swaps(parents):
    """Automorphisms of a rooted tree that exchange two isomorphic sibling
    subtrees, as node permutations (each its own inverse)."""
    n = len(parents)
    kids = [[] for _ in range(n)]
    for i in range(1, n):
        kids[parents[i]].append(i)
    shape = [None] * n
    for i in reversed(range(n)):  # parents first, so children are done
        shape[i] = tuple(sorted(shape[j] for j in kids[i]))
    ordered = [sorted(kids[i], key=lambda j: (shape[j], j)) for i in range(n)]

    def onto(u, v, perm):
        perm[u] = v
        for a, b in zip(ordered[u], ordered[v]):
            onto(a, b, perm)

    swaps = []
    for v in range(n):
        for a, b in combinations(kids[v], 2):
            if shape[a] == shape[b]:
                perm = list(range(n))
                onto(a, b, perm)
                onto(b, a, perm)
                swaps.append(tuple(perm))
    return tuple(swaps)


def _fixing(x, swaps, image):
    """The swaps that map x to itself, or None when one maps it to
    something smaller, so that x is not the least of its orbit."""
    fixing = []
    for sw in swaps:
        y = image(x, sw)
        if y < x:
            return None
        if y == x:
            fixing.append(sw)
    return fixing


def _swap_kinds(kinds, sw):
    return tuple(kinds[i] for i in sw)


def _swap_pairs(c_pairs, sw):
    return tuple(sorted((sw[u], sw[t]) for u, t in c_pairs))


def _node_kinds(cliq, complete_only):
    kinds = []
    if not complete_only:
        kinds.append((1, False))
    kinds.append((1, True))
    for size in range(2, cliq + 1):
        kinds.append((size, True))
    return kinds


class _Explicit:
    """The explicit part of one (tree, kinds), built and validated once for
    every reference-pair set that extends it (see ``_explicit``)."""

    def __init__(self, parents, kinds):
        n = len(parents)
        self.first = []
        counter = 0
        for size, _refl in kinds:
            self.first.append(counter)
            counter += size
        self.kinds, self.n_m = kinds, counter
        m_states = [f"m{i}" for i in range(counter)]
        self.node_states = [m_states[self.first[i] : self.first[i] + kinds[i][0]] for i in range(n)]
        self.ancestors = [[] for _ in range(n)]
        for i in range(1, n):
            self.ancestors[i] = self.ancestors[parents[i]] + [parents[i]]
        rel = set()
        for i, (size, refl) in enumerate(kinds):
            above = [a for anc in self.ancestors[i] for a in self.node_states[anc]]
            if size >= 2 or refl:
                above += self.node_states[i]
            rel.update((a, b) for a in above for b in self.node_states[i])
        self.rep = FiniteRep(tuple(m_states), (), frozenset(rel), {}, {})
        # Valuations are canonical when every clique's state columns are
        # non-increasing; state j's column packs its atom bits, last atom
        # highest, as the valuation code does.
        self.cliques = [
            range(self.first[i], self.first[i] + size) for i, (size, _) in enumerate(kinds) if size >= 2
        ]


@lru_cache(maxsize=256)
def _explicit(parents, kinds):
    """The explicit part of (parents, kinds), once per process: it depends
    on neither the formula nor the budget, and every search and every c
    level meets the same few.  Bounded, so that a long-running process
    keeps only the most recent."""
    return _Explicit(parents, kinds)


class _Shape:
    """One (tree, kinds, reference pairs) structure: its explicit part with
    the leaves added, and everything its valuations and guesses share.

    ``c_pairs`` are (attachment node, target node); a reference points at
    the first state of its target's clique.  Leaves are named c0, c1, ...
    in pair order.
    """

    def __init__(self, explicit, c_pairs, swaps):
        first, kinds, ancestors = explicit.first, explicit.kinds, explicit.ancestors
        m_states = explicit.rep.m_states
        self.n_m, self.cliques = explicit.n_m, explicit.cliques
        # Sibling swaps that fix kinds and pairs, as permutations of states.
        self.state_swaps = [
            [first[sw[i]] + k for i, (size, _) in enumerate(kinds) for k in range(size)]
            for sw in swaps
        ]
        ref, leaf_rel = {}, set()
        for idx, (node, target) in enumerate(c_pairs):
            cname = f"c{idx}"
            ref[cname] = m_states[first[target]]
            for anc in ancestors[node] + [node]:
                leaf_rel.update((a, cname) for a in explicit.node_states[anc])
        self.rep = explicit.rep.with_leaves(ref, leaf_rel) if ref else explicit.rep
        # Leaves sharing a target share one guess slot, in order of first
        # appearance.  A target whose subtree attaches no leaf has a
        # guess-independent type: its slot takes the empty-guess type only.
        targets = list(dict.fromkeys(target for _, target in c_pairs))
        self.slot = {f"c{idx}": targets.index(t) for idx, (_, t) in enumerate(c_pairs)}
        # the slots of each explicit state's reference successors, each once
        self.slots_below = {
            s: list(dict.fromkeys(self.slot[c] for c in cs))
            for s, cs in self.rep._c_succ.items()
            if cs
        }
        self.fixed = [not any(u == t or t in ancestors[u] for u, _ in c_pairs) for t in targets]
        self.target_state = [m_states[first[t]] for t in targets]

    def canonical(self, code, n_atoms):
        """Whether no permutation within a clique and no remaining sibling
        swap maps the valuation code to a smaller one."""
        n_m = self.n_m
        for states in self.cliques:
            prev = None
            for j in states:
                col = 0
                for i in range(n_atoms):
                    col |= ((code >> (i * n_m + j)) & 1) << i
                if prev is not None and col > prev:
                    return False
                prev = col
        for perm in self.state_swaps:
            image = 0
            for i in range(n_atoms):
                for j, k in enumerate(perm):
                    image |= ((code >> (i * n_m + j)) & 1) << (i * n_m + k)
            if image < code:
                return False
        return True

    def guesses(self, rep, compiled, stats):
        """The guess vectors, in canonical order, whose every slot holds its
        target's type: per slot, types realized in the explicit part first,
        then all remaining subsets of the closure.  A vector that some
        recorded evaluation settles, with a slot unlike its target's type,
        is counted as skipped; a vector that none settles is evaluated once
        more and recorded.  Each vector comes with whether phi holds at
        some explicit state under it, evaluated under its own guesses.
        Without c-states the one vector is empty and needs no recording."""
        if not rep.c_states:
            yield {}, holds_somewhere(rep, compiled.phi, _evaluator(rep, {}, ()))
            return
        # the empty-guess evaluation is the first recording; it also gives
        # the types realized in the explicit part when a slot is guessed
        empty = [frozenset()] * len(self.fixed)
        recorded = [Recording(rep, compiled.phi, self.slots_below, empty, self.target_state)]
        options = None
        per_slot = []
        for target_type, fixed in zip(recorded[0].types, self.fixed):
            if fixed:
                stats["guesses_fixed"] += 1
                per_slot.append((target_type,))
                continue
            if options is None:
                base = recorded[0].explicit_types()
                realized = list(dict.fromkeys(base[s] for s in rep.m_states))
                seen = set(realized)
                options = realized + [t for t in compiled.subsets if t not in seen]
            per_slot.append(options)
        for choice in product(*per_slot):
            known = next((r for r in recorded if r.settles(choice)), None)
            if known is None:
                known = Recording(rep, compiled.phi, self.slots_below, choice, self.target_state)
                recorded.append(known)
            if choice == known.types:
                holds = holds_somewhere(rep, compiled.phi, _evaluator(rep, self.slots_below, choice))
                yield {c: choice[k] for c, k in self.slot.items()}, holds
            else:
                stats["guesses_skipped"] += 1


class _Compiled:
    """What a search derives from its input once: the recoded formula,
    checked against the fragment, its atoms, the propositions its nominals
    became and, on first use, every subset of its closure in guess order
    (by size, then by position in the printed order of the closure)."""

    def __init__(self, phi):
        self.phi = recode_nominals(phi)
        check_hld(self.phi)
        self.atoms = props_of(self.phi)
        self.nominals = [recode_nominals(nom(i)).name for i in noms_of(phi)]

    @cached_property
    def subsets(self):
        closure_list = sorted(diamond_closure(self.phi), key=print_formula)
        return [
            frozenset(combo)
            for size in range(len(closure_list) + 1)
            for combo in combinations(closure_list, size)
        ]


#: the reason a witness that verify() accepts is rejected for nominal input
NOMINAL_SPLIT = "nominal holds at two states or in a referenced subtree"


def _names_one_state(rep, nominals):
    """Whether each recoded nominal holds at no more than one explicit
    state, and outside every referenced subtree (the clique of a reference
    target and everything below it).  Realized, such a witness gives each
    nominal at most one state.  The fragment has no @, so a nominal that
    holds nowhere can name a fresh state that no other state sees."""
    if not nominals:
        return True
    referenced = set()
    for target in set(rep.ref.values()):
        referenced.add(target)
        referenced.update(rep.m_successors(target))
    return all(len(rep.val[p]) <= 1 and rep.val[p].isdisjoint(referenced) for p in nominals)


def _search(phi, budget, complete_only):
    """The bounded search over transitive frames or, with complete_only,
    over single cliques, whose bounds and budget leave one node and no
    reference."""
    if phi.height > SHALLOW and not deep_stack.active:
        return on_deep_stack(phi, _search, phi, budget, complete_only)
    _sentence_guard(phi)
    bounds = bounds_for(phi)
    if complete_only:
        bounds, budget = (1, bounds[1], 0), Budget(budget.max_clique, 1, 0)
    compiled = _Compiled(phi)
    recoded, atoms = compiled.phi, compiled.atoms
    stats = {
        "structures": 0,
        "valuations_skipped": 0,
        "guesses_fixed": 0,
        "guesses_skipped": 0,
        "rejected": {},
    }
    candidates = 0

    def answer(status, **fields):
        fields.update(nominal_warning=bool(noms_of(phi)), bounds=bounds, candidates=candidates, stats=stats)
        return SatResult(status, **fields)

    for nodes, cliq, n_c in budget.levels():
        kinds_pool = _node_kinds(cliq, complete_only)
        pair_pool = [(node, t) for node in range(nodes) for t in range(nodes)]
        for parents in _canonical_trees(nodes):
            for kinds in product(kinds_pool, repeat=nodes):
                if max(size for size, _ in kinds) != cliq:
                    continue
                kinds_swaps = _fixing(kinds, _sibling_swaps(parents), _swap_kinds)
                if kinds_swaps is None:
                    continue
                explicit = None
                for c_pairs in combinations(pair_pool, n_c):
                    swaps = _fixing(c_pairs, kinds_swaps, _swap_pairs)
                    if swaps is None:
                        continue
                    explicit = explicit or _explicit(parents, kinds)
                    shape = _Shape(explicit, c_pairs, swaps)
                    stats["structures"] += 1
                    for code in range(1 << (len(atoms) * shape.n_m)):
                        if not shape.canonical(code, len(atoms)):
                            stats["valuations_skipped"] += 1
                            continue
                        rep = shape.rep.with_val(_decode_valuation(code, atoms, shape.rep.m_states))
                        for guess, holds in shape.guesses(rep, compiled, stats):
                            candidates += 1
                            if not holds:
                                reason = NO_STATE
                            else:  # the SAT gate
                                reason = verify(rep, recoded, guess).reason
                                if reason is None and not _names_one_state(rep, compiled.nominals):
                                    reason = NOMINAL_SPLIT
                            if reason is None:
                                return answer("sat", witness_rep=rep, witness_guess=guess)
                            reason = reason.split(":")[0]
                            stats["rejected"][reason] = stats["rejected"].get(reason, 0) + 1
    limit = (budget.max_nodes, budget.max_clique, budget.max_c)
    # the bounds are complete for the recoded sentence, whose nominals may
    # hold at many states: once the gate has turned down one of its
    # witnesses, exhausting them no longer shows the input UNSAT
    if all(a >= b for a, b in zip(limit, bounds)) and NOMINAL_SPLIT not in stats["rejected"]:
        return answer(
            "unsat",
            exhaustive=True,
            note=(
                "exhausted all representations within the conservative "
                f"completeness bounds nodes={bounds[0]}, clique={bounds[1]}, "
                f"c={bounds[2]}"
            ),
        )
    return answer(
        "unknown",
        note=(
            "search exhausted the budget without reaching the conservative "
            f"completeness bounds nodes={bounds[0]}, clique={bounds[1]}, "
            f"c={bounds[2]}; transitive frames lack the finite model property"
        ),
    )


def sat_transitive(phi: Formula, budget: Budget = Budget()) -> SatResult:
    """Satisfiability of an HL-down sentence over transitive frames."""
    return _search(phi, budget, complete_only=False)


def sat_complete(phi: Formula, budget: Budget = Budget()) -> SatResult:
    """Satisfiability over complete frames: single-clique representations."""
    return _search(phi, budget, complete_only=True)
