"""Finite block-tree representations of (possibly infinite) transitive models.

A representation is a transitive structure whose states split into an
explicit part M and reference leaves C.  A C-state stands for the subtree
rooted at the M-state it references; a reference pointing at or above its
own position denotes infinite repetition.  Nominals are handled as
propositional atoms (the solver recodes them with ``recode_nominals``),
so the valuation is a single proposition map and formulas given to
``verify`` carry no nominals.

Truth on a representation is the checker's: ``checker._Evaluator`` runs on
the explicit part and follows links through C-states by consulting guessed
types, through its reference hook.  Its evaluation is compiled, one closure
per formula node, and its memo holds only modal and Until nodes, so
``verify`` reuses for phi the modal answers it computed while it checked
the guesses.  A ``Recording`` evaluates under a vector of guesses and logs
each test the hook makes of them, which is all that the evaluation
depends on the guesses for: any vector that answers every logged test
alike gives its targets the same types.  ``holds_somewhere`` answers
whether phi holds at some explicit state, for ``verify`` and for the
solver alike.
"""

from __future__ import annotations

import json

from .checker import _Evaluator, type_at
from .formula import SHALLOW, Formula, deep_stack, diamond_closure, on_deep_stack, record
from .model import HybridModel, _closure, _is_tree_order, _name_lists, _name_map, _names, _pairs, cliques


@record
class FiniteRep:
    """Block-tree prefix (M) with reference leaves (C) and ref map C -> M."""

    m_states: tuple[str, ...]
    c_states: tuple[str, ...]
    rel: frozenset[tuple[str, str]]
    val: dict[str, frozenset[str]] = {}
    ref: dict[str, str] = {}

    def __post_init__(self):
        object.__setattr__(self, "m_states", tuple(self.m_states))
        object.__setattr__(self, "c_states", tuple(self.c_states))
        object.__setattr__(self, "rel", frozenset(tuple(e) for e in self.rel))
        object.__setattr__(self, "val", {p: frozenset(ss) for p, ss in self.val.items()})
        object.__setattr__(self, "ref", dict(self.ref))
        self._validate()

    def _validate(self):
        m_set, c_set = set(self.m_states), set(self.c_states)
        if not self.m_states:
            raise ValueError("representation needs at least one explicit state")
        if len(m_set) != len(self.m_states) or len(c_set) != len(self.c_states):
            raise ValueError("duplicate state ids")
        if m_set & c_set:
            raise ValueError("m and c states overlap")
        known = m_set | c_set
        for a, b in self.rel:
            if a not in known or b not in known:
                raise ValueError(f"relation mentions unknown state ({a}, {b})")
            if a in c_set:
                raise ValueError(f"c-state {a!r} has an outgoing edge")
        for p, ss in self.val.items():
            if ss - known:
                raise ValueError(f"valuation of {p!r} outside states")
        if set(self.ref) != c_set:
            raise ValueError("ref must be total on c_states")
        for c, target in self.ref.items():
            if target not in m_set:
                raise ValueError(f"ref({c!r}) = {target!r} is not an m-state")
        # no c-state has an outgoing edge, so an edge into M lies in M; the
        # edges are kept, not copied, as the explicit part may be cached
        m_rel = frozenset(e for e in self.rel if e[1] in m_set)
        m_val = {p: ss & m_set for p, ss in self.val.items()}
        m_model = HybridModel(self.m_states, m_rel, m_val)
        parts, edges = cliques(m_model)  # raises if not transitive
        if not _is_tree_order(range(len(parts)), edges):
            raise ValueError("condensation of the m-part is not a tree with a single root")
        object.__setattr__(self, "_m_model", m_model)
        object.__setattr__(self, "_parts", parts)
        object.__setattr__(self, "_edges", edges)
        object.__setattr__(self, "_c_succ", self._attach(self.rel))

    def _attach(self, rel):
        """The reference successors of every explicit state, once each
        c-state is checked to hang below some node and all its ancestors,
        given edges that include those into the c-states."""
        c_succ = {s: [] for s in self.m_states}
        if not self.c_states:
            return c_succ
        preds = {c: set() for c in self.c_states}
        for a, b in rel:
            if b in preds:
                preds[b].add(a)
        # each explicit state's node and all its ancestors, as a state set
        parts = self._parts
        nodes = [set(part) for part in parts]
        for w, v in self._edges:
            nodes[v] |= set(parts[w])
        above = {s: nodes[u] for u, part in enumerate(parts) for s in part}
        for c in self.c_states:
            if not preds[c]:
                raise ValueError(f"c-state {c!r} is attached to no node")
            # the deepest node among the predecessors must account for the set
            if not any(preds[c] == above[s] for s in preds[c]):
                raise ValueError(
                    f"predecessors of c-state {c!r} are not a node plus its ancestors"
                )
            for a in preds[c]:
                c_succ[a].append(c)
        return c_succ

    def with_val(self, val: dict) -> FiniteRep:
        """The same validated structure under another valuation.  Only the
        valuation is checked; relation, references, cliques and adjacency
        are shared with this representation."""
        val = {p: frozenset(ss) for p, ss in val.items()}
        m_set = set(self.m_states)
        for p, ss in val.items():
            if ss - m_set - set(self.c_states):
                raise ValueError(f"valuation of {p!r} outside states")
        m = self._m_model
        m_val = {p: ss & m_set for p, ss in val.items()}
        out = object.__new__(FiniteRep)
        m_model = HybridModel._trusted(m.states, m.rel, m_val, {}, m._views)
        out.__dict__.update(self.__dict__, val=val, _m_model=m_model)
        return out

    def with_leaves(self, ref: dict, leaf_rel) -> FiniteRep:
        """This explicit part with reference leaves: ``ref`` maps each new
        c-state to the m-state it references, in c-state order, and
        ``leaf_rel`` holds the edges into them.  Only the leaves are
        checked; the explicit model, its cliques and its condensation tree
        are shared with this representation."""
        if self.c_states:
            raise ValueError("leaves are added to a representation without c-states")
        m_set = set(self.m_states)
        for c, target in ref.items():
            if c in m_set:
                raise ValueError("m and c states overlap")
            if target not in m_set:
                raise ValueError(f"ref({c!r}) = {target!r} is not an m-state")
        leaf_rel = frozenset(tuple(e) for e in leaf_rel)
        for a, b in leaf_rel:
            if a not in m_set or b not in ref:
                raise ValueError(f"({a}, {b}) is not an edge from an m-state into a c-state")
        out = object.__new__(FiniteRep)
        out.__dict__.update(self.__dict__, c_states=tuple(ref), rel=self.rel | leaf_rel, ref=dict(ref))
        out.__dict__["_c_succ"] = out._attach(leaf_rel)
        return out

    def m_successors(self, s):
        return self._m_model.successors(s)

    def c_successors(self, s):
        return list(self._c_succ.get(s, ()))


def _evaluator(rep, slots, vector):
    """The checker on the explicit part, following references through
    guessed types: ``slots`` maps each explicit state to the keys in
    ``vector`` of its reference successors' guesses."""
    return _Evaluator(rep._m_model, {s: [vector[k] for k in ks] for s, ks in slots.items()})


def _explicit_types(rep, ev, closure):
    """Types of the explicit states: closure sentences true at each or at
    an explicit state below it."""
    return {s: type_at(ev, closure, s) for s in rep.m_states}


def holds_somewhere(rep, phi, ev):
    """Whether phi holds at some explicit state on the evaluator ev."""
    return any(ev.run(phi, {}, s) for s in rep.m_states)


def compute_types(rep: FiniteRep, phi: Formula, c_guess: dict) -> dict:
    """Type of every state: closure sentences true at it or at an explicit
    state below it.

    Truth itself follows references (the diamond clause consults guesses),
    but the type collects witnesses from explicit states only; a guess is
    never its own justification.  In a correct representation every
    sentence of a type has an explicit witness, because references only
    replace subtrees whose types repeat.
    """
    if phi.height > SHALLOW and not deep_stack.active:
        return on_deep_stack(phi, compute_types, rep, phi, c_guess)
    closure = diamond_closure(phi)
    guess = _normalize_guess(rep, c_guess, closure)
    return {**_explicit_types(rep, _evaluator(rep, rep._c_succ, guess), closure), **guess}


class _Logged:
    """A guessed type that logs each test of its membership, and the
    sentences found: the checker's reference hook reads a guess only
    through ``in``."""

    __slots__ = ("members", "tested", "found")

    def __init__(self, members):
        self.members, self.tested, self.found = members, set(), set()

    def __contains__(self, chi):
        self.tested.add(chi)
        if chi in self.members:
            self.found.add(chi)
            return True
        return False


class Recording:
    """One evaluation of a representation under a vector of guessed types
    that logs every test it makes of a guess.

    ``slots`` maps each explicit state to the slots in ``vector`` of its
    reference successors, each once.  The evaluation reads the vector only
    through the tests it logs, and it is deterministic, so a vector that
    answers those tests the same way evaluates every sentence as this one
    does: the result is recorded with what it depended on, as in
    dependency-directed backtracking (Stallman & Sussman 1977).  ``types``
    and ``tests`` are fixed when it is built.
    """

    def __init__(self, rep: FiniteRep, phi: Formula, slots: dict, vector, targets):
        self.rep, self.closure = rep, diamond_closure(phi)
        logged = [_Logged(t) for t in vector]
        self.ev = _evaluator(rep, slots, logged)
        #: the type of each target state under the vector
        self.types = tuple(type_at(self.ev, self.closure, s) for s in targets)
        #: the tests those types depend on, as (slot, sentences tested, those
        #: found in the guess), one per slot tested
        self.tests = tuple(
            (k, frozenset(g.tested), frozenset(g.found)) for k, g in enumerate(logged) if g.tested
        )

    def settles(self, vector) -> bool:
        """Whether vector answers every logged test as this one did, so
        that its targets' types are ``types``."""
        return all(vector[k] & tested == found for k, tested, found in self.tests)

    def explicit_types(self) -> dict:
        """The type of every explicit state under the vector, as
        ``compute_types`` gives it, read on this evaluation; the tests it
        makes are not added to ``tests``."""
        return _explicit_types(self.rep, self.ev, self.closure)


def _normalize_guess(rep, c_guess, closure):
    guess = {c: frozenset(c_guess.get(c, frozenset())) for c in rep.c_states}
    missing = [c for c in rep.c_states if c not in c_guess]
    if missing:
        raise ValueError(f"c_guess missing states: {missing}")
    for c, t in guess.items():
        extra = t - closure
        if extra:
            raise ValueError(
                f"guessed type of {c!r} contains non-closure sentences: "
                f"{[str(x) for x in extra]}"
            )
    return guess


#: the reason verify() gives when every guess matched but phi holds nowhere
NO_STATE = "formula holds at no explicit state"


@record
class VerifyResult:
    accepted: bool
    reason: str | None
    types: dict

    def __bool__(self):
        return self.accepted


def verify(rep: FiniteRep, phi: Formula, c_guess: dict) -> VerifyResult:
    """Accept iff every guess matches the referenced state's computed type
    and phi holds at some explicit state.

    The guesses are checked first, c-state by c-state: the target's type is
    built one closure sentence at a time and compared as it grows, so a
    mismatch stops at the first sentence that differs; phi is evaluated
    only once every guess matched.  Only an accepted result carries the
    type of every state; a rejected one's ``types`` is empty."""
    if phi.height > SHALLOW and not deep_stack.active:
        return on_deep_stack(phi, verify, rep, phi, c_guess)
    closure = diamond_closure(phi)
    guess = _normalize_guess(rep, c_guess, closure)
    ev = _evaluator(rep, rep._c_succ, guess)
    known = {}  # the type of each target that a guess has matched
    for c in rep.c_states:
        target, want = rep.ref[c], guess[c]
        if target in known:
            same = known[target] == want
        else:
            scope = [target, *ev.succ[target]]
            same = all(any(ev.run(chi, {}, s) for s in scope) == (chi in want) for chi in closure)
        if not same:
            return VerifyResult(
                False, f"type mismatch: guess for {c!r} differs from type of {target!r}", {}
            )
        known[target] = want
    if not holds_somewhere(rep, phi, ev):
        return VerifyResult(False, NO_STATE, {})
    return VerifyResult(True, None, {**_explicit_types(rep, ev, closure), **guess})


def realize(rep: FiniteRep, depth: int) -> HybridModel:
    """Expand references depth times, then truncate the rest to bare leaves.

    Each expansion replaces a reference leaf with a fresh copy of the
    subtree rooted at the referenced state's clique; the final relation is
    transitively closed.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    states = list(rep.m_states) + list(rep.c_states)
    edges = {tuple(e) for e in rep.rel}
    val = {p: set(ss) for p, ss in rep.val.items()}
    pending = [(c, rep.ref[c]) for c in rep.c_states]
    counter = 0

    clique_of = {}
    for part in rep._parts:
        for s in part:
            clique_of[s] = tuple(part)

    for _ in range(depth):
        new_pending = []
        for leaf, target in pending:
            root_clique = clique_of[target]
            subtree = set(root_clique)
            for s in root_clique:
                subtree.update(t for (a, t) in rep.rel if a == s)
            ordered = [s for s in list(rep.m_states) + list(rep.c_states) if s in subtree]
            copy = {}
            for s in ordered:
                counter += 1
                copy[s] = f"{s}~{counter}"
            preds = [a for (a, b) in edges if b == leaf]
            states.remove(leaf)
            edges = {(a, b) for (a, b) in edges if a != leaf and b != leaf}
            for p in val.values():
                p.discard(leaf)
            for s in ordered:
                states.append(copy[s])
                for p, ss in rep.val.items():
                    if s in ss:
                        val[p].add(copy[s])
            for a, b in rep.rel:
                if a in subtree and b in subtree:
                    edges.add((copy[a], copy[b]))
            for a in preds:
                for r in root_clique:
                    edges.add((a, copy[r]))
            for s in ordered:
                if s in rep.ref:
                    new_pending.append((copy[s], rep.ref[s]))
        pending = new_pending

    for leaf, _ in pending:
        for p in val.values():
            p.discard(leaf)

    closed = _closure(states, frozenset(edges))
    return HybridModel(
        tuple(states), closed, {p: frozenset(ss) for p, ss in val.items()}, {}
    )


# -- file format: model keys plus c_states and ref ----------------------------

_REP_KEYS = {"states", "c_states", "rel", "val", "ref"}


def rep_from_dict(doc: dict) -> FiniteRep:
    if not isinstance(doc, dict):
        raise ValueError("representation document must be a mapping")
    unknown = set(doc) - _REP_KEYS
    if unknown:
        raise ValueError(f"unknown keys in representation document: {sorted(unknown)}")
    if "states" not in doc:
        raise ValueError("representation document lacks 'states'")
    return FiniteRep(
        tuple(_names(doc, "states")),
        tuple(_names(doc, "c_states")),
        frozenset(_pairs(doc, "rel")),
        {p: frozenset(ss) for p, ss in _name_lists(doc, "val").items()},
        _name_map(doc, "ref"),
    )


def rep_to_dict(rep: FiniteRep) -> dict:
    return {
        "states": list(rep.m_states),
        "c_states": list(rep.c_states),
        "rel": sorted([a, b] for a, b in rep.rel),
        "val": {p: sorted(ss) for p, ss in sorted(rep.val.items())},
        "ref": dict(sorted(rep.ref.items())),
    }


def load_rep(path) -> FiniteRep:
    with open(path, "r", encoding="utf-8") as fh:
        return rep_from_dict(json.load(fh))


def save_rep(rep: FiniteRep, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rep_to_dict(rep), fh, indent=2)
        fh.write("\n")
