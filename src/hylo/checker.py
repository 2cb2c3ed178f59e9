"""Satisfaction evaluation on finite models, global satisfaction, phi-types."""

from __future__ import annotations

from .formula import (
    MODAL_FORMS,
    NOM,
    PROP,
    UNTIL_FORMS,
    And,
    At,
    Atom,
    Bot,
    Down,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Top,
    check_hld,
    closure_sentence,
    diamond_closure,
    free_vars,
)
from .model import HybridModel, is_transitive


class EvalError(ValueError):
    pass


class UnknownStateError(EvalError):
    pass


class UnboundNominalError(EvalError):
    pass


class UnboundVariableError(EvalError):
    pass


class _Evaluator:
    """One evaluation run over a fixed model.

    Memoized on (subformula, state, assignment restricted to the
    subformula's free variables), so down-binders only fan out where the
    bound variable is actually used.  Formula nodes are interned, so a
    node is its own structural key.

    ``refs`` maps a state to the guessed types of its reference successors
    (block-tree representations, see ``blocktree.verify``).  A diamond also
    holds, and a box also fails, when its closure sentence belongs to one
    of them; that is sound because the free variables of its body are
    bound at or above the crossing.  Guesses come only with down-fragment
    formulas, whose modal nodes are all diamonds and boxes.
    """

    def __init__(self, model: HybridModel, refs: dict | None = None):
        self.m = model
        self.succ = model._relation()[0]
        self.refs = refs or {}
        self.memo = {}

    def run(self, f: Formula, g: dict, s: str) -> bool:
        used = f.fv & g.keys() if g else None
        key = (f, s, tuple(sorted((v, g[v]) for v in used)) if used else ())
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        out = self._eval(f, g, s)
        self.memo[key] = out
        return out

    def _guessed(self, f, s):
        """Whether f's closure sentence is in the guessed type of a
        reference successor of s, a state that has some."""
        return any(closure_sentence(f) in t for t in self.refs[s])

    def _eval(self, f, g, s):
        case = _CASES.get(type(f))
        if case is None:
            raise TypeError(f"not a formula node: {f!r}")
        return case(self, f, g, s)

    def _atom(self, f, g, s):
        m = self.m
        if f.kind == PROP:
            return s in m.val.get(f.name, frozenset())
        if f.kind == NOM:
            if f.name not in m.nomval:
                raise UnboundNominalError(f"nominal {f.name!r} not in model")
            return m.nomval[f.name] == s
        if f.name not in g:
            raise UnboundVariableError(f"state variable {f.name!r} unbound")
        return g[f.name] == s

    def _top(self, f, g, s):
        return True

    def _bot(self, f, g, s):
        return False

    def _not(self, f, g, s):
        return not self.run(f.body, g, s)

    def _and(self, f, g, s):
        return self.run(f.left, g, s) and self.run(f.right, g, s)

    def _or(self, f, g, s):
        return self.run(f.left, g, s) or self.run(f.right, g, s)

    def _implies(self, f, g, s):
        return not self.run(f.left, g, s) or self.run(f.right, g, s)

    def _iff(self, f, g, s):
        return self.run(f.left, g, s) == self.run(f.right, g, s)

    def _modal(self, f, g, s):
        # one clause for the eight forms: a step along R, along R read
        # backwards, or to every state
        exists, backward, universal = MODAL_FORMS[type(f)]
        if universal:
            scope = self.m.states
        elif backward:
            scope = self.m._relation(converse=True)[0][s]
        else:
            scope = self.succ[s]
        crossing = s in self.refs  # a state with reference successors
        if exists:
            return any(self.run(f.body, g, t) for t in scope) or crossing and self._guessed(f, s)
        return all(self.run(f.body, g, t) for t in scope) and not (crossing and self._guessed(f, s))

    def _at(self, f, g, s):
        return self.run(f.body, g, self._denote(f.term, g))

    def _down(self, f, g, s):
        return self.run(f.body, {**g, f.var.name: s}, s)

    def _until(self, f, g, s):
        # one clause for the six forms: a Since form reads the converse views
        form = UNTIL_FORMS[type(f)]
        step = self.m._relation(form.step_plus, form.backward)[0]
        between, guard = self.m._relation(form.guard_plus, form.backward)
        return any(
            self.run(f.left, g, n)
            and all(self.run(f.right, g, u) for u in between[s] if (u, n) in guard)
            for n in step[s]
        )

    def _denote(self, term, g):
        if term.kind == NOM:
            if term.name not in self.m.nomval:
                raise UnboundNominalError(f"nominal {term.name!r} not in model")
            return self.m.nomval[term.name]
        if term.name not in g:
            raise UnboundVariableError(f"state variable {term.name!r} unbound")
        return g[term.name]


# One case per node class.
_CASES = {
    Atom: _Evaluator._atom,
    Top: _Evaluator._top,
    Bot: _Evaluator._bot,
    Not: _Evaluator._not,
    And: _Evaluator._and,
    Or: _Evaluator._or,
    Implies: _Evaluator._implies,
    Iff: _Evaluator._iff,
    At: _Evaluator._at,
    Down: _Evaluator._down,
    **dict.fromkeys(MODAL_FORMS, _Evaluator._modal),
    **dict.fromkeys(UNTIL_FORMS, _Evaluator._until),
}


def eval_formula(m: HybridModel, g: dict, s: str, f: Formula) -> bool:
    """Truth of f at state s under assignment g."""
    if s not in set(m.states):
        raise UnknownStateError(f"unknown state {s!r}")
    for v in g.values():
        if v not in set(m.states):
            raise UnknownStateError(f"assignment maps to unknown state {v!r}")
    return _Evaluator(m).run(f, dict(g), s)


def global_eval(m: HybridModel, f: Formula) -> bool:
    """Truth of the sentence f at every state of m."""
    fv = free_vars(f)
    if fv:
        raise UnboundVariableError(f"not a sentence, free: {sorted(fv)}")
    ev = _Evaluator(m)
    return all(ev.run(f, {}, s) for s in m.states)


def phi_type(m: HybridModel, phi: Formula, s: str) -> frozenset[Formula]:
    """Closure sentences true at s or at some successor of s.

    On a transitive model the successor set of s covers the whole subtree
    below s, so this is the type of s for phi.
    """
    if not is_transitive(m):
        raise ValueError("phi_type requires a transitive model")
    check_hld(phi)
    if s not in set(m.states):
        raise UnknownStateError(f"unknown state {s!r}")
    closure = diamond_closure(phi)
    ev = _Evaluator(m)
    scope = [s] + ev.succ[s]
    return frozenset(chi for chi in closure if any(ev.run(chi, {}, t) for t in scope))
