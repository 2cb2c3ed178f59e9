"""Satisfaction evaluation on finite models, global satisfaction, phi-types."""

from __future__ import annotations

from .formula import (
    NOM,
    PROP,
    SVAR,
    And,
    At,
    Atom,
    Bot,
    Box,
    Diamond,
    Down,
    Everywhere,
    Formula,
    Future,
    Globally,
    Historically,
    Iff,
    Implies,
    Not,
    Or,
    Past,
    Since,
    SincePlus,
    SincePlusPlus,
    Somewhere,
    Top,
    Until,
    UntilPlus,
    UntilPlusPlus,
    check_hld,
    closure_sentence,
    diamond_closure,
    free_vars,
)
from .model import HybridModel, _closure, is_transitive


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
    bound at or above the crossing.
    """

    def __init__(self, model: HybridModel, refs: dict | None = None):
        self.m = model
        self.succ = {s: model.successors(s) for s in model.states}
        self.pred = {s: model.predecessors(s) for s in model.states}
        self.refs = refs or {}
        self._plus = None
        self.memo = {}

    def rel_plus(self):
        if self._plus is None:
            self._plus = _closure(self.m.states, self.m.rel)
        return self._plus

    def run(self, f: Formula, g: dict, s: str) -> bool:
        key = (f, s, tuple(sorted((v, g[v]) for v in f.fv & g.keys())))
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        out = self._eval(f, g, s)
        self.memo[key] = out
        return out

    def _guessed(self, f, s):
        """Whether f's closure sentence is in the guessed type of a
        reference successor of s."""
        return any(closure_sentence(f) in t for t in self.refs.get(s, ()))

    def _eval(self, f, g, s):
        m = self.m
        if isinstance(f, Atom):
            if f.kind == PROP:
                return s in m.val.get(f.name, frozenset())
            if f.kind == NOM:
                if f.name not in m.nomval:
                    raise UnboundNominalError(f"nominal {f.name!r} not in model")
                return m.nomval[f.name] == s
            if f.name not in g:
                raise UnboundVariableError(f"state variable {f.name!r} unbound")
            return g[f.name] == s
        if isinstance(f, Top):
            return True
        if isinstance(f, Bot):
            return False
        if isinstance(f, Not):
            return not self.run(f.body, g, s)
        if isinstance(f, And):
            return self.run(f.left, g, s) and self.run(f.right, g, s)
        if isinstance(f, Or):
            return self.run(f.left, g, s) or self.run(f.right, g, s)
        if isinstance(f, Implies):
            return not self.run(f.left, g, s) or self.run(f.right, g, s)
        if isinstance(f, Iff):
            return self.run(f.left, g, s) == self.run(f.right, g, s)
        if isinstance(f, (Diamond, Future)):
            return any(self.run(f.body, g, t) for t in self.succ[s]) or self._guessed(f, s)
        if isinstance(f, (Box, Globally)):
            return all(self.run(f.body, g, t) for t in self.succ[s]) and not self._guessed(f, s)
        if isinstance(f, Past):
            return any(self.run(f.body, g, t) for t in self.pred[s])
        if isinstance(f, Historically):
            return all(self.run(f.body, g, t) for t in self.pred[s])
        if isinstance(f, Somewhere):
            return any(self.run(f.body, g, t) for t in m.states)
        if isinstance(f, Everywhere):
            return all(self.run(f.body, g, t) for t in m.states)
        if isinstance(f, At):
            t = self._denote(f.term, g)
            return self.run(f.body, g, t)
        if isinstance(f, Down):
            return self.run(f.body, {**g, f.var.name: s}, s)
        if isinstance(f, Until):
            return any(
                self.run(f.left, g, n)
                and all(
                    self.run(f.right, g, u)
                    for u in self.succ[s]
                    if (u, n) in m.rel
                )
                for n in self.succ[s]
            )
        if isinstance(f, Since):
            return any(
                self.run(f.left, g, n)
                and all(
                    self.run(f.right, g, u)
                    for u in self.pred[s]
                    if (n, u) in m.rel
                )
                for n in self.pred[s]
            )
        if isinstance(f, UntilPlus):
            plus = self.rel_plus()
            return any(
                self.run(f.left, g, n)
                and all(
                    self.run(f.right, g, u)
                    for u in m.states
                    if (s, u) in plus and (u, n) in plus
                )
                for n in self.succ[s]
            )
        if isinstance(f, SincePlus):
            plus = self.rel_plus()
            return any(
                self.run(f.left, g, n)
                and all(
                    self.run(f.right, g, u)
                    for u in m.states
                    if (n, u) in plus and (u, s) in plus
                )
                for n in self.pred[s]
            )
        if isinstance(f, UntilPlusPlus):
            plus = self.rel_plus()
            return any(
                self.run(f.left, g, n)
                and all(
                    self.run(f.right, g, u)
                    for u in m.states
                    if (s, u) in plus and (u, n) in plus
                )
                for n in m.states
                if (s, n) in plus
            )
        if isinstance(f, SincePlusPlus):
            plus = self.rel_plus()
            return any(
                self.run(f.left, g, n)
                and all(
                    self.run(f.right, g, u)
                    for u in m.states
                    if (n, u) in plus and (u, s) in plus
                )
                for n in m.states
                if (n, s) in plus
            )
        raise TypeError(f"not a formula node: {f!r}")

    def _denote(self, term, g):
        if term.kind == NOM:
            if term.name not in self.m.nomval:
                raise UnboundNominalError(f"nominal {term.name!r} not in model")
            return self.m.nomval[term.name]
        if term.name not in g:
            raise UnboundVariableError(f"state variable {term.name!r} unbound")
        return g[term.name]


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
    scope = [s] + m.successors(s)
    return frozenset(chi for chi in closure if any(ev.run(chi, {}, t) for t in scope))
