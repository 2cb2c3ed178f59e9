"""Satisfaction evaluation on finite models, global satisfaction, phi-types."""

from __future__ import annotations

import weakref

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
    compiled,
    diamond_closure,
    free_vars,
)
from .formula import SHALLOW, deep_stack, on_deep_stack
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

    Evaluation is compiled (Feeley & Lapalme 1987): each formula node
    carries one closure ``(ev, g, s) -> bool``, made from its ``_CASES``
    entry on first use and kept on the node, which calls its children's
    closures directly.  Only modal and Until nodes fan out over states, so
    only they consult the memo, keyed on (node, state, assignment
    restricted to the node's free variables): down-binders fan out only
    where the bound variable is actually used.  Formula nodes are
    interned, so a node is its own structural key.  A closure holds only
    what it reads of its node (at and down bind it as argument defaults),
    or a weak reference to it: a node its own closure held would sit in a
    cycle that only the cyclic collector frees.

    ``refs`` maps a state to the guessed types of its reference successors
    (block-tree representations, see ``blocktree.verify``).  A diamond also
    holds, and a box also fails, when its closure sentence belongs to one
    of them; that is sound because the free variables of its body are
    bound at or above the crossing.  Guesses come only with down-fragment
    formulas, whose modal nodes are all diamonds and boxes.  This reference
    hook is the only place that reads a guess, and it reads one only
    through ``in``: a guess may be any container, and
    ``blocktree.Recording`` passes one that logs each test, so that the
    solver knows which guesses an evaluation depended on.
    """

    def __init__(self, model: HybridModel, refs: dict | None = None):
        self.m = model
        self.succ = model._relation()[0]
        self.refs = refs or {}
        self.memo = {}

    def run(self, f: Formula, g: dict, s: str) -> bool:
        return compiled(f, _CASES, "_check", "a formula node")(self, g, s)


def _atom(f):
    kind, name = f.kind, f.name
    if kind == PROP:
        return lambda ev, g, s: s in ev.m.val.get(name, ())
    return lambda ev, g, s: _denote(ev, g, kind, name) == s


def _denote(ev, g, kind, name):
    """The state a nominal or a state variable names."""
    try:
        return (ev.m.nomval if kind == NOM else g)[name]
    except KeyError:
        if kind == NOM:
            raise UnboundNominalError(f"nominal {name!r} not in model") from None
        raise UnboundVariableError(f"state variable {name!r} unbound") from None


def _modal(f, body):
    # one clause for the eight forms: a step along R, along R read
    # backwards, or to every state
    exists, backward, universal = MODAL_FORMS[type(f)]
    free, node = sorted(f.fv), weakref.ref(f)

    def modal(ev, g, s):
        key = (node, s, tuple([(v, g[v]) for v in free if v in g]) if free else ())
        out = ev.memo.get(key)
        if out is None:
            if universal:
                scope = ev.m.states
            elif backward:
                scope = ev.m._relation(converse=True)[0][s]
            else:
                scope = ev.succ[s]
            # look for a witness of a diamond, a counterexample to a box
            for t in scope:
                if body(ev, g, t) == exists:
                    out = exists
                    break
            else:  # none in scope: a reference successor's guessed type may hold it
                out = (s in ev.refs and any(closure_sentence(node()) in t for t in ev.refs[s])) == exists
            ev.memo[key] = out
        return out

    return modal


def _until(f, left, right):
    # one clause for the six forms: a Since form reads the converse views
    form = UNTIL_FORMS[type(f)]
    free, node = sorted(f.fv), weakref.ref(f)

    def until(ev, g, s):
        key = (node, s, tuple([(v, g[v]) for v in free if v in g]) if free else ())
        out = ev.memo.get(key)
        if out is None:
            step = ev.m._relation(form.step_plus, form.backward)[0]
            between, guard = ev.m._relation(form.guard_plus, form.backward)
            out = ev.memo[key] = any(
                left(ev, g, n)
                and all(right(ev, g, u) for u in between[s] if (u, n) in guard)
                for n in step[s]
            )
        return out

    return until


# One case per node class: it compiles the node, given its children's
# closures, into the node's own closure (ev, g, s) -> bool.
_CASES = {
    Atom: _atom,
    Top: lambda f: lambda ev, g, s: True,
    Bot: lambda f: lambda ev, g, s: False,
    Not: lambda f, a: lambda ev, g, s: not a(ev, g, s),
    And: lambda f, a, b: lambda ev, g, s: a(ev, g, s) and b(ev, g, s),
    Or: lambda f, a, b: lambda ev, g, s: a(ev, g, s) or b(ev, g, s),
    Implies: lambda f, a, b: lambda ev, g, s: not a(ev, g, s) or b(ev, g, s),
    Iff: lambda f, a, b: lambda ev, g, s: a(ev, g, s) == b(ev, g, s),
    At: lambda f, a: lambda ev, g, s, t=(f.term.kind, f.term.name): a(ev, g, _denote(ev, g, *t)),
    Down: lambda f, a: lambda ev, g, s, var=f.var.name: a(ev, {**g, var: s}, s),
    **dict.fromkeys(MODAL_FORMS, _modal),
    **dict.fromkeys(UNTIL_FORMS, _until),
}


def eval_formula(m: HybridModel, g: dict, s: str, f: Formula) -> bool:
    """Truth of f at state s under assignment g."""
    if f.height > SHALLOW and not deep_stack.active:
        return on_deep_stack(f, eval_formula, m, g, s, f)
    states = set(m.states)
    if s not in states:
        raise UnknownStateError(f"unknown state {s!r}")
    for v in g.values():
        if v not in states:
            raise UnknownStateError(f"assignment maps to unknown state {v!r}")
    return _Evaluator(m).run(f, dict(g), s)


def global_eval(m: HybridModel, f: Formula) -> bool:
    """Truth of the sentence f at every state of m."""
    if f.height > SHALLOW and not deep_stack.active:
        return on_deep_stack(f, global_eval, m, f)
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
    if phi.height > SHALLOW and not deep_stack.active:
        return on_deep_stack(phi, phi_type, m, phi, s)
    if not is_transitive(m):
        raise ValueError("phi_type requires a transitive model")
    check_hld(phi)
    if s not in set(m.states):
        raise UnknownStateError(f"unknown state {s!r}")
    return type_at(_Evaluator(m), diamond_closure(phi), s)


def type_at(ev: _Evaluator, closure, s: str) -> frozenset[Formula]:
    """The closure sentences that ev finds true at s or at some successor
    of s: the one definition of a state's type, for ``phi_type`` and for
    the block-tree layer, whose evaluators follow guessed references."""
    scope = [s, *ev.succ[s]]
    return frozenset(chi for chi in closure if any(ev.run(chi, {}, t) for t in scope))
