"""First-order fragment and PDL over sibling-ordered trees.

These are the targets and sources of the logic-to-logic translations: a
small interned FO AST with a Tarskian evaluator over finite structures,
and an interned PDL AST with the relational program semantics over finite
ordered trees.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import cached_property, partial
from itertools import product

from .formula import MARKS, TIGHTEST, Language, Op, ParseError, _Node, _node, _Tokens, _values, compiled, record
from .formula import SHALLOW, _fact, deep_stack, on_deep_stack, render, subformulas, token_maps
from .model import _closure, _name_lists, _name_map, _names


# ---------------------------------------------------------------------------
# First-order formulas over one binary relation, unary predicates, equality
#
# Nodes are interned like the hybrid ones (``hylo.formula._Node``): equal
# structure is the same object, and ``hylo.formula``'s children, rebuild,
# map_nodes and subformulas walk them.  A field is a subformula, a term,
# or a name; the walks below that reach terms read every field in
# declaration order.


@_node
class FOTerm(_Node):
    pass


@_node
class FOVar(FOTerm):
    name: str

    @cached_property
    def fv(self) -> frozenset[str]:
        return frozenset([self.name])


@_node
class FOConst(FOTerm):
    name: str

    fv = frozenset()


@_node
class FOFormula(_Node):
    def __str__(self):
        return fo_to_text(self)

    @_fact
    def fv(self) -> frozenset[str]:
        """Variables with an occurrence not under a matching quantifier."""
        out = frozenset().union(*(p.fv for p in _values(self) if not isinstance(p, str)))
        return out - {self.var} if isinstance(self, (Exists, Forall)) else out

    @cached_property
    def alpha_code(self) -> tuple:
        """Alpha-invariant code plus the free variables in slot order,
        computed once per node: formulas that differ only in the names of
        their bound variables get the same code."""
        if self.height > SHALLOW and not deep_stack.active:
            return on_deep_stack(self, FOFormula.alpha_code.func, self)
        slots: list[str] = []

        def part(p, bound):
            if isinstance(p, FOFormula):
                return rec(p, bound)
            if isinstance(p, FOConst):
                return ("c", p.name)
            if not isinstance(p, FOVar):
                return p
            if p.name in bound:
                return ("b", bound[p.name])
            if p.name not in slots:
                slots.append(p.name)
            return ("f", slots.index(p.name))

        def rec(h, bound):
            if isinstance(h, (Exists, Forall)):
                # a binder's code is its depth, so a shadowing binder never
                # shares a code with a binder still in scope
                inner = {**bound, h.var: max(bound.values(), default=-1) + 1}
                return (type(h), rec(h.body, inner))
            return (type(h), *[part(p, bound) for p in _values(h)])

        code = rec(self, {})
        return code, tuple(slots)


@_node
class FOTrue(FOFormula):
    pass


@_node
class FOFalse(FOFormula):
    pass


@_node
class Rel(FOFormula):
    left: FOTerm
    right: FOTerm


@_node
class RelPlus(FOFormula):
    """Transitive-closure atom; evaluated against the closure of the relation."""

    left: FOTerm
    right: FOTerm


@_node
class Eq(FOFormula):
    left: FOTerm
    right: FOTerm


@_node
class Pred(FOFormula):
    name: str
    term: FOTerm


@_node
class FONot(FOFormula):
    body: FOFormula


@_node
class FOAnd(FOFormula):
    left: FOFormula
    right: FOFormula


@_node
class FOOr(FOFormula):
    left: FOFormula
    right: FOFormula


@_node
class FOImplies(FOFormula):
    left: FOFormula
    right: FOFormula


# the first-order rows of the mark table (``hylo.formula.MARKS``): one per
# relational atom; true, false and the connectives leave none
MARKS.update({Rel: "R", RelPlus: "R+", Eq: "=", Pred: "pred"})

# Each binary connective as a junction of its operands: (conjunctive, left
# sign).  The left operand is taken as it is, or negated when its sign is
# False, and the two are conjoined or disjoined: p -> q is ~p | q.
FO_JUNCTIONS = {
    FOAnd: (True, True),
    FOOr: (False, True),
    FOImplies: (False, False),
}


@_node
class Exists(FOFormula):
    var: str
    body: FOFormula


@_node
class Forall(FOFormula):
    var: str
    body: FOFormula


def fo_free_vars(f: FOFormula) -> frozenset[str]:
    return f.fv


def fo_constants(f: FOFormula) -> frozenset[str]:
    return frozenset(
        p.name for g in subformulas(f) for p in _values(g) if isinstance(p, FOConst)
    )


def fo_preds(f: FOFormula) -> frozenset[str]:
    return frozenset(g.name for g in subformulas(f) if isinstance(g, Pred))


def fo_vars(f: FOFormula) -> frozenset[str]:
    """Every variable name in f, bound or free."""
    out = set()
    for g in subformulas(f):
        if isinstance(g, (Exists, Forall)):
            out.add(g.var)
        out.update(p.name for p in _values(g) if isinstance(p, FOVar))
    return frozenset(out)


def fo_rename(f: FOFormula, bind, free, scope=None) -> FOFormula:
    """Scoped rewrite of the variables of f.

    A quantifier on v binds ``bind(v, scope)`` instead, where scope maps
    each variable bound above to its binder's new name; an occurrence
    takes its binder's new name, and a free one becomes ``free(name)``.
    """
    if f.height > SHALLOW and not deep_stack.active:
        return on_deep_stack(f, fo_rename, f, bind, free, scope)
    scope = scope or {}
    if isinstance(f, (Exists, Forall)):
        new = bind(f.var, scope)
        return type(f)(new, fo_rename(f.body, bind, free, {**scope, f.var: new}))
    parts = []
    for p in _values(f):
        if isinstance(p, FOFormula):
            p = fo_rename(p, bind, free, scope)
        elif isinstance(p, FOVar):
            p = FOVar(scope[p.name]) if p.name in scope else free(p.name)
        parts.append(p)
    return type(f)(*parts)


ALL_U1 = Language("[all,(u,1)]", frozenset(["R", "pred"]))
MC_EQ = Language("the monadic class with equality", frozenset(["=", "pred"]))


def is_all_u1(f: FOFormula) -> bool:
    """Membership in [all,(u,1)]: one binary relation, unary preds, no equality."""
    return f.signature <= ALL_U1.marks


def is_mc_eq(f: FOFormula) -> bool:
    """Membership in the monadic class with equality: no binary relation."""
    return f.signature <= MC_EQ.marks


@record
class FOStructure:
    domain: tuple
    binrel: frozenset
    unary: dict = {}
    constants: dict = {}

    @cached_property
    def _plus(self) -> frozenset:
        """The transitive closure of ``binrel``, computed on first use."""
        return _closure(self.domain, self.binrel)

    def __post_init__(self):
        object.__setattr__(self, "domain", tuple(self.domain))
        object.__setattr__(self, "binrel", frozenset(tuple(e) for e in self.binrel))
        object.__setattr__(self, "unary", {k: frozenset(v) for k, v in self.unary.items()})
        object.__setattr__(self, "constants", dict(self.constants))
        known = set(self.domain)
        for a, b in self.binrel:
            if a not in known or b not in known:
                raise ValueError(f"relation pair ({a}, {b}) outside domain")
        for name, elems in self.unary.items():
            if elems - known:
                raise ValueError(f"predicate {name!r} outside domain")
        for name, e in self.constants.items():
            if e not in known:
                raise ValueError(f"constant {name!r} outside domain")


class FOEvalError(ValueError):
    pass


def fo_eval(s: FOStructure, env: dict, alpha: FOFormula) -> bool:
    """Classical truth over a finite structure.  Evaluation is compiled:
    each node carries one closure ``(s, env) -> bool``, made from its
    ``_FO_CASES`` entry on first use and kept on the node."""
    if alpha.height > SHALLOW and not deep_stack.active:
        return on_deep_stack(alpha, fo_eval, s, env, alpha)
    return compiled(alpha, _FO_CASES, "_fo_eval", "an FO node")(s, dict(env))


def _term(t):
    """The closure ``(s, env) -> element`` of a variable or a constant."""
    var = isinstance(t, FOVar)

    def value(s, env):
        try:
            return (env if var else s.constants)[t.name]
        except KeyError:
            raise FOEvalError(f"unbound {'variable' if var else 'constant'} {t.name!r}") from None

    return value


def _related(g):
    a, b, plus = _term(g.left), _term(g.right), isinstance(g, RelPlus)
    return lambda s, env: (a(s, env), b(s, env)) in (s._plus if plus else s.binrel)


def _equal(g):
    a, b = _term(g.left), _term(g.right)
    return lambda s, env: a(s, env) == b(s, env)


def _predicated(g):
    t, name = _term(g.term), g.name
    return lambda s, env: t(s, env) in s.unary.get(name, ())


def _quantifier(g, body):
    exists, var = isinstance(g, Exists), g.var

    def quantify(s, env):
        env = dict(env)
        for d in s.domain:
            env[var] = d
            if body(s, env) == exists:
                return exists
        return not exists

    return quantify


# One case per node class: each compiles a node, given its children's
# closures, into its own.
_FO_CASES = {
    FOTrue: lambda g: lambda s, env: True,
    FOFalse: lambda g: lambda s, env: False,
    Rel: _related,
    RelPlus: _related,
    Eq: _equal,
    Pred: _predicated,
    FONot: lambda g, a: lambda s, env: not a(s, env),
    FOAnd: lambda g, a, b: lambda s, env: a(s, env) and b(s, env),
    FOOr: lambda g, a, b: lambda s, env: a(s, env) or b(s, env),
    FOImplies: lambda g, a, b: lambda s, env: not a(s, env) or b(s, env),
    Exists: _quantifier,
    Forall: _quantifier,
}


def string_structure(word) -> FOStructure:
    """A word as the structure ({1..n}, <, letter predicates)."""
    word = list(word)
    if not word:
        raise ValueError("empty word")
    n = len(word)
    domain = tuple(range(1, n + 1))
    binrel = frozenset((i, j) for i in domain for j in domain if i < j)
    unary: dict[str, set] = {}
    for pos, letter in enumerate(word, start=1):
        unary.setdefault(letter, set()).add(pos)
    return FOStructure(domain, binrel, {k: frozenset(v) for k, v in unary.items()})


# -- FO concrete syntax -----------------------------------------------------
# quantifiers "E x." / "A x." (a body extends maximally, so a quantifier
# prints bracketed unless it is the whole text or a body); atoms R(x,y),
# R+(x,y), P(x), and x=y, x<y from _TERM_RELATIONS; the operators of
# _FO_OPS; free names parse as constants.

_FO_OPS = {
    FOImplies: Op(" -> ", 1, 2, 1),
    FOOr: Op(" | ", 2, 2, 3),
    FOAnd: Op(" & ", 3, 3, 4),
    FONot: Op("~", TIGHTEST, None, 4),
    FOTrue: Op("true", TIGHTEST, None, None),
    FOFalse: Op("false", TIGHTEST, None, None),
}
_FO_INFIX, _FO_PREFIX, _, _FO_CONSTANTS = token_maps(_FO_OPS)
_TERM_RELATIONS = {"=": Eq, "<": Rel}


class FOParseError(ParseError):
    """A syntax error in FO concrete syntax, with its line and column."""


class _FOParser(_Tokens):
    pattern = re.compile(
        r"""
        (?P<ws>\s+)
      | (?P<plus>R\+\s*\()
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*|[0-9]+)
      | (?P<punct>->|[()~&|=<,.])
        """,
        re.VERBOSE,
    )
    reserved = ("ident",)
    error = FOParseError

    def term_name(self):
        if self.peek()[0] != "ident":
            self.fail("expected a term")
        return self.next()[1]

    prefixes = frozenset(_FO_PREFIX)

    def prefix(self):
        return _FO_PREFIX[self.next()[1]][0]

    def primary(self):
        kind, value, pos = self.peek()
        if value == "(":
            self.next()
            f = self.infix(_FO_INFIX, self.unary)
            self.expect(")")
            return f
        if kind == "plus":
            self.next()
            a = self.term_name()
            self.expect(",")
            b = self.term_name()
            self.expect(")")
            return RelPlus(FOVar(a), FOVar(b))
        if kind != "ident":
            self.fail("expected an FO formula")
        if value in ("E", "A") and self.toks[self.i + 1][0] == "ident":
            self.next()
            var = self.term_name()
            self.expect(".")
            cls = Exists if value == "E" else Forall
            return cls(var, self.infix(_FO_INFIX, self.unary))
        if value in _FO_CONSTANTS:
            self.next()
            return _FO_CONSTANTS[value][0]()
        name = self.term_name()
        value2 = self.peek()[1]
        if value2 == "(":
            self.next()
            a = self.term_name()
            if self.peek()[1] == ",":
                self.next()
                b = self.term_name()
                self.expect(")")
                if name != "R":
                    raise self.error_at(pos, f"unknown binary relation {name!r}")
                return Rel(FOVar(a), FOVar(b))
            self.expect(")")
            return Pred(name, FOVar(a))
        if value2 in _TERM_RELATIONS:
            self.next()
            return _TERM_RELATIONS[value2](FOVar(name), FOVar(self.term_name()))
        self.fail(f"dangling term {name!r}")


def parse_fo(text: str) -> FOFormula:
    parser = _FOParser(text)
    f = parser.done(parser.infix(_FO_INFIX, parser.unary))
    # free names are constants; bound ones stay variables
    return fo_rename(f, lambda v, scope: v, FOConst)


def fo_to_text(f: FOFormula, rplus_as_lfp: bool = False) -> str:
    """Concrete FO syntax; with rplus_as_lfp closure atoms print as their
    least-fixed-point form instead of the primitive R+ symbol."""

    def parts(g, floor, trailing):
        if isinstance(g, (Exists, Forall)):
            text = [f"{'E' if isinstance(g, Exists) else 'A'} {g.var}. ", (g.body, 0, False)]
            return ["(", *text, ")"] if floor > 0 else text
        if isinstance(g, Rel):
            return [f"R({g.left.name},{g.right.name})"]
        if isinstance(g, RelPlus):
            a, b = g.left.name, g.right.name
            if rplus_as_lfp:
                return [f"[LFP W({a},{b}). (R({a},{b}) | E z. (R(z,{b}) & W({a},z)))]({a},{b})"]
            return [f"R+({a},{b})"]
        if isinstance(g, Eq):
            return [f"{g.left.name}={g.right.name}"]
        if isinstance(g, Pred):
            return [f"{g.name}({g.term.name})"]
        raise TypeError(f"not an FO node: {g!r}")

    return render(f, _FO_OPS, parts)


# ---------------------------------------------------------------------------
# PDL over finite sibling-ordered trees
#
# Programs and formulas are interned nodes too, so the node walk of
# ``hylo.formula`` reaches through tests and diamonds, and the evaluator
# memoizes on the node itself.


@_node
class PdlProgram(_Node):
    # the two PDL families nest: a test holds a formula, a diamond a program
    _kinds = ("PdlProgram", "PdlFormula")

    def __str__(self):
        return pdl_prog_to_text(self)


@_node
class Left(PdlProgram):
    pass


@_node
class Right(PdlProgram):
    pass


@_node
class Up(PdlProgram):
    pass


@_node
class DownP(PdlProgram):
    pass


@_node
class Seq(PdlProgram):
    first: PdlProgram
    second: PdlProgram


@_node
class Choice(PdlProgram):
    left: PdlProgram
    right: PdlProgram


@_node
class Star(PdlProgram):
    body: PdlProgram


@_node
class Test(PdlProgram):
    __test__ = False  # not a pytest case

    formula: PdlFormula


@_node
class PdlFormula(_Node):
    _kinds = PdlProgram._kinds

    def __str__(self):
        return pdl_to_text(self)


@_node
class PdlAtom(PdlFormula):
    name: str


@_node
class PdlNot(PdlFormula):
    body: PdlFormula


@_node
class PdlAnd(PdlFormula):
    left: PdlFormula
    right: PdlFormula


@_node
class PdlDiamond(PdlFormula):
    program: PdlProgram
    body: PdlFormula


def pdl_box(program: PdlProgram, body: PdlFormula) -> PdlFormula:
    """Derived [pi]phi := ~<pi>~phi."""
    return PdlNot(PdlDiamond(program, PdlNot(body)))


def plus_prog(a: PdlProgram) -> PdlProgram:
    """Derived a+ := a;a*."""
    return Seq(a, Star(a))


def pdl_false() -> PdlFormula:
    return PdlAnd(PdlAtom("_t"), PdlNot(PdlAtom("_t")))


def pdl_true() -> PdlFormula:
    return PdlNot(pdl_false())


@record
class SiblingTree:
    """Finite tree with ordered children and atom labels: distinct nodes,
    one root without a parent, each child link given both ways (the
    child's parent, and once among the parent's children), and every node
    below the root."""

    nodes: tuple
    parent: dict
    children: dict
    labels: dict = {}

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "parent", dict(self.parent))
        object.__setattr__(self, "children", {n: tuple(cs) for n, cs in self.children.items()})
        object.__setattr__(self, "labels", {a: frozenset(ns) for a, ns in self.labels.items()})
        known = set(self.nodes)
        if len(known) != len(self.nodes):
            raise ValueError("repeated node")
        named = {*self.parent, *self.parent.values(), *self.children} - {None}
        if named - known:
            raise ValueError(f"parent or children name nodes outside the tree: {sorted(named - known)}")
        roots = [n for n in self.nodes if self.parent.get(n) is None]
        if len(roots) != 1:
            raise ValueError("tree must have exactly one root")
        links = Counter((p, n) for n, p in self.parent.items() if p is not None)
        if links != Counter((n, c) for n, cs in self.children.items() for c in cs):
            raise ValueError("children/parent mismatch: each child link must be given once each way")
        # no node is listed twice, so the walk from the root ends
        below, stack = set(), roots
        while stack:
            n = stack.pop()
            below.add(n)
            stack.extend(self.children.get(n, ()))
        if below != known:
            raise ValueError(f"nodes not below the root: {sorted(known - below)}")
        for a, ns in self.labels.items():
            if ns - known:
                raise ValueError(f"label {a!r} outside tree")

    @property
    def root(self):
        return next(n for n in self.nodes if self.parent.get(n) is None)


class _PdlEvaluator:
    """The relation of each program (pairs of tree nodes) and the extension
    of each formula (tree nodes) over one tree, computed once per node."""

    def __init__(self, tree: SiblingTree):
        self.t = tree
        self.nodes = frozenset(tree.nodes)
        self.down = frozenset((n, c) for n, cs in tree.children.items() for c in cs)
        self.right = frozenset(pair for cs in tree.children.values() for pair in zip(cs, cs[1:]))
        self.memo = {}

    def rel(self, prog):
        return self._get(prog, _PDL_PROGRAMS)

    def ext(self, f):
        return self._get(f, _PDL_FORMULAS)

    def _get(self, g, cases):
        if g.height > SHALLOW and not deep_stack.active:
            return on_deep_stack(g, self._get, g, cases)
        out = self.memo.get(g)
        if out is None:
            case = cases.get(type(g))
            if case is None:
                raise TypeError(f"no PDL case for {g!r}")
            out = self.memo[g] = case(self, g)
        return out


def _compose(first, second):
    succ = {}
    for b, c in second:
        succ.setdefault(b, []).append(c)
    return frozenset((a, c) for a, b in first for c in succ.get(b, ()))


def _preimage(rel, targets):
    return frozenset(a for a, b in rel if b in targets)


# One case per node class of each family, called as case(evaluator, node).
_PDL_PROGRAMS = {
    DownP: lambda ev, p: ev.down,
    Up: lambda ev, p: frozenset((b, a) for a, b in ev.down),
    Right: lambda ev, p: ev.right,
    Left: lambda ev, p: frozenset((b, a) for a, b in ev.right),
    Seq: lambda ev, p: _compose(ev.rel(p.first), ev.rel(p.second)),
    Choice: lambda ev, p: ev.rel(p.left) | ev.rel(p.right),
    Star: lambda ev, p: frozenset((n, n) for n in ev.nodes) | _closure(ev.t.nodes, ev.rel(p.body)),
    Test: lambda ev, p: frozenset((n, n) for n in ev.ext(p.formula)),
}

_PDL_FORMULAS = {
    PdlAtom: lambda ev, f: ev.t.labels.get(f.name, frozenset()),
    PdlNot: lambda ev, f: ev.nodes - ev.ext(f.body),
    PdlAnd: lambda ev, f: ev.ext(f.left) & ev.ext(f.right),
    PdlDiamond: lambda ev, f: _preimage(ev.rel(f.program), ev.ext(f.body)),
}


def pdl_eval(tree: SiblingTree, node, f: PdlFormula) -> bool:
    if node not in set(tree.nodes):
        raise ValueError(f"unknown node {node!r}")
    return node in _PdlEvaluator(tree).ext(f)


def pdl_program_relation(tree: SiblingTree, prog: PdlProgram) -> frozenset:
    return _PdlEvaluator(tree).rel(prog)


def _ordered_shapes(n):
    """Ordered (plane) tree shapes with exactly n nodes, as nested tuples."""
    if n == 1:
        return [()]
    out = []
    for split in _compositions(n - 1):
        for combo in product(*[_ordered_shapes(k) for k in split]):
            out.append(tuple(combo))
    return out


def _compositions(n):
    if n == 0:
        return [()]
    out = []
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            out.append((first,) + rest)
    return out


def _shape_to_tree(shape, labels, atoms):
    nodes = []
    parent = {}
    children = {}

    def build(sub, parent_id):
        my = f"n{len(nodes)}"
        nodes.append(my)
        parent[my] = parent_id
        children[my] = ()
        kids = []
        for s in sub:
            kids.append(build(s, my))
        children[my] = tuple(kids)
        return my

    build(shape, None)
    lab = {a: frozenset(n for k, n in enumerate(nodes) if labels[i * len(nodes) + k]) for i, a in enumerate(atoms)}
    return SiblingTree(tuple(nodes), parent, children, lab)


def enumerate_trees(n: int, atoms=()):
    """All ordered trees with up to n nodes and all labelings over atoms."""
    atoms = tuple(atoms)
    for k in range(1, n + 1):
        for shape in _ordered_shapes(k):
            for bits in range(2 ** (k * len(atoms))):
                labels = [(bits >> j) & 1 for j in range(k * len(atoms))]
                yield _shape_to_tree(shape, labels, atoms)


# -- PDL concrete syntax ----------------------------------------------------
# formulas: atoms, parentheses, <prog>f and the operators of _PDL_OPS;
# programs: ?(f), parentheses, p+ and the operators of _PROG_OPS.

# the floor of a prefix operand, ~ or <prog>
_PDL_UNARY = 2

_PDL_OPS = {
    PdlAnd: Op(" & ", 1, _PDL_UNARY, _PDL_UNARY),
    PdlNot: Op("~", TIGHTEST, None, _PDL_UNARY),
}
_PROG_OPS = {
    Choice: Op(" | ", 1, 1, 2),
    Seq: Op(";", 2, 2, 3),
    Star: Op("*", TIGHTEST, 3, None),
    Left: Op("left", TIGHTEST, None, None),
    Right: Op("right", TIGHTEST, None, None),
    Up: Op("up", TIGHTEST, None, None),
    DownP: Op("down", TIGHTEST, None, None),
}
# the parser reads the printer's tables backwards; p+ is the derived a;a*
_PDL_INFIX, _PDL_PREFIX, _, _ = token_maps(_PDL_OPS)
_PROG_INFIX, _, _POSTFIX, _PROG_CONSTANTS = token_maps(_PROG_OPS)
_POSTFIX["+"] = plus_prog, None
# one printer walk reads both tables, since each family holds the other
_PDL_PRINTED = {**_PDL_OPS, **_PROG_OPS}


def pdl_to_text(f: PdlFormula) -> str:
    return render(f, _PDL_PRINTED, _pdl_parts)


def pdl_prog_to_text(p: PdlProgram) -> str:
    return render(p, _PDL_PRINTED, _pdl_parts)


def _pdl_parts(g, floor, trailing):
    if isinstance(g, PdlAtom):
        return [g.name]
    if isinstance(g, PdlDiamond):
        return ["<", (g.program, 0, False), ">", (g.body, _PDL_UNARY, False)]
    if isinstance(g, Test):
        return ["?(", (g.formula, 0, False), ")"]
    raise TypeError(f"not a PDL node: {g!r}")


class PdlParseError(ParseError):
    """A syntax error in PDL concrete syntax, with its line and column."""


class _PdlParser(_Tokens):
    pattern = re.compile(r"(?P<ws>\s+)|(?P<ident>[A-Za-z_][A-Za-z0-9_']*)|(?P<punct>[()<>~&;|*+?])")
    error = PdlParseError

    prefixes = frozenset([*_PDL_PREFIX, "<"])

    def prefix(self):
        value = self.next()[1]
        if value != "<":
            return _PDL_PREFIX[value][0]
        prog = self.infix(_PROG_INFIX, self.postfix)
        self.expect(">")
        return partial(PdlDiamond, prog)

    def primary(self):
        kind, value, _ = self.peek()
        if value == "(":
            self.next()
            f = self.infix(_PDL_INFIX, self.unary)
            self.expect(")")
            return f
        if kind == "ident":
            self.next()
            return PdlAtom(value)
        self.fail("expected a PDL formula")

    def postfix(self):
        base = self.prog_base()
        while self.peek()[1] in _POSTFIX:
            base = _POSTFIX[self.next()[1]][0](base)
        return base

    def prog_base(self):
        kind, value, _ = self.peek()
        if value == "(":
            self.next()
            p = self.infix(_PROG_INFIX, self.postfix)
            self.expect(")")
            return p
        if value == "?":
            self.next()
            self.expect("(")
            f = self.infix(_PDL_INFIX, self.unary)
            self.expect(")")
            return Test(f)
        if kind == "ident" and value in _PROG_CONSTANTS:
            self.next()
            return _PROG_CONSTANTS[value][0]()
        self.fail("expected a program")


def parse_pdl(text: str) -> PdlFormula:
    parser = _PdlParser(text)
    return parser.done(parser.infix(_PDL_INFIX, parser.unary))


# -- tree / structure file formats (mirror the model format) ----------------

_TREE_KEYS = {"nodes", "parent", "children", "labels"}


def tree_from_dict(doc: dict) -> SiblingTree:
    if not isinstance(doc, dict):
        raise ValueError("tree document must be a mapping")
    unknown = set(doc) - _TREE_KEYS
    if unknown:
        raise ValueError(f"unknown keys in tree document: {sorted(unknown)}")
    if "nodes" not in doc:
        raise ValueError("tree document lacks 'nodes'")
    nodes = _names(doc, "nodes")
    return SiblingTree(
        tuple(nodes),
        dict.fromkeys(nodes) | _name_map(doc, "parent"),
        _name_lists(doc, "children"),
        _name_lists(doc, "labels"),
    )


def tree_to_dict(t: SiblingTree) -> dict:
    return {
        "nodes": list(t.nodes),
        "parent": {n: p for n, p in t.parent.items() if p is not None},
        "children": {n: list(cs) for n, cs in t.children.items()},
        "labels": {a: sorted(ns) for a, ns in sorted(t.labels.items())},
    }
