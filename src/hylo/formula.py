"""AST, concrete syntax, and structural operations for the hybrid language.

Atoms come in three kinds, told apart by their sigil in concrete syntax:
bare identifiers are propositions, a leading apostrophe marks a nominal
(``'i``), a leading dollar marks a state variable (``$x``).  Identifiers
starting with an underscore are reserved for internally generated names and
are rejected by the parser unless ``allow_reserved`` is set; a keyword
(``RESERVED_WORDS``) names no proposition.

The token cursor ``_Tokens`` serves all three concrete syntaxes (hybrid,
first-order and PDL): one lexer with line and column tracking, one
error position, one precedence-climbing infix loop.  Each syntax writes
its operators once, in an operator table (``Op`` rows: token, binding
strength, operand floors) that both its parser and its printer
(``render``) read; only the primaries are written by hand.
"""

from __future__ import annotations

import re
import sys
import threading
import weakref
from functools import cache, cached_property, partial
from types import FunctionType
from typing import NamedTuple

PROP = "prop"
NOM = "nom"
SVAR = "var"

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class ParseError(ValueError):
    """Syntax error, carrying 1-based line/column of the offending token."""

    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class FragmentError(ValueError):
    """Raised when a formula lies outside the fragment an operation expects."""


class _Interned(type):
    """Builds formula nodes through a weak table: constructing a node equal
    to a live one returns that node (hash-consing, Filliâtre & Conchon 2006).

    Equal structure therefore means the same object, so nodes compare and
    hash by identity and serve directly as structural memo keys.  The
    table holds nodes weakly: a node lives only while something uses it.
    A new node's ``height`` is one more than its tallest field that is a
    node (a subformula, an atom, a term), and 0 when it has none.
    """

    def __call__(cls, *args):
        key = (cls, *args)
        node = _TABLE.get(key)
        if node is None:
            node = super().__call__(*args)
            node.__dict__["height"] = max([getattr(a, "height", -1) for a in args], default=-1) + 1
            _TABLE[key] = node
        return node


_TABLE = weakref.WeakValueDictionary()


class FrozenInstanceError(AttributeError):
    """Raised on assigning to or deleting a field of a record."""


def record(cls, eq=True):
    """Make cls a frozen record, as ``dataclass(frozen=True)`` would, at a
    fraction of its class-creation cost: fields from the annotations of cls
    and its bases, an ``__init__`` that takes them by position or keyword,
    writes them into the instance ``__dict__`` and calls ``__post_init__``
    if the class has one, and dataclass's ``__repr__``.  A class attribute
    is a field's default; a dict default gives each instance a fresh dict.
    With eq, ``==`` and hash go by field; nodes (``_node``) keep identity."""
    names = tuple(dict.fromkeys(n for c in reversed(cls.__mro__) for n in c.__dict__.get("__annotations__", ())))
    defaults = tuple(_FRESH if type(d) is dict else d for d in [getattr(cls, n) for n in names if hasattr(cls, n)])
    fresh = tuple(n for n in names if type(getattr(cls, n, None)) is dict)
    code = _init_code(names, fresh, hasattr(cls, "__post_init__"))
    cls.__init__ = FunctionType(code, {"_FRESH": _FRESH}, "__init__", defaults)
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__match_args__, cls.__repr__ = names, _repr
    cls.__setattr__ = cls.__delattr__ = _frozen
    if eq:
        cls.__eq__ = lambda a, b: _values(a) == _values(b) if b.__class__ is a.__class__ else NotImplemented
        cls.__hash__ = lambda r: hash(_values(r))
    return cls


_FRESH = object()  # stands for a dict default left out of a call


@cache
def _init_code(names, fresh, post):
    """The code of a record's ``__init__``, compiled once per signature."""
    lines = [f"if {n} is _FRESH: {n} = {{}}" for n in fresh]
    lines += [f"self.__dict__[{n!r}] = {n}" for n in names] + ["self.__post_init__()"] * post
    space = {}
    exec(f"def __init__(self, {', '.join(names)}):\n " + "\n ".join(lines or ["pass"]), {}, space)
    return space["__init__"].__code__


def _values(r):
    return tuple([getattr(r, n) for n in r.__match_args__])


def _repr(self):
    return f"{type(self).__qualname__}({', '.join([f'{n}={getattr(self, n)!r}' for n in self.__match_args__])})"


def _frozen(self, name, *value):
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


_node = partial(record, eq=False)


class _fact:
    """A fact about a node that follows from the node and its children's
    facts, computed once per node by ``_upward`` and kept in the node's
    ``__dict__``, where later reads find it before this descriptor."""

    def __init__(self, compute):
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner, name):
        self.slot = name

    def __get__(self, node, owner=None):
        return self if node is None else _upward(node, self.slot, self.compute)


@_node
class _Node(metaclass=_Interned):
    """The base of every interned node class: hybrid, first-order and PDL.

    Each class records its child fields when it is created: the fields
    annotated with a kind its family base (``Formula``, ``FOFormula``,
    ``PdlProgram``, ...) lists in ``_kinds``, in declaration order.  A base
    that lists no kinds holds only its own family; PDL's two families hold
    each other.  A field holding an atom, a term or a name is part of the
    node itself.  ``children``, ``rebuild``, ``map_nodes`` and
    ``subformulas`` read only this record, so they serve every family.
    """

    _kids = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        family = next(c for c in cls.__mro__ if _Node in c.__bases__)
        kinds = family.__dict__.get("_kinds", (family.__name__,))
        own = cls.__dict__.get("__annotations__", {})
        cls._kids += tuple(name for name, kind in own.items() if kind in kinds)

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which re-interns
        return (type(self), _values(self))

    @_fact
    def signature(self) -> frozenset[str]:
        """The marks (``MARKS``) of every operator and atom kind in this
        node and below it: a language admits the node when it has them all.
        Equal signatures are one object."""
        marks = _own_marks(self).union(*[c.signature for c in children(self)])
        return _SIGNATURES.setdefault(marks, marks)


def _upward(f, slot, compute, wanted=None):
    """compute(f), kept in f's ``__dict__`` under slot, computed first for
    every node below f that is wanted (every node when wanted is None;
    asked first, so it may turn away a child that is not a node), has
    children and lacks it, children before parents.  An explicit
    stack replaces a Python frame per nesting level, so a deep formula is
    as easy as a shallow one.  compute reads its children's values as
    attributes: an inner child's is kept by then, a leaf's is quick."""
    stack = [f]
    while stack:
        g = stack[-1]
        if slot in g.__dict__:  # a shared subterm, reached again
            stack.pop()
            continue
        todo = [
            c for c in children(g)
            if (wanted is None or wanted(c)) and c._kids and slot not in c.__dict__
        ]
        if todo:
            stack += todo
        else:
            g.__dict__[slot] = compute(g)
            stack.pop()
    return f.__dict__[slot]


# Evaluation, translation and search take up to three Python frames a nesting
# level, so SHALLOW levels fit in the default recursion limit beside a caller;
# each recursion source hands a taller formula to on_deep_stack.
SHALLOW = 200
_HOPS = threading.Lock()  # the recursion limit is process-wide: one hop at a time


class _DeepStack(threading.local):
    active = False  # true on a hop's worker, which never hops again


deep_stack = _DeepStack()


def on_deep_stack(f: _Node, call, *args):
    """Return call(*args), or raise its exception, run on a daemon thread
    with a 256 MiB stack and the recursion limit raised by four frames a
    level of f, both restored after.  The caller waits, so Ctrl-C reaches it."""
    out = []

    def work():
        deep_stack.active = True
        try:
            out.append((True, call(*args)))
        except BaseException as exc:
            out.append((False, exc))

    with _HOPS:
        limit, stack = sys.getrecursionlimit(), threading.stack_size(256 << 20)
        try:
            sys.setrecursionlimit(limit + 4 * f.height)
            worker = threading.Thread(target=work, daemon=True)
            worker.start()
            worker.join()
        finally:
            threading.stack_size(stack)
            sys.setrecursionlimit(limit)
    done, value = out.pop()
    if done:
        return value
    raise value


@_node
class Formula(_Node):
    """An interned formula node; ``==`` is ``is``.

    Derived facts are computed once per node and kept on it: ``fv`` (the
    free state variables), ``signature`` (the operators and atom kinds
    below it), ``atoms`` (the atoms below it, behind ``atoms_of``,
    ``props_of``, ``noms_of`` and ``svars_of``), the recoding behind
    ``recode_nominals``, and the stripped form and the closure behind
    ``strip_free`` and ``diamond_closure``.  The first four are computed
    children first on an explicit stack, not a Python frame per level.
    """

    def __str__(self):
        return print_formula(self)

    @_fact
    def fv(self) -> frozenset[str]:
        """State variables with an occurrence not under a matching down binder."""
        if isinstance(self, Atom):
            return frozenset([self.name]) if self.kind == SVAR else _NO_VARS
        if isinstance(self, At):
            if self.term.kind == SVAR:
                return self.body.fv | {self.term.name}
            return self.body.fv
        if isinstance(self, Down):
            return self.body.fv - {self.var.name}
        return _NO_VARS.union(*(c.fv for c in children(self)))

    @_fact
    def atoms(self) -> frozenset[Atom]:
        """The atoms in this node and below it: an atom, an at-term, a
        bound variable.  Equal sets are one object."""
        sets = [c.atoms for c in children(self)]
        parts = [getattr(self, n) for n in self.__match_args__ if n not in self._kids]
        out = frozenset([a for a in parts if isinstance(a, Atom)]).union(*sets)
        for s in sets:
            if len(s) == len(out):
                return s
        return _atom_set(out)

    @cached_property
    def _stripped(self):
        return _false_for(self, self.fv)

    @cached_property
    def _closure(self):
        return frozenset(
            closure_sentence(g) for g in subformulas(self) if isinstance(g, (Diamond, Box))
        )

    @cached_property
    def _sentence(self):
        return strip_free(self.body if isinstance(self, Diamond) else Not(self.body))


_NO_VARS = frozenset()


@_node
class Atom(Formula):
    kind: str
    name: str

    def __post_init__(self):
        if self.kind not in (PROP, NOM, SVAR):
            raise ValueError(f"bad atom kind: {self.kind!r}")
        if not _IDENT_RE.fullmatch(self.name):
            raise ValueError(f"bad atom name: {self.name!r}")
        if self.kind == PROP and self.name in RESERVED_WORDS:
            raise ValueError(f"proposition name {self.name!r} is a keyword")

    @property
    def atoms(self):
        # not kept on the atom: a set holding its own node is a cycle
        return _atom_set(frozenset([self]))


def prop(name: str) -> Atom:
    return Atom(PROP, name)


def nom(name: str) -> Atom:
    return Atom(NOM, name)


def svar(name: str) -> Atom:
    return Atom(SVAR, name)


@_node
class Top(Formula):
    pass


@_node
class Bot(Formula):
    pass


@_node
class Not(Formula):
    body: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Implies(Formula):
    left: Formula
    right: Formula


@_node
class Iff(Formula):
    left: Formula
    right: Formula


@_node
class Diamond(Formula):
    body: Formula


@_node
class Box(Formula):
    body: Formula


@_node
class Future(Formula):
    """Forward modality F; evaluates exactly like Diamond, prints as F."""

    body: Formula


@_node
class Globally(Formula):
    body: Formula


@_node
class Past(Formula):
    body: Formula


@_node
class Historically(Formula):
    body: Formula


@_node
class Somewhere(Formula):
    """The global existential modality E."""

    body: Formula


@_node
class Everywhere(Formula):
    body: Formula


@_node
class At(Formula):
    term: Atom
    body: Formula

    def __post_init__(self):
        if self.term.kind == PROP:
            raise ValueError("at-term must be a nominal or state variable")


@_node
class Down(Formula):
    var: Atom
    body: Formula

    def __post_init__(self):
        if self.var.kind != SVAR:
            raise ValueError("down binds a state variable")


@_node
class Until(Formula):
    left: Formula
    right: Formula


@_node
class Since(Formula):
    left: Formula
    right: Formula


@_node
class UntilPlus(Formula):
    left: Formula
    right: Formula


@_node
class SincePlus(Formula):
    left: Formula
    right: Formula


@_node
class UntilPlusPlus(Formula):
    left: Formula
    right: Formula


@_node
class SincePlusPlus(Formula):
    left: Formula
    right: Formula


class ModalForm(NamedTuple):
    """How one of the eight one-place modalities reads the relation.

    ``<>phi`` holds at s when phi holds at some state one step from s, and
    ``[]phi`` when it holds at every one (``exists``).  The step is R, or
    R read backwards for the past pair P/H (``backward``), or every state
    for the global pair E/A (``universal``).  F and G are the tense
    spellings of <> and [], so the engines each write one modal clause.
    """

    exists: bool
    backward: bool
    universal: bool


MODAL_FORMS = {
    Diamond: ModalForm(True, False, False),
    Future: ModalForm(True, False, False),
    Box: ModalForm(False, False, False),
    Globally: ModalForm(False, False, False),
    Past: ModalForm(True, True, False),
    Historically: ModalForm(False, True, False),
    Somewhere: ModalForm(True, False, True),
    Everywhere: ModalForm(False, False, True),
}


class UntilForm(NamedTuple):
    """How one of the six Until/Since forms reads the relation.

    ``U(phi, psi)`` holds at s when a step from s reaches some n with phi,
    and psi holds at every u with s G u and u G n, where the step and the
    guard G are R or R+.  A Since form is its Until form on the converse
    relation (``backward``), so the checker, the lane engine and the
    standard translation each write the clause once.
    """

    backward: bool
    step_plus: bool
    guard_plus: bool


UNTIL_FORMS = {
    Until: UntilForm(False, False, False),
    Since: UntilForm(True, False, False),
    UntilPlus: UntilForm(False, False, True),
    SincePlus: UntilForm(True, False, True),
    UntilPlusPlus: UntilForm(False, True, True),
    SincePlusPlus: UntilForm(True, True, True),
}


# The mark each operator leaves on a signature, and each atom kind (an atom
# is keyed by its kind; a proposition leaves none).  Booleans, quantifiers
# and terms leave none, so every language admits them; ``hylo.satellites``
# adds the first-order atoms.  A language is the set of marks it admits.
MARKS = {
    Diamond: "<>", Box: "<>",
    Future: "F", Globally: "F",
    Past: "P", Historically: "P",
    Somewhere: "E", Everywhere: "E",
    At: "@", Down: "↓",
    Until: "U", Since: "S",
    UntilPlus: "U+", SincePlus: "S+",
    UntilPlusPlus: "U++", SincePlusPlus: "S++",
    NOM: NOM, SVAR: SVAR,
}

_SIGNATURES = {}  # each distinct signature, once


def _own_marks(g: _Node) -> frozenset[str]:
    """The marks of g itself: its class's, or its kind's for an atom, and
    those of the atoms it holds besides its children (an at-term, a bound
    variable)."""
    mark = MARKS.get(g.kind if isinstance(g, Atom) else type(g))
    marks = [mark] if mark else []
    for name in g.__match_args__:
        part = getattr(g, name)
        if isinstance(part, Atom) and name not in g._kids:
            marks += part.signature
    return frozenset(marks)


class Language(NamedTuple):
    """The marks a language admits, and its name for error messages."""

    name: str
    marks: frozenset


def check_language(f: _Node, language: Language) -> None:
    """Raise FragmentError, naming the first operator or atom of f
    (preorder) outside language, unless language admits f."""
    if f.signature <= language.marks:
        return
    g = next(g for g in subformulas(f) if not _own_marks(g) <= language.marks)
    what = f"operator {type(g).__name__}" if g._kids else f"atom {g}"
    raise FragmentError(f"{what} is outside {language.name}")


def children(f: _Node) -> tuple:
    """The subformulas one level below f, in field order."""
    return tuple([getattr(f, name) for name in f._kids])


def rebuild(f: _Node, kids) -> _Node:
    """f with its children replaced by kids, in order; an unchanged node
    comes back as itself, since nodes are interned."""
    if not f._kids:
        return f
    new = dict(zip(f._kids, kids))
    return type(f)(*[new[name] if name in new else getattr(f, name) for name in f.__match_args__])


def map_nodes(f: _Node, rewrite) -> _Node:
    """Bottom-up rewrite: children first, then the node itself."""
    if f.height > SHALLOW and not deep_stack.active:
        return on_deep_stack(f, map_nodes, f, rewrite)
    return rewrite(rebuild(f, [map_nodes(c, rewrite) for c in children(f)]))


def subformulas(f: _Node):
    """Yield f and every subformula, preorder."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack.extend(reversed(children(g)))


def compiled(f: _Node, cases: dict, slot: str, what: str):
    """The closure that evaluates f: ``cases[type(f)](f, *kids)``, given
    the closures of f's children, compiled the same way.  It is made on
    first use and kept in f's own ``__dict__`` under slot, children first
    on ``_upward``'s explicit stack.  A value with no case compiles to a
    closure that raises TypeError when called, so the error is as lazy as
    evaluation."""
    fn = getattr(f, slot, None)
    if fn is None:
        if type(f) not in cases:
            def fn(*args):
                raise TypeError(f"not {what}: {f!r}")
            return fn
        fn = _upward(
            f, slot,
            lambda g: cases[type(g)](g, *[compiled(c, cases, slot, what) for c in children(g)]),
            lambda g: type(g) in cases,
        )
    return fn


class _AtomSet(frozenset):
    """The atoms of a formula node, with the sorted names of each kind."""

    __slots__ = ("props", "noms", "svars")


# each distinct atom set, once, keyed by its names: the table holds the
# sets weakly, so it keeps no atom alive
_ATOM_SETS = weakref.WeakValueDictionary()


def _atom_set(atoms: frozenset) -> _AtomSet:
    names = tuple(tuple(sorted(a.name for a in atoms if a.kind == k)) for k in (PROP, NOM, SVAR))
    out = _ATOM_SETS.get(names)
    if out is None:
        out = _ATOM_SETS[names] = _AtomSet(atoms)
        out.props, out.noms, out.svars = names
    return out


def atoms_of(f: Formula) -> frozenset[Atom]:
    return f.atoms


def props_of(f: Formula) -> tuple[str, ...]:
    return f.atoms.props


def noms_of(f: Formula) -> tuple[str, ...]:
    return f.atoms.noms


def svars_of(f: Formula) -> tuple[str, ...]:
    return f.atoms.svars


def free_vars(f: Formula) -> frozenset[str]:
    """State variables with an occurrence not under a matching down binder."""
    return f.fv


def _sentence_guard(f: Formula) -> None:
    fv = free_vars(f)
    if fv:
        raise ValueError(f"not a sentence, free: {sorted(fv)}")


def strip_free(f: Formula) -> Formula:
    """Replace every free state-variable occurrence by false.

    An at-formula whose term is a free variable collapses to false as a
    whole, which is the substitution's image under @_t phi == E(t & phi).
    """
    # a sentence is its own stripped form; caching it would make a
    # self-reference that only the cycle collector frees
    return f._stripped if f.fv else f


def _false_for(f, names):
    """f with every free occurrence of the state variables in names replaced by false."""
    if f.height > SHALLOW and not deep_stack.active:
        return on_deep_stack(f, _false_for, f, names)
    if not f.fv & names:
        return f
    if isinstance(f, Atom) or isinstance(f, At) and f.term.kind == SVAR and f.term.name in names:
        return Bot()
    if isinstance(f, Down):
        names = names - {f.var.name}
    return rebuild(f, [_false_for(c, names) for c in children(f)])


HLD = Language("the down-fragment", frozenset(["<>", "↓", NOM, SVAR]))


def check_hld(f: Formula) -> None:
    """Reject formulas outside HL-down (atoms, Booleans, diamond/box, down)."""
    # the solver asks for every candidate: a warm call is one subset test
    if not f.signature <= HLD.marks:
        check_language(f, HLD)


def closure_sentence(g: Diamond | Box) -> Formula:
    """What a modal node contributes to the closure: strip_free of a
    diamond's body, or of the negated body of a box (not-diamond-not)."""
    return g._sentence


def diamond_closure(phi: Formula) -> frozenset[Formula]:
    """Closure sentences of phi: closure_sentence of each diamond and box."""
    check_hld(phi)
    return phi._closure


def modal_depth_count(f: Formula) -> int:
    """Number of diamond/box occurrences (bounds the closure cardinality)."""
    return sum(1 for g in subformulas(f) if isinstance(g, (Diamond, Box)))


# the operator pairs of a label's subscript, in order
_LABEL_PAIRS = (("F", "P"), ("U", "S"), ("U+", "S+"), ("U++", "S++"))


def fragment_of(f: Formula) -> str:
    """Smallest language label containing all operators of f.

    Labels mirror the usual naming scheme: ML, ML_U, HL, "HL^E_{U,S}" and
    so on; the down arrow is spelled with its unicode glyph.
    """
    marks = f.signature
    hybrid = not marks.isdisjoint([NOM, SVAR, "@", "E"])
    sup = ",".join(glyph for glyph, mark in (("↓", SVAR), ("@", "@"), ("E", "E")) if mark in marks)
    if sup and sup[0] != "↓":
        sup = "^" + sup
    subs = [op for pair in _LABEL_PAIRS if not marks.isdisjoint(pair) for op in pair]
    # a modal language with Until and no other binary operator is ML_U
    if not hybrid and "S" not in marks and subs[-2:] == ["U", "S"]:
        subs.pop()
    label = ("HL" if hybrid else "ML") + sup
    if len(subs) > 1:
        return f"{label}_{{{','.join(subs)}}}"
    return f"{label}_{subs[0]}" if subs else label


def recode_nominals(f: Formula) -> Formula:
    """Rewrite every nominal atom into a reserved-namespace proposition
    (an at-term is not a child, so it stays).

    A formula without nominals is its own recoding.  Any other keeps its
    recoding on the node (None when that is the node itself): a recoding
    that differs is as large as f but is not f, so it cannot hold f, and
    the cache makes no cycle."""
    if NOM not in f.signature:
        return f
    return _upward(f, "_recoded", _recode, lambda g: NOM in g.signature) or f


def _recode(g):
    if isinstance(g, Atom):
        return Atom(PROP, "_n_" + g.name)
    out = rebuild(g, [recode_nominals(c) for c in children(g)])
    return None if out is g else out


# ---------------------------------------------------------------------------
# Concrete syntax


class Op(NamedTuple):
    """One row of an operator table, read by its syntax's parser and printer:
    the operator as printed (its token stripped of spaces), how tightly it
    binds, and the floors of its operands before and after the token (None
    where it has none).  An operand whose strength is below its floor is
    bracketed.  A right floor equal to the strength associates to the
    right; a prefix or postfix floor is above every infix strength."""

    text: str
    strength: int
    left: int | None
    right: int | None


# the strength of constants and of prefix and postfix operators: no floor is above it
TIGHTEST = 9

# the floor of a prefix operand and of @'s body: above every infix operator
_UNARY = 5

# the hybrid operator table
_OPS = {
    Iff: Op(" <-> ", 1, 1, 2),
    Implies: Op(" -> ", 2, 3, 2),
    Or: Op(" | ", 3, 3, 4),
    And: Op(" & ", 4, 4, 5),
    Not: Op("~", TIGHTEST, None, _UNARY),
    Diamond: Op("<>", TIGHTEST, None, _UNARY),
    Box: Op("[]", TIGHTEST, None, _UNARY),
    Future: Op("F ", TIGHTEST, None, _UNARY),
    Globally: Op("G ", TIGHTEST, None, _UNARY),
    Past: Op("P ", TIGHTEST, None, _UNARY),
    Historically: Op("H ", TIGHTEST, None, _UNARY),
    Somewhere: Op("E ", TIGHTEST, None, _UNARY),
    Everywhere: Op("A ", TIGHTEST, None, _UNARY),
    Top: Op("true", TIGHTEST, None, None),
    Bot: Op("false", TIGHTEST, None, None),
}


def token_maps(ops: dict) -> tuple[dict, dict, dict, dict]:
    """A parser's view of an operator table: the class and row of each
    token, in four maps by the operands its row has: infix (both), prefix
    (right), postfix (left) and constant (none)."""
    maps = {(True, True): {}, (False, True): {}, (True, False): {}, (False, False): {}}
    for cls, op in ops.items():
        maps[op.left is not None, op.right is not None][op.text.strip()] = cls, op
    return tuple(maps.values())


def render(f: _Node, ops: dict, parts) -> str:
    """The concrete text of f under the operator table ops, on an explicit
    stack, not a Python frame per nesting level.  A node with a row prints
    its operands around the row's text at the row's floors, bracketed when
    its strength is below the floor it is printed at.  Any other node g
    prints as ``parts(g, floor, trailing)`` says: texts and (node, floor,
    trailing) operands, where trailing marks an operand that more tokens of
    an enclosing operator follow."""
    out, stack = [], [(f, 0, False)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        g, floor, trailing = item
        op = ops.get(type(g))
        if op is None:
            stack += reversed(parts(g, floor, trailing))
            continue
        # the row's pieces go on the stack last first
        bracket = op.strength < floor
        if bracket:
            out.append("(")
            stack.append(")")
        if op.right is not None:
            stack.append((getattr(g, g._kids[-1]), op.right, trailing and not bracket))
        if op.left is None:
            out.append(op.text)
        else:
            stack += [op.text, (getattr(g, g._kids[0]), op.left, True)]
    return "".join(out)


class _Tokens:
    """A cursor over the tokens of one text, shared by the concrete syntaxes.

    A subclass gives its token ``pattern`` (one named group per kind; ``ws``
    is dropped), the ``reserved`` kinds whose identifiers may not start
    with an underscore unless ``allow_reserved`` is set, and the ``error``
    class it raises.  A token is a (kind, value, offset) triple; every
    error carries the 1-based line and column of the token at fault,
    worked out from its offset by ``error_at`` only when it is raised.  A
    parser reads an operand with ``unary``, from its own ``prefixes`` (the
    tokens that start a prefix operator), ``prefix`` and ``primary``.
    """

    pattern: re.Pattern
    reserved = ()
    error = ParseError
    prefixes = frozenset()

    def __init__(self, text, allow_reserved=False):
        self.text = text
        self.toks = []
        self.i = 0
        pos = 0
        while pos < len(text):
            m = self.pattern.match(text, pos)
            if not m:
                raise self.error_at(pos, f"unexpected character {text[pos]!r}")
            kind = m.lastgroup
            if kind != "ws":
                value = m.group()
                if kind in self.reserved and value.lstrip("'$").startswith("_") and not allow_reserved:
                    raise self.error_at(pos, f"identifier {value!r} uses the reserved namespace")
                self.toks.append((kind, value, pos))
            pos = m.end()
        self.toks.append(("eof", "", pos))

    def error_at(self, pos, message):
        """The error for message at text offset pos, with its 1-based line
        and column."""
        line = self.text.count("\n", 0, pos) + 1
        return self.error(message, line, pos - self.text.rfind("\n", 0, pos))

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def fail(self, message):
        kind, value, pos = self.peek()
        shown = value if kind != "eof" else "end of input"
        raise self.error_at(pos, f"{message} (found {shown!r})")

    def expect(self, value):
        kind, got, pos = self.next()
        if got != value:
            raise self.error_at(pos, f"expected {value!r}, found {got!r}")

    def done(self, result):
        """result, once every token is read."""
        if self.peek()[0] != "eof":
            self.fail("trailing input")
        return result

    def unary(self):
        """An operand: a chain of prefix operators around one primary.  The
        chain is read in a loop while the next token is in ``prefixes``,
        each ``prefix`` reading one operator and giving its wrapper, and is
        wrapped around the primary from the inside out, so its length takes
        no Python frames."""
        wraps = []
        while self.toks[self.i][1] in self.prefixes:
            wraps.append(self.prefix())
        f = self.primary()
        while wraps:
            f = wraps.pop()(f)
        return f

    def infix(self, ops, operand, floor=0):
        """Operands read by operand, joined by the infix operators of ops (a
        ``token_maps`` map) that bind at least as tightly as floor, each
        right operand at its row's right floor (precedence climbing)."""
        left = operand()
        while (row := ops.get(self.peek()[1])) and row[1].strength >= floor:
            self.next()
            left = row[0](left, self.infix(ops, operand, row[1].right))
        return left


# the parser reads the printer's tables backwards
_INFIX, _PREFIX_CLASSES, _, _CONSTANTS = token_maps(_OPS)


class _Parser(_Tokens):
    pattern = re.compile(
        r"""
        (?P<ws>\s+)
      | (?P<op><->|->|<>|\[\]|[()&|~@+,.])
      | (?P<nomtok>'[A-Za-z_][A-Za-z0-9_]*)
      | (?P<svartok>\$[A-Za-z_][A-Za-z0-9_]*)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
        """,
        re.VERBOSE,
    )
    reserved = ("nomtok", "svartok", "ident")
    prefixes = frozenset([*_PREFIX_CLASSES, "@"])

    def prefix(self):
        value = self.next()[1]
        if value != "@":
            return _PREFIX_CLASSES[value][0]
        tkind, tval, tpos = self.next()
        if tkind not in _SIGILS:
            raise self.error_at(tpos, "at-term must be a nominal or state variable")
        return partial(At, Atom(_SIGILS[tkind], tval[1:]))

    def primary(self):
        kind, value, _ = self.peek()
        if value == "(":
            self.next()
            f = self.infix(_INFIX, self.unary)
            self.expect(")")
            return f
        if kind in _SIGILS:
            self.next()
            return Atom(_SIGILS[kind], value[1:])
        if kind != "ident":
            self.fail("expected a formula")
        self.next()
        if value in _CONSTANTS:
            return _CONSTANTS[value][0]()
        if value == "down":
            vkind, vval, vpos = self.next()
            if vkind != "svartok":
                raise self.error_at(vpos, "down binds a state variable")
            self.expect(".")
            return Down(Atom(SVAR, vval[1:]), self.infix(_INFIX, self.unary))
        if value in _APP_CLASSES:
            while value + "+" in _APP_CLASSES and self.peek()[1] == "+":
                value += self.next()[1]
            self.expect("(")
            left = self.infix(_INFIX, self.unary)
            self.expect(",")
            right = self.infix(_INFIX, self.unary)
            self.expect(")")
            return _APP_CLASSES[value](left, right)
        return Atom(PROP, value)


def parse(text: str, allow_reserved: bool = False) -> Formula:
    """Parse concrete syntax into a Formula; raises ParseError with position."""
    parser = _Parser(text, allow_reserved)
    return parser.done(parser.infix(_INFIX, parser.unary))


_APP_TOKENS = {
    Until: "U",
    Since: "S",
    UntilPlus: "U+",
    SincePlus: "S+",
    UntilPlusPlus: "U++",
    SincePlusPlus: "S++",
}


_APP_CLASSES = {token: cls for cls, token in _APP_TOKENS.items()}
_SIGILS = {"nomtok": NOM, "svartok": SVAR}

# identifiers the parser reads as operators or constants, so no
# proposition may take one as its name
RESERVED_WORDS = frozenset(t for t in [*_PREFIX_CLASSES, *_APP_CLASSES, *_CONSTANTS, "down"] if t.isidentifier())


def _atom_text(a: Atom) -> str:
    sigil = {PROP: "", NOM: "'", SVAR: "$"}[a.kind]
    return sigil + a.name


def print_formula(f: Formula) -> str:
    """Canonical concrete syntax; parse(print_formula(f)) == f structurally."""
    return render(f, _OPS, _parts)


def _parts(g, floor, trailing):
    """How a hybrid node without an operator row prints.  A down binder's
    body extends as far right as it can, so a binder that more tokens
    follow is bracketed."""
    if isinstance(g, Atom):
        return [_atom_text(g)]
    if type(g) in _APP_TOKENS:
        return [f"{_APP_TOKENS[type(g)]}(", (g.left, 0, False), ", ", (g.right, 0, False), ")"]
    if isinstance(g, At):
        return [f"@{_atom_text(g.term)} ", (g.body, _UNARY, trailing)]
    if isinstance(g, Down):
        parts = [f"down {_atom_text(g.var)} . ", (g.body, 0, False)]
        return ["(", *parts, ")"] if trailing else parts
    raise TypeError(f"not a formula node: {g!r}")
