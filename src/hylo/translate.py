"""Logic-to-logic translations and reductions, as total functions on ASTs.

Every fresh name comes from one source, ``_Names``, seeded with the names
of the input.  A binder takes its customary short name (x, y, i, v, s), or
that name with the first free numeric suffix when the name already occurs;
first-order variables are numbered per base (y0, y1, ...).  No fresh name
is reserved, so every output reads back, and no translation captures a
variable free in its input.
"""

from __future__ import annotations

from functools import partial, reduce

from .formula import (
    HLD,
    MODAL_FORMS,
    NOM,
    PROP,
    RESERVED_WORDS,
    SVAR,
    UNTIL_FORMS,
    And,
    At,
    Atom,
    Bot,
    Box,
    Diamond,
    Down,
    Everywhere,
    Formula,
    FragmentError,
    Future,
    Globally,
    Historically,
    Iff,
    Implies,
    Language,
    Not,
    Or,
    Past,
    Since,
    SincePlusPlus,
    Somewhere,
    Top,
    Until,
    UntilPlusPlus,
    atoms_of,
    check_hld,
    check_language,
    children,
    map_nodes,
    noms_of,
    props_of,
    rebuild,
    svar,
)
from .formula import SHALLOW, deep_stack, on_deep_stack
from . import satellites as sat


class _Names:
    """The fresh-name source of every translation, seeded with every name
    of the inputs: the atom names of a hybrid formula, or the variable
    names of a first-order one (its constants and predicates become
    nominals and propositions, which no state variable can capture)."""

    def __init__(self, *formulas):
        self.used = set()
        self.counts = {}
        for f in formulas:
            if isinstance(f, sat.FOFormula):
                self.used.update(sat.fo_vars(f))
            else:
                self.used.update(a.name for a in atoms_of(f))

    def svar(self, pretty):
        return Atom(SVAR, self._pick(pretty))

    def nom(self, pretty):
        return Atom(NOM, self._pick(pretty))

    def _pick(self, pretty, sep=""):
        """The pretty name, or else it with the first free numeric suffix
        (after sep): never a reserved name, so every output reads back."""
        name, k = pretty, 0
        while name in self.used:
            k += 1
            name = f"{pretty}{sep}{k}"
        self.used.add(name)
        return name

    def numbered(self, base):
        """The next of base0, base1, ... (one count per base) that is not
        yet used."""
        while True:
            n = self.counts.get(base, 0)
            self.counts[base] = n + 1
            name = f"{base}{n}"
            if name not in self.used:
                self.used.add(name)
                return name


def _fo_names(alpha):
    """A source of variables to add to alpha: constants print as bare
    names too, so they are used as well as alpha's variables."""
    names = _Names(alpha)
    names.used.update(sat.fo_constants(alpha))
    return names


# ---------------------------------------------------------------------------
# Until and Since through the binder


def until_via_down(phi: Formula, psi: Formula) -> Formula:
    """U(phi, psi) as down x. dia down y. (phi & @x [](dia y -> psi))."""
    names = _Names(phi, psi)
    x, y = names.svar("x"), names.svar("y")
    return Down(x, Diamond(Down(y, And(phi, At(x, Box(Implies(Diamond(y), psi)))))))


def until_via_down_tense(phi: Formula, psi: Formula) -> Formula:
    """U(phi, psi) as down x. F(phi & H(P x -> psi))."""
    names = _Names(phi, psi)
    x = names.svar("x")
    return Down(x, Future(And(phi, Historically(Implies(Past(x), psi)))))


def since_via_down_tense(phi: Formula, psi: Formula) -> Formula:
    """S(phi, psi) as down x. P(phi & G(F x -> psi))."""
    names = _Names(phi, psi)
    x = names.svar("x")
    return Down(x, Past(And(phi, Globally(Implies(Future(x), psi)))))


# ---------------------------------------------------------------------------
# Modal logic into the Until language, global satisfiability reduction


_ML = Language("modal logic", frozenset(["<>"]))


def ml_to_until(phi: Formula) -> Formula:
    """Homomorphic image with dia phi mapped to U(phi, false)."""
    check_language(phi, _ML)

    def rewrite(g):
        if isinstance(g, Diamond):
            return Until(g.body, Bot())
        if isinstance(g, Box):
            return Not(Until(Not(g.body), Bot()))
        return g

    return map_nodes(phi, rewrite)


def globsat_reduction(phi: Formula) -> Formula:
    """f(phi) = phi^t & [] phi^t for the global satisfiability reduction."""
    t = ml_to_until(phi)
    return And(t, Box(t))


# ---------------------------------------------------------------------------
# U / U++ exchange


def u_to_upp(phi: Formula) -> Formula:
    def rewrite(g):
        if isinstance(g, Until):
            return UntilPlusPlus(g.left, g.right)
        if isinstance(g, Since):
            return SincePlusPlus(g.left, g.right)
        return g

    return map_nodes(phi, rewrite)


def upp_to_u(phi: Formula) -> Formula:
    def rewrite(g):
        if isinstance(g, UntilPlusPlus):
            return Until(g.left, g.right)
        if isinstance(g, SincePlusPlus):
            return Since(g.left, g.right)
        return g

    return map_nodes(phi, rewrite)


# ---------------------------------------------------------------------------
# Standard Translation into first-order logic


class _STContext(_Names):
    """Names for the standard translation: the first-order variables
    y0, y1, ... avoid the anchor and every atom name of phi."""

    def __init__(self, phi, anchor):
        super().__init__(phi)
        self.used.add(anchor)
        self.bound = {}  # state variable -> the first-order variable binding it


def _st_term(term, ctx):
    if term.kind == NOM:
        return sat.FOConst(term.name)
    return sat.FOVar(ctx.bound.get(term.name, term.name))


def standard_translation(phi: Formula, anchor: str = "x", complete_frames: bool = False) -> sat.FOFormula:
    """ST over one binary relation; closure operators emit R-plus atoms.

    With complete_frames the diamond rule drops its relation guard, which
    is the monadic-class image used over complete frames.
    """
    if phi.height > SHALLOW and not deep_stack.active:
        return on_deep_stack(phi, standard_translation, phi, anchor, complete_frames)
    if complete_frames:
        check_hld(phi)
    ctx = _STContext(phi, anchor)

    def rec(f, x):
        if isinstance(f, Atom):
            if f.kind == PROP:
                return sat.Pred(f.name, sat.FOVar(x))
            return sat.Eq(_st_term(f, ctx), sat.FOVar(x))
        boolean = _HL_BOOLEANS.get(type(f))
        if boolean is not None:
            return boolean(*[rec(c, x) for c in children(f)])
        form = MODAL_FORMS.get(type(f))
        if form is not None:
            y = ctx.numbered("y")
            body = rec(f.body, y)
            quantifier = sat.Exists if form.exists else sat.Forall
            # over complete frames check_hld let only <> and [] through
            if form.universal or complete_frames:
                return quantifier(y, body)
            a, b = (y, x) if form.backward else (x, y)
            connective = sat.FOAnd if form.exists else sat.FOImplies
            return quantifier(y, connective(sat.Rel(sat.FOVar(a), sat.FOVar(b)), body))
        if isinstance(f, At):
            y = ctx.numbered("y")
            return sat.Exists(y, sat.FOAnd(sat.Eq(sat.FOVar(y), _st_term(f.term, ctx)), rec(f.body, y)))
        if isinstance(f, Down):
            v = f.var.name
            # a binder named like the current world variable would capture it
            fo_v = ctx.numbered("y") if v == x else v
            outer = ctx.bound.get(v, v)
            ctx.bound[v] = fo_v
            body = rec(f.body, x)
            ctx.bound[v] = outer
            return sat.Exists(fo_v, sat.FOAnd(sat.Eq(sat.FOVar(x), sat.FOVar(fo_v)), body))
        form = UNTIL_FORMS.get(type(f))
        if form is not None:
            y, z = ctx.numbered("y"), ctx.numbered("y")
            step = sat.RelPlus if form.step_plus else sat.Rel
            guard = sat.RelPlus if form.guard_plus else sat.Rel
            # the path runs from the anchor to the witness y, or for a past
            # form from the witness to the anchor, through every z between
            a, b = (y, x) if form.backward else (x, y)
            return sat.Exists(
                y,
                sat.FOAnd(
                    sat.FOAnd(step(sat.FOVar(a), sat.FOVar(b)), rec(f.left, y)),
                    sat.Forall(
                        z,
                        sat.FOImplies(
                            sat.FOAnd(guard(sat.FOVar(a), sat.FOVar(z)), guard(sat.FOVar(z), sat.FOVar(b))),
                            rec(f.right, z),
                        ),
                    ),
                ),
            )
        raise TypeError(f"not a formula node: {f!r}")

    return rec(phi, anchor)


# Booleans map to themselves: each first-order connective's hybrid one
# (the skeleton of _fo_to_hl), and read backwards for the standard
# translation, where Iff is the one derived row
_FO_BOOLEANS = {
    sat.FOTrue: Top, sat.FOFalse: Bot, sat.FONot: Not,
    sat.FOAnd: And, sat.FOOr: Or, sat.FOImplies: Implies,
}
_HL_BOOLEANS = {
    **{hl: fo for fo, hl in _FO_BOOLEANS.items()},
    Iff: lambda a, b: sat.FOAnd(sat.FOImplies(a, b), sat.FOImplies(b, a)),
}


def st_complete(phi: Formula, anchor: str = "x") -> sat.FOFormula:
    """The monadic-class image over complete frames: the diamond rule loses
    its relation guard because every pair is related."""
    return standard_translation(phi, anchor, complete_frames=True)


# ---------------------------------------------------------------------------
# The monadic class with equality and complete frames


def _prop_names(alpha):
    """An injective map from the predicates of alpha to proposition names.

    A predicate takes its customary name, lowercased or with q before a
    leading digit, unless that name is a keyword or another predicate
    claimed it first (one that already bears the name claims first); the
    rest take the customary name with the first free numeric suffix.
    """
    preds = sorted(sat.fo_preds(alpha))
    want = {p: p.lower() if p[0].isalpha() else "q" + p for p in preds}
    out = {}
    names = _Names()
    names.used.update(RESERVED_WORDS)
    for p in sorted(preds, key=lambda p: want[p] != p):
        if want[p] not in names.used:
            out[p] = want[p]
            names.used.add(want[p])
    names.used.update(want.values())
    for p in (p for p in preds if p not in out):
        out[p] = names._pick(want[p], "_")
    return out


def _fo_to_hl(alpha, reach, place, step, props):
    """The first-order-to-hybrid skeleton the reductions share.

    Booleans map to themselves.  E x. a becomes reach(down x. a'), where
    reach leads to some element, and A x. a is its dual.  An atom puts a
    hybrid formula at the element a term names, through place: P(t)
    places the proposition props[P], t=u places u, and R(t,u) places step(u).
    Constants become nominals and variables state variables.
    """
    if alpha.height > SHALLOW and not deep_stack.active:
        return on_deep_stack(alpha, _fo_to_hl, alpha, reach, place, step, props)

    def term(t):
        return Atom(NOM if isinstance(t, sat.FOConst) else SVAR, t.name)

    def rec(g):
        kind = type(g)
        if kind in _FO_BOOLEANS:
            return _FO_BOOLEANS[kind](*[rec(c) for c in children(g)])
        if kind is sat.Exists:
            return reach(Down(svar(g.var), rec(g.body)))
        if kind is sat.Forall:
            return Not(reach(Down(svar(g.var), Not(rec(g.body)))))
        if kind is sat.Pred:
            return place(term(g.term), Atom(PROP, props[g.name]))
        if kind is sat.Eq:
            return place(term(g.left), term(g.right))
        if kind is sat.Rel:
            return place(term(g.left), step(term(g.right)))
        raise TypeError(f"unsupported FO node: {g!r}")

    return rec(alpha)


def ht(alpha: sat.FOFormula) -> Formula:
    """Monadic-class sentences into the down-fragment over complete frames."""
    check_language(alpha, sat.MC_EQ)
    return _fo_to_hl(alpha, Diamond, lambda t, h: Diamond(And(t, h)), Diamond, _prop_names(alpha))


def complete_reduction(alpha: sat.FOFormula) -> Formula:
    """(down x. [] dia x) & HT(alpha): forces the generated subframe complete."""
    x = svar("x")
    return And(Down(x, Box(Diamond(x))), ht(alpha))


# ---------------------------------------------------------------------------
# Zig-zag: one binary relation into a transitive one


def _rename_apart(alpha):
    """Each quantifier that rebinds a variable bound above it binds a
    fresh name instead, one that names no variable or constant of alpha."""
    names = _fo_names(alpha)
    return sat.fo_rename(alpha, lambda v, scope: names.numbered(v) if v in scope else v, sat.FOVar)


_ONE_RELATION = Language("first-order logic over one binary relation only", frozenset(["R"]))


def zigzag(alpha: sat.FOFormula) -> sat.FOFormula:
    """Relation atoms become zig-zag gadgets over four level predicates."""
    check_language(alpha, _ONE_RELATION)
    alpha = _rename_apart(alpha)
    names = _fo_names(alpha)

    def rewrite(g):
        if isinstance(g, sat.Rel):
            x, y = g.left, g.right
            a, b, c = (sat.FOVar(names.numbered(n)) for n in ("a", "b", "c"))
            body = reduce(
                sat.FOAnd,
                [
                    sat.Rel(x, a),
                    sat.Rel(b, a),
                    sat.Rel(b, c),
                    sat.Rel(y, c),
                    sat.Pred("0", x),
                    sat.Pred("1", a),
                    sat.Pred("2", b),
                    sat.Pred("3", c),
                    sat.Pred("0", y),
                ],
            )
            return sat.Exists(a.name, sat.Exists(b.name, sat.Exists(c.name, body)))
        if isinstance(g, sat.Exists):
            return sat.Exists(g.var, sat.FOAnd(sat.Pred("0", sat.FOVar(g.var)), g.body))
        if isinstance(g, sat.Forall):
            return sat.Forall(g.var, sat.FOImplies(sat.Pred("0", sat.FOVar(g.var)), g.body))
        return g

    return map_nodes(alpha, rewrite)


# ---------------------------------------------------------------------------
# Spy-point reductions from [all,(u,1)]


def _spy_sentence(alpha):
    """alpha with its quantifiers renamed apart, and a spy variable fresh for it."""
    check_language(alpha, sat.ALL_U1)
    if sat.fo_free_vars(alpha):
        raise FragmentError("spy reductions expect a sentence")
    alpha = _rename_apart(alpha)
    return alpha, _Names(alpha).svar("i")


def spy_at(alpha: sat.FOFormula) -> Formula:
    """f(alpha) = down i. (~dia i & dia alpha^t), @-based spy point."""
    alpha, spy = _spy_sentence(alpha)
    body = _fo_to_hl(alpha, lambda h: At(spy, Diamond(h)), At, Diamond, _prop_names(alpha))
    return Down(spy, And(Not(Diamond(spy)), Diamond(body)))


def spy_fp(alpha: sat.FOFormula) -> Formula:
    """The F,P variant of the spy-point reduction."""
    alpha, spy = _spy_sentence(alpha)

    def reach(h):
        return Past(And(spy, Future(h)))

    body = _fo_to_hl(alpha, reach, lambda t, h: reach(And(t, h)), Future, _prop_names(alpha))
    return Down(spy, And(Not(Future(spy)), Future(body)))


# ---------------------------------------------------------------------------
# Transitive trees over the natural numbers


_HLD_FP = Language("the down-F,P fragment", HLD.marks | {"F", "P"})


def _f1(psi, sim):
    # direct-successor F: F1 psi == U(psi, false), then the down-simulation
    return sim(psi, Bot())


def _g1(psi, sim):
    return Not(sim(Not(psi), Bot()))


def tt_to_nat_tense(phi: Formula) -> Formula:
    """f(phi) = phi & lambda & H lambda & H G lambda & P H false.

    lambda names a direct successor and forces all direct successors equal,
    written through Until/Since and then their binder simulations, so the
    result stays inside the down-F,P fragment.
    """
    check_language(phi, _HLD_FP)
    names = _Names(phi)
    y = names.svar("y")
    inner = Down(y, since_via_down_tense(_g1(y, until_via_down_tense), Bot()))
    lam = Implies(Future(Top()), until_via_down_tense(inner, Bot()))
    return And(
        And(And(And(phi, lam), Historically(lam)), Historically(Globally(lam))),
        Past(Historically(Bot())),
    )


def tt_to_nat_at(phi: Formula) -> Formula:
    """The @-variant: simulate P through the spy point, then force
    unique direct successors with the binder simulation of Until."""
    if phi.height > SHALLOW and not deep_stack.active:
        return on_deep_stack(phi, tt_to_nat_at, phi)
    check_language(phi, _HLD_FP)
    names = _Names(phi)
    spy = names.svar("i")

    def rec(g):
        form = MODAL_FORMS.get(type(g))
        if form is not None:  # E and A are outside the fragment
            # a box is not-diamond-not; a past diamond looks down from the
            # spy point for a state that sees this one, v, which is named
            # before the body is rewritten
            v = names.svar("v") if form.backward else None
            body = rec(g.body) if form.exists else Not(rec(g.body))
            if form.backward:
                out = Down(v, At(spy, Diamond(And(body, Diamond(v)))))
            else:
                out = Diamond(body)
            return out if form.exists else Not(out)
        # every other node keeps its operator over the rewritten children
        return rebuild(g, [rec(c) for c in children(g)])

    image = rec(phi)
    noms = sorted({a.name for a in atoms_of(phi) if a.kind == NOM})
    mu = reduce(And, [At(spy, Diamond(Atom(NOM, j))) for j in noms]) if noms else Top()
    x, y = names.svar("x"), names.svar("y")
    lam = Implies(
        Diamond(Top()),
        Down(x, _f1(Down(y, At(x, _g1(y, until_via_down))), until_via_down)),
    )
    return Down(spy, And(And(And(Diamond(image), mu), lam), Box(lam)))


# ---------------------------------------------------------------------------
# Linear frames


_HLDAT_FP = Language("the down-@-F,P fragment", _HLD_FP.marks | {"@"})


def at_elim_linear(phi: Formula) -> Formula:
    """Rewrite @t psi as P(t & psi) | (t & psi) | F(t & psi), bottom-up."""
    check_language(phi, _HLDAT_FP)

    def rewrite(g):
        if isinstance(g, At):
            core = And(g.term, g.body)
            return Or(Or(Past(core), core), Future(core))
        return g

    return map_nodes(phi, rewrite)


_STRINGS = Language("the string signature", frozenset(["R", "=", "pred"]))


def string_reduction(alpha: sat.FOFormula, sigma) -> Formula:
    """FO over strings into the down-@ language over linear frames.

    The spy point s precedes every string position; the companion sentence
    forces the generated subframe to look like a finite nonempty discrete
    word over sigma.
    """
    sigma = list(sigma)
    if not sigma:
        raise ValueError("alphabet must be nonempty")
    bad = sat.fo_preds(alpha) - set(sigma)
    if bad:
        raise FragmentError(f"letter predicates outside the alphabet: {sorted(bad)}")
    keywords = RESERVED_WORDS.intersection(sigma)
    if keywords:
        raise FragmentError(f"letters that are keywords: {sorted(keywords)}")
    reserved = sorted(a for a in sigma if a.startswith("_"))
    if reserved:
        raise FragmentError(f"letters in the reserved namespace: {reserved}")
    check_language(alpha, _STRINGS)
    if sat.fo_free_vars(alpha):
        raise FragmentError("string reduction expects a sentence")
    alpha = _rename_apart(alpha)
    names = _Names(alpha)
    s = names.svar("s")
    names.used.update(sigma)
    x, y = names.svar("x"), names.svar("y")
    fl = And(
        Diamond(Down(x, At(s, Box(Not(Diamond(x)))))),
        Diamond(Box(Bot())),
    )
    discrete = Box(
        Implies(
            Diamond(Top()),
            Down(x, Diamond(Down(y, At(x, Box(Box(Not(y))))))),
        )
    )
    unique = Box(
        reduce(
            Or,
            [
                reduce(
                    And,
                    [Atom(PROP, a)]
                    + [Not(Atom(PROP, b)) for b in sigma if b != a]
                )
                for a in sigma
            ]
        )
    )
    psi = And(And(fl, discrete), unique)

    def reach(h):
        return At(s, Diamond(h))

    letters = {a: a for a in sigma}
    return Down(s, And(_fo_to_hl(alpha, reach, lambda t, h: reach(And(t, h)), Diamond, letters), psi))


# ---------------------------------------------------------------------------
# E-operator elimination over transitive frames


_HLE_US = Language("the E-U,S language", frozenset(["<>", "F", "E", "U", "S", NOM]))


def exists_to_at(phi: Formula) -> Formula:
    """f(phi) = i & ~dia i & dia phi^t with E psi mapped to @i dia psi."""
    check_language(phi, _HLE_US)
    spy = _Names(phi).nom("i")

    def rewrite(g):
        if isinstance(g, Somewhere):
            return At(spy, Diamond(g.body))
        if isinstance(g, Everywhere):
            return Not(At(spy, Diamond(Not(g.body))))
        return g

    image = map_nodes(phi, rewrite)
    return And(And(spy, Not(Diamond(spy))), Diamond(image))


# ---------------------------------------------------------------------------
# PDL over sibling-ordered trees


def _pdl_atoms(phi):
    """The PDL atom of each nominal of phi: its own name, or, when a
    proposition of phi has that name too, the name with the first free
    _k suffix.  Propositions keep their names."""
    names = _Names(phi)
    props = set(props_of(phi))
    return {i: names._pick(i, "_") if i in props else i for i in noms_of(phi)}


def pdl_translate(phi: Formula, flat: bool = False) -> sat.PdlFormula:
    """The composition map into tree PDL, one node at a time; a nominal
    becomes the atom _pdl_atoms gives it.  A diamond or box (F, G) is the
    Until with guard true, and E, A look along up*;down*."""
    if phi.height > SHALLOW and not deep_stack.active:
        return on_deep_stack(phi, pdl_translate, phi, flat)
    check_language(phi, _HLE_US)
    noms = _pdl_atoms(phi)
    if flat:
        flatp = sat.PdlAtom("_flat")
        dn = sat.Choice(
            sat.Seq(sat.DownP(), sat.Test(sat.PdlNot(flatp))),
            sat.Seq(sat.Test(flatp), sat.Up()),
        )
        up = sat.Choice(
            sat.Seq(sat.Test(sat.PdlNot(flatp)), sat.Up()),
            reduce(sat.Seq, [sat.Test(flatp), sat.DownP(), sat.Test(flatp)]),
        )
    else:
        dn, up = sat.DownP(), sat.Up()

    def steps(step, guard):
        return sat.Seq(sat.Star(sat.Seq(step, sat.Test(guard))), step)

    def nand(a, b):
        return sat.PdlNot(sat.PdlAnd(a, b))

    later = steps(dn, sat.pdl_true())
    everywhere = sat.Seq(sat.Star(sat.Up()), sat.Star(sat.DownP()))
    # each node's image, from the images of its children
    image = {
        Top: sat.pdl_true,
        Bot: sat.pdl_false,
        Not: sat.PdlNot,
        And: sat.PdlAnd,
        Or: lambda a, b: nand(sat.PdlNot(a), sat.PdlNot(b)),
        Implies: lambda a, b: nand(a, sat.PdlNot(b)),
        Iff: lambda a, b: sat.PdlAnd(nand(a, sat.PdlNot(b)), nand(b, sat.PdlNot(a))),
        **{
            cls: partial(
                sat.PdlDiamond if form.exists else sat.pdl_box, everywhere if form.universal else later
            )
            for cls, form in MODAL_FORMS.items()
            if not form.backward
        },
        Until: lambda a, b: sat.PdlDiamond(steps(dn, b), a),
        Since: lambda a, b: sat.PdlDiamond(steps(up, b), a),
    }

    def rec(g):
        if isinstance(g, Atom):
            return sat.PdlAtom(noms[g.name] if g.kind == NOM else g.name)
        return image[type(g)](*[rec(c) for c in children(g)])

    return rec(phi)


def nominal_uniqueness(i: str) -> sat.PdlFormula:
    """nu(i): the atom for nominal i is true at exactly one tree node, so
    at no node below, above, or beside one where it holds."""
    elsewhere = " & ".join(f"~<{way}>~~{i}" for way in ("down+", "up+", "up*;left+;down*", "up*;right+;down*"))
    return sat.parse_pdl(f"<down*>{i} & ~<down*>~~({i} & ~({elsewhere}))")


def _with_uniqueness(phi, image):
    """image conjoined with nu of each nominal of phi, in name order."""
    return reduce(sat.PdlAnd, map(nominal_uniqueness, _pdl_atoms(phi).values()), image)


def pdl_reduction(phi: Formula) -> sat.PdlFormula:
    """f(phi) = <down*> phi^t & the uniqueness constraints for nominals."""
    return _with_uniqueness(phi, sat.PdlDiamond(sat.Star(sat.DownP()), pdl_translate(phi)))


def flat_path_marker() -> sat.PdlFormula:
    """beta: the flat marker labels the root and exactly one downward path:
    a marked node has a marked child and no marked sibling, and an unmarked
    node has no marked child."""
    follows = "~<left+>~~_flat & ~<right+>~~_flat & <down>_flat"
    return sat.parse_pdl(f"_flat & ~<down*>~~(_flat & ~({follows})) & ~<down*>~~(~_flat & ~~<down>~~_flat)")


def pdl_reduction_flat(phi: Formula) -> sat.PdlFormula:
    """f-flat: the rootless variant, predecessors turned into marked successors."""
    return _with_uniqueness(phi, sat.PdlAnd(pdl_translate(phi, flat=True), flat_path_marker()))
