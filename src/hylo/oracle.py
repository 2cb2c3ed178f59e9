"""Brute-force finite-model enumeration per frame class.

This is the ground truth the rest of the toolkit is checked against.
Every frame it touches comes from one generator, ``_classes``: one
relation per isomorphism class of the frame class and size, built per
process by one-point extension of the classes one size down, keeping one
extension per canonical code (colour refinement, then the relabelings
within each colour).

* ``frames`` and ``enumerate_models`` yield every labeled frame or model:
  the relabelings of each class representative, which by the
  orbit-stabilizer theorem are exactly the labeled members of its class.
* ``brute_sat`` / ``brute_global_sat`` / ``find_eval_difference`` evaluate
  formulas over all valuations of a frame at once, one bit lane per
  valuation, on the class representatives alone.  Every valuation and
  every nominal placement of a frame is a lane or a placement, so the
  classes give the labeled sweep's verdicts and hit sizes.  The lane
  evaluator is cross-checked against the plain checker exhaustively at
  small sizes in the test suite.

The first hit of a sweep is the least (size, class, lane, placement):
classes in table order, lanes in valuation-code order, placements
lexicographically, and within them the first state.  Sweeps run in
batches cut to a word budget: consecutive classes are joined into arrays
of about ``_WORD_BUDGET`` words per (frame, state, lane plane) array, so
small frames share one numpy call and memory stays flat however many
lanes a frame has; the first hit does not depend on the batch size.
``any`` frames are the only class whose R+ differs from R, so only their
batches build it.

``brute_fo_sat`` searches relational structures for a first-order sentence
by backtracking over atom truth values with frame-constraint propagation;
naive enumeration cannot refute at the domain sizes the translations need.
The search (``_FOSearch``) keeps every decided atom and composite
requirement in one truth map, records every change as one
``(undo, argument)`` step on one trail, and imposes and evaluates
requirements through one case table per node class.  Over the classes
closed under permutations (``any``, ``transitive``, ``complete``) it
breaks element symmetry: constants take only restricted-growth
assignments, and an existential branch tries the named elements and the
least unnamed one (``_FOSearch``).  Each pruned branch is
isomorphic to one tried before it, so the first structure found is the
one the full search finds.  Over ``linear`` and ``transitive-tree`` it
fixes the relation to each class representative in turn.  Outside ``any``
every class is transitive, so an R+ atom reads as R there.
"""

from __future__ import annotations

from functools import cache
from itertools import compress, permutations, product

import numpy as np

from .formula import (
    MARKS,
    MODAL_FORMS,
    NOM,
    PROP,
    UNTIL_FORMS,
    And,
    At,
    Atom,
    Bot,
    Down,
    Everywhere,
    Formula,
    Iff,
    Implies,
    Language,
    Not,
    Or,
    Top,
    _sentence_guard,
    check_language,
    noms_of,
    props_of,
    record,
)
from .formula import SHALLOW, deep_stack, on_deep_stack
from .model import HybridModel, _decode_valuation
from . import satellites as sat

FRAME_CLASSES = ("any", "transitive", "complete", "transitive-tree", "linear")

# A sweep batch holds about this many uint64 words per (frame, state, lane
# plane) array: batches of small frames share one numpy call, and memory per
# array stays fixed however many lanes a frame has.  ``frames`` relabels
# about this many labeled frames at a time.
_WORD_BUDGET = 1 << 13


def _check_bound(frame, bound, name):
    if frame not in FRAME_CLASSES:
        raise ValueError(f"unknown frame class {frame!r}")
    if bound < 1:
        raise ValueError(f"{name} must be >= 1")


# ---------------------------------------------------------------------------
# Frames: one relation per isomorphism class, and its relabelings

_CLASS_CACHE: dict[tuple[str, int], np.ndarray] = {}

# a table build extends about this many relations at a time, which bounds
# its temporaries (a cold ``hylo oracle`` pays its peak)
_EXTENSION_CHUNK = 1 << 11


def _classes(frame, k):
    """One relation per isomorphism class of the frame class on k states,
    as a (C, k, k) boolean array, built once per process and size.

    Deleting a state keeps a relation in its class (for a transitive tree,
    deleting a leaf does), so every class on k states has a member that
    extends a class representative on k - 1 states by one last state.  The
    extensions that stay in the class are kept, one per canonical code, and
    the first extension of each class represents it.  The order is fixed:
    parent class, then the new state's successor set, its predecessor set
    (each as a bit mask) and its loop.  So the first class is the empty
    relation, and for linear frames the one class is ``s < t``.  Parents
    are extended a chunk at a time, in order, and each chunk keeps the
    first extension of every code no earlier extension had; so memory
    follows the class count, not the extension count.
    """
    table = _CLASS_CACHE.get((frame, k))
    if table is None:
        _check_bound(frame, k, "k")
        parents = np.zeros((1, 0, 0), dtype=bool) if k == 1 else _classes(frame, k - 1)
        seen, kept, start, step = set(), [], 0, 1
        while start < len(parents):
            ext = _extensions(frame, parents[start : start + step])
            start += step
            # every parent has extensions, so the next chunk's step is
            # sized on this chunk's extensions per parent
            step = max(1, step * _EXTENSION_CHUNK // len(ext))
            ext = ext[_in_class(frame, ext)]
            codes = _canonical_codes(ext)
            new = []
            # one bytes key per code row, much cheaper to build than a tuple
            for i, code in enumerate(codes.view(f"V{8 * codes.shape[1]}").ravel().tolist()):
                if code not in seen:
                    seen.add(code)
                    new.append(i)
            kept.append(ext[new])
        table = _CLASS_CACHE[frame, k] = np.concatenate(kept)
    return table


def frames(frame, k):
    """Every relation of the given frame class on k states, each once, as
    a frozenset of pairs ``("s<i>", "s<j>")``.

    Order: class in ``_classes`` table order, then the relabelings of its
    representative by their code, whose bit s*k+t is the pair (s, t).  The
    relabelings of a representative are the labeled members of its class
    and distinct classes share none, so no frame repeats.  The iterator
    is lazy: it relabels about ``_WORD_BUDGET`` relations at a time.
    """
    _check_bound(frame, k, "k")
    return _relabelings(frame, k)


def _relabelings(frame, k):
    table = _classes(frame, k)
    perms = _cell_perms((k,))
    names = [f"s{i}" for i in range(k)]
    pairs = [(names[s], names[t]) for s in range(k) for t in range(k)]
    per_batch = max(1, _WORD_BUDGET // len(perms))
    for start in range(0, len(table), per_batch):
        batch = table[start : start + per_batch]
        rel = batch[:, perms[:, :, None], perms[:, None, :]].reshape(-1, k, k)
        cls = np.repeat(np.arange(len(batch), dtype=np.uint64), len(perms))
        # code words with bit (k-1, k-1) first order as the codes do
        keys = np.column_stack([cls, _code_words(rel[:, ::-1, ::-1])])
        order = np.lexsort(keys.T[::-1])
        ranked = keys[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
        for row in rel[order[first]].reshape(-1, k * k).tolist():
            yield frozenset(compress(pairs, row))


def _mask_bits(masks, m):
    """(..., m) booleans: bit i of each integer mask."""
    return ((masks[..., None] >> np.arange(m)) & 1).astype(bool)


def _extensions(frame, parents):
    """Every one-point extension of the (n, m, m) parent relations that can
    stay in the frame class, in the order ``_classes`` documents.

    The new state gets a predecessor set A, a successor set B and a loop or
    not.  Outside ``any`` only the extensions that stay transitive are made:
    A is closed under predecessors, B under successors, every state of A
    relates to every state of B, and the new state has a loop when A and B
    meet.
    """
    n, m, _ = parents.shape
    subsets = np.arange(1 << m)
    members = _mask_bits(subsets, m)
    weights = 1 << np.arange(m)
    succ = (parents * weights).sum(axis=2)
    pred = (parents * weights[:, None]).sum(axis=1)
    # over each subset S: the union of its predecessors and of its
    # successors, and the states every member of S relates to
    below = np.zeros((n, 1 << m), dtype=np.int64)
    above = np.zeros((n, 1 << m), dtype=np.int64)
    common = np.full((n, 1 << m), (1 << m) - 1)
    if frame != "any":
        for a in range(m):
            has = members[:, a]
            below = np.where(has, below | pred[:, a, None], below)
            above = np.where(has, above | succ[:, a, None], above)
            common = np.where(has, common & succ[:, a, None], common)
    downs = (below & ~subsets) == 0
    ups = (above & ~subsets) == 0
    # every (parent, B, A) of an up-set B and a down-set A of the parent, in
    # that order: each up-set is repeated once per down-set of its parent
    up_parent, up_set = np.nonzero(ups)
    down_set = np.nonzero(downs)[1]
    per_parent = downs.sum(axis=1)
    first_down = np.cumsum(per_parent) - per_parent
    count = per_parent[up_parent]
    which_up = np.repeat(np.arange(len(up_parent)), count)
    nth = np.arange(len(which_up)) - np.repeat(np.cumsum(count) - count, count)
    p = up_parent[which_up]
    b = up_set[which_up]
    a = down_set[first_down[p] + nth]
    keep = (b & ~common[p, a]) == 0
    p, a, b = p[keep], a[keep], b[keep]
    loopless = (a & b) == 0 if frame != "any" else np.ones(len(p), dtype=bool)
    which, loop = np.nonzero(np.stack([loopless, np.ones_like(loopless)], axis=1))
    out = np.zeros((len(which), m + 1, m + 1), dtype=bool)
    out[:, :m, :m] = parents[p[which]]
    out[:, :m, m] = members[a[which]]
    out[:, m, :m] = members[b[which]]
    out[:, m, m] = loop == 1
    return out


def _in_class(frame, rel):
    """Which of the (n, k, k) transitive relations (any relations for
    ``any``) lie in the frame class; the tests of ``model.is_*``."""
    n, k, _ = rel.shape
    eye = np.eye(k, dtype=bool)
    irreflexive = ~(rel & eye).any(axis=(1, 2))
    comparable = rel | rel.transpose(0, 2, 1) | eye
    if frame == "complete":
        return rel.all(axis=(1, 2))
    if frame == "linear":
        return irreflexive & comparable.all(axis=(1, 2))
    if frame == "transitive-tree":
        one_root = (~rel.any(axis=1)).sum(axis=1) == 1
        # any two predecessors a, b of a state v are comparable
        both = rel[:, :, None, :] & rel[:, None, :, :]
        chains = (~both | comparable[:, :, :, None]).all(axis=(1, 2, 3))
        return irreflexive & one_root & chains
    return np.ones(n, dtype=bool)


def _code_words(rel):
    """The row-major bits of (..., k, k) relations as big-endian uint64
    words, so that word order is the lexicographic order of the bits."""
    k = rel.shape[-1]
    flat = rel.reshape(rel.shape[:-2] + (k * k,))
    pad = np.zeros(flat.shape[:-1] + ((-k * k) % 64,), dtype=bool)
    packed = np.packbits(np.concatenate([flat, pad], axis=-1), axis=-1)
    return packed.view(">u8").astype(np.uint64)


def _refine(rel):
    """(n, k) state ranks of (n, k, k) relations by colour refinement.

    A state's rank counts the states of lower colour.  Colours start equal
    and are refined by (own rank, ranks of successors, ranks of
    predecessors) until no class splits.  Ranks are an isomorphism
    invariant; a collision of the arithmetic below can only merge colours,
    which costs relabelings in ``_canonical_codes``, never correctness.
    """
    n, k, _ = rel.shape
    r = rel.astype(np.uint64)
    base = np.uint64(k + 1)
    # a key orders by rank first: rank * span + (mix mod span) < 2**64
    span = np.uint64((1 << 64) // k - 1)
    rank = np.zeros((n, k), dtype=np.uint64)
    for _ in range(k):
        weight = base**rank
        out_mix = (r @ weight[:, :, None])[:, :, 0]
        in_mix = (weight[:, None, :] @ r)[:, 0, :]
        key = rank * span + (out_mix * base ** np.uint64(k) + in_mix) % span
        new = (key[:, None, :] < key[:, :, None]).sum(axis=2, dtype=np.uint64)
        if np.array_equal(new, rank):
            break
        rank = new
    return rank


@cache
def _cell_perms(sizes):
    """Every permutation of range(sum(sizes)) that maps each block of
    consecutive positions, of the given sizes, onto itself."""
    out, start = [()], 0
    for size in sizes:
        out = [p + q for p in out for q in permutations(range(start, start + size))]
        start += size
    return np.array(out, dtype=np.intp)


def _canonical_codes(rel):
    """(n, words) codes of (n, k, k) relations, equal exactly for isomorphic
    relations: the least code word row over the relabelings that order the
    states by ``_refine`` rank, in any order within a rank."""
    n, k, _ = rel.shape
    rank = _refine(rel)
    order = np.argsort(rank, axis=1, kind="stable")
    ordered = rel[np.arange(n)[:, None, None], order[:, :, None], order[:, None, :]]
    # relations with the same cell sizes share their relabelings
    ranks = np.take_along_axis(rank, order, axis=1)
    cuts = (ranks[:, 1:] != ranks[:, :-1]) @ (1 << np.arange(k - 1))
    words = (k * k + 63) // 64
    out = np.zeros((n, words), dtype=np.uint64)
    for pattern in sorted(set(cuts.tolist())):
        group = np.flatnonzero(cuts == pattern)
        ends = [i + 1 for i in range(k - 1) if (pattern >> i) & 1] + [k]
        perms = _cell_perms(tuple(np.diff([0, *ends]).tolist()))
        step = max(1, (1 << 16) // len(perms))
        for i in range(0, len(group), step):
            part = group[i : i + step]
            codes = _code_words(ordered[part][:, perms[:, :, None], perms[:, None, :]])
            # lexicographic least word row over the relabelings
            least = np.ones(codes.shape[:2], dtype=bool)
            for w in range(words):
                col = np.where(least, codes[:, :, w], np.iinfo(np.uint64).max)
                least &= codes[:, :, w] == col.min(axis=1)[:, None]
            out[part] = codes[np.arange(len(part)), least.argmax(axis=1)]
    return out


# ---------------------------------------------------------------------------
# Explicit model enumeration


def _split_atoms(atoms):
    props, noms = [], []
    for a in atoms:
        if not isinstance(a, Atom):
            raise TypeError(f"expected Atom, got {a!r}")
        if a.kind == PROP:
            props.append(a.name)
        elif a.kind == NOM:
            noms.append(a.name)
        else:
            raise ValueError("state variables are not enumerated in valuations")
    return tuple(sorted(set(props))), tuple(sorted(set(noms)))


def enumerate_models(frame, max_states, atoms=()):
    """Every model with <= max_states states over the given atoms, as an
    iterator; the arguments are checked when it is called.

    No isomorphism reduction.  Order: state count ascending, then frame in
    ``frames`` order (class, then relabeling), then proposition valuations
    by code, then nominal placements lexicographically.  Up to relabeling
    that is the order of the sweeps.
    """
    _check_bound(frame, max_states, "max_states")
    props, noms = _split_atoms(atoms)

    def models():
        for k in range(1, max_states + 1):
            names = tuple(f"s{i}" for i in range(k))
            for rel in frames(frame, k):
                # one checked frame; each model shares its relation views
                base = HybridModel(names, rel)
                for code in range(1 << (len(props) * k)):
                    val = _decode_valuation(code, props, names)
                    for placement in product(range(k), repeat=len(noms)):
                        nomval = {i: names[s] for i, s in zip(noms, placement)}
                        yield HybridModel._trusted(names, base.rel, dict(val), nomval, base._views)

    return models()


# ---------------------------------------------------------------------------
# Lane evaluation: one bit lane per proposition valuation


# the marks of the Until forms whose guard reads R+
_CLOSURE_MARKS = frozenset(MARKS[cls] for cls, form in UNTIL_FORMS.items() if form.guard_plus)


def _needs_closure(f):
    return not f.signature.isdisjoint(_CLOSURE_MARKS)


def _bigint_to_words(value, m):
    mask = (1 << 64) - 1
    return np.array([(value >> (64 * j)) & mask for j in range(m)], dtype=np.uint64)


class _LaneEngine:
    """Evaluates formulas over a frame batch, all valuations at once.

    Words have shape (B, k, m): frame, state, lane plane.  Lane l encodes
    the valuation where proposition i holds at state s iff bit i*k+s of l
    is set; that matches the valuation-code order of enumerate_models.
    """

    def __init__(self, props, noms, k):
        self.k = k
        self.props = props
        self.noms = noms
        self.lanes = 1 << (len(props) * k)
        self.m = (self.lanes + 63) // 64
        full_int = (1 << self.lanes) - 1
        self.full = _bigint_to_words(full_int, self.m)
        self.zero = np.uint64(0)
        self.patterns = {}
        for i, p in enumerate(props):
            rows = []
            for s in range(k):
                pos = i * k + s
                period = 1 << pos
                pattern = (full_int // ((1 << (2 * period)) - 1)) * ((1 << period) - 1) << period
                rows.append(_bigint_to_words(pattern, self.m))
            self.patterns[p] = np.array(rows, dtype=np.uint64).reshape(1, k, self.m)
        self.state_mask = []
        for t in range(k):
            rows = np.zeros((1, k, self.m), dtype=np.uint64)
            rows[0, t, :] = self.full
            self.state_mask.append(rows)
        self.top = np.broadcast_to(self.full, (1, k, self.m))
        self.bot = np.zeros((1, k, self.m), dtype=np.uint64)

    def set_batch(self, rel, plus):
        self.rel = rel
        self.plus = plus
        self.B = rel.shape[0]
        self.views = {}
        self.memo = {}
        self.placement = {}

    def set_placement(self, placement):
        self.placement = placement
        self.memo = {}

    def _exists_step(self, mask, w):
        # out[:, s] = OR_t mask[:, s, t] & w[:, t]
        out = mask[:, :, 0, None] & w[:, 0, None, :]
        for t in range(1, self.k):
            out |= mask[:, :, t, None] & w[:, t, None, :]
        return out

    def _forall_step(self, mask, w):
        # out[:, s] = AND_t ~mask[:, s, t] | w[:, t], cut back to the lanes
        out = ~mask[:, :, 0, None] | w[:, 0, None, :]
        for t in range(1, self.k):
            out &= ~mask[:, :, t, None] | w[:, t, None, :]
        return out & self.full

    def _relation(self, plus=False, converse=False):
        """R or R+, forwards or converse, as a (B, k, k) word mask: all
        ones on a pair of the relation, zero off it; built once a batch."""
        view = self.views.get((plus, converse))
        if view is None:
            rel = self.plus if plus else self.rel
            if converse:
                rel = np.transpose(rel, (0, 2, 1))
            view = np.where(rel, ~self.zero, self.zero)
            self.views[plus, converse] = view
        return view

    def ev(self, f, env=None):
        if env is None:
            env = {}
        key = (f, tuple(sorted((v, env[v]) for v in f.fv if v in env)))
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        case = _LANE_CASES.get(type(f))
        if case is None:
            raise TypeError(f"not a formula node: {f!r}")
        out = case(self, f, env)
        self.memo[key] = out
        return out

    def _atom(self, f, env):
        if f.kind == PROP:
            return self.patterns.get(f.name, self.bot)
        if f.kind == NOM:
            return self.state_mask[self.placement[f.name]]
        return self.state_mask[env[f.name]]

    def _modal(self, f, env):
        exists, backward, universal = MODAL_FORMS[type(f)]
        w = self.ev(f.body, env)
        if not universal:
            step = self._exists_step if exists else self._forall_step
            return step(self._relation(converse=backward), w)
        join = np.bitwise_or if exists else np.bitwise_and
        red = w[:, 0, :]
        for s in range(1, self.k):
            red = join(red, w[:, s, :])
        return np.broadcast_to(red[:, None, :], (red.shape[0], self.k, self.m))

    def _at(self, f, env):
        t = f.term
        den = self.placement[t.name] if t.kind == NOM else env[t.name]
        w = self.ev(f.body, env)
        col = w[:, den, None, :]
        return np.broadcast_to(col, (w.shape[0], self.k, self.m))

    def _down(self, f, env):
        rows = []
        for s in range(self.k):
            w = self.ev(f.body, {**env, f.var.name: s})
            rows.append(np.broadcast_to(w[:, s, :], (self.B, self.m)))
        # an entry that binds the variable beside another one is one of
        # up to k^depth and is seldom asked for again: drop it, so the
        # memo holds O(k) arrays per subformula whatever the batch size
        var = f.var.name
        self.memo = {
            key: w for key, w in self.memo.items() if len(key[1]) < 2 or var not in dict(key[1])
        }
        return np.stack(rows, axis=1)

    def _until(self, f, env):
        # out[:, s] = OR_t step[:, s, t] & left[t] & AND_u (~(guard[:, s, u]
        # & guard[:, u, t]) | right[u]); a Since form reads the converse views
        form = UNTIL_FORMS[type(f)]
        step = self._relation(form.step_plus, form.backward)
        guard = self._relation(form.guard_plus, form.backward)
        wl = self.ev(f.left, env)
        wr = self.ev(f.right, env)
        out = np.zeros((self.B, self.k, self.m), dtype=np.uint64)
        for t in range(self.k):
            betw = wl[:, t, None, :] & step[:, :, t, None]
            for u in range(self.k):
                cond = guard[:, :, u] & guard[:, u, t][:, None]
                betw &= ~cond[:, :, None] | wr[:, u, None, :]
            out |= betw
        return out


# One case per node class, each called as case(engine, node, env).
_LANE_CASES = {
    Atom: _LaneEngine._atom,
    Top: lambda e, f, env: e.top,
    Bot: lambda e, f, env: e.bot,
    Not: lambda e, f, env: e.ev(f.body, env) ^ e.full,
    And: lambda e, f, env: e.ev(f.left, env) & e.ev(f.right, env),
    Or: lambda e, f, env: e.ev(f.left, env) | e.ev(f.right, env),
    Implies: lambda e, f, env: (e.ev(f.left, env) ^ e.full) | e.ev(f.right, env),
    Iff: lambda e, f, env: (e.ev(f.left, env) ^ e.ev(f.right, env)) ^ e.full,
    At: _LaneEngine._at,
    Down: _LaneEngine._down,
    **dict.fromkeys(MODAL_FORMS, _LaneEngine._modal),
    **dict.fromkeys(UNTIL_FORMS, _LaneEngine._until),
}


def _closure_batch(rel):
    plus = rel.copy()
    k = rel.shape[1]
    for t in range(k):
        plus |= plus[:, :, t, None] & plus[:, t, None, :]
    return plus


@record
class Found:
    model: HybridModel
    state: str


def _first_lane(row):
    """Lowest lane set at any state of one frame's (states, m) words, and
    the first state holding it; some lane must be set."""
    union = np.bitwise_or.reduce(row, axis=0)
    plane = int(np.flatnonzero(union)[0])
    value = int(union[plane])
    bit = (value & -value).bit_length() - 1
    state = next(s for s in range(len(row)) if (int(row[s][plane]) >> bit) & 1)
    return 64 * plane + bit, state


def _lane_search(phi, frame, max_states, atoms=()):
    """The first (model, state) where the sentence phi holds: the one sweep
    behind brute_sat, brute_global_sat (which asks for A phi) and
    find_eval_difference (which asks for ~(f1 <-> f2)), over the model
    sizes 1..max_states.  ``atoms`` adds atoms phi does not have to the
    valuations.

    The first hit is the least (size, class, lane, placement); each
    placement keeps only its own first hit in a batch.
    """
    if phi.height > SHALLOW and not deep_stack.active:
        return on_deep_stack(phi, _lane_search, phi, frame, max_states, atoms)
    _check_bound(frame, max_states, "max_states")
    extra_props, extra_noms = _split_atoms(atoms)
    props = tuple(sorted(set(props_of(phi)) | set(extra_props)))
    noms = tuple(sorted(set(noms_of(phi)) | set(extra_noms)))
    # the other classes are transitive already, so there R+ is R
    needs_plus = frame == "any" and _needs_closure(phi)
    for k in range(1, max_states + 1):
        engine = _LaneEngine(props, noms, k)
        placements = list(product(range(k), repeat=len(noms)))
        per_batch = max(1, _WORD_BUDGET // (k * engine.m))
        table = _classes(frame, k)
        for start in range(0, len(table), per_batch):
            batch = table[start : start + per_batch]
            engine.set_batch(batch, _closure_batch(batch) if needs_plus else batch)
            best = None
            for pl_idx, placement in enumerate(placements):
                engine.set_placement(dict(zip(noms, placement)))
                w = engine.ev(phi)
                nz = w.any(axis=(1, 2))
                b = int(np.argmax(nz))
                if not nz[b] or (best is not None and b > best[0]):
                    continue
                lane, state = _first_lane(w[b])
                cand = (b, lane, pl_idx, state, placement)
                if best is None or cand[:3] < best[:3]:
                    best = cand
            if best is not None:
                b, lane, _, state, placement = best
                names = tuple(f"s{i}" for i in range(k))
                rel = frozenset(
                    (names[s], names[t]) for s in range(k) for t in range(k) if batch[b, s, t]
                )
                val = _decode_valuation(lane, props, names)
                nomval = {i: names[s] for i, s in zip(noms, placement)}
                return HybridModel(names, rel, val, nomval), names[state]
    return None


def brute_sat(phi: Formula, frame: str, max_states: int):
    """First model and state satisfying the sentence phi, or None."""
    _sentence_guard(phi)
    out = _lane_search(phi, frame, max_states)
    return None if out is None else Found(*out)


def brute_global_sat(phi: Formula, frame: str, max_states: int):
    """First model globally satisfying phi, or None."""
    _sentence_guard(phi)
    out = _lane_search(Everywhere(phi), frame, max_states)
    return None if out is None else out[0]


def find_eval_difference(f1: Formula, f2: Formula, frame: str, max_states: int, atoms=()):
    """First (model, state) where the two sentences disagree, or None."""
    _sentence_guard(f1)
    _sentence_guard(f2)
    return _lane_search(Not(Iff(f1, f2)), frame, max_states, atoms=atoms)


# ---------------------------------------------------------------------------
# First-order model search


@record
class FOFound:
    structure: sat.FOStructure


_SEARCHABLE_OVER_ANY = Language(
    "first-order logic without closure atoms, the language searchable over any frames",
    frozenset(["R", "=", "pred"]),
)

# Kleene negation: an unknown status (None) stays unknown
_NOT = {True: False, False: True}


class _FOSearch:
    """Requirement-propagation search for a satisfying structure.

    A requirement is a (subformula, environment, truth value) triple.
    Conjunctive requirements decompose immediately down to atom
    assignments; disjunctive ones are deferred to a pending list and
    branched in creation order.  One map, ``truth``, holds every decided
    atom and composite requirement: ``("R", a, b)`` for a relation atom,
    ``(pred, e)`` for a unary atom, and a composite's alpha code with its
    slot values, so opposite commitments on the same instance conflict
    without being expanded.  A missing key is undecided.  Every change is
    one ``(undo, argument)`` step on the trail, and backtracking calls
    the steps in reverse.  Status checks use Kleene evaluation (True,
    False, or None for unknown) with an early-unknown exit on quantifiers.
    ``_require`` and ``_status`` read one case per node class from
    ``_REQUIRE_CASES`` and ``_STATUS_CASES``.

    Without a fixed relation the frame class is closed under permutations
    of the domain, and the search breaks that symmetry (the least-number
    heuristic).  An element is *named* once a constant denotes it or a
    branch on the current path mentions it.  Permuting the unnamed
    elements maps the structures that extend the current state onto
    themselves, so a branch on an existential instance tries the named
    elements and only the least unnamed one: any other unnamed element
    gives an isomorphic subtree, tried after the least one's, that has a
    model exactly when the least one's has.  The search is complete, so it
    returns the same first structure as without the cut.
    """

    def __init__(self, alpha, k, frame, rel_fixed=None, consts=None):
        # every class but ``any`` is transitive, so there an R+ atom is R
        if frame == "any":
            check_language(alpha, _SEARCHABLE_OVER_ANY)
        self.alpha = alpha
        self.k = k
        self.frame = frame
        self.symmetric = rel_fixed is None
        self.preds = sorted(sat.fo_preds(alpha))
        if rel_fixed is None and frame == "complete":
            rel_fixed = [[True] * k] * k
        # a fixed relation starts out decided
        self.truth = {}
        if rel_fixed is not None:
            self.truth = {("R", a, b): bool(rel_fixed[a][b]) for a in range(k) for b in range(k)}
        self.trail = []
        self.consts = dict(consts or {})
        self.named = set(self.consts.values())
        # (subformula, environment, value) triples, and the indices settled
        self.pending = []
        self.done = set()
        self.nodes = 0

    # -- the truth map and its trail ---------------------------------------

    def _decide(self, key, value):
        """Decide key = value unless it is decided; returns the earlier
        value, or None when it was undecided."""
        old = self.truth.get(key)
        if old is None:
            self.truth[key] = value
            self.trail.append((self.truth.pop, key))
        return old

    def _set_rel(self, key, value):
        """Decide a relation atom, with transitivity propagation over
        transitive frames; returns False on conflict."""
        old = self._decide(key, value)
        if old is not None or self.frame != "transitive":
            return old in (None, value)
        _, a, b = key
        truth = self.truth
        for x in range(self.k):
            if value:
                if truth.get(("R", x, a)) and not self._set_rel(("R", x, b), True):
                    return False
                if truth.get(("R", b, x)) and not self._set_rel(("R", a, x), True):
                    return False
            elif truth.get(("R", a, x)) and truth.get(("R", x, b)):
                return False
        return True

    def _add(self, items, item):
        """Add item to ``done`` or ``named``, on the trail."""
        if item not in items:
            items.add(item)
            self.trail.append((items.discard, item))

    def _undo(self, mark):
        while len(self.trail) > mark:
            undo, argument = self.trail.pop()
            undo(argument)

    # -- requirements --------------------------------------------------------

    def _term(self, t, env):
        return env[t.name] if isinstance(t, sat.FOVar) else self.consts[t.name]

    def _require(self, g, env, value):
        """Impose g == value; returns False on conflict."""
        return _REQUIRE_CASES[type(g)](self, g, env, value)

    def _require_composite(self, g, env, value):
        # alpha-equivalent copies share a key, so commitments on one copy
        # conflict with opposite commitments on another
        code, slots = g.alpha_code
        old = self._decide((code, tuple(env[v] for v in slots)), value)
        if old is not None:
            return old == value
        junction = sat.FO_JUNCTIONS.get(type(g))
        if junction is not None and value == junction[0]:
            # a true conjunction or a false disjunction fixes both operands
            return self._require(g.left, env, value == junction[1]) and self._require(
                g.right, env, value
            )
        # a quantifier, a false conjunction or a true disjunction waits
        self.pending.append((g, env, value))
        self.trail.append((self.pending.pop, -1))
        return True

    def _witnesses(self):
        """Elements an existential branch tries, in domain order: all of
        them, or under symmetry breaking the named ones and the least
        unnamed one."""
        if not self.symmetric:
            return range(self.k)
        fresh = next((d for d in range(self.k) if d not in self.named), None)
        return [d for d in range(self.k) if d in self.named or d == fresh]

    def _options(self, g, env, value):
        """The requirements one of which settles a pending one: a
        junction's two operands, or a quantifier's instances, each with
        the pending value."""
        junction = sat.FO_JUNCTIONS.get(type(g))
        if junction is not None:
            return [(g.left, env, value == junction[1]), (g.right, env, value)]
        return [(g.body, {**env, g.var: d}, value) for d in self._witnesses()]

    # -- Kleene status, early-unknown on quantifiers -------------------------

    def _status(self, g, env):
        return _STATUS_CASES[type(g)](self, g, env)

    def _junction_status(self, g, env):
        # a junction stops at an unknown left operand: a definite answer
        # may be delayed, which only postpones a conflict the option probes
        # catch anyway.  The right operand decides when the left is neutral.
        conjunctive, sign = sat.FO_JUNCTIONS[type(g)]
        v = self._status(g.left, env)
        if not sign:
            v = _NOT.get(v)
        return self._status(g.right, env) if v == conjunctive else v

    def _quantifier_status(self, g, env):
        want = isinstance(g, sat.Exists)
        for d in range(self.k):
            v = self._status(g.body, {**env, g.var: d})
            if v is None or v == want:
                return v
        return not want

    # -- search ---------------------------------------------------------------

    def search(self):
        if not self._require(self.alpha, {}, True):
            return None
        return self._dfs()

    def _probe(self, option):
        mark = len(self.trail)
        ok = self._require(*option)
        self._undo(mark)
        return ok

    def _propagate(self):
        """Propagate to fixpoint: mark satisfied pendings, fail violated
        ones, instantiate watched quantifiers, commit forced options of
        junctions.  Returns False on conflict."""
        changed = True
        while changed:
            changed = False
            for i, (g, env, value) in enumerate(self.pending):
                if i in self.done:
                    continue
                st = self._status(g, env)
                if st == value:
                    self._add(self.done, i)
                    continue
                if st is not None:
                    return False
                if type(g) in sat.FO_JUNCTIONS:
                    viable = [opt for opt in self._options(g, env, value) if self._probe(opt)]
                    if not viable:
                        return False
                    if len(viable) == 1:
                        self._add(self.done, i)
                        if not self._require(*viable[0]):
                            return False
                        changed = True
                        break
                elif isinstance(g, sat.Forall) == value:
                    # a true universal or a false existential is watched:
                    # _require only records it, so probes stay cheap, and
                    # here every instance is imposed at once
                    self._add(self.done, i)
                    if not all(
                        self._require(g.body, {**env, g.var: d}, value) for d in range(self.k)
                    ):
                        return False
                    changed = True
                    break
        return True

    def _dfs(self):
        self.nodes += 1
        if not self._propagate():
            return None
        open_ = [i for i in range(len(self.pending)) if i not in self.done]
        if not open_:
            return self._extract()
        # branch on the first open quantifier, else on the first junction
        i = next((i for i in open_ if type(self.pending[i][0]) in _QUANTIFIERS), open_[0])
        g, env, value = self.pending[i]
        self._add(self.done, i)
        # a branch fixes the elements its instance mentions
        for e in env.values():
            self._add(self.named, e)
        for option in self._options(g, env, value):
            mark = len(self.trail)
            for e in option[1].values():
                self._add(self.named, e)
            if self._require(*option):
                out = self._dfs()
                if out is not None:
                    return out
            self._undo(mark)
        return None

    def _extract(self):
        domain = tuple(range(self.k))
        binrel = frozenset(
            (a, b) for a in domain for b in domain if self.truth.get(("R", a, b))
        )
        unary = {p: frozenset(e for e in domain if self.truth.get((p, e))) for p in self.preds}
        return sat.FOStructure(domain, binrel, unary, dict(self.consts))


_QUANTIFIERS = (sat.Exists, sat.Forall)


def _pred_key(s, g, env):
    return (g.name, s._term(g.term, env))


def _rel_key(s, g, env):
    return ("R", s._term(g.left, env), s._term(g.right, env))


# One case per node class, each called as case(search, node, env, value).
# R+ shares R's row: outside ``any`` it is R, and over ``any`` it is refused.
_REQUIRE_CASES = {
    **dict.fromkeys(
        (sat.FOTrue, sat.FOFalse, sat.Eq), lambda s, g, env, value: s._status(g, env) == value
    ),
    sat.Pred: lambda s, g, env, value: s._decide(_pred_key(s, g, env), value) in (None, value),
    **dict.fromkeys(
        (sat.Rel, sat.RelPlus), lambda s, g, env, value: s._set_rel(_rel_key(s, g, env), value)
    ),
    sat.FONot: lambda s, g, env, value: s._require(g.body, env, not value),
    **dict.fromkeys((*sat.FO_JUNCTIONS, *_QUANTIFIERS), _FOSearch._require_composite),
}

# One case per node class, each called as case(search, node, env).
_STATUS_CASES = {
    sat.FOTrue: lambda s, g, env: True,
    sat.FOFalse: lambda s, g, env: False,
    sat.Eq: lambda s, g, env: s._term(g.left, env) == s._term(g.right, env),
    sat.Pred: lambda s, g, env: s.truth.get(_pred_key(s, g, env)),
    **dict.fromkeys((sat.Rel, sat.RelPlus), lambda s, g, env: s.truth.get(_rel_key(s, g, env))),
    sat.FONot: lambda s, g, env: _NOT.get(s._status(g.body, env)),
    **dict.fromkeys(sat.FO_JUNCTIONS, _FOSearch._junction_status),
    **dict.fromkeys(_QUANTIFIERS, _FOSearch._quantifier_status),
}


def brute_fo_sat(alpha: sat.FOFormula, frame: str, max_elems: int):
    """First structure (smallest domain) satisfying the FO sentence, or None.

    Backtracks over undecided atoms with frame propagation; sound and
    complete within the bound.
    """
    if alpha.height > SHALLOW and not deep_stack.active:
        return on_deep_stack(alpha, brute_fo_sat, alpha, frame, max_elems)
    fv = sat.fo_free_vars(alpha)
    if fv:
        raise ValueError(f"not a sentence, free: {sorted(fv)}")
    _check_bound(frame, max_elems, "max_elems")
    consts = sorted(sat.fo_constants(alpha))
    for k in range(1, max_elems + 1):
        if frame in ("any", "transitive", "complete"):
            presets = [None]
        else:
            presets = _classes(frame, k).tolist()
        for preset in presets:
            for assignment in product(range(k), repeat=len(consts)):
                # with a symmetric frame class every assignment is
                # isomorphic to its restricted-growth form, which comes
                # first in this order
                if preset is None and any(
                    a > max(assignment[:i], default=-1) + 1 for i, a in enumerate(assignment)
                ):
                    continue
                searcher = _FOSearch(
                    alpha, k, frame, rel_fixed=preset, consts=dict(zip(consts, assignment))
                )
                out = searcher.search()
                if out is not None:
                    return FOFound(out)
    return None
