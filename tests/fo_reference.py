"""The first-order model search before symmetry breaking, kept as a
test-only reference for the differential tests in ``test_fo_reference.py``.

It tries every domain element on every existential branch and every
assignment of the constants.  ``oracle.brute_fo_sat`` must return the same
first structure in at most as many search nodes (``_dfs`` calls, counted
here in ``nodes``).  Not collected by pytest (no ``test_`` prefix).
"""

from __future__ import annotations

from itertools import product

from hylo import satellites as sat
from hylo.oracle import FOFound, _frame_batches

_T, _F, _U = 1, 0, -1


class _FOSearch:
    """Requirement-propagation search for a satisfying structure.

    A requirement is a (subformula, environment, truth value) triple.
    Conjunctive requirements decompose immediately down to atom
    assignments; disjunctive ones are deferred to a pending list and
    branched in creation order.  Every composite requirement is recorded,
    so opposite commitments on the same instance conflict without being
    expanded.  Status checks use Kleene evaluation with an early-unknown
    exit on quantifiers.
    """

    def __init__(self, alpha, k, frame, rel_fixed=None):
        self.alpha = alpha
        self.k = k
        self.frame = frame
        self.preds = sorted(sat.fo_preds(alpha))
        if rel_fixed is not None:
            self.rel = [[_T if rel_fixed[a][b] else _F for b in range(k)] for a in range(k)]
        elif frame == "complete":
            self.rel = [[_T] * k for _ in range(k)]
        else:
            self.rel = [[_U] * k for _ in range(k)]
        self.unary = {p: [_U] * k for p in self.preds}
        self.trail = []
        self.consts = {}
        self.store = {}
        self.pending = []
        self.nodes = 0

    # -- assignments with transitivity propagation --------------------------

    def _set_rel(self, a, b, value):
        if self.rel[a][b] != _U:
            return self.rel[a][b] == value
        self.rel[a][b] = value
        self.trail.append(("rel", a, b))
        if self.frame != "transitive":
            return True
        if value == _T:
            for x in range(self.k):
                if self.rel[x][a] == _T and not self._set_rel(x, b, _T):
                    return False
                if self.rel[b][x] == _T and not self._set_rel(a, x, _T):
                    return False
        else:
            for x in range(self.k):
                if self.rel[a][x] == _T and self.rel[x][b] == _T:
                    return False
        return True

    def _set_unary(self, name, e, value):
        if self.unary[name][e] != _U:
            return self.unary[name][e] == value
        self.unary[name][e] = value
        self.trail.append(("unary", name, e))
        return True

    def _mark(self):
        return len(self.trail)

    def _undo(self, mark):
        while len(self.trail) > mark:
            entry = self.trail.pop()
            kind = entry[0]
            if kind == "rel":
                self.rel[entry[1]][entry[2]] = _U
            elif kind == "unary":
                self.unary[entry[1]][entry[2]] = _U
            elif kind == "store":
                del self.store[entry[1]]
            elif kind == "pend":
                popped = self.pending.pop()
                assert popped is not None
            else:  # done flag
                self.pending[entry[1]][3] = False

    # -- requirements --------------------------------------------------------

    def _term(self, t, env):
        if isinstance(t, sat.FOVar):
            return env[t.name]
        return self.consts[t.name]

    def _require(self, g, env, value):
        """Impose g == value; returns False on conflict."""
        if isinstance(g, sat.FOTrue):
            return value
        if isinstance(g, sat.FOFalse):
            return not value
        if isinstance(g, sat.Eq):
            return (self._term(g.left, env) == self._term(g.right, env)) == value
        if isinstance(g, sat.Pred):
            return self._set_unary(g.name, self._term(g.term, env), _T if value else _F)
        if isinstance(g, sat.Rel):
            return self._set_rel(
                self._term(g.left, env), self._term(g.right, env), _T if value else _F
            )
        if isinstance(g, sat.RelPlus):
            raise ValueError("closure atoms are not searchable")
        if isinstance(g, sat.FONot):
            return self._require(g.body, env, not value)
        # alpha-equivalent copies share a key, so commitments on one copy
        # conflict with opposite commitments on another
        code, slots = g.alpha_code
        key = (code, tuple(env[v] for v in slots))
        if key in self.store:
            return self.store[key] == value
        self.store[key] = value
        self.trail.append(("store", key))
        if isinstance(g, sat.FOAnd) and value:
            return self._require(g.left, env, True) and self._require(g.right, env, True)
        if isinstance(g, sat.FOOr) and not value:
            return self._require(g.left, env, False) and self._require(g.right, env, False)
        if isinstance(g, sat.FOImplies) and not value:
            return self._require(g.left, env, True) and self._require(g.right, env, False)
        if (isinstance(g, sat.Forall) and value) or (isinstance(g, sat.Exists) and not value):
            # conjunctive quantifier requirement: watch it instead of
            # instantiating; instances are forced only when nothing else
            # remains, so probes stay cheap
            self.pending.append([g, dict(env), value, False, True])
            self.trail.append(("pend",))
            return True
        self.pending.append([g, dict(env), value, False, False])
        self.trail.append(("pend",))
        return True

    def _options(self, g, env, value):
        if isinstance(g, sat.Exists) and value:
            return [(g.body, {**env, g.var: d}, True) for d in range(self.k)]
        if isinstance(g, sat.Forall) and not value:
            return [(g.body, {**env, g.var: d}, False) for d in range(self.k)]
        if isinstance(g, sat.FOAnd):
            return [(g.left, env, False), (g.right, env, False)]
        if isinstance(g, sat.FOOr):
            return [(g.left, env, True), (g.right, env, True)]
        if isinstance(g, sat.FOImplies):
            return [(g.left, env, False), (g.right, env, True)]
        raise TypeError(f"unexpected pending requirement on {g!r}")

    # -- Kleene status, early-unknown on quantifiers -------------------------

    def _status(self, g, env):
        if isinstance(g, sat.FOTrue):
            return _T
        if isinstance(g, sat.FOFalse):
            return _F
        if isinstance(g, sat.Eq):
            return _T if self._term(g.left, env) == self._term(g.right, env) else _F
        if isinstance(g, sat.Pred):
            return self.unary[g.name][self._term(g.term, env)]
        if isinstance(g, sat.Rel):
            return self.rel[self._term(g.left, env)][self._term(g.right, env)]
        if isinstance(g, sat.RelPlus):
            raise ValueError("closure atoms are not searchable")
        if isinstance(g, sat.FONot):
            v = self._status(g.body, env)
            return _U if v == _U else 1 - v
        # binary connectives stop at the first unknown child: a definite
        # answer may be delayed, which only postpones a conflict the option
        # probes catch anyway
        if isinstance(g, sat.FOAnd):
            v1 = self._status(g.left, env)
            if v1 != _T:
                return v1
            return self._status(g.right, env)
        if isinstance(g, sat.FOOr):
            v1 = self._status(g.left, env)
            if v1 == _T:
                return _T
            if v1 == _U:
                return _U
            return self._status(g.right, env)
        if isinstance(g, sat.FOImplies):
            v1 = self._status(g.left, env)
            if v1 == _F:
                return _T
            if v1 == _U:
                return _U
            return self._status(g.right, env)
        if isinstance(g, (sat.Exists, sat.Forall)):
            want = _T if isinstance(g, sat.Exists) else _F
            for d in range(self.k):
                v = self._status(g.body, {**env, g.var: d})
                if v == want:
                    return want
                if v == _U:
                    return _U
            return 1 - want
        raise TypeError(f"not an FO node: {g!r}")

    # -- search ---------------------------------------------------------------

    def search(self):
        if not self._require(self.alpha, {}, True):
            return None
        return self._dfs()

    def _probe(self, option):
        mark = self._mark()
        ok = self._require(*option)
        self._undo(mark)
        return ok

    def _mark_done(self, i):
        self.pending[i][3] = True
        self.trail.append(("done", i))

    def _propagate(self):
        """Propagate to fixpoint: mark satisfied pendings, fail violated
        ones, decompose conjunctive constraints, commit forced options of
        disjunctive pendings.  Returns False on conflict."""
        changed = True
        while changed:
            changed = False
            for i in range(len(self.pending)):
                entry = self.pending[i]
                if entry[3]:
                    continue
                g, env, value, _, is_constraint = entry
                st = self._status(g, env)
                want = _T if value else _F
                if st == want:
                    self._mark_done(i)
                    continue
                if st == 1 - want:
                    return False
                if is_constraint:
                    self._mark_done(i)
                    instance_value = isinstance(g, sat.Forall)
                    for d in range(self.k):
                        if not self._require(g.body, {**env, g.var: d}, instance_value):
                            return False
                    changed = True
                    break
                if not isinstance(g, (sat.Exists, sat.Forall)):
                    options = self._options(g, env, value)
                    viable = [opt for opt in options if self._probe(opt)]
                    if not viable:
                        return False
                    if len(viable) == 1:
                        self._mark_done(i)
                        if not self._require(*viable[0]):
                            return False
                        changed = True
                        break
        return True

    def _dfs(self):
        self.nodes += 1
        if not self._propagate():
            return None
        best = None
        for i, entry in enumerate(self.pending):
            if entry[3]:
                continue
            g, env, value, _, _ = entry
            if isinstance(g, (sat.Exists, sat.Forall)):
                best = (0, i)
                break
            if best is None:
                best = (1, i)
        if best is None:
            return self._extract()
        i = best[1]
        g, env, value, _, _ = self.pending[i]
        self._mark_done(i)
        for option in self._options(g, env, value):
            mark = self._mark()
            if self._require(*option):
                out = self._dfs()
                if out is not None:
                    return out
            self._undo(mark)
        return None

    def _extract(self):
        domain = tuple(range(self.k))
        binrel = frozenset(
            (a, b) for a in domain for b in domain if self.rel[a][b] == _T
        )
        unary = {p: frozenset(e for e in domain if vs[e] == _T) for p, vs in self.unary.items()}
        return sat.FOStructure(domain, binrel, unary, dict(self.consts))


def reference_brute_fo_sat(alpha: sat.FOFormula, frame: str, max_elems: int):
    """First structure (smallest domain) satisfying the FO sentence, or
    None, and the number of search nodes spent."""
    fv = sat.fo_free_vars(alpha)
    if fv:
        raise ValueError(f"not a sentence, free: {sorted(fv)}")
    consts = sorted(sat.fo_constants(alpha))
    nodes = 0
    for k in range(1, max_elems + 1):
        if frame in ("any", "transitive", "complete"):
            presets = [None]
        else:
            presets = [rel.tolist() for batch in _frame_batches(frame, k) for rel in batch]
        for preset in presets:
            for assignment in product(range(k), repeat=len(consts)):
                searcher = _FOSearch(alpha, k, frame, rel_fixed=preset)
                searcher.consts = dict(zip(consts, assignment))
                out = searcher.search()
                nodes += searcher.nodes
                if out is not None:
                    return FOFound(out), nodes
    return None, nodes
