"""Finite hybrid Kripke models, frame predicates, and structural decompositions."""

from __future__ import annotations

import json
from itertools import combinations

from .formula import record


@record
class HybridModel:
    """Finite Kripke model with propositions and nominals.

    States keep their declared order so that every enumeration over a model
    is deterministic.  Instances are immutable after construction.
    """

    states: tuple[str, ...]
    rel: frozenset[tuple[str, str]]
    val: dict[str, frozenset[str]] = {}
    nomval: dict[str, str] = {}

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "rel", frozenset(tuple(e) for e in self.rel))
        object.__setattr__(
            self, "val", {p: frozenset(ss) for p, ss in self.val.items()}
        )
        object.__setattr__(self, "nomval", dict(self.nomval))
        known = set(self.states)
        if len(known) != len(self.states):
            raise ValueError("duplicate state ids")
        for a, b in self.rel:
            if a not in known or b not in known:
                raise ValueError(f"relation mentions unknown state ({a}, {b})")
        for p, ss in self.val.items():
            unknown = ss - known
            if unknown:
                raise ValueError(f"valuation of {p!r} mentions unknown states {sorted(unknown)}")
        for i, s in self.nomval.items():
            if s not in known:
                raise ValueError(f"nominal {i!r} names unknown state {s!r}")
        object.__setattr__(self, "_views", {})

    def successors(self, s: str) -> list[str]:
        return list(self._relation()[0].get(s, ()))

    def predecessors(self, s: str) -> list[str]:
        return list(self._relation(converse=True)[0].get(s, ()))

    def _relation(self, plus: bool = False, converse: bool = False):
        """R, or its transitive closure R+ with ``plus``, read forwards or
        (with ``converse``) backwards, as (the successor list of every
        state in declared state order, the pair set).  Each view is
        computed on first use and kept for the model's life; callers must
        not mutate them."""
        view = self._views.get((plus, converse))
        if view is None:
            if converse:
                pairs = frozenset((b, a) for a, b in self._relation(plus)[1])
            else:
                pairs = _closure(self.states, self.rel) if plus else self.rel
            order = {s: i for i, s in enumerate(self.states)}
            succ = {s: [] for s in self.states}
            for a, b in sorted(pairs, key=lambda e: (order[e[0]], order[e[1]])):
                succ[a].append(b)
            view = self._views[(plus, converse)] = (succ, pairs)
        return view

    @classmethod
    def _trusted(cls, states, rel, val, nomval, views=None) -> HybridModel:
        """A model from parts that are already normalized and valid, built
        without ``__post_init__``: states a tuple, rel a frozenset of pairs
        of them, val a fresh dict of frozensets, nomval a fresh dict, and
        views the relation views of a model on this frame to share, if any."""
        out = object.__new__(cls)
        views = {} if views is None else views
        out.__dict__.update(states=states, rel=rel, val=val, nomval=nomval, _views=views)
        return out


def _decode_valuation(code, props, states):
    """The valuation a code packs: proposition i holds at the s-th state
    when bit i * len(states) + s of code is set."""
    k = len(states)
    return {
        p: frozenset(states[s] for s in range(k) if (code >> (i * k + s)) & 1)
        for i, p in enumerate(props)
    }


def is_transitive(m: HybridModel) -> bool:
    """Every successor of a successor is a successor."""
    succ = {s: set(ts) for s, ts in m._relation()[0].items()}
    return all(succ[b] <= succ[a] for a, b in m.rel)


def is_complete(m: HybridModel) -> bool:
    return all((a, b) in m.rel for a in m.states for b in m.states)


def is_linear(m: HybridModel) -> bool:
    """Irreflexive, transitive, and trichotomous."""
    if any((s, s) in m.rel for s in m.states):
        return False
    if not is_transitive(m):
        return False
    return all(
        a == b or (a, b) in m.rel or (b, a) in m.rel
        for a in m.states
        for b in m.states
    )


def _closure(states, rel):
    out = set(rel)
    changed = True
    while changed:
        changed = False
        new = {(a, d) for a, b in out for c, d in out if b == c and (a, d) not in out}
        if new:
            out |= new
            changed = True
    return frozenset(out)


def transitive_closure(m: HybridModel) -> HybridModel:
    return HybridModel._trusted(m.states, m._relation(plus=True)[1], dict(m.val), dict(m.nomval))


def is_transitive_tree(m: HybridModel) -> bool:
    """True iff rel is the transitive closure of a tree relation: a strict
    order that ``_is_tree_order`` accepts."""
    if any((s, s) in m.rel for s in m.states) or not is_transitive(m):
        return False
    return _is_tree_order(m.states, m.rel)


def _is_tree_order(nodes, order) -> bool:
    """Whether a strict order, given as its set of pairs, has exactly one
    root and the predecessors of every node form a chain (so each node
    below the root has one direct predecessor, the greatest of its chain)."""
    preds = {v: [] for v in nodes}
    for a, b in order:
        preds[b].append(a)
    if sum(1 for ps in preds.values() if not ps) != 1:
        return False
    chains = (combinations(ps, 2) for ps in preds.values())
    return all((a, b) in order or (b, a) in order for pairs in chains for a, b in pairs)


def generated_submodel(m: HybridModel, s: str) -> HybridModel:
    """Restriction to s and everything reachable from s through R-plus."""
    if s not in m.states:
        raise ValueError(f"unknown state {s!r}")
    keep = {s, *m._relation(plus=True)[0][s]}
    states = tuple(t for t in m.states if t in keep)
    rel = frozenset((a, b) for a, b in m.rel if a in keep and b in keep)
    val = {p: ss & keep for p, ss in m.val.items()}
    nomval = {i: t for i, t in m.nomval.items() if t in keep}
    return HybridModel._trusted(states, rel, val, nomval)


def cliques(m: HybridModel) -> tuple[list[list[str]], frozenset[tuple[int, int]]]:
    """Partition a transitive model into maximal complete subframes.

    Returns the cliques as ordered lists (declared state order, first-seen
    order across cliques) plus the strict node-level reachability order as
    index pairs.
    """
    if not is_transitive(m):
        raise ValueError("cliques requires a transitive model")
    index = {}
    parts: list[list[str]] = []
    for s in m.states:
        placed = False
        for k, part in enumerate(parts):
            r = part[0]
            if (s, r) in m.rel and (r, s) in m.rel:
                part.append(s)
                index[s] = k
                placed = True
                break
        if not placed:
            index[s] = len(parts)
            parts.append([s])
    edges = set()
    for a, b in m.rel:
        if index[a] != index[b]:
            edges.add((index[a], index[b]))
    return parts, frozenset(edges)


# ---------------------------------------------------------------------------
# File format: one JSON document per file with keys
#   states (list), rel (list of 2-lists), val (prop -> list), nom (nominal -> state)

_MODEL_KEYS = {"states", "rel", "val", "nom"}


def model_from_dict(doc: dict) -> HybridModel:
    if not isinstance(doc, dict):
        raise ValueError("model document must be a mapping")
    unknown = set(doc) - _MODEL_KEYS
    if unknown:
        raise ValueError(f"unknown keys in model document: {sorted(unknown)}")
    if "states" not in doc:
        raise ValueError("model document lacks 'states'")
    return HybridModel(
        tuple(_names(doc, "states")),
        frozenset(_pairs(doc, "rel")),
        {p: frozenset(ss) for p, ss in _name_lists(doc, "val").items()},
        _name_map(doc, "nom"),
    )


def _is_names(value):
    return isinstance(value, list) and all(isinstance(s, str) for s in value)


def _names(doc, key):
    """doc[key] as a list of state names; a wrong shape is a ValueError."""
    value = doc.get(key, [])
    if not _is_names(value):
        raise ValueError(f"{key!r} must be a list of state names")
    return value


def _pairs(doc, key):
    """doc[key] as a list of state-name pairs."""
    value = doc.get(key, [])
    if not isinstance(value, list) or not all(_is_names(e) and len(e) == 2 for e in value):
        raise ValueError(f"{key!r} must be a list of [state, state] pairs")
    return [tuple(e) for e in value]


def _name_lists(doc, key):
    """doc[key] as a mapping from names to lists of state names."""
    value = doc.get(key, {})
    if not isinstance(value, dict) or not all(_is_names(v) for v in value.values()):
        raise ValueError(f"{key!r} must map each name to a list of state names")
    return value


def _name_map(doc, key):
    """doc[key] as a mapping from names to single state names."""
    value = doc.get(key, {})
    if not isinstance(value, dict) or not all(isinstance(v, str) for v in value.values()):
        raise ValueError(f"{key!r} must map each name to a state name")
    return value


def model_to_dict(m: HybridModel) -> dict:
    return {
        "states": list(m.states),
        "rel": sorted([a, b] for a, b in m.rel),
        "val": {p: sorted(ss) for p, ss in sorted(m.val.items())},
        "nom": dict(sorted(m.nomval.items())),
    }


def load_model(path) -> HybridModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def save_model(m: HybridModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(m), fh, indent=2)
        fh.write("\n")
