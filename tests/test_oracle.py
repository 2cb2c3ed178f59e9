import math
import os
import subprocess
import sys
from functools import lru_cache
from itertools import permutations, product

import numpy as np
import pytest

from hylo.checker import eval_formula, global_eval
from hylo.formula import nom, parse, prop
from hylo.model import (
    HybridModel,
    is_complete,
    is_linear,
    is_transitive,
    is_transitive_tree,
)
import hylo.oracle as oracle
from hylo.oracle import (
    FRAME_CLASSES,
    _classes,
    _closure_batch,
    _decode_valuation,
    _FOSearch,
    _LaneEngine,
    _split_atoms,
    brute_fo_sat,
    brute_global_sat,
    brute_sat,
    enumerate_models,
    find_eval_difference,
    frames,
)
from hylo.satellites import Exists, FOStructure, fo_eval, parse_fo
from hylo.translate import standard_translation

CHAIN = parse("p & <>p & []<>p & [] down $x . ~<> $x")

_CLASS_PREDICATES = {
    "any": lambda m: True,
    "transitive": is_transitive,
    "complete": is_complete,
    "linear": is_linear,
    "transitive-tree": is_transitive_tree,
}


def _pairs(row):
    k = len(row)
    return frozenset((f"s{s}", f"s{t}") for s, t in product(range(k), repeat=2) if row[s][t])


@lru_cache(maxsize=None)
def _labeled_reference(frame, k):
    """Every k x k bit matrix whose relation passes the frame class's
    ``model.is_*`` predicate, as a (n, k, k) boolean array: a reference
    for the labeled frames that does not read the class tables."""
    names = tuple(f"s{i}" for i in range(k))
    matrices = np.array(list(product([False, True], repeat=k * k)), dtype=bool).reshape(-1, k, k)
    keep = [_CLASS_PREDICATES[frame](HybridModel(names, _pairs(row))) for row in matrices.tolist()]
    return matrices[np.array(keep, dtype=bool)]


@pytest.mark.parametrize("frame", FRAME_CLASSES)
def test_frames_are_the_filtered_bit_matrices(frame):
    for k in (1, 2, 3):
        labeled = list(frames(frame, k))
        assert len(set(labeled)) == len(labeled), (frame, k)  # no repeats
        assert set(labeled) == {_pairs(row) for row in _labeled_reference(frame, k).tolist()}


# labeled frames per size: transitive relations (OEIS A006905), rooted
# labeled trees (Cayley, k^(k-1)), linear orders (k!), the one clique, and
# all 2^(k*k) relations
LABELED_COUNTS = {
    "transitive": [2, 13, 171, 3994, 154303],
    "transitive-tree": [k ** (k - 1) for k in range(1, 6)],
    "linear": [math.factorial(k) for k in range(1, 6)],
    "complete": [1] * 5,
    "any": [2 ** (k * k) for k in range(1, 4)],
}


def _code(rel, k):
    """The code of a frame on s0..s(k-1): bit s*k+t is the pair (s, t)."""
    return sum(1 << (int(s[1:]) * k + int(t[1:])) for s, t in rel)


@pytest.mark.parametrize("frame", FRAME_CLASSES)
def test_labeled_frame_counts(frame):
    for k, count in enumerate(LABELED_COUNTS[frame], start=1):
        codes = [_code(rel, k) for rel in frames(frame, k)]
        assert len(codes) == len(set(codes)) == count, (frame, k)


@pytest.mark.parametrize("frame", FRAME_CLASSES)
def test_frames_come_in_class_then_code_order(frame):
    # the relabelings of each class representative in table order, each
    # class's sorted by code
    for k in (1, 2, 3, 4) if frame != "any" else (1, 2, 3):
        expected = []
        for row in _classes(frame, k).tolist():
            expected += sorted(
                {
                    sum(1 << (s * k + t) for s, t in product(range(k), repeat=2) if row[p[s]][p[t]])
                    for p in permutations(range(k))
                }
            )
        assert [_code(rel, k) for rel in frames(frame, k)] == expected, (frame, k)
    assert list(frames("linear", 2)) == [{("s0", "s1")}, {("s1", "s0")}]
    assert list(frames("transitive", 1)) == [frozenset(), {("s0", "s0")}]


def test_linear_class_table_holds_one_order_per_size():
    for k in (1, 2, 3, 4, 7):
        assert _classes("linear", k).tolist() == [[[s < t for t in range(k)] for s in range(k)]]


# isomorphism classes per size: transitive relations (OEIS A091073) and
# all binary relations (OEIS A000595)
CLASS_COUNTS = {
    "transitive": [2, 8, 39, 242, 1895],
    "any": [2, 10, 104, 3044],
    "complete": [1, 1, 1, 1, 1],
    "linear": [1, 1, 1, 1, 1],
    "transitive-tree": [1, 1, 2, 4, 9],  # rooted trees, OEIS A000081
}


@pytest.mark.parametrize("frame", FRAME_CLASSES)
def test_class_counts(frame):
    counts = CLASS_COUNTS[frame]
    assert [len(_classes(frame, k)) for k in range(1, len(counts) + 1)] == counts


def _brute_canonical(rel):
    """Least row-major bit string of each (n, k, k) relation over all k!
    relabelings, as bytes: equal exactly for isomorphic relations."""
    k = rel.shape[1]
    perms = np.array(list(permutations(range(k))), dtype=np.intp)
    relabeled = rel[:, perms[:, :, None], perms[:, None, :]].reshape(len(rel), len(perms), -1)
    return [min(row.tobytes() for row in each) for each in relabeled]


@pytest.mark.parametrize("frame", FRAME_CLASSES)
def test_class_tables_hold_one_member_of_each_class(frame):
    for k in (1, 2, 3, 4):
        table = _classes(frame, k)
        names = tuple(f"s{i}" for i in range(k))
        for row in table.tolist():
            rel = _pairs(row)
            assert _CLASS_PREDICATES[frame](HybridModel(names, rel)), (frame, k, sorted(rel))
        reps = _brute_canonical(table)
        assert len(set(reps)) == len(reps), (frame, k)  # no two isomorphic
        if k <= 3:
            # every labeled frame has one
            assert set(_brute_canonical(_labeled_reference(frame, k))) == set(reps), (frame, k)


def test_transitive_classes_on_five_states_count_every_labeled_frame_once():
    # orbit-stabilizer: a class whose automorphism group has g members has
    # 5!/g labeled members, and 154,303 transitive relations are labeled
    table = _classes("transitive", 5)
    perms = np.array(list(permutations(range(5))), dtype=np.intp)
    relabeled = table[:, perms[:, :, None], perms[:, None, :]]
    automorphisms = (relabeled == table[:, None]).all(axis=(2, 3)).sum(axis=1)
    assert sum(120 // automorphisms) == 154303
    assert len(set(_brute_canonical(table))) == len(table)


def test_class_tables_do_not_depend_on_the_hash_seed():
    script = (
        "import hashlib; from hylo.oracle import FRAME_CLASSES, _classes; "
        "print(hashlib.sha256(b''.join(_classes(f, k).tobytes() "
        "for f in FRAME_CLASSES for k in range(1, 5))).hexdigest())"
    )
    digests = set()
    for seed in ("0", "12345"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        digests.add(out.stdout)
    assert len(digests) == 1


def test_enumerate_models_spec_examples():
    # linear, n=2, no atoms: the 1-chain and the two labelings of the 2-chain
    models = list(enumerate_models("linear", 2))
    assert len(models) == 3
    shapes = {len(m.states) for m in models}
    assert shapes == {1, 2}
    # complete, n=1: single reflexive state
    models = list(enumerate_models("complete", 1))
    assert len(models) == 1
    assert models[0].rel == {("s0", "s0")}
    # transitive-tree, n=2: root alone; root with one child (two labelings)
    models = list(enumerate_models("transitive-tree", 2))
    assert len(models) == 3


def test_enumerate_models_valuations_and_nominals():
    models = list(enumerate_models("complete", 1, atoms=[prop("p"), nom("i")]))
    assert len(models) == 2  # two p-valuations, one nominal placement
    assert models[0].nomval == {"i": "s0"}
    two = list(enumerate_models("complete", 2, atoms=[nom("i")]))
    placements = [m.nomval["i"] for m in two if len(m.states) == 2]
    assert placements == ["s0", "s1"]


def test_enumerate_models_share_each_frames_relation_views():
    # each frame is checked once; its models are the ones the constructor
    # builds, and they share its relation views but not their valuations
    models = list(enumerate_models("transitive", 2, atoms=[prop("p"), nom("i")]))
    for m in models:
        assert m == HybridModel(m.states, m.rel, m.val, m.nomval)
    first, second = (m for m in models if m.rel == models[-1].rel and m.val == models[-1].val)
    assert first._views is second._views
    assert first.val is not second.val
    assert first.successors("s0") == HybridModel(first.states, first.rel).successors("s0")


def test_brute_sat_spec_examples():
    found = brute_sat(parse("down $x . <> $x"), "transitive", 1)
    assert found is not None
    assert found.model.rel == {("s0", "s0")}
    assert brute_sat(parse("p & ~p"), "any", 3) is None
    assert brute_sat(CHAIN, "transitive", 4) is None


def test_brute_sat_monotone_in_n():
    for text in ["<>p", "p & <>~p", "U(p, q)"]:
        phi = parse(text)
        hit2 = brute_sat(phi, "any", 2)
        hit3 = brute_sat(phi, "any", 3)
        assert (hit2 is None) or (hit3 is not None)


def test_brute_sat_rejects_open_formulas():
    with pytest.raises(ValueError):
        brute_sat(parse("<> $x"), "any", 2)


@pytest.mark.parametrize("bound", [0, -1])
@pytest.mark.parametrize(
    "search, name",
    [
        (lambda n: enumerate_models("any", n), "max_states"),
        (lambda n: frames("transitive", n), "k"),
        (lambda n: _classes("transitive", n), "k"),
        (lambda n: brute_sat(parse("p"), "any", n), "max_states"),
        (lambda n: brute_global_sat(parse("p"), "transitive", n), "max_states"),
        (lambda n: find_eval_difference(parse("p"), parse("~p"), "any", n), "max_states"),
        (lambda n: brute_fo_sat(parse_fo("E x. p(x)"), "any", n), "max_elems"),
    ],
)
def test_sweeps_refuse_bounds_below_one(search, name, bound):
    # None would claim a refutation that covered no model at all; the
    # iterators refuse when called, before the first next()
    with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
        search(bound)


@pytest.mark.parametrize("call", [lambda: frames("bogus", 3), lambda: enumerate_models("bogus", 3)])
def test_unknown_frame_classes_are_refused_when_called(call):
    with pytest.raises(ValueError, match="^unknown frame class 'bogus'$"):
        call()


def _isomorphic(m1, m2):
    """Whether the frames of two models on s0..s(k-1) are isomorphic."""
    if len(m1.states) != len(m2.states):
        return False
    k = len(m1.states)
    rels = np.array(
        [[[(f"s{s}", f"s{t}") in m.rel for t in range(k)] for s in range(k)] for m in (m1, m2)],
        dtype=bool,
    )
    first, second = _brute_canonical(rels)
    return first == second


def _naive_brute_sat(phi, frame, n, atoms):
    for m in enumerate_models(frame, n, atoms=atoms):
        for s in m.states:
            if eval_formula(m, {}, s, phi):
                return m, s
    return None


def _class_models(frame, n, atoms):
    """Every model over one frame per isomorphism class: size, class in
    table order, valuation by code, nominal placement (the sweep order)."""
    props, noms = _split_atoms(atoms)
    for k in range(1, n + 1):
        names = tuple(f"s{i}" for i in range(k))
        for row in _classes(frame, k):
            rel = {(names[s], names[t]) for s, t in product(range(k), repeat=2) if row[s, t]}
            for code in range(1 << (len(props) * k)):
                val = _decode_valuation(code, props, names)
                for placement in product(names, repeat=len(noms)):
                    yield HybridModel(names, rel, val, dict(zip(noms, placement)))


def _naive_class_sat(phi, frame, n, atoms):
    for m in _class_models(frame, n, atoms):
        for s in m.states:
            if eval_formula(m, {}, s, phi):
                return m, s
    return None


LANE_BATTERY = [
    "p",
    "~p & q",
    "p | ~q",
    "p -> q",
    "p <-> <>q",
    "<>p",
    "[]p",
    "F p & G q",
    "P p",
    "H ~p",
    "E p & A (p | q)",
    "@'i p",
    "'i & <>'i",
    "p & @'i ~p",
    "down $x . <> $x",
    "down $x . []<> $x",
    "down $x . <>(q & <> $x)",
    "down $x . <> down $y . (@$x <>$y & (p | ~<>$x))",
    "U(p, q)",
    "S(p, q)",
    "U+(p, q)",
    "S+(p, q)",
    "U++(p, q)",
    "S++(p, q)",
    "U(p, q) & S(q, p)",
    "down $x . @$x <>p",
    "true & ~false",
]


@pytest.mark.parametrize("frame", ["any", "transitive", "linear", "transitive-tree", "complete"])
def test_lane_engine_agrees_with_checker(frame):
    n = 2 if frame == "any" else 3
    for text in LANE_BATTERY:
        phi = parse(text)
        atoms = [prop(p) for p in ["p", "q"] if p in text] + (
            [nom("i")] if "'i" in text else []
        )
        fast = brute_sat(phi, frame, n)
        slow = _naive_class_sat(phi, frame, n, atoms)
        if slow is None:
            assert fast is None, text
        else:
            assert fast is not None, text
            assert (fast.model, fast.state) == slow, text
        # the labeled enumeration runs class by class too, so its first hit
        # lies in the sweep hit's class
        labeled = _naive_brute_sat(phi, frame, n, atoms)
        assert (labeled is None) == (slow is None), text
        if labeled is not None:
            assert _isomorphic(labeled[0], slow[0]), text


def _battery_first_hits(frame, n):
    """First hits of every sweep mode on the battery; the sat sweeps need
    two or three states, so their hits lie past the first frames."""
    out = []
    for text in LANE_BATTERY:
        phi = parse(text)
        out.append(brute_sat(parse(f"({text}) & <>(~p & <>p)"), frame, n))
        out.append(brute_global_sat(phi, frame, n))
        out.append(find_eval_difference(phi, parse("<>p"), frame, n))
    return out


@pytest.mark.parametrize("frame", FRAME_CLASSES)
def test_first_hits_do_not_depend_on_the_batch_size(frame, monkeypatch):
    # one frame per batch against the word budget; any stops at 3 states,
    # where a miss at 4 would take 65,536 one-frame batches
    n = 3 if frame == "any" else 4
    budgeted = _battery_first_hits(frame, n)
    monkeypatch.setattr(oracle, "_WORD_BUDGET", 1)
    assert _battery_first_hits(frame, n) == budgeted


def test_lane_engine_exhaustive_pointwise_agreement():
    # every model with <= 2 states over {p, q} and every placement of 'i:
    # the lane word of each battery formula equals the checker at every
    # state, not just at the first hit
    props = ("p", "q")
    for k in (1, 2):
        names = tuple(f"s{i}" for i in range(k))
        engine = _LaneEngine(props, ("i",), k)
        # every relation on k states, in one batch
        batch = _labeled_reference("any", k)
        engine.set_batch(batch, _closure_batch(batch))
        for place in range(k):
            engine.set_placement({"i": place})
            for text in LANE_BATTERY:
                phi = parse(text)
                words = engine.ev(phi)
                for b, row in enumerate(batch.tolist()):
                    rel = _pairs(row)
                    word = words[b if words.shape[0] > 1 else 0]
                    for lane in range(engine.lanes):
                        val = _decode_valuation(lane, props, names)
                        m = HybridModel(names, rel, val, {"i": names[place]})
                        for s in range(k):
                            bit = (int(word[s, lane // 64]) >> (lane % 64)) & 1
                            expected = eval_formula(m, {}, names[s], phi)
                            assert bool(bit) == expected, (text, sorted(rel), val, s)


def test_find_eval_difference_reports_first():
    # <>p and p differ; first difference in enumeration order has 1 state
    got = find_eval_difference(parse("<>p"), parse("p"), "any", 2)
    assert got is not None
    model, state = got
    assert len(model.states) == 1
    # box-diamond duality never differs
    assert find_eval_difference(parse("[]p"), parse("~<>~p"), "any", 2) is None


def test_brute_global_sat_matches_naive():
    for text in ["p", "<>p -> p", "~<>p", "p & []p", "<>p & <>~p"]:
        phi = parse(text)
        fast = brute_global_sat(phi, "any", 2)
        atoms = [prop("p")]
        slow = next((m for m in _class_models("any", 2, atoms) if global_eval(m, phi)), None)
        assert fast == slow, text
        # the labeled enumeration's first hit lies in the same class
        labeled = next((m for m in enumerate_models("any", 2, atoms) if global_eval(m, phi)), None)
        assert (labeled is None) == (slow is None), text
        if labeled is not None:
            assert _isomorphic(labeled, slow), text


def test_brute_fo_sat_spec_examples():
    assert brute_fo_sat(parse_fo("E x. E y. R(x,y)"), "any", 2) is not None
    assert brute_fo_sat(parse_fo("(A x. ~R(x,x)) & (E x. R(x,x))"), "any", 3) is None
    two_elems = parse_fo("E x. E y. ~x=y")
    assert brute_fo_sat(two_elems, "any", 1) is None
    found = brute_fo_sat(two_elems, "any", 2)
    assert found is not None
    assert len(found.structure.domain) == 2


def _naive_fo_sat(alpha, frame, n, preds):
    from hylo.model import HybridModel

    for k in range(1, n + 1):
        for rel in frames(frame, k):
            rel_pairs = {(int(a[1:]), int(b[1:])) for a, b in rel}
            domain = tuple(range(k))
            for bits in range(1 << (len(preds) * k)):
                unary = {
                    p: frozenset(
                        e for e in domain if (bits >> (i * k + e)) & 1
                    )
                    for i, p in enumerate(preds)
                }
                s = FOStructure(domain, rel_pairs, unary)
                if fo_eval(s, {}, alpha):
                    return True
    return False


FO_BATTERY = [
    "E x. R(x,x)",
    "A x. ~R(x,x)",
    "E x. E y. (R(x,y) & ~R(y,x))",
    "(A x. E y. R(x,y)) & (A x. ~R(x,x))",
    "E x. (p(x) & A y. (R(x,y) -> ~p(y)))",
    "(E x. p(x)) & (A x. ~p(x))",
    "A x. A y. (R(x,y) -> E z. (R(x,z) & R(z,y)))",
    "E x. E y. (~x=y)",
    "E x. (p(x) & ~q(x))",
    # inner binders shadow outer ones: the two conjuncts are not alpha-equivalent
    "(E x. E x. E y. R(x,y)) & ~(E x. E x. E y. R(y,y))",
]


@pytest.mark.parametrize("frame", ["any", "transitive", "complete"])
def test_brute_fo_sat_agrees_with_naive(frame):
    for text in FO_BATTERY:
        alpha = parse_fo(text)
        preds = sorted({g.name for g in _fo_preds(alpha)})
        fast = brute_fo_sat(alpha, frame, 3) is not None
        slow = _naive_fo_sat(alpha, frame, 3, preds)
        assert fast == slow, (frame, text)


def _fo_preds(alpha):
    from hylo.formula import subformulas
    from hylo.satellites import Pred

    return [g for g in subformulas(alpha) if isinstance(g, Pred)]


CLOSURE_UNTILS = ["U+(p, q)", "S+(p, q)", "U++(p, q)", "S++(p, q)"]


@pytest.mark.parametrize("text", CLOSURE_UNTILS)
@pytest.mark.parametrize("extra", ["", " & ~p", " & ~p & <>(~p & ~q)", " & ~<>p"])
def test_fo_search_of_closure_untils_agrees_with_the_lane_sweep(text, extra):
    # the standard translation of a closure Until has R+ atoms, which are
    # R over transitive frames; the conjuncts move the first hit to sizes
    # 1, 2 and 3, or leave none
    phi = parse(text + extra)
    alpha = Exists("w", standard_translation(phi, anchor="w"))
    for n in (1, 2, 3):
        hybrid = brute_sat(phi, "transitive", n)
        first_order = brute_fo_sat(alpha, "transitive", n)
        assert (hybrid is None) == (first_order is None), (text + extra, n)
        if first_order is not None:
            assert len(first_order.structure.domain) == len(hybrid.model.states)
            assert fo_eval(first_order.structure, {}, alpha)


def test_fo_search_refuses_closure_atoms_over_any_frames():
    with pytest.raises(ValueError, match="closure atoms"):
        brute_fo_sat(parse_fo("E x. E y. R+(x,y)"), "any", 2)


def test_brute_fo_sat_respects_frames():
    serial_irrefl = parse_fo("(A x. E y. R(x,y)) & (A x. ~R(x,x))")
    assert brute_fo_sat(serial_irrefl, "any", 2) is not None
    # over transitive frames an irreflexive serial relation needs an infinite
    # descending structure, so no small model exists
    assert brute_fo_sat(serial_irrefl, "transitive", 4) is None


SERIAL_IRREFLEXIVE = "(A x. ~R(x,x)) & (A x. E y. R(x,y))"


def test_fo_search_breaks_element_symmetry():
    # no transitive model exists; the refutation at 7 elements takes 7
    # search nodes with the least-number cut and 22,876 without it
    searcher = _FOSearch(parse_fo(SERIAL_IRREFLEXIVE), 7, "transitive")
    assert searcher.search() is None
    assert searcher.nodes == 7


@pytest.mark.parametrize("frame", ["any", "transitive", "linear"])
def test_probes_leave_the_search_state_as_it_was(frame):
    # every option of the root's open requirements, probed and taken back:
    # the trail must restore the truth map, the pending list, the settled
    # indices and the named elements exactly
    alpha = parse_fo("R(c,d) & (E y. (R(d,y) & p(y))) & (E x. (q(x) | R(x,c))) & A x. E y. ~x=y")
    rel_fixed = _classes("linear", 3)[0].tolist() if frame == "linear" else None
    searcher = _FOSearch(alpha, 3, frame, rel_fixed=rel_fixed, consts={"c": 0, "d": 1})
    assert searcher._require(alpha, {}, True) and searcher._propagate()

    def state():
        s = searcher
        return dict(s.truth), list(s.pending), set(s.done), set(s.named), list(s.trail)

    before = state()
    open_ = [i for i in range(len(searcher.pending)) if i not in searcher.done]
    options = [option for i in open_ for option in searcher._options(*searcher.pending[i])]
    assert len(options) == 6
    verdicts, new_atoms = [], []
    for option in options:
        verdicts.append(searcher._probe(option))
        assert state() == before
        # the same option taken as a branch, which also settles a pending
        # index and names an element
        mark = len(searcher.trail)
        searcher._add(searcher.done, open_[0])
        searcher._add(searcher.named, 2)
        searcher._require(*option)
        new_atoms.append(sum(isinstance(key[0], str) for key in searcher.truth.keys() - before[0]))
        searcher._undo(mark)
        assert state() == before
    # a fixed order refutes R(1,0) and R(1,1); over transitive frames
    # R(1,0) forces R(0,0) and R(1,1) as well
    assert verdicts == ([False, False] if frame == "linear" else [True, True]) + [True] * 4
    assert new_atoms[0] == {"any": 2, "transitive": 4, "linear": 0}[frame]


def _is_restricted_growth(values):
    return all(v <= max(values[:i], default=-1) + 1 for i, v in enumerate(values))


@pytest.mark.parametrize("frame", ["any", "linear"])
def test_constant_assignments_tried(frame, monkeypatch):
    # symmetric classes try each assignment up to a permutation of the
    # domain (restricted-growth strings); a fixed relation tries them all
    tried = []

    class Recording(_FOSearch):
        def search(self):
            tried.append((self.k, tuple(self.consts[c] for c in sorted(self.consts))))
            return super().search()

    monkeypatch.setattr(oracle, "_FOSearch", Recording)
    assert brute_fo_sat(parse_fo("p(c) & ~p(c) & R(d,e)"), frame, 3) is None
    expected = [
        (k, a)
        for k in (1, 2, 3)
        for a in product(range(k), repeat=3)
        if frame == "linear" or _is_restricted_growth(a)
    ]
    assert tried == expected


def test_brute_fo_sat_with_constants():
    alpha = parse_fo("p(c) & E x. ~x=c")
    found = brute_fo_sat(alpha, "any", 3)
    assert found is not None
    s = found.structure
    assert s.constants["c"] in s.unary["p"]
    assert len(s.domain) == 2
