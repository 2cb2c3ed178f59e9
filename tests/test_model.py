import json
from itertools import compress, product

import pytest

from hylo.model import (
    HybridModel,
    cliques,
    generated_submodel,
    is_complete,
    is_linear,
    is_transitive,
    is_transitive_tree,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    transitive_closure,
)
from hylo.model import _is_tree_order


def M(states, rel, val=None, nom=None):
    return HybridModel(tuple(states), frozenset(rel), val or {}, nom or {})


def test_single_state_predicates():
    m = M(["a"], [])
    assert is_transitive(m)
    assert not is_complete(m)
    assert is_linear(m)
    assert is_transitive_tree(m)


def test_complete_two_clique():
    m = M(["a", "b"], [("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")])
    assert is_complete(m)
    assert is_transitive(m)
    assert not is_linear(m)
    assert not is_transitive_tree(m)


def test_chain_missing_edge_not_transitive():
    m = M(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert not is_transitive(m)
    closed = transitive_closure(m)
    assert ("a", "c") in closed.rel
    assert is_transitive(closed)
    assert transitive_closure(closed) == closed


def test_two_cycle_closure_adds_loops():
    m = M(["a", "b"], [("a", "b"), ("b", "a")])
    closed = transitive_closure(m)
    assert ("a", "a") in closed.rel and ("b", "b") in closed.rel


def test_invariant_validation():
    with pytest.raises(ValueError):
        M(["a"], [("a", "b")])
    with pytest.raises(ValueError):
        M(["a"], [], val={"p": {"zz"}})
    with pytest.raises(ValueError):
        M(["a"], [], nom={"i": "zz"})
    with pytest.raises(ValueError):
        M(["a", "a"], [])


def test_transitive_tree_examples():
    root_child = M(["r", "c"], [("r", "c")])
    assert is_transitive_tree(root_child)
    chain = M(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert is_transitive_tree(chain)
    assert is_linear(chain)
    forest = M(["a", "b"], [])
    assert not is_transitive_tree(forest)  # not connected
    dag = M(["a", "b", "c"], [("a", "c"), ("b", "c")])
    assert not is_transitive_tree(dag)  # two predecessors
    assert not is_transitive_tree(M([], []))  # no root


def test_transitive_trees_number_k_to_the_k_minus_1():
    # the closures of the k^(k-1) rooted labelled trees on k states
    for k in (1, 2, 3):
        names = [f"s{i}" for i in range(k)]
        pairs = list(product(names, repeat=2))
        relations = (compress(pairs, bits) for bits in product((0, 1), repeat=len(pairs)))
        assert sum(is_transitive_tree(M(names, rel)) for rel in relations) == k ** (k - 1)



def test_tree_orders_are_the_closures_of_rooted_parent_maps():
    # the test that is_transitive_tree and FiniteRep share, on every strict
    # order of up to 4 index nodes: it accepts exactly the ancestor relations
    # of the rooted trees, built here by following each node's parent
    for k in (1, 2, 3, 4):
        nodes = range(k)
        trees = set()
        for parents in product([None, *nodes], repeat=k):
            if parents.count(None) != 1:
                continue
            order = set()
            for v in nodes:
                u, seen = parents[v], {v}
                while u is not None and u not in seen:
                    order.add((u, v))
                    seen.add(u)
                    u = parents[u]
                if u is not None:  # a cycle of parents
                    break
            else:
                trees.add(frozenset(order))
        assert len(trees) == k ** (k - 1)
        pairs = [(a, b) for a in nodes for b in nodes if a != b]
        for bits in product((0, 1), repeat=len(pairs)):
            order = frozenset(compress(pairs, bits))
            if any((a, d) not in order for a, b in order for c, d in order if b == c and a != d):
                continue  # not transitive
            if any((b, a) in order for a, b in order):
                continue  # not a strict order
            assert _is_tree_order(nodes, order) == (order in trees), (k, sorted(order))
    assert not _is_tree_order(range(0), frozenset())

def test_generated_submodel():
    m = M(
        ["a", "b", "c"],
        [("a", "b"), ("b", "c"), ("a", "c")],
        val={"p": {"a", "c"}},
        nom={"i": "a", "j": "c"},
    )
    g = generated_submodel(m, "b")
    assert g.states == ("b", "c")
    assert g.val["p"] == {"c"}
    assert g.nomval == {"j": "c"}
    iso = M(["a", "b"], [])
    assert generated_submodel(iso, "a").states == ("a",)
    comp = M(["a", "b"], [("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")])
    assert generated_submodel(comp, "a") == comp
    with pytest.raises(ValueError):
        generated_submodel(m, "zz")


def test_generated_submodel_satisfies_invariants():
    m = M(["a", "b", "c"], [("a", "b")])
    g = generated_submodel(m, "a")
    assert g.states == ("a", "b")


def test_cliques():
    m = M(
        ["a", "b", "c"],
        [("a", "b"), ("b", "a"), ("a", "a"), ("b", "b"), ("a", "c"), ("b", "c")],
    )
    parts, edges = cliques(m)
    assert parts == [["a", "b"], ["c"]]
    assert edges == {(0, 1)}

    chain = M(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    parts, edges = cliques(chain)
    assert parts == [["a"], ["b"], ["c"]]
    assert edges == {(0, 1), (1, 2), (0, 2)}

    full = M(
        ["a", "b", "c"],
        [(s, t) for s in "abc" for t in "abc"],
    )
    parts, edges = cliques(full)
    assert parts == [["a", "b", "c"]]
    assert edges == frozenset()

    with pytest.raises(ValueError):
        cliques(M(["a", "b", "c"], [("a", "b"), ("b", "c")]))


def test_clique_condensation_acyclic():
    m = M(
        ["a", "b", "c", "d"],
        [
            ("a", "b"), ("b", "a"), ("a", "a"), ("b", "b"),
            ("a", "c"), ("b", "c"), ("a", "d"), ("b", "d"), ("c", "d"),
        ],
    )
    parts, edges = cliques(m)
    assert (0, 1) in edges and (1, 0) not in edges
    for i, j in edges:
        assert (j, i) not in edges


def test_reflexive_singleton_is_clique():
    m = M(["a", "b"], [("a", "a"), ("a", "b")])
    parts, edges = cliques(m)
    assert parts == [["a"], ["b"]]
    assert edges == {(0, 1)}


def test_file_format_roundtrip(tmp_path):
    m = M(
        ["a", "b"],
        [("a", "b")],
        val={"p": {"a"}},
        nom={"i": "b"},
    )
    path = tmp_path / "m.json"
    save_model(m, path)
    assert load_model(path) == m


def test_file_format_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"states": ["a"], "bogus": 1}))
    with pytest.raises(ValueError, match="unknown keys"):
        load_model(path)
    with pytest.raises(ValueError, match="states"):
        model_from_dict({"rel": []})


def test_model_to_dict_is_sorted_and_loadable():
    m = M(["b", "a"], [("b", "a")], val={"p": {"b"}})
    doc = model_to_dict(m)
    assert doc["states"] == ["b", "a"]
    assert model_from_dict(doc) == m


def test_adjacency_is_cached_in_state_order_and_handed_out_as_copies():
    m = M(["a", "b", "c"], [("c", "a"), ("a", "c"), ("a", "b"), ("b", "b")])
    assert m.successors("a") == ["b", "c"]
    assert m.predecessors("b") == ["a", "b"]
    assert m.successors("zz") == []
    m.successors("a").append("zz")
    assert m.successors("a") == ["b", "c"]
    assert m._relation() is m._relation()
    for plus in (False, True):
        assert m._relation(plus, converse=True) is m._relation(plus, converse=True)
    # R+ and its converse, successor lists in declared state order
    assert m._relation(plus=True)[0] == {"a": ["a", "b", "c"], "b": ["b"], "c": ["a", "b", "c"]}
    assert m._relation(plus=True, converse=True)[0]["b"] == ["a", "b", "c"]
    assert m._relation(converse=True)[1] == {(a, b) for b, a in m.rel}


def _checked(m):
    """The same parts through the validating constructor."""
    return HybridModel(m.states, m.rel, m.val, m.nomval)


def test_submodels_and_closures_equal_their_validated_construction():
    names = ("a", "b", "c")
    pairs = list(product(names, repeat=2))
    for bits in range(0, 1 << len(pairs), 7):
        rel = frozenset(compress(pairs, ((bits >> i) & 1 for i in range(len(pairs)))))
        m = M(names, rel, {"p": {"a", "c"}, "q": set()}, {"i": "b"})
        for out in [transitive_closure(m)] + [generated_submodel(m, s) for s in names]:
            assert out == _checked(out)
            assert (type(out.states), type(out.rel), type(out.val), type(out.nomval)) == (
                tuple, frozenset, dict, dict
            )
            assert all(type(ss) is frozenset for ss in out.val.values())
            assert out._views is not m._views and out.val is not m.val
            assert out._relation(plus=True) == _checked(out)._relation(plus=True)
        assert transitive_closure(m) == M(names, m._relation(plus=True)[1], m.val, m.nomval)
