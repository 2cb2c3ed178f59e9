"""The frozen records: the value classes and the formula nodes that
``hylo.formula.record`` builds."""

import pickle

import pytest

from hylo.blocktree import FiniteRep, VerifyResult
from hylo.formula import FrozenInstanceError, parse, prop
from hylo.model import HybridModel
from hylo.oracle import FOFound, Found
from hylo.satellites import FOStructure, SiblingTree
from hylo.solver import Budget, SatResult


def _values():
    m = HybridModel(("a", "b"), {("a", "b")}, {"p": {"b"}}, {"i": "a"})
    s = FOStructure((0, 1), set())
    rep = FiniteRep(("m0",), (), {("m0", "m0")}, {"p": {"m0"}})
    return [
        m, rep, VerifyResult(True, None, {}), Budget(), SatResult("unknown"), s,
        SiblingTree(("r",), {"r": None}, {}), Found(m, "a"), FOFound(s),
    ]


@pytest.mark.parametrize("value", _values() + [parse("<>p")], ids=lambda v: type(v).__name__)
def test_fields_cannot_be_assigned_or_deleted(value):
    name = value.__match_args__[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, None)
    with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
        delattr(value, name)
    with pytest.raises(FrozenInstanceError):
        value.other = 1


def test_values_compare_and_hash_by_their_fields():
    assert Budget() == Budget(4, 8, 4) == Budget(max_c=4, max_clique=4)
    assert hash(Budget()) == hash(Budget(4, 8, 4))
    assert Budget() != Budget(4, 8, 3)
    assert Budget() != (4, 8, 4)
    assert SatResult("sat", candidates=2) == SatResult("sat", None, None, False, False, (0, 0, 0), 2)
    m = HybridModel(("a",), ())
    assert m == HybridModel(states=["a"], rel=set()) != HybridModel(("a",), (), {"p": {"a"}})
    # a dict field makes a value unhashable, as it made the dataclass
    with pytest.raises(TypeError, match="unhashable"):
        hash(m)


def test_nodes_compare_and_hash_by_identity():
    f = parse("<>p")
    assert type(f).__eq__ is object.__eq__ and hash(f) == object.__hash__(f)
    assert f == parse("<>p") and f != parse("[]p")


def test_dict_defaults_are_fresh_per_instance():
    pairs = [
        (SatResult("unknown"), SatResult("unknown"), ["stats"]),
        (HybridModel(("a",), ()), HybridModel(("a",), ()), ["val", "nomval"]),
        (FiniteRep(("m",), (), ()), FiniteRep(("m",), (), ()), ["val", "ref"]),
        (FOStructure((0,), ()), FOStructure((0,), ()), ["unary", "constants"]),
        (SiblingTree(("r",), {"r": None}, {}), SiblingTree(("r",), {"r": None}, {}), ["labels"]),
    ]
    for one, other, names in pairs:
        for name in names:
            assert getattr(one, name) == {} and getattr(one, name) is not getattr(other, name), name
    first = SatResult("unknown")
    first.stats["seen"] = 1
    assert SatResult("unknown").stats == {}


def test_keyword_and_positional_construction_agree():
    assert Budget(max_nodes=2) == Budget(4, 2)
    assert SatResult(status="unsat", exhaustive=True).exhaustive
    m = HybridModel(states=("a", "b"), rel={("a", "b")}, nomval={"i": "b"})
    assert m == HybridModel(("a", "b"), {("a", "b")}, {}, {"i": "b"})
    assert FOStructure(domain=(0,), binrel=(), constants={"c": 0}).constants == {"c": 0}
    assert Found(state="a", model=m).state == "a"
    with pytest.raises(TypeError, match=r"Budget.__init__\(\) got an unexpected keyword argument 'nodes'"):
        Budget(nodes=2)
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'state'"):
        Found(m)


def test_match_args_name_the_fields_in_order():
    match Budget(1, 2, 3):
        case Budget(clique, nodes, c):
            assert (clique, nodes, c) == (1, 2, 3)
    assert HybridModel.__match_args__ == ("states", "rel", "val", "nomval")
    assert SatResult.__match_args__[:2] == ("status", "witness_rep")
    assert type(parse("@'i p")).__match_args__ == ("term", "body")


def test_reprs_are_the_dataclass_reprs():
    m = HybridModel(("a", "b"), {("a", "b")}, {"p": {"b"}}, {"i": "a"})
    assert repr(m) == (
        "HybridModel(states=('a', 'b'), rel=frozenset({('a', 'b')}), val={'p': frozenset({'b'})}, nomval={'i': 'a'})"
    )
    assert repr(Budget()) == "Budget(max_clique=4, max_nodes=8, max_c=4)"
    assert repr(SatResult("unknown")) == (
        "SatResult(status='unknown', witness_rep=None, witness_guess=None, exhaustive=False, "
        "nominal_warning=False, bounds=(0, 0, 0), candidates=0, note=None, stats={})"
    )
    assert repr(FOFound(FOStructure((0, 1), ()))) == (
        "FOFound(structure=FOStructure(domain=(0, 1), binrel=frozenset(), unary={}, constants={}))"
    )
    assert repr(SiblingTree(("r",), {"r": None}, {})) == (
        "SiblingTree(nodes=('r',), parent={'r': None}, children={}, labels={})"
    )
    assert repr(VerifyResult(False, "no", {})) == "VerifyResult(accepted=False, reason='no', types={})"
    assert repr(parse("@'i p & true")) == (
        "And(left=At(term=Atom(kind='nom', name='i'), body=Atom(kind='prop', name='p')), right=Top())"
    )


def test_the_post_init_on_the_class_when_constructed_is_called(monkeypatch):
    # the traced benchmark counts model and representation builds by
    # patching __post_init__ after import
    calls = []
    for cls in (HybridModel, FiniteRep):
        original = cls.__post_init__

        def counted(self, original=original):
            calls.append(type(self).__name__)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    FiniteRep(("m0",), (), ())
    assert calls == ["FiniteRep", "HybridModel"]
    with pytest.raises(ValueError, match="duplicate state ids"):
        HybridModel(("a", "a"), ())
    with pytest.raises(ValueError, match="bad atom name"):
        prop("1p")


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_values_pickle(value):
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value) and repr(copy) == repr(value)
