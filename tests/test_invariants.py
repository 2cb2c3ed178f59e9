"""Cross-module invariant sweeps pinned by the module contracts."""

import ast
from pathlib import Path

import hylo
from hylo.checker import phi_type
from hylo.formula import parse, prop
from hylo.model import HybridModel, cliques, is_transitive, transitive_closure
from hylo.oracle import brute_sat, find_eval_difference, frames
from hylo.satellites import parse_fo
from hylo.solver import Budget, bounds_for, sat_complete, sat_transitive
from hylo.translate import complete_reduction, ht


def test_derived_operator_coherence():
    pairs = [
        ("[]p", "~<>~p"),
        ("G p", "~F ~p"),
        ("H p", "~P ~p"),
        ("A p", "~E ~p"),
        ("p -> q", "~p | q"),
        ("p | q", "~(~p & ~q)"),
        ("p <-> q", "(p -> q) & (q -> p)"),
    ]
    for left, right in pairs:
        assert find_eval_difference(parse(left), parse(right), "any", 4) is None, left


def test_until_expresses_future():
    assert find_eval_difference(parse("F p"), parse("U(p, true)"), "any", 4) is None
    assert find_eval_difference(parse("<>p"), parse("U(p, true)"), "any", 4) is None


def test_at_via_somewhere():
    assert (
        find_eval_difference(parse("@'i p"), parse("E('i & p)"), "any", 3) is None
    )


def test_until_variants_collapse_on_transitive():
    for variant in ["U+(p, q)", "U++(p, q)"]:
        assert (
            find_eval_difference(parse("U(p, q)"), parse(variant), "transitive", 4)
            is None
        ), variant
    for variant in ["S+(p, q)", "S++(p, q)"]:
        assert (
            find_eval_difference(parse("S(p, q)"), parse(variant), "transitive", 4)
            is None
        ), variant


def test_clique_type_invariance_transitive_models():
    phi = parse("<>p & <><>p")
    for k in range(1, 5):
        names = tuple(f"s{i}" for i in range(k))
        # one deterministic valuation per frame keeps the sweep affordable
        val = {"p": frozenset(n for i, n in enumerate(names) if i % 2 == 0)}
        for rel in frames("transitive", k):
            m = HybridModel(names, rel, val)
            parts, _ = cliques(m)
            for part in parts:
                types = {phi_type(m, phi, s) for s in part}
                assert len(types) == 1, (sorted(rel), part)


def test_transitive_closure_minimality():
    # the closure is contained in every transitive relation extending rel
    for k in (2, 3):
        names = tuple(f"s{i}" for i in range(k))
        transitive_supersets = list(frames("transitive", k))
        for rel in frames("any", k):
            closed = transitive_closure(HybridModel(names, rel)).rel
            assert is_transitive(HybridModel(names, closed))
            for sup in transitive_supersets:
                if rel <= sup:
                    assert closed <= sup, (sorted(rel), sorted(sup))


MC_CORPUS = [
    "E x. p(x)",
    "A x. (p(x) -> q(x))",
    "E x. E y. ~x=y",
    "(E x. p(x)) & (A x. ~p(x))",
    "E x. (p(x) & A y. (p(y) -> x=y))",
]


def test_complete_frame_paths_agree():
    # verdict agreement only; the budget covers the witnesses of the
    # satisfiable members (single complete clique), and bounded failure on
    # the others lands on the not-sat side of both paths
    budget = Budget(max_clique=3, max_nodes=1, max_c=0)
    for text in MC_CORPUS:
        alpha = parse_fo(text)
        via_complete = sat_complete(ht(alpha), budget).is_sat
        via_transitive = sat_transitive(complete_reduction(alpha), budget).is_sat
        assert via_complete == via_transitive, text


def test_brute_sat_decides_complete_fragment():
    corpus = ["down $x . <> $x", "p & ~p", "(down $x . ~<> $x) & <>true", "p & []p"]
    for text in corpus:
        phi = parse(text)
        _, clique_bound, _ = bounds_for(phi)
        direct = brute_sat(phi, "complete", max(clique_bound, 1)) is not None
        via_solver = sat_complete(phi, Budget(max_clique=max(clique_bound, 1))).is_sat
        assert direct == via_solver, text


def test_solver_bounds_are_exhaustive_for_complete(capsys):
    result = sat_complete(parse("(down $x . ~<> $x) & <>true"), Budget(max_clique=4))
    assert result.status == "unsat" and result.exhaustive


def test_no_cache_is_keyed_on_object_identity():
    # CPython reuses the address of a freed object, so an id()-keyed memo
    # can hand one object's entry to another; interned and cached nodes
    # make id() unnecessary anywhere in the package
    calls = []
    for path in sorted(Path(hylo.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "id":
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


def _load_time_imports(tree):
    """The modules a module imports when it loads: its import statements
    outside function bodies, relative ones resolved inside the package."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                yield f"hylo.{node.module}"
            else:
                yield from (f"hylo.{alias.name}" for alias in node.names)
        else:
            stack.extend(ast.iter_child_nodes(node))


def test_only_the_oracle_loads_numpy():
    # numpy costs every process that loads it; only the oracle's lane engine
    # uses it, so no other module may load it, directly or through an import
    imports = {}
    for path in Path(hylo.__file__).parent.glob("*.py"):
        name = "hylo" if path.stem == "__init__" else f"hylo.{path.stem}"
        imports[name] = set(_load_time_imports(ast.parse(path.read_text(encoding="utf-8"))))
    loaders = {m for m, deps in imports.items() if any(d.split(".")[0] == "numpy" for d in deps)}
    while True:
        # a submodule loads its package first
        more = {m for m, deps in imports.items() if deps & loaders or "hylo" in loaders}
        if more <= loaders:
            break
        loaders |= more
    assert loaders == {"hylo.oracle"}


def test_no_module_imports_dataclasses_or_inspect():
    # both cost every process start-up; formula.record builds the records
    # and reads the annotations that these modules would
    for path in Path(hylo.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module)
        assert imported.isdisjoint({"dataclasses", "inspect"}), path.name


def test_every_syntax_tree_class_is_an_interned_node():
    # a class with a field typed by a node family is syntax; as a value
    # record it would hash its whole subtree on every memo lookup, and
    # children, rebuild and map_nodes could not walk it
    import importlib
    import inspect
    import pkgutil

    from hylo.formula import _Node

    classes = set()
    for info in pkgutil.iter_modules(hylo.__path__):
        module = importlib.import_module(f"hylo.{info.name}")
        classes |= {c for _, c in inspect.getmembers(module, inspect.isclass) if c.__module__ == module.__name__}
    def name(kind):  # a string, a forward reference or a class
        return getattr(kind, "__forward_arg__", getattr(kind, "__name__", kind))

    kinds = {c: set(map(name, inspect.get_annotations(c).values())) for c in classes}
    # a node family: a class that some field of one of its own subclasses is typed by
    families = {base.__name__ for c in classes for base in c.__mro__ if base in classes and base.__name__ in kinds[c]}
    assert {"Formula", "FOFormula", "PdlProgram", "PdlFormula"} <= families
    loose = sorted(c.__name__ for c in classes if kinds[c] & families and not issubclass(c, _Node))
    assert loose == []


def _descendants(base):
    out, stack = set(), [base]
    while stack:
        for sub in stack.pop().__subclasses__():
            out.add(sub)
            stack.append(sub)
    return out


def test_every_formula_class_has_one_case_in_each_engine():
    # a dict holds one case per key, so equal key sets mean exactly one
    from hylo.checker import _CASES
    from hylo.formula import MODAL_FORMS, UNTIL_FORMS, Formula
    from hylo.oracle import _LANE_CASES

    classes = _descendants(Formula)
    assert set(_CASES) == classes
    assert set(_LANE_CASES) == classes
    assert not MODAL_FORMS.keys() & UNTIL_FORMS.keys()


def test_every_fo_formula_class_has_one_case_in_each_fo_engine():
    # fo_eval and the first-order search's two tables, as the test above
    # does for the hybrid engines
    from hylo.oracle import _REQUIRE_CASES, _STATUS_CASES
    from hylo.satellites import _FO_CASES, FOFormula

    classes = _descendants(FOFormula)
    assert set(_FO_CASES) == classes
    assert set(_REQUIRE_CASES) == classes
    assert set(_STATUS_CASES) == classes


def test_fo_junctions_are_the_binary_connectives():
    from hylo.satellites import FO_JUNCTIONS, FOFormula

    assert set(FO_JUNCTIONS) == {c for c in _descendants(FOFormula) if len(c._kids) == 2}


def test_no_module_level_import_is_unused():
    # an import nothing reads costs start-up and misstates what a module
    # depends on; annotations are parsed too, so a name used only in one
    # counts as used
    unused = []
    for path in sorted(Path(hylo.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
