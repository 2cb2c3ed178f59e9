"""Hybrid modal logic over transitive frames.

Parsing and printing, model checking on finite hybrid Kripke models,
block-tree satisfiability over transitive and complete frames, the full
set of logic-to-logic translations, and a brute-force finite-model oracle.

Importing the package loads no submodule.  Each public name below is
looked up in its submodule on first use (PEP 562), so ``hylo.parse`` loads
only ``hylo.formula``, and numpy is loaded only with ``hylo.oracle``.
"""

import importlib

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        (
            "Formula", "FragmentError", "ParseError", "diamond_closure", "fragment_of",
            "free_vars", "parse", "print_formula", "strip_free",
        ),
        "formula",
    ),
    **dict.fromkeys(("HybridModel", "load_model", "save_model"), "model"),
    **dict.fromkeys(("eval_formula", "global_eval", "phi_type"), "checker"),
    **dict.fromkeys(("FiniteRep", "compute_types", "realize", "verify"), "blocktree"),
    **dict.fromkeys(("Budget", "SatResult", "sat_complete", "sat_transitive"), "solver"),
    **dict.fromkeys(("brute_fo_sat", "brute_global_sat", "brute_sat", "enumerate_models"), "oracle"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
