"""The package's public names, looked up in their submodules on first use."""

import importlib
import os
import subprocess
import sys

import pytest

import hylo

PUBLIC = [
    "Budget", "FiniteRep", "Formula", "FragmentError", "HybridModel", "ParseError",
    "SatResult", "brute_fo_sat", "brute_global_sat", "brute_sat", "compute_types",
    "diamond_closure", "enumerate_models", "eval_formula", "fragment_of", "free_vars",
    "global_eval", "load_model", "parse", "phi_type", "print_formula", "realize",
    "sat_complete", "sat_transitive", "save_model", "strip_free", "verify",
]


def test_every_public_name_is_its_submodules_object():
    assert sorted(hylo.__all__) == PUBLIC
    for name in hylo.__all__:
        module = importlib.import_module(f"hylo.{hylo._EXPORTS[name]}")
        assert getattr(hylo, name) is getattr(module, name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from hylo import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(hylo.__all__)


def test_dir_lists_every_public_name():
    assert set(hylo.__all__) <= set(dir(hylo))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hylo.no_such_name


def test_importing_the_package_loads_no_submodule():
    src = os.path.dirname(os.path.dirname(os.path.abspath(hylo.__file__)))
    script = "import sys, hylo; print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('hylo')))"
    proc = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout == "['hylo']\n"
