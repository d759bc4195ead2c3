"""The package namespace: every export resolves, each from its own module."""

import ast
from importlib import import_module
from pathlib import Path

import pytest

import pkinv

from .helpers import python_process, run_python

EXPORTS = {
    "loops": ["IntervalPlan", "LoopComponent", "build_intervals"],
    "oracle": ["EnergyModel", "FoldResult", "ReferenceFoldOracle", "SizeGuard",
               "energy_of", "fold"],
    "search": ["InvalidTarget", "InvResult", "SearchConfig", "SearchFailed",
               "adjust_sequence", "competitor_census", "inverse_fold",
               "local_search", "mutate_against_competitors"],
    "sequences": ["PAIRS", "can_pair", "compatible_distance",
                  "compatible_neighbors", "is_compatible",
                  "random_compatible_sequence"],
    "structure": ["Arc", "Structure", "ValidationPolicy", "Violation",
                  "crossing_number", "parse_structure", "restrict_structure",
                  "serialize_structure", "stacks", "structure_distance",
                  "validate_target"],
}
NAMES = [name for names in EXPORTS.values() for name in names]


def test_all_lists_the_exports():
    assert len(NAMES) == 35
    assert sorted(pkinv.__all__) == sorted(NAMES)


@pytest.mark.parametrize("module", EXPORTS)
def test_each_export_is_its_modules_own_object(module):
    home = import_module(f"pkinv.{module}")
    assert getattr(pkinv, module) is home
    for name in EXPORTS[module]:
        assert getattr(pkinv, name) is getattr(home, name)


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from pkinv import *", namespace)
    assert {name: namespace[name] for name in NAMES} == {
        name: getattr(pkinv, name) for name in NAMES}
    assert set(NAMES) | set(EXPORTS) <= set(dir(pkinv))


def test_import_loads_submodules_on_first_use():
    code = ("import sys\n"
            "import pkinv\n"
            "print(*sorted(m for m in sys.modules if m.startswith('pkinv')))\n"
            "print(pkinv.oracle.__name__, pkinv.fold.__module__)")
    assert run_python(code).splitlines() == ["pkinv", "pkinv.oracle pkinv.oracle"]


def test_namespace_imports_show_in_importtime():
    # python -X importtime logs what __import__ loads, not importlib.import_module
    log = python_process("import pkinv; pkinv.search", "-X", "importtime").stderr
    logged = {line.rsplit("|", 1)[-1].strip() for line in log.splitlines()
              if line.startswith("import time:")}
    assert {"pkinv", "pkinv.search", "pkinv.oracle", "pkinv.sequences"} <= logged


def test_helpers_keep_off_the_code_they_check():
    # the reference decomposition in tests/helpers.py checks pkinv.loops,
    # so it may import nothing from it, and no private name of pkinv
    tree = ast.parse((Path(__file__).parent / "helpers.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [(node.module, alias.name) for alias in node.names]
    pkinv_imports = [(module, name) for module, name in imported
                     if (module or "").split(".")[0] == "pkinv"]
    assert pkinv_imports  # the walk sees the imports
    for module, name in pkinv_imports:
        assert module != "pkinv.loops" and (module, name) != ("pkinv", "loops")
        assert not (name or module.rsplit(".", 1)[-1]).startswith("_"), (module, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        pkinv.no_such_name


def test_every_cache_is_bounded():
    # caches live for the whole process, so each holds a fixed number of
    # entries
    caches = {}
    for module in ("structure", "loops", "sequences", "oracle", "search"):
        for name, value in vars(import_module(f"pkinv.{module}")).items():
            if callable(getattr(value, "cache_info", None)):
                caches[name] = value.cache_info().maxsize
    assert {"_stack_arcs", "_pair_table", "_floor_table", "validate_target",
            "build_intervals", "restrict_structure", "_site_order",
            "sites"} <= set(caches)
    assert [name for name, maxsize in caches.items() if maxsize is None] == []


def test_no_invariant_is_left_to_assert():
    # python -O strips assert statements, so an invariant is raised as an
    # exception instead
    sources = sorted(Path(pkinv.__file__).parent.glob("*.py"))
    assert len(sources) == 7
    for source in sources:
        tree = ast.parse(source.read_text())
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], (source.name, lines)
