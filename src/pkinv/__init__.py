"""Inverse folding for crossing RNA structures.

Library layout: structure (arc diagrams and validation), loops (the loop
census and the interval ladder), sequences (compatible sequence space),
oracle (reference exhaustive folder with a surrogate energy model),
search (the inverse-folding search itself), cli (command line).

Importing the package loads none of them: each submodule, and each name
exported here, is imported from its module on first access (PEP 562), so
a command that needs only the structure module loads only that.
"""

__version__ = "0.1.0"

# every exported name, and every submodule, mapped to the module it lives in
_HOMES = {
    **dict.fromkeys(
        ("IntervalPlan", "LoopComponent", "build_intervals"),
        "loops"),
    **dict.fromkeys(
        ("EnergyModel", "FoldResult", "ReferenceFoldOracle", "SizeGuard",
         "energy_of", "fold"),
        "oracle"),
    **dict.fromkeys(
        ("InvalidTarget", "InvResult", "SearchConfig", "SearchFailed",
         "adjust_sequence", "competitor_census", "inverse_fold", "local_search",
         "mutate_against_competitors"),
        "search"),
    **dict.fromkeys(
        ("PAIRS", "can_pair", "compatible_distance", "compatible_neighbors",
         "is_compatible", "random_compatible_sequence"),
        "sequences"),
    **dict.fromkeys(
        ("Arc", "Structure", "ValidationPolicy", "Violation", "crossing_number",
         "parse_structure", "restrict_structure", "serialize_structure",
         "stacks", "structure_distance", "validate_target"),
        "structure"),
    **{module: module
       for module in ("loops", "oracle", "search", "sequences", "structure")},
}

__all__ = [name for name, home in _HOMES.items() if name != home]


def __getattr__(name: str):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # __import__, unlike importlib.import_module, shows in -X importtime;
    # a nonempty fromlist makes it return the submodule itself
    module = __import__(f"{__name__}.{home}", fromlist=["_"])
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOMES.keys())
