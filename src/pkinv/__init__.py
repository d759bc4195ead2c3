"""Inverse folding for crossing RNA structures.

Library layout: structure (arc diagrams and validation), loops (the loop
decomposition and interval ladder), sequences (compatible sequence
space), oracle (reference exhaustive folder with a surrogate energy
model), search (the inverse-folding search itself), cli (command line).
"""

from .loops import (
    IntervalPlan,
    Loop,
    LoopComponent,
    build_intervals,
    decompose_loops,
)
from .oracle import (
    EnergyModel,
    FoldResult,
    ReferenceFoldOracle,
    SizeGuard,
    energy_of,
    enumerate_structures,
    fold,
)
from .search import (
    InvalidTarget,
    InvResult,
    SearchConfig,
    SearchFailed,
    SearchTrace,
    adjust_sequence,
    competitor_census,
    inverse_fold,
    local_search,
    mutate_against_competitors,
)
from .sequences import (
    PAIRS,
    can_pair,
    compatible_distance,
    compatible_neighbors,
    is_compatible,
    random_compatible_sequence,
)
from .structure import (
    Arc,
    Structure,
    ValidationPolicy,
    Violation,
    crossing_number,
    parse_structure,
    restrict_structure,
    serialize_structure,
    stacks,
    structure_distance,
    validate_target,
)

__version__ = "0.1.0"
