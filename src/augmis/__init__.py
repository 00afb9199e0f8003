"""Exact maximum independent set via augmenting subgraphs.

Targets graphs with no induced spider(1,1,3) and no induced complete
bipartite K(p,p): a greedy start is improved by repeated augmentation
using three finders (alternating chordless paths, subdivided-star
extensions, and a finite catalogue of minimal augmenting graphs), plus
enumeration-backed verifiers for the structure facts the method rests on.
"""

__version__ = "0.1.0"

from .graphs import (
    Graph,
    connected_components,
    is_independent,
)
from .patterns import (
    Pattern,
    class_patterns,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    find_forbidden,
    find_induced,
    is_free,
    parse_pattern,
    path_graph,
    spider,
    subdivided_star,
)
from .irreducible import (
    Catalog,
    CatalogEntry,
    ColoredBipartite,
    SearchBudgetError,
    bipartite_ramsey_search,
    enumerate_irreducible,
    hall_surplus_check,
    is_irreducible,
)
from .finders import (
    RoundState,
    find_augmenting_path,
    find_from_catalog,
    find_tree_extension,
    round_state,
)
from .solver import (
    MisResult,
    SolveConfig,
    SolveResult,
    brute_force_mis,
    default_catalog,
    solve_mis,
)
from .instances import (
    GenerationError,
    PlantSpec,
    gen_free_random,
    line_graph,
    max_matching_size,
    plant_augmenting_tree,
)
from .verify import (
    StarAnatomy,
    SweepReport,
    anatomy_violations,
    compute_anatomy,
    verify_extension_bound,
    verify_min_classes,
    verify_path_or_cycle,
    verify_star_anatomy,
)

__all__ = [name for name in dir() if not name.startswith("_")]
