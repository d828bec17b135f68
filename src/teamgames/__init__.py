"""Cooperative game analysis: TU games, team games, and cooperation space.

The package splits into:

* :mod:`teamgames.players` - coalitions as bit masks;
* :mod:`teamgames.tu` - classical transferable-utility machinery (Shapley
  value, convexity, superadditivity, core membership and existence);
* :mod:`teamgames.st` - subset team games, the altruistic/competitive
  decomposition of marginal contributions, and cooperation-space
  classification;
* :mod:`teamgames.additivity` - additive/co-additive/bi-additive structure,
  fast metric formulas, and perception-graph export;
* :mod:`teamgames.cobb` - the Cobb-Douglas resource-contribution game with
  stability bounds, rational contributions, and sweep tables;
* :mod:`teamgames.game_io` - ``.game`` documents, CSV tables, edge lists;
* :mod:`teamgames.cli` - the ``teamgames`` command.
"""

from .players import PlayerSet, subsets, disjoint_pairs
from .tu import (
    DEFAULT_TOL,
    TUGame,
    marginal_contribution,
    shapley_value,
    shapley_value_stratified,
    shapley_by_permutations,
    is_convex,
    is_superadditive,
    in_core,
    core_witness,
    core_is_nonempty,
    unanimity_game,
    random_convex_game,
)
from .st import (
    STGame,
    CoopPoint,
    Quadrant,
    NULL_OUTCOME,
    total_marginal,
    competitive_contribution,
    altruistic_contribution,
    coop_point,
    all_coop_points,
    classify_quadrant,
    is_sensible,
    is_cohesive,
    is_fully_cooperative,
    in_st_core,
    from_ntu,
    reduce_to_tu,
)
from .additivity import (
    BiAdditiveMatrix,
    PerceptionGraph,
    AdditiveReport,
    CoadditiveReport,
    is_additive,
    is_coadditive,
    is_biadditive,
    extract_matrix,
    fast_metrics,
    additive_metrics,
    coadditive_metrics,
    additive_predicates,
    coadditive_predicates,
    export_graph,
)
from .cobb import (
    UNBOUNDED,
    CobbDouglasConfig,
    ContributionProfile,
    PayoffScheme,
    PROPORTIONAL,
    EQUAL,
    hybrid,
    cd_value,
    payoff,
    cd_subset_utility,
    cd_competitive,
    cd_altruistic,
    cd_marginal,
    cd_coop_point,
    cd_fully_cooperative,
    st_game_view,
    avg_return_condition,
    max_stable_team_size,
    rational_contribution,
    symmetric_rational_contribution,
    zero_altruism_contour,
    altruism_roots,
    cooperation_path,
    payoff_utility_grid,
    stable_size_grid,
)
from .game_io import load_game, save_game, write_table, write_edges
from .errors import (
    GameError,
    DisjointnessError,
    SizeLimitError,
    MissingUtilityError,
    NumericOverflowError,
    StructureError,
    NotReducibleError,
    GameLoadError,
)

__version__ = "0.1.0"
