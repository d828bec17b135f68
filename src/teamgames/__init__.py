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
  rational contributions and sweep tables; its parameters and stability
  bounds are in the numpy-free :mod:`teamgames.cobb_params`;
* :mod:`teamgames.game_io` - ``.game`` documents, CSV tables, edge lists;
  it re-exports the CSV writer of the numpy-free :mod:`teamgames.csv_tables`,
  as :mod:`teamgames.st` re-exports the quadrant rule of
  :mod:`teamgames.quadrants`, so the ``cobb`` commands load neither;
* :mod:`teamgames.cli` - the ``teamgames`` command.

Names load on first use: ``import teamgames`` imports no submodule, and
``teamgames.shapley_value`` imports :mod:`teamgames.tu` and its imports only.
"""

import importlib

# the public names of each submodule that the package exports
_MODULE_EXPORTS = {
    "players": "PlayerSet subsets",
    "limits": "DEFAULT_TOL",
    "tu": """TUGame marginal_contribution shapley_value is_convex is_superadditive in_core
        core_witness core_is_nonempty unanimity_game random_convex_game""",
    "st": """STGame CoopPoint Quadrant NULL_OUTCOME total_marginal competitive_contribution
        altruistic_contribution coop_point all_coop_points classify_quadrant is_sensible
        is_cohesive is_fully_cooperative from_ntu reduce_to_tu""",
    "additivity": """BiAdditiveMatrix PerceptionGraph AdditiveReport CoadditiveReport is_additive
        is_coadditive is_biadditive extract_matrix fast_metrics additive_metrics
        coadditive_metrics additive_predicates coadditive_predicates export_graph""",
    "cobb_params": "UNBOUNDED CobbDouglasConfig max_stable_team_size stable_size_grid",
    "cobb": """ContributionProfile PayoffScheme PROPORTIONAL EQUAL hybrid cd_value payoff
        cd_subset_utility cd_competitive cd_altruistic cd_marginal cd_coop_point
        cd_fully_cooperative st_game_view avg_return_condition rational_contribution
        symmetric_rational_contribution zero_altruism_contour altruism_roots cooperation_path
        payoff_utility_grid""",
    "game_io": "load_game save_game write_table write_edges",
    "errors": """GameError DisjointnessError SizeLimitError MissingUtilityError
        NumericOverflowError StructureError NotReducibleError GameLoadError""",
}
# exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names.split()}
_SUBMODULES = ("players", "errors", "exact_lp", "tu", "st", "additivity", "cobb", "game_io")

__all__ = [*_EXPORTS, *_SUBMODULES]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
