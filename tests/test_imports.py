"""Module loading: each command imports only what it runs, and the lazy package
namespace keeps every exported name.

Module sets are read in a fresh interpreter, after the command ran through
``runpy`` as ``python -m teamgames.cli`` would run it.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import teamgames
from teamgames.scenarios import GLOVE, PRISONERS_DILEMMA

SRC = Path(teamgames.__file__).resolve().parents[1]

RUN = """
import contextlib, io, json, runpy, sys
argv, status = json.loads(sys.argv[1]), 0
if argv is None:
    import teamgames.cli
else:
    sys.argv = ["teamgames", *argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            runpy.run_module("teamgames.cli", run_name="__main__")
        except SystemExit as exc:
            status = exc.code
names = [m.removeprefix("teamgames.") for m in sys.modules if m.startswith("teamgames.")]
print(json.dumps([status, "numpy" in sys.modules, sorted(names)]))
"""


def loaded(argv, cwd):
    """Exit status, whether numpy was imported, and the teamgames submodules imported."""
    proc = subprocess.run(
        [sys.executable, "-c", RUN, json.dumps(argv)], cwd=cwd, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
    )
    status, numpy, names = json.loads(proc.stdout)
    return status, numpy, set(names)


@pytest.fixture()
def docs(tmp_path):
    (tmp_path / "team.game").write_text(json.dumps(PRISONERS_DILEMMA), encoding="utf-8")
    (tmp_path / "tu.game").write_text(json.dumps(GLOVE), encoding="utf-8")
    # a bi-additive team game, for `graph`: every utility is 0
    coalitions = {"oA": ["A"], "oB": ["B"], "oAB": ["A", "B"]}
    zero = {
        "version": 1, "players": ["A", "B"], "outcomes": list(coalitions),
        "consequence": [{"subset": s, "outcome": o} for o, s in coalitions.items()],
        "utilities": [{"subset": s, "outcome": o, "value": 0}
                      for s in coalitions.values() for o in coalitions],
    }
    (tmp_path / "zero.game").write_text(json.dumps(zero), encoding="utf-8")
    return tmp_path


@pytest.mark.parametrize("argv, status", [
    (None, 0),
    (["--help"], 0),
    (["cobb", "sweep", "--help"], 0),
    (["cobb", "sweep", "--gammas", "2"], 2),
    (["classify"], 2),
    (["scenario", "nope"], 2),
])
def test_command_line_parsing_loads_no_numpy(docs, argv, status):
    assert loaded(argv, docs)[:2] == (status, False)


COBB_TABLES = ["tu", "exact_lp", "additivity"]


@pytest.mark.parametrize("argv, absent", [
    (["cobb", "frontier", "--resolution", "5"], ["st", *COBB_TABLES]),
    (["cobb", "sweep", "--resolution", "3"], COBB_TABLES),
    (["cobb", "path", "--samples", "3"], COBB_TABLES),
    (["cobb", "rational", "--resolution", "3"], COBB_TABLES),
    (["classify", "team.game"], ["cobb", "tu", "exact_lp"]),
    (["metrics", "team.game"], ["cobb", "tu", "exact_lp", "additivity"]),
    (["graph", "zero.game"], ["cobb", "tu", "exact_lp"]),
    (["reduce-tu", "team.game"], ["cobb", "additivity"]),
    (["classify", "tu.game"], ["st", "additivity", "cobb"]),
    (["shapley", "tu.game"], ["st", "additivity", "cobb"]),
    (["core", "tu.game"], ["st", "additivity", "cobb"]),
])
def test_command_loads_only_its_modules(docs, argv, absent):
    status, numpy, names = loaded(argv, docs)
    assert status == 0 and numpy
    assert names.isdisjoint(absent), sorted(names)


# the names `teamgames` exported, by the submodule each came from, when every name was
# imported eagerly; each must keep resolving to the same object
EXPORTED = {
    "players": "PlayerSet subsets",
    "tu": """DEFAULT_TOL TUGame marginal_contribution shapley_value is_convex is_superadditive
        in_core core_witness core_is_nonempty unanimity_game random_convex_game""",
    "st": """STGame CoopPoint Quadrant NULL_OUTCOME total_marginal competitive_contribution
        altruistic_contribution coop_point all_coop_points classify_quadrant is_sensible
        is_cohesive is_fully_cooperative from_ntu reduce_to_tu""",
    "additivity": """BiAdditiveMatrix PerceptionGraph AdditiveReport CoadditiveReport
        is_additive is_coadditive is_biadditive extract_matrix fast_metrics additive_metrics
        coadditive_metrics additive_predicates coadditive_predicates export_graph""",
    "cobb": """UNBOUNDED CobbDouglasConfig ContributionProfile PayoffScheme PROPORTIONAL EQUAL
        hybrid cd_value payoff cd_subset_utility cd_competitive cd_altruistic cd_marginal
        cd_coop_point cd_fully_cooperative st_game_view avg_return_condition
        max_stable_team_size rational_contribution symmetric_rational_contribution
        zero_altruism_contour altruism_roots cooperation_path payoff_utility_grid
        stable_size_grid""",
    "game_io": "load_game save_game write_table write_edges",
    "errors": """GameError DisjointnessError SizeLimitError MissingUtilityError
        NumericOverflowError StructureError NotReducibleError GameLoadError""",
}
NAMES = {name: module for module, names in EXPORTED.items() for name in names.split()}
MODULES = ["players", "errors", "exact_lp", "tu", "st", "additivity", "cobb", "game_io"]


@pytest.mark.parametrize("name", sorted(NAMES))
def test_exported_name_is_its_submodules_object(name):
    module = importlib.import_module(f"teamgames.{NAMES[name]}")
    assert getattr(teamgames, name) is getattr(module, name)
    assert name in dir(teamgames)


def test_submodules_and_star_import():
    for name in MODULES:
        assert getattr(teamgames, name) is importlib.import_module(f"teamgames.{name}")
        assert name in dir(teamgames)
    namespace = {}
    exec("from teamgames import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(NAMES) | set(MODULES)
    assert all(namespace[name] is getattr(teamgames, name) for name in NAMES)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'shapley'"):
        teamgames.shapley  # noqa: B018
    assert not hasattr(teamgames, "cli_main")
    with pytest.raises(ImportError):
        exec("from teamgames import no_such_name", {})


def test_package_import_loads_submodules_on_first_use():
    code = """
import json, sys
import teamgames
before = [m for m in sys.modules if m.startswith("teamgames.")]
teamgames.shapley_value
after = sorted(m for m in sys.modules if m.startswith("teamgames."))
print(json.dumps([before, after]))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
    before, after = json.loads(out)
    assert before == []
    assert after == [f"teamgames.{m}" for m in ("errors", "exact_lp", "limits", "players", "tu")]
