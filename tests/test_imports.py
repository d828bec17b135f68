"""Module loading: each command imports only what it runs, and the lazy package
namespace keeps every exported name.

Module sets are read in a fresh interpreter, after the command ran through
``runpy`` as ``python -m teamgames.cli`` would run it.
"""

import ast
import copy
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
    cobb_douglas = {"version": 1, "cobb_douglas": {"theta": 0.5, "alpha": 2.0, "beta": 2.5}}
    (tmp_path / "cd.game").write_text(json.dumps(cobb_douglas), encoding="utf-8")
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
# the frontier bound and a Cobb-Douglas document need no arrays
NO_ARRAYS = ["numpy", "players", "cobb", "st", "tu", *COBB_TABLES[1:]]


@pytest.mark.parametrize("argv, absent", [
    (["cobb", "frontier", "--resolution", "5"], NO_ARRAYS),
    (["cobb", "sweep", "--resolution", "3"], COBB_TABLES),
    (["cobb", "path", "--samples", "3"], COBB_TABLES),
    (["cobb", "rational", "--resolution", "3"], COBB_TABLES),
    (["classify", "team.game"], ["cobb", "tu", "exact_lp", "quadrants", "csv_tables"]),
    (["metrics", "team.game"], ["cobb", "tu", "exact_lp", "additivity"]),
    (["graph", "zero.game"], ["cobb", "tu", "exact_lp"]),
    (["reduce-tu", "team.game"], ["cobb", "additivity", "exact_lp"]),
    (["classify", "tu.game"], ["st", "additivity", "cobb", "csv_tables"]),
    (["shapley", "tu.game"], ["st", "additivity", "cobb", "exact_lp"]),
    (["core", "tu.game"], ["st", "additivity", "cobb"]),
    (["cobb", "frontier", "cd.game", "--resolution", "5"], NO_ARRAYS),
    (["classify", "cd.game"], NO_ARRAYS),
])
def test_command_loads_only_its_modules(docs, argv, absent):
    status, numpy, names = loaded(argv, docs)
    assert status == 0
    assert numpy == ("numpy" not in absent)
    assert names.isdisjoint(absent), sorted(names)


# a `cobb` command without a document writes its table through `csv_tables`, so it loads
# neither the document reader nor the team-game module
COBB_BASE = {"limits", "errors", "scenarios", "cobb_params", "csv_tables"}
COBB_ARRAYS = COBB_BASE | {"players", "cobb"}


@pytest.mark.parametrize("argv, modules", [
    (["cobb", "frontier", "--resolution", "5"], COBB_BASE),
    (["cobb", "sweep", "--resolution", "3"], COBB_ARRAYS | {"quadrants"}),
    (["cobb", "path", "--samples", "3"], COBB_ARRAYS | {"quadrants"}),
    (["cobb", "rational", "--resolution", "3"], COBB_ARRAYS),
    (["cobb", "sweep", "cd.game", "--resolution", "3"], COBB_ARRAYS | {"quadrants", "game_io"}),
])
def test_cobb_commands_load_exactly_their_modules(docs, argv, modules):
    assert loaded(argv, docs)[::2] == (0, modules)


DECODE_FIRST = """
import contextlib, io, json, runpy, sys
decoded = []  # whether numpy was loaded at each json.loads
loads = json.loads
def recording(*args, **kwargs):
    decoded.append("numpy" in sys.modules)
    return loads(*args, **kwargs)
json.loads = recording
sys.argv = ["teamgames", *loads(sys.argv[1])]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        runpy.run_module("teamgames.cli", run_name="__main__")
    except SystemExit as exc:
        assert not exc.code, exc.code
print(json.dumps(decoded))
"""


@pytest.mark.parametrize("argv", [
    ["classify", "team.game"], ["metrics", "team.game"], ["graph", "zero.game"],
    ["reduce-tu", "team.game"], ["classify", "tu.game"], ["shapley", "tu.game"],
    ["core", "tu.game"],
])
def test_a_document_command_decodes_before_numpy_loads(docs, argv):
    """A document's text, its decode and the decode's churn are freed before numpy maps its
    libraries, so a command's peak is not numpy stacked on them."""
    proc = subprocess.run(
        [sys.executable, "-c", DECODE_FIRST, json.dumps(argv)], cwd=docs, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
    )
    assert json.loads(proc.stdout) == [False]


COMPILE_FIRST = """
import contextlib, importlib.machinery, io, json, runpy, sys
compiled = {}  # whether numpy was loaded as each game module's source was compiled
loader = importlib.machinery.SourceFileLoader
compile_source = loader.source_to_code
def recording(self, data, path, **kwargs):
    if self.name in ("teamgames.st", "teamgames.tu", "teamgames.players"):
        compiled[self.name] = "numpy" in sys.modules
    return compile_source(self, data, path, **kwargs)
loader.source_to_code = recording
sys.argv = ["teamgames", *json.loads(sys.argv[1])]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        runpy.run_module("teamgames.cli", run_name="__main__")
    except SystemExit as exc:
        assert not exc.code, exc.code
print(json.dumps(compiled))
"""


def compiled(argv, cwd):
    """Without bytecode files: whether numpy was loaded as each of ``st``, ``tu`` and
    ``players`` that a command imports was compiled; no bytecode is written."""
    no_bytecode = cwd / "pycache"
    no_bytecode.mkdir()
    proc = subprocess.run(
        [sys.executable, "-B", "-X", f"pycache_prefix={no_bytecode}", "-c", COMPILE_FIRST,
         json.dumps(argv)], cwd=cwd, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
    )
    assert not any(no_bytecode.iterdir())
    return json.loads(proc.stdout)


@pytest.mark.parametrize("argv, module", [
    (["metrics", "team.game"], "st"), (["shapley", "tu.game"], "tu"),
])
def test_a_document_command_compiles_its_game_module_before_numpy_loads(docs, argv, module):
    """Without bytecode files, the compile of the game module and of ``players`` is freed
    before numpy maps its libraries, so it does not stack on numpy."""
    assert compiled(argv, docs) == {f"teamgames.{module}": False, "teamgames.players": False}


def test_a_cobb_table_compiles_players_before_numpy_loads(docs):
    assert compiled(["cobb", "sweep", "--resolution", "3"], docs) == {"teamgames.players": False}


CHECKS_FIRST = """
import contextlib, io, json, runpy, sys
import teamgames.game_io as game_io
checked = []  # whether numpy was loaded as each section check returned or raised
check = game_io._check_section
def recording(*args):
    try:
        return check(*args)
    finally:
        checked.append("numpy" in sys.modules)
game_io._check_section = recording
sys.argv = ["teamgames", *json.loads(sys.argv[1])]
status, err = 0, io.StringIO()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
    try:
        runpy.run_module("teamgames.cli", run_name="__main__")
    except SystemExit as exc:
        status = exc.code
print(json.dumps([status, err.getvalue(), checked, "numpy" in sys.modules]))
"""


def checked(argv, cwd):
    """Exit status, standard error, whether numpy was loaded as each section check ended,
    and whether it was loaded at exit."""
    proc = subprocess.run(
        [sys.executable, "-c", CHECKS_FIRST, json.dumps(argv)], cwd=cwd, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
    )
    return json.loads(proc.stdout)


@pytest.mark.parametrize("argv, sections", [
    (["classify", "team.game"], 2), (["metrics", "zero.game"], 2), (["shapley", "tu.game"], 1),
])
def test_a_document_s_sections_are_checked_before_numpy_loads(docs, argv, sections):
    status, _, ends, numpy = checked(argv, docs)
    assert (status, ends, numpy) == (0, [False] * sections, True)


def _edited(doc, edit):
    doc = copy.deepcopy(doc)
    edit(doc)
    return doc


@pytest.mark.parametrize("doc, error", [
    (_edited(PRISONERS_DILEMMA, lambda d: d["utilities"][2].update(subset=["A", "Z"])),
     "utilities[2].subset[1]: unknown player 'Z'"),
    (_edited(PRISONERS_DILEMMA, lambda d: d["consequence"][2].update(subset=["A", "B", "A"])),
     "consequence[2].subset[2]: player 'A' listed twice"),
    (_edited(PRISONERS_DILEMMA, lambda d: d["utilities"][1].update(outcome="nowhere")),
     "utilities[1].outcome: undeclared outcome 'nowhere'"),
    (_edited(PRISONERS_DILEMMA, lambda d: d["utilities"][3].update(value=float("inf"))),
     "utilities[3].value: value must be finite, got inf"),
    (_edited(GLOVE, lambda d: d["utilities"][5].update(value=float("nan"))),
     "utilities[5].value: value must be finite, got nan"),
    (_edited(PRISONERS_DILEMMA, lambda d: d["consequence"].append(dict(d["consequence"][0]))),
     "consequence[3].subset: duplicate consequence for subset (also at consequence[0])"),
    (_edited(PRISONERS_DILEMMA, lambda d: d["consequence"].pop(1)),
     "consequence: no consequence entry for subset ['B']"),
    (_edited(GLOVE, lambda d: d["utilities"][4].update(outcome="x")),
     "utilities[4].outcome: TU utility entries carry no outcome (did you mean a team-game "
     "document with an outcomes section?)"),
], ids=["unknown-player", "repeated-name", "undeclared-outcome", "infinite-value",
        "tu-nan-value", "repeated-consequence", "missing-consequence", "tu-outcome"])
def test_a_fault_the_section_checks_find_never_loads_numpy(tmp_path, doc, error):
    (tmp_path / "bad.game").write_text(json.dumps(doc), encoding="utf-8")
    status, err, ends, numpy = checked(["classify", "bad.game"], tmp_path)
    assert (status, err, numpy) == (1, f"error: {error}\n", False)
    assert ends and not any(ends)


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


def first_use(name):
    """In a fresh interpreter: the teamgames submodules that ``import teamgames`` loads, those
    loaded once ``teamgames.<name>`` is read, and whether numpy is loaded then."""
    code = f"""
import json, sys
import teamgames
before = [m for m in sys.modules if m.startswith("teamgames.")]
teamgames.{name}
after = sorted(m for m in sys.modules if m.startswith("teamgames."))
print(json.dumps([before, after, "numpy" in sys.modules]))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
    return json.loads(out)


def test_package_import_loads_submodules_on_first_use():
    before, after, _ = first_use("shapley_value")
    assert before == []
    assert after == [f"teamgames.{m}" for m in ("errors", "limits", "players", "tu")]


@pytest.mark.parametrize("name", ["max_stable_team_size", "CobbDouglasConfig"])
def test_cobb_parameters_load_no_numpy_on_first_use(name):
    _, after, numpy = first_use(name)
    assert not numpy
    assert after == [f"teamgames.{m}" for m in ("cobb_params", "errors")]


LEAF_NAMES = "UNBOUNDED CobbDouglasConfig max_stable_team_size stable_size_grid FRONTIER_COLUMNS"


@pytest.mark.parametrize("name", LEAF_NAMES.split())
def test_leaf_names_are_one_object_everywhere(name):
    from teamgames import cobb, cobb_params

    assert getattr(cobb, name) is getattr(cobb_params, name)
    if name in teamgames.__all__:
        assert getattr(teamgames, name) is getattr(cobb_params, name)


def test_subset_array_limit_is_one_object():
    from teamgames import limits, players

    assert players.MAX_SUBSET_ARRAY is limits.MAX_SUBSET_ARRAY


# modules that parsing the command line, `cobb frontier` or a Cobb-Douglas document loads
NUMPY_FREE = ["cli", "limits", "errors", "scenarios", "game_io", "cobb_params", "csv_tables"]
PACKAGE = SRC / "teamgames"


def _module_imports(tree):
    """(line, imported module) of every import a module runs when it is imported: its
    top-level statements and the branches of top-level ``if`` and ``try`` blocks, except
    ``if TYPE_CHECKING:``. A teamgames submodule is named ``.name``."""
    def statements(body):
        for node in body:
            if isinstance(node, ast.If):
                if not (isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"):
                    yield from statements(node.body)
                yield from statements(node.orelse)
            elif isinstance(node, ast.Try):
                for block in (node.body, *(h.body for h in node.handlers), node.orelse,
                              node.finalbody):
                    yield from statements(block)
            else:
                yield node

    for node in statements(tree.body):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                yield node.lineno, node.module
            elif node.module:
                yield node.lineno, "." + node.module.split(".")[0]
            else:  # from . import a, b
                yield from ((node.lineno, "." + alias.name) for alias in node.names)


def test_numpy_free_modules_import_no_numpy_at_module_level():
    """A module-level numpy import in a command's numpy-free path, direct or through a
    teamgames module that imports numpy, fails here with its line."""
    imports = {path.stem: list(_module_imports(ast.parse(path.read_text(encoding="utf-8"))))
               for path in PACKAGE.glob("*.py")}
    heavy = {name for name, found in imports.items()
             if any(module.split(".")[0] == "numpy" for _, module in found)}
    grown = True
    while grown:  # modules that import a numpy-importing module import numpy too
        before = len(heavy)
        heavy |= {name for name, found in imports.items()
                  if any(module[1:] in heavy for _, module in found if module.startswith("."))}
        grown = len(heavy) > before
    assert {"players", "cobb", "st", "tu", "quadrants"} <= heavy
    faults = [f"{name}.py:{line}: imports {module}" for name in NUMPY_FREE
              for line, module in imports[name]
              if module.split(".")[0] == "numpy" or module.startswith(".") and module[1:] in heavy]
    assert not faults, "\n".join(faults)


def _tree(module: str):
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def test_each_table_and_core_decision_has_one_home():
    """The nested search is the block layout's (``players`` names no table), the team loader
    takes only the table builder and its chunk size from ``st``, and one function in ``tu``
    runs the core's cover test."""
    fields = {ast.Name: "id", ast.Attribute: "attr", ast.arg: "arg", ast.alias: "name",
              ast.FunctionDef: "name", ast.ClassDef: "name"}
    names = [getattr(node, fields[type(node)]) for node in ast.walk(_tree("players"))
             if type(node) in fields]
    assert not [name for name in names
                if any(word in name for word in ("_blocks", "_Blocks", "first_nested"))]

    from_st = {alias.name for node in ast.walk(_tree("game_io"))
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "st"
               for alias in node.names}
    assert from_st <= {"ENTRY_CHUNK", "STGame"}

    def calls_cover(function):
        return any(isinstance(node, ast.Call) and "minimal_coalition_cover" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))
            for node in ast.walk(function))

    covering = [node.name for node in ast.walk(_tree("tu"))
                if isinstance(node, ast.FunctionDef) and calls_cover(node)]
    assert len(covering) == 1, covering


def _callers(function: str) -> set[str]:
    """``module.function`` for the innermost function around each call of ``function``
    in the package."""
    def callers(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else owner
            if isinstance(child, ast.Call) and function in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                yield owner
            yield from callers(child, inner)

    return {f"{path.stem}.{owner}" for path in PACKAGE.glob("*.py")
            for owner in callers(_tree(path.stem), None)}


def test_the_pair_scan_limit_guards_only_pair_scans():
    """``check_pair_scan`` is called only by the pair scans and the per-player reports; the
    lattice closures are bounded by their table alone, and cohesion reads the team's table,
    so ``st`` builds no subgame."""
    assert _callers("check_pair_scan") == {
        "players.first_pair", "additivity._perceptions", "additivity.extract_matrix",
        "additivity.additive_predicates", "additivity.is_biadditive", "st.reduce_to_tu"}
    assert "_subgame" not in {node.name for node in ast.walk(_tree("st"))
                              if isinstance(node, ast.FunctionDef)}


def test_first_pair_is_the_one_way_into_the_pair_kernel():
    """Only ``players.first_pair`` walks ``mask_pairs``: ``players`` has no second entry into
    the kernel, and ``st``, whose team predicates are closures that a scan only names the
    witness of, imports no ``itertools`` to cut a scan short."""
    assert _callers("mask_pairs") == {"players.first_pair"}
    assert "first_flagged" not in {node.name for node in ast.walk(_tree("players"))
                                   if isinstance(node, ast.FunctionDef)}
    imported = {alias.name.split(".")[0] for node in ast.walk(_tree("st"))
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(_tree("st"))
                 if isinstance(node, ast.ImportFrom) and node.module and node.level == 0}
    assert "itertools" not in imported


def _calls(node, function: str):
    return [child for child in ast.walk(node) if isinstance(child, ast.Call) and function in (
        getattr(child.func, "id", None), getattr(child.func, "attr", None))]


def test_the_pair_kernel_owns_its_chunks_and_float_state():
    """``players`` cuts every scan into ``PAIR_CHUNK`` chunks, with no first-chunk size, and
    ``first_pair`` sets the float error state of the tests it runs: no ``np.errstate`` wraps
    a ``first_pair`` call or sits inside a test passed to it."""
    assigned = {target.id for node in ast.walk(_tree("players")) if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    assert "FIRST_CHUNK" not in assigned and "PAIR_CHUNK" in assigned
    faults = []
    for path in PACKAGE.glob("*.py"):
        tree = _tree(path.stem)
        for node in ast.walk(tree):
            if isinstance(node, ast.With) and any(_calls(item.context_expr, "errstate")
                                                  for item in node.items):
                faults += [f"{path.stem}: errstate around first_pair, line {call.lineno}"
                           for stmt in node.body for call in _calls(stmt, "first_pair")]
        tests = {call.args[1].id for call in _calls(tree, "first_pair")
                 if len(call.args) > 1 and isinstance(call.args[1], ast.Name)}
        faults += [f"{path.stem}.{node.name}: errstate in a pair test" for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name in tests
                   and _calls(node, "errstate")]
    assert not faults, "\n".join(faults)
