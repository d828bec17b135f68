"""The cyclic garbage collector: off in a ``teamgames`` process, untouched by ``main``.

A command makes almost no reference cycles, so ``cli.run`` turns the
collector off for the whole process and freezes what is live before the
interpreter's exit collection. That is safe only while the cyclic garbage
a command leaves does not grow with its input; the last tests pin that.
"""

import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import teamgames
from teamgames import game_io
from teamgames.cli import main
from random_games import random_tu_game
from teamgames.scenarios import PRISONERS_DILEMMA

SRC = Path(teamgames.__file__).resolve().parents[1]

# the cyclic garbage one command leaves, whatever its input size
GARBAGE_BOUND = 1000

RUN = """
import contextlib, gc, io, json, runpy, sys
import teamgames.game_io as game_io
seen, load = [], game_io.load_game

def spy(path):
    seen.append(gc.isenabled())
    return load(path)

game_io.load_game = spy
sys.argv = ["teamgames", *json.loads(sys.argv[1])]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        runpy.run_module("teamgames.cli", run_name="__main__")
    except SystemExit as exc:
        status = exc.code
print(json.dumps([status, seen, gc.isenabled(), gc.get_freeze_count()]))
"""


def in_process(argv, cwd):
    """Exit status, the collector's state in each document load, and its state at exit."""
    proc = subprocess.run(
        [sys.executable, "-c", RUN, json.dumps(argv)], cwd=cwd, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
    )
    return json.loads(proc.stdout)


@pytest.fixture()
def pd_path(tmp_path):
    path = tmp_path / "pd.game"
    path.write_text(json.dumps(PRISONERS_DILEMMA), encoding="utf-8")
    return path


@pytest.mark.parametrize("argv, status", [
    (["classify", "pd.game"], 0),
    (["graph", "pd.game"], 1),
])
def test_a_process_runs_without_the_collector(pd_path, argv, status):
    got, seen, enabled, frozen = in_process(argv, pd_path.parent)
    assert (got, seen, enabled) == (status, [False], False)
    assert frozen > 0


def test_a_usage_error_still_freezes(tmp_path):
    got, seen, enabled, frozen = in_process(["classify"], tmp_path)
    assert (got, seen, enabled) == (2, [], False)
    assert frozen > 0


def test_main_in_process_keeps_the_collector(pd_path, tmp_path):
    before = gc.isenabled(), gc.get_freeze_count()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["classify", str(pd_path)]) == 0
        assert main(["metrics", str(pd_path), "-o", str(tmp_path / "m.csv")]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_the_console_script_runs_the_process_entry():
    pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n\n", 1)[0]
    assert re.findall(r"^(\S+) = \"(.*)\"$", scripts, re.M) == [("teamgames", "teamgames.cli:run")]


def matrix_document(m) -> dict:
    """The bi-additive team game of perception matrix ``m``, every utility tabulated."""
    n = len(m)
    names = [f"p{i}" for i in range(n)]
    outcomes = [f"o{s}" for s in range(1, 1 << n)]

    def members(mask):
        return [names[i] for i in range(n) if mask >> i & 1]

    def value(a, s):
        return sum(float(m[i][j]) for i in range(n) if a >> i & 1 for j in range(n) if s >> j & 1)

    return {
        "version": 1, "players": names, "outcomes": outcomes,
        "consequence": [{"subset": members(s), "outcome": f"o{s}"} for s in range(1, 1 << n)],
        "utilities": [{"subset": members(a), "outcome": f"o{s}", "value": value(a, s)}
                      for s in range(1, 1 << n) for a in range(1, 1 << n)],
    }


SIZES = (3, 6)  # players; the Cobb-Douglas tables take ten times as many rows or samples

COMMANDS = {
    "classify": lambda n: ["classify", f"team{n}.game"],
    "metrics": lambda n: ["metrics", f"team{n}.game", "-o", "out.csv"],
    "reduce-tu": lambda n: ["reduce-tu", f"zero{n}.game", "-o", "out.game"],
    "graph": lambda n: ["graph", f"team{n}.game", "-o", "out.edges"],
    "core": lambda n: ["core", f"tu{n}.game", "-o", "out.csv"],
    "shapley": lambda n: ["shapley", f"tu{n}.game", "-o", "out.csv"],
    "cobb sweep": lambda n: ["cobb", "sweep", "--resolution", str(10 * n), "-o", "out.csv"],
    "cobb path": lambda n: ["cobb", "path", "--samples", str(10 * n), "-o", "out.csv"],
    "cobb rational": lambda n: ["cobb", "rational", "--resolution", str(10 * n), "-o", "out.csv"],
    "cobb frontier": lambda n: ["cobb", "frontier", "--resolution", str(10 * n), "-o", "out.csv"],
}


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    work = tmp_path_factory.mktemp("collector")
    rng = np.random.default_rng(5)
    for n in SIZES:
        for name, m in (("team", rng.integers(-3, 4, (n, n))), ("zero", np.zeros((n, n)))):
            (work / f"{name}{n}.game").write_text(json.dumps(matrix_document(m)), encoding="utf-8")
        game_io.save_game(random_tu_game(n, rng), work / f"tu{n}.game")
    return work


def garbage(argv) -> int:
    """Objects that ``gc.collect()`` frees after ``main(argv)`` ran with the collector off."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    finally:
        freed = gc.collect()
        if enabled:
            gc.enable()
    return freed


@pytest.mark.parametrize("command", COMMANDS)
def test_cyclic_garbage_does_not_grow_with_the_input(documents, monkeypatch, command):
    monkeypatch.chdir(documents)
    argv = COMMANDS[command]
    garbage(argv(SIZES[0]))  # imports the command's modules
    small, large = (garbage(argv(n)) for n in SIZES)
    assert small == large < GARBAGE_BOUND
