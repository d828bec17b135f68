"""The bench tracer still finds the library functions it times and counts.

``bench/tracing.py`` wraps library functions by name and reads some of their
arguments, so a renamed function or a moved argument would make a per-layer
metric read 0 without failing anything. Here the tracer, loaded from its
file without writing bytecode next to it, runs around a few in-process
commands, and every target it wraps must be found and every layer those
commands reach must be counted.
"""

import json
import types
from pathlib import Path

from teamgames import cli
from teamgames.scenarios import GLOVE, PRISONERS_DILEMMA

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), vars(module))
    return module


def test_the_tracer_counts_every_layer_the_commands_reach(tmp_path, capsys):
    glove, pd = tmp_path / "glove.game", tmp_path / "pd.game"
    glove.write_text(json.dumps(GLOVE), encoding="utf-8")
    pd.write_text(json.dumps(PRISONERS_DILEMMA), encoding="utf-8")
    runs = [
        ["core", glove, "-o", tmp_path / "core.csv"],
        ["shapley", glove, "-o", tmp_path / "shapley.csv"],
        ["metrics", pd, "-o", tmp_path / "points.csv"],
        ["cobb", "sweep", "--resolution", "3", "-o", tmp_path / "sweep.csv"],
    ]
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        # through the module attribute, as the bench calls it: the tracer rebinds that name
        statuses = [cli.main([str(arg) for arg in argv]) for argv in runs]
    finally:
        tracer.restore()
    assert statuses == [0] * len(runs)
    # the thread pool's module is gone from the library; the bench still names it
    assert set(tracer.absent) <= {"parallel.ordered_map"}
    values = tracer.layer_values({})
    assert values["exact_lp.solves"] == 1  # the glove core: one cover program
    assert values["exact_lp.columns"] == values["exact_lp.solves"] * (2**3 - 2)
    assert values["game_io.load_calls"] == 3
    reached = ["cli.self_s", "game_io.load_s", "game_io.write_s", "st.points_s", "tu.shapley_s",
               "tu.core_self_s", "exact_lp.solve_s", "cobb.grid_s", "game_io.bytes_read",
               "game_io.rows_written", "game_io.bytes_written", "st.points", "cobb.grid_cells"]
    assert [name for name in reached if not values[name] > 0] == []
