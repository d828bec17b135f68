"""Command-line front end.

Numeric results always land in files (CSV tables, ``.game`` documents,
``.edges`` lists); standard output carries a short human summary. Sweep
commands emit rows in a fixed order, so repeated runs are byte-identical.

Each command imports the modules it runs when it runs, so parsing the
command line loads no numpy and a command loads no other command's modules.
``cobb frontier`` and a Cobb-Douglas document's ``classify`` load no numpy.
A document command loads its document first, in this order: the text is
decoded and its sections checked; then the game module (``st`` or ``tu``) is
imported, which compiles it and then ``players`` when no bytecode is cached;
then numpy loads, from ``players``' own import. The text, the decode's churn
and the compiles are freed before numpy maps its libraries, so they do not
stack on its peak.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import GameError, NotReducibleError, SizeLimitError, StructureError
from .limits import DEFAULT_TOL, MAX_CORE_DECIDE, MAX_PAIR_SCAN
from .scenarios import SCENARIOS, scenario_document

if TYPE_CHECKING:
    from .cobb_params import CobbDouglasConfig
    from .st import STGame
    from .tu import TUGame

# Row budgets of the cobb tables, checked before anything is computed. A table is built
# and written a block of rows at a time, so its peak does not grow with its rows. As one
# process on a 2-core machine (wall time, then peak `ru_maxrss`, median of 5; the imports
# alone: 28 MB), a sweep or frontier row (a closed form) costs 2-6 us (a 248,645-row
# sweep: 1.4 s, 30 MB; 250,000 frontier rows: 0.4 s, 15 MB), and a path or rational row
# (its share of one batched search) 19-41 us: 200,000 path rows take 3.9 s and peak at
# 32 MB, 200,000 rational rows 8.3 s and 32 MB, the search's block of 256 rows setting it.
MAX_GRID_ROWS = 250_000
MAX_SEARCH_ROWS = 200_000

# by class name: checking a game's kind imports no other kind's module
KIND_NAMES = {"STGame": "team game", "TUGame": "TU game", "CobbDouglasConfig": "Cobb-Douglas game"}


def _unit_interval(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"{value} is not in [0, 1]")
    return value


def _positive(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"{value} is not a finite positive number")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    # counts become floats in the Cobb-Douglas tables, exact up to 2^53
    if not 1 <= value <= 2**53:
        raise argparse.ArgumentTypeError(f"{value} is not an integer in [1, 2^53]")
    return value


def _sample_count(text: str) -> int:
    value = _positive_int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"{value} is below 2; a table needs both ends of [0, 1]")
    return value


def _gamma_list(text: str) -> list[float]:
    values = [float(part) for part in text.split(",") if part.strip() != ""]
    if not values:
        raise argparse.ArgumentTypeError("empty gamma list")
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise argparse.ArgumentTypeError(f"gamma {v} is not in [0, 1]")
    return values


DEFAULT_GAMMAS = (0.0, 0.25, 0.5, 0.75, 1.0)


def _labels(masks, players) -> list[str]:
    """Each coalition mask of ``masks`` as its members' names in player order, joined by
    "+": one concatenation a mask, of its parts' labels on two half-team tables."""
    half = len(players) // 2
    low, high = [""], [""]
    for table, names in ((low, players[:half]), (high, players[half:])):
        for name in names:
            table += [f"{label}+{name}" if label else name for label in table]
    joined = [""] + ["+" + label for label in high[1:]]
    below = (1 << half) - 1
    return [low[m & below] + joined[m >> half] if m & below else high[m >> half] for m in masks]


def _out_path(args, default: str) -> Path:
    return Path(args.output) if args.output else Path(default)


def _load(args, *kinds):
    """The game in ``args.game``; a document of a kind not in ``kinds`` is refused."""
    from . import game_io

    game = game_io.load_game(args.game)
    kind = type(game).__name__
    if kind not in kinds:
        wanted = " or ".join(KIND_NAMES[k] for k in kinds)
        raise GameError(f"{args.command} requires a {wanted} document, got a {KIND_NAMES[kind]}")
    return game


def _witness(exc: NotReducibleError, players) -> str:
    a, b = _labels((exc.a.mask, exc.b.mask), players)
    return f"c[{a} | {b}] = {exc.value!r}"


def _tu_game(args) -> TUGame:
    """A TU document, or a team document reduced to TU form."""
    game = _load(args, "STGame", "TUGame")
    if type(game).__name__ == "TUGame":
        return game
    from . import st

    try:
        return st.reduce_to_tu(game, args.tol)
    except NotReducibleError as exc:
        raise GameError(
            f"not reducible to a TU game: competitive contribution {_witness(exc, game.players)}"
        ) from None


def cmd_metrics(args) -> int:
    game = _load(args, "STGame")
    from . import game_io, st

    space = st.all_coop_points(game, include_grand=args.include_grand)
    table = {
        "altruism": space.altruism, "competitive": space.competitive, "marginal": space.marginal,
        "quadrant": st.quadrant_labels(space.altruism, space.competitive, args.tol),
        "grand": space.subsets == (1 << game.n) - 1,
        # labelled once the quadrant pass's temporaries are gone
        "subset": _labels(map(int, space.subsets), game.players),
    }
    del space  # the masks are not held while the rows are formatted
    columns = ["subset", "altruism", "competitive", "marginal", "quadrant"]
    if args.include_grand:
        columns.append("grand")
    out = _out_path(args, Path(args.game).stem + ".metrics.csv")
    rows = game_io.write_table([table], columns, out)
    print(f"wrote {rows} cooperation-space points to {out}")
    return 0


def _decided(n: int, limit: int, decide) -> str:
    """``decide()`` as a report word, or why it was not decided past ``limit`` players."""
    return str(decide()).lower() if n <= limit else f"not decided (n > {limit})"


def _matrix_miss(exc: StructureError, players) -> str:
    """Why ``extract_matrix`` refused a game: the first entry its matrix misses."""
    a_mask, s_mask, got, want = exc.witness
    if got is None:  # a missing singleton assessment
        return str(exc)
    a, s = _labels((a_mask, s_mask), players)
    return f"u_{a}(V({s})) is {got!r}, the reconstruction gives {want!r}"


def _classify_st(game: STGame, tol: float) -> None:
    from . import additivity, st

    def word(test) -> str:
        return str(test(game, tol)).lower()

    sensible, cooperative = word(st.is_sensible), word(st.is_fully_cooperative)
    print(f"sensible: {sensible}")
    print(f"fully-cooperative: {cooperative}")
    print(f"utility in team core: {cooperative}")
    additive = word(additivity.is_additive)
    coadditive = _decided(game.n, MAX_PAIR_SCAN, lambda: additivity.is_coadditive(game, tol))
    print(f"additive: {additive}")
    print(f"co-additive: {coadditive}")
    matrix = miss = None
    if additive == coadditive == "true":
        try:
            matrix = additivity.extract_matrix(game, tol)
        except StructureError as exc:
            miss = _matrix_miss(exc, game.players)
    print(f"bi-additive: {_decided(game.n, MAX_PAIR_SCAN, lambda: matrix is not None)}")
    if miss:
        # each detector allows --tol; the matrix can miss an entry by their sum
        print(f"perception: no matrix within --tol: {miss}")
    elif matrix is not None:
        for a in range(game.n):
            row = " ".join(repr(float(v)) for v in matrix.m[a])
            print(f"perception[{game.players[a]}]: {row}")


def _classify_tu(game: TUGame, tol: float) -> None:
    from . import tu

    n = game.n
    print(f"convex: {str(tu.is_convex(game, tol)).lower()}")
    superadditive = _decided(n, MAX_PAIR_SCAN, lambda: tu.is_superadditive(game, tol))
    print(f"superadditive: {superadditive}")
    phi = tu.shapley_value(game)
    shap = " ".join(f"{name}={float(value)!r}" for name, value in zip(game.players, phi))
    print(f"shapley: {shap}")
    print(f"shapley in core: {str(tu.in_core(game, phi, tol)).lower()}")
    print(f"core nonempty: {_decided(n, MAX_CORE_DECIDE, lambda: tu.core_is_nonempty(game))}")


def cmd_classify(args) -> int:
    game = _load(args, *KIND_NAMES)
    kind = type(game).__name__
    if kind == "CobbDouglasConfig":
        print("kind: Cobb-Douglas resource game")
        print(f"theta={game.theta!r} alpha={game.alpha!r} beta={game.beta!r}")
        print("use `teamgames cobb` for sweeps of this game")
        return 0
    print(f"kind: {KIND_NAMES[kind]} ({game.n} players: {', '.join(game.players)})")
    (_classify_st if kind == "STGame" else _classify_tu)(game, args.tol)
    return 0


def cmd_shapley(args) -> int:
    game = _tu_game(args)
    from . import game_io, tu

    phi = tu.shapley_value(game)
    out = _out_path(args, Path(args.game).stem + ".shapley.csv")
    game_io.write_table([{"player": game.players, "shapley": phi}], ["player", "shapley"], out)
    print(f"wrote Shapley allocation to {out}")
    print(f"efficient sum: {float(phi.sum())!r} vs grand worth {game.grand_value()!r}")
    return 0


def cmd_core(args) -> int:
    game = _tu_game(args)
    from . import game_io, tu

    witness = tu.core_witness(game)
    if witness is None:
        print("core: empty")
        return 0
    out = _out_path(args, Path(args.game).stem + ".core.csv")
    table = {"player": game.players, "allocation": witness}
    game_io.write_table([table], ["player", "allocation"], out)
    print("core: nonempty")
    print(f"wrote witness allocation to {out}")
    return 0


def cmd_reduce_tu(args) -> int:
    game = _load(args, "STGame")
    from . import game_io, st

    try:
        reduced = st.reduce_to_tu(game, args.tol)
    except NotReducibleError as exc:
        print("not reducible: competitive contributions do not vanish")
        print(f"witness: {_witness(exc, game.players)}")
        return 0
    out = _out_path(args, Path(args.game).stem + ".tu.game")
    game_io.save_game(reduced, out)
    print(f"reduced to a TU game; wrote {out}")
    return 0


def cmd_graph(args) -> int:
    game = _load(args, "STGame")
    from . import additivity, game_io

    tests = {"additive": additivity.is_additive, "co-additive": additivity.is_coadditive}
    failing = [name for name, test in tests.items() if not test(game, args.tol)]
    if failing:  # both detectors, then the matrix, as `classify` decides bi-additivity
        raise GameError(f"not bi-additive: not {' and not '.join(failing)}")
    try:
        matrix = additivity.extract_matrix(game, args.tol)
    except StructureError as exc:
        raise GameError(f"not bi-additive: {_matrix_miss(exc, game.players)}") from None
    graph = additivity.export_graph(matrix)
    out = _out_path(args, Path(args.game).stem + ".edges")
    game_io.write_edges(graph, out)
    print(f"wrote {len(graph.edges)} perception edges to {out}")
    return 0


def _base_config(args) -> CobbDouglasConfig:
    """Configuration from the optional document, overridden by explicit flags."""
    import dataclasses

    from .cobb_params import CobbDouglasConfig

    base = _load(args, "CobbDouglasConfig") if args.game else CobbDouglasConfig()
    updates = {}
    for field in ("theta", "alpha", "beta"):
        value = getattr(args, field, None)
        if value is not None:
            if args.game and value != getattr(base, field):
                print(f"note: flag --{field}={value} overrides document value {getattr(base, field)}")
            updates[field] = value
    return dataclasses.replace(base, **updates)


def _check_rows(args, count: int, flag: str, budget: int) -> None:
    """Refuse a table of more than ``budget`` rows before anything is computed."""
    rows = count * len(args.gammas)
    if rows > budget:
        raise SizeLimitError(
            f"{flag}: cobb {args.cobb_command} would write {rows} rows ({len(args.gammas)} "
            f"gammas), over its limit of {budget}"
        )


def _row_blocks(count: int):
    """Slices of ``csv_tables.ROW_CHUNK`` rows covering a table of ``count`` rows, the blocks
    a cobb table is built, formatted and written in, one at a time."""
    from .csv_tables import ROW_CHUNK

    return (slice(lo, lo + ROW_CHUNK) for lo in range(0, count, ROW_CHUNK))


# Tables written one per gamma: size flag, rows per gamma as a power of the size, row
# budget, builder and columns (names on `cobb`, looked up at run time), summary noun.
GAMMA_TABLES = {
    "sweep": ("--resolution", 2, MAX_GRID_ROWS, "payoff_utility_grid", "COBB_COLUMNS",
              "payoff/utility grid cells"),
    "path": ("--samples", 1, MAX_SEARCH_ROWS, "cooperation_path", "COBB_COLUMNS",
             "rational-path samples"),
    "rational": ("--resolution", 1, MAX_SEARCH_ROWS, "rational_table", "RATIONAL_COLUMNS",
                 "rational-contribution samples"),
}


def cmd_cobb_table(args) -> int:
    from . import cobb, csv_tables

    flag, power, budget, builder, columns, noun = GAMMA_TABLES[args.cobb_command]
    size = getattr(args, flag[2:])
    _check_rows(args, size**power, flag, budget)
    cfg = _base_config(args)
    # each block built as it is written, through the module attribute
    tables = (getattr(cobb, builder)(cobb.hybrid(g), cfg, args.size_a, args.size_b, size,
                                     args.tol, rows=rows)
              for g in args.gammas for rows in _row_blocks(size**power))
    out = _out_path(args, f"cobb_{args.cobb_command}.csv")
    rows = csv_tables.write_table(tables, getattr(cobb, columns), out)
    print(f"wrote {rows} {noun} to {out}")
    return 0


def cmd_cobb_frontier(args) -> int:
    from . import cobb_params, csv_tables

    _check_rows(args, args.resolution, "--resolution", MAX_GRID_ROWS)
    cfg = _base_config(args)
    if not cfg.beta > 1.0:
        raise GameError(f"beta: the team-size bound needs beta > 1, got {cfg.beta!r}")
    count = args.resolution
    # one gamma's block of shares k / count at a time, built as it is written
    tables = (cobb_params.stable_size_grid(cfg.beta, [g], [k / count for k in
                                                           range(1, count + 1)[rows]])
              for g in args.gammas for rows in _row_blocks(count))
    out = _out_path(args, "cobb_frontier.csv")
    rows = csv_tables.write_table(tables, cobb_params.FRONTIER_COLUMNS, out)
    print(f"wrote {rows} team-size bounds to {out}")
    return 0


def cmd_scenario(args) -> int:
    from . import game_io

    doc = scenario_document(args.name)
    out_dir = Path(args.output) if args.output else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.name}.game"
    game_io.save_game(game_io.parse_document(doc), path)
    print(f"wrote {path}")
    ns = argparse.Namespace(game=str(path), tol=args.tol)
    return cmd_classify(ns)


class _Parser(argparse.ArgumentParser):
    """Flags must be spelled in full, so a prefix such as --gamma is not read as --gammas."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="teamgames",
        description="Cooperative game analysis: cooperation-space metrics, Shapley values, "
        "cores, and Cobb-Douglas contribution sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_output=True, with_tol=True):
        if with_tol:
            p.add_argument("--tol", type=_positive, default=DEFAULT_TOL, help="comparison tolerance")
        if with_output:
            p.add_argument("-o", "--output", help="output path")

    for func, name, help_text in (
        (cmd_metrics, "metrics", "cooperation-space point table for a team game"),
        (cmd_classify, "classify", "predicates and structure of a game document"),
        (cmd_shapley, "shapley", "Shapley allocation of a TU game"),
        (cmd_core, "core", "decide core nonemptiness and write a witness"),
        (cmd_reduce_tu, "reduce-tu", "collapse a competition-free team game to TU form"),
        (cmd_graph, "graph", "perception-graph edge list of a bi-additive game"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("game")
        if func is cmd_metrics:
            p.add_argument(
                "--include-grand", action="store_true", help="append the whole-team point"
            )
        add_common(p, with_output=func is not cmd_classify)
        p.set_defaults(func=func)

    cobb_parser = sub.add_parser("cobb", help="Cobb-Douglas contribution-game sweeps")
    cobb_sub = cobb_parser.add_subparsers(dest="cobb_command", required=True)
    for name, help_text in (
        ("sweep", "payoff/utility grid over average contributions"),
        ("path", "rational-behavior paths through cooperation space"),
        ("frontier", "maximum stable team size over (gamma, r)"),
        ("rational", "rational contributions with zero-altruism roots"),
    ):
        # the frontier bound reads neither the groups (theta, alpha, sizes) nor --tol
        groups = name in GAMMA_TABLES
        p = cobb_sub.add_parser(name, help=help_text)
        p.add_argument("game", nargs="?", help="optional document with a cobb_douglas block")
        if groups:
            p.add_argument("--theta", type=_unit_interval, default=None)
            p.add_argument("--alpha", type=_positive, default=None)
        p.add_argument("--beta", type=_positive, default=None)
        p.add_argument(
            "--gammas", type=_gamma_list, default=DEFAULT_GAMMAS, help="comma-separated mixes"
        )
        if groups:
            p.add_argument("--sizeA", dest="size_a", type=_positive_int, default=2)
            p.add_argument("--sizeB", dest="size_b", type=_positive_int, default=10)
        add_common(p, with_tol=groups)
        if groups:
            p.add_argument(GAMMA_TABLES[name][0], type=_sample_count, default=101)
        else:
            p.add_argument("--resolution", type=_positive_int, default=101)
        p.set_defaults(func=cmd_cobb_table if groups else cmd_cobb_frontier)

    p = sub.add_parser("scenario", help="write a built-in scenario and classify it")
    p.add_argument("name", choices=sorted(SCENARIOS))
    add_common(p)
    p.set_defaults(func=cmd_scenario)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GameError, OSError) as exc:
        # the one place a refusal is reported
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> int:
    """The ``teamgames`` process: ``main`` with the cyclic garbage collector off.

    A command makes almost no reference cycles, yet the collector would keep
    scanning every container that the numpy import and a decoded document
    create: 36 to over 600 collections per command, which together free a
    constant few hundred objects. The freeze moves every live object to the
    permanent generation, so the collection that the interpreter still runs
    at exit has nothing to traverse. ``main`` called in process leaves the
    caller's collector as it was.
    """
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
