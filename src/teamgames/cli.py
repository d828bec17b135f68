"""Command-line front end.

Numeric results always land in files (CSV tables, ``.game`` documents,
``.edges`` lists); standard output carries a short human summary. Sweep
commands honor the ``TEAMGAMES_THREADS`` environment variable and emit rows
in a fixed order, so repeated runs are byte-identical regardless of thread
count.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import additivity, cobb, game_io, st, tu
from .cobb import CobbDouglasConfig, hybrid
from .errors import GameError, NotReducibleError, StructureError
from .parallel import ordered_map
from .players import PlayerSet
from .scenarios import SCENARIOS, scenario_document
from .st import STGame
from .tu import DEFAULT_TOL, TUGame

COBB_COLUMNS = [
    "gamma",
    "theta",
    "beta",
    "sizeA",
    "sizeB",
    "xA_avg",
    "xB_avg",
    "payoff",
    "utility",
    "altruism",
    "competitive",
    "marginal",
    "quadrant",
]


def _unit_interval(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"{value} is not in [0, 1]")
    return value


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"{value} is not positive")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def _gamma_list(text: str) -> list[float]:
    values = [float(part) for part in text.split(",") if part.strip() != ""]
    if not values:
        raise argparse.ArgumentTypeError("empty gamma list")
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise argparse.ArgumentTypeError(f"gamma {v} is not in [0, 1]")
    return values


DEFAULT_GAMMAS = [0.0, 0.25, 0.5, 0.75, 1.0]


def _subset_label(subset: PlayerSet, players) -> str:
    return "+".join(players[i] for i in subset)


def _out_path(args, default: str) -> Path:
    return Path(args.output) if args.output else Path(default)


def cmd_metrics(args) -> int:
    game = game_io.load_game(args.game)
    if not isinstance(game, STGame):
        print("metrics requires a team-game document", file=sys.stderr)
        return 1
    points = st.all_coop_points(game, include_grand=args.include_grand)
    rows = []
    full = (1 << game.n) - 1
    for p in points:
        rows.append(
            {
                "subset": _subset_label(p.subset, game.players),
                "altruism": p.altruism,
                "competitive": p.competitive,
                "marginal": p.marginal,
                "quadrant": st.classify_quadrant(p, args.tol).value,
                "grand": p.subset.mask == full,
            }
        )
    columns = ["subset", "altruism", "competitive", "marginal", "quadrant"]
    if args.include_grand:
        columns.append("grand")
    out = _out_path(args, Path(args.game).stem + ".metrics.csv")
    game_io.write_table(rows, columns, out)
    print(f"wrote {len(rows)} cooperation-space points to {out}")
    return 0


def _classify_st(game: STGame, tol: float) -> None:
    names = ", ".join(game.players)
    print(f"kind: team game ({game.n} players: {names})")
    sensible = st.is_sensible(game, tol)
    cooperative = st.is_fully_cooperative(game, tol)
    print(f"sensible: {str(sensible).lower()}")
    print(f"fully-cooperative: {str(cooperative).lower()}")
    print(f"utility in team core: {str(cooperative).lower()}")
    additive = additivity.is_additive(game, tol)
    coadditive = additivity.is_coadditive(game, tol)
    print(f"additive: {str(additive).lower()}")
    print(f"co-additive: {str(coadditive).lower()}")
    print(f"bi-additive: {str(additive and coadditive).lower()}")
    if additive and coadditive:
        matrix = additivity.extract_matrix(game, tol)
        for a in range(game.n):
            row = " ".join(repr(float(v)) for v in matrix.m[a])
            print(f"perception[{game.players[a]}]: {row}")


def _classify_tu(game: TUGame, tol: float) -> None:
    names = ", ".join(game.players)
    print(f"kind: TU game ({game.n} players: {names})")
    print(f"convex: {str(tu.is_convex(game, tol)).lower()}")
    print(f"superadditive: {str(tu.is_superadditive(game, tol)).lower()}")
    phi = tu.shapley_value(game)
    shap = " ".join(f"{name}={float(value)!r}" for name, value in zip(game.players, phi))
    print(f"shapley: {shap}")
    print(f"shapley in core: {str(tu.in_core(game, phi, tol)).lower()}")
    print(f"core nonempty: {str(tu.core_is_nonempty(game)).lower()}")


def cmd_classify(args) -> int:
    game = game_io.load_game(args.game)
    if isinstance(game, STGame):
        _classify_st(game, args.tol)
    elif isinstance(game, TUGame):
        _classify_tu(game, args.tol)
    else:
        print("kind: Cobb-Douglas resource game")
        print(
            f"theta={game.theta!r} gamma={game.gamma!r} alpha={game.alpha!r} beta={game.beta!r}"
        )
        print("use `teamgames cobb` for sweeps of this game")
    return 0


def cmd_shapley(args) -> int:
    game = game_io.load_game(args.game)
    if isinstance(game, STGame):
        game = st.reduce_to_tu(game, args.tol)
    elif not isinstance(game, TUGame):
        print("shapley requires a TU (or reducible team) game document", file=sys.stderr)
        return 1
    phi = tu.shapley_value(game)
    rows = [
        {"player": name, "shapley": float(value)} for name, value in zip(game.players, phi)
    ]
    out = _out_path(args, Path(args.game).stem + ".shapley.csv")
    game_io.write_table(rows, ["player", "shapley"], out)
    print(f"wrote Shapley allocation to {out}")
    print(f"efficient sum: {float(phi.sum())!r} vs grand worth {game.grand_value()!r}")
    return 0


def cmd_core(args) -> int:
    game = game_io.load_game(args.game)
    if isinstance(game, STGame):
        game = st.reduce_to_tu(game, args.tol)
    elif not isinstance(game, TUGame):
        print("core requires a TU (or reducible team) game document", file=sys.stderr)
        return 1
    witness = tu.core_witness(game)
    if witness is None:
        print("core: empty")
        return 0
    rows = [
        {"player": name, "allocation": float(value)}
        for name, value in zip(game.players, witness)
    ]
    out = _out_path(args, Path(args.game).stem + ".core.csv")
    game_io.write_table(rows, ["player", "allocation"], out)
    print("core: nonempty")
    print(f"wrote witness allocation to {out}")
    return 0


def cmd_reduce_tu(args) -> int:
    game = game_io.load_game(args.game)
    if not isinstance(game, STGame):
        print("reduce-tu requires a team-game document", file=sys.stderr)
        return 1
    try:
        reduced = st.reduce_to_tu(game, args.tol)
    except NotReducibleError as exc:
        a = _subset_label(exc.a, game.players)
        b = _subset_label(exc.b, game.players)
        print("not reducible: competitive contributions do not vanish")
        print(f"witness: c[{a} | {b}] = {exc.value!r}")
        return 0
    out = _out_path(args, Path(args.game).stem + ".tu.game")
    game_io.save_game(reduced, out)
    print(f"reduced to a TU game; wrote {out}")
    return 0


def cmd_graph(args) -> int:
    game = game_io.load_game(args.game)
    if not isinstance(game, STGame):
        print("graph requires a team-game document", file=sys.stderr)
        return 1
    try:
        matrix = additivity.extract_matrix(game, args.tol)
    except StructureError as exc:
        print(f"not bi-additive: {exc}", file=sys.stderr)
        return 1
    graph = additivity.export_graph(matrix)
    out = _out_path(args, Path(args.game).stem + ".edges")
    game_io.write_edges(graph, out)
    print(f"wrote {len(graph.edges)} perception edges to {out}")
    return 0


def _base_config(args) -> CobbDouglasConfig:
    """Configuration from the optional document, overridden by explicit flags."""
    base = CobbDouglasConfig()
    if getattr(args, "game", None):
        loaded = game_io.load_game(args.game)
        if not isinstance(loaded, CobbDouglasConfig):
            raise GameError(f"{args.game} does not contain a cobb_douglas block")
        base = loaded
    updates = {}
    for field in ("theta", "alpha", "beta"):
        value = getattr(args, field, None)
        if value is not None:
            if getattr(args, "game", None) and value != getattr(base, field):
                print(f"note: flag --{field}={value} overrides document value {getattr(base, field)}")
            updates[field] = value
    if updates:
        base = CobbDouglasConfig(
            theta=updates.get("theta", base.theta),
            gamma=base.gamma,
            alpha=updates.get("alpha", base.alpha),
            beta=updates.get("beta", base.beta),
            resources=base.resources,
            value_fn=base.value_fn,
        )
    return base


def _gammas(args) -> list[float]:
    if getattr(args, "gammas", None):
        return args.gammas
    if getattr(args, "gamma", None) is not None:
        return [args.gamma]
    return list(DEFAULT_GAMMAS)


def cmd_cobb_sweep(args) -> int:
    cfg = _base_config(args)
    rows = []
    for gamma in _gammas(args):
        rows.extend(
            cobb.payoff_utility_grid(
                hybrid(gamma), cfg, args.size_a, args.size_b, args.resolution, args.tol
            )
        )
    out = _out_path(args, "cobb_sweep.csv")
    game_io.write_table(rows, COBB_COLUMNS, out)
    print(f"wrote {len(rows)} payoff/utility grid cells to {out}")
    return 0


def cmd_cobb_path(args) -> int:
    cfg = _base_config(args)
    a_set = PlayerSet.from_players(range(args.size_a))
    b_set = PlayerSet.from_players(range(args.size_a, args.size_a + args.size_b))
    rows = []
    for gamma in _gammas(args):
        scheme = hybrid(gamma)
        row = cobb.contribution_rows(scheme, cfg, a_set, b_set, args.tol)
        for sample in cobb.cooperation_path(scheme, cfg, args.size_a, args.size_b, args.samples):
            rows.append(row(sample.x_a_avg, sample.x_b_avg))
    out = _out_path(args, "cobb_path.csv")
    game_io.write_table(rows, COBB_COLUMNS, out)
    print(f"wrote {len(rows)} rational-path samples to {out}")
    return 0


def cmd_cobb_frontier(args) -> int:
    cfg = _base_config(args)
    shares = [k / args.resolution for k in range(1, args.resolution + 1)]
    rows = cobb.stable_size_grid(cfg.beta, _gammas(args), shares)
    out = _out_path(args, "cobb_frontier.csv")
    game_io.write_table(rows, ["gamma", "r", "beta", "max_stable_size"], out)
    print(f"wrote {len(rows)} team-size bounds to {out}")
    return 0


def cmd_cobb_rational(args) -> int:
    cfg = _base_config(args)
    size_a, size_b = args.size_a, args.size_b
    a_set = PlayerSet.from_players(range(size_a))

    def row_for(cell):
        gamma, x_b = cell
        scheme = hybrid(gamma)
        base = cobb.ContributionProfile.create([0.0] * size_a + [x_b] * size_b)
        x_a = cobb.symmetric_rational_contribution(scheme, cfg, base, a_set)
        root = cobb.zero_altruism_contour(scheme, cfg, size_a, size_b, x_b * size_b)
        return {
            "gamma": gamma,
            "theta": cfg.theta,
            "beta": cfg.beta,
            "sizeA": size_a,
            "sizeB": size_b,
            "xB_avg": x_b,
            "xA_rational": x_a,
            "zero_altruism_xA": None if root is None else root / size_a,
        }

    cells = [
        (gamma, k / (args.resolution - 1))
        for gamma in _gammas(args)
        for k in range(args.resolution)
    ]
    rows = ordered_map(row_for, cells)
    out = _out_path(args, "cobb_rational.csv")
    game_io.write_table(
        rows,
        ["gamma", "theta", "beta", "sizeA", "sizeB", "xB_avg", "xA_rational", "zero_altruism_xA"],
        out,
    )
    print(f"wrote {len(rows)} rational-contribution samples to {out}")
    return 0


def cmd_scenario(args) -> int:
    doc = scenario_document(args.name)
    out_dir = Path(args.output) if args.output else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.name}.game"
    game_io.save_game(game_io.parse_document(doc), path)
    print(f"wrote {path}")
    ns = argparse.Namespace(game=str(path), tol=args.tol)
    return cmd_classify(ns)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teamgames",
        description="Cooperative game analysis: cooperation-space metrics, Shapley values, "
        "cores, and Cobb-Douglas contribution sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_output=True):
        p.add_argument("--tol", type=_positive, default=DEFAULT_TOL, help="comparison tolerance")
        if with_output:
            p.add_argument("-o", "--output", help="output path")

    p = sub.add_parser("metrics", help="cooperation-space point table for a team game")
    p.add_argument("game")
    p.add_argument("--include-grand", action="store_true", help="append the whole-team point")
    add_common(p)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("classify", help="predicates and structure of a game document")
    p.add_argument("game")
    add_common(p, with_output=False)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("shapley", help="Shapley allocation of a TU game")
    p.add_argument("game")
    add_common(p)
    p.set_defaults(func=cmd_shapley)

    p = sub.add_parser("core", help="decide core nonemptiness and write a witness")
    p.add_argument("game")
    add_common(p)
    p.set_defaults(func=cmd_core)

    p = sub.add_parser("reduce-tu", help="collapse a competition-free team game to TU form")
    p.add_argument("game")
    add_common(p)
    p.set_defaults(func=cmd_reduce_tu)

    p = sub.add_parser("graph", help="perception-graph edge list of a bi-additive game")
    p.add_argument("game")
    add_common(p)
    p.set_defaults(func=cmd_graph)

    cobb_parser = sub.add_parser("cobb", help="Cobb-Douglas contribution-game sweeps")
    cobb_sub = cobb_parser.add_subparsers(dest="cobb_command", required=True)

    def add_cobb_common(p, sizes=True):
        p.add_argument("game", nargs="?", help="optional document with a cobb_douglas block")
        p.add_argument("--theta", type=_unit_interval, default=None)
        p.add_argument("--alpha", type=_positive, default=None)
        p.add_argument("--beta", type=_positive, default=None)
        p.add_argument("--gamma", type=_unit_interval, default=None, help="single payoff mix")
        p.add_argument("--gammas", type=_gamma_list, default=None, help="comma-separated mixes")
        if sizes:
            p.add_argument("--sizeA", dest="size_a", type=_positive_int, default=2)
            p.add_argument("--sizeB", dest="size_b", type=_positive_int, default=10)
        add_common(p)

    p = cobb_sub.add_parser("sweep", help="payoff/utility grid over average contributions")
    add_cobb_common(p)
    p.add_argument("--resolution", type=_positive_int, default=101)
    p.set_defaults(func=cmd_cobb_sweep)

    p = cobb_sub.add_parser("path", help="rational-behavior paths through cooperation space")
    add_cobb_common(p)
    p.add_argument("--samples", type=_positive_int, default=101)
    p.set_defaults(func=cmd_cobb_path)

    p = cobb_sub.add_parser("frontier", help="maximum stable team size over (gamma, r)")
    add_cobb_common(p, sizes=False)
    p.add_argument("--resolution", type=_positive_int, default=101)
    p.set_defaults(func=cmd_cobb_frontier)

    p = cobb_sub.add_parser("rational", help="rational contributions with zero-altruism roots")
    add_cobb_common(p)
    p.add_argument("--resolution", type=_positive_int, default=101)
    p.set_defaults(func=cmd_cobb_rational)

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
    except GameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
