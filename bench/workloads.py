"""The three seeded workloads: lists of ``teamgames`` CLI invocations and their checks.

Every size that sets the amount of work is fixed per role, and the seed
draws parameters, values and pairings that leave the work of a pass about
the same. That keeps pass times comparable across seeds while the inputs
still differ.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gen
import oracles
from oracles import Result

# Known defects of the program, reported as failed operations.
KNOWN_FAILURES = {
    "frontier-integer-bound": "cobb frontier: max_stable_team_size floors a float quotient, "
    "so rows whose exact bound is an integer come out one too small",
    "classify-tu-core-limit": "classify on a TU document with more than 10 players prints "
    "half a report, then exits 1 on the core-decision size limit",
}

DEFAULT_FRONTIER_GAMMAS = ["0", "0.25", "0.5", "0.75", "1"]


@dataclass
class Op:
    """One CLI invocation: ``teamgames <argv>``, run in the work directory."""

    kind: str                 # command family, e.g. "cobb_sweep", "classify"
    argv: list[str]
    output: str | None        # file the command writes, relative to the work directory
    check: Callable[[Result], tuple[list[str], str | None]] = field(repr=False)

    def label(self) -> str:
        return " ".join(self.argv)


def _plain(check):
    """Adapt a problems-only check to the (problems, known defect) form."""
    return lambda res: (check(res), None)


# ---------------------------------------------------------------- cobb-figures

def _decimal(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.2f}"


def cobb_figures(rng: random.Random, work: Path) -> list[Op]:
    """Two sweeps, a path, a rational table and three frontiers.

    The two sweeps split 4 A-members and 16 B-members between them, and the
    path and rational tables use teams of 10, so the players touched per
    pass stay fixed whatever the seed draws.
    """
    ops = []
    a1 = rng.randint(1, 3)
    b1 = rng.randint(4, 12)
    for index, (a, b) in enumerate(((a1, b1), (4 - a1, 16 - b1))):
        p = {"theta": float(_decimal(rng, 0.4, 0.9)), "alpha": float(_decimal(rng, 0.5, 2.0)),
             "beta": rng.choice((1.5, 2.0, 3.0)), "sizeA": a, "sizeB": b, "resolution": 81,
             "gammas": sorted(float(_decimal(rng, 0.05, 0.95)) for _ in range(2))}
        ops.append(Op("cobb_sweep", _cobb_argv("sweep", p) + ["--resolution", str(p["resolution"]),
                      "-o", f"sweep{index}.csv"], f"sweep{index}.csv",
                      _plain(lambda res, p=p: oracles.check_sweep(res, p))))

    for kind, size_flag, count, ngammas, check in (
        ("path", "--samples", 41, 2, oracles.check_path),
        ("rational", "--resolution", 11, 3, oracles.check_rational),
    ):
        a = rng.randint(1, 3)
        p = {"theta": float(_decimal(rng, 0.4, 0.9)), "alpha": float(_decimal(rng, 0.5, 2.0)),
             "beta": rng.choice((1.5, 2.0, 3.0)), "sizeA": a, "sizeB": 10 - a,
             "gammas": sorted(float(_decimal(rng, 0.05, 0.95)) for _ in range(ngammas)),
             size_flag.strip("-"): count}
        ops.append(Op(f"cobb_{kind}", _cobb_argv(kind, p) + [size_flag, str(count),
                      "-o", f"{kind}.csv"], f"{kind}.csv",
                      _plain(lambda res, p=p, check=check: check(res, p))))

    betas = ["1.5", "2", "3"]
    rng.shuffle(betas)
    for beta in betas:
        p = {"beta_text": beta, "resolution": 1001, "gamma_texts": DEFAULT_FRONTIER_GAMMAS,
             "gammas": DEFAULT_FRONTIER_GAMMAS}
        ops.append(Op("cobb_frontier", ["cobb", "frontier", "--beta", beta, "--resolution", "1001",
                                        "-o", f"frontier{beta}.csv"], f"frontier{beta}.csv",
                      lambda res, p=p: _frontier(res, p)))
    rng.shuffle(ops)
    return ops


def _cobb_argv(sub: str, p: dict) -> list[str]:
    return ["cobb", sub, "--theta", repr(p["theta"]), "--alpha", repr(p["alpha"]),
            "--beta", repr(p["beta"]), "--sizeA", str(p["sizeA"]), "--sizeB", str(p["sizeB"]),
            "--gammas", ",".join(repr(g) for g in p["gammas"])]


def _frontier(res: Result, p: dict):
    problems, off_by_one = oracles.frontier_mismatches(res, p)
    if problems:
        return problems, None
    if off_by_one:
        return [f"{len(off_by_one)} rows one below the exact integer bound, first {off_by_one[0]}"], \
            "frontier-integer-bound"
    return [], None


# ---------------------------------------------------------------- team documents

def _team_ops(facts: gen.Facts, path: Path, commands: list[str]) -> list[Op]:
    names = gen.player_names(facts.n)
    stem = path.stem
    ops = []
    for command in commands:
        if command == "classify":
            ops.append(Op("classify", ["classify", path.name], None,
                          _plain(lambda res: oracles.check_team_classify(res, facts, names))))
        elif command == "metrics":
            ops.append(Op("metrics", ["metrics", path.name, "-o", f"{stem}.metrics.csv"],
                          f"{stem}.metrics.csv",
                          _plain(lambda res: oracles.check_team_metrics(res, facts, names))))
        elif command == "reduce-tu":
            ops.append(Op("reduce_tu", ["reduce-tu", path.name, "-o", f"{stem}.tu.game"],
                          f"{stem}.tu.game",
                          _plain(lambda res: oracles.check_reduce(res, facts, names))))
        elif command == "graph":
            ops.append(Op("graph", ["graph", path.name, "-o", f"{stem}.edges"], f"{stem}.edges",
                          _plain(lambda res: oracles.check_graph(res, facts))))
    return ops


def team_scan(rng: random.Random, work: Path) -> list[Op]:
    """Size-outcome team documents: two that pass every predicate, two with a violating pair.

    The clean documents (11 players) make every predicate walk all of its
    pairs; the violating ones (12 players) stop within the first few pairs,
    so a kernel that tabulates all 3^n pairs up front would lose there.
    """
    docs = [
        ("additive11", 11, "size-additive", False, ["classify", "metrics", "reduce-tu"]),
        ("compfree11", 11, "size-compfree", False, ["classify", "metrics", "reduce-tu"]),
        ("additive12v", 12, "size-additive", True, ["classify", "reduce-tu"]),
        ("compfree12v", 12, "size-compfree", True, ["classify", "metrics"]),
    ]
    ops = []
    for name, n, family, violate, commands in docs:
        doc, facts = gen.size_game(name, n, family, rng, violate)
        path = gen.write(doc, facts, work)
        rng.shuffle(commands)
        ops += _team_ops(facts, path, commands)
    return ops


# ---------------------------------------------------------------- documents

def _tu_ops(facts: gen.Facts, path: Path, commands: list[str]) -> list[Op]:
    names = gen.player_names(facts.n)
    stem = path.stem
    ops = []
    for command in commands:
        if command == "classify":
            ops.append(Op("classify", ["classify", path.name], None,
                          lambda res: _tu_classify(res, facts, names)))
        elif command == "core":
            ops.append(Op("core", ["core", path.name, "-o", f"{stem}.core.csv"],
                          f"{stem}.core.csv",
                          _plain(lambda res: oracles.check_core(res, facts, names))))
        elif command == "shapley":
            ops.append(Op("shapley", ["shapley", path.name, "-o", f"{stem}.shapley.csv"],
                          f"{stem}.shapley.csv",
                          _plain(lambda res: oracles.check_shapley(res, facts, names))))
    return ops


def _tu_classify(res: Result, facts: gen.Facts, names: list[str]):
    if facts.n > 10 and res.status == 1:
        problems = oracles.check_tu_classify(res, facts, names)
        refusal = f"error: core decision supports n <= 10, got {facts.n}\n"
        if not problems and res.stderr == refusal and len(res.stdout.splitlines()) == 5:
            return ["classify stopped before the core line with exit 1"], "classify-tu-core-limit"
        return problems + [f"exit status 1, stderr {res.stderr!r}"], None
    return oracles.check_tu_classify_full(res, facts, names), None


def documents(rng: random.Random, work: Path) -> list[Op]:
    """Per-coalition team documents and TU documents: load, validation and the exact LP.

    The core command runs only on TU documents within its documented limit
    of 10 players; classify runs on one document above it (11 to 13
    players), where it currently fails.
    """
    ops = []
    for name, n, family, commands in (
        ("biadditive10", 10, "coalition-biadditive", ["metrics", "graph", "classify"]),
        ("compfree9", 9, "coalition-compfree", ["classify", "reduce-tu"]),
    ):
        doc, facts = gen.coalition_game(name, n, family, rng)
        path = gen.write(doc, facts, work)
        rng.shuffle(commands)
        ops += _team_ops(facts, path, commands)
    large = rng.randint(11, 13)
    for name, n, family, commands in (
        ("convex9", 9, "tu-convex", ["classify", "core", "shapley"]),
        ("planted10", 10, "tu-planted", ["classify", "core"]),
        ("empty8", 8, "tu-empty", ["classify", "core"]),
        (f"planted{large}", large, "tu-planted", ["classify", "shapley"]),
    ):
        doc, facts = gen.tu_game(name, n, family, rng)
        path = gen.write(doc, facts, work)
        rng.shuffle(commands)
        ops += _tu_ops(facts, path, commands)
    return ops


WORKLOADS = {
    "cobb-figures": cobb_figures,
    "team-scan": team_scan,
    "documents": documents,
}


def build(name: str, seed: int, work: Path) -> list[Op]:
    """Write the workload's inputs into ``work`` and return its operations in pass order."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), work)
