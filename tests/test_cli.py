import argparse
import contextlib
import json
import os
import re
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import teamgames.cobb
import teamgames.cobb_params
from teamgames import cli
from teamgames.cli import main
from teamgames.scenarios import GLOVE, PRISONERS_DILEMMA


@pytest.fixture()
def pd_file(tmp_path):
    path = tmp_path / "pd.game"
    path.write_text(json.dumps(PRISONERS_DILEMMA), encoding="utf-8")
    return path


EXACT_GOLDEN = Path(__file__).parent / "golden" / "exact"


def run(args):
    return main([str(a) for a in args])


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@contextlib.contextmanager
def alarm(seconds: int):
    """Fail a call that is still running after ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def one_error_line(capsys) -> str:
    """The single stderr line of a refused command."""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


# Each structure detector stays within --tol 0.1, but the perception matrix [[1, 1], [1, 1]]
# misses u_ab(Vab) by 0.27, so the game is not bi-additive.
GAP_VALUES = {("ab", "Vab"): 4.27, ("a", "Vab"): 2.09, ("b", "Vab"): 2.09,
              ("ab", "Va"): 2.0, ("ab", "Vb"): 2.27}
GAP = {
    "version": 1, "players": ["a", "b"], "outcomes": ["Va", "Vb", "Vab"],
    "consequence": [{"subset": list(o[1:]), "outcome": o} for o in ("Va", "Vb", "Vab")],
    "utilities": [
        {"subset": list(a), "outcome": o, "value": GAP_VALUES.get((a, o), 1.0)}
        for a in ("a", "b", "ab") for o in ("Va", "Vb", "Vab")
    ],
}
GAP_MISS = "u_a+b(V(a+b)) is 4.27, the reconstruction gives 4.0"

# u_A(o_S) sums m[i][j] over i in A and j in S, m = [[1, 2], [3, 4]], with o3 = V({a,b})
# moved: each entry stays within the default tolerance of the matrix's reconstruction, but
# u_a+b(o3) is 2.7e-9 off u_a(o3) + u_b(o3), so the game is co-additive, not additive
DRIFT_VALUES = {("a", "o1"): 1.0, ("a", "o2"): 2.0, ("a", "o3"): 2.9999999991,
                ("b", "o1"): 3.0, ("b", "o2"): 4.0, ("b", "o3"): 6.9999999991,
                ("ab", "o1"): 4.0, ("ab", "o2"): 6.0, ("ab", "o3"): 10.0000000009}
DRIFT = {
    "version": 1, "players": ["a", "b"], "outcomes": ["o1", "o2", "o3"],
    "consequence": [{"subset": list(s), "outcome": o} for s, o in (("a", "o1"), ("b", "o2"),
                                                                   ("ab", "o3"))],
    "utilities": [{"subset": list(a), "outcome": o, "value": v}
                  for (a, o), v in DRIFT_VALUES.items()],
}


class TestMetrics:
    def test_pd_rows(self, pd_file, tmp_path, capsys):
        out = tmp_path / "points.csv"
        assert run(["metrics", pd_file, "-o", out]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "subset,altruism,competitive,marginal,quadrant"
        assert lines[1:] == ["A,1.0,2.0,3.0,I", "B,1.0,2.0,3.0,I"]

    def test_include_grand(self, pd_file, tmp_path):
        out = tmp_path / "points.csv"
        assert run(["metrics", pd_file, "--include-grand", "-o", out]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4
        assert lines[-1] == "A+B,0.0,4.0,4.0,axis-c,true"

    def test_missing_file_fails(self, tmp_path):
        assert run(["metrics", tmp_path / "nope.game"]) == 1

    def test_load_error_passes_through(self, tmp_path, capsys):
        bad = tmp_path / "bad.game"
        bad.write_text("{", encoding="utf-8")
        assert run(["metrics", bad]) == 1
        assert "error" in capsys.readouterr().err


class TestClassify:
    def test_pd_report(self, pd_file, capsys):
        assert run(["classify", pd_file]) == 0
        out = capsys.readouterr().out
        assert "sensible: true" in out
        assert "fully-cooperative: true" in out
        assert "additive: true" in out
        assert "co-additive: false" in out

    def test_glove_report(self, tmp_path, capsys):
        assert run(["scenario", "glove", "-o", tmp_path]) == 0
        out = capsys.readouterr().out
        assert "convex: false" in out
        assert "superadditive: true" in out
        assert "shapley: L=0.6666666666666666 R1=0.16666666666666666 R2=0.16666666666666666" in out
        assert "shapley in core: false" in out
        assert "core nonempty: true" in out


    @pytest.mark.parametrize("n, superadditive", [(15, "false"), (17, "not decided (n > 16)")])
    def test_tu_report_past_the_core_limit(self, tmp_path, capsys, n, superadditive):
        names = [f"p{i}" for i in range(n)]
        # worth |S|^2, but 5 alone for p0: superadditivity fails at the first pair scanned
        utilities = [
            {"subset": [names[i] for i in range(n) if mask >> i & 1],
             "value": 5.0 if mask == 1 else float(mask.bit_count() ** 2)}
            for mask in range(1, 1 << n)
        ]
        path = write_doc(tmp_path, "big.game", {"version": 1, "players": names,
                                                "utilities": utilities})
        assert run(["classify", path]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 6 and "error:" not in captured.err
        assert lines[2] == f"superadditive: {superadditive}"
        assert lines[5] == "core nonempty: not decided (n > 14)"


    def test_team_report_past_the_pair_scan_limit(self, tmp_path, capsys):
        # 17 players, one outcome: the closures decide it, but no pair scan may start
        n = 17
        names = [chr(ord("a") + i) for i in range(n)]
        subsets = [[names[i] for i in range(n) if mask >> i & 1] for mask in range(1, 1 << n)]
        path = write_doc(tmp_path, "big.game", {
            "version": 1, "players": names, "outcomes": ["x"],
            "consequence": [{"subset": s, "outcome": "x"} for s in subsets],
            "utilities": [{"subset": s, "outcome": "x", "value": 1.0} for s in subsets],
        })
        assert run(["classify", path]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert lines[0].startswith("kind: team game (17 players: ")
        assert lines[1:] == [
            "sensible: true", "fully-cooperative: true", "utility in team core: true",
            "additive: false", "co-additive: not decided (n > 16)",
            "bi-additive: not decided (n > 16)",
        ]

    def test_team_report_when_the_perception_matrix_misses_the_tolerance(
        self, tmp_path, capsys
    ):
        path = write_doc(tmp_path, "gap.game", GAP)
        assert run(["classify", path, "--tol", "0.1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert lines[4:7] == ["additive: true", "co-additive: true", "bi-additive: false"]
        assert lines[7:] == [f"perception: no matrix within --tol: {GAP_MISS}"]

    def test_graph_names_the_entry_the_matrix_misses(self, tmp_path, capsys):
        path = write_doc(tmp_path, "gap.game", GAP)
        assert run(["graph", path, "--tol", "0.1", "-o", tmp_path / "gap.edges"]) == 1
        assert one_error_line(capsys) == f"error: not bi-additive: {GAP_MISS}"
        assert not (tmp_path / "gap.edges").exists()


class TestParser:
    """The registration loops give every subcommand its own help and flags."""

    COMMANDS = [["metrics"], ["classify"], ["shapley"], ["core"], ["reduce-tu"], ["graph"],
                ["cobb"], ["cobb", "sweep"], ["cobb", "path"], ["cobb", "frontier"],
                ["cobb", "rational"], ["scenario"]]

    @pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run([*command, "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: teamgames {' '.join(command)} ")

    @pytest.mark.parametrize("command", ["sweep", "path", "frontier", "rational"])
    def test_cobb_flags_match_the_readme_table(self, command):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        row = re.search(rf"^\| `cobb {command}` \| `([^`]*)` \|$", readme, re.MULTILINE)
        subcommands = lambda parser: next(  # noqa: E731
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ).choices
        parser = subcommands(subcommands(cli.build_parser())["cobb"])[command]
        accepted = {a.option_strings[0] for a in parser._actions if a.option_strings} - {"-h"}
        assert accepted == set(row.group(1).split())


class TestScenario:
    def test_majority_core_empty(self, tmp_path, capsys):
        assert run(["scenario", "majority3", "-o", tmp_path]) == 0
        assert (tmp_path / "majority3.game").exists()
        assert "core nonempty: false" in capsys.readouterr().out

    def test_unknown_scenario_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            run(["scenario", "nope", "-o", tmp_path])


class TestShapleyAndCore:
    def test_shapley_table(self, tmp_path):
        assert run(["scenario", "glove", "-o", tmp_path]) == 0
        out = tmp_path / "alloc.csv"
        assert run(["shapley", tmp_path / "glove.game", "-o", out]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "player,shapley"
        assert lines[1] == "L,0.6666666666666666"

    def test_core_witness_file(self, tmp_path, capsys):
        assert run(["scenario", "glove", "-o", tmp_path]) == 0
        out = tmp_path / "core.csv"
        assert run(["core", tmp_path / "glove.game", "-o", out]) == 0
        assert "core: nonempty" in capsys.readouterr().out
        assert out.read_text(encoding="utf-8").splitlines()[1] == "L,1.0"

    def test_core_empty_writes_nothing(self, tmp_path, capsys):
        assert run(["scenario", "majority3", "-o", tmp_path]) == 0
        out = tmp_path / "core.csv"
        assert run(["core", tmp_path / "majority3.game", "-o", out]) == 0
        assert "core: empty" in capsys.readouterr().out
        assert not out.exists()


    def test_core_witness_past_the_float_range(self, tmp_path, capsys):
        doc = {"version": 1, "players": ["a", "b"], "utilities": [
            {"subset": ["a"], "value": 1.7e308},
            {"subset": ["b"], "value": -1.7e308},
            {"subset": ["a", "b"], "value": 1.7e308},
        ]}
        out = tmp_path / "core.csv"
        assert run(["core", write_doc(tmp_path, "huge.game", doc), "-o", out]) == 1
        assert one_error_line(capsys) == (
            "error: core witness pays player a more than the float range holds")
        assert not out.exists()


    @pytest.mark.parametrize(
        "command, worths, stdout, error",
        [
            ("classify", (1.7e308, -1.7e308, 1.7e308), "kind: TU game (2 players: a, b)\n",
             "the margin of player a on coalition {b} is past the float range"),
            ("shapley", (1.7e308, -1.7e308, 1.7e308), "",
             "the margin of player a on coalition {b} is past the float range"),
            ("classify", (1e308, 1e308, 1.7e308),
             "kind: TU game (2 players: a, b)\nconvex: false\n",
             "u({a}) + u({b}) is past the float range"),
        ],
    )
    def test_tu_reports_past_the_float_range(self, tmp_path, capsys, command, worths, stdout,
                                             error):
        # one error line and exit status 1: no RuntimeWarning, no answer decided on inf
        doc = {"version": 1, "players": ["a", "b"], "utilities": [
            {"subset": subset, "value": value}
            for subset, value in zip((["a"], ["b"], ["a", "b"]), worths)
        ]}
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            argv = [command, write_doc(tmp_path, "huge.game", doc)]
            assert run(argv + (["-o", out] if command == "shapley" else [])) == 1
        captured = capsys.readouterr()
        assert captured.out == stdout
        assert captured.err == f"error: {error}\n"
        assert not out.exists()


class TestReduce:
    def test_pd_not_reducible(self, pd_file, capsys):
        assert run(["reduce-tu", pd_file]) == 0
        out = capsys.readouterr().out
        assert "not reducible" in out
        assert "c[A | B] = 2.0" in out

    def test_constant_game_reduces(self, tmp_path):
        doc = {
            "version": 1,
            "players": ["A", "B"],
            "outcomes": ["x", "y", "z"],
            "consequence": [
                {"subset": ["A"], "outcome": "x"},
                {"subset": ["B"], "outcome": "y"},
                {"subset": ["A", "B"], "outcome": "z"},
            ],
            "utilities": [
                {"subset": s, "outcome": o, "value": {"x": 1, "y": 2, "z": 5}[o]}
                for s in (["A"], ["B"], ["A", "B"])
                for o in ("x", "y", "z")
            ],
        }
        src = tmp_path / "flat.game"
        src.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "flat.tu.game"
        assert run(["reduce-tu", src, "-o", out]) == 0
        reduced = json.loads(out.read_text(encoding="utf-8"))
        values = {tuple(e["subset"]): e["value"] for e in reduced["utilities"]}
        assert values == {("A",): 1.0, ("B",): 2.0, ("A", "B"): 5.0}


class TestGraph:
    def test_biadditive_document(self, tmp_path):
        # two-player matrix game [[1, 2], [0, 3]] written out longhand
        outcomes = ["oA", "oB", "oAB"]
        matrix = {("A", "oA"): 1.0, ("A", "oB"): 2.0, ("A", "oAB"): 3.0,
                  ("B", "oA"): 0.0, ("B", "oB"): 3.0, ("B", "oAB"): 3.0}
        utilities = [
            {"subset": [s], "outcome": o, "value": matrix[(s, o)]}
            for s in ("A", "B")
            for o in outcomes
        ]
        utilities += [
            {"subset": ["A", "B"], "outcome": o, "value": matrix[("A", o)] + matrix[("B", o)]}
            for o in outcomes
        ]
        doc = {
            "version": 1,
            "players": ["A", "B"],
            "outcomes": outcomes,
            "consequence": [
                {"subset": ["A"], "outcome": "oA"},
                {"subset": ["B"], "outcome": "oB"},
                {"subset": ["A", "B"], "outcome": "oAB"},
            ],
            "utilities": utilities,
        }
        src = tmp_path / "matrix.game"
        src.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "matrix.edges"
        assert run(["graph", src, "-o", out]) == 0
        assert out.read_text(encoding="utf-8") == "0 0 1.0\n0 1 0.0\n1 0 2.0\n1 1 3.0\n"

    def test_non_biadditive_rejected(self, pd_file, tmp_path, capsys):
        assert run(["graph", pd_file, "-o", tmp_path / "x.edges"]) == 1
        assert "not bi-additive" in capsys.readouterr().err

    def test_a_game_its_matrix_reproduces_but_not_additive_is_refused(self, tmp_path, capsys):
        path = write_doc(tmp_path, "drift.game", DRIFT)
        assert run(["classify", path]) == 0
        assert capsys.readouterr().out.splitlines()[4:] == [
            "additive: false", "co-additive: true", "bi-additive: false"]
        assert run(["graph", path, "-o", tmp_path / "drift.edges"]) == 1
        assert one_error_line(capsys) == "error: not bi-additive: not additive"
        assert not (tmp_path / "drift.edges").exists()

    FAMILIES = ["st", "additive", "coadditive", "biadditive", "monotone"]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_graph_succeeds_exactly_when_classify_reports_bi_additive(
        self, tmp_path, capsys, family, n
    ):
        import numpy as np

        import random_games as rg
        from teamgames import game_io
        from teamgames.st import STGame

        rng = np.random.default_rng(n)
        game = {
            "st": lambda: rg.random_st_game(n, rng, 3),
            "additive": lambda: rg.random_additive_game(n, rng),
            "coadditive": lambda: rg.random_coadditive_game(n, rng),
            "biadditive": lambda: rg.random_biadditive_matrix(n, rng).to_game(),
            "monotone": lambda: rg.monotone_series(n, rng),
        }[family]()
        name = {x: f"o{x}" for x in game.outcomes}  # a document names outcomes by strings
        game = STGame.from_tables(
            n, name.values(), {s: name[x] for s, x in game.consequence_table.items()},
            {(a, name[x]): v for (a, x), v in game.utility_table.items()}, game.players)
        path = tmp_path / "g.game"
        game_io.save_game(game, path)
        assert run(["classify", path]) == 0
        biadditive = "bi-additive: true" in capsys.readouterr().out.splitlines()
        out = tmp_path / "g.edges"
        assert run(["graph", path, "-o", out]) == (0 if biadditive else 1)
        assert out.exists() == biadditive
        if family == "biadditive":
            assert biadditive


def size_additive_doc(u_a_k1: float) -> dict:
    """A 4-player game whose outcome is the coalition's size k, with u_A(k) = k times A's
    stakes (0.5, 1.25, 2, 0.75), except u_{A}(k1) = ``u_a_k1``."""
    names, stakes = "ABCD", (0.5, 1.25, 2.0, 0.75)
    masks = range(1, 16)

    def members(mask):
        return [names[i] for i in range(4) if mask >> i & 1]

    return {
        "version": 1, "players": list(names), "outcomes": ["k1", "k2", "k3", "k4"],
        "consequence": [{"subset": members(s), "outcome": f"k{s.bit_count()}"} for s in masks],
        "utilities": [
            {"subset": members(a), "outcome": f"k{k}",
             "value": u_a_k1 if (a, k) == (1, 1) else k * sum(
                 stakes[i] for i in range(4) if a >> i & 1)}
            for a in masks for k in range(1, 5)
        ],
    }


class TestTeamFloatRange:
    """A team detector whose expectation leaves the float range ends in one error line."""

    @pytest.mark.parametrize(
        "value, report",
        [
            (-1e308, "sensible: false\nfully-cooperative: true\nutility in team core: true\n"),
            (1e308, "sensible: true\nfully-cooperative: false\nutility in team core: false\n"),
        ],
    )
    def test_classify_and_graph(self, tmp_path, capsys, value, report):
        path = write_doc(tmp_path, "huge.game", size_additive_doc(value))
        out = tmp_path / "huge.edges"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["classify", path]) == 1
            captured = capsys.readouterr()
            assert run(["graph", path, "-o", out]) == 1
        # every singleton coalition produces k1: u_A(V(A+B)) expects u_A(k1) twice
        assert captured.out == "kind: team game (4 players: A, B, C, D)\n" + report
        assert captured.err == ("error: the co-additive expectation of {A} at coalition {A,B} "
                                "is past the float range\n")
        # `graph` runs the same detectors first, so it ends in the same line
        assert one_error_line(capsys) + "\n" == captured.err
        assert not out.exists()


def swap_doc(u_a: float, u_b: float, u_ab: float) -> dict:
    """Two players whose every coalition produces x, valued u_a, u_b and u_ab."""
    subsets = (["a"], ["b"], ["a", "b"])
    return {
        "version": 1, "players": ["a", "b"], "outcomes": ["x"],
        "consequence": [{"subset": s, "outcome": "x"} for s in subsets],
        "utilities": [{"subset": s, "outcome": "x", "value": v}
                      for s, v in zip(subsets, (u_a, u_b, u_ab))],
    }


# u_ab - u_b leaves the float range in the swap and its sign mirror; in the exchange of the
# singleton values, u_ab - u_a does
SWAPS = {"swap": (1.0, -1.7e308, 1.7e308), "mirror": (-1.0, 1.7e308, -1.7e308),
         "exchange": (-1.7e308, 1.0, 1.7e308)}
TEAM_HEAD = ("kind: team game (2 players: a, b)\nsensible: false\nfully-cooperative: true\n"
             "utility in team core: true\n")
SWAP_REPORT = TEAM_HEAD + "additive: false\nco-additive: false\nbi-additive: false\n"
PAST = "is past the float range"
NO_TU = f"error: the competitive contribution of {{a}} against {{b}} {PAST}\n"


class TestSwapFloatRange:
    """The team kernels on a document whose differences leave the float range: each command
    ends in a result or one error line, with no warning."""

    @pytest.mark.parametrize(
        "name, command, status, stdout, stderr",
        [
            *((name, "classify", 0, SWAP_REPORT, "") for name in ("swap", "mirror")),
            ("exchange", "classify", 1, TEAM_HEAD,
             f"error: the co-additive expectation of {{a}} at coalition {{a,b}} {PAST}\n"),
            *((name, "metrics", 1, "", f"error: the competitive contribution of {{a}} {PAST}\n")
              for name in ("swap", "mirror")),
            ("exchange", "metrics", 1, "",
             f"error: the competitive contribution of {{b}} {PAST}\n"),
            *((name, command, 1, "", NO_TU)
              for name in ("swap", "mirror") for command in ("reduce-tu", "shapley")),
            ("exchange", "reduce-tu", 0,
             "not reducible: competitive contributions do not vanish\n"
             "witness: c[a | b] = 1.7e+308\n", ""),
            ("exchange", "shapley", 1, "", "error: not reducible to a TU game: competitive "
             "contribution c[a | b] = 1.7e+308\n"),
        ],
    )
    def test_commands(self, tmp_path, capsys, name, command, status, stdout, stderr):
        path = write_doc(tmp_path, f"{name}.game", swap_doc(*SWAPS[name]))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([command, path] + ([] if command == "classify" else ["-o", out])) == status
        assert capsys.readouterr() == (stdout, stderr)
        assert not out.exists()


class TestRefusals:
    """Every refusal ends in exactly one ``error:`` line on stderr and exit status 1."""

    @pytest.mark.parametrize(
        "command, doc, message",
        [
            ("metrics", "tu", "error: metrics requires a team game document, got a TU game"),
            ("shapley", "cobb", "error: shapley requires a team game or TU game document, "
                                "got a Cobb-Douglas game"),
            ("core", "cobb", "error: core requires a team game or TU game document, "
                             "got a Cobb-Douglas game"),
            ("reduce-tu", "tu", "error: reduce-tu requires a team game document, got a TU game"),
            ("graph", "tu", "error: graph requires a team game document, got a TU game"),
            ("graph", "pd", "error: not bi-additive: "),
            ("cobb sweep", "tu", "error: cobb requires a Cobb-Douglas game document, got a TU game"),
        ],
        ids=["metrics", "shapley", "core", "reduce-tu", "graph", "graph-not-biadditive", "cobb"],
    )
    def test_wrong_document_is_one_error_line(self, tmp_path, capsys, command, doc, message):
        docs = {"tu": GLOVE, "pd": PRISONERS_DILEMMA,
                "cobb": {"version": 1, "cobb_douglas": {"beta": 2.0}}}
        path = write_doc(tmp_path, f"{doc}.game", docs[doc])
        out = tmp_path / "out"
        assert run([*command.split(), path, "-o", out]) == 1
        assert one_error_line(capsys).startswith(message)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["shapley", "core"])
    def test_unreducible_witness_is_named_by_players(self, pd_file, tmp_path, capsys, command):
        assert run([command, pd_file, "-o", tmp_path / "out.csv"]) == 1
        assert one_error_line(capsys) == (
            "error: not reducible to a TU game: competitive contribution c[A | B] = 2.0"
        )

    @pytest.mark.parametrize(
        "content, message",
        [
            ("[" * 100_000 + "]" * 100_000, "error: $: malformed document: nested too deeply"),
            (b'{"version": 1, "players": ["\xe9"]}', "error: byte 28: not UTF-8 text"),
            ('{"version": true, "players": ["A"], "utilities": []}',
             "error: version: field 'version' must be int, got bool"),
            ('{"version": 1, "players": ["A"], "utilities": [{"subset": [["A"]], "value": 1}]}',
             "error: utilities[0].subset[0]: unknown player ['A']"),
            ('{"version": 1, "players": ["A"], "utilities": [{"subset": ["A"], "value": 1'
             + "0" * 400 + "}]}", "error: utilities[0].value: value must be finite"),
            ('{"version": 1, "cobb_douglas": {"beta": 1' + "0" * 400 + "}}",
             "error: cobb_douglas.beta: value must be finite"),
        ],
        ids=["deep-nesting", "not-utf8", "version-true", "nested-player-name",
             "huge-tu-value", "huge-cobb-beta"],
    )
    def test_unreadable_document_is_one_error_line(self, tmp_path, capsys, content, message):
        path = tmp_path / "bad.game"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        assert run(["classify", path]) == 1
        assert one_error_line(capsys).startswith(message)


    @pytest.mark.parametrize("command", ["classify", "shapley", "core"])
    @pytest.mark.parametrize("content, message", [
        ('{"version": 1, "players": ["A"], "utilities": [{"subset": ["A"], "value": 1'
         + "0" * 4300 + "}]}", "error: utilities[0].value: value must be finite, got inf"),
        ('{"version": 1' + "0" * 4300 + ', "players": ["A"], "utilities": []}',
         "error: version: field 'version' must be int, got float"),
        ('{"version": 1, "players": ["A", "\\ud800"], "utilities": [{"subset": ["A"], '
         '"value": 1}, {"subset": ["\\ud800"], "value": 1}, {"subset": ["A", "\\ud800"], '
         '"value": 3}]}',
         "error: players[1]: player '\\ud800' holds a lone surrogate, which UTF-8 cannot "
         "encode"),
        ('{"version": 1, "players": ["A"], "outcomes": ["\\udfff"], "consequence": [{"subset": '
         '["A"], "outcome": "\\udfff"}], "utilities": [{"subset": ["A"], "outcome": "\\udfff", '
         '"value": 1}]}',
         "error: outcomes[0]: outcome '\\udfff' holds a lone surrogate, which UTF-8 cannot "
         "encode"),
    ], ids=["long-integer-value", "long-integer-version", "surrogate-player",
            "surrogate-outcome"])
    def test_long_integers_and_lone_surrogates_are_one_error_line(self, tmp_path, capsys,
                                                                  command, content, message):
        path = tmp_path / "bad.game"
        path.write_text(content, encoding="utf-8")
        out = tmp_path / "out.csv"
        assert run([command, path] + ([] if command == "classify" else ["-o", out])) == 1
        assert one_error_line(capsys) == message
        assert not out.exists()


# a bi-additive, competition-free team game: every utility is 0
ZERO = {
    "version": 1, "players": ["A", "B"], "outcomes": ["oA", "oB", "oAB"],
    "consequence": [{"subset": s, "outcome": o}
                    for s, o in ((["A"], "oA"), (["B"], "oB"), (["A", "B"], "oAB"))],
    "utilities": [{"subset": s, "outcome": o, "value": 0}
                  for s in (["A"], ["B"], ["A", "B"]) for o in ("oA", "oB", "oAB")],
}


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
@pytest.mark.parametrize("command, written", [
    ("reduce-tu", '  "utilities": [\n'), ("graph", "0 0 0.0\n0 1 0.0\n1 0 0.0\n1 1 0.0\n"),
])
def test_a_document_or_edges_to_stdout_are_written_in_place(tmp_path, command, written):
    """``-o /dev/stdout`` names the open standard output, which a ``.game`` or ``.edges``
    file is written to in place, never replaced, even when a regular file stands behind it."""
    src, out = write_doc(tmp_path, "zero.game", ZERO), tmp_path / "out.txt"
    main_ = "import sys; from teamgames.cli import main; sys.exit(main(sys.argv[1:]))"
    with open(out, "ab") as fh:
        inode = os.fstat(fh.fileno()).st_ino
        subprocess.run([sys.executable, "-c", main_, command, str(src), "-o", "/dev/stdout"],
                       stdout=fh, check=True, env={
                           **os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")})
    assert os.stat(out).st_ino == inode
    assert written in out.read_text(encoding="utf-8")
    assert sorted(tmp_path.iterdir()) == [out, src]


class TestAgainstDirectApi:
    def test_metrics_rows_match_library_calls(self, tmp_path):
        import numpy as np

        from teamgames import all_coop_points, classify_quadrant
        from teamgames.game_io import save_game
        from random_games import random_st_game

        game = random_st_game(3, np.random.default_rng(99))
        src = tmp_path / "random3.game"
        save_game(game, src)
        out = tmp_path / "random3.csv"
        assert run(["metrics", src, "-o", out]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        points = all_coop_points(game, include_grand=False)
        assert len(lines) == 1 + len(points) == 7
        for line, point in zip(lines[1:], points):
            cells = line.split(",")
            assert float(cells[1]) == point.altruism
            assert float(cells[2]) == point.competitive
            assert float(cells[3]) == point.marginal
            assert cells[4] == classify_quadrant(point).value

    @pytest.mark.parametrize("n", [1, 2, 7, 12])
    @pytest.mark.parametrize("names", [None, ['a+b', 'c,d', 'say "e"']])
    def test_metrics_writes_columns_not_points(self, tmp_path, monkeypatch, n, names):
        """`metrics` writes the cooperation-space columns as they are, with no `CoopPoint`
        and no per-row subset walk: the bytes of the point-by-point table, with and without
        the grand row, for any player names, in at most twice the table's memory."""
        import dataclasses
        import tracemalloc

        import numpy as np

        import reference_loops as ref
        from random_games import random_st_game
        from teamgames import game_io, st

        game = random_st_game(n, np.random.default_rng(n), n_outcomes=min(n + 1, (1 << n) - 1))
        if names:
            players = [names[i % 3] + str(i) for i in range(n)]
            game = dataclasses.replace(game, players=tuple(players))
        monkeypatch.setattr(game_io, "load_game", lambda path: game)
        columns = ["subset", "altruism", "competitive", "marginal", "quadrant"]
        expected = {}
        for grand in (False, True):
            out = tmp_path / f"expected{grand}.csv"
            ref.write_table([ref.metrics_table(game, grand)], columns + ["grand"] * grand, out)
            expected[grand] = out.read_bytes()

        def refuse(*args, **kwargs):
            raise AssertionError("a cooperation-space point was built")

        monkeypatch.setattr(st, "CoopPoint", refuse)
        for grand in (False, True):
            out = tmp_path / f"got{grand}.csv"
            args = cli.build_parser().parse_args(
                ["metrics", "x.game", "-o", str(out)] + ["--include-grand"] * grand)
            tracemalloc.start()
            try:
                assert args.func(args) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert out.read_bytes() == expected[grand]
            if n == 12 and names is None:
                assert peak <= 2 * game._blocks.cells.nbytes

    def test_tables_label_quadrants_by_whole_columns(self, tmp_path, monkeypatch):
        import numpy as np

        from teamgames import st
        from teamgames.game_io import save_game
        from random_games import random_st_game

        def refuse(*args, **kwargs):
            raise AssertionError("a quadrant was classified one row at a time")

        monkeypatch.setattr(st, "quadrant_of", refuse)
        monkeypatch.setattr(st, "classify_quadrant", refuse)
        src = tmp_path / "random3.game"
        save_game(random_st_game(3, np.random.default_rng(99)), src)
        assert run(["metrics", src, "--include-grand", "-o", tmp_path / "m.csv"]) == 0
        for command in ("sweep", "path"):
            assert run(["cobb", command, "-o", tmp_path / f"{command}.csv"]) == 0

    def test_classify_echoes_biadditive_matrix(self, tmp_path, capsys):
        # the game determined by the perception matrix [[1, 2], [0, 3]]
        matrix = {"A": {"A": 1.0, "B": 2.0}, "B": {"A": 0.0, "B": 3.0}}
        outcome_members = {"oA": ["A"], "oB": ["B"], "oAB": ["A", "B"]}
        doc = {
            "version": 1,
            "players": ["A", "B"],
            "outcomes": list(outcome_members),
            "consequence": [
                {"subset": members, "outcome": o} for o, members in outcome_members.items()
            ],
            "utilities": [
                {
                    "subset": assessors,
                    "outcome": o,
                    "value": sum(matrix[a][b] for a in assessors for b in members),
                }
                for assessors in (["A"], ["B"], ["A", "B"])
                for o, members in outcome_members.items()
            ],
        }
        src = tmp_path / "matrix.game"
        src.write_text(json.dumps(doc), encoding="utf-8")
        assert run(["classify", src]) == 0
        out = capsys.readouterr().out
        assert "bi-additive: true" in out
        assert "perception[A]: 1.0 2.0" in out
        assert "perception[B]: 0.0 3.0" in out


class TestCobbCommands:
    def test_sweep_small(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(
            ["cobb", "sweep", "--sizeA", 2, "--sizeB", 3, "--resolution", 4,
             "--gammas", "0,1", "-o", out]
        ) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("gamma,theta,beta,sizeA,sizeB,xA_avg,xB_avg,payoff,utility")
        assert len(lines) == 1 + 2 * 16

    def test_frontier_known_value(self, tmp_path):
        out = tmp_path / "frontier.csv"
        assert run(["cobb", "frontier", "--beta", 1.5, "--gammas", "0", "--resolution", 2, "-o", out]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "gamma,r,beta,max_stable_size"
        assert lines[1] == "0.0,0.5,1.5,2.0"
        assert lines[2] == "0.0,1.0,1.5,1.0"

    def test_path_small(self, tmp_path):
        out = tmp_path / "path.csv"
        assert run(
            ["cobb", "path", "--sizeA", 1, "--sizeB", 1, "--samples", 5,
             "--gammas", "1", "-o", out]
        ) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 6
        assert lines[0].endswith("altruism,competitive,marginal,quadrant")

    def test_rational_small(self, tmp_path):
        out = tmp_path / "rational.csv"
        assert run(
            ["cobb", "rational", "--sizeA", 1, "--sizeB", 1, "--resolution", 3,
             "--gammas", "0.5", "-o", out]
        ) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "gamma,theta,beta,sizeA,sizeB,xB_avg,xA_rational,zero_altruism_xA"
        assert len(lines) == 4

    def test_flag_overrides_document_with_notice(self, tmp_path, capsys):
        doc = {"version": 1, "cobb_douglas": {"theta": 0.6, "beta": 2.0}}
        src = tmp_path / "cd.game"
        src.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "frontier.csv"
        assert run(
            ["cobb", "frontier", src, "--beta", 1.5, "--gammas", "0", "--resolution", 2, "-o", out]
        ) == 0
        captured = capsys.readouterr().out
        assert "overrides document value" in captured
        assert "1.5" in out.read_text(encoding="utf-8").splitlines()[1]

    def test_domain_invalid_flag_rejected_before_compute(self, tmp_path):
        with pytest.raises(SystemExit):
            run(["cobb", "sweep", "--theta", "1.5", "-o", tmp_path / "x.csv"])

    @pytest.mark.parametrize("command", ["sweep", "path"])
    def test_wide_tolerance_labels_points_inside_the_band(self, tmp_path, command):
        size = "--resolution" if command == "sweep" else "--samples"
        args = ["cobb", command, "--sizeA", 1, "--sizeB", 2, size, 5, "--gammas", "0,0.5"]
        narrow, wide = tmp_path / "narrow.csv", tmp_path / "wide.csv"
        assert run(args + ["-o", narrow]) == 0
        assert run(args + ["--tol", "1e6", "-o", wide]) == 0
        narrow_rows = [line.rsplit(",", 1) for line in narrow.read_text().splitlines()[1:]]
        wide_rows = [line.rsplit(",", 1) for line in wide.read_text().splitlines()[1:]]
        assert [r[0] for r in narrow_rows] == [r[0] for r in wide_rows]
        assert {r[1] for r in narrow_rows} - {"origin", "axis-a", "axis-c"}
        assert {r[1] for r in wide_rows} == {"origin"}

    @pytest.mark.parametrize(
        "argv, rows",
        [
            (["rational", "--resolution", 1], None),
            (["sweep", "--resolution", 1], None),
            (["path", "--samples", 1], None),
            (["sweep", "--alpha", "inf"], None),
            (["frontier", "--beta", 1], None),
            (["sweep", "--beta", "1e308", "--resolution", 3], None),
            (["path", "--beta", "1e308", "--samples", 3], None),
            (["rational", "--beta", "1e308", "--resolution", 3], None),
            (["path", "--alpha", "1e308", "--samples", 3], None),
            (["sweep", "--sizeA", 10**400, "--resolution", 3], None),
            (["sweep", "--sizeA", 2, "--sizeB", 63, "--resolution", 3, "--gammas", 0.5], 9),
            (["path", "--sizeA", 2, "--sizeB", 63, "--samples", 3, "--gammas", 0.5], 3),
            (["rational", "--sizeA", 2, "--sizeB", 63, "--resolution", 3, "--gammas", 0.5], 3),
        ],
    )
    def test_flag_values_end_in_a_table_or_one_error_line(self, tmp_path, capsys, argv, rows):
        out = tmp_path / "out.csv"
        try:
            status = run(["cobb", *argv, "-o", out])
        except SystemExit as exc:  # argparse rejects a flag value with status 2
            status = exc.code
        err = capsys.readouterr().err.splitlines()
        if rows is None:
            assert status in (1, 2) and not out.exists()
            assert [line for line in err if "error: " in line] == err[-1:]
            return
        assert status == 0 and err == []
        table = out.read_text(encoding="utf-8").splitlines()
        assert len(table) == 1 + rows
        assert not any(word in line for line in table for word in ("inf", "nan"))

    @pytest.mark.parametrize(
        "argv",
        [
            ["frontier", "--theta", 0.5],
            ["frontier", "--alpha", 2],
            ["frontier", "--tol", 0.1],
            ["sweep", "--gamma", 0.5],
            ["path", "--gamma", 0.5],
            ["frontier", "--gamma", 0.5],
            ["rational", "--gamma", 0.5],
        ],
    )
    def test_removed_flags_are_usage_errors(self, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            run(["cobb", *argv, "-o", out])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("gamma", 0.3), ("resources", [1.0, 1.0])])
    def test_removed_document_keys_are_refused(self, tmp_path, capsys, key, value):
        doc = {"version": 1, "cobb_douglas": {"theta": 0.6, key: value}}
        path = write_doc(tmp_path, "cd.game", doc)
        out = tmp_path / "sweep.csv"
        assert run(["cobb", "sweep", path, "--resolution", 3, "-o", out]) == 1
        assert one_error_line(capsys) == f"error: cobb_douglas.{key}: unknown parameter {key!r}"
        assert not out.exists()

    def test_classify_prints_the_cobb_douglas_parameters(self, tmp_path, capsys):
        path = write_doc(tmp_path, "cd.game", {"version": 1, "cobb_douglas": {"theta": 0.6}})
        assert run(["classify", path]) == 0
        assert "theta=0.6 alpha=1.0 beta=1.5\n" in capsys.readouterr().out

    def test_rational_tol_reaches_the_root_scan(self, tmp_path):
        args = ["cobb", "rational", "--resolution", 5, "--gammas", "0"]
        tables = {}
        for tol in (None, "1e-9", "0.5"):
            out = tmp_path / f"rational-{tol}.csv"
            assert run(args + (["--tol", tol] if tol else []) + ["-o", out]) == 0
            tables[tol] = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert tables[None] == tables["1e-9"]
        default, wide = tables[None], tables["0.5"]
        # the rational choice does not depend on --tol; the zero-altruism root does
        assert [row[:7] for row in default] == [row[:7] for row in wide]
        assert [row[7] for row in default[1:]] != [row[7] for row in wide[1:]]

    @pytest.mark.parametrize(
        "command, table_fn, count_flag, budget",
        [
            ("sweep", "payoff_utility_grid", "--resolution", "MAX_GRID_ROWS"),
            ("path", "cooperation_path", "--samples", "MAX_SEARCH_ROWS"),
            ("rational", "rational_table", "--resolution", "MAX_SEARCH_ROWS"),
            ("frontier", "stable_size_grid", "--resolution", "MAX_GRID_ROWS"),
        ],
    )
    def test_row_budget_refuses_before_computing(
        self, tmp_path, capsys, monkeypatch, command, table_fn, count_flag, budget
    ):
        # stand-ins that compute nothing: a table of empty columns
        columns = (*teamgames.cobb.COBB_COLUMNS, *teamgames.cobb.RATIONAL_COLUMNS,
                   *teamgames.cobb.FRONTIER_COLUMNS)
        empty = dict.fromkeys(columns, [])
        # the frontier reads its builder from the numpy-free leaf, the tables from cobb
        module = teamgames.cobb_params if command == "frontier" else teamgames.cobb
        monkeypatch.setattr(module, table_fn, lambda *args, **kwargs: empty)
        limit = getattr(cli, budget)
        per_gamma = int(limit**0.5) if command == "sweep" else limit
        # the default gammas and this command's default count fit
        default = 101**2 if command == "sweep" else 101
        assert default * len(cli.DEFAULT_GAMMAS) <= limit
        out = tmp_path / "out.csv"
        assert run(["cobb", command, count_flag, per_gamma, "--gammas", "0", "-o", out]) == 0
        # one more row per gamma, or a second gamma, passes the budget: refused before any rows
        def refuse(*args, **kwargs):
            raise AssertionError(f"{table_fn} called past the row budget")

        monkeypatch.setattr(module, table_fn, refuse)
        for count, gammas in ((per_gamma + 1, "0"), (per_gamma, "0,1")):
            out.unlink(missing_ok=True)
            argv = ["cobb", command, count_flag, count, "--gammas", gammas, "-o", out]
            assert run(argv) == 1
            line = one_error_line(capsys)
            assert line.startswith(f"error: {count_flag}: cobb {command} would write ")
            assert line.endswith(f"over its limit of {limit}")
            assert not out.exists()

    def test_seed_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit):
            run(["--seed", 5, "cobb", "frontier", "-o", tmp_path / "f.csv"])

    @pytest.mark.parametrize(
        "argv, at",
        [
            # r^300 is subnormal: the float quotient is inf
            (["--resolution", 11, "--gammas", "0"], "gamma 0.0, r 0.09090909090909091"),
            # r^300 underflows to 0, yet the bound is finite (about 10^900)
            (["--resolution", 1000], "gamma 0.0, r 0.001"),
            (["--resolution", 20, "--gammas", "0"], "gamma 0.0, r 0.05"),
        ],
    )
    def test_frontier_past_the_float_range_is_one_error_line(self, tmp_path, capsys, argv, at):
        out = tmp_path / "frontier.csv"
        with alarm(5):
            assert run(["cobb", "frontier", "--beta", 300, *argv, "-o", out]) == 1
        assert one_error_line(capsys) == (
            f"error: the stable team-size bound at {at} is past the float range")
        assert not out.exists()

    def test_frontier_keeps_inf_where_the_denominator_is_negative(self, tmp_path):
        # r^300 underflows, but gamma * r is larger still: every size is stable
        out = tmp_path / "frontier.csv"
        assert run(["cobb", "frontier", "--beta", 300, "--gammas", "0.5", "--resolution", 1000,
                    "-o", out]) == 0
        rows = out.read_text(encoding="utf-8").splitlines()
        assert rows[1] == "0.5,0.001,300.0,inf" and len(rows) == 1001

    @pytest.mark.parametrize("size_a", [2**40, 2**53])
    def test_rational_roots_stop_where_floats_are_sparse(self, tmp_path, size_a):
        # adjacent floats near x_A lie more than ROOT_XATOL apart: bisection ends between them
        out = tmp_path / "rational.csv"
        argv = ["cobb", "rational", "--resolution", 2, "--sizeA", size_a, "--sizeB", 3,
                "--gammas", "0", "-o", out]
        with alarm(5):
            assert run(argv) == 0
        rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        assert [row[5] for row in rows] == ["0.0", "1.0"]
        assert 0.0 < float(rows[1][7]) < 1.0


class TestOversizedDocuments:
    """A document past the size limits ends in one error line, exit 1."""

    @staticmethod
    def _names(n):
        return [f"p{i}" for i in range(n)]

    def _run(self, tmp_path, capsys, doc):
        path = tmp_path / "big.game"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run(["classify", path]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        return err[0]

    def test_forty_player_tu_document(self, tmp_path, capsys):
        doc = {"version": 1, "players": self._names(40),
               "utilities": [{"subset": ["p0"], "value": 1.0}]}
        err = self._run(tmp_path, capsys, doc)
        assert err == "error: players: TU games support 1..20 players, got 40"

    def test_forty_player_team_document(self, tmp_path, capsys):
        doc = {"version": 1, "players": self._names(40), "outcomes": ["x"],
               "consequence": [{"subset": ["p0"], "outcome": "x"}],
               "utilities": [{"subset": ["p0"], "outcome": "x", "value": 1.0}]}
        err = self._run(tmp_path, capsys, doc)
        assert err == "error: consequence: no consequence entry for subset ['p1']"

    def test_seventy_player_team_document(self, tmp_path, capsys):
        # masks of 70 players do not fit int64; coverage is checked on Python ints first
        names = self._names(70)
        doc = {"version": 1, "players": names, "outcomes": ["x", "y"],
               "consequence": [{"subset": names, "outcome": "x"},
                               {"subset": names[::-1][:3], "outcome": "y"}],
               "utilities": [{"subset": names, "outcome": "x", "value": 1.0}]}
        err = self._run(tmp_path, capsys, doc)
        assert err == "error: consequence: no consequence entry for subset ['p0']"

    def test_table_past_the_cell_limit(self, tmp_path, capsys):
        # 2^16 assessors x 65,536 outcomes would be a 34 GB table
        n = 16
        names = self._names(n)
        outcomes = [f"o{k}" for k in range(1 << n)]
        consequence = [
            {"subset": [names[i] for i in range(n) if mask >> i & 1], "outcome": outcomes[mask]}
            for mask in range(1, 1 << n)
        ]
        doc = {"version": 1, "players": names, "outcomes": outcomes,
               "consequence": consequence, "utilities": []}
        err = self._run(tmp_path, capsys, doc)
        assert err.startswith("error: outcomes: 16 players and 65536 outcomes need")


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["cobb", "rational", "--sizeA", 2, "--sizeB", 2, "--resolution", 4, "--gammas", "0,1"]
        assert run(args + ["-o", a]) == 0
        assert run(args + ["-o", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("cobb_sweep.csv", ["cobb", "sweep", "--sizeA", 2, "--sizeB", 3, "--resolution", 6,
                                "--gammas", "0,0.5,1"]),
            ("cobb_path.csv", ["cobb", "path", "--sizeA", 1, "--sizeB", 4, "--samples", 9,
                               "--gammas", "0,0.25,1"]),
            ("cobb_rational.csv", ["cobb", "rational", "--beta", 0.5, "--sizeA", 2, "--sizeB", 5,
                                   "--resolution", 6, "--gammas", "0,0.5"]),
            ("cobb_frontier.csv", ["cobb", "frontier", "--beta", 2, "--resolution", 8,
                                   "--gammas", "0,0.5,1"]),
            ("pd.metrics.csv", ["metrics", "pd.game", "--include-grand"]),
            ("glove.shapley.csv", ["shapley", "glove.game"]),
            ("glove.core.csv", ["core", "glove.game"]),
        ],
    )
    def test_tables_match_recorded_bytes(self, tmp_path, monkeypatch, name, argv):
        # recorded from the row-at-a-time writer the column tables replaced
        monkeypatch.chdir(tmp_path)
        write_doc(tmp_path, "pd.game", PRISONERS_DILEMMA)
        write_doc(tmp_path, "glove.game", GLOVE)
        assert run([*argv, "-o", name]) == 0
        assert (tmp_path / name).read_bytes() == (EXACT_GOLDEN / name).read_bytes()
