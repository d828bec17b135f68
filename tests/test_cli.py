import json

import pytest

from teamgames.cli import main
from teamgames.scenarios import PRISONERS_DILEMMA


@pytest.fixture()
def pd_file(tmp_path):
    path = tmp_path / "pd.game"
    path.write_text(json.dumps(PRISONERS_DILEMMA), encoding="utf-8")
    return path


def run(args):
    return main([str(a) for a in args])


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


class TestAgainstDirectApi:
    def test_metrics_rows_match_library_calls(self, tmp_path):
        import numpy as np

        from teamgames import all_coop_points, classify_quadrant
        from teamgames.game_io import save_game
        from teamgames.random_games import random_st_game

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
            (["sweep", "--sizeA", 2, "--sizeB", 63, "--resolution", 3, "--gamma", 0.5], 9),
            (["path", "--sizeA", 2, "--sizeB", 63, "--samples", 3, "--gamma", 0.5], 3),
            (["rational", "--sizeA", 2, "--sizeB", 63, "--resolution", 3, "--gamma", 0.5], 3),
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

    def test_seed_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit):
            run(["--seed", 5, "cobb", "frontier", "-o", tmp_path / "f.csv"])


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
