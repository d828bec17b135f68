import copy
import json

import numpy as np
import pytest

from teamgames.additivity import BiAdditiveMatrix, export_graph
from teamgames.cobb import CobbDouglasConfig
from teamgames.errors import GameLoadError
from teamgames.game_io import (
    ROW_CHUNK,
    document_for,
    load_game,
    parse_document,
    save_game,
    write_edges,
    write_table,
)
from teamgames.players import PlayerSet
from teamgames.scenarios import GLOVE, PRISONERS_DILEMMA
from teamgames.st import STGame
from teamgames.tu import TUGame


def test_load_pd_document(tmp_path):
    path = tmp_path / "pd.game"
    path.write_text(json.dumps(PRISONERS_DILEMMA), encoding="utf-8")
    game = load_game(path)
    assert isinstance(game, STGame)
    assert game.players == ("A", "B")
    assert game.subset_utility(PlayerSet.of(0, 1), PlayerSet.of(0, 1)) == 4.0
    assert game.subset_utility(PlayerSet.of(0), PlayerSet.of(0, 1)) == 2.0


def test_load_from_stream():
    import io

    game = parse_document(GLOVE)
    stream = io.StringIO(json.dumps(GLOVE))
    again = load_game(stream)
    assert isinstance(again, TUGame)
    assert list(again.u) == list(game.u)


def test_tu_document_enforces_empty_worth():
    doc = copy.deepcopy(GLOVE)
    doc["utilities"].append({"subset": [], "value": 1.0})
    with pytest.raises(GameLoadError, match="empty coalition"):
        parse_document(doc)
    doc["utilities"][-1]["value"] = 0.0
    assert parse_document(doc).u[0] == 0.0


def test_tu_document_requires_every_subset():
    doc = copy.deepcopy(GLOVE)
    doc["utilities"] = doc["utilities"][:-1]
    with pytest.raises(GameLoadError, match=r"no utility entry for subset"):
        parse_document(doc)


def test_missing_consequence_names_subset():
    doc = copy.deepcopy(PRISONERS_DILEMMA)
    doc["consequence"] = [e for e in doc["consequence"] if e["subset"] != ["A"]]
    with pytest.raises(GameLoadError, match=r"no consequence entry for subset \['A'\]"):
        parse_document(doc)


def test_non_string_outcome_is_undeclared():
    doc = copy.deepcopy(PRISONERS_DILEMMA)
    doc["consequence"][0]["outcome"] = ["together"]
    with pytest.raises(GameLoadError, match=r"consequence\[0\].outcome: undeclared outcome"):
        parse_document(doc)
    doc = copy.deepcopy(PRISONERS_DILEMMA)
    doc["utilities"][1]["outcome"] = {"id": 1}
    with pytest.raises(GameLoadError, match=r"utilities\[1\].outcome: undeclared outcome"):
        parse_document(doc)


def test_duplicate_consequence_names_first_entry():
    doc = copy.deepcopy(PRISONERS_DILEMMA)
    doc["consequence"].append(dict(doc["consequence"][1]))
    with pytest.raises(GameLoadError, match=r"consequence\[3\].subset: .*also at consequence\[1\]"):
        parse_document(doc)


def test_duplicate_utility_names_first_entry():
    doc = copy.deepcopy(PRISONERS_DILEMMA)
    doc["utilities"].append(dict(doc["utilities"][3]))
    doc["utilities"].append(dict(doc["utilities"][3]))
    with pytest.raises(GameLoadError, match=r"utilities\[5\]: .*also at utilities\[3\]"):
        parse_document(doc)


def test_unknown_player_location():
    doc = copy.deepcopy(PRISONERS_DILEMMA)
    doc["utilities"][2]["subset"] = ["Z"]
    with pytest.raises(GameLoadError, match=r"utilities\[2\].subset\[0\]: unknown player 'Z'"):
        parse_document(doc)


def test_duplicate_utility_location():
    doc = copy.deepcopy(PRISONERS_DILEMMA)
    doc["utilities"].append(dict(doc["utilities"][0]))
    with pytest.raises(GameLoadError, match=r"utilities\[5\].*duplicate"):
        parse_document(doc)


def test_malformed_number():
    doc = copy.deepcopy(PRISONERS_DILEMMA)
    doc["utilities"][1]["value"] = "four"
    with pytest.raises(GameLoadError, match=r"utilities\[1\].value"):
        parse_document(doc)


def test_missing_totality_is_an_error():
    doc = copy.deepcopy(PRISONERS_DILEMMA)
    doc["utilities"] = [e for e in doc["utilities"] if e != {"subset": ["A"], "outcome": "together", "value": 2}]
    with pytest.raises(GameLoadError, match="missing utility"):
        parse_document(doc)


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "broken.game"
    path.write_text('{"version": 1,\n  "players": [}', encoding="utf-8")
    with pytest.raises(GameLoadError, match=r"line 2"):
        load_game(path)


def test_unsupported_version():
    with pytest.raises(GameLoadError, match="version"):
        parse_document({"version": 99, "players": ["A"], "utilities": []})


def test_cobb_document_round_trip(tmp_path):
    doc = {
        "version": 1,
        "cobb_douglas": {"theta": 0.6, "alpha": 2.0, "beta": 1.5},
    }
    cfg = parse_document(doc)
    assert isinstance(cfg, CobbDouglasConfig)
    assert cfg.theta == 0.6
    path = tmp_path / "cd.game"
    save_game(cfg, path)
    again = load_game(path)
    assert again == cfg


def test_cobb_document_rejects_bad_domain():
    doc = {"version": 1, "cobb_douglas": {"theta": 1.5}}
    with pytest.raises(GameLoadError, match="cobb_douglas"):
        parse_document(doc)


def test_st_round_trip_is_structurally_identical(tmp_path):
    first = parse_document(PRISONERS_DILEMMA)
    path = tmp_path / "pd.game"
    save_game(first, path)
    second = load_game(path)
    assert second.players == first.players
    assert second.outcomes == first.outcomes
    assert dict(second.consequence_table) == dict(first.consequence_table)
    assert dict(second.utility_table) == dict(first.utility_table)
    # and the documents themselves are stable from the second generation on
    assert document_for(second) == document_for(first)


def test_tu_round_trip(tmp_path):
    first = parse_document(GLOVE)
    path = tmp_path / "glove.game"
    save_game(first, path)
    second = load_game(path)
    assert second.players == first.players
    assert list(second.u) == list(first.u)


def test_functional_games_cannot_serialize():
    game = STGame.from_functions(2, ("x",), lambda s: "x", lambda a, x: 1.0)
    with pytest.raises(ValueError, match="tabulated"):
        document_for(game)


def test_write_table_deterministic_and_full_precision(tmp_path):
    table = {
        "name": ["a", "b", "c", "d"],
        "value": [1 / 3, 2.0, np.float64(0.1), np.float64(-1e-300)],
        "flag": [True, False, np.bool_(True), np.bool_(False)],
    }
    p1 = tmp_path / "one.csv"
    p2 = tmp_path / "two.csv"
    assert write_table([table], ["name", "value", "flag"], p1) == 4
    assert write_table([table], ["name", "value", "flag"], p2) == 4
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "name,value,flag"
    assert "0.3333333333333333" in text
    assert text.endswith("\n")
    # round-trips through float() exactly
    assert float(text.splitlines()[1].split(",")[1]) == 1 / 3
    # numpy scalars print like Python floats and bools
    assert text.splitlines()[3:] == ["c,0.1,true", "d,-1e-300,false"]


def test_write_table_empty_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_table([], ["a", "b"], path)
    assert path.read_text(encoding="utf-8") == "a,b\n"


def test_write_table_writes_tables_in_order_from_arrays(tmp_path):
    path = tmp_path / "tables.csv"
    n = 2 * ROW_CHUNK + 1  # crosses the slices rows are formatted in
    first = {"x": np.array([0.1, -1e-300]), "ok": np.array([True, False]), "k": [3, 4]}
    empty = {"x": [], "ok": [], "k": []}
    long = {"k": np.arange(n), "x": np.arange(n) / 2, "ok": [True] * n}
    last = {"k": [5], "x": np.array([2.0]), "ok": [np.bool_(True)], "extra": ["ignored"]}
    assert write_table([first, empty, long, last], ["k", "x", "ok"], path) == n + 3
    text = path.read_text(encoding="utf-8")
    assert text.startswith("k,x,ok\n3,0.1,true\n4,-1e-300,false\n")
    assert text.endswith("\n5,2.0,true\n")
    assert text.splitlines()[3:-1] == [f"{i},{i / 2!r},true" for i in range(n)]


def test_write_table_quotes_awkward_cells(tmp_path):
    path = tmp_path / "quoted.csv"
    write_table([{"a": ["x,y"], "b": [1.0]}], ["a", "b"], path)
    assert path.read_text(encoding="utf-8").splitlines()[1] == '"x,y",1.0'


def test_write_table_rejects_ragged_rows(tmp_path):
    with pytest.raises(ValueError, match="missing"):
        write_table([{"a": [1]}], ["a", "b"], tmp_path / "bad2.csv")


def test_write_table_rejects_unequal_columns_before_opening(tmp_path):
    # zip would silently cut every column to the shortest one
    path = tmp_path / "bad3.csv"
    good = {"a": [1, 2], "b": np.array([1.0, 2.0])}
    with pytest.raises(ValueError, match=r"table 1 has columns of unequal lengths \[1, 2\]"):
        write_table([good, {"a": [1, 2], "b": np.array([1.0])}], ["a", "b"], path)
    assert not path.exists()


def test_write_edges_format(tmp_path):
    graph = export_graph(BiAdditiveMatrix(2, [[0.5, 0.0], [1.25, -2.0]]))
    path = tmp_path / "g.edges"
    write_edges(graph, path)
    assert path.read_text(encoding="utf-8") == "0 0 0.5\n0 1 1.25\n1 0 0.0\n1 1 -2.0\n"


def test_unwritable_path_raises(tmp_path):
    with pytest.raises(OSError):
        write_table([], ["a"], tmp_path / "missing-dir" / "out.csv")
