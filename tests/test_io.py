import copy
import io
import json
import random
import sys
import tracemalloc

import numpy as np
import pytest
import reference_loops as ref

from teamgames import game_io
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


def _repeated_later(doc, section, positions):
    """``doc`` with copies of the entries at ``positions`` of a section appended in turn."""
    doc = copy.deepcopy(doc)
    doc[section] += [dict(doc[section][i]) for i in positions]
    return doc


@pytest.mark.parametrize("make, section, positions, error", [
    # [p1] repeats before [p0], whose key is smaller
    (lambda: _team_doc(2), "consequence", [1, 0],
     "consequence[3].subset: duplicate consequence for subset (also at consequence[1])"),
    # ([p1], s2) repeats before ([p0], s1)
    (lambda: _team_doc(2), "utilities", [3, 0],
     "utilities[5]: duplicate utility for (subset, outcome) (also at utilities[3])"),
    # [p0, p1] repeats before [p0]
    (lambda: _tu_doc(2), "utilities", [3, 1],
     "utilities[4].subset: duplicate entry for subset (also at utilities[3])"),
])
def test_the_first_repeat_by_position_is_named_before_a_smaller_key(make, section, positions,
                                                                      error):
    """A section's first repeated entry is named by its position, not by its key's rank."""
    doc = _repeated_later(make(), section, positions)
    for parse, source in ((parse_document, doc), (_load_text, json.dumps(doc))):
        with pytest.raises(GameLoadError) as raised:
            parse(source)
        assert str(raised.value) == error, parse.__name__


def test_a_repeated_utility_is_named_before_the_cell_limit(monkeypatch):
    """A table past the cell limit is refused before its entries are placed, yet a repeated
    utility is still the error named, as for a table within the limit."""
    import teamgames.st as st

    monkeypatch.setattr(st, "MAX_TABLE_CELLS", 7)  # two outcomes of four cells each
    doc = _team_doc(2)
    for parse, source in ((parse_document, doc), (_load_text, json.dumps(doc))):
        with pytest.raises(GameLoadError) as raised:
            parse(source)
        assert str(raised.value) == ("outcomes: 2 players and 2 outcomes need 8 table cells, "
                                     "over the limit of 7"), parse.__name__
    doc = _repeated_later(doc, "utilities", [4, 1])
    for parse, source in ((parse_document, doc), (_load_text, json.dumps(doc))):
        with pytest.raises(GameLoadError) as raised:
            parse(source)
        assert str(raised.value) == (
            "utilities[5]: duplicate utility for (subset, outcome) (also at utilities[4])"
        ), parse.__name__


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


def _names(mask, players):
    return [players[i] for i in PlayerSet(mask)]


def _team_doc(n):
    """Size-outcome team document: V(S) is "s|S|", listed assessor by assessor."""
    players = [f"p{i}" for i in range(n)]
    full = 1 << n
    return {
        "version": 1,
        "players": players,
        "outcomes": [f"s{k}" for k in range(1, n + 1)],
        "consequence": [
            {"subset": _names(s, players), "outcome": f"s{s.bit_count()}"} for s in range(1, full)
        ],
        "utilities": [
            {"subset": _names(a, players), "outcome": f"s{k}", "value": a * 0.25 - k}
            for a in range(1, full)
            for k in range(a.bit_count(), n + 1)
        ],
    }


def _tu_doc(n):
    players = [f"p{i}" for i in range(n)]
    return {
        "version": 1,
        "players": players,
        "utilities": [{"subset": _names(s, players), "value": s * 0.5} for s in range(1 << n)],
    }


def _load_result(parse, doc):
    """The error text and location of loading ``doc``, or the bytes of the game's table."""
    try:
        game = parse(doc)
    except GameLoadError as exc:
        return str(exc), exc.location
    return game.u.tobytes() if isinstance(game, TUGame) else _entries(game)


def _entries(game):
    """A team game's utility entries in order, each value by its bytes: a list, where a
    refused document's result is a tuple."""
    table = game.utility_table
    return [list(table), np.array(list(table.values())).tobytes()]


# each fault rewrites the entry at position i of a section's entry list
_SUBSET_FAULTS = {
    "not-an-object": lambda e, i, es: ["p0"],
    "subset-not-a-list": lambda e, i, es: {**e, "subset": "p0"},
    "subset-missing": lambda e, i, es: {k: v for k, v in e.items() if k != "subset"},
    "unknown-player": lambda e, i, es: {**e, "subset": e["subset"] + ["zed"]},
    "player-twice": lambda e, i, es: {**e, "subset": ["p1", "p0", "p1"]},
    "unhashable-name": lambda e, i, es: {**e, "subset": ["p0", ["p1"]]},
    "empty-subset": lambda e, i, es: {**e, "subset": []},
    "duplicate": lambda e, i, es: dict(es[1 if i == 0 else 0]),
}
_OUTCOME_FAULTS = {
    "undeclared-outcome": lambda e, i, es: {**e, "outcome": "s9"},
    "list-outcome": lambda e, i, es: {**e, "outcome": ["s1"]},
    "number-outcome": lambda e, i, es: {**e, "outcome": 1},
    "outcome-missing": lambda e, i, es: {k: v for k, v in e.items() if k != "outcome"},
}
_VALUE_FAULTS = {
    f"value-{name}": (lambda v: lambda e, i, es: {**e, "value": v})(v)
    for name, v in [("true", True), ("string", "4"), ("none", None), ("nan", float("nan")),
                    ("infinity", float("inf")), ("401-digits", 10**400)]
}
_SECTIONS = {
    "consequence": (lambda: _team_doc(3), "consequence", {**_SUBSET_FAULTS, **_OUTCOME_FAULTS}),
    "team-utilities": (lambda: _team_doc(3), "utilities",
                       {**_SUBSET_FAULTS, **_OUTCOME_FAULTS, **_VALUE_FAULTS}),
    "tu-utilities": (lambda: _tu_doc(3), "utilities",
                     {**_SUBSET_FAULTS, **_VALUE_FAULTS,
                      "outcome-key": lambda e, i, es: {**e, "outcome": "s1"},
                      "empty-subset-worth": lambda e, i, es: {"subset": [], "value": 1.5}}),
}


def _faulty_docs():
    for section_name, (make, section, faults) in _SECTIONS.items():
        size = len(make()[section])
        for fault_name, fault in faults.items():
            for where, i in (("first", 0), ("middle", size // 2), ("last", size - 1)):
                doc = make()
                doc[section][i] = fault(doc[section][i], i, doc[section])
                yield f"{section_name}-{fault_name}-{where}", doc
        # two faults: the lower entry index wins, whichever fault comes first in the list
        names = list(faults)
        for k, (low, high) in enumerate(zip(names, names[1:] + names[:1])):
            doc = make()
            entries = doc[section]
            i, j = 1 + k % 2, size - 1 - k % 2
            entries[j] = faults[high](entries[j], j, entries)
            entries[i] = faults[low](entries[i], i, entries)
            yield f"{section_name}-{low}-before-{high}", doc
    # every consequence fault is reported before any utilities fault
    doc = _team_doc(3)
    doc["utilities"][0] = ["not", "an", "object"]
    doc["consequence"][-1]["outcome"] = "s9"
    yield "consequence-before-utilities", doc


def test_loader_errors_match_reference_loops():
    refused = 0
    for case, doc in _faulty_docs():
        oracle = ref.parse_st if "outcomes" in doc else ref.parse_tu
        expected = _load_result(oracle, copy.deepcopy(doc))
        assert _load_result(parse_document, doc) == expected, case
        refused += isinstance(expected, tuple)
    # only the TU document's first entry, the empty subset worth 0, survives a fault
    assert refused > 150


def _load_text(text):
    return load_game(io.StringIO(text))


@pytest.mark.parametrize("indent", [None, 2])
def test_text_and_tree_read_every_faulty_document_alike(indent):
    """``load_game`` gathers entries while the text decodes, ``parse_document`` from a tree:
    both give the same error at the same location, or the same table."""
    for case, doc in _faulty_docs():
        text = json.dumps(doc, indent=indent)
        assert _load_result(_load_text, text) == _load_result(parse_document, doc), case


def _document_text(pairs, indent=None) -> str:
    """A document's text from its root's (key, value) pairs, which may repeat a key."""
    return "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v, indent=indent)}" for k, v in pairs) + "}"


def _entries_out_of_place():
    """Texts with an entry-shaped object outside the root's sections, sections out of the
    usual order or a section key twice."""
    for make in (lambda: _team_doc(3), lambda: _tu_doc(3)):
        doc = make()
        items, entry = list(doc.items()), dict(doc["utilities"][2])
        yield "root-subset", [("subset", ["p0"]), *items]
        yield "root-subset-last", [*items, ("subset", ["p0"])]
        yield "extra-key-with-entries", [*items, ("spare", doc["utilities"][:2])]
        yield "entry-in-extra-object", [*items, ("spare", {"inner": entry})]
        yield "utilities-before-players", [items[-1], *items[:-1]]
        yield "utilities-twice", [*items, ("utilities", doc["utilities"][:3])]
        yield "utilities-twice-first-empty", [("utilities", []), *items]
        yield "utilities-twice-first-kept", [*items[:-1], ("utilities", doc["utilities"][:3]),
                                             items[-1]]
        yield "entry-as-value", [*items[:-1], ("utilities", [
            *doc["utilities"][:4], {**doc["utilities"][4], "value": entry}])]
        yield "entry-as-outcome", [*items[:-1], ("utilities", [
            *doc["utilities"][:4], {**doc["utilities"][4], "outcome": entry}])]
        yield "entry-as-name", [*items[:-1], ("utilities", [
            *doc["utilities"][:4], {**doc["utilities"][4], "subset": ["p0", entry]}])]
        yield "entry-in-players", [(k, v + [entry] if k == "players" else v) for k, v in items]
        yield "entry-as-version", [("version", entry), *items[1:]]
    doc = _team_doc(3)
    items = [(k, v) for k, v in doc.items() if k != "utilities"]
    yield "consequence-entry-as-outcome", [*items[:-1], ("consequence", [
        {**doc["consequence"][0], "outcome": doc["consequence"][1]}, *doc["consequence"][1:]]),
        ("utilities", doc["utilities"])]
    yield "consequence-twice-first-empty", [("consequence", []), ("utilities", doc["utilities"]),
                                            *items]
    yield "sections-swapped", [*items[:-1], ("utilities", doc["utilities"]), items[-1]]


@pytest.mark.parametrize("indent", [None, 2])
def test_text_with_entries_out_of_place_reads_as_its_tree(indent):
    results = set()
    for case, pairs in _entries_out_of_place():
        text = _document_text(pairs, indent)
        expected = _load_result(parse_document, json.loads(text))
        assert _load_result(_load_text, text) == expected, case
        results.add(isinstance(expected, tuple))
    assert results == {False, True}  # some texts build a game, others are refused


def test_valid_documents_match_reference_loops():
    for doc in (_team_doc(1), _team_doc(4), PRISONERS_DILEMMA):
        game, expected = parse_document(doc), ref.parse_st(doc)
        assert _entries(game) == _entries(expected)
        assert np.array_equal(game._columns, expected._columns)
    for doc in (_tu_doc(1), _tu_doc(5), GLOVE):
        assert parse_document(doc).u.tobytes() == ref.parse_tu(doc).u.tobytes()


def test_each_distinct_subset_is_parsed_once(monkeypatch):
    """The distinct lists of names are parsed in one bulk pass, which the utilities section
    shares with the consequence section; a list is parsed alone only for a faulty entry's
    message."""
    calls, passes = [], []
    parse_subset, parse_all = game_io._parse_subset, game_io._Entries.parse_subsets

    def counting(entry, index, location):
        calls.append(location)
        return parse_subset(entry, index, location)

    def counting_passes(self, index):
        passes.append(self.masks is None)
        return parse_all(self, index)

    monkeypatch.setattr(game_io, "_parse_subset", counting)
    monkeypatch.setattr(game_io._Entries, "parse_subsets", counting_passes)
    doc = _team_doc(10)
    assert len(doc["utilities"]) == 6133
    parse_document(doc)
    assert (calls, passes) == ([], [True, False])
    passes.clear()
    parse_document(_tu_doc(10))
    assert (calls, passes) == ([], [True])
    doc["utilities"][5] = {**doc["utilities"][5], "subset": doc["utilities"][5]["subset"] + ["zed"]}
    with pytest.raises(GameLoadError, match="unknown player 'zed'"):
        parse_document(doc)
    assert calls == ["utilities[5].subset"]


@pytest.mark.parametrize("n", [3, 56, 57, 64])
def test_a_repeated_or_unknown_name_is_named_at_any_team_size(n):
    """Masks past 56 players are built from Python ints, so a list of one name repeated, or
    a name no player has, is still named at its own entry."""
    names = [f"p{i}" for i in range(n)]
    doc = {"version": 1, "players": names, "outcomes": ["x"], "utilities": [],
           "consequence": [{"subset": s, "outcome": "x"} for s in (["p0"], [names[-1]] * 9)]}
    with pytest.raises(GameLoadError, match=rf"^consequence\[1\]\.subset\[1\]: player "
                                            rf"'{names[-1]}' listed twice$"):
        parse_document(doc)
    doc["consequence"][1]["subset"] = [names[-1], "zed"]
    with pytest.raises(GameLoadError, match=r"^consequence\[1\]\.subset\[1\]: unknown player"):
        parse_document(doc)


def test_entry_order_does_not_change_the_game():
    doc = _team_doc(6)
    game = parse_document(doc)
    rng = random.Random(8)
    for section in ("consequence", "utilities"):
        rng.shuffle(doc[section])
    again = parse_document(doc)
    assert _entries(again) == _entries(game)
    assert np.array_equal(again._columns, game._columns)
    doc = _tu_doc(6)
    table = parse_document(doc).u
    rng.shuffle(doc["utilities"])
    assert parse_document(doc).u.tobytes() == table.tobytes()


@pytest.mark.parametrize("value", [2**64 + 1, 2**53 + 1, -(2**63) - 3, 10**300 + 1])
def test_large_integer_values_load_as_their_float(value):
    for doc in (copy.deepcopy(GLOVE), copy.deepcopy(PRISONERS_DILEMMA)):
        entry = doc["utilities"][-1]
        entry["value"] = value
        game = parse_document(doc)
        mask = sum(1 << doc["players"].index(name) for name in entry["subset"])
        if isinstance(game, TUGame):
            got = game.u[mask]
        else:
            got = game.utility_table[mask, entry["outcome"]]
        assert got.hex() == float(value).hex()


# an integer literal past int()'s digit limit (4,300 digits), which json.loads refuses
LONG_LITERAL = "9" * 4301


@pytest.mark.parametrize("sign", ["", "-"])
def test_an_integer_past_the_digit_limit_is_refused_as_one_past_the_float_range(sign):
    """A literal of 310 digits is past the float range and one of 4,301 past ``int()``'s
    digit limit; both are refused as the infinity of their sign, in a utility entry and in a
    Cobb-Douglas parameter."""
    utilities = copy.deepcopy(GLOVE)
    utilities["utilities"][2]["value"] = "literal"
    cobb_douglas = {"version": 1, "cobb_douglas": {"theta": 0.5, "alpha": "literal"}}
    for doc, field in ((utilities, "utilities[2].value"), (cobb_douglas, "cobb_douglas.alpha")):
        def text(digits):
            return json.dumps(doc).replace('"literal"', sign + digits)

        with pytest.raises(GameLoadError) as shorter:
            _load_text(text("9" * 310))
        with pytest.raises(GameLoadError) as longer:
            _load_text(text(LONG_LITERAL))
        assert str(longer.value) == str(shorter.value)
        assert str(longer.value) == f"{field}: value must be finite, got {sign}inf"


@pytest.mark.parametrize("text, error", [
    ('{"version": %s, "players": ["A"], "utilities": []}' % LONG_LITERAL,
     "version: field 'version' must be int, got float"),
    ('{"version": 1, "players": [%s], "utilities": []}' % LONG_LITERAL,
     "players[0]: player names must be nonempty strings"),
    ('{"version": 1, "cobb_douglas": {"beta": %s}}' % LONG_LITERAL,
     "cobb_douglas.beta: value must be finite, got inf"),
    ('{"version": 1, "players": [%s' % LONG_LITERAL,  # the text ends after the literal
     f"line 1, column {len(LONG_LITERAL) + 28}: malformed document: Expecting ',' delimiter"),
], ids=["version", "player", "cobb-beta", "malformed-after"])
def test_an_integer_past_the_digit_limit_names_its_field(text, error):
    with pytest.raises(GameLoadError) as raised:
        _load_text(text)
    assert str(raised.value) == error


def test_a_document_with_an_integer_past_the_digit_limit_elsewhere_loads():
    doc = {**GLOVE, "note": 0}
    text = json.dumps(doc).replace('"note": 0', f'"note": {LONG_LITERAL}')
    assert _load_text(text).u.tobytes() == parse_document(GLOVE).u.tobytes()


@pytest.mark.parametrize("key, i, make", [
    ("players", 1, lambda: copy.deepcopy(GLOVE)),
    ("players", 0, lambda: copy.deepcopy(PRISONERS_DILEMMA)),
    ("outcomes", 1, lambda: copy.deepcopy(PRISONERS_DILEMMA)),
], ids=["tu-player", "team-player", "team-outcome"])
def test_a_name_utf8_cannot_encode_is_refused(key, i, make):
    doc = make()
    doc[key][i] += "\ud800"  # a lone surrogate
    noun = key[:-1]
    error = (f"{key}[{i}]: {noun} {doc[key][i]!r} holds a lone surrogate, which UTF-8 cannot "
             "encode")
    for parse, source in ((parse_document, doc), (_load_text, json.dumps(doc))):
        with pytest.raises(GameLoadError) as raised:
            parse(source)
        assert str(raised.value) == error, parse.__name__


def test_a_game_with_a_name_utf8_cannot_encode_is_not_written(tmp_path):
    path = tmp_path / "g.game"
    with pytest.raises(ValueError, match=r"^player 'B\\ud800': "):
        save_game(TUGame(2, np.array([0.0, 1.0, 1.0, 3.0]), ("A", "B\ud800")), path)
    with pytest.raises(ValueError, match=r"^outcome 'x\\udfff': "):
        save_game(STGame.from_tables(1, ["x\udfff"], {1: "x\udfff"}, {(1, "x\udfff"): 1.0}), path)
    assert not path.exists()


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


def _coalition_document(n: int, rng: random.Random) -> dict:
    """A team document with one outcome per coalition: 3^n - 2^n utility entries, one per
    assessor inside the coalition that produces the outcome."""
    players = [f"p{i}" for i in range(n)]

    def names(mask):
        return [players[i] for i in range(n) if mask >> i & 1]

    coalitions = range(1, 1 << n)
    return {
        "version": 1,
        "players": players,
        "outcomes": [f"o{s}" for s in coalitions],
        "consequence": [{"subset": names(s), "outcome": f"o{s}"} for s in coalitions],
        "utilities": [{"subset": names(a), "outcome": f"o{s}", "value": rng.random()}
                      for s in coalitions for a in range(1, s + 1) if a & s == a],
    }


def test_load_game_frees_the_document_tree_before_building_the_table(tmp_path, monkeypatch):
    """When ``STGame.from_entries`` runs inside ``load_game``, the decoded tree is gone: the
    traced memory then is under half the tree's size above what it was before the load.
    ``parse_document`` on a tree the caller still holds builds an equal game."""
    text = json.dumps(_coalition_document(8, random.Random(8)))
    path = tmp_path / "coalitions.game"
    path.write_text(text, encoding="utf-8")
    build, at_build = STGame.from_entries, []

    def recording(cls, *args):
        at_build.append(tracemalloc.get_traced_memory()[0])
        return build(*args)

    monkeypatch.setattr(STGame, "from_entries", classmethod(recording))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tree = json.loads(text)
        tree_size = tracemalloc.get_traced_memory()[0] - before
        before = tracemalloc.get_traced_memory()[0]
        loaded = load_game(path)
    finally:
        tracemalloc.stop()
    assert len(at_build) == 1
    assert at_build[0] - before < tree_size / 2, (at_build[0] - before, tree_size)
    parsed = parse_document(tree)
    assert (parsed.players, parsed.outcomes) == (loaded.players, loaded.outcomes)
    assert dict(parsed.consequence_table) == dict(loaded.consequence_table)
    assert dict(parsed.utility_table) == dict(loaded.utility_table)
    assert len(loaded.utility_table) == 3**8 - 2**8


def test_load_game_holds_no_tree_of_entries(tmp_path):
    """``load_game`` gathers each entry into columns as the text decodes: its traced peak
    above the text it reads stays under a quarter of the decoded tree's size."""
    text = json.dumps(_coalition_document(8, random.Random(8)))
    path = tmp_path / "coalitions.game"
    path.write_text(text, encoding="utf-8")
    load_game(path)  # imports done before anything is traced
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tree = json.loads(text)
        tree_size = tracemalloc.get_traced_memory()[0] - before
        del tree
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        load_game(path)
        peak = tracemalloc.get_traced_memory()[1] - before - sys.getsizeof(text)
    finally:
        tracemalloc.stop()
    assert peak < tree_size / 4, (peak, tree_size)


def test_save_game_writes_the_text_of_the_document(tmp_path):
    """``save_game`` streams the document as it is encoded: the bytes are those of the
    whole indented text, with a final newline."""
    names = {"version": 1, "players": ["Zoë", "B"],
             "utilities": [{"subset": ["Zoë"], "value": 1}, {"subset": ["B"], "value": 0.5},
                           {"subset": ["Zoë", "B"], "value": 2.25}]}
    games = [parse_document(GLOVE), parse_document(names), parse_document(PRISONERS_DILEMMA),
             parse_document(_team_doc(4)), CobbDouglasConfig(theta=0.5, alpha=2.0, beta=2.5)]
    for k, game in enumerate(games):
        path = tmp_path / f"{k}.game"
        save_game(game, path)
        text = json.dumps(document_for(game), indent=2) + "\n"
        assert path.read_bytes() == text.encode("utf-8"), k


def test_tu_round_trip(tmp_path):
    first = parse_document(GLOVE)
    path = tmp_path / "glove.game"
    save_game(first, path)
    second = load_game(path)
    assert second.players == first.players
    assert list(second.u) == list(first.u)


def test_games_with_unreadable_names_are_not_written(tmp_path):
    from random_games import random_additive_game

    game = random_additive_game(3, np.random.default_rng(5))
    assert not isinstance(game.outcomes[0], str)
    path = tmp_path / "additive.game"
    with pytest.raises(ValueError, match=rf"^outcome {game.outcomes[0]!r}: "):
        save_game(game, path)
    assert not path.exists()
    # string outcome ids still round-trip
    renamed = STGame.from_tables(
        3, [f"o{x}" for x in game.outcomes],
        {mask: f"o{x}" for mask, x in game.consequence_table.items()},
        {(mask, f"o{x}"): v for (mask, x), v in game.utility_table.items()},
    )
    save_game(renamed, path)
    again = load_game(path)
    assert again.outcomes == renamed.outcomes
    assert dict(again.consequence_table) == dict(renamed.consequence_table)
    assert dict(again.utility_table) == dict(renamed.utility_table)
    # so do the players, and neither may repeat a name
    with pytest.raises(ValueError, match=r"^outcome 'o1': "):
        document_for(STGame.from_tables(1, ["o1", "o1"], {1: "o1"}, {(1, "o1"): 1.0}))
    for players, bad in (((1, 2), 1), (("a", ""), ""), (("a", "a"), "a")):
        with pytest.raises(ValueError, match=rf"^player {bad!r}: "):
            document_for(TUGame(2, np.array([0.0, 1.0, 1.0, 3.0]), players))


def test_functional_games_round_trip(tmp_path):
    """Every team game is a table, so a game over callables round-trips too: its document
    holds every stored cell, and both tables come back equal."""
    outcomes = ("alone", "pair", "all")
    game = STGame.from_functions(
        3, outcomes, lambda s: outcomes[len(s) - 1],
        lambda a, x: len(a) * (outcomes.index(x) + 0.5) - 0.25 * (0 in a), ("x", "y", "z"))
    path = tmp_path / "functional.game"
    save_game(game, path)
    again = load_game(path)
    assert (again.players, again.outcomes) == (game.players, game.outcomes)
    assert dict(again.consequence_table) == dict(game.consequence_table)
    assert dict(again.utility_table) == dict(game.utility_table)
    assert len(game.utility_table) == 3 * 7


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


# pieces of text cells: each character csv quoting looks at, spaces and the empty string
PIECES = [",", '"', "\n", "\r", " ", "", "a", "b c", "\r\n", "é"]


def _text(rng):
    return "".join(rng.choice(PIECES) for _ in range(rng.randrange(4)))


def _random_column(rng, count):
    kind = rng.randrange(9)
    floats = [0.0, -0.0, 0.1, -2.5, 1e300, 5e-324, float("nan"), float("inf"), float("-inf")]
    if kind == 0:
        return np.array([rng.choice(floats) for _ in range(count)])
    if kind == 1:
        return np.array([rng.randrange(-5, 5) for _ in range(count)], dtype=np.int64)
    if kind == 2:
        return np.array([rng.random() < 0.5 for _ in range(count)])
    if kind == 3:
        return np.array([_text(rng) for _ in range(count)], dtype=str)
    if kind == 4:
        return [_text(rng) for _ in range(count)]
    if kind == 5:
        mixed = [True, False, np.True_, 0, 7, None, -0.0, 2.5, np.float64(-0.0)]
        return [rng.choice(mixed + [_text(rng)]) for _ in range(count)]
    if kind == 6:
        return [_text(rng)] * count
    if kind == 7:
        return np.full(count, rng.choice(floats))
    return np.array([rng.choice(floats[:4]) for _ in range(count)], dtype=np.float32)


@pytest.mark.parametrize("seed", range(60))
def test_write_table_matches_csv_writer(tmp_path, seed):
    rng = random.Random(seed)
    columns = list(dict.fromkeys(_text(rng) for _ in range(rng.randrange(1, 5))))
    counts = [rng.choice([0, 1, 2, rng.randrange(60), ROW_CHUNK + 3])
              for _ in range(rng.randrange(1, 4))]
    tables = [{c: _random_column(rng, count) for c in columns} for count in counts]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    assert write_table(tables, columns, got) == ref.write_table(tables, columns, want)
    assert got.read_bytes() == want.read_bytes()


SPAN = ROW_CHUNK + 3  # two slices: a full one and three rows


def _fixed_columns():
    """Columns of every kind the writer formats, constant or not across the slice boundary."""
    columns = {f"float64-constant-{v!r}": np.full(SPAN, v)
               for v in (0.0, -0.0, float("nan"), float("inf"), 5e-324)}
    columns["float64-constant-first-slice"] = np.concatenate([np.zeros(ROW_CHUNK),
                                                              [1.0, 0.0, -0.0]])
    columns.update({
        "bool-constant": np.ones(SPAN, dtype=bool),
        "bool-varying": np.arange(SPAN) % 3 == 0,
        "int64-constant-small": np.full(SPAN, 7, dtype=np.int64),
        "int64-constant-large": np.full(SPAN, 10**12, dtype=np.int64),
        "int64-varying": np.arange(SPAN, dtype=np.int64) - 500,
        "float32": np.resize(np.array([0.1, -0.0, 2.5, np.nan, np.inf], dtype=np.float32), SPAN),
        "object-strings": np.resize(np.array(["a,b", 'q"t', "x\ny", "plain"], dtype=object), SPAN),
        # one str object in every cell; np.full would convert it to a new one per cell
        "object-constant": np.array(['say "hi", then\nleave'] * SPAN, dtype=object),
        "empty-strings-list": [""] * SPAN,
        # lists of Python floats only, of strings only, and of floats mixed with None
        "float-list": ([0.1, -0.0, float("nan"), float("inf"), 5e-324, 1e22] * SPAN)[:SPAN],
        "string-list": (["a,b", 'q"t', "x\ny", "plain", ""] * SPAN)[:SPAN],
        "float-none-list": ([0.5, None, -0.0] * SPAN)[:SPAN],
        "empty-strings-object": np.array([""] * SPAN, dtype=object),
        "empty-strings-str": np.full(SPAN, "", dtype=str),
    })
    return columns


FIXED_COLUMNS = _fixed_columns()


@pytest.mark.parametrize("kind", FIXED_COLUMNS)
def test_write_table_matches_csv_writer_at_every_column_kind(tmp_path, kind):
    column = FIXED_COLUMNS[kind]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    # alone (a row of one empty field is written ""), then beside a varying float column
    for tables, columns in (([{"c": column}], ["c"]),
                            ([{"c": column, "x": np.arange(SPAN) / 4}], ["x", "c"])):
        assert write_table(tables, columns, got) == ref.write_table(tables, columns, want) == SPAN
        assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("name", ["", "x", "a,b", '"'])
def test_write_table_one_column_matches_csv_writer(tmp_path, name):
    # csv.writer writes a row of one empty field as "", so it is not a blank line
    cells = ["", "x", "", " ", "\r", 'q"', "", None, True, -0.0]
    tables = [{name: cells}, {name: [""] * 3}, {name: np.array(["", "y", ""])},
              {name: np.array([-0.0, 1.0])}]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    assert write_table(tables, [name], got) == ref.write_table(tables, [name], want) == 18
    assert got.read_bytes() == want.read_bytes()


def test_write_table_without_columns_matches_csv_writer(tmp_path):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    assert write_table([{}, {"x": [1]}], [], got) == ref.write_table([{}], [], want) == 0
    assert got.read_bytes() == want.read_bytes() == b"\n"


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


def test_a_document_write_that_fails_midway_leaves_the_file_as_it_was(tmp_path, monkeypatch):
    path = tmp_path / "out.game"
    path.write_bytes(b"earlier\n")
    # json.dump refuses the last value once it has written the rest
    doc = {**document_for(parse_document(GLOVE)), "late": object()}
    monkeypatch.setattr(game_io, "document_for", lambda game: doc)
    with pytest.raises(TypeError, match="not JSON serializable"):
        save_game(None, path)
    assert path.read_bytes() == b"earlier\n"
    assert list(tmp_path.iterdir()) == [path]


def test_an_edges_write_that_fails_midway_leaves_the_file_as_it_was(tmp_path):
    class Graph:  # its last line holds a lone surrogate, which UTF-8 cannot encode
        def to_lines(self):
            return ["0 0 0.5", "0 1 \ud800"]

    path = tmp_path / "out.edges"
    path.write_bytes(b"earlier\n")
    with pytest.raises(UnicodeEncodeError):
        write_edges(Graph(), path)
    assert path.read_bytes() == b"earlier\n"
    assert list(tmp_path.iterdir()) == [path]


def test_unwritable_path_raises(tmp_path):
    with pytest.raises(OSError):
        write_table([], ["a"], tmp_path / "missing-dir" / "out.csv")
