"""Loading and storing game documents and analysis tables.

Game documents are JSON trees with extension ``.game``. Subsets appear as
arrays of player names (serialized in declaration order), never as masks,
so documents stay hand-editable; masks are built at load time. Three
document kinds share the envelope:

* team games: ``players``, ``outcomes``, ``consequence`` (one entry per
  nonempty subset), ``utilities`` (entries keyed by subset and outcome);
* TU games: ``players`` and ``utilities`` keyed by subset only, one entry
  per nonempty subset, with the empty subset implicitly (or explicitly)
  worth 0;
* Cobb-Douglas games: a ``cobb_douglas`` parameter block.

Every validation failure names the offending field; syntax errors carry the
line and column. Tables are written as UTF-8 CSV with a header row and
full-precision (shortest round-trip) decimals, and graph exports as
``src dst weight`` edge-list lines, so repeated runs are byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from pathlib import Path

import numpy as np

from .additivity import PerceptionGraph
from .cobb import CobbDouglasConfig
from .errors import GameLoadError, SizeLimitError
from .players import MAX_SUBSET_ARRAY, PlayerSet
from .st import STGame
from .tu import TUGame

DOCUMENT_VERSION = 1
COBB_KEYS = ("theta", "alpha", "beta")
ROW_CHUNK = 4096  # table rows turned into Python cells at a time, so cells stay few


def _require(doc: dict, key: str, kind, location: str):
    if key not in doc:
        raise GameLoadError(f"missing required field {key!r}", location)
    value = doc[key]
    # JSON true and false are Python bools, which are ints too
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise GameLoadError(
            f"field {key!r} must be {getattr(kind, '__name__', kind)}, got {type(value).__name__}",
            location,
        )
    return value


def _parse_players(doc: dict) -> list[str]:
    players = _require(doc, "players", list, "players")
    if not players:
        raise GameLoadError("at least one player is required", "players")
    seen = set()
    for i, name in enumerate(players):
        if not isinstance(name, str) or not name:
            raise GameLoadError("player names must be nonempty strings", f"players[{i}]")
        if name in seen:
            raise GameLoadError(f"duplicate player {name!r}", f"players[{i}]")
        seen.add(name)
    return players


def _parse_subset(entry, index: dict[str, int], location: str) -> int:
    if not isinstance(entry, list):
        raise GameLoadError("subset must be an array of player names", location)
    mask = 0
    for j, name in enumerate(entry):
        try:
            bit = 1 << index[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name, such as an array
            raise GameLoadError(f"unknown player {name!r}", f"{location}[{j}]") from None
        if mask & bit:
            raise GameLoadError(f"player {name!r} listed twice", f"{location}[{j}]")
        mask |= bit
    return mask


def _player_index(players: list[str]) -> dict[str, int]:
    return {name: i for i, name in enumerate(players)}


def _parse_value(entry, location: str) -> float:
    if isinstance(entry, bool) or not isinstance(entry, (int, float)):
        raise GameLoadError(f"value must be a number, got {entry!r}", location)
    try:
        value = float(entry)
    except OverflowError:  # an integer past the float range
        value = math.inf
    if not math.isfinite(value):
        raise GameLoadError(f"value must be finite, got {value!r}", location)
    return value


def parse_document(doc: dict):
    """Validate a document tree and build the game it describes."""
    if not isinstance(doc, dict):
        raise GameLoadError("document root must be an object", "$")
    version = _require(doc, "version", int, "version")
    if version != DOCUMENT_VERSION:
        raise GameLoadError(f"unsupported document version {version}", "version")

    if "cobb_douglas" in doc:
        return _parse_cobb(doc)
    if "outcomes" in doc or "consequence" in doc:
        return _parse_st(doc)
    return _parse_tu(doc)


def _parse_cobb(doc: dict) -> CobbDouglasConfig:
    block = _require(doc, "cobb_douglas", dict, "cobb_douglas")
    for key in block:
        if key not in COBB_KEYS:
            raise GameLoadError(f"unknown parameter {key!r}", f"cobb_douglas.{key}")
    params = {key: _parse_value(value, f"cobb_douglas.{key}") for key, value in block.items()}
    try:
        return CobbDouglasConfig(**params)
    except ValueError as exc:
        raise GameLoadError(str(exc), "cobb_douglas") from None


def _parse_tu(doc: dict) -> TUGame:
    players = _parse_players(doc)
    n = len(players)
    if n > MAX_SUBSET_ARRAY:
        raise GameLoadError(f"TU games support 1..{MAX_SUBSET_ARRAY} players, got {n}", "players")
    index = _player_index(players)
    entries = _require(doc, "utilities", list, "utilities")
    table = np.zeros(1 << n)
    seen: dict[int, int] = {}
    for i, entry in enumerate(entries):
        loc = f"utilities[{i}]"
        if not isinstance(entry, dict):
            raise GameLoadError("utility entry must be an object", loc)
        if "outcome" in entry:
            raise GameLoadError(
                "TU utility entries carry no outcome (did you mean a team-game document "
                "with an outcomes section?)",
                f"{loc}.outcome",
            )
        mask = _parse_subset(entry.get("subset"), index, f"{loc}.subset")
        value = _parse_value(entry.get("value"), f"{loc}.value")
        if mask in seen:
            raise GameLoadError(
                f"duplicate entry for subset (also at utilities[{seen[mask]}])", f"{loc}.subset"
            )
        if mask == 0 and value != 0.0:
            raise GameLoadError("the empty coalition must be worth 0", f"{loc}.value")
        seen[mask] = i
        table[mask] = value
    for mask in range(1, 1 << n):
        if mask not in seen:
            names = [players[i] for i in PlayerSet(mask)]
            raise GameLoadError(f"no utility entry for subset {names}", "utilities")
    return TUGame(n, table, tuple(players))


def _parse_st(doc: dict) -> STGame:
    players = _parse_players(doc)
    n = len(players)
    index = _player_index(players)
    outcomes = _require(doc, "outcomes", list, "outcomes")
    if not outcomes:
        raise GameLoadError("at least one outcome is required", "outcomes")
    column_of: dict[str, int] = {}
    for i, outcome in enumerate(outcomes):
        if not isinstance(outcome, str) or not outcome:
            raise GameLoadError("outcome ids must be nonempty strings", f"outcomes[{i}]")
        if outcome in column_of:
            raise GameLoadError(f"duplicate outcome {outcome!r}", f"outcomes[{i}]")
        column_of[outcome] = i

    # coalition mask -> (entry position, outcome column); sized by the document,
    # so coverage is settled before anything of size 2^n is allocated
    cons_entries = _require(doc, "consequence", list, "consequence")
    consequence: dict[int, tuple[int, int]] = {}
    for i, entry in enumerate(cons_entries):
        loc = f"consequence[{i}]"
        if not isinstance(entry, dict):
            raise GameLoadError("consequence entry must be an object", loc)
        mask = _parse_subset(entry.get("subset"), index, f"{loc}.subset")
        if mask == 0:
            raise GameLoadError("the empty coalition has no consequence entry", f"{loc}.subset")
        outcome = entry.get("outcome")
        if not isinstance(outcome, str) or outcome not in column_of:
            raise GameLoadError(f"undeclared outcome {outcome!r}", f"{loc}.outcome")
        if mask in consequence:
            raise GameLoadError(
                f"duplicate consequence for subset (also at consequence[{consequence[mask][0]}])",
                f"{loc}.subset",
            )
        consequence[mask] = (i, column_of[outcome])
    if len(consequence) < (1 << n) - 1:
        mask = next(m for m in range(1, 1 << n) if m not in consequence)
        names = [players[i] for i in PlayerSet(mask)]
        raise GameLoadError(f"no consequence entry for subset {names}", "consequence")
    columns = np.zeros(1 << n, dtype=np.intp)
    columns[list(consequence)] = [col for _, col in consequence.values()]

    util_entries = _require(doc, "utilities", list, "utilities")
    assessors, positions, values = array("q"), array("q"), array("d")
    seen: set[int] = set()  # mask * len(outcomes) + column of every entry so far
    for i, entry in enumerate(util_entries):
        loc = f"utilities[{i}]"
        if not isinstance(entry, dict):
            raise GameLoadError("utility entry must be an object", loc)
        mask = _parse_subset(entry.get("subset"), index, f"{loc}.subset")
        if mask == 0:
            raise GameLoadError("the empty subset assesses nothing", f"{loc}.subset")
        outcome = entry.get("outcome")
        if not isinstance(outcome, str) or outcome not in column_of:
            raise GameLoadError(f"undeclared outcome {outcome!r}", f"{loc}.outcome")
        value = _parse_value(entry.get("value"), f"{loc}.value")
        col = column_of[outcome]
        key = mask * len(outcomes) + col
        if key in seen:
            first = next(j for j in range(i) if assessors[j] == mask and positions[j] == col)
            raise GameLoadError(
                f"duplicate utility for (subset, outcome) (also at utilities[{first}])", loc
            )
        seen.add(key)
        assessors.append(mask)
        positions.append(col)
        values.append(value)
    del seen  # freed before the table is allocated
    try:
        return STGame.from_entries(
            n, tuple(outcomes), columns, assessors, positions, values, tuple(players)
        )
    except SizeLimitError as exc:
        raise GameLoadError(str(exc), "outcomes") from None
    except ValueError as exc:
        raise GameLoadError(str(exc), "utilities") from None


def load_game(source):
    """Load a game document from a path or open text stream."""
    try:
        text = source.read() if hasattr(source, "read") else Path(source).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GameLoadError(f"not UTF-8 text ({exc.reason})", f"byte {exc.start}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameLoadError(
            f"malformed document: {exc.msg}", f"line {exc.lineno}, column {exc.colno}"
        ) from None
    except RecursionError:
        raise GameLoadError("malformed document: nested too deeply", "$") from None
    return parse_document(doc)


def _subset_names(mask: int, players) -> list[str]:
    return [players[i] for i in PlayerSet(mask)]


def document_for(game) -> dict:
    """Document tree for a game; inverse of :func:`parse_document`."""
    if isinstance(game, TUGame):
        return {
            "version": DOCUMENT_VERSION,
            "players": list(game.players),
            "utilities": [
                {"subset": _subset_names(mask, game.players), "value": float(game.u[mask])}
                for mask in range(1, 1 << game.n)
            ],
        }
    if isinstance(game, STGame):
        consequence, utilities = game.consequence_table, game.utility_table
        if consequence is None or utilities is None:
            raise ValueError("only tabulated team games can be serialized")
        return {
            "version": DOCUMENT_VERSION,
            "players": list(game.players),
            "outcomes": list(game.outcomes),
            "consequence": [
                {
                    "subset": _subset_names(mask, game.players),
                    "outcome": consequence[mask],
                }
                for mask in range(1, 1 << game.n)
            ],
            "utilities": [
                {"subset": _subset_names(mask, game.players), "outcome": outcome, "value": float(v)}
                for (mask, outcome), v in sorted(
                    utilities.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
                )
            ],
        }
    if isinstance(game, CobbDouglasConfig):
        block = {key: getattr(game, key) for key in COBB_KEYS}
        return {"version": DOCUMENT_VERSION, "cobb_douglas": block}
    raise TypeError(f"cannot serialize {type(game).__name__}")


def save_game(game, path) -> None:
    Path(path).write_text(json.dumps(document_for(game), indent=2) + "\n", encoding="utf-8")


def format_cell(value) -> str:
    """Full-precision, deterministic text for one table cell.

    numpy floats and bools print like their Python counterparts.
    """
    if isinstance(value, float):
        # float.__repr__, not repr: numpy 2 spells repr(np.float64(0.1)) 'np.float64(0.1)'
        return float.__repr__(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


def write_table(tables, columns, path) -> int:
    """Write column tables one after another as UTF-8 CSV with a header row.

    A table maps every name in ``columns`` to an equal-length sequence (a
    numpy array or a list) holding that column's cells in row order. Every
    table is checked before the file is opened, cells are formatted
    ``ROW_CHUNK`` rows at a time and every line ends in a newline, so
    identical inputs produce identical bytes. Returns the number of rows
    written.
    """
    columns = list(columns)
    tables = list(tables)
    for i, table in enumerate(tables):
        missing = [c for c in columns if c not in table]
        if missing:
            raise ValueError(f"table {i} is missing columns {missing}")
        lengths = sorted({len(table[c]) for c in columns})
        if len(lengths) > 1:
            raise ValueError(f"table {i} has columns of unequal lengths {lengths}")
    rows = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for table in tables:
            cols = [table[c] for c in columns]
            count = len(cols[0]) if cols else 0
            for lo in range(0, count, ROW_CHUNK):
                cells = [c[lo:lo + ROW_CHUNK] for c in cols]
                # tolist gives Python floats and bools, which format_cell spells fastest
                cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in cells]
                writer.writerows(zip(*(map(format_cell, col) for col in cells)))
            rows += count
    return rows


def write_edges(graph: PerceptionGraph, path) -> None:
    """Serialize a perception graph as ``src dst weight`` lines."""
    Path(path).write_text("\n".join(graph.to_lines()) + "\n", encoding="utf-8")
