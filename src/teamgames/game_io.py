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

Loading holds no tree of entry objects: ``load_game`` gathers each entry
into flat columns (an id for its list of names, an id for its outcome, its
raw value) while ``json.loads`` decodes it, and ``parse_document`` gathers
the sections of a caller's tree into the same columns, so one set of checks
serves both. Every validation failure names the offending field; syntax
errors carry the line and column. Tables are written as UTF-8 CSV with a header row and
full-precision (shortest round-trip) decimals, and graph exports as
``src dst weight`` edge-list lines, so repeated runs are byte-identical.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import GameLoadError, SizeLimitError
from .limits import MAX_SUBSET_ARRAY

if TYPE_CHECKING:  # each game kind's module, and numpy, is imported by the code that uses it
    import numpy as np

    from .additivity import PerceptionGraph
    from .cobb_params import CobbDouglasConfig
    from .st import STGame
    from .tu import TUGame

DOCUMENT_VERSION = 1
COBB_KEYS = ("theta", "alpha", "beta")
ROW_CHUNK = 1024  # rows formatted and joined into one text at a time, few to keep the peak low


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


def _parse_names(doc: dict, key: str, noun: str, names: str) -> dict[str, int]:
    """Position of each name in ``doc[key]``, a nonempty list of distinct nonempty strings."""
    items = _require(doc, key, list, key)
    if not items:
        raise GameLoadError(f"at least one {noun} is required", key)
    index: dict[str, int] = {}
    for i, name in enumerate(items):
        if not isinstance(name, str) or not name:
            raise GameLoadError(f"{names} must be nonempty strings", f"{key}[{i}]")
        if name in index:
            raise GameLoadError(f"duplicate {noun} {name!r}", f"{key}[{i}]")
        index[name] = i
    return index


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


def _as_float(value) -> float:
    try:
        return float(value)
    except OverflowError:  # an integer past the float range
        return math.inf


def _parse_value(entry, location: str) -> float:
    if isinstance(entry, bool) or not isinstance(entry, (int, float)):
        raise GameLoadError(f"value must be a number, got {entry!r}", location)
    value = _as_float(entry)
    if not math.isfinite(value):
        raise GameLoadError(f"value must be finite, got {value!r}", location)
    return value


def _first(flags: np.ndarray) -> int:
    """Index of the first set flag, or the length of ``flags`` when none is set."""
    return int(flags.argmax()) if flags.any() else len(flags)


_KINDS = {  # per section kind: entry noun, empty-subset error (None: allowed), repeated entry
    "consequence": ("consequence", "the empty coalition has no consequence entry",
                    "consequence for subset"),
    "utilities": ("utility", "the empty subset assesses nothing", "utility for (subset, outcome)"),
    "tu": ("utility", None, "entry for subset"),
}
_SECTIONS = ("consequence", "utilities")  # the root's lists of entries
_MISSING = object()  # the outcome of an entry that has none
_ENTRY, _FIRST = object(), object()  # a gathered entry's place; _FIRST is the first one's


class _Entries:
    """The entries of a document gathered into columns, one row per entry in the order met.

    :attr:`gather` keeps an entry-shaped object as a row and returns a marker in its place:
    a dict whose ``subset`` is a list of hashable names and whose ``outcome`` is absent or a
    string. A row holds the id of its list of names, the id of its outcome and its raw value,
    so the object and its list are freed at once when ``json.loads`` calls it as its
    ``object_hook``. Other objects come back unchanged. ``sections`` maps each section of
    the root to its list with markers, its first row and its number of rows.
    """

    def __init__(self):
        self.subsets: dict[tuple, int] = {}  # list of names -> id, in first-seen order
        self.outcomes: dict = {_MISSING: 0}  # outcome -> id
        self.ids, self.oids, self.values = [], [], []  # per row
        self.sections: dict[str, tuple[list, int, int]] = {}
        self.masks: dict[int, int] | None = None  # mask -> id, once the subsets are parsed
        self.mask_ids: np.ndarray | None = None  # subset id -> mask id (-1: no set of players)
        self.gather = self._gatherer()

    def _gatherer(self):
        subsets, outcomes, ids, oids, values = (
            self.subsets, self.outcomes, self.ids, self.oids, self.values)
        last, last_id = None, 0

        def gather(obj):
            nonlocal last, last_id
            subset = obj.get("subset")
            if not isinstance(subset, list):
                return obj
            try:
                oid = outcomes.get(outcome := obj.get("outcome", _MISSING))
            except TypeError:  # an unhashable outcome, such as an array
                return obj
            if oid is None:
                if not isinstance(outcome, str):
                    return obj
                oid = outcomes[outcome] = len(outcomes)
            if subset != last:  # most documents repeat a subset in a row
                try:
                    last_id = subsets.get(key := tuple(subset))
                except TypeError:  # an unhashable name
                    return obj
                if last_id is None:
                    last_id = subsets[key] = len(subsets)
                last = subset
            marker = _ENTRY if values else _FIRST
            ids.append(last_id)
            oids.append(oid)
            values.append(obj.get("value"))
            return marker

        return gather

    def locate(self, doc) -> bool:
        """Find the rows of a tree decoded through :attr:`gather` in its sections. False when
        a row lies elsewhere: on the root, inside another entry, under another or a repeated
        key; the sections then hold fewer markers than there are rows."""
        found = []
        if isinstance(doc, dict):
            for name in _SECTIONS:
                items = doc.get(name)
                if isinstance(items, list):
                    first = next((e for e in items if e is _ENTRY or e is _FIRST), None) is _FIRST
                    found.append((name, items, items.count(_ENTRY) + first, first))
        if sum(count for _, _, count, _ in found) != len(self.values):
            return False
        start = 0  # a section's rows are contiguous, and the first row's section came first
        for name, items, count, _ in sorted(found, key=lambda f: not f[3]):
            self.sections[name] = items, start, count
            start += count
        return True

    def gather_sections(self, doc) -> None:
        """Gather the entries of each section of a caller's tree into new lists; the tree is
        not changed."""
        if isinstance(doc, dict):
            for name in _SECTIONS:
                items = doc.get(name)
                if isinstance(items, list):
                    start = len(self.values)
                    items = [self.gather(e) if isinstance(e, dict) else e for e in items]
                    self.sections[name] = items, start, len(self.values) - start

    def parse_subsets(self, index, location: str) -> np.ndarray:
        """:attr:`mask_ids`, each list of names parsed once however many entries repeat it."""
        import numpy as np

        if self.masks is None:
            self.masks, ids = {}, []
            for names in self.subsets:
                try:
                    mask = _parse_subset(list(names), index, location)
                except GameLoadError:
                    ids.append(-1)
                else:
                    ids.append(self.masks.setdefault(mask, len(self.masks)))
            self.mask_ids = np.array(ids, dtype=np.int64)
        return self.mask_ids

    def entry(self, row: int) -> dict:
        """The entry of a row, as its checks read it."""
        entry = {"subset": list(list(self.subsets)[self.ids[row]]), "value": self.values[row]}
        outcome = list(self.outcomes)[self.oids[row]]
        if outcome is not _MISSING:
            entry["outcome"] = outcome
        return entry

    def clear(self) -> None:
        """Free the rows and the lists with markers once every section is read."""
        for items, _, _ in self.sections.values():
            items.clear()
        del self.ids[:], self.oids[:], self.values[:]


def _entry_fault(kind: str, section: str, i: int, entry, index, column_of, earlier: int):
    """Raise the error of entry i, its section's first fault; its key first came at ``earlier``."""
    noun, empty, repeat = _KINDS[kind]
    loc = f"{section}[{i}]"
    if not isinstance(entry, dict):
        raise GameLoadError(f"{noun} entry must be an object", loc)
    if kind == "tu" and "outcome" in entry:
        raise GameLoadError("TU utility entries carry no outcome (did you mean a team-game "
                            "document with an outcomes section?)", f"{loc}.outcome")
    mask = _parse_subset(entry.get("subset"), index, f"{loc}.subset")
    if mask == 0 and empty:
        raise GameLoadError(empty, f"{loc}.subset")
    outcome = entry.get("outcome")
    if column_of is not None and (not isinstance(outcome, str) or outcome not in column_of):
        raise GameLoadError(f"undeclared outcome {outcome!r}", f"{loc}.outcome")
    value = _parse_value(entry.get("value"), f"{loc}.value") if noun == "utility" else None
    if earlier < i:
        where = loc if kind == "utilities" else f"{loc}.subset"
        raise GameLoadError(f"duplicate {repeat} (also at {section}[{earlier}])", where)
    if mask == 0 and value != 0.0:
        raise GameLoadError("the empty coalition must be worth 0", f"{loc}.value")
    raise AssertionError(f"{loc}: flagged entry passed every check")


def _read_section(doc: dict, entries: _Entries, kind: str, index, column_of):
    """Mask ids (into ``entries.masks``), outcome columns and values of the rows of a
    ``consequence``, ``utilities`` or ``tu`` section, read up to its first entry that was
    not gathered or has a bad subset or outcome. Values and repeats are checked in bulk; the
    lowest faulty entry raises through :func:`_entry_fault`."""
    import numpy as np

    section = "consequence" if kind == "consequence" else "utilities"
    _require(doc, section, list, section)
    items, start, count = entries.sections[section]
    stop = count if count == len(items) else next(
        i for i, e in enumerate(items) if e is not _ENTRY and e is not _FIRST)
    rows = slice(start, start + stop)
    ids = entries.parse_subsets(index, section)[np.array(entries.ids[rows], dtype=np.int64)]
    bad = ids < 0
    if _KINDS[kind][1]:
        bad |= ids == entries.masks.get(0, -1)
    cols = np.array(entries.oids[rows], dtype=np.int64)  # outcome ids, then columns
    if column_of is None:
        bad |= cols != 0  # an outcome in a TU entry
    else:
        cols = np.array([column_of.get(o, -1) for o in entries.outcomes], dtype=np.int64)[cols]
        bad |= cols < 0
    end = _first(bad)
    ids, cols = ids[:end], cols[:end]
    keys = ids * len(column_of) + cols if kind == "utilities" else ids
    repeat = np.ones(end, dtype=bool)
    repeat[np.unique(keys, return_index=True)[1]] = False
    faults = [end, _first(repeat)]
    values = None
    if kind != "consequence":
        raw = entries.values[start:start + end]
        types = set(map(type, raw))
        numbers = {t for t in types if issubclass(t, (int, float)) and t is not bool}
        if numbers != types:  # cut at the first value that is not a number
            raw = raw[:_first(~np.fromiter(map(numbers.__contains__, map(type, raw)), bool, len(raw)))]
        try:
            values = np.array(raw, dtype=np.float64)
        except OverflowError:  # an integer past the float range
            values = np.fromiter(map(_as_float, raw), np.float64, len(raw))
        faults.append(_first(~np.isfinite(values)))
        empty = ids[:len(values)] == entries.masks.get(0, -1)  # only a TU document lists it
        faults.append(_first(empty & (values != 0.0)))
    i = min(faults)
    if i < len(items):
        earlier = _first(keys[:i] == keys[i]) if i < end else i
        entry = entries.entry(start + i) if i < stop else items[i]
        _entry_fault(kind, section, i, entry, index, column_of, earlier)
    return ids, cols, values


def _require_every_subset(entries: _Entries, ids, n: int, players, what: str,
                          section: str) -> np.ndarray:
    """The masks by id, once the masks of ``ids`` hold every nonempty subset; n is bounded
    from here on."""
    import numpy as np

    masks = list(entries.masks)
    present = {masks[i] for i in np.flatnonzero(np.bincount(ids, minlength=len(masks))).tolist()}
    if len(present - {0}) < (1 << n) - 1:
        mask = next(m for m in range(1, 1 << n) if m not in present)
        raise GameLoadError(f"no {what} entry for subset {_subset_names(mask, players)}", section)
    return np.array(masks, dtype=np.int64)


def _read(doc, entries: _Entries):
    """Validate a document tree whose sections ``entries`` gathered and build its game."""
    if not isinstance(doc, dict):
        raise GameLoadError("document root must be an object", "$")
    version = _require(doc, "version", int, "version")
    if version != DOCUMENT_VERSION:
        raise GameLoadError(f"unsupported document version {version}", "version")

    if "cobb_douglas" not in doc and ("outcomes" in doc or "consequence" in doc):
        return _read_st(doc, entries)
    return _parse_cobb(doc) if "cobb_douglas" in doc else _parse_tu(doc, entries)


def parse_document(doc: dict):
    """Validate a document tree and build the game it describes. Each section's entries are
    gathered as :func:`load_game` gathers them while it decodes, into new lists: the
    caller's tree is not changed, and it stays alive while a team game's table is built."""
    entries = _Entries()
    entries.gather_sections(doc)
    return _read(doc, entries)


def _parse_cobb(doc: dict) -> CobbDouglasConfig:
    from .cobb_params import CobbDouglasConfig

    block = _require(doc, "cobb_douglas", dict, "cobb_douglas")
    for key in block:
        if key not in COBB_KEYS:
            raise GameLoadError(f"unknown parameter {key!r}", f"cobb_douglas.{key}")
    params = {key: _parse_value(value, f"cobb_douglas.{key}") for key, value in block.items()}
    try:
        return CobbDouglasConfig(**params)
    except ValueError as exc:
        raise GameLoadError(str(exc), "cobb_douglas") from None


def _parse_tu(doc: dict, entries: _Entries) -> TUGame:
    import numpy as np

    from .tu import TUGame

    index = _parse_names(doc, "players", "player", "player names")
    players, n = list(index), len(index)
    if n > MAX_SUBSET_ARRAY:
        raise GameLoadError(f"TU games support 1..{MAX_SUBSET_ARRAY} players, got {n}", "players")
    ids, _, values = _read_section(doc, entries, "tu", index, None)
    table = np.zeros(1 << n)
    table[_require_every_subset(entries, ids, n, players, "utility", "utilities")[ids]] = values
    return TUGame(n, table, tuple(players))


def _read_st(doc: dict, entries: _Entries) -> STGame:
    import numpy as np

    index = _parse_names(doc, "players", "player", "player names")
    players, n = tuple(index), len(index)
    column_of = _parse_names(doc, "outcomes", "outcome", "outcome ids")
    # coverage is settled before any 2^n allocation
    ids, cols, _ = _read_section(doc, entries, "consequence", index, column_of)
    masks = _require_every_subset(entries, ids, n, players, "consequence", "consequence")
    columns = np.zeros(1 << n, dtype=np.intp)
    columns[masks[ids]] = cols
    ids, positions, values = _read_section(doc, entries, "utilities", index, column_of)
    assessors = masks[ids]
    del ids
    entries.clear()  # the table is built without the gathered rows

    from .st import STGame

    try:
        return STGame.from_entries(
            n, tuple(column_of), columns, assessors, positions, values, players)
    except SizeLimitError as exc:
        raise GameLoadError(str(exc), "outcomes") from None
    except ValueError as exc:
        raise GameLoadError(str(exc), "utilities") from None


def load_game(source):
    """Load a game document from a path or open text stream. The entries are gathered into
    columns while the text decodes, so no tree of entry objects is ever held."""
    try:
        text = source.read() if hasattr(source, "read") else Path(source).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GameLoadError(f"not UTF-8 text ({exc.reason})", f"byte {exc.start}") from None
    entries = _Entries()
    try:
        doc = json.loads(text, object_hook=entries.gather)
    except json.JSONDecodeError as exc:
        raise GameLoadError(
            f"malformed document: {exc.msg}", f"line {exc.lineno}, column {exc.colno}"
        ) from None
    except RecursionError:
        raise GameLoadError("malformed document: nested too deeply", "$") from None
    if not entries.locate(doc):  # an entry outside the sections: read the tree as a caller's
        del doc, entries
        return parse_document(json.loads(text))
    del text
    return _read(doc, entries)


def _subset_names(mask: int, players) -> list[str]:
    from .players import PlayerSet

    return [players[i] for i in PlayerSet(mask)]


def _require_names(names, noun: str) -> None:
    """Refuse the names :func:`_parse_names` would refuse, before anything is written."""
    seen = set()
    for name in names:
        if not isinstance(name, str) or not name or name in seen:
            raise ValueError(f"{noun} {name!r}: a document names each {noun} by a distinct "
                             "nonempty string")
        seen.add(name)


def _loaded(module: str, name: str):
    """Type ``name`` of ``module`` (numpy, or a submodule such as ``.tu``), or ``()`` if that
    module was never imported: no instance exists then, and ``isinstance(x, ())`` is false."""
    return getattr(sys.modules.get(__package__ + module if module[0] == "." else module), name, ())


def document_for(game) -> dict:
    """Document tree for a game; inverse of :func:`parse_document`."""
    if isinstance(game, _loaded(".tu", "TUGame")):
        _require_names(game.players, "player")
        return {
            "version": DOCUMENT_VERSION,
            "players": list(game.players),
            "utilities": [
                {"subset": _subset_names(mask, game.players), "value": float(game.u[mask])}
                for mask in range(1, 1 << game.n)
            ],
        }
    if isinstance(game, _loaded(".st", "STGame")):
        consequence, utilities = game.consequence_table, game.utility_table
        if consequence is None or utilities is None:
            raise ValueError("only tabulated team games can be serialized")
        _require_names(game.players, "player")
        _require_names(game.outcomes, "outcome")
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
                for (mask, outcome), v in sorted(utilities.items())
            ],
        }
    if isinstance(game, _loaded(".cobb_params", "CobbDouglasConfig")):
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
    if type(value) is str:  # most other cells: text, settled before numpy is looked up
        return value
    if isinstance(value, (bool, _loaded("numpy", "bool_"))):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


def _needs_quotes(text: str) -> bool:
    """Does ``csv.writer`` (QUOTE_MINIMAL, ``lineterminator="\\n"``) quote this text?

    It does for a comma, a quote or a newline; a lone ``\\r`` is not quoted.
    """
    return "," in text or '"' in text or "\n" in text


def _quote(text: str) -> str:
    """One CSV field as ``csv.writer`` writes it: quoted where needed, its quotes doubled."""
    return '"' + text.replace('"', '""') + '"' if _needs_quotes(text) else text


def _format_slice(cells):
    """Lazy CSV fields of one column slice, its formatter chosen once for the whole slice.

    A float64 array is spelled by ``float.__repr__``; any other array is read
    as Python values. A slice that repeats one object is formatted once, and
    other cells one by one, quoted where ``csv.writer`` would quote them.
    """
    if isinstance(cells, _loaded("numpy", "ndarray")):
        if cells.dtype == _loaded("numpy", "float64"):
            return map(float.__repr__, cells.tolist())
        cells = cells.tolist()
    first = cells[0]
    if all(map(operator.is_, cells, itertools.repeat(first))):
        return itertools.repeat(_quote(format_cell(first)), len(cells))
    texts = list(map(format_cell, cells))
    return map(_quote, texts) if _needs_quotes("".join(texts)) else texts


def _lines(fields) -> str:
    """CSV lines of the rows ``zip(*fields)``, each ending in a newline.

    A row of one empty field is written ``""``, as ``csv.writer`` writes it,
    so that it is not a blank line.
    """
    rows = map(",".join, zip(*fields))
    if len(fields) == 1:
        rows = (row or '""' for row in rows)
    return "\n".join(rows) + "\n"


def write_table(tables, columns, path) -> int:
    """Write column tables one after another as UTF-8 CSV with a header row.

    A table maps every name in ``columns`` to an equal-length sequence (a
    numpy array or a list) holding that column's cells in row order. Every
    table is checked before the file is opened, cells are formatted
    ``ROW_CHUNK`` rows at a time, each column slice by one formatter (a
    slice repeating one object formatted once), fields are quoted as
    ``csv.writer`` quotes them, and every line ends in a newline, so
    identical inputs produce identical bytes. Returns the number of rows written.
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
        fh.write(_lines([[_quote(c)] for c in columns]))
        for table in tables:
            cols = [table[c] for c in columns]
            count = len(cols[0]) if cols else 0
            for lo in range(0, count, ROW_CHUNK):
                fh.write(_lines([_format_slice(c[lo:lo + ROW_CHUNK]) for c in cols]))
            rows += count
    return rows


def write_edges(graph: PerceptionGraph, path) -> None:
    """Serialize a perception graph as ``src dst weight`` lines."""
    Path(path).write_text("\n".join(graph.to_lines()) + "\n", encoding="utf-8")
