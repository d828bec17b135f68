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
serves both. Every section is checked on the columns before numpy is
loaded, and the checks only accept: each distinct list of names and outcome
is checked once, the values by one ``math.fsum``, coverage and repeats by
mask. A section they do not accept is walked in list order to its first
fault. A team game's repeated utilities are left to building its table,
which refuses a pair placed twice. Accepted columns are compacted into
stdlib arrays, which numpy reads in place. Every validation failure names
the offending field; syntax errors carry the line and column. ``.game`` and
``.edges`` files are written under a temporary name and renamed over their
target, as CSV tables are. Graph exports are ``src dst weight`` edge-list
lines, so repeated runs are byte-identical. The CSV table writer is
:mod:`teamgames.csv_tables`, re-exported here.
"""

from __future__ import annotations

import itertools
import json
import math
from array import array
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import GameLoadError, RepeatedEntryError, SizeLimitError
from .limits import MAX_SUBSET_ARRAY

if TYPE_CHECKING:  # each game kind's module, and numpy, is imported by the code that uses it
    from .additivity import PerceptionGraph
    from .cobb_params import CobbDouglasConfig
    from .st import STGame
    from .tu import TUGame

DOCUMENT_VERSION = 1
COBB_KEYS = ("theta", "alpha", "beta")


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


def _encodable(name: str) -> bool:
    """Whether UTF-8 encodes a string: every string but one holding a lone surrogate."""
    try:
        name.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _parse_names(doc: dict, key: str, noun: str, names: str) -> dict[str, int]:
    """Position of each name in ``doc[key]``, a nonempty list of distinct nonempty strings
    that UTF-8 encodes, so that every result naming them can be written."""
    items = _require(doc, key, list, key)
    if not items:
        raise GameLoadError(f"at least one {noun} is required", key)
    index: dict[str, int] = {}
    for i, name in enumerate(items):
        if not isinstance(name, str) or not name:
            raise GameLoadError(f"{names} must be nonempty strings", f"{key}[{i}]")
        if not _encodable(name):
            raise GameLoadError(f"{noun} {name!r} holds a lone surrogate, which UTF-8 cannot "
                                "encode", f"{key}[{i}]")
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
        return -math.inf if value < 0 else math.inf


def _parse_value(entry, location: str) -> float:
    if isinstance(entry, bool) or not isinstance(entry, (int, float)):
        raise GameLoadError(f"value must be a number, got {entry!r}", location)
    value = _as_float(entry)
    if not math.isfinite(value):
        raise GameLoadError(f"value must be finite, got {value!r}", location)
    return value


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
    the root to its first row, the row after its last and its list of elements, markers and
    anything not gathered; the lists are emptied by :meth:`compact`.
    """

    def __init__(self):
        self.subsets: dict[tuple, int] = {}  # list of names -> id, in first-seen order
        self.outcomes: dict = {}  # outcome (_MISSING for none) -> id, in first-seen order
        self.ids, self.oids, self.values = [], [], []  # per row, until compact
        self.sections: dict[str, tuple[int, int, list]] = {}
        self.masks: list[int] | None = None  # subset id -> mask (-1: no set of players)
        self.floats = array("d")  # the utilities section's values, once compact
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
                if not isinstance(outcome, str) and outcome is not _MISSING:
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
        """Find the rows of a tree decoded through :attr:`gather` in its sections. False
        when a row lies elsewhere: on the root, inside another entry, under another or a
        repeated key; the sections then hold fewer markers than there are rows."""
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
            self.sections[name] = start, start + count, items
            start += count
        return True

    def gather_sections(self, doc) -> None:
        """Gather the entries of each section of a caller's tree; the tree is not changed."""
        if isinstance(doc, dict):
            for name in _SECTIONS:
                items = doc.get(name)
                if isinstance(items, list):
                    start = len(self.values)
                    items = [self.gather(e) if isinstance(e, dict) else e for e in items]
                    self.sections[name] = start, len(self.values), items

    def parse_subsets(self, index) -> list[int]:
        """:attr:`masks`, each distinct list of names parsed once, however many entries
        repeat it, as the sum of its players' bits: a list with an unknown name gets -1, and
        so does one with a name twice, whose bits then carry into fewer than its length."""
        if self.masks is None:
            bits = {name: 1 << i for name, i in index.items()}
            self.masks = []
            for names in self.subsets:
                try:
                    mask = sum(map(bits.__getitem__, names))
                except KeyError:
                    mask = -1
                self.masks.append(mask if mask.bit_count() == len(names) else -1)
        return self.masks

    def columns(self, column_of) -> list[int]:
        """The column of each outcome id: its position in ``column_of``, or, for a TU
        document (``column_of`` None), 0 for no outcome; -1 for any other outcome."""
        if column_of is None:
            return [0 if outcome is _MISSING else -1 for outcome in self.outcomes]
        return [column_of.get(outcome, -1) for outcome in self.outcomes]

    def compact(self) -> None:
        """Turn the gathered columns of checked sections into compact arrays, which numpy
        reads without copying: the ids as C ints, and the ``utilities`` section's values as
        doubles. The sections' lists and every value object are freed, before numpy is
        loaded."""
        ids, oids, values = self.ids, self.oids, self.values
        for _, _, items in self.sections.values():
            items.clear()
        kind = "i" if len(ids) < 1 << 30 else "q"  # ids count rows or fewer
        self.ids, self.oids = array(kind, ids), array(kind, oids)
        del ids[:], oids[:]
        start, stop, _ = self.sections.get("utilities", (0, 0, None))
        self.floats = array("d", itertools.islice(values, start, stop))
        del values[:]

    def rows(self, section: str):
        """Writable numpy views of the subset and outcome ids of a section's rows."""
        import numpy as np

        start, stop, _ = self.sections[section]
        return (np.frombuffer(column, column.typecode)[start:stop]
                for column in (self.ids, self.oids))

    def entry(self, row: int) -> dict:
        """The entry of a row, as its checks read it."""
        entry = {"subset": list(list(self.subsets)[self.ids[row]]), "value": self.values[row]}
        outcome = list(self.outcomes)[self.oids[row]]
        if outcome is not _MISSING:
            entry["outcome"] = outcome
        return entry

    def clear(self) -> None:
        """Free the lists of names and the outcomes, which only the checks read, once every
        section passed them: their memory is then free for numpy's import."""
        self.subsets = self.outcomes = None


def _repeat_fault(kind: str, section: str, i: int, earlier: int) -> GameLoadError:
    """The error of entry i of a section, whose key first came at entry ``earlier``."""
    where = f"{section}[{i}]" if kind == "utilities" else f"{section}[{i}].subset"
    return GameLoadError(f"duplicate {_KINDS[kind][2]} (also at {section}[{earlier}])", where)


def _entry_fault(kind: str, section: str, i: int, entry, index, column_of, seen: dict):
    """Raise the error of entry i, its section's first fault; ``seen`` holds the position
    of each key the entries before it first came at."""
    noun, empty, _ = _KINDS[kind]
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
    key = (mask, column_of[outcome]) if kind == "utilities" else mask
    if key in seen:
        raise _repeat_fault(kind, section, i, seen[key])
    if mask == 0 and value != 0.0:
        raise GameLoadError("the empty coalition must be worth 0", f"{loc}.value")
    raise AssertionError(f"{loc}: flagged entry passed every check")


def _numbers(values: list) -> bool:
    """Whether every value is an int or a float (a bool's type is neither) and their sum is
    finite: ``math.fsum`` is finite only when every value is, and raises when a partial sum
    leaves the float range or adds -inf to inf. Other number types are left to the walk."""
    if not set(map(type, values)) <= {int, float}:
        return False
    try:
        return math.isfinite(math.fsum(values))
    except (OverflowError, ValueError):
        return False


def _finite_number(value) -> bool:
    """Whether :func:`_parse_value` accepts a value."""
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and math.isfinite(_as_float(value)))


def _check_section(doc: dict, entries: _Entries, kind: str, index, column_of) -> set | None:
    """Check a ``consequence``, ``utilities`` or ``tu`` section without numpy, and return the
    masks of a consequence or TU section's rows. The checks only accept: every element was
    gathered, every list of names and outcome is good (each distinct one checked once), the
    values are numbers whose ``math.fsum`` is finite, a TU document's empty subset is worth
    0 and the masks of a consequence or TU section are distinct. A team game's repeated
    utilities are left to building its table (see ``STGame.from_entries``). A section that
    is not accepted is walked in order by :func:`_walk_section`."""
    section = "consequence" if kind == "consequence" else "utilities"
    _require(doc, section, list, section)
    start, stop, items = entries.sections[section]
    masks, columns = entries.parse_subsets(index), entries.columns(column_of)
    least = _KINDS[kind][1] is not None  # the least good mask: 1 where the empty set is refused
    clean = (stop - start == len(items) and min(masks, default=1) >= least
             and min(columns, default=0) >= 0)
    if kind != "consequence":
        clean = clean and _numbers(entries.values[start:stop])
    present = None
    if kind != "utilities":
        keys = list(map(masks.__getitem__, entries.ids[start:stop]))
        present = set(keys)
        clean = clean and len(present) == len(keys) and (
            0 not in present or entries.values[start + keys.index(0)] == 0)
    return present if clean else _walk_section(entries, kind, section, index, column_of)


def _walk_section(entries: _Entries, kind: str, section: str, index, column_of) -> set:
    """Walk a section in list order and raise at its first fault through :func:`_entry_fault`,
    with the entry rebuilt from its row. A marker's row is read through the parsed masks and
    columns, and any other element is a fault. A section without a fault, refused in bulk
    for the other section's list of names or outcome, for a sum past the float range or for
    a number type other than int and float, returns its rows' keys: their masks, in a
    consequence or TU section."""
    start, _, items = entries.sections[section]
    masks, columns = entries.masks, entries.columns(column_of)
    ids, oids, values = entries.ids, entries.oids, entries.values
    least, row, seen = _KINDS[kind][1] is not None, start, {}
    for i, item in enumerate(items):
        if item is _ENTRY or item is _FIRST:
            mask, column, value = masks[ids[row]], columns[oids[row]], values[row]
            key = (mask, column) if kind == "utilities" else mask
            if mask >= least and column >= 0 and key not in seen and (
                    kind == "consequence" or _finite_number(value) and (mask or value == 0)):
                seen[key], row = i, row + 1
                continue
            item = entries.entry(row)
        _entry_fault(kind, section, i, item, index, column_of, seen)
    return set(seen)


def _require_every_subset(present: set, n: int, players, what: str, section: str) -> None:
    """Refuse a section whose masks miss a nonempty subset; n is bounded from here on."""
    if len(present - {0}) < (1 << n) - 1:
        mask = next(m for m in range(1, 1 << n) if m not in present)
        raise GameLoadError(f"no {what} entry for subset {_subset_names(mask, players)}", section)


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
    index = _parse_names(doc, "players", "player", "player names")
    players, n = list(index), len(index)
    if n > MAX_SUBSET_ARRAY:
        raise GameLoadError(f"TU games support 1..{MAX_SUBSET_ARRAY} players, got {n}", "players")
    present = _check_section(doc, entries, "tu", index, None)
    _require_every_subset(present, n, players, "utility", "utilities")
    masks = entries.masks
    entries.compact()
    entries.clear()

    from .tu import TUGame  # compiled before numpy loads: see _read_st

    import numpy as np

    ids, _ = entries.rows("utilities")
    table = np.zeros(1 << n)
    table[np.array(masks)[ids]] = np.frombuffer(entries.floats)
    return TUGame(n, table, tuple(players))


def _read_st(doc: dict, entries: _Entries) -> STGame:
    index = _parse_names(doc, "players", "player", "player names")
    players, n = tuple(index), len(index)
    column_of = _parse_names(doc, "outcomes", "outcome", "outcome ids")
    # coverage is settled before any 2^n allocation
    present = _check_section(doc, entries, "consequence", index, column_of)
    _require_every_subset(present, n, players, "consequence", "consequence")
    _check_section(doc, entries, "utilities", index, column_of)
    masks, cols = entries.masks, entries.columns(column_of)
    entries.compact()
    entries.clear()

    # the game module first: without bytecode files its compile is freed before its own
    # numpy import maps numpy's libraries, rather than stacking on them
    from .st import ENTRY_CHUNK, STGame

    import numpy as np

    ids, oids = entries.rows("consequence")
    # in the ids' own type, C ints: no document lists every coalition of 31 players
    masks, cols = np.array(masks, ids.dtype), np.array(cols, oids.dtype)
    columns = np.zeros(1 << n, dtype=np.intp)
    columns[masks[ids]] = cols[oids]
    assessors, positions = entries.rows("utilities")
    for lo in range(0, len(assessors), ENTRY_CHUNK):  # ids become masks and columns in place
        chunk = slice(lo, lo + ENTRY_CHUNK)
        assessors[chunk], positions[chunk] = masks[assessors[chunk]], cols[positions[chunk]]
    values = np.frombuffer(entries.floats)
    try:
        return STGame.from_entries(
            n, tuple(column_of), columns, assessors, positions, values, players)
    except RepeatedEntryError as exc:
        raise _repeat_fault("utilities", "utilities", exc.entry, exc.earlier) from None
    except SizeLimitError as exc:
        raise GameLoadError(str(exc), "outcomes") from None
    except ValueError as exc:
        raise GameLoadError(str(exc), "utilities") from None


def _decode(text: str, **hooks):
    """``json.loads`` of a document's text, a malformed text refused with its line and
    column."""
    try:
        return json.loads(text, **hooks)
    except json.JSONDecodeError as exc:
        raise GameLoadError(
            f"malformed document: {exc.msg}", f"line {exc.lineno}, column {exc.colno}"
        ) from None
    except RecursionError:
        raise GameLoadError("malformed document: nested too deeply", "$") from None


def _long_int(literal: str):
    """An integer literal's value, or the infinity of its sign past ``int()``'s digit limit,
    as :func:`_as_float` reads an integer past the float range."""
    try:
        return int(literal)
    except ValueError:
        return -math.inf if literal.startswith("-") else math.inf


def load_game(source):
    """Load a game document from a path or open text stream. The entries are gathered into
    columns while the text decodes, so no tree of entry objects is ever held."""
    try:
        text = source.read() if hasattr(source, "read") else Path(source).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GameLoadError(f"not UTF-8 text ({exc.reason})", f"byte {exc.start}") from None
    entries = _Entries()
    try:
        doc = _decode(text, object_hook=entries.gather)
    except GameLoadError:
        raise
    except ValueError:  # json.loads refuses an integer literal past int()'s digit limit
        doc = entries = None
    if entries is None or not entries.locate(doc):
        # such a literal, or an entry outside the sections: the text is decoded again with
        # each integer literal read through a hook, and the tree read as a caller's
        del doc, entries
        return parse_document(_decode(text, parse_int=_long_int))
    del text
    return _read(doc, entries)


def _subset_names(mask: int, players) -> list[str]:
    """The names of a mask's players, in player order."""
    return [players[i] for i in range(mask.bit_length()) if mask >> i & 1]


def _require_names(names, noun: str) -> None:
    """Refuse the names :func:`_parse_names` would refuse, before anything is written."""
    seen = set()
    for name in names:
        if not isinstance(name, str) or not name or name in seen or not _encodable(name):
            raise ValueError(f"{noun} {name!r}: a document names each {noun} by a distinct "
                             "nonempty string that UTF-8 encodes")
        seen.add(name)


def __getattr__(name: str):
    """The CSV writer's names, re-exported from :mod:`teamgames.csv_tables` on first use, so
    that loading a document does not load the writer."""
    if name in ("ROW_CHUNK", "format_cell", "write_table"):
        from . import csv_tables

        return getattr(csv_tables, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def document_for(game) -> dict:
    """Document tree for a game; inverse of :func:`parse_document`."""
    from .csv_tables import _loaded

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
    """Write a game's document, streamed as it is encoded, with a final newline. A failed
    write leaves the file at ``path`` as it was, as :func:`write_table` does."""
    from .csv_tables import _output_file

    doc = document_for(game)  # refused before the file is opened
    with _output_file(path) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def write_edges(graph: PerceptionGraph, path) -> None:
    """Serialize a perception graph as ``src dst weight`` lines, written as
    :func:`save_game` writes."""
    from .csv_tables import _output_file

    with _output_file(path) as fh:
        fh.write("\n".join(graph.to_lines()) + "\n")
