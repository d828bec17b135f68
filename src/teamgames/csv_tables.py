"""Analysis tables written as CSV: UTF-8, a header row, and full-precision (shortest
round-trip) decimals, so repeated runs are byte-identical.

:mod:`teamgames.game_io` re-exports the writer; the ``cobb`` commands write
their tables from here without loading the document reader. Imports no numpy.
"""

from __future__ import annotations

import errno
import itertools
import operator
import os
import stat
import sys

ROW_CHUNK = 1024  # rows formatted and joined into one text at a time, few to keep the peak low


def _loaded(module: str, name: str):
    """Type ``name`` of ``module`` (numpy, or a submodule such as ``.tu``), or ``()`` if that
    module was never imported: no instance exists then, and ``isinstance(x, ())`` is false."""
    return getattr(sys.modules.get(__package__ + module if module[0] == "." else module), name, ())


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


def _replaceable(path):
    """The regular file that ``path`` names, its symbolic links followed, or the path a
    new file would take; None for anything else (a device, a pipe, a directory, a link
    loop, or a link into ``/proc`` such as ``/dev/stdout``, which names an open file)."""
    try:
        proc = os.lstat("/proc/self").st_dev
    except OSError:
        proc = None
    for _ in range(40):  # links the kernel follows before it gives up
        try:
            info = os.lstat(path)
        except FileNotFoundError:
            return path if os.path.basename(path) else None
        except OSError:
            return None
        if stat.S_ISREG(info.st_mode):
            return path
        if not stat.S_ISLNK(info.st_mode) or info.st_dev == proc:
            return None
        path = os.path.join(os.path.dirname(path), os.readlink(path))
    return None


def _open_output(path):
    """A text file for ``path``, the temporary name it is written under and the file
    that name replaces (both None when it is written in place).

    A regular file, one a symbolic link leads to, or a path that does not exist
    yet is written under a new name beside that file (its mode kept, or the
    umask's for a new file), which the caller renames onto it once every row is
    written, so a link stays a link. A file the user may not write is refused
    as opening it would be. Anything else (a device, ``/dev/stdout``, a pipe)
    is opened and written in place, so it is never replaced or unlinked.
    """
    path = os.fspath(path)
    target = _replaceable(path)
    if target is None:
        return open(path, "w", encoding="utf-8", newline=""), None, None
    try:
        mode = stat.S_IMODE(os.stat(target).st_mode)
    except FileNotFoundError:
        mode = None
    if mode is not None and not os.access(target, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
    head, name = os.path.split(target)
    for attempt in itertools.count():
        temporary = os.path.join(head, f".{name}.{os.getpid()}-{attempt}.tmp")
        try:
            fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
        except OSError as exc:  # named as the path it stands for
            raise OSError(exc.errno, exc.strerror, path) from None
    if mode is not None:
        os.fchmod(fd, mode)
    return open(fd, "w", encoding="utf-8", newline=""), temporary, target


def write_table(tables, columns, path) -> int:
    """Write column tables one after another as UTF-8 CSV with a header row.

    A table maps every name in ``columns`` to an equal-length sequence (a
    numpy array or a list) holding that column's cells in row order.
    ``tables`` may be lazy: each table is checked when it arrives and written
    before the next one is asked for, so a table produced one block of rows
    at a time is never held whole. Cells are formatted ``ROW_CHUNK`` rows at
    a time, each column slice by one formatter (a slice repeating one object
    formatted once), fields are quoted as ``csv.writer`` quotes them, and
    every line ends in a newline, so identical inputs produce identical
    bytes. A table that fails its check, or an error raised while the tables
    are produced, leaves a regular file at ``path`` or behind a link there, or
    its absence, as it was (see ``_open_output``). Returns the number of rows
    written.
    """
    columns = list(columns)
    fh, temporary, target = _open_output(path)
    try:
        with fh:
            fh.write(_lines([[_quote(c)] for c in columns]))
            rows = 0
            for i, table in enumerate(tables):
                missing = [c for c in columns if c not in table]
                if missing:
                    raise ValueError(f"table {i} is missing columns {missing}")
                lengths = sorted({len(table[c]) for c in columns})
                if len(lengths) > 1:
                    raise ValueError(f"table {i} has columns of unequal lengths {lengths}")
                cols = [table[c] for c in columns]
                count = len(cols[0]) if cols else 0
                for lo in range(0, count, ROW_CHUNK):
                    fh.write(_lines([_format_slice(c[lo:lo + ROW_CHUNK]) for c in cols]))
                rows += count
        if temporary:
            os.replace(temporary, target)
    except BaseException:
        if temporary:
            os.unlink(temporary)
        raise
    return rows
