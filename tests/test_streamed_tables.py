"""The ``cobb`` tables are built, formatted and written one block of rows at a time.

Each table builder computes any run of its rows, the CLI hands ``write_table``
a lazy sequence of ``ROW_CHUNK``-row blocks, and the writer checks each block
as it arrives. The file equals ``write_table`` of the whole table, a refusal
that surfaces after blocks were written leaves the output path as it was, and
a table's peak memory does not grow with its row count.
"""

import os
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

from teamgames import cli, cobb, cobb_params
from teamgames.cobb import CobbDouglasConfig, hybrid
from teamgames.csv_tables import ROW_CHUNK, write_table
from teamgames.errors import NumericOverflowError

PARAMS = {"theta": 0.6, "alpha": 1.3, "beta": 2.0}
SIZES = (3, 5)
TOL = 1e-6
SRC = str(Path(__file__).resolve().parents[1] / "src")
MAIN = "import sys; from teamgames.cli import main; sys.exit(main(sys.argv[1:]))"


def run(argv) -> int:
    return cli.main([str(arg) for arg in argv])


def cobb_argv(command, flag, count, gammas, out):
    return ["cobb", command, "--theta", PARAMS["theta"], "--alpha", PARAMS["alpha"],
            "--beta", PARAMS["beta"], "--sizeA", SIZES[0], "--sizeB", SIZES[1], "--tol", TOL,
            flag, count, "--gammas", ",".join(map(str, gammas)), "-o", out]


# row counts a gamma that straddle one or two block edges
@pytest.mark.parametrize("gammas", [[0.5], [0.0, 0.3, 1.0]], ids=["one-gamma", "three-gammas"])
@pytest.mark.parametrize(
    "command, flag, count, builder, columns",
    [
        ("sweep", "--resolution", 37, "payoff_utility_grid", "COBB_COLUMNS"),  # 1,369 rows
        ("sweep", "--resolution", 46, "payoff_utility_grid", "COBB_COLUMNS"),  # 2,116 rows
        ("path", "--samples", ROW_CHUNK + 1, "cooperation_path", "COBB_COLUMNS"),
        ("path", "--samples", 2 * ROW_CHUNK + 1, "cooperation_path", "COBB_COLUMNS"),
        ("rational", "--resolution", ROW_CHUNK + 1, "rational_table", "RATIONAL_COLUMNS"),
        ("rational", "--resolution", 2 * ROW_CHUNK + 1, "rational_table", "RATIONAL_COLUMNS"),
    ],
)
def test_cli_table_equals_the_whole_table(tmp_path, command, flag, count, builder, columns,
                                          gammas):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    assert run(cobb_argv(command, flag, count, gammas, got)) == 0
    cfg = CobbDouglasConfig(**PARAMS)
    build = getattr(cobb, builder)
    tables = [build(hybrid(g), cfg, *SIZES, count, TOL) for g in gammas]
    write_table(tables, getattr(cobb, columns), want)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("gammas", [[0.5], [0.0, 0.3, 1.0]], ids=["one-gamma", "three-gammas"])
@pytest.mark.parametrize("resolution", [ROW_CHUNK + 1, 2 * ROW_CHUNK + 1])
def test_cli_frontier_equals_the_whole_table(tmp_path, resolution, gammas):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    argv = ["cobb", "frontier", "--beta", 2.5, "--resolution", resolution,
            "--gammas", ",".join(map(str, gammas)), "-o", got]
    assert run(argv) == 0
    shares = [k / resolution for k in range(1, resolution + 1)]
    write_table([cobb_params.stable_size_grid(2.5, gammas, shares)],
                cobb_params.FRONTIER_COLUMNS, want)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize(
    "builder, count, columns",
    [
        ("payoff_utility_grid", 33, cobb.COBB_COLUMNS),  # 1,089 rows
        ("cooperation_path", 700, cobb.COBB_COLUMNS),
        ("rational_table", 700, cobb.RATIONAL_COLUMNS),
    ],
)
def test_runs_of_rows_make_up_the_whole_table(tmp_path, builder, count, columns):
    """Any runs of rows, an empty one among them, written one after another give the bytes
    of the whole table, so each row is the same whichever rows are computed with it."""
    build = getattr(cobb, builder)
    cfg = CobbDouglasConfig(**PARAMS)
    rows = count**2 if builder == "payoff_utility_grid" else count
    cuts = [0, 1, 1, 257, 300, rows - 1, rows]
    parts = [build(hybrid(0.4), cfg, *SIZES, count, TOL, rows=slice(lo, hi))
             for lo, hi in zip(cuts, cuts[1:])]
    assert [len(part[columns[0]]) for part in parts] == [1, 0, 256, 43, rows - 301, 1]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_table(parts, columns, got)
    write_table([build(hybrid(0.4), cfg, *SIZES, count, TOL)], columns, want)
    assert got.read_bytes() == want.read_bytes()


# the first overflowing row in table order (B outer, A inner) is 2 * 0.99 + 10 * 0.49, row
# 49 * 101 + 99 = 5,048, in the fifth block of 1,024 rows
LATE_OVERFLOW = ["cobb", "sweep", "--alpha", "1e307", "--beta", "1.5", "--sizeA", "2",
                 "--sizeB", "10", "--resolution", "101", "--gammas", "0.5"]
LATE_LINE = "error: alpha * x^beta overflows at x = 6.880000000000001 (alpha = 1e+307, beta = 1.5)"


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    return err[0]


def test_late_overflow_names_the_first_overflowing_row_of_the_whole_table():
    cfg = CobbDouglasConfig(alpha=1e307, beta=1.5)
    # the first blocks are written before the overflow surfaces
    first = cobb.payoff_utility_grid(hybrid(0.5), cfg, 2, 10, 101, rows=slice(0, 4 * ROW_CHUNK))
    assert len(first["payoff"]) == 4 * ROW_CHUNK
    with pytest.raises(NumericOverflowError) as whole:
        cobb.payoff_utility_grid(hybrid(0.5), cfg, 2, 10, 101)
    assert f"error: {whole.value}" == LATE_LINE
    with pytest.raises(NumericOverflowError) as block:
        cobb.payoff_utility_grid(hybrid(0.5), cfg, 2, 10, 101, rows=slice(5000, 5100))
    assert str(block.value) == str(whole.value)


def test_late_refusal_leaves_no_file(tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert run(LATE_OVERFLOW + ["-o", out]) == 1
    assert one_error_line(capsys) == LATE_LINE
    assert list(tmp_path.iterdir()) == []


def test_late_refusal_keeps_an_existing_file(tmp_path, capsys):
    out = tmp_path / "out.csv"
    out.write_bytes(b"earlier,table\n1,2\n")
    out.chmod(0o640)
    assert run(LATE_OVERFLOW + ["-o", out]) == 1
    assert one_error_line(capsys) == LATE_LINE
    assert out.read_bytes() == b"earlier,table\n1,2\n"
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert list(tmp_path.iterdir()) == [out]
    # a written table replaces it, keeping its mode
    assert run(["cobb", "frontier", "--resolution", 3, "-o", out]) == 0
    assert out.read_text(encoding="utf-8").startswith("gamma,r,beta,max_stable_size\n")
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert list(tmp_path.iterdir()) == [out]


def test_a_symlink_is_written_through_and_never_replaced(tmp_path, capsys):
    """A link, dangling or not, stays a link; its target is created or replaced whole, and a
    late refusal leaves the target's bytes as they were."""
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    link.symlink_to(target.name)
    assert run(["cobb", "frontier", "--resolution", 3, "-o", link]) == 0
    frontier = target.read_bytes()
    assert frontier.decode("utf-8").count("\n") == 16
    assert run(LATE_OVERFLOW + ["-o", link]) == 1
    assert one_error_line(capsys) == LATE_LINE
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_bytes() == frontier
    assert sorted(tmp_path.iterdir()) == [link, target]


def test_a_file_the_user_may_not_write_is_refused(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out.csv"
    out.write_bytes(b"earlier,table\n")
    out.chmod(0o444)
    if os.access(out, os.W_OK):  # a superuser may write any file, as opening it would
        monkeypatch.setattr(os, "access", lambda path, mode, **kwargs: False)
    assert run(["cobb", "frontier", "--resolution", 3, "-o", out]) == 1
    assert one_error_line(capsys) == f"error: [Errno 13] Permission denied: '{out}'"
    assert out.read_bytes() == b"earlier,table\n"
    assert stat.S_IMODE(out.stat().st_mode) == 0o444
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_stdout_redirected_to_a_file_is_written_in_place(tmp_path):
    """``-o /dev/stdout`` names the open standard output: the file behind it is written,
    not replaced, even when it is a regular file."""
    out = tmp_path / "out.txt"
    argv = ["cobb", "frontier", "--resolution", "3", "--gammas", "0", "-o", "/dev/stdout"]
    with open(out, "ab") as fh:
        inode = os.fstat(fh.fileno()).st_ino
        subprocess.run([sys.executable, "-c", MAIN, *argv], stdout=fh, check=True,
                       env={**os.environ, "PYTHONPATH": SRC})
    assert os.stat(out).st_ino == inode
    assert out.read_text(encoding="utf-8").splitlines()[:4] == [
        "gamma,r,beta,max_stable_size", "0.0,0.3333333333333333,1.5,5.0",
        "0.0,0.6666666666666666,1.5,1.0", "0.0,1.0,1.5,1.0"]
    assert list(tmp_path.iterdir()) == [out]


def test_a_pipe_is_written_in_place(tmp_path):
    """A named pipe (as ``-o /dev/stdout`` may be) is opened and written, never replaced."""
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
    reader.start()
    try:
        status = run(["cobb", "frontier", "--resolution", 3, "--gammas", "0", "-o", fifo])
    finally:
        reader.join(timeout=30)
    assert status == 0
    assert received[0].decode("utf-8").splitlines()[1:] == [
        "0.0,0.3333333333333333,1.5,5.0", "0.0,0.6666666666666666,1.5,1.0", "0.0,1.0,1.5,1.0"]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert list(tmp_path.iterdir()) == [fifo]


def test_write_table_checks_each_table_as_it_arrives(tmp_path):
    out = tmp_path / "out.csv"

    def tables():
        yield {"a": [1, 2], "b": [0.5, 1.5]}
        yield {"a": [3], "b": [0.5, 1.5]}
        raise AssertionError("a table was asked for after a refused one")

    with pytest.raises(ValueError, match=r"^table 1 has columns of unequal lengths \[1, 2\]$"):
        write_table(tables(), ["a", "b"], out)
    assert list(tmp_path.iterdir()) == []
    out.write_bytes(b"kept\n")
    with pytest.raises(ValueError, match="^table 1 "):
        write_table(tables(), ["a", "b"], out)
    assert out.read_bytes() == b"kept\n" and list(tmp_path.iterdir()) == [out]
    blocks = ({"a": [k], "b": [k / 2]} for k in range(3))
    assert write_table(blocks, ["a", "b"], out) == 3
    assert out.read_bytes() == b"a,b\n0,0.0\n1,0.5\n2,1.0\n"


def _peak(argv) -> int:
    args = cli.build_parser().parse_args([str(arg) for arg in argv])
    tracemalloc.start()
    try:
        assert args.func(args) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "command, flag, small, large",
    [
        ("sweep", "--resolution", 100, 300),
        ("path", "--samples", 10_000, 90_000),
        ("frontier", "--resolution", 10_000, 90_000),
    ],
)
def test_table_peak_does_not_grow_with_its_rows(tmp_path, command, flag, small, large):
    """The traced peak of a 90,000-row table stays within a fixed margin of a 10,000-row
    one: no column is held whole, only a block of rows and its text."""
    out = tmp_path / "out.csv"

    def peak(count):
        return _peak(["cobb", command, flag, count, "--gammas", "0.5", "-o", out])

    peak(small)  # loads the modules the command runs
    small_peak, large_peak = peak(small), peak(large)
    assert large_peak <= small_peak + 128 * 1024, (small_peak, large_peak)
