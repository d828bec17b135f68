"""The batched Cobb-Douglas searches and the column-wise CSV writer against one-at-a-time oracles.

``reference_loops`` keeps the scalar searches the batched ones replaced: a
1-D scan, a golden section on numbers and a bisection per sign change, one
row at a time. Every batched row must do the same float operations, so
every comparison here is bit for bit (``float.hex`` tells -0.0 from 0.0 and
every last bit apart). The writer is compared with formatting each cell on
its own through ``format_cell``.
"""

import csv
import itertools
import warnings

import numpy as np
import pytest
import reference_loops as ref

from teamgames import cobb
from teamgames.cli import main
from teamgames.cobb import CobbDouglasConfig, hybrid
from teamgames.errors import NumericOverflowError
from teamgames.game_io import ROW_CHUNK, format_cell, write_table

CONFIGS = list(itertools.product((0.0, 0.5, 1.0), (0.5, 1.0, 2.0, 3.0), (0.0, 0.3, 1.0)))
SCAN_ROWS = cobb.SCAN_CELLS // (cobb.ARGMAX_SCAN + 1)  # rows of one best-response block


def bits(values):
    """Floats (or None) as exact text; strings as they are."""
    return [v if v is None or isinstance(v, str) else float(v).hex() for v in values]


def assert_same_columns(got, want):
    assert list(got) == list(want)
    for key in got:
        assert bits(got[key]) == bits(want[key]), key


@pytest.mark.parametrize("theta, beta, gamma", CONFIGS)
def test_best_responses_match_the_scalar_search(theta, beta, gamma):
    cfg = CobbDouglasConfig(theta=theta, beta=beta)
    others = np.linspace(0.0, 10.0, 9)
    got = cobb._best_response(hybrid(gamma), cfg, 2, others, 12)
    want = [ref.best_response(hybrid(gamma), cfg, 2, t, 12) for t in others.tolist()]
    assert bits(got) == bits(want)


def test_maximize_scalar_brackets_ties_and_degenerate_rows():
    # row-dependent peaks at each scan edge, inside, past the bracket; exact arithmetic only
    peaks = np.array([0.0, 1.0, 0.3, -5.0, 7.0, 0.123456789, 0.5, 0.5, 0.5])
    lo = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, -1.0, 0.2])
    hi = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 1.0, 0.2 + 1e-7])

    def tent(x):
        return -np.abs(x - peaks[:, None])

    got = cobb.maximize_scalar(tent, lo, hi)
    want = [ref.maximize_scalar(lambda x, p=p: -np.abs(x - p), a, b)
            for p, a, b in zip(peaks.tolist(), lo.tolist(), hi.tolist())]
    assert bits(got) == bits(want)
    # constant and plateau objectives: the smallest maximizing argument wins
    for fn in (lambda x: 0.0, lambda x: np.zeros_like(x), lambda x: np.minimum(x, 0.5),
               lambda x: np.floor(4 * x)):
        got = cobb.maximize_scalar(fn, lo, hi)
        want = [ref.maximize_scalar(fn, a, b) for a, b in zip(lo.tolist(), hi.tolist())]
        assert bits(got) == bits(want)
    # brackets whose scan step underflows: np.linspace's (j / n) * span form
    for hi_, fn in ((5e-324, lambda x: x), (5e-322, lambda x: -np.abs(x - 2.5e-322))):
        assert bits([cobb.maximize_scalar(fn, 0.0, hi_)]) == bits(
            [ref.maximize_scalar(fn, 0.0, hi_)])
    # numbers in, a number out
    assert cobb.maximize_scalar(lambda x: 0.0, 0.0, 1.0) == 0.0
    with pytest.raises(ValueError, match="empty bracket"):
        cobb.maximize_scalar(tent, hi, lo)


def test_altruism_roots_match_the_scalar_scan_and_bisection():
    counts = set()
    for theta, beta, gamma in CONFIGS:
        cfg = CobbDouglasConfig(theta=theta, beta=beta)
        for size_a, size_b in ((1, 1), (2, 10), (3, 2)):
            x_b = np.linspace(0.0, size_b, 7)
            got = cobb.altruism_roots(hybrid(gamma), cfg, size_a, size_b, x_b)
            for t, row in zip(x_b.tolist(), got):
                want = ref.altruism_roots(hybrid(gamma), cfg, size_a, size_b, t)
                assert bits(row) == bits(want), (theta, beta, gamma, size_a, size_b, t)
                counts.add(len(row))
    # rows without a root, with one and with two (and all-zero rows: every grid point)
    assert {0, 1, 2, cobb.ROOT_SCAN + 1} <= counts
    # a bisection midpoint where the balance is exactly zero ends that row's search there
    cfg = CobbDouglasConfig(theta=0.5, beta=1.0)
    x_b = np.array([768.5 / 1024, 0.3])
    got = cobb.altruism_roots(hybrid(0.0), cfg, 1, 1, x_b)
    assert got[0] == [768.5 / 1024]
    assert [bits(row) for row in got] == [
        bits(ref.altruism_roots(hybrid(0.0), cfg, 1, 1, t)) for t in x_b.tolist()]
    # a number in, one list out
    cfg = CobbDouglasConfig(theta=0.0, beta=3.0)
    assert cobb.altruism_roots(hybrid(0.0), cfg, 1, 1, 0.0) == ref.altruism_roots(
        hybrid(0.0), cfg, 1, 1, 0.0)
    with pytest.raises(ValueError, match=r"x_B must lie in \[0, 1\], got 2.0"):
        cobb.altruism_roots(hybrid(0.0), cfg, 1, 1, np.array([0.5, 2.0]))


@pytest.mark.parametrize("size_a", [2**40, 2**53])
def test_altruism_roots_stop_where_adjacent_floats_are_far_apart(size_a):
    # past about 2^26 adjacent floats lie more than ROOT_XATOL apart: a row ends once no
    # float lies strictly between its ends, in both the batched and the scalar bisection
    cfg = CobbDouglasConfig()
    x_b = np.array([0.0, 1.5, 3.0])
    got = cobb.altruism_roots(hybrid(0.0), cfg, size_a, 3, x_b)
    assert [bits(row) for row in got] == [
        bits(ref.altruism_roots(hybrid(0.0), cfg, size_a, 3, t)) for t in x_b.tolist()]
    assert all(len(row) == 1 for row in got[1:])


@pytest.mark.parametrize("theta, beta, gamma", CONFIGS)
@pytest.mark.parametrize("size_a, size_b", [(2, 10), (1, 4)])
def test_tables_match_the_row_by_row_builders(theta, beta, gamma, size_a, size_b):
    cfg = CobbDouglasConfig(theta=theta, beta=beta)
    scheme = hybrid(gamma)

    got = cobb.cooperation_path(scheme, cfg, size_a, size_b, samples=7)
    assert list(got) == cobb.COBB_COLUMNS
    assert_same_columns(got, ref.cooperation_path(scheme, cfg, size_a, size_b, samples=7))
    got = cobb.rational_table(scheme, cfg, size_a, size_b, resolution=7)
    assert_same_columns(got, ref.rational_table(scheme, cfg, size_a, size_b, resolution=7))


def test_path_columns_across_two_blocks_and_tolerances():
    # rows on both sides of a best-response block boundary, one of them exactly at it
    cfg = CobbDouglasConfig()
    got = cobb.cooperation_path(hybrid(0.0), cfg, 2, 10, 2 * SCAN_ROWS + 1)
    assert_same_columns(got, ref.cooperation_path(hybrid(0.0), cfg, 2, 10, 2 * SCAN_ROWS + 1))
    # the tolerance reaches the quadrant column and nothing else
    wide = cobb.cooperation_path(hybrid(0.0), cfg, 2, 10, 9, tol=0.2)
    assert_same_columns(wide, ref.cooperation_path(hybrid(0.0), cfg, 2, 10, 9, tol=0.2))
    narrow = cobb.cooperation_path(hybrid(0.0), cfg, 2, 10, 9)
    assert wide["quadrant"] != narrow["quadrant"]
    assert_same_columns({k: v for k, v in wide.items() if k != "quadrant"},
                        {k: v for k, v in narrow.items() if k != "quadrant"})


@pytest.mark.parametrize(
    "cfg, count",
    [
        (CobbDouglasConfig(alpha=1e308), 3),
        (CobbDouglasConfig(beta=1e308), 3),
        # overflow starts at x = 7, at a block boundary of a table of two blocks: at the last
        # row of the first block when the second is short, at the first row of the second when
        # both are full
        (CobbDouglasConfig(alpha=1.7976931348623157e308 / 7.0**1.5), 2 * SCAN_ROWS - 2),
        (CobbDouglasConfig(alpha=1.7976931348623157e308 / 7.0**1.5), 2 * SCAN_ROWS),
        # inside one block: row 41 is the first to overflow, and every later row overflows at
        # a smaller point, including rows of the block's other evaluation chunks
        (CobbDouglasConfig(alpha=1.7976931348623157e308 / 7.0**1.5), 81),
    ],
)
def test_overflow_reports_the_first_overflowing_row(cfg, count):
    # the error the row-by-row search meets first: its first overflowing row's scan minimum
    for build, oracle in ((cobb.cooperation_path, ref.cooperation_path),
                          (cobb.rational_table, ref.rational_table)):
        with pytest.raises(NumericOverflowError) as want:
            oracle(hybrid(0.5), cfg, 2, 10, count)
        with pytest.raises(NumericOverflowError) as got:
            build(hybrid(0.5), cfg, 2, 10, count)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("flag", ["--alpha", "--beta"])
@pytest.mark.parametrize("command, count_flag", [("path", "--samples"), ("rational", "--resolution")])
def test_cli_overflow_text_matches_the_scalar_search(tmp_path, capsys, flag, command, count_flag):
    out = tmp_path / "out.csv"
    assert main(["cobb", command, flag, "1e308", count_flag, "3", "-o", str(out)]) == 1
    cfg = CobbDouglasConfig(**{flag.strip("-"): 1e308})
    oracle = ref.cooperation_path if command == "path" else ref.rational_table
    with pytest.raises(NumericOverflowError) as want:
        oracle(hybrid(0.0), cfg, 2, 10, 3)
    assert capsys.readouterr().err == f"error: {want.value}\n"
    assert not out.exists()


class TestSearchCalls:
    """Each table runs one batched search per block of rows, not one per row, so the
    layers a tracer wraps (``cobb.maximize_scalar``, ``cobb.altruism_roots``) stay live."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        counts = {"maximize_scalar": 0, "altruism_roots": 0}
        for name in counts:
            original = getattr(cobb, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(cobb, name, counted)
        return counts

    def test_one_search_per_table(self, calls):
        cfg = CobbDouglasConfig()
        cobb.cooperation_path(hybrid(0.5), cfg, 2, 10)
        assert calls == {"maximize_scalar": 1, "altruism_roots": 0}
        cobb.rational_table(hybrid(0.5), cfg, 2, 10)
        assert calls == {"maximize_scalar": 2, "altruism_roots": 1}

    def test_one_best_response_search_per_block(self, calls):
        cobb.rational_table(hybrid(0.5), CobbDouglasConfig(), 2, 10, resolution=2 * SCAN_ROWS + 1)
        assert calls == {"maximize_scalar": 3, "altruism_roots": 1}

    def test_cli_tables_search_once_per_gamma(self, calls, tmp_path):
        for command in ("path", "rational"):
            assert main(["cobb", command, "-o", str(tmp_path / f"{command}.csv")]) == 0
        assert calls == {"maximize_scalar": 10, "altruism_roots": 5}

    def test_cli_path_evaluates_its_metrics_once_per_gamma(self, monkeypatch, tmp_path):
        calls = []
        original = cobb._group_metrics

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cobb, "_group_metrics", counted)
        assert main(["cobb", "path", "--gammas", "0,0.5,1", "-o", str(tmp_path / "p.csv")]) == 0
        assert len(calls) == 3


class TestColumnFormatter:
    @staticmethod
    def per_cell(tables, columns, path):
        """The writer one cell at a time: arrays as Python scalars, each through format_cell."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            for table in tables:
                cols = [c.tolist() if isinstance(c, np.ndarray) else c
                        for c in (table[name] for name in columns)]
                for row in zip(*cols):
                    writer.writerow([format_cell(v) for v in row])

    def test_hard_columns_match_per_cell_formatting(self, tmp_path):
        n = ROW_CHUNK + 7  # constant columns cross a slice boundary
        special = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 0.1, 1e308]
        payloads = np.array([0x7FF8000000000000, 0x7FF8000000000001], dtype=np.uint64)
        mixed = [1, True, 1.0, np.True_, None, np.float64(-0.0), "a,b", 'say "hi"', "two\nlines"]
        table = {
            "floats": np.resize(np.array(special), n),
            "signed_zero_list": [0.0] * (n - 1) + [-0.0],
            "constant_negative_zero": np.full(n, -0.0),
            "zero_signs": np.resize(np.array([0.0, -0.0]), n),
            "constant_zero_list": [-0.0] * n,
            "nan_payloads": np.resize(payloads.view(np.float64), n),
            "constant_nan": np.full(n, np.nan),
            "mixed": list(itertools.islice(itertools.cycle(mixed), n)),
            "one_true": [1] * ROW_CHUNK + [True] * 7,
            "bools": np.arange(n) % 3 == 0,
            "constant_bools": np.ones(n, dtype=bool),
            "numpy_bool_list": [np.bool_(k % 2) for k in range(n)],
            "nones": [None] * n,
            "ints": np.arange(n, dtype=np.int64) - 3,
            "constant_ints": np.full(n, 7, dtype=np.int64),
            "float32": np.resize(np.array([0.1, -0.0], dtype=np.float32), n),
            "strings": np.resize(np.array(["x", "y,z", "q\"uote"]), n),
            "constant_text": ["same, text"] * n,
        }
        columns = list(table)
        short = {c: table[c][:3] for c in columns}
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert write_table([table, short, table], columns, got) == 2 * n + 3
        self.per_cell([table, short, table], columns, want)
        assert got.read_bytes() == want.read_bytes()

    def test_cobb_tables_match_per_cell_formatting(self, tmp_path):
        cfg = CobbDouglasConfig()
        tables = [cobb.payoff_utility_grid(hybrid(g), cfg, 2, 3, resolution=70) for g in (0.0, 1.0)]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_table(tables, cobb.COBB_COLUMNS, got)
        self.per_cell(tables, cobb.COBB_COLUMNS, want)
        assert got.read_bytes() == want.read_bytes()
