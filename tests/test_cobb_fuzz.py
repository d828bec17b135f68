"""A seeded fuzzer over the flags and documents of the four ``cobb`` commands.

Flag values are drawn at the limits the parser accepts (``--beta`` from
1 + 1e-7 to 1e10, ``--alpha`` 1e-300, ``--tol`` 5e-324, ``--sizeA`` up to
2^53, gammas 0, 5e-324 and 1) and just past them, and some runs read a
Cobb-Douglas document, valid or with bad fields. Every run writes at most
``MAX_ROWS`` rows and must keep the document fuzzer's contract: exit 0 with
nothing on stderr, exit 1 with one ``error:`` line, or exit 2 (a usage
error), with warnings raised as errors and an alarm per run.
"""

import json
import math
import random

import pytest
from test_document_fuzz import alarm, run_contract

from teamgames.cli import main

SEEDS = range(6)
RUNS_PER_SEED = 100
MAX_ROWS = 64

# the size flag of each command, the least count it takes, and its rows per gamma as a power
SIZE_FLAGS = {"sweep": ("--resolution", 2, 2), "path": ("--samples", 2, 1),
              "rational": ("--resolution", 2, 1), "frontier": ("--resolution", 1, 1)}
GAMMAS = ("0", "5e-324", "1", "0.5", "0.999999")
# 0.5^1024 and 0.5^1074 (the least float) lie below the normal range, so at beta 1024 or
# 1074 any even --resolution puts a frontier share where r^beta has lost its precision
BETAS = ("1.0000001", "1e10", "1.5", "2", "300", "1024", "1074", "0.5", "1")
ALPHAS = ("1e-300", "1", "1e300", "0.001")
THETAS = ("0", "1", "0.75", "5e-324")
TOLS = ("5e-324", "1e-9", "0.5", "1e300")
SIZES = (1, 2, 3, 10, 2**26, 2**40, 2**53)
# values the parser refuses: past a limit, or not a number at all
REFUSED = ("0", "-1", "nan", "inf", "1e309", "1e-400", "x", "", str(2**53 + 1), "1.5e0x")
# cobb_douglas field values a document may carry: valid, out of range, or of another type
DOCUMENT_VALUES = (0.0, 0.5, 1.0, 1.0000001, 2.5, 1e10, 1e-300, 1e308, -1.0, 2.0, 0, True,
                   None, "1", [1.0], "1e309")


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _number(rng, choices, lo, hi):
    """A limit value, a log-uniform draw between ``lo`` and ``hi``, or (rarely) a refused one."""
    roll = rng.random()
    if roll < 0.05:
        return rng.choice(REFUSED)
    return rng.choice(choices) if roll < 0.5 else repr(_log_uniform(rng, lo, hi))


def document(rng):
    """A Cobb-Douglas document: random fields, sometimes an unknown one or no block at all."""
    block = {key: rng.choice(DOCUMENT_VALUES) for key in ("theta", "alpha", "beta")
             if rng.random() < 0.7}
    if rng.random() < 0.1:
        block["gamma"] = 0.5
    doc = {"version": 1, "cobb_douglas": block if rng.random() < 0.95 else [block]}
    return json.dumps(doc).replace('"1e309"', "1e309")


def command_line(rng, game):
    """One ``cobb`` command line of at most ``MAX_ROWS`` rows, ``game`` read at random."""
    command = rng.choice(list(SIZE_FLAGS))
    flag, least, power = SIZE_FLAGS[command]
    gammas = [rng.choice(GAMMAS) if rng.random() < 0.7 else repr(rng.random())
              for _ in range(rng.choice((1, 1, 2, 3)))]
    most = math.isqrt(MAX_ROWS // len(gammas)) if power == 2 else MAX_ROWS // len(gammas)
    count = rng.choice((least, most, rng.randint(least, most)))
    argv = ["cobb", command, flag, str(count), "--gammas", ",".join(gammas)]
    if rng.random() < 0.3:
        argv.insert(2, str(game))
    draws = {"--beta": (BETAS, 1.0000001, 1e10)}
    if command != "frontier":
        draws.update({"--alpha": (ALPHAS, 1e-300, 1e300), "--theta": (THETAS, 1e-9, 1.0),
                      "--tol": (TOLS, 5e-324, 1e300)})
        for size in ("--sizeA", "--sizeB"):
            if rng.random() < 0.7:
                argv += [size, str(rng.choice(SIZES) if rng.random() < 0.6
                                   else round(_log_uniform(rng, 1, 2**53)))]
    for name, (choices, lo, hi) in draws.items():
        if rng.random() < 0.7:
            argv += [name, _number(rng, choices, lo, hi)]
    return argv


@pytest.mark.parametrize("seed", SEEDS)
def test_every_cobb_command_line_ends_in_a_result_or_one_error_line(tmp_path, capsys, seed):
    rng = random.Random(seed)
    game, out = tmp_path / "cd.game", tmp_path / "out.csv"
    for _ in range(RUNS_PER_SEED):
        game.write_text(document(rng), encoding="utf-8")
        argv = [*command_line(rng, game), "-o", str(out)]
        fault = run_contract(argv, capsys)
        assert fault is None, f"{fault}\n  teamgames {' '.join(argv)}\n  {game.read_text()}"
        if out.exists():
            rows = out.read_text(encoding="utf-8").count("\n") - 1
            assert rows <= MAX_ROWS
            out.unlink()


def test_the_fuzzer_reaches_every_command_and_ending(tmp_path, capsys):
    """The drawn command lines run every command to a result, a refusal and a usage error,
    and read documents that load and documents that are refused."""
    game, out = tmp_path / "cd.game", tmp_path / "out.csv"
    endings = set()
    for seed in SEEDS[:2]:
        rng = random.Random(seed)
        for _ in range(RUNS_PER_SEED):
            game.write_text(document(rng), encoding="utf-8")
            argv = command_line(rng, game)
            try:
                with alarm():
                    status = main([*argv, "-o", str(out)])
            except SystemExit as exc:
                status = exc.code
            err = capsys.readouterr().err
            endings.add((argv[1], status))
            if str(game) in argv:
                endings.add(("document", "error: cobb_douglas" in err))
    assert {(command, status) for command in SIZE_FLAGS for status in (0, 1, 2)} <= endings
    assert {("document", False), ("document", True)} <= endings
