"""Float sums keep their bits whatever ``sum`` does.

From Python 3.12 the builtin ``sum`` adds floats with compensation (Neumaier's
variant of Kahan summation), so a result read through it can change its last bits
with the interpreter. The library adds its float terms left to right from 0.0, as
``players.member_sum`` and the closures do; these tests patch ``sum`` with a
compensated one and check that every such result, and every recorded table, keeps
its bits.
"""

import builtins

import pytest

import test_cli
import test_cobb
from teamgames.additivity import (
    BiAdditiveMatrix, additive_metrics, coadditive_metrics, export_graph, fast_metrics,
)
from teamgames.cobb import ContributionProfile
from teamgames.players import PlayerSet
from teamgames.st import STGame

_builtin_sum = builtins.sum


def _compensated_sum(terms, start=0):
    """``sum`` as Python 3.12 adds floats: a running total with Neumaier's correction.
    Terms that are not all floats are added by the builtin, so integer sums stay exact."""
    terms = list(terms)
    if not terms or not all(isinstance(term, float) for term in terms):
        return _builtin_sum(terms, start)
    total, carry = float(start), 0.0
    for term in terms:
        step = total + term
        carry += (total - step) + term if abs(total) >= abs(term) else (term - step) + total
        total = step
    return total + carry


def _left_to_right(terms):
    total = 0.0
    for term in terms:
        total += term
    return total


BIG = 1e16  # 1 added to it is lost; a compensated sum keeps it
M = [[BIG, 1.0, 1.0, 1.0], [BIG, 1.0, 1.0, 1.0], [1.0] * 4, [1.0] * 4]
W = [BIG, 1.0, 1.0, 0.0]  # per-player stakes of the 4-player game below


def _staked_game():
    """A 4-player game (outcomes the coalition masks) whose singletons value the grand
    coalition's outcome at ``W``, and in which {3} and the team value a one-player
    outcome {p} at W[p] and 2 W[p]; every other cell reads 0."""
    def utility(a, outcome):
        if outcome == 15 and len(a) == 1:
            return W[a.members()[0]]
        if len(PlayerSet(outcome)) == 1:
            return {8: 1.0, 15: 2.0}.get(a.mask, 0.0) * W[PlayerSet(outcome).members()[0]]
        return 0.0

    return STGame.from_functions(4, range(1, 16), lambda s: s.mask, utility)


def _cases():
    """(name, call, the terms it adds in order)."""
    matrix = BiAdditiveMatrix(4, M)
    team, first, rest = PlayerSet.full(4), PlayerSet.of(0), PlayerSet.of(1, 2, 3)
    graph = export_graph(matrix)
    game, three, last = _staked_game(), PlayerSet.of(0, 1, 2), PlayerSet.of(3)
    profile = ContributionProfile.create([BIG, 1.0, 1.0], [2 * BIG, 2.0, 2.0])
    return [
        ("utility", lambda: matrix.utility(team, team), [v for row in M for v in row]),
        ("fast competitive", lambda: fast_metrics(matrix, first, rest).competitive, M[0]),
        ("fast altruism", lambda: fast_metrics(matrix, first, rest).altruism,
         [M[x][0] for x in (1, 2, 3)]),
        ("additive competitive", lambda: additive_metrics(game, three, last).competitive, W[:3]),
        ("co-additive altruism", lambda: coadditive_metrics(game, three, last).altruism, W[:3]),
        ("co-additive competitive", lambda: coadditive_metrics(game, three, last).competitive,
         W),
        ("out weight", lambda: graph.out_weight(first), [M[x][0] for x in (1, 2, 3)]),
        ("in weight", lambda: graph.in_weight(PlayerSet.of(0, 1)),
         [M[dst][src] for src in range(4) for dst in (0, 1)]),
        ("total", lambda: profile.total(three), [BIG, 1.0, 1.0]),
        ("reserve", lambda: profile.reserve(three), [BIG, 1.0, 1.0]),
    ]


@pytest.mark.parametrize("case", range(len(_cases())), ids=[name for name, *_ in _cases()])
def test_float_sums_keep_their_bits_under_a_compensated_sum(monkeypatch, case):
    _, call, terms = _cases()[case]
    want = _left_to_right(terms)
    assert _compensated_sum(terms) != want  # the patched sum would show
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    got = call()
    assert type(got) is float and got.hex() == want.hex()


def _parametrized(test):
    """The argument values of a test's one ``parametrize`` mark."""
    (mark,) = [mark for mark in test.pytestmark if mark.name == "parametrize"]
    return mark.args[1]


def test_recorded_tables_pass_under_a_compensated_sum(tmp_path, monkeypatch):
    """The recorded tables of ``tests/golden``, each checked by its own test."""
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    exact = test_cli.TestDeterminism.test_tables_match_recorded_bytes
    for k, (name, argv) in enumerate(_parametrized(exact)):
        (tmp_path / f"exact{k}").mkdir()
        exact(test_cli.TestDeterminism(), tmp_path / f"exact{k}", monkeypatch, name, argv)
    closed = test_cobb.TestClosedForm.test_cli_tables_match_recorded_ones
    for k, (name, argv) in enumerate(_parametrized(closed)):
        (tmp_path / f"closed{k}").mkdir()
        closed(test_cobb.TestClosedForm(), tmp_path / f"closed{k}", name, argv)
