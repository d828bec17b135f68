"""A seeded mutation fuzzer over game documents.

Every document the CLI accepts must end in a result or in one ``error:``
line. Small team and TU documents are mutated at random (type swaps,
deletions, duplicates, numbers at and past the float range, NaN, empty and
repeated names) and every document command runs on each, with warnings
raised as errors and an alarm per run. A run passes if it exits 0 with
nothing on stderr, exits 1 with exactly one ``error:`` line, or exits 2 (a
usage error).
"""

import contextlib
import copy
import json
import random
import signal
import traceback
import warnings
from pathlib import Path

import numpy as np
import pytest

from teamgames.cli import main
from teamgames.errors import GameLoadError
from teamgames.game_io import document_for, load_game, parse_document
from random_games import random_st_game, random_tu_game
from teamgames.scenarios import SCENARIOS
from teamgames.st import STGame
from teamgames.tu import random_convex_game

SEEDS = range(6)
DOCUMENTS_PER_SEED = 40
COMMANDS = ("classify", "metrics", "reduce-tu", "graph", "shapley", "core")
ALARM_S = 10

# values a utility is swapped for: near the float limit, or (rarer) past it or NaN, where
# "1e309" is written as a bare JSON number, which reads as inf
EXTREMES = (1e308, -1e308, 1.7e308, -1.7e308, 2**64, -(2**64))
NOT_FINITE = (10**309, -(10**309), float("nan"), "1e309", "NaN")
RAW_NUMBER = "1e309"
OTHER_TYPES = (None, True, 0, 2.5, "x", [], {}, ["a"], {"a": 1})


def _additive_document(n, outcome_of, count, rng):
    """A tabulated additive team game: player i values outcome j at a random ``[i, j]``, and
    coalition S produces outcome ``outcome_of(S)`` of ``count``."""
    outcomes = tuple(f"o{j}" for j in range(count))
    columns = np.array([outcome_of(s) if s else 0 for s in range(1 << n)])
    values = rng.uniform(-2.0, 2.0, size=(n, count)).round(2)
    return document_for(STGame.additive(n, outcomes, columns, values))


def base_documents(seed):
    """Small valid documents of every kind the document commands read: with two players, a
    pair of extremes of opposite sign lands on cells that one difference reads."""
    rng = np.random.default_rng(seed)
    return [
        *(_additive_document(n, lambda s: s.bit_count() - 1, n, rng) for n in (2, 3)),  # sizes
        _additive_document(2, lambda s: s - 1, 3, rng),  # one outcome per coalition
        document_for(random_st_game(2, rng, n_outcomes=2)),
        document_for(random_tu_game(2, rng)),
        document_for(random_convex_game(3, rng)),
        *(copy.deepcopy(doc) for doc in SCENARIOS.values()),
    ]


def _nodes(tree, path=()):
    """Every (path, node) of a document tree, the root first."""
    yield path, tree
    items = tree.items() if isinstance(tree, dict) else enumerate(tree) if isinstance(
        tree, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _set(tree, path, value):
    if not path:
        return value
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return tree


def swap_values(doc, rng: random.Random):
    """``doc`` with one to four utility values swapped for extremes; in half of the documents
    the first two are one magnitude of opposite signs, whose difference overflows."""
    values = [path for path, _ in _nodes(doc) if path[-1:] == ("value",)]
    paths = rng.sample(values, min(len(values), rng.choice((1, 2, 3, 4))))
    extremes = [rng.choice(NOT_FINITE if rng.random() < 0.15 else EXTREMES) for _ in paths]
    if len(paths) > 1 and rng.random() < 0.5:
        extremes[:2] = (lambda x: (x, -x))(rng.choice(EXTREMES[:4]))
    for path, extreme in zip(paths, extremes):
        doc = _set(doc, path, extreme)
    return doc


def mutate(doc, rng: random.Random):
    """``doc`` with one structural mutation: a name, a deletion, a duplicate or a type swap."""
    nodes = list(_nodes(doc))
    kind = rng.choice(("type", "delete", "duplicate", "name"))
    if kind == "name":  # empty, or the same as another string: a repeated name
        names = [(path, node) for path, node in nodes if isinstance(node, str)]
        if names:
            return _set(doc, rng.choice(names)[0], rng.choice(["", *(n for _, n in names)]))
    if kind == "delete":
        containers = [node for _, node in nodes if isinstance(node, (dict, list)) and node]
        if containers:
            node = rng.choice(containers)
            del node[rng.choice(list(node) if isinstance(node, dict) else range(len(node)))]
            return doc
    if kind == "duplicate":
        lists = [node for _, node in nodes if isinstance(node, list) and node]
        if lists:
            node = rng.choice(lists)
            node.insert(rng.randrange(len(node) + 1), copy.deepcopy(rng.choice(node)))
            return doc
    path, node = rng.choice(nodes)
    others = [value for value in OTHER_TYPES if type(value) is not type(node)]
    return _set(doc, path, copy.deepcopy(rng.choice(others)))


def documents(seed):
    """``DOCUMENTS_PER_SEED`` mutated documents as JSON text, from fixed seeds: utilities
    swapped for extremes, and in some a structural mutation as well."""
    rng = random.Random(seed)
    bases = base_documents(seed)
    for _ in range(DOCUMENTS_PER_SEED):
        doc = copy.deepcopy(rng.choice(bases))
        doc = swap_values(doc, rng)
        if rng.random() < 0.3:
            doc = mutate(doc, rng)
        yield json.dumps(doc).replace(f'"{RAW_NUMBER}"', RAW_NUMBER)


class Expired(Exception):
    """The alarm of a run; not an ``OSError`` such as ``TimeoutError``, which ``main`` would
    report as one ``error:`` line and so pass a hung run as a refusal."""


def _expire(signum, frame):
    raise Expired(f"still running after {ALARM_S} s")


@contextlib.contextmanager
def alarm():
    """Raise ``Expired`` in the block once it has run for ``ALARM_S`` seconds."""
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(ALARM_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run_contract(argv, capsys):
    """Why ``main(argv)`` broke the contract, or None."""
    try:
        with alarm(), warnings.catch_warnings():
            warnings.simplefilter("error")
            status = main(argv)
    except SystemExit as exc:
        status = exc.code
    except BaseException as exc:  # a traceback, a warning or the alarm
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        return f"{type(exc).__name__}: {exc} ({Path(frame.filename).name}:{frame.lineno})"
    err = capsys.readouterr().err.splitlines()
    if status == 0 and not err or status == 2:
        return None
    if status == 1 and len(err) == 1 and err[0].startswith("error: "):
        return None
    return f"exit {status} with stderr {err}"


@pytest.mark.parametrize("seed", SEEDS)
def test_every_mutated_document_ends_in_a_result_or_one_error_line(tmp_path, capsys, seed):
    path, out = tmp_path / "fuzz.game", tmp_path / "out"
    faults = {}
    for text in documents(seed):
        path.write_text(text, encoding="utf-8")
        for command in COMMANDS:
            argv = [command, str(path)] + ([] if command == "classify" else ["-o", str(out)])
            fault = run_contract(argv, capsys)
            if fault is not None:
                faults.setdefault(fault, (command, text))
    assert not faults, "\n".join(f"{fault}\n  {command} on {text}"
                                 for fault, (command, text) in faults.items())


def _ending(load):
    """What a load ends in: the document of its game, or its error's message and location."""
    try:
        with alarm(), warnings.catch_warnings():
            warnings.simplefilter("error")
            return document_for(load())
    except GameLoadError as exc:
        return str(exc), exc.location


@pytest.mark.parametrize("seed", SEEDS)
def test_both_entry_points_read_every_mutated_document_alike(tmp_path, seed):
    """``load_game`` of a file and ``parse_document`` of its decoded tree share one reader:
    both build the same game or both raise the same error at the same location. A malformed
    document fails only in ``load_game``, before the reader runs, and is skipped."""
    path = tmp_path / "fuzz.game"
    differ = []
    for text in documents(seed):
        path.write_text(text, encoding="utf-8")
        loaded = _ending(lambda: load_game(path))
        if isinstance(loaded, tuple) and "malformed document" in loaded[0]:
            continue
        parsed = _ending(lambda: parse_document(json.loads(text)))
        if loaded != parsed:
            differ.append(f"{loaded} != {parsed}\n  on {text}")
    assert not differ, "\n".join(differ)


def test_the_fuzzer_reaches_every_ending(tmp_path, capsys):
    """The mutated documents include results, refusals and overflowing values."""
    path, out = tmp_path / "fuzz.game", tmp_path / "out"
    endings = set()
    for seed in SEEDS[:2]:
        for text in documents(seed):
            path.write_text(text, encoding="utf-8")
            for command in ("metrics", "reduce-tu"):
                with alarm():
                    status = main([command, str(path), "-o", str(out)])
                err = capsys.readouterr().err
                endings.add((status, "past the float range" in err))
    assert {(0, False), (1, False), (1, True)} <= endings
