"""Seeded game documents for the benchmark, built with the standard library only.

The generator does not use ``teamgames.random_games`` so that benchmark
inputs stay fixed when the library changes. Every document comes with a
``Facts`` record: the predicate answers the document has by construction
and a utility function the oracles evaluate independently of the library.

All values are dyadic rationals (multiples of 1/8 or 1/4) of small size, so
every sum the library forms is exact in binary floating point.

Document families
-----------------
``size-additive``   team game, outcome depends only on coalition size,
                    u_A(k) = k * sum_{a in A} c_a: sensible, fully
                    cooperative, additive, co-additive, bi-additive, not
                    reducible.
``size-compfree``   team game, outcome depends only on coalition size,
                    u_A(k) = v(k) for every assessor, v increasing and
                    strictly convex: sensible, fully cooperative,
                    reducible, neither additive nor co-additive.
``coalition-biadditive``  one outcome per coalition, u_A(S) = sum m[a][b]
                    over a in A, b in S with m >= 0.
``coalition-compfree``    one outcome per coalition, u_A(S) = v(S) for
                    every assessor, v monotone.
``tu-convex``       nonnegative combination of unanimity games.
``tu-planted``      random worths below a planted core allocation.
``tu-empty``        random worths with the grand worth planted below the
                    balanced collection of (n-1)-coalitions.

Size families accept ``violate=True``: two entries at the pair ({0}, {j})
are lowered so that the sensible, cohesion, additivity, co-additivity and
reducibility scans all meet a violation within their first few pairs.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path


def player_names(n: int) -> list[str]:
    return [chr(ord("A") + i) for i in range(n)]


def members(mask: int) -> list[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def submasks_ascending(mask: int) -> list[int]:
    subs = []
    s = mask
    while True:
        subs.append(s)
        if s == 0:
            break
        s = (s - 1) & mask
    subs.reverse()
    return subs


@dataclass
class Facts:
    """What a generated document is by construction."""

    name: str
    family: str
    n: int
    predicates: dict
    # team games: u(assessor mask, coalition mask) -> value of V(coalition)
    utility: object = None
    # bi-additive games: perception matrix m[a][b]
    matrix: list | None = None
    # TU games and reducible team games: worth by coalition mask (index 0 = 0)
    worth: list | None = None
    # first pair with nonzero competitive contribution, as (a_mask, b_mask, value)
    witness: tuple | None = None
    # TU games: exact Shapley value
    shapley: list | None = None

    def summary(self) -> dict:
        out = {"name": self.name, "family": self.family, "n": self.n,
               "predicates": self.predicates}
        if self.witness is not None:
            out["reduce_witness"] = list(self.witness)
        return out


def _dyadic(rng: random.Random, lo: int, hi: int, denom: int = 8) -> float:
    return rng.randint(lo, hi) / denom


def _team_document(n: int, outcomes: list[str], outcome_of, entries) -> dict:
    names = player_names(n)

    def label(mask):
        return [names[i] for i in members(mask)]

    full = (1 << n) - 1
    return {
        "version": 1,
        "players": names,
        "outcomes": outcomes,
        "consequence": [
            {"subset": label(s), "outcome": outcome_of(s)} for s in range(1, full + 1)
        ],
        "utilities": [
            {"subset": label(a), "outcome": x, "value": v} for a, x, v in entries
        ],
    }


def size_game(name: str, n: int, family: str, rng: random.Random,
              violate: bool) -> tuple[dict, Facts]:
    """Team game whose outcome depends only on coalition size (n(2^n-1) entries)."""
    full = (1 << n) - 1
    if family == "size-additive":
        c = [_dyadic(rng, 1, 32) for _ in range(n)]

        def base(a_mask, k):
            return k * sum(c[i] for i in members(a_mask))
    elif family == "size-compfree":
        s = _dyadic(rng, 4, 32)
        t = _dyadic(rng, 1, 16)
        v = [0.0] + [s * k + t * k * (k - 1) / 2 for k in range(1, n + 1)]

        def base(a_mask, k):
            return v[k]
    else:
        raise ValueError(family)

    overrides: dict[tuple[int, int], float] = {}
    if violate:
        j = rng.randint(1, 3)
        d1 = _dyadic(rng, 1, 16)
        d2 = _dyadic(rng, 1, 16)
        low = base(1 << j, 1) - d1          # below the stand-alone value: not cohesive
        overrides[(1 << j, 2)] = low
        overrides[(1 | 1 << j, 2)] = low - d2  # below the bystander's view: not sensible

    def u_size(a_mask, k):
        return overrides.get((a_mask, k), base(a_mask, k))

    entries = [
        (a, f"k{k}", u_size(a, k)) for a in range(1, full + 1) for k in range(1, n + 1)
    ]
    doc = _team_document(n, [f"k{k}" for k in range(1, n + 1)],
                         lambda s: f"k{s.bit_count()}", entries)

    if family == "size-additive":
        preds = dict(sensible=True, fully_cooperative=True, additive=True,
                     coadditive=True, reducible=False)
        matrix = [[c[a]] * n for a in range(n)]
    else:
        preds = dict(sensible=True, fully_cooperative=True, additive=False,
                     coadditive=False, reducible=True)
        matrix = None
    if violate:
        preds = dict(sensible=False, fully_cooperative=False, additive=False,
                     coadditive=False, reducible=False)
        matrix = None
    preds["biadditive"] = preds["additive"] and preds["coadditive"]

    def utility(a_mask, s_mask):
        return u_size(a_mask, s_mask.bit_count())

    facts = Facts(name, family, n, preds, utility=utility, matrix=matrix)
    if preds["reducible"]:
        facts.worth = [0.0] + [u_size(m, m.bit_count()) for m in range(1, full + 1)]
    else:
        facts.witness = first_competitive_pair(n, utility)
    return doc, facts


def first_competitive_pair(n: int, utility, tol: float = 1e-9):
    """First (A, B) in ascending mask order whose competitive part is nonzero."""
    full = (1 << n) - 1
    for a in range(1, full + 1):
        for b in submasks_ascending(full & ~a)[1:]:
            union = a | b
            c = utility(union, union) - utility(b, union)
            if abs(c) > tol:
                return (a, b, c)
    return None


def coalition_game(name: str, n: int, family: str, rng: random.Random) -> tuple[dict, Facts]:
    """Team game with one outcome per coalition (3^n - 2^n reachable entries)."""
    full = (1 << n) - 1
    entries = []
    if family == "coalition-biadditive":
        m = [[rng.randint(0, 16) / 4 for _ in range(n)] for _ in range(n)]
        for s in range(1, full + 1):
            cols = members(s)
            row = [sum(m[a][b] for b in cols) for a in range(n)]
            val = {0: 0.0}
            for a in submasks_ascending(s)[1:]:
                low = (a & -a).bit_length() - 1
                val[a] = val[a & (a - 1)] + row[low]
                entries.append((a, f"o{s}", val[a]))
        # assessments of singleton outcomes by every subset, so that the
        # co-additivity detector sees a total table
        for b in range(n):
            for a in range(1, full + 1):
                if a != 1 << b:
                    entries.append((a, f"o{1 << b}", sum(m[x][b] for x in members(a))))

        def utility(a_mask, s_mask):
            return sum(m[a][b] for a in members(a_mask) for b in members(s_mask))

        preds = dict(sensible=True, fully_cooperative=True, additive=True,
                     coadditive=True, reducible=False)
        facts = Facts(name, family, n, preds, utility=utility, matrix=m)
        facts.witness = first_competitive_pair(n, utility)
    elif family == "coalition-compfree":
        worth = [0.0] * (full + 1)
        for s in range(1, full + 1):
            # above every coalition one player smaller, hence monotone
            worth[s] = max(worth[s ^ (1 << i)] for i in members(s)) + _dyadic(rng, 1, 16)
        for s in range(1, full + 1):
            for a in submasks_ascending(s)[1:]:
                entries.append((a, f"o{s}", worth[s]))

        def utility(a_mask, s_mask):
            return worth[s_mask]

        preds = dict(sensible=True, fully_cooperative=True, additive=False,
                     coadditive=False, reducible=True)
        facts = Facts(name, family, n, preds, utility=utility, worth=worth)
    else:
        raise ValueError(family)
    preds["biadditive"] = preds["additive"] and preds["coadditive"]
    doc = _team_document(n, [f"o{s}" for s in range(1, full + 1)], lambda s: f"o{s}", entries)
    return doc, facts


def tu_game(name: str, n: int, family: str, rng: random.Random) -> tuple[dict, Facts]:
    """TU game whose worths are multiples of 1/8."""
    full = (1 << n) - 1
    eighths = [0] * (full + 1)  # worth * 8, exact integers
    if family == "tu-convex":
        for t in range(1, full + 1):
            coeff = rng.randint(0, 16)
            rest = full & ~t
            for extra in submasks_ascending(rest):
                eighths[t | extra] += coeff
    elif family == "tu-planted":
        x = [rng.randint(-16, 32) for _ in range(n)]
        for s in range(1, full):
            eighths[s] = sum(x[i] for i in members(s)) - rng.choice((0, 0, 1, 2, 4, 8, 16))
        eighths[full] = sum(x)
    elif family == "tu-empty":
        for s in range(1, full):
            eighths[s] = rng.randint(-8, 24)
        balanced = sum(eighths[full & ~(1 << i)] for i in range(n))  # / (n-1)
        eighths[full] = balanced // (n - 1) - rng.randint(1, 8)
    else:
        raise ValueError(family)
    worth = [e / 8 for e in eighths]
    preds = {
        "convex": _is_convex(n, eighths),
        "superadditive": _is_superadditive(n, eighths),
        "core_nonempty": family != "tu-empty",
    }
    facts = Facts(name, family, n, preds, worth=worth, shapley=shapley_exact(n, eighths))
    doc = {
        "version": 1,
        "players": player_names(n),
        "utilities": [
            {"subset": [player_names(n)[i] for i in members(s)], "value": worth[s]}
            for s in range(1, full + 1)
        ],
    }
    return doc, facts


def _is_convex(n: int, w: list[int]) -> bool:
    full = (1 << n) - 1
    for i in range(n):
        for j in range(i + 1, n):
            bi, bj = 1 << i, 1 << j
            for s in submasks_ascending(full & ~(bi | bj)):
                if w[s | bi] - w[s] > w[s | bi | bj] - w[s | bj]:
                    return False
    return True


def _is_superadditive(n: int, w: list[int]) -> bool:
    full = (1 << n) - 1
    for a in range(1, full + 1):
        wa = w[a]
        for b in submasks_ascending(full & ~a)[1:]:
            if w[a | b] < wa + w[b]:
                return False
    return True


def shapley_exact(n: int, w: list[int]) -> list[Fraction]:
    """Shapley value of worths w / 8, in exact rational arithmetic."""
    fact = [math.factorial(k) for k in range(n + 1)]
    weight = [fact[k] * fact[n - k - 1] for k in range(n)]
    phi = []
    for i in range(n):
        bit = 1 << i
        total = 0
        for s in range(1 << n):
            if not s & bit:
                total += weight[s.bit_count()] * (w[s | bit] - w[s])
        phi.append(Fraction(total, 8 * fact[n]))
    return phi


def write(doc: dict, facts: Facts, directory: Path) -> Path:
    """Write a document and its facts sidecar; returns the document path."""
    path = directory / f"{facts.name}.game"
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
    (directory / f"{facts.name}.facts.json").write_text(
        json.dumps(facts.summary(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path
