"""Pair-at-a-time reference walks for the chunked array kernels.

These are the nested submask loops the library used before its scans moved
to one chunked pair enumerator. They read games only through the scalar
accessors ``g._v`` and ``g._u`` and walk pairs in ascending (outer, inner)
mask order, so the first violation they report is the one the array
kernels must report too. Sums are accumulated left to right in ascending
player order, as the library adds them.

The structured games are here too as the per-element closures the library
built them from before they became closed forms over arrays, with the same
random draws one value at a time; so are the entry-at-a-time document
loaders that ``game_io`` replaced with its column reader, its table writer
through ``csv.writer`` that it replaced with joined text, and the
Cobb-Douglas cooperation point as differences of per-pair subset
utilities, which ``cobb`` replaced with its group evaluator. The exact
core LP is here with its all-``Fraction`` pricing, which ``exact_lp``
replaced with a float pass and an exact confirmation of Bland's column.
So are the Cobb-Douglas searches one row at a time (a scalar golden
section per rational contribution, a scalar bisection per root), which
``cobb`` replaced with searches over arrays of rows; the path oracle
returns the same ``COBB_COLUMNS`` dict as ``cobb.cooperation_path``, its
quadrant column labelled one row at a time by the if-chain ``quadrant_of``
that ``st.quadrant_labels`` replaced with one array rule. Last come the
helpers only tests use: the submask and disjoint-pair generators, the two
Shapley routes that check ``tu.shapley_value``, and the team-core
membership wrapper.
"""

import csv
import itertools
import math

from array import array
from fractions import Fraction

import numpy as np

from teamgames.cobb import (
    ARGMAX_SCAN,
    ARGMAX_XATOL,
    ROOT_SCAN,
    ROOT_XATOL,
    _group_metrics,
    _group_payoff,
    _group_utility,
    _require_groups,
    _unit_pool_group,
    cd_subset_utility,
)
from teamgames.errors import (
    GameLoadError,
    MissingUtilityError,
    NotReducibleError,
    SizeLimitError,
    StructureError,
)
from teamgames.game_io import (
    ROW_CHUNK,
    _constant,
    _parse_names,
    _parse_subset,
    _parse_value,
    _require,
    format_cell,
)
from teamgames.players import MAX_SUBSET_ARRAY, PlayerSet, subset_label
from teamgames.st import CoopPoint, Quadrant, STGame, coop_point, is_fully_cooperative
from teamgames.tu import TUGame


MAX_PERMUTATION = 8  # n! join orders


def iter_subset_masks(n, *, nonempty=False):
    """All subset masks of an n-player team, ascending."""
    return iter(range(1 if nonempty else 0, 1 << n))


def iter_submasks(mask, *, nonempty=False):
    """All submasks of ``mask``, ascending: the descending submask walk, reversed."""
    subs = []
    s = mask
    while True:
        subs.append(s)
        if s == 0:
            break
        s = (s - 1) & mask
    subs.reverse()
    if nonempty:
        subs = subs[1:] if subs and subs[0] == 0 else subs
    return subs


def disjoint_pairs(n, *, nonempty_b=True):
    """Ordered pairs (A, B) of disjoint coalitions with A nonempty, ascending in (A, B);
    with ``nonempty_b=False`` the pairs with B empty are included."""
    for a_mask in iter_subset_masks(n, nonempty=True):
        rest = ((1 << n) - 1) & ~a_mask
        for b_mask in iter_submasks(rest, nonempty=nonempty_b):
            yield PlayerSet(a_mask), PlayerSet(b_mask)


def _bits(mask):
    return list(PlayerSet(mask))


def _total(values):
    total = 0.0
    for v in values:
        total += v
    return total


# ----------------------------------------------------------------- st


def is_sensible(g, tol=1e-9):
    full = (1 << g.n) - 1
    for a_mask in range(1, full + 1):
        for b_mask in iter_submasks(full & ~a_mask):
            union = a_mask | b_mask
            x = g._v(union)
            if g._u(union, x) - g._u(b_mask, x) < -tol:
                return False
    return True


def is_cohesive(g, s, tol=1e-9):
    for a_mask in iter_submasks(s.mask, nonempty=True):
        for b_mask in iter_submasks(s.mask & ~a_mask, nonempty=True):
            union = a_mask | b_mask
            if g._u(b_mask, g._v(union)) - g._u(b_mask, g._v(b_mask)) < -tol:
                return False
    return True


def is_fully_cooperative(g, tol=1e-9):
    return is_cohesive(g, PlayerSet.full(g.n), tol)


def reduce_to_tu(g, tol=1e-9):
    full = (1 << g.n) - 1
    for a_mask in range(1, full + 1):
        for b_mask in iter_submasks(full & ~a_mask, nonempty=True):
            union = a_mask | b_mask
            x = g._v(union)
            c = g._u(union, x) - g._u(b_mask, x)
            if abs(c) > tol:
                raise NotReducibleError(PlayerSet(a_mask), PlayerSet(b_mask), c)
    table = [0.0] * (full + 1)
    for mask in range(1, full + 1):
        table[mask] = g._u(mask, g._v(mask))
    return TUGame(g.n, table, g.players)


def all_coop_points(g, include_grand=True):
    full = (1 << g.n) - 1
    top = full + 1 if include_grand else full
    return [coop_point(g, PlayerSet(mask)) for mask in range(1, top)]


def quadrant_of(a, c, tol=1e-9, *, closed=False):
    """The band rule one point at a time, as an if-chain on Python floats."""
    if closed:
        if a >= -tol:
            return Quadrant.I if c >= -tol else Quadrant.IV
        return Quadrant.II if c >= -tol else Quadrant.III
    a_sign = 0 if abs(a) <= tol else (1 if a > 0 else -1)
    c_sign = 0 if abs(c) <= tol else (1 if c > 0 else -1)
    if a_sign == 0 and c_sign == 0:
        return Quadrant.ORIGIN
    if a_sign == 0:
        return Quadrant.AXIS_C
    if c_sign == 0:
        return Quadrant.AXIS_A
    if a_sign > 0:
        return Quadrant.I if c_sign > 0 else Quadrant.IV
    return Quadrant.II if c_sign > 0 else Quadrant.III


def check_tables(n, outcomes, consequence, utilities, players=None):
    """The ValueError ``STGame.from_tables`` raises for these tables, or None."""
    players = tuple(players) if players is not None else tuple(str(i) for i in range(n))
    known = set(outcomes)
    full = (1 << n) - 1
    for mask in range(1, full + 1):
        if mask not in consequence:
            return f"consequence map is missing coalition {subset_label(mask, players)}"
        if consequence[mask] not in known:
            return (
                f"consequence of {subset_label(mask, players)} is an undeclared outcome "
                f"{consequence[mask]!r}"
            )
    for (a_mask, outcome), value in utilities.items():
        if not 0 < a_mask <= full:
            return f"utility entry has invalid assessor mask {a_mask}"
        if outcome not in known:
            return f"utility entry references undeclared outcome {outcome!r}"
    for s_mask in range(1, full + 1):
        x = consequence[s_mask]
        for a_mask in iter_submasks(s_mask, nonempty=True):
            if (a_mask, x) not in utilities:
                return (
                    f"missing utility: assessor {subset_label(a_mask, players)} "
                    f"at outcome {x!r} (reachable via coalition "
                    f"{subset_label(s_mask, players)})"
                )
    return None


# ----------------------------------------------------------------- additivity


def find_additive_violation(g, tol=1e-9):
    full = (1 << g.n) - 1
    for s_mask in range(1, full + 1):
        x = g._v(s_mask)
        singles = {a: g._u(1 << a, x) for a in _bits(s_mask)}
        for a_mask in iter_submasks(s_mask, nonempty=True):
            expected = _total(singles[a] for a in _bits(a_mask))
            got = g._u(a_mask, x)
            if abs(got - expected) > tol:
                return (a_mask, s_mask, got, expected)
    return None


def find_coadditive_violation(g, tol=1e-9):
    full = (1 << g.n) - 1
    for s_mask in range(1, full + 1):
        x = g._v(s_mask)
        for a_mask in iter_submasks(s_mask, nonempty=True):
            try:
                expected = _total(g._u(a_mask, g._v(1 << b)) for b in _bits(s_mask))
            except MissingUtilityError:
                return (a_mask, s_mask, None, None)
            got = g._u(a_mask, x)
            if abs(got - expected) > tol:
                return (a_mask, s_mask, got, expected)
    return None


def coalition_row_sums(mat, s_mask):
    """Every row of ``mat`` summed over the columns of coalition S, one coalition at a time."""
    return mat[:, _bits(s_mask)].sum(axis=1)


def extract_matrix(g, tol=1e-9):
    """The perception matrix, or the StructureError the library must raise."""
    n = g.n
    mat = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            try:
                mat[a][b] = g._u(1 << a, g._v(1 << b))
            except MissingUtilityError:
                return StructureError(
                    f"singleton assessment u_{g.players[a]}(V({{{g.players[b]}}})) is missing; "
                    "cannot extract a perception matrix",
                    witness=(1 << a, 1 << b, None, None),
                )
    full = (1 << n) - 1
    for s_mask in range(1, full + 1):
        x = g._v(s_mask)
        row_sums = coalition_row_sums(mat, s_mask)
        for a_mask in iter_submasks(s_mask, nonempty=True):
            expected = float(_total(row_sums[a] for a in _bits(a_mask)))
            got = g._u(a_mask, x)
            if abs(got - expected) > tol:
                return StructureError(
                    f"game is not bi-additive: u at assessor mask {a_mask}, coalition mask "
                    f"{s_mask} is {got}, matrix reconstruction gives {expected}",
                    witness=(a_mask, s_mask, got, expected),
                )
    return mat


def additive_predicates(g, tol=1e-9):
    """(values_ok, coop_ok, gains_ok) of an additive game."""
    full = (1 << g.n) - 1
    values_ok = True
    for s_mask in range(1, full + 1):
        x = g._v(s_mask)
        if any(g._u(1 << a, x) < -tol for a in _bits(s_mask)):
            values_ok = False
            break
    coop_ok = True
    gains_ok = True
    for a_mask in range(1, full + 1):
        for b_mask in iter_submasks(full & ~a_mask, nonempty=True):
            x_union = g._v(a_mask | b_mask)
            x_b = g._v(b_mask)
            gains = [g._u(1 << p, x_union) - g._u(1 << p, x_b) for p in _bits(b_mask)]
            if _total(gains) < -tol:
                coop_ok = False
            if any(gain < -tol for gain in gains):
                gains_ok = False
        if not coop_ok and not gains_ok:
            break
    return values_ok, coop_ok, gains_ok


def coadditive_predicates(g, tol=1e-9):
    """(sensible_ok, outsiders_ok, monotone_ok) of a co-additive game."""
    full = (1 << g.n) - 1
    singleton_outcomes = [g._v(1 << p) for p in range(g.n)]
    outsiders_ok = True
    for b_mask in range(1, full + 1):
        for p in range(g.n):
            if b_mask >> p & 1:
                continue
            if g._u(b_mask, singleton_outcomes[p]) < -tol:
                outsiders_ok = False
                break
        if not outsiders_ok:
            break
    sensible_ok = True
    monotone_ok = True
    for a_mask in range(1, full + 1):
        for b_mask in iter_submasks(full & ~a_mask):
            union = a_mask | b_mask
            deltas = [
                g._u(union, singleton_outcomes[p]) - g._u(b_mask, singleton_outcomes[p])
                for p in _bits(union)
            ]
            if _total(deltas) < -tol:
                sensible_ok = False
            if any(d < -tol for d in deltas):
                monotone_ok = False
        if not sensible_ok and not monotone_ok:
            break
    return sensible_ok, outsiders_ok, monotone_ok


# ----------------------------------------------------------------- tu


def is_superadditive(game, tol=1e-9):
    u = game.u
    full = (1 << game.n) - 1
    for a_mask in range(1, full + 1):
        for b_mask in iter_submasks(full & ~a_mask, nonempty=True):
            if u[a_mask | b_mask] < u[a_mask] + u[b_mask] - tol:
                return False
    return True


def minimal_coalition_cover(n, worth):
    """Bland's-rule revised simplex pricing every column in Fraction, one member
    bit at a time, and recomputing the prices as c_B B^-1 on every pivot."""
    if n < 2:
        raise ValueError("cover program needs at least two players")
    columns = sorted(worth)
    if len(columns) != (1 << n) - 2:
        raise ValueError("worth must cover every proper nonempty coalition")

    zero = Fraction(0)
    one = Fraction(1)
    binv = [[one if r == i else zero for i in range(n)] for r in range(n)]
    basis = [1 << r for r in range(n)]
    xb = [one] * n

    while True:
        cb = [worth[m] for m in basis]
        prices = [sum(cb[r] * binv[r][i] for r in range(n)) for i in range(n)]

        entering = None
        for mask in columns:
            reduced = worth[mask]
            m = mask
            while m:
                low = m & -m
                reduced -= prices[low.bit_length() - 1]
                m ^= low
            if reduced > 0:
                entering = mask
                break  # Bland: first improving column in ascending mask order
        if entering is None:
            value = sum(cb[r] * xb[r] for r in range(n))
            return value, prices

        direction = []
        for r in range(n):
            d = zero
            m = entering
            while m:
                low = m & -m
                d += binv[r][low.bit_length() - 1]
                m ^= low
            direction.append(d)

        leave = None
        best_ratio = None
        for r in range(n):
            if direction[r] > 0:
                ratio = xb[r] / direction[r]
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = r

        pivot = direction[leave]
        binv[leave] = [v / pivot for v in binv[leave]]
        xb[leave] /= pivot
        for r in range(n):
            if r != leave and direction[r] != 0:
                d = direction[r]
                row_l = binv[leave]
                binv[r] = [binv[r][i] - d * row_l[i] for i in range(n)]
                xb[r] -= d * xb[leave]
        basis[leave] = entering


def shapley_value_stratified(game):
    """Shapley allocation by size strata: average within each coalition size, then over
    the n sizes, enumerated through ``itertools.combinations``."""
    n = game.n
    u = game.u
    phi = np.zeros(n)
    for i in range(n):
        rest = [j for j in range(n) if j != i]
        bit = 1 << i
        total = 0.0
        for k in range(n):
            layer = 0.0
            for combo in itertools.combinations(rest, k):
                s_mask = 0
                for j in combo:
                    s_mask |= 1 << j
                layer += u[s_mask | bit] - u[s_mask]
            total += layer / math.comb(n - 1, k)
        phi[i] = total / n
    return phi


def shapley_by_permutations(game):
    """Average marginal gains over all n! join orders."""
    n = game.n
    if n > MAX_PERMUTATION:
        raise SizeLimitError(f"permutation enumeration supports n <= {MAX_PERMUTATION}, got {n}")
    u = game.u
    phi = np.zeros(n)
    for order in itertools.permutations(range(n)):
        mask = 0
        prev = 0.0
        for i in order:
            mask |= 1 << i
            cur = u[mask]
            phi[i] += cur - prev
            prev = cur
    return phi / math.factorial(n)


def random_convex_game(n, rng, scale=1.0):
    table = np.zeros(1 << n)
    for carrier in range(1, 1 << n):
        coeff = rng.uniform(0.0, scale)
        for mask in range(carrier, 1 << n):
            if mask & carrier == carrier:
                table[mask] += coeff
    return TUGame(n, table)


def unanimity_game(n, carrier):
    table = np.zeros(1 << n)
    for mask in range(1, 1 << n):
        if mask & carrier.mask == carrier.mask:
            table[mask] = 1.0
    return TUGame(n, table)


# ----------------------------------------------------------------- structured games


def from_ntu(n, outcomes, consequence, individual, players=None):
    cons_fn = consequence if callable(consequence) else (lambda s: consequence[s.mask])

    def utility(a, outcome):
        return sum(individual[p][outcome] for p in a)

    return STGame.from_functions(n, outcomes, cons_fn, utility, players)


def random_additive_game(n, rng, *, nonnegative=False, monotone=False):
    full = (1 << n) - 1
    outcomes = tuple(range(1, full + 1))
    lo = 0.0 if nonnegative else -1.0
    individual = {p: {} for p in range(n)}
    for p in range(n):
        for mask in outcomes:
            if monotone:
                individual[p][mask] = 0.25 * mask.bit_count() + float(rng.uniform(0.0, 0.2))
            else:
                individual[p][mask] = float(rng.uniform(lo, 1.0))
    return from_ntu(n, outcomes, {mask: mask for mask in outcomes}, individual)


def random_coadditive_game(n, rng, *, monotone=False):
    full = (1 << n) - 1
    outcomes = tuple(range(1, full + 1))
    perception = {}
    for a_mask in range(1, full + 1):
        for b in range(n):
            if monotone:
                perception[(a_mask, b)] = 0.3 * a_mask.bit_count() + float(rng.uniform(0.0, 0.2))
            else:
                perception[(a_mask, b)] = float(rng.uniform(-1.0, 1.0))

    def utility(a, outcome):
        return sum(perception[(a.mask, b)] for b in PlayerSet(int(outcome)))

    return STGame.from_functions(n, outcomes, lambda s: s.mask, utility)


def biadditive_game(matrix):
    mat = matrix.m

    def utility(a, outcome):
        return float(sum(mat[x][b] for x in a for b in PlayerSet(int(outcome))))

    outcomes = tuple(range(1, 1 << matrix.n))
    return STGame.from_functions(matrix.n, outcomes, lambda s: s.mask, utility)


def st_game_view(scheme, cfg, profile):
    def utility(a, outcome):
        return cd_subset_utility(scheme, cfg, profile, a, PlayerSet(int(outcome)))

    outcomes = tuple(range(1, 1 << len(profile)))
    return STGame.from_functions(len(profile), outcomes, lambda s: s.mask, utility)


def in_st_core(n, outcomes, consequence, utilities, tol=1e-9, players=None):
    """Does this utility table make the consequence function fully cooperative?"""
    game = STGame.from_tables(n, outcomes, consequence, utilities, players)
    return is_fully_cooperative(game, tol)


def cd_coop_point(scheme, cfg, profile, a, b):
    union = a | b
    b_joint = cd_subset_utility(scheme, cfg, profile, b, union)
    competitive = cd_subset_utility(scheme, cfg, profile, union, union) - b_joint
    altruism = b_joint - cd_subset_utility(scheme, cfg, profile, b, b) if b else 0.0
    return CoopPoint(altruism, competitive, altruism + competitive, subset=a)


# ----------------------------------------------------------------- game_io


def parse_tu(doc):
    index = _parse_names(doc, "players", "player", "player names")
    players, n = list(index), len(index)
    if n > MAX_SUBSET_ARRAY:
        raise GameLoadError(f"TU games support 1..{MAX_SUBSET_ARRAY} players, got {n}", "players")
    entries = _require(doc, "utilities", list, "utilities")
    table = np.zeros(1 << n)
    seen = {}
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


def parse_st(doc):
    index = _parse_names(doc, "players", "player", "player names")
    players, n = list(index), len(index)
    column_of = _parse_names(doc, "outcomes", "outcome", "outcome ids")
    outcomes = list(column_of)

    cons_entries = _require(doc, "consequence", list, "consequence")
    consequence = {}
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
    seen = set()
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
    try:
        return STGame.from_entries(
            n, tuple(outcomes), columns, assessors, positions, values, tuple(players)
        )
    except SizeLimitError as exc:
        raise GameLoadError(str(exc), "outcomes") from None
    except ValueError as exc:
        raise GameLoadError(str(exc), "utilities") from None


# ----------------------------------------------------------------- table writer


def _format_slice(cells):
    """Unquoted text of one column slice, its formatter chosen once for the whole slice."""
    if _constant(cells):
        first = cells[:1].tolist() if isinstance(cells, np.ndarray) else cells[:1]
        return itertools.repeat(format_cell(first[0]), len(cells))
    if isinstance(cells, np.ndarray):
        if cells.dtype == np.float64:
            return map(float.__repr__, cells.tolist())
        cells = cells.tolist()
    return map(format_cell, cells)


def write_table(tables, columns, path):
    """``game_io.write_table`` as it was before rows were joined as text: ``csv.writer`` rows."""
    columns = list(columns)
    rows = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for table in tables:
            cols = [table[c] for c in columns]
            count = len(cols[0]) if cols else 0
            for lo in range(0, count, ROW_CHUNK):
                writer.writerows(zip(*(_format_slice(c[lo:lo + ROW_CHUNK]) for c in cols)))
            rows += count
    return rows


# ----------------------------------------------------------------- cobb searches


def golden_max(fn, lo, hi, xatol):
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    inv_phi2 = (3.0 - math.sqrt(5.0)) / 2.0
    span = hi - lo
    if span <= xatol:
        return (lo + hi) / 2.0
    steps = int(math.ceil(math.log(xatol / span) / math.log(inv_phi)))
    c = lo + inv_phi2 * span
    d = lo + inv_phi * span
    yc = fn(c)
    yd = fn(d)
    for _ in range(steps - 1):
        if yc > yd:
            hi = d
            d = c
            yd = yc
            span *= inv_phi
            c = lo + inv_phi2 * span
            yc = fn(c)
        else:
            lo = c
            c = d
            yc = yd
            span *= inv_phi
            d = lo + inv_phi * span
            yd = fn(d)
    return (lo + d) / 2.0 if yc > yd else (c + hi) / 2.0


def maximize_scalar(fn, lo, hi):
    """One row: scan on a 1-D grid, golden section on numbers, candidates one at a time."""
    if hi < lo:
        raise ValueError("empty bracket")
    if hi == lo:
        return lo
    grid = np.linspace(lo, hi, ARGMAX_SCAN + 1)
    best_i = int(np.argmax(np.broadcast_to(fn(grid), grid.shape)))
    bracket_lo = float(grid[max(best_i - 1, 0)])
    bracket_hi = float(grid[min(best_i + 1, ARGMAX_SCAN)])
    refined = golden_max(fn, bracket_lo, bracket_hi, ARGMAX_XATOL)
    candidates = sorted({lo, hi, float(grid[best_i]), refined})
    best_x = candidates[0]
    best_y = fn(best_x)
    for x in candidates[1:]:
        y = fn(x)
        if y > best_y:
            best_x, best_y = x, y
    return best_x


def best_response(scheme, cfg, size, others_total, team_size, cap=1.0, pool=1.0):
    def utility(v):
        coalition = (size * v + others_total, team_size)
        return _group_utility(scheme, cfg, (v, 1, pool - v), coalition)[1]

    return maximize_scalar(utility, 0.0, cap)


def altruism_roots(scheme, cfg, size_a, size_b, x_b_total, *, tol=1e-9):
    """One row: a 1-D sign scan, then a scalar bisection per sign change."""
    _require_groups(size_a, size_b)
    if not 0.0 <= x_b_total <= size_b:
        raise ValueError(f"x_B must lie in [0, {size_b}], got {x_b_total}")
    size = size_a + size_b
    alone = _group_payoff(scheme, cfg, x_b_total, size_b, x_b_total, size_b)

    def altruism(x_a_total):
        return _group_payoff(scheme, cfg, x_b_total, size_b, x_a_total + x_b_total, size) - alone

    grid = np.linspace(0.0, float(size_a), ROOT_SCAN + 1)
    values = altruism(grid)
    near = np.abs(values) <= tol
    negative = values < 0
    crossing = ~near[:-1] & ~near[1:] & (negative[:-1] != negative[1:])
    roots = grid[near].tolist()
    for i in np.flatnonzero(crossing).tolist():
        lo, hi = grid[i].item(), grid[i + 1].item()
        f_lo = values[i].item()
        while hi - lo > ROOT_XATOL:
            mid = (lo + hi) / 2.0
            if mid in (lo, hi):
                break
            f_mid = altruism(mid)
            if f_mid == 0.0:
                lo = hi = mid
                break
            if (f_mid < 0) == (f_lo < 0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        roots.append((lo + hi) / 2.0)
    roots.sort()
    return roots


def cooperation_path(scheme, cfg, size_a, size_b, samples=101, tol=1e-9):
    """One best response per row, then the path's columns, each row's quadrant on its own."""
    if samples < 2:
        raise ValueError("need at least 2 samples")
    _require_groups(size_a, size_b)
    x_b = np.linspace(0.0, 1.0, samples).tolist()
    team = size_a + size_b
    x_a = [best_response(scheme, cfg, size_a, size_b * t, team) for t in x_b]
    group_a, group_b = _unit_pool_group(size_a, x_a), _unit_pool_group(size_b, x_b)
    pay, utility, alt, comp, marginal = (
        v.tolist() for v in _group_metrics(scheme, cfg, group_a, group_b))
    n = samples
    return {
        "gamma": [scheme.mix] * n, "theta": [cfg.theta] * n, "beta": [cfg.beta] * n,
        "sizeA": [size_a] * n, "sizeB": [size_b] * n, "xA_avg": x_a, "xB_avg": x_b,
        "payoff": pay, "utility": utility, "altruism": alt, "competitive": comp,
        "marginal": marginal,
        "quadrant": [quadrant_of(a, c, tol).value for a, c in zip(alt, comp)],
    }


def rational_table(scheme, cfg, size_a, size_b, resolution=101, tol=1e-9):
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    x_b = [k / (resolution - 1) for k in range(resolution)]
    x_a, zero = [], []
    for t in x_b:
        x_a.append(best_response(scheme, cfg, size_a, size_b * t, size_a + size_b))
        roots = altruism_roots(scheme, cfg, size_a, size_b, t * size_b, tol=tol)
        zero.append(roots[0] / size_a if roots else None)
    n = resolution
    return {
        "gamma": [scheme.mix] * n, "theta": [cfg.theta] * n, "beta": [cfg.beta] * n,
        "sizeA": [size_a] * n, "sizeB": [size_b] * n, "xB_avg": x_b, "xA_rational": x_a,
        "zero_altruism_xA": zero,
    }
