"""Player sets represented as bit masks.

Players carry indices 0..n-1 and a coalition is the set of indices whose
bits are set in ``mask``. Bit masks keep the subset algebra cheap and give
every enumeration a canonical order: ascending mask value.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import DisjointnessError, SizeLimitError
from .limits import MAX_PAIR_SCAN, MAX_SUBSET_ARRAY

MAX_PLAYERS = 64


@dataclass(frozen=True)
class PlayerSet:
    """Immutable set of player indices backed by a 64-bit mask."""

    mask: int = 0

    def __post_init__(self):
        if self.mask < 0:
            raise ValueError("player mask must be nonnegative")
        if self.mask >> MAX_PLAYERS:
            raise ValueError(f"player indices must lie below {MAX_PLAYERS}")

    @classmethod
    def of(cls, *players: int) -> PlayerSet:
        return cls.from_players(players)

    @classmethod
    def from_players(cls, players: Iterable[int]) -> PlayerSet:
        mask = 0
        for p in players:
            if not 0 <= p < MAX_PLAYERS:
                raise ValueError(f"player index {p} out of range")
            mask |= 1 << p
        return cls(mask)

    @classmethod
    def full(cls, n: int) -> PlayerSet:
        """The grand coalition of players 0..n-1."""
        if not 0 <= n <= MAX_PLAYERS:
            raise ValueError(f"team size {n} out of range")
        return cls((1 << n) - 1)

    @classmethod
    def empty(cls) -> PlayerSet:
        return cls(0)

    def members(self) -> tuple[int, ...]:
        return tuple(self)

    def fits(self, n: int) -> bool:
        """True when every member index lies below ``n``."""
        return self.mask < (1 << n)

    def complement(self, n: int) -> PlayerSet:
        return PlayerSet(((1 << n) - 1) & ~self.mask)

    def isdisjoint(self, other: PlayerSet) -> bool:
        return not self.mask & other.mask

    def issubset(self, other: PlayerSet) -> bool:
        return self.mask & other.mask == self.mask

    def __contains__(self, player: int) -> bool:
        return 0 <= player < MAX_PLAYERS and bool(self.mask >> player & 1)

    def __iter__(self) -> Iterator[int]:
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __or__(self, other: PlayerSet) -> PlayerSet:
        return PlayerSet(self.mask | other.mask)

    def __and__(self, other: PlayerSet) -> PlayerSet:
        return PlayerSet(self.mask & other.mask)

    def __sub__(self, other: PlayerSet) -> PlayerSet:
        return PlayerSet(self.mask & ~other.mask)

    def __le__(self, other: PlayerSet) -> bool:
        return self.issubset(other)

    def __repr__(self) -> str:
        return f"PlayerSet.of({', '.join(map(str, self))})"


def require_disjoint(a: PlayerSet, b: PlayerSet) -> None:
    """Refuse two coalitions that share a player."""
    if not a.isdisjoint(b):
        raise DisjointnessError(f"{a} and {b} overlap")


def require_fit(n: int, a: PlayerSet, b: PlayerSet) -> None:
    """Refuse two sets with a member outside an n-player team."""
    if not (a | b).fits(n):
        raise ValueError(f"{a} and {b} do not fit a {n}-player team")


def player_names(n: int, players=None) -> tuple[str, ...]:
    """The given names of n players, or "0".."n-1" for ``None``."""
    names = tuple(players) if players is not None else tuple(map(str, range(n)))
    if len(names) != n:
        raise ValueError("player name list must match the player count")
    return names


def subset_label(mask: int, players) -> str:
    """A coalition as ``{a,b}``, its members' names in player order."""
    return "{" + ",".join(players[i] for i in PlayerSet(mask)) + "}"


def subsets(n: int, *, nonempty: bool = False) -> Iterator[PlayerSet]:
    """All coalitions of an n-player team as PlayerSets, ascending mask order."""
    for mask in range(1 if nonempty else 0, 1 << n):
        yield PlayerSet(mask)


def subset_sums(terms) -> np.ndarray:
    """For every mask S below 2^n, the sum of ``terms[i]`` (a number or a row) over the
    players i in S. The table doubles once per player, so each sum adds its terms in
    ascending player order from 0, as :func:`member_sum` does."""
    terms = np.asarray(terms)
    sums = np.zeros((1 << len(terms),) + terms.shape[1:], dtype=terms.dtype)
    for i, term in enumerate(terms):
        np.add(sums[:1 << i], term, out=sums[1 << i:2 << i])
    return sums


def lattice_halves(table: np.ndarray, i: int) -> np.ndarray:
    """A C-contiguous 2^n table as a (2^(n-i-1), 2, 2^i, ...) view: ``[:, 0]`` holds the masks
    without player i, ascending, and ``[:, 1]`` the same masks with i."""
    return table.reshape(-1, 2, 1 << i, *table.shape[1:])


def subset_closure(table: np.ndarray, ufunc) -> np.ndarray:
    """Close a C-contiguous 2^n table in place along axis 0 and return it: ``table[S]``
    becomes ``ufunc`` folded over ``table[B]`` for every submask B of S (the zeta
    transform of the subset lattice), in one pass per player."""
    for i in range(len(table).bit_length() - 1):
        halves = lattice_halves(table, i)
        ufunc(halves[:, 1], halves[:, 0], out=halves[:, 1])
    return table


def mask_sizes(n: int) -> np.ndarray:
    """Popcount of every mask below 2^n."""
    return subset_sums(np.ones(n, dtype=np.int64))


def member_sum(n: int, members, term) -> np.ndarray:
    """Per element of ``members``, the sum of ``term(i, sel)`` over the players i it holds,
    ``sel`` selecting the elements that hold player i. Terms are added in ascending player
    order, starting from 0, as a left-to-right ``sum`` over the members would add them."""
    total = np.zeros(np.shape(members))
    for i in range(n):
        sel = members & (1 << i) != 0
        total[sel] += term(i, sel)
    return total


@functools.cache
def _byte_tables():
    """``(pext, pdep, popcount)`` over bytes, built on first use: ``pext[m << 8 | v]`` gathers
    the bits of v that byte mask m selects into the low bits, ``pdep[m << 8 | v]`` scatters
    the low bits of v onto the set bits of m, and ``popcount[m]`` counts m's bits (the
    compress and expand of Warren, *Hacker's Delight*, 2nd ed., sections 7-4 and 7-5)."""
    byte = np.arange(256, dtype=np.uint8)  # bytes: 128 KiB in all, an eighth of int64 tables
    m, v = byte[:, None], byte[None, :]  # a table's rows and columns, broadcast
    pext, pdep = (np.zeros((256, 256), dtype=np.uint8) for _ in range(2))
    below = np.zeros_like(m)
    for i in range(8):
        bit = m >> i & 1
        pext |= (v >> i & bit) << below
        pdep |= (v >> below & bit) << i
        below += bit  # set bits of m below bit i + 1
    return pext.ravel(), pdep.ravel(), below.ravel()


def _lookup(table, masks, values, low: int, at: int):
    """``table`` at byte ``low`` of each mask and the byte of its value from bit ``at``, and
    the number of set bits in that mask byte. Built in place, so that at most three arrays
    the size of the values live at once."""
    index = masks >> low
    index &= 255
    count = _byte_tables()[2][index]
    index <<= 8
    byte = values >> at
    byte &= 255
    return table[byte | index], count


def pext(values, masks, width: int):
    """The bits of each value that its mask selects, packed into the low bits in order: the
    rank of a submask among the submasks of its mask. ``width`` bounds the bit positions the
    masks use; values and masks are ints or int64 arrays."""
    out, shift = 0, 0
    for low in range(0, width, 8):
        part, count = _lookup(_byte_tables()[0], masks, values, low, low)
        out |= np.left_shift(part, shift, dtype=np.int64)
        shift = shift + count
    return out


def pdep(values, masks, width: int):
    """The low bits of each value scattered onto the set bits of its mask, in order (the
    inverse of :func:`pext`): ascending values below 2^popcount(mask) map to the submasks
    of that mask in ascending order."""
    out, shift = 0, 0
    for low in range(0, width, 8):
        part, count = _lookup(_byte_tables()[1], masks, values, low, shift)
        out |= np.left_shift(part, low, dtype=np.int64)
        shift = shift + count
    return out


def check_pair_scan(n: int) -> None:
    """Refuse a pair scan or a per-player report past ``MAX_PAIR_SCAN`` players, up front."""
    if n > MAX_PAIR_SCAN:
        raise SizeLimitError(f"disjoint-pair scans support n <= {MAX_PAIR_SCAN}, got {n}")


def check_subset_array(n: int) -> None:
    """Refuse a 2^n-entry array past ``MAX_SUBSET_ARRAY`` players, before it is allocated."""
    if n > MAX_SUBSET_ARRAY:
        raise SizeLimitError(f"arrays over all subsets support n <= {MAX_SUBSET_ARRAY}, got {n}")


# pairs in every chunk of a scan but the last. A scan's test holds about twelve float64
# temporaries of the chunk's length: 0.8 MB at 2^13 pairs (1.6 MB at 2^14). Compared with
# 2^14 (best of 5, ten alternating processes on a 2-core machine), `is_superadditive` on a
# 16-player convex game took 1,330 against 1,287 ms, 3% longer in 9 of 10 runs, and
# `is_coadditive` + `extract_matrix` on a 13-player bi-additive game 353 against 338 ms, slower
# in 6 of 10; on clean 11- and 12-player tables they took the same time (28 and 14 ms, best
# of 7), and 2^12 took 10-15% longer
PAIR_CHUNK = 1 << 13


def mask_pairs(n: int, *, nested: bool = False):
    """Every mask pair of a 3^n scan over players 0..n-1, in chunks of parallel int64 arrays.

    Yields ``(outer, inner)`` arrays ascending in (outer, inner): outer runs
    over the nonempty masks below 2^n; inner over the nonempty submasks of
    outer (``nested``) or of its complement (disjoint). Pairs are numbered in
    that order and each chunk holds the next ``PAIR_CHUNK`` of them, so a
    scan that stops at the first violating entry of a chunk stops at the
    first violating pair. Between chunks two arrays over the outer masks are
    held, whatever the team size; the outer mask at position k is k + 1.
    """
    full = (1 << n) - 1
    sizes = mask_sizes(n)[1:]
    starts = np.left_shift(1, sizes if nested else n - sizes)  # pairs per outer mask, plus one
    del sizes
    ends = np.cumsum(starts - 1)
    np.subtract(ends, starts, out=starts)  # one before each outer mask's first pair
    total = int(ends[-1]) if len(ends) else 0
    for done in range(0, total, PAIR_CHUNK):
        index = np.arange(done, min(done + PAIR_CHUNK, total), dtype=np.int64)
        outer = np.searchsorted(ends, index, side="right")
        index -= starts[outer]  # the pair's rank among its outer's, the empty inner skipped
        outer += 1
        inner = pdep(index, outer if nested else full ^ outer, n)
        del index  # only the pair's arrays stay alive while the chunk is tested
        yield outer, inner


def first_pair(n: int, test, *, nested: bool = False):
    """The first pair of a :func:`mask_pairs` scan that ``test`` flags, or None, refused past
    ``MAX_PAIR_SCAN`` players before ``test`` sees a chunk. ``test(outer, inner)`` returns
    ``(bad, *values)``: a boolean array flagging a chunk's pairs, and arrays of its length; the
    result is ``(outer, inner, *values)`` at the first flagged pair, as Python scalars. The
    test runs with float overflow and invalid operations ignored: a value past the float range
    comes back as inf, for the caller to refuse or read as it decides."""
    check_pair_scan(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for outer, inner in mask_pairs(n, nested=nested):
            bad, *values = test(outer, inner)
            if bad.any():
                k = int(np.argmax(bad))
                return (int(outer[k]), int(inner[k]), *(v[k].item() for v in values))
    return None
