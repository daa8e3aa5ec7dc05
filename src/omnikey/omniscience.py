"""Exact minimum broadcast counts for omniscience.

For every nonempty proper client subset S, omniscience requires at least
as many broadcasts from inside S as there are messages nobody outside S
holds.  The smallest integer allocation satisfying all 2^n - 2 subset
constraints is found by one lazy-cut loop, `_solve`.  It keeps an
explicit list of subset constraints, seeded with the singletons and
co-singletons, and fixes a total.  A depth-first search, `_dfs_budget`,
looks for the lexicographically smallest allocation within that total
that meets the listed constraints.  If there is none, the total is
infeasible and rises by one; a decision call, which fixes the total at
its budget, answers no.  Otherwise separation scans every subset for the
most violated constraint: none means the allocation is the answer, else
that constraint joins the list, which persists across totals.  So the
first total that succeeds is the optimum, and its first allocation is
the lexicographically smallest optimal one.

Separation reads a union table built once per family (n <= 24).  The
table is one numpy array of shape (ceil(m/64), 2^n): row w holds, for
every client subset, word w (messages 64w to 64w+63) of the union of its
members' holdings, so every family size runs the same array code.  The
right-hand sides and allocation sums derived from it are int32 arrays,
and the right-hand sides are counted 2^16 subsets at a time, so beside
the table a solve holds a few int32 arrays and no full-size uint64
temporary.  Allocation entries are clipped at m + 1 before they are
summed, which keeps the sums exact and inside int32.  Only this module
reads the table; the other layers call `min_broadcasts` and
`broadcasts_at_most`, or `_decision_keep` for a message-filtered family.

`separate` reports the most violated subset, smallest client bitmask
first.  The tight subsets that certify an optimum are derived from the
union table on first read of `OmniscienceResult.tight_sets`, so a caller
that never reads them never pays for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence
from weakref import WeakKeyDictionary

import numpy as np

from .errors import InputFormatError, SizeGuardError
from .network import MessageFamily

__all__ = [
    "OmniscienceResult",
    "demand",
    "separate",
    "min_broadcasts",
    "broadcasts_at_most",
    "allocation_feasible",
]

SUBSET_GUARD_N = 24
_BIG = 1 << 30
_WORD = (1 << 64) - 1
_BLOCK = 1 << 16


@dataclass(frozen=True)
class OmniscienceResult:
    """Optimal broadcast count with its allocation and binding subsets.

    `tight_sets` is derived from `family` on first read and cached: every
    nonempty proper client subset whose constraint the allocation meets
    with equality, ascending by client bitmask."""

    total: int
    allocation: tuple[int, ...]
    family: MessageFamily = field(repr=False)

    @cached_property
    def tight_sets(self) -> tuple[frozenset[int], ...]:
        return _first_tight_sets(self, None)


def _first_tight_sets(res: OmniscienceResult, count: int | None):
    """`res.tight_sets[:count]`, decoding only the masks it returns."""
    tables = _family_tables(res.family)
    tight = tables.tight_masks(res.allocation, tables.rhs_for(tables.full_msgs))
    return tuple(
        frozenset(j + 1 for j in range(tables.n) if (mask >> j) & 1)
        for mask in tight[:count]
    )


def demand(fam: MessageFamily, subset: Iterable[int]) -> int:
    """Messages that no client outside `subset` (1-based ids) holds."""
    chosen = set(subset)
    if not chosen or not chosen.issubset(range(1, fam.n + 1)):
        raise InputFormatError("subset must contain valid client ids")
    if len(chosen) == fam.n:
        raise InputFormatError("subset must be a proper subset of the clients")
    outside = 0
    for j in range(fam.n):
        if (j + 1) not in chosen:
            outside |= fam.masks[j]
    return fam.m - outside.bit_count()


# ---------------------------------------------------------------------------
# per-family tables
# ---------------------------------------------------------------------------


class _Tables:
    """Subset-indexed unions of holdings, shared by all solves on a family:
    `unions[w, s]` is word w of the union over the clients in subset s."""

    def __init__(self, fam: MessageFamily):
        if fam.n > SUBSET_GUARD_N:
            raise SizeGuardError(
                f"subset separation supports at most {SUBSET_GUARD_N} clients, got {fam.n}"
            )
        self.n = fam.n
        self.m = fam.m
        self.masks = fam.masks
        self.others = fam.others
        self.full_vars = (1 << fam.n) - 1
        self.full_msgs = (1 << fam.m) - 1
        self.unions = np.zeros((-(-fam.m // 64), 1 << fam.n), dtype=np.uint64)
        for j, mask in enumerate(fam.masks):
            half = 1 << j
            np.bitwise_or(
                self.unions[:, :half],
                self._words(mask)[:, None],
                out=self.unions[:, half : 2 * half],
            )

    def _words(self, bits: int) -> np.ndarray:
        """A message bitmask as 64-message words, lowest first."""
        return np.array(
            [(bits >> (64 * w)) & _WORD for w in range(len(self.unions))], dtype=np.uint64
        )

    def rhs_for(self, keep: int) -> np.ndarray:
        """Right-hand sides (int32) for every subset index under a message
        filter: the kept messages minus those the complement holds.  The
        union words are masked and counted `_BLOCK` subsets at a time, so
        no full-size uint64 temporary is built."""
        rhs = np.full(self.full_vars + 1, keep.bit_count(), dtype=np.int32)
        outside = self.unions[:, ::-1]
        words = self._words(keep)
        for lo in range(0, len(rhs), _BLOCK):
            block = rhs[lo : lo + _BLOCK]
            for row, word in zip(outside, words):
                block -= np.bitwise_count(row[lo : lo + _BLOCK] & word)
        return rhs

    def _subset_sums(self, alloc: Sequence[int]) -> np.ndarray:
        """Allocation sum (int32) over every client subset.  Entries are
        clipped at m + 1: a subset holding such a member already exceeds
        every right-hand side, so no tight or violated status changes."""
        cap = self.m + 1
        asum = np.zeros(self.full_vars + 1, dtype=np.int32)
        for j, aj in enumerate(alloc):
            half = 1 << j
            np.add(asum[:half], min(aj, cap), out=asum[half : 2 * half])
        return asum

    def most_violated(self, alloc: Sequence[int], rhs) -> tuple[int, int] | None:
        """(subset_mask, need) with the largest shortfall, or None if feasible."""
        diff = self._subset_sums(alloc)
        np.subtract(rhs, diff, out=diff)
        diff[0] = -1
        diff[self.full_vars] = -1
        idx = int(np.argmax(diff))
        if diff[idx] <= 0:
            return None
        return idx, int(rhs[idx])

    def tight_masks(self, alloc: Sequence[int], rhs) -> list[int]:
        eq = np.nonzero(self._subset_sums(alloc) == rhs)[0]
        return [int(s) for s in eq if 0 < s < self.full_vars]


_table_cache: "WeakKeyDictionary[MessageFamily, _Tables]" = WeakKeyDictionary()


def _family_tables(fam: MessageFamily) -> _Tables:
    tables = _table_cache.get(fam)
    if tables is None:
        tables = _Tables(fam)
        _table_cache[fam] = tables
    return tables


# ---------------------------------------------------------------------------
# covering search over an explicit constraint list
# ---------------------------------------------------------------------------


def _disjoint_bound(res: list[int], masks: list[int], unassigned: int) -> int:
    """Admissible lower bound: residuals of constraints whose open supports
    are pairwise disjoint must be paid separately."""
    order = sorted(
        (i for i in range(len(res)) if res[i] > 0), key=lambda i: (-res[i], i)
    )
    lb = 0
    picked = 0
    for i in order:
        sup = masks[i] & unassigned
        if sup == 0:
            return _BIG
        if sup & picked == 0:
            lb += res[i]
            picked |= sup
    return lb


def _dfs_budget(
    j: int, left: int, a: list[int], res: list[int], masks: list[int], cons_at: list[list[int]]
) -> bool:
    """Extend `a[:j]` to an allocation meeting every listed constraint
    (`res` holds their residual needs) while spending at most `left` more,
    trying values ascending per client, so the first hit is the
    lexicographically smallest.  `res` comes back unchanged.  Module-level,
    with its state passed in, so a search leaves no reference cycle."""
    n = len(a)
    if max(res, default=0) <= 0:
        for t in range(j, n):
            a[t] = 0
        return True
    if j == n:
        return False
    if _disjoint_bound(res, masks, (1 << n) - (1 << j)) > left:
        return False
    sub = cons_at[j]
    cap = 0
    for i in sub:
        if res[i] > cap:
            cap = res[i]
    if cap > left:
        cap = left
    a[j] = 0
    ok = _dfs_budget(j + 1, left, a, res, masks, cons_at)
    val = 0
    while not ok and val < cap:
        val += 1
        for i in sub:
            res[i] -= 1
        a[j] = val
        ok = _dfs_budget(j + 1, left - val, a, res, masks, cons_at)
    for i in sub:
        res[i] += val
    if not ok:
        a[j] = 0
    return ok


def _quick_lb(masks: list[int], needs: list[int], n: int) -> int:
    """Cheap lower bounds: disjoint supports, plus the averaging bound from
    summing all (n-1)-subset constraints."""
    lb = _disjoint_bound(list(needs), masks, (1 << n) - 1)
    co_total = 0
    single_total = 0
    for mk, nd in zip(masks, needs):
        bits = mk.bit_count()
        if bits == n - 1:
            co_total += nd
        elif bits == 1:
            single_total += nd
    if n > 1:
        lb = max(lb, -(-co_total // (n - 1)))
    return max(lb, single_total)


# ---------------------------------------------------------------------------
# the lazy-cut loop
# ---------------------------------------------------------------------------


def _seed_constraints(tables: _Tables, keep: int) -> dict[int, int]:
    """Singleton and co-singleton constraints with positive need, read from
    each client's holdings and the union of everyone else's."""
    seeds: dict[int, int] = {}
    size = keep.bit_count()
    for j in range(tables.n):
        single = 1 << j
        for mask, outside in (
            (single, tables.others[j]),
            (tables.full_vars ^ single, tables.masks[j]),
        ):
            if mask not in seeds:
                nd = size - (outside & keep).bit_count()
                if nd > 0:
                    seeds[mask] = nd
    return seeds


def _solve(fam: MessageFamily, keep: int, budget: int | None) -> list[int] | None:
    """Lexicographically smallest allocation of the family filtered to `keep`
    message positions with total <= `budget`, or None if there is none.

    With `budget` None the total starts at `_quick_lb` and rises by one
    whenever the search finds nothing, so the first hit is the
    lexicographically smallest optimal allocation."""
    n = fam.n
    if n == 1:
        return [0] if budget is None or budget >= 0 else None
    tables = _family_tables(fam)
    seeds = _seed_constraints(tables, keep)
    masks = list(seeds)
    needs = [seeds[mk] for mk in masks]
    total = _quick_lb(masks, needs, n)
    if budget is not None:
        if total > budget:
            return None
        total = budget
    cons_at = [[i for i, mk in enumerate(masks) if (mk >> j) & 1] for j in range(n)]
    rhs = None
    known = set(masks)
    while True:
        sol = [0] * n
        if not _dfs_budget(0, total, sol, list(needs), masks, cons_at):
            if budget is not None:
                return None
            total += 1
            continue
        if rhs is None:
            rhs = tables.rhs_for(keep)
        viol = tables.most_violated(sol, rhs)
        if viol is None:
            return sol
        mask, nd = viol
        assert mask not in known
        known.add(mask)
        masks.append(mask)
        needs.append(nd)
        idx = len(masks) - 1
        for j in range(n):
            if (mask >> j) & 1:
                cons_at[j].append(idx)


def _decision_keep(fam: MessageFamily, keep: int, budget: int) -> bool:
    """True iff the family filtered to `keep` message positions admits
    omniscience within `budget`."""
    return _solve(fam, keep, budget) is not None


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------


def min_broadcasts(fam: MessageFamily) -> OmniscienceResult:
    """Exact minimum number of broadcasts for every client to learn every
    message, with the lexicographically smallest optimal allocation."""
    vec = _solve(fam, (1 << fam.m) - 1, None)
    return OmniscienceResult(sum(vec), tuple(vec), fam)


def broadcasts_at_most(fam: MessageFamily, budget: int) -> bool:
    """Decision form of `min_broadcasts`, cheaper when only a bound matters."""
    return _decision_keep(fam, (1 << fam.m) - 1, budget)


def separate(fam: MessageFamily, allocation: Sequence[int]) -> frozenset[int] | None:
    """Most violated client subset for an allocation, or None if feasible.

    Ties go to the subset with the smallest client bitmask."""
    if len(allocation) != fam.n:
        raise InputFormatError("allocation length must equal the client count")
    if any(a < 0 for a in allocation):
        raise InputFormatError("allocation entries must be nonnegative")
    if fam.n == 1:
        return None
    tables = _family_tables(fam)
    rhs = tables.rhs_for(tables.full_msgs)
    viol = tables.most_violated(allocation, rhs)
    if viol is None:
        return None
    mask, _ = viol
    return frozenset(j + 1 for j in range(fam.n) if (mask >> j) & 1)


def allocation_feasible(fam: MessageFamily, allocation: Sequence[int]) -> bool:
    """True iff the allocation satisfies every subset constraint."""
    return separate(fam, allocation) is None
