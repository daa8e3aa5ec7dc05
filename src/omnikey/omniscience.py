"""Exact minimum broadcast counts for omniscience.

For every nonempty proper client subset S, omniscience requires at least
as many broadcasts from inside S as there are messages nobody outside S
holds.  One polynomial pass, `_truncation`, answers questions about
these 2^n - 2 constraints: a Dilworth truncation built one client at a
time with one small max-flow per client and no subset table, so with no
client-count guard (Milosavljevic et al., "Efficient algorithms for the
data exchange problem", IEEE T-IT 2016; the budget threshold is
Courtade-Wesel, IEEE T-IT 2014).  Run at a budget, it decides whether
the family, filtered to a message subset, fits within it: that is
`_decision_keep`, behind `broadcasts_at_most`, every decision of the
secrecy layer and `_min_total`, which binary-searches the smallest
budget in 0..m that it accepts.  Run at an allocation's own total with
the allocation's entries, it checks that allocation (`allocation_feasible`).

The optimum's lexicographically smallest allocation comes from one
lazy-cut loop, `_solve`, run once at that total: a depth-first search,
`_dfs_budget`, within the total over an explicit list of subset
constraints, seeded with the singletons and co-singletons, to which
separation adds the most violated constraint until none is left.  The
pass in reverse client order gives the same allocation (the tests check
it), but `_solve` stays until the benchmark's peak memory stops growing
with the batch count, so that a faster omniscience workload can be
measured.

Separation reads the right-hand sides of every subset constraint, built
per call (n <= 24) from a union table.  The table is one numpy array of
shape (ceil(m/64), 2^n): row w holds, for every client subset, word w
(messages 64w to 64w+63) of the union of its members' holdings, so
every family size runs the same array code.  It is dropped once the
right-hand sides, an int32 array, are counted.  Allocation sums are
int32 too, with entries clipped at m + 1, which keeps the sums exact
and inside int32.  Only the certificates read the right-hand sides: the
optimum's allocation, `separate` and the tight sets; the other layers
call `_min_total`, `broadcasts_at_most` or `_decision_keep`.

`separate` reports the most violated subset, smallest client bitmask
first.  The tight subsets that certify an optimum are derived from the
right-hand sides on first read of `OmniscienceResult.tight_sets`, so a
caller that never reads them never pays for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import index
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import InputFormatError, SizeGuardError, is_int
from .network import MessageFamily

if TYPE_CHECKING:
    import numpy as np

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
        return _first_tight_sets(self.family, self.allocation, None)


def _first_tight_sets(fam: MessageFamily, allocation: Sequence[int], count: int | None):
    """The first `count` tight sets (all for None), decoding only those."""
    tables = _Tables(fam)
    tight = tables.tight_masks(allocation)
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
# subset tables
# ---------------------------------------------------------------------------


class _Tables:
    """Right-hand sides of every subset constraint of a family, built
    where a certificate reads them: `rhs[s]` counts the messages that no
    client outside subset s holds.  They are counted from a union table,
    `unions[w, s]` being word w of the union over the clients in s, which
    is then dropped.

    numpy is imported by these methods, not by the module, so the
    decisions and every refusal run without loading it."""

    def __init__(self, fam: MessageFamily):
        if fam.n > SUBSET_GUARD_N:
            raise SizeGuardError(
                f"subset separation supports at most {SUBSET_GUARD_N} clients, got {fam.n}"
            )
        import numpy as np

        self.n = fam.n
        self.m = fam.m
        self.full_vars = (1 << fam.n) - 1
        words = -(-fam.m // 64)
        unions = np.zeros((words, 1 << fam.n), dtype=np.uint64)
        for j, mask in enumerate(fam.masks):
            half = 1 << j
            held = np.array([(mask >> (64 * w)) & _WORD for w in range(words)], dtype=np.uint64)
            np.bitwise_or(unions[:, :half], held[:, None], out=unions[:, half : 2 * half])
        self.rhs = np.full(1 << fam.n, fam.m, dtype=np.int32)
        for row in unions[:, ::-1]:
            self.rhs -= np.bitwise_count(row)

    def _subset_sums(self, alloc: Sequence[int]) -> np.ndarray:
        """Allocation sum (int32) over every client subset.  Entries are
        clipped at m + 1: a subset holding such a member already exceeds
        every right-hand side, so no tight or violated status changes."""
        import numpy as np

        cap = self.m + 1
        asum = np.zeros(self.full_vars + 1, dtype=np.int32)
        for j, aj in enumerate(alloc):
            half = 1 << j
            np.add(asum[:half], min(aj, cap), out=asum[half : 2 * half])
        return asum

    def most_violated(self, alloc: Sequence[int]) -> tuple[int, int] | None:
        """(subset_mask, need) with the largest shortfall, or None if feasible."""
        import numpy as np

        diff = self._subset_sums(alloc)
        np.subtract(self.rhs, diff, out=diff)
        diff[0] = -1
        diff[self.full_vars] = -1
        idx = int(np.argmax(diff))
        if diff[idx] <= 0:
            return None
        return idx, int(self.rhs[idx])

    def tight_masks(self, alloc: Sequence[int]) -> list[int]:
        import numpy as np

        eq = np.nonzero(self._subset_sums(alloc) == self.rhs)[0]
        return [int(s) for s in eq if 0 < s < self.full_vars]


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


# ---------------------------------------------------------------------------
# the lazy-cut loop
# ---------------------------------------------------------------------------


def _seed_constraints(fam: MessageFamily) -> dict[int, int]:
    """Singleton and co-singleton constraints with positive need, read from
    each client's holdings and the union of everyone else's."""
    full = (1 << fam.n) - 1
    seeds: dict[int, int] = {}
    for j, others in enumerate(fam.others):
        single = 1 << j
        for mask, outside in ((single, others), (full ^ single, fam.masks[j])):
            if mask not in seeds:
                nd = fam.m - outside.bit_count()
                if nd > 0:
                    seeds[mask] = nd
    return seeds


def _solve(fam: MessageFamily) -> tuple[int, list[int]]:
    """The optimum total, `_min_total`, and its lexicographically smallest
    allocation.

    The subset table is built, and its guard checked, before any decision
    runs.  Every search is at the optimum total, so each finds an
    allocation, and the first that separation accepts is the answer."""
    n = fam.n
    if n == 1:
        return 0, [0]
    tables = _Tables(fam)
    total = _min_total(fam)
    seeds = _seed_constraints(fam)
    masks = list(seeds)
    needs = [seeds[mk] for mk in masks]
    cons_at = [[i for i, mk in enumerate(masks) if (mk >> j) & 1] for j in range(n)]
    known = set(masks)
    while True:
        sol = [0] * n
        found = _dfs_budget(0, total, sol, list(needs), masks, cons_at)
        assert found, "the optimum's allocation meets every listed constraint"
        viol = tables.most_violated(sol)
        if viol is None:
            return total, sol
        mask, nd = viol
        assert mask not in known
        known.add(mask)
        masks.append(mask)
        needs.append(nd)
        idx = len(masks) - 1
        for j in range(n):
            if (mask >> j) & 1:
                cons_at[j].append(idx)


# ---------------------------------------------------------------------------
# the Dilworth-truncation pass, with one max-flow per client
# ---------------------------------------------------------------------------


def _truncation(masks: Sequence[int], keep: int, budget: int, alloc=None) -> list[int] | None:
    """The Dilworth truncation pass over `masks` filtered to `keep`
    message positions, at `budget`: one entry per client, or None.

    With K = `keep` and B = `budget`, let g(C) = |X_C & K| + B - |K| for
    every nonempty client set C.  An allocation within B exists iff some
    x with x(C) <= g(C) for every such C reaches x(V) >= B: then
    x(V) = g(V) = B (every message has a holder) and each
    x_i >= |K| - |X_{V-i} & K| >= 0.  That maximum is the Dilworth
    truncation of g, reached greedily one client at a time with x_i at

        cap_i = |X_i & K| + B - |K| - max over S <= {j < i} of
                [x(S) - |(X_S & K) - X_i|]  =  min over S of g(S + i) - x(S),

    where the inner maximum is a max-closure (`_excess`).  Given `alloc`,
    x_i is alloc[i] instead.  The pass returns None at the first x_i < 0,
    which no feasible answer has, or x_i > cap_i, which breaks the
    constraint of the minimising S + i."""
    base = budget - keep.bit_count()
    x: list[int] = []
    for i, mask in enumerate(masks):
        cap = (mask & keep).bit_count() + base - _excess(masks[:i], x, keep & ~mask)
        xi = cap if alloc is None else alloc[i]
        if xi < 0 or xi > cap:
            return None
        x.append(xi)
    return x


def _decision_keep(fam: MessageFamily, keep: int, budget: int) -> bool:
    """True iff the family filtered to `keep` message positions admits
    omniscience within `budget`: the truncation pass reaches it."""
    x = _truncation(fam.masks, keep, budget)
    return x is not None and sum(x) >= budget


def _min_total(fam: MessageFamily) -> int:
    """Fewest broadcasts that make every client omniscient: the smallest
    budget in 0..m that `_decision_keep` accepts, by binary search (a
    budget that suffices leaves every larger one sufficing, and m always
    does, each message sent once by a holder)."""
    full = (1 << fam.m) - 1
    lo, hi = 0, fam.m
    while lo < hi:
        mid = (lo + hi) // 2
        if _decision_keep(fam, full, mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _excess(masks: Sequence[int], x: Sequence[int], outside: int) -> int:
    """max over client sets S of x(S) - |X_S & outside|, as the positive
    x_j minus one max-flow: source -> client j (capacity x_j), client ->
    each message class it holds, class -> sink (capacity its size).  The
    messages of `outside` are grouped by their holders among the clients
    with positive x_j, so the flow has at most one class per holder set.
    A client holding nothing of `outside` joins S for free."""
    free = 0
    supply: list[int] = []
    held: list[int] = []
    for mask, xj in zip(masks, x):
        if xj > 0:
            if mask & outside:
                supply.append(xj)
                held.append(mask & outside)
            else:
                free += xj
    if not supply:
        return free
    groups = [(outside, 0)]
    for j, h in enumerate(held):
        bit = 1 << j
        split = []
        for msgs, who in groups:
            inside = msgs & h
            if inside:
                split.append((inside, who | bit))
                if inside != msgs:
                    split.append((msgs ^ inside, who))
            else:
                split.append((msgs, who))
        groups = split
    groups = [(msgs, who) for msgs, who in groups if who]
    room = [msgs.bit_count() for msgs, _ in groups]
    adj = [
        [t for t, (_, who) in enumerate(groups) if who >> j & 1] for j in range(len(supply))
    ]
    flow = [[0] * len(room) for _ in supply]
    sent = 0
    for j, need in enumerate(supply):
        while need:
            push = _augment(j, need, adj, flow, room)
            if not push:
                break
            need -= push
            sent += push
    return free + sum(supply) - sent


def _augment(src: int, amount: int, adj, flow, room) -> int:
    """Push up to `amount` along one shortest augmenting path from client
    `src` to a class with room, rerouting other clients' flow on the way;
    return what was pushed (0 when no path exists)."""
    parent = {src: None}
    queue = [src]
    for u in queue:
        for t in adj[u]:
            if room[t]:
                push = min(amount, room[t])
                v = u
                while parent[v] is not None:
                    w, wt = parent[v]
                    push = min(push, flow[v][wt])
                    v = w
                room[t] -= push
                v, tt = u, t
                while True:
                    flow[v][tt] += push
                    if parent[v] is None:
                        break
                    w, wt = parent[v]
                    flow[v][wt] -= push
                    v, tt = w, wt
                return push
            for v in range(len(flow)):
                if v not in parent and flow[v][t]:
                    parent[v] = (u, t)
                    queue.append(v)
    return 0


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------


def min_broadcasts(fam: MessageFamily) -> OmniscienceResult:
    """Exact minimum number of broadcasts for every client to learn every
    message, with the lexicographically smallest optimal allocation."""
    total, vec = _solve(fam)
    return OmniscienceResult(total, tuple(vec), fam)


def broadcasts_at_most(fam: MessageFamily, budget: int) -> bool:
    """Decision form of `min_broadcasts`, cheaper when only a bound matters."""
    if not is_int(budget):
        raise InputFormatError("budget must be an integer")
    return _decision_keep(fam, (1 << fam.m) - 1, budget)


def _checked_allocation(fam: MessageFamily, allocation: Sequence[int]) -> list[int]:
    """The allocation as Python ints: one nonnegative integer per client."""
    if len(allocation) != fam.n:
        raise InputFormatError("allocation length must equal the client count")
    try:
        out = [index(a) for a in allocation if not isinstance(a, bool)]
    except TypeError:
        out = []
    if len(out) != fam.n:
        raise InputFormatError("allocation entries must be integers")
    if any(a < 0 for a in out):
        raise InputFormatError("allocation entries must be nonnegative")
    return out


def separate(fam: MessageFamily, allocation: Sequence[int]) -> frozenset[int] | None:
    """Most violated client subset for an allocation, or None if feasible.

    Ties go to the subset with the smallest client bitmask."""
    a = _checked_allocation(fam, allocation)
    viol = _Tables(fam).most_violated(a)
    if viol is None:
        return None
    mask, _ = viol
    return frozenset(j + 1 for j in range(fam.n) if (mask >> j) & 1)


def allocation_feasible(fam: MessageFamily, allocation: Sequence[int]) -> bool:
    """True iff the allocation satisfies every subset constraint: with
    B = a(V), a(C) <= |X_C| + B - m for every complement C of a nonempty
    proper set.  That is the truncation pass at budget B with a in place
    of x, so no subset table is built."""
    a = _checked_allocation(fam, allocation)
    return _truncation(fam.masks, (1 << fam.m) - 1, sum(a), a) is not None
