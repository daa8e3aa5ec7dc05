"""Secret key capacity and the linear cost of reaching it.

After an omniscience protocol, whatever entropy the broadcasts did not
spend remains extractable as shared secret keys: the count is the message
total minus the minimum broadcast count.  Generating tau keys with fewest
transmissions never needs the whole family; it suffices to run omniscience
on the smallest message subset that still supports tau keys, paying its
size minus tau.  Minimum set cover embeds into that subset search, which
is why no polynomial shortcut is known.

The search stays exact and exhaustive, but it walks each size's
combinations depth-first over ascending message positions, which is
their lexicographic order.  A message subset K supports tau keys iff
sum over e in K of w_P(e) >= tau(|P| - 1) for every client partition P,
where w_P(e) is one less than the number of blocks of P holding e
(Csiszar-Narayan).  The walk applies two families of these floors:

- the degree floor (P = all singletons): the weight sum(d_i - 1) over
  holder counts d_i reaches tau*(n-1);
- the two-block floors (P = {j} | rest, for n >= 2): K holds at least
  tau messages that client j shares with some other client.  These
  imply that K's holders cover every client.

The walk carries the prefix weight and holder union and cuts a branch,
with all later siblings, once the heaviest remaining positions cannot
reach the degree floor or all remaining holders cannot cover every
client.  A full combination must then meet the degree floor and every
two-block floor before it reaches an omniscience decision, so leaves that
cannot pass never reach the solver.

Each omniscience decision (does the family, filtered to K, fit within
|K| - tau broadcasts?) is the polynomial pass `_decision_keep`: one small
max-flow per client and no subset table, and the optimum total
`_min_total` is a binary search over the same pass.  So `max_keys`,
`sk_feasible`, `is_critical`, `min_key_support` and `minimum_cover`
take any client count, while `build_report`, which reports the optimum's
allocation from `min_broadcasts`, stays limited to 24 clients.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import InfeasibleError, InputFormatError
from .network import MessageFamily, to_hypergraph
from .omniscience import _decision_keep, _min_total, broadcasts_at_most, min_broadcasts

__all__ = [
    "max_keys",
    "sk_feasible",
    "is_critical",
    "min_key_support",
    "linear_secrecy_cost",
    "KeyCostEntry",
    "SecrecyReport",
    "build_report",
    "SetCoverInstance",
    "parse_set_cover",
    "reduce_set_cover",
    "minimum_cover",
]


def max_keys(fam: MessageFamily) -> int:
    """Largest number of message-sized keys the family can agree on."""
    return fam.m - _min_total(fam)


def sk_feasible(fam: MessageFamily, tau: int) -> bool:
    """True iff tau keys are attainable, checked without a full optimum."""
    if tau < 0:
        raise InputFormatError("tau must be nonnegative")
    if tau == 0:
        return True
    return broadcasts_at_most(fam, fam.m - tau)


def is_critical(fam: MessageFamily, tau: int) -> bool:
    """True iff the family yields exactly tau keys and dropping any single
    message loses one: no message is dead weight."""
    if tau < 1:
        raise InputFormatError("tau must be positive")
    total = _min_total(fam)
    if fam.m - total != tau:
        return False
    full = (1 << fam.m) - 1
    for i in range(fam.m):
        if _decision_keep(fam, full ^ (1 << i), total - 1):
            return False
    return True


# ---------------------------------------------------------------------------
# smallest message subset supporting tau keys
# ---------------------------------------------------------------------------


class _TopSums(dict):
    """Maps k * stride + i to the sum of the k heaviest weights among
    positions >= i, filled in on first use.

    `ge[i][v - 1]` counts the positions >= i of weight at least v, so the
    k heaviest weights sum to sum(min(ge[i][v - 1], k)) over v >= 1."""

    __slots__ = ("stride", "ge")

    def __init__(self, stride: int, ge: list[tuple[int, ...]]):
        super().__init__()
        self.stride = stride
        self.ge = ge

    def __missing__(self, key: int) -> int:
        k, i = divmod(key, self.stride)
        total = self[key] = sum(g if g < k else k for g in self.ge[i])
        return total


class _Walk:
    """The depth-first support walk over one family.

    `weight[i]` is one less than the number of holders of message i and
    `holder[i]` is the client mask holding it.  `reach[i]` is the union of
    the holders of positions >= i and `ge` feeds the heaviest-weight sums.
    `shared[j]` holds the message positions client j shares with some
    other client (empty when n = 1, which has no two-block partition).
    None of them depends on tau, so one walk serves every key count."""

    __slots__ = ("fam", "full", "weight", "holder", "reach", "ge", "shared")

    def __init__(self, fam: MessageFamily):
        holder = to_hypergraph(fam).edge_masks
        self.fam = fam
        self.full = (1 << fam.n) - 1
        self.shared = (
            [mk & other for mk, other in zip(fam.masks, fam.others)] if fam.n > 1 else []
        )
        self.weight = weight = [mask.bit_count() - 1 for mask in holder]
        self.holder = holder
        reach = [0]
        ge_row = [0] * max(weight, default=0)
        ge = [tuple(ge_row)]
        for i in reversed(range(fam.m)):
            reach.append(reach[-1] | holder[i])
            for v in range(weight[i]):
                ge_row[v] += 1
            ge.append(tuple(ge_row))
        self.reach = reach[::-1]
        self.ge = ge[::-1]

    def search(self, tau: int, start: int) -> tuple[int, ...] | None:
        """Positions of the lexicographically first minimum-size message
        subset that supports tau keys, scanning sizes upward from `start`.

        For each size the walk descends over ascending positions with an
        explicit stack of (next sibling, prefix weight, prefix holders,
        prefix mask), so its depth is bounded by memory, not by the
        interpreter's frame limit.  A position is cut, with every later
        sibling, once even the heaviest remaining weights cannot reach
        the floor tau*(n - 1) or the remaining holders cannot cover every
        client.  A full combination asks for the omniscience decision
        (the polynomial pass `_decision_keep`) only if it meets that
        floor and, for each client j, holds at least tau of the messages
        in `shared[j]` (the two-block floor of {j} | rest, which also
        implies the cover).
        `top[k * stride + i]` sums the k heaviest weights among
        positions >= i; it holds only the pairs this search reaches, so
        its memory follows the search's work, never m x m."""
        fam, full, weights, holder, reach, shared = (
            self.fam, self.full, self.weight, self.holder, self.reach, self.shared
        )
        floor = tau * (fam.n - 1)
        stride = fam.m + 1
        top = _TopSums(stride, self.ge)
        for size in range(max(start, tau), fam.m + 1):
            budget = size - tau
            stack: list[tuple[int, int, int, int]] = []
            i = weight = holders = keep = 0
            left = size
            last = fam.m - left
            base = left * stride
            while True:
                if (
                    i <= last
                    and weight + top[base + i] >= floor
                    and holders | reach[i] == full
                ):
                    if left > 1:
                        stack.append((i + 1, weight, holders, keep))
                        weight += weights[i]
                        holders |= holder[i]
                        keep |= 1 << i
                        i += 1
                        left -= 1
                        last += 1
                        base = left * stride
                        continue
                    kept = keep | 1 << i
                    if (
                        weight + weights[i] >= floor
                        and all((sh & kept).bit_count() >= tau for sh in shared)
                        and _decision_keep(fam, kept, budget)
                    ):
                        return tuple(j for j in range(fam.m) if kept >> j & 1)
                    i += 1
                elif stack:
                    i, weight, holders, keep = stack.pop()
                    left += 1
                    last -= 1
                    base = left * stride
                else:
                    break
        return None


def min_key_support(fam: MessageFamily, tau: int) -> tuple[int, ...] | None:
    """Labels of the smallest message subset supporting tau keys, or None.

    Among subsets of the minimum size, the lexicographically first wins."""
    if tau < 1:
        raise InputFormatError("tau must be positive")
    if not sk_feasible(fam, tau):
        return None
    combo = _Walk(fam).search(tau, tau)
    assert combo is not None
    return tuple(fam.labels[i] for i in combo)


def linear_secrecy_cost(fam: MessageFamily, tau: int) -> int | float:
    """Minimum transmissions of any single-letter linear protocol producing
    tau keys; math.inf when tau keys are out of reach entirely."""
    support = min_key_support(fam, tau)
    if support is None:
        return math.inf
    return len(support) - tau


@dataclass(frozen=True)
class KeyCostEntry:
    """Cost row for one key count."""

    tau: int
    cost: int
    support: tuple[int, ...]


@dataclass(frozen=True)
class SecrecyReport:
    """Omniscience optimum plus the per-key-count cost table: every
    feasible key count, or only the one `build_report` was asked for."""

    n: int
    m: int
    min_broadcasts: int
    allocation: tuple[int, ...]
    max_keys: int
    entries: tuple[KeyCostEntry, ...]


def build_report(fam: MessageFamily, tau: int | None = None) -> SecrecyReport:
    """Omniscience optimum and the cost of every feasible key count, or,
    given `tau`, of that key count alone (no entry when it is out of
    reach).

    Supports only grow with tau, so each search resumes one past the
    previous size instead of restarting from scratch, on one walk built
    for the family.  Reachability is read off the optimum total, so no
    key count asks for a further decision on the whole family."""
    if tau is not None and tau < 1:
        raise InputFormatError("tau must be positive")
    res = min_broadcasts(fam)
    tmax = fam.m - res.total
    taus = range(1, tmax + 1) if tau is None else range(tau, min(tau, tmax) + 1)
    entries: list[KeyCostEntry] = []
    walk = _Walk(fam)
    start = 1
    for t in taus:
        combo = walk.search(t, start)
        assert combo is not None
        entries.append(
            KeyCostEntry(t, len(combo) - t, tuple(fam.labels[i] for i in combo))
        )
        start = len(combo) + 1
    return SecrecyReport(
        fam.n, fam.m, res.total, res.allocation, tmax, tuple(entries)
    )


# ---------------------------------------------------------------------------
# minimum set cover through the support search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SetCoverInstance:
    """Universe plus candidate subsets, in input order."""

    universe: tuple
    sets: tuple[frozenset, ...]


def parse_set_cover(text: str) -> SetCoverInstance:
    """Strict JSON reader: {"universe": [...], "sets": [[...], ...]}."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or set(data) != {"universe", "sets"}:
        raise InputFormatError('expected exactly the keys "universe" and "sets"')
    universe = data["universe"]
    sets = data["sets"]
    if not isinstance(universe, list) or not universe:
        raise InputFormatError("universe must be a nonempty list")
    for u in universe:
        if isinstance(u, bool) or not isinstance(u, (int, str)):
            raise InputFormatError("universe elements must be integers or strings")
    if len(set(universe)) != len(universe):
        raise InputFormatError("universe elements must be distinct")
    if not isinstance(sets, list) or not sets:
        raise InputFormatError("sets must be a nonempty list")
    known = set(universe)
    parsed = []
    for idx, entry in enumerate(sets, start=1):
        if not isinstance(entry, list):
            raise InputFormatError(f"set {idx} must be a list")
        if any(isinstance(u, bool) or not isinstance(u, (int, str)) for u in entry):
            raise InputFormatError(f"set {idx} elements must be integers or strings")
        if len(set(entry)) != len(entry):
            raise InputFormatError(f"set {idx} repeats an element")
        for u in entry:
            if u not in known:
                raise InputFormatError(f"set {idx} contains unknown element {u!r}")
        parsed.append(frozenset(entry))
    ordered = tuple(sorted(universe, key=lambda x: (isinstance(x, str), x)))
    return SetCoverInstance(ordered, tuple(parsed))


def reduce_set_cover(inst: SetCoverInstance) -> MessageFamily:
    """Family whose one-key supports are exactly the covers.

    Clients are the universe elements plus one extra who holds every
    message; message j is held by the members of set j and the extra
    client, so a message subset touches all clients iff it covers."""
    n = len(inst.universe) + 1
    m = len(inst.sets)
    index = {u: i + 1 for i, u in enumerate(inst.universe)}
    holdings: list[list[int]] = [[] for _ in range(n)]
    for j, members in enumerate(inst.sets, start=1):
        for u in members:
            holdings[index[u] - 1].append(j)
        holdings[n - 1].append(j)
    return MessageFamily.from_holdings(n, m, holdings)


def minimum_cover(inst: SetCoverInstance) -> tuple[int, ...]:
    """1-based indices of a smallest cover, lexicographically first."""
    fam = reduce_set_cover(inst)
    support = min_key_support(fam, 1)
    if support is None:
        raise InfeasibleError("the sets do not cover the universe")
    return support
