"""Secret key capacity and the linear cost of reaching it.

After an omniscience protocol, whatever entropy the broadcasts did not
spend remains extractable as shared secret keys: the count is the message
total minus the minimum broadcast count.  Generating tau keys with fewest
transmissions never needs the whole family; it suffices to run omniscience
on the smallest message subset that still supports tau keys, paying its
size minus tau.  Minimum set cover embeds into that subset search, which
is why no polynomial shortcut is known.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations

from .errors import InfeasibleError, InputFormatError
from .network import MessageFamily, to_hypergraph
from .omniscience import _decision_keep, broadcasts_at_most, min_broadcasts

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
    return fam.m - min_broadcasts(fam).total


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
    total = min_broadcasts(fam).total
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


def _support_search(
    fam: MessageFamily, tau: int, start: int
) -> tuple[int, ...] | None:
    """Lexicographically first minimum-size message subset (as positions)
    that still supports tau keys, scanning sizes upward from `start`."""
    n, m = fam.n, fam.m
    holder = to_hypergraph(fam).edge_masks
    degrees = [mask.bit_count() for mask in holder]
    weight = sorted((d - 1 for d in degrees), reverse=True)
    floor = tau * (n - 1)
    client_masks = fam.masks
    for size in range(max(start, tau), m + 1):
        if sum(weight[:size]) < floor:
            continue
        budget = size - tau
        for combo in combinations(range(m), size):
            holders = 0
            degsum = 0
            for i in combo:
                holders |= holder[i]
                degsum += degrees[i]
            if holders != (1 << n) - 1:
                continue
            if n > 1 and -(-(n * size - degsum) // (n - 1)) > budget:
                continue
            keep = 0
            for i in combo:
                keep |= 1 << i
            if max((mk & keep).bit_count() for mk in client_masks) < tau:
                continue
            if _decision_keep(fam, keep, budget):
                return combo
    return None


def min_key_support(fam: MessageFamily, tau: int) -> tuple[int, ...] | None:
    """Labels of the smallest message subset supporting tau keys, or None.

    Among subsets of the minimum size, the lexicographically first wins."""
    if tau < 1:
        raise InputFormatError("tau must be positive")
    if not sk_feasible(fam, tau):
        return None
    combo = _support_search(fam, tau, tau)
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
    """Omniscience optimum plus the full per-key-count cost table."""

    n: int
    m: int
    min_broadcasts: int
    allocation: tuple[int, ...]
    max_keys: int
    entries: tuple[KeyCostEntry, ...]


def build_report(fam: MessageFamily) -> SecrecyReport:
    """Cost table for every feasible key count.

    Supports only grow with tau, so each search resumes one past the
    previous size instead of restarting from scratch."""
    res = min_broadcasts(fam)
    tmax = fam.m - res.total
    entries: list[KeyCostEntry] = []
    start = 1
    for tau in range(1, tmax + 1):
        combo = _support_search(fam, tau, start)
        assert combo is not None
        entries.append(
            KeyCostEntry(tau, len(combo) - tau, tuple(fam.labels[i] for i in combo))
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
