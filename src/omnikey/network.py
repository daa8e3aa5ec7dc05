"""Instance model: clients, messages, holdings, and the dual hypergraph.

Clients and messages are numbered from 1 in files, reports and the public
API.  Internally each client's holdings live in a bitmask over message
positions 0..m-1, and `labels` remembers the original message numbers so
sub-instances can report witnesses in the caller's numbering.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import accumulate, combinations
from operator import or_
from typing import Iterable, Sequence

from .errors import InputFormatError, SizeGuardError, is_int

_ONE = ord("1")

__all__ = [
    "MessageFamily",
    "Hypergraph",
    "parse_network",
    "network_to_json",
    "to_hypergraph",
    "restrict",
    "make_pin",
    "make_cyclic15",
    "make_gap",
]


@dataclass(frozen=True)
class MessageFamily:
    """n clients holding subsets of m independent messages."""

    n: int
    m: int
    masks: tuple[int, ...]
    labels: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if not (is_int(self.n) and is_int(self.m)):
            raise InputFormatError("client and message counts must be integers")
        if self.n < 1:
            raise InputFormatError("need at least one client")
        if self.m < 1:
            raise InputFormatError("need at least one message")
        if len(self.masks) != self.n:
            raise InputFormatError("holdings count does not match client count")
        if not self.labels:
            object.__setattr__(self, "labels", tuple(range(1, self.m + 1)))
        elif len(set(self.labels)) != len(self.labels):
            raise InputFormatError("duplicate message labels")
        if len(self.labels) != self.m:
            raise InputFormatError("label count does not match message count")
        full = (1 << self.m) - 1
        union = 0
        for mask in self.masks:
            if not is_int(mask):
                raise InputFormatError(f"holding mask {mask!r} is not an integer")
            if mask < 0 or mask > full:
                raise InputFormatError("holding mask out of range")
            union |= mask
        if union != full:
            gaps = full & ~union
            missing = []
            while gaps and len(missing) < 10:  # name 10, count the rest
                missing.append(self.labels[(gaps & -gaps).bit_length() - 1])
                gaps &= gaps - 1
            more = f" and {gaps.bit_count()} more" if gaps else ""
            raise InputFormatError(f"messages held by nobody: {missing}{more}")

    @classmethod
    def from_holdings(
        cls, n: int, m: int, holdings: Sequence[Sequence[int]]
    ) -> "MessageFamily":
        """Build from 1-based message lists, one per client."""
        if not (is_int(n) and is_int(m)):
            raise InputFormatError("client and message counts must be integers")
        if m < 1:
            raise InputFormatError("need at least one message")
        if len(holdings) != n:
            raise InputFormatError(f"expected {n} holding lists, got {len(holdings)}")
        # every message needs a holder: refused before any work sized by m
        entries = sum(len(hold) for hold in holdings)
        if m > entries:
            raise InputFormatError(
                f"{m} messages need a holder each, but the holdings name only {entries}"
            )
        # each holding is marked in an ASCII bit string, message i at index
        # m - i, read once by int(..., 2): linear in the entries and m, where
        # OR-ing into a growing int copies it once per entry
        masks = []
        for j, hold in enumerate(holdings, start=1):
            bits = bytearray(b"0") * m
            for msg in hold:
                if not is_int(msg):
                    raise InputFormatError(f"client {j}: message index {msg!r} is not an integer")
                if not 1 <= msg <= m:
                    raise InputFormatError(f"client {j}: message {msg} out of range 1..{m}")
                i = m - msg
                if bits[i] == _ONE:
                    raise InputFormatError(f"client {j}: duplicate message {msg}")
                bits[i] = _ONE
            masks.append(int(bits, 2))
        return cls(n, m, tuple(masks))

    @property
    def holdings(self) -> tuple[frozenset[int], ...]:
        """Holdings as frozensets of (original) message labels."""
        return tuple(
            frozenset(self.labels[i] for i in range(self.m) if (mask >> i) & 1)
            for mask in self.masks
        )

    @property
    def others(self) -> tuple[int, ...]:
        """Per client j, the union of every other client's holdings (0 when
        n = 1), from prefix and suffix unions."""
        before = accumulate(self.masks[:-1], or_, initial=0)
        after = list(accumulate(reversed(self.masks[1:]), or_, initial=0))
        return tuple(b | a for b, a in zip(before, reversed(after)))

    def holding_size(self, client: int) -> int:
        return self.masks[client - 1].bit_count()

    def label_positions(self, msgs: Iterable[int]) -> list[int]:
        """Map labels back to 0-based positions."""
        index = {lab: i for i, lab in enumerate(self.labels)}
        out = []
        for msg in msgs:
            if msg not in index:
                raise InputFormatError(f"unknown message label {msg}")
            out.append(index[msg])
        return out


def parse_network(text: str) -> MessageFamily:
    """Parse the network JSON format: clients, messages, holdings."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or set(data) != {"clients", "messages", "holdings"}:
        raise InputFormatError('expected an object with keys "clients", "messages", "holdings"')
    n, m, holdings = data["clients"], data["messages"], data["holdings"]
    if not is_int(n) or n < 1:
        raise InputFormatError("clients must be a positive integer")
    if not is_int(m) or m < 1:
        raise InputFormatError("messages must be a positive integer")
    if not isinstance(holdings, list) or any(not isinstance(h, list) for h in holdings):
        raise InputFormatError("holdings must be a list of lists")
    return MessageFamily.from_holdings(n, m, holdings)


def network_to_json(fam: MessageFamily) -> str:
    """Canonical serialization; holdings sorted ascending, labels dropped."""
    obj = {
        "clients": fam.n,
        "messages": fam.m,
        "holdings": [sorted(i + 1 for i in range(fam.m) if (mask >> i) & 1) for mask in fam.masks],
    }
    return json.dumps(obj, indent=2) + "\n"


@dataclass(frozen=True)
class Hypergraph:
    """Dual view: one vertex per client, one hyperedge per message."""

    n: int
    edge_masks: tuple[int, ...]
    labels: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if not is_int(self.n):
            raise InputFormatError("client count must be an integer")
        if self.n < 1:
            raise InputFormatError("need at least one client")
        for mask in self.edge_masks:
            if not is_int(mask):
                raise InputFormatError(f"edge mask {mask!r} is not an integer")
        full = (1 << self.n) - 1
        if not all(1 <= mask <= full for mask in self.edge_masks):
            raise InputFormatError(f"edge masks must lie in 1..{full}")
        if not self.labels:
            object.__setattr__(self, "labels", tuple(range(1, len(self.edge_masks) + 1)))
        if len(self.labels) != len(self.edge_masks):
            raise InputFormatError("label count does not match edge count")

    @property
    def m(self) -> int:
        return len(self.edge_masks)

    def edge_members(self, pos: int) -> tuple[int, ...]:
        """1-based clients on the hyperedge at 0-based position pos."""
        mask = self.edge_masks[pos]
        return tuple(j + 1 for j in range(self.n) if (mask >> j) & 1)

    def edge_size(self, pos: int) -> int:
        return self.edge_masks[pos].bit_count()


def _transpose(masks: Sequence[int], width: int) -> tuple[int, ...]:
    """Bit j of output k is bit k of `masks[j]`, for k below `width`."""
    out = [0] * width
    for j, mask in enumerate(masks):
        while mask:
            low = mask & -mask
            out[low.bit_length() - 1] |= 1 << j
            mask ^= low
    return tuple(out)


def to_hypergraph(fam: MessageFamily) -> Hypergraph:
    """Hyperedge e = set of clients holding message e; exact dual of the family."""
    return Hypergraph(fam.n, _transpose(fam.masks, fam.m), fam.labels)


def restrict(fam: MessageFamily, keep: Iterable[int]) -> MessageFamily:
    """Sub-instance with only the given message labels.

    All n clients stay (possibly with empty holdings); kept messages are
    renumbered to 1..|keep| while `labels` preserves the original numbers.
    """
    keep_sorted = sorted(set(keep))
    if not keep_sorted:
        raise InputFormatError("cannot restrict to an empty message set")
    positions = fam.label_positions(keep_sorted)
    new_masks = []
    for mask in fam.masks:
        sub = 0
        for newpos, oldpos in enumerate(positions):
            if (mask >> oldpos) & 1:
                sub |= 1 << newpos
        new_masks.append(sub)
    labels = tuple(fam.labels[p] for p in positions)
    return MessageFamily(fam.n, len(positions), tuple(new_masks), labels)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


# The pairwise network has n(n-1)/2 messages.  Its holdings take one
# pass over the pairs; most of the 0.01 s at n = 128 and 0.5 s at n = 400
# (2-vCPU machine) is `from_holdings` setting each client's mask bits.
# Bounded before anything is built.
PIN_GUARD_N = 128


def make_pin(n: int) -> MessageFamily:
    """Pairwise-shared-message network: one message per client pair.

    Messages are the pairs of 1..n in lexicographic order, each held by
    exactly its two endpoints, so the dual hypergraph is the complete
    graph K_n.  Sizes above PIN_GUARD_N are refused with SizeGuardError.
    """
    if not is_int(n):
        raise InputFormatError("pairwise network size must be an integer")
    if n < 2:
        raise InputFormatError("pairwise network needs at least two clients")
    if n > PIN_GUARD_N:
        raise SizeGuardError(
            f"the pairwise network supports at most {PIN_GUARD_N} clients, got {n}"
        )
    holdings: list[list[int]] = [[] for _ in range(n)]
    for label, (a, b) in enumerate(combinations(range(n), 2), 1):
        holdings[a].append(label)
        holdings[b].append(label)
    return MessageFamily.from_holdings(n, n * (n - 1) // 2, holdings)


def make_cyclic15() -> MessageFamily:
    """15-client benchmark family closed under the shift i -> (i mod 15)+1.

    Client 1 holds {5,7,10,11,13,14,15}; client j+1 holds the shift of
    client j's set, applied to both message and client numbering.
    """
    base = (5, 7, 10, 11, 13, 14, 15)
    holdings = []
    for j in range(15):
        holdings.append(sorted((i - 1 + j) % 15 + 1 for i in base))
    return MessageFamily.from_holdings(15, 15, holdings)


# The pair-holder family has m(m-1)/2 + 1 clients, so it grows as m^2
# clients of m bits each; bounded before anything is built.  The split
# protocol over it shares the bound.
GAP_GUARD_M = 24


def make_gap(m: int) -> MessageFamily:
    """Family separating general protocols from scalar-linear ones.

    For even m >= 4: client 1 holds every message, and one client per
    unordered pair {i, j} (in lexicographic order) holds exactly that pair.
    Sizes above GAP_GUARD_M are refused with SizeGuardError.
    """
    if not is_int(m):
        raise InputFormatError("gap construction size must be an integer")
    if m < 4 or m % 2:
        raise InputFormatError("gap construction needs an even message count >= 4")
    if m > GAP_GUARD_M:
        raise SizeGuardError(
            f"the pair-holder family supports at most {GAP_GUARD_M} messages, got {m}"
        )
    holdings: list[list[int]] = [list(range(1, m + 1))]
    for a, b in combinations(range(1, m + 1), 2):
        holdings.append([a, b])
    return MessageFamily.from_holdings(len(holdings), m, holdings)
