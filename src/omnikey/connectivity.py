"""Tree packings and partition connectivity.

A hypergraph on clients (one hyperedge per message, containing its
holders) induces a multigraph once the members of each hyperedge are
chained along a client order.  The partition bound at tau asks every
client partition P to be crossed tau * (|P| - 1) times, a hyperedge
counting once per extra block it meets; on a multigraph that is
Nash-Williams-Tutte's condition for tau edge-disjoint spanning trees.

Read as messages held by their members, the hyperedges give blocks C with
sum |X_C| = crossing(P) + m, and B broadcasts suffice iff every P has
crossing(P) >= (m - B)(|P| - 1).  So for n >= 2 the bound holds at tau iff
that family supports tau keys (`sk_feasible`), and a graph's packing number
is the key capacity (`max_keys`) of its edges read as pairwise messages.
Only `partition_bound_holds` enumerates partitions (up to PARTITION_GUARD_N).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .errors import InfeasibleError, InputFormatError, SizeGuardError, check_tau, is_int
from .network import Hypergraph, MessageFamily, _transpose
from .secrecy import max_keys, sk_feasible

__all__ = [
    "InducedMultigraph",
    "induce_by_order",
    "tree_packing_number",
    "extract_tree_packing",
    "iter_partitions",
    "PartitionCheck",
    "partition_bound_holds",
    "is_partition_connected",
    "is_inherently_connected",
]

PARTITION_GUARD_N = 12


@dataclass(frozen=True)
class InducedMultigraph:
    """Multigraph on 1-based vertices; parallel edges and origins allowed."""

    n: int
    edges: tuple[tuple[int, int], ...]
    origins: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if not is_int(self.n):
            raise InputFormatError("vertex count must be an integer")
        if self.n < 1:
            raise InputFormatError("multigraph needs at least one vertex")
        for u, v in self.edges:
            if not (is_int(u) and is_int(v)):
                raise InputFormatError(f"edge ({u!r}, {v!r}) has a non-integer end")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise InputFormatError(f"edge ({u}, {v}) leaves the vertex range")
            if u == v:
                raise InputFormatError(f"loop at vertex {u} is not allowed")
        if self.origins and len(self.origins) != len(self.edges):
            raise InputFormatError("origins must align with edges")


def induce_by_order(hg: Hypergraph, order: Sequence[int]) -> InducedMultigraph:
    """Chain each hyperedge's members along `order`, one path per hyperedge."""
    if sorted(order) != list(range(1, hg.n + 1)):
        raise InputFormatError("order must be a permutation of the clients")
    rank = {c: i for i, c in enumerate(order)}
    edges: list[tuple[int, int]] = []
    origins: list[int] = []
    for idx in range(hg.m):
        members = sorted(hg.edge_members(idx), key=rank.__getitem__)
        for a, b in zip(members, members[1:]):
            edges.append((a, b))
            origins.append(hg.labels[idx])
    return InducedMultigraph(hg.n, tuple(edges), tuple(origins))


# ---------------------------------------------------------------------------
# spanning tree packing via forest exchanges
# ---------------------------------------------------------------------------


class _Packing:
    """Grow k edge-disjoint forests one augmenting exchange at a time."""

    def __init__(self, n: int, edges: Sequence[tuple[int, int]], k: int):
        self.n = n
        self.k = k
        self.edges = list(edges)
        self.owner = [-1] * len(edges)
        self.adj = [[[] for _ in range(n + 1)] for _ in range(k)]

    def _path(self, f: int, src: int, dst: int) -> list[int] | None:
        """Edge ids along the forest path src..dst, or None if disconnected."""
        if src == dst:
            return []
        prev: dict[int, tuple[int, int]] = {src: (0, -1)}
        queue = deque([src])
        while queue:
            x = queue.popleft()
            for y, eid in self.adj[f][x]:
                if y not in prev:
                    prev[y] = (x, eid)
                    if y == dst:
                        out = []
                        node = dst
                        while node != src:
                            node, eid2 = prev[node]
                            out.append(eid2)
                        return out
                    queue.append(y)
        return None

    def _attach(self, f: int, eid: int):
        u, v = self.edges[eid]
        self.adj[f][u].append((v, eid))
        self.adj[f][v].append((u, eid))

    def _detach(self, f: int, eid: int):
        u, v = self.edges[eid]
        self.adj[f][u].remove((v, eid))
        self.adj[f][v].remove((u, eid))

    def augment(self, root: int) -> bool:
        """Try to bring the unused edge `root` into the packing."""
        pred: dict[int, int] = {root: -1}
        queue = deque([root])
        while queue:
            g = queue.popleft()
            gu, gv = self.edges[g]
            for f in range(self.k):
                if self.owner[g] == f:
                    continue
                cycle = self._path(f, gu, gv)
                if cycle is None:
                    cur, target = g, f
                    while True:
                        old = self.owner[cur]
                        self._attach(target, cur)
                        self.owner[cur] = target
                        if old == -1:
                            return True
                        self._detach(old, cur)
                        cur, target = pred[cur], old
                for h in cycle or ():
                    if h not in pred:
                        pred[h] = g
                        queue.append(h)
        return False

    def run(self) -> list[list[int]] | None:
        """Edge ids of each forest, in edge order, if every forest spans."""
        for eid in range(len(self.edges)):
            if self.owner[eid] == -1:
                self.augment(eid)
        trees: list[list[int]] = [[] for _ in range(self.k)]
        for eid, f in enumerate(self.owner):
            if f >= 0:
                trees[f].append(eid)
        return None if any(len(tree) < self.n - 1 for tree in trees) else trees


def _holders(n: int, edge_masks: Sequence[int]) -> MessageFamily:
    """The family with one message per edge, held by the edge's clients."""
    return MessageFamily(n, len(edge_masks), _transpose(edge_masks, n))


def tree_packing_number(graph: InducedMultigraph) -> int:
    """Largest k with k edge-disjoint spanning trees: the key count of the
    family where each edge is a message its two ends hold.

    A single vertex spans with the empty tree, so any count works; the
    edge count plus one stands in for that unbounded case."""
    if graph.n == 1:
        return len(graph.edges) + 1
    if not graph.edges:
        return 0
    return max_keys(_holders(graph.n, [(1 << u - 1) | (1 << v - 1) for u, v in graph.edges]))


def extract_tree_packing(graph: InducedMultigraph, count: int) -> list[list[int]]:
    """`count` pairwise edge-disjoint spanning trees, as edge-id lists."""
    if not is_int(count):
        raise InputFormatError("tree count must be an integer")
    if count < 0:
        raise InputFormatError("tree count must be nonnegative")
    trees = _Packing(graph.n, graph.edges, count).run()
    if trees is None:
        raise InfeasibleError(f"no packing of {count} edge-disjoint spanning trees")
    return trees


# ---------------------------------------------------------------------------
# partition bounds
# ---------------------------------------------------------------------------


def iter_partitions(n: int) -> Iterator[tuple[frozenset[int], ...]]:
    """All partitions of {1..n}, blocks ordered by their smallest member."""
    if not is_int(n):
        raise InputFormatError("partition ground set size must be an integer")
    if n < 1:
        raise InputFormatError("partition ground set must be nonempty")
    if n > PARTITION_GUARD_N:
        raise SizeGuardError(
            f"partition enumeration supports at most {PARTITION_GUARD_N} clients, got {n}"
        )
    blocks: list[list[int]] = []

    def rec(i: int) -> Iterator[tuple[frozenset[int], ...]]:
        if i > n:
            yield tuple(frozenset(b) for b in blocks)
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1)
        blocks.pop()

    yield from rec(1)


@dataclass(frozen=True)
class PartitionCheck:
    """One partition against the crossing requirement for a given tau."""

    partition: tuple[frozenset[int], ...]
    crossing: int
    required: int

    @property
    def holds(self) -> bool:
        return self.crossing >= self.required


def _crossing_count(edge_masks: Sequence[int], block_masks: Sequence[int]) -> int:
    """Blocks each hyperedge meets beyond its first, summed over hyperedges.

    Both sides are client bitmasks, so one AND tells whether a hyperedge
    reaches into a block."""
    total = -len(edge_masks)
    for edge in edge_masks:
        for block in block_masks:
            if edge & block:
                total += 1
    return total


def partition_bound_holds(
    hg: Hypergraph, tau: int
) -> tuple[bool, PartitionCheck | None]:
    """Check every partition; on failure return the worst violation.

    Each partition from `iter_partitions` becomes one client bitmask per
    block, and its crossing count is an AND of every hyperedge's mask
    with every block's.  Ties between equally violated partitions go to
    the first one in enumeration order."""
    check_tau(tau)
    bit = [0] + [1 << j for j in range(hg.n)]
    worst: PartitionCheck | None = None
    for part in iter_partitions(hg.n):
        if len(part) == 1:
            continue
        block_masks = [sum(map(bit.__getitem__, block)) for block in part]
        crossing = _crossing_count(hg.edge_masks, block_masks)
        required = tau * (len(part) - 1)
        if crossing < required and (
            worst is None or crossing - required < worst.crossing - worst.required
        ):
            worst = PartitionCheck(part, crossing, required)
    return worst is None, worst


def is_partition_connected(hg: Hypergraph, tau: int) -> bool:
    """True iff every client partition meets the tau crossing requirement:
    iff the hyperedges, as messages, fit within m - tau broadcasts."""
    check_tau(tau)
    if hg.n == 1:
        return True
    if not hg.edge_masks:
        return False
    return is_inherently_connected(_holders(hg.n, hg.edge_masks), tau)


def is_inherently_connected(fam: MessageFamily, tau: int) -> bool:
    """True iff omniscience fits within m - tau broadcasts, the regime where
    tau message-sized secrets survive every partition of the clients."""
    check_tau(tau)
    return sk_feasible(fam, tau)
