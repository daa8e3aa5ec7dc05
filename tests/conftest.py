"""Shared brute-force reference implementations.

Everything in here recomputes answers the slow, obviously-correct way:
enumerate every allocation, every message subset, every partition.  The
real solvers are checked against these on families small enough that
exhaustion finishes quickly.
"""

from __future__ import annotations

import itertools
import random
import weakref
from fractions import Fraction
from math import inf

import numpy as np
import pytest

from omnikey import MessageFamily, omniscience, oracle, to_hypergraph
from omnikey.connectivity import PartitionCheck, iter_partitions
from omnikey.errors import InputFormatError
from omnikey.fields import _width, rank, rref
from omnikey.protocols import _missing_cols


@pytest.fixture
def table_builds(monkeypatch):
    """Weak references to every subset table the test asks
    `omniscience._Tables` to build, one per construction attempt."""
    built = []

    class Counted(omniscience._Tables):
        def __init__(self, fam):
            built.append(weakref.ref(self))
            super().__init__(fam)

    monkeypatch.setattr(omniscience, "_Tables", Counted)
    return built


def union_size(fam: MessageFamily, clients) -> int:
    mask = 0
    for j in clients:
        mask |= fam.masks[j]
    return bin(mask).count("1")


def brute_feasible(fam: MessageFamily, alloc) -> bool:
    """Check every cut constraint by direct enumeration."""
    n = fam.n
    for bits in range(1, (1 << n) - 1):
        senders = [j for j in range(n) if bits >> j & 1]
        rest = [j for j in range(n) if not bits >> j & 1]
        if sum(alloc[j] for j in senders) < fam.m - union_size(fam, rest):
            return False
    return True


def compositions(total: int, parts: int, cap: int):
    """Every vector of `parts` entries in range(cap + 1) summing to `total`,
    in lexicographic order."""
    if parts == 1:
        if total <= cap:
            yield (total,)
        return
    for first in range(min(total, cap) + 1):
        for rest in compositions(total - first, parts - 1, cap):
            yield (first,) + rest


def brute_min_broadcasts(fam: MessageFamily):
    """Exhaust allocations by ascending total, each total in lexicographic
    order; the first feasible one gives (total, lex-least optimal vector)."""
    if fam.n == 1:
        return 0, (0,)
    for total in range(fam.n * fam.m + 1):
        for vec in compositions(total, fam.n, fam.m):
            if brute_feasible(fam, vec):
                return total, vec


def brute_tight_sets(fam: MessageFamily, alloc):
    """Every nonempty proper client subset (1-based ids) whose cut
    constraint `alloc` meets with equality, ascending by client bitmask."""
    n = fam.n
    tight = []
    for bits in range(1, (1 << n) - 1):
        senders = [j for j in range(n) if bits >> j & 1]
        rest = [j for j in range(n) if not bits >> j & 1]
        if sum(alloc[j] for j in senders) == fam.m - union_size(fam, rest):
            tight.append(frozenset(j + 1 for j in senders))
    return tuple(tight)


def brute_most_violated(fam: MessageFamily, alloc):
    """Client subset (1-based ids) whose cut constraint `alloc` misses by
    the most, smallest bitmask on ties, or None when `alloc` is feasible."""
    n = fam.n
    worst, worst_bits = 0, None
    for bits in range(1, (1 << n) - 1):
        senders = [j for j in range(n) if bits >> j & 1]
        rest = [j for j in range(n) if not bits >> j & 1]
        short = fam.m - union_size(fam, rest) - sum(alloc[j] for j in senders)
        if short > worst:
            worst, worst_bits = short, bits
    if worst_bits is None:
        return None
    return frozenset(j + 1 for j in range(n) if worst_bits >> j & 1)


def reference_optimum(fam: MessageFamily):
    """(total, lexicographically smallest allocation) by the lazy-cut loop
    with the total escalated one broadcast at a time from 0: at each total
    the package's depth-first search looks for an allocation meeting the
    listed constraints, and the subset table separates it.  The first total
    that succeeds is the optimum, reached without the decision pass."""
    n = fam.n
    if n == 1:
        return 0, (0,)
    tables = omniscience._Tables(fam)
    seeds = omniscience._seed_constraints(fam)
    masks = list(seeds)
    needs = [seeds[mk] for mk in masks]
    cons_at = [[i for i, mk in enumerate(masks) if mk >> j & 1] for j in range(n)]
    total = 0
    while True:
        sol = [0] * n
        if not omniscience._dfs_budget(0, total, sol, list(needs), masks, cons_at):
            total += 1
            continue
        viol = tables.most_violated(sol)
        if viol is None:
            return total, tuple(sol)
        mask, nd = viol
        masks.append(mask)
        needs.append(nd)
        for j in range(n):
            if mask >> j & 1:
                cons_at[j].append(len(masks) - 1)


def brute_restrict_total(fam: MessageFamily, keep) -> int:
    """Minimum broadcast total for the subfamily on the kept messages."""
    kept = sorted(keep)
    if fam.n == 1:
        return 0
    positions = {msg: i for i, msg in enumerate(kept)}
    holdings = []
    for j in range(fam.n):
        holdings.append([positions[msg] + 1 for msg in kept if fam.masks[j] >> (msg - 1) & 1])
    sub = MessageFamily.from_holdings(fam.n, len(kept), holdings)
    total, _ = brute_min_broadcasts(sub)
    return total


def brute_sk_cost(fam: MessageFamily, tau: int):
    """Smallest support that leaves tau keys after exchange.

    Returns (cost, support) with the lexicographically first witness,
    or (inf, None) when no message subset works.
    """
    messages = range(1, fam.m + 1)
    for size in range(tau, fam.m + 1):
        for combo in itertools.combinations(messages, size):
            if brute_restrict_total(fam, combo) <= size - tau:
                return size - tau, combo
    return inf, None


def reference_support_search(fam: MessageFamily, tau: int, start: int):
    """The support search as one loop over every combination of each size:
    the same floors and decision calls as `secrecy._Walk.search`, in the
    same order, without pruning whole branches.

    The leaf floors are the cover, the degree floor (all singletons) and,
    for n >= 2, every two-block partition {j} | rest: at least tau kept
    messages held by client j and by someone else."""
    n, m = fam.n, fam.m
    holder = to_hypergraph(fam).edge_masks
    shared = []
    for j in range(n if n > 1 else 0):
        others = 0
        for k in range(n):
            if k != j:
                others |= fam.masks[k]
        shared.append(fam.masks[j] & others)
    degrees = [mask.bit_count() for mask in holder]
    weight = sorted((d - 1 for d in degrees), reverse=True)
    floor = tau * (n - 1)
    for size in range(max(start, tau), m + 1):
        if sum(weight[:size]) < floor:
            continue
        budget = size - tau
        for combo in itertools.combinations(range(m), size):
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
            if any((sh & keep).bit_count() < tau for sh in shared):
                continue
            if omniscience._decision_keep(fam, keep, budget):
                return combo
    return None


def brute_max_keys(fam: MessageFamily) -> int:
    total, _ = brute_min_broadcasts(fam)
    return fam.m - total


def brute_set_cover(universe, sets):
    """First cover of minimum size in combination order, else None."""
    need = set(universe)
    indices = range(1, len(sets) + 1)
    for size in range(1, len(sets) + 1):
        for combo in itertools.combinations(indices, size):
            got = set()
            for i in combo:
                got.update(sets[i - 1])
            if need <= got:
                return combo
    return None


def brute_partitions(items):
    """Every partition of items, built by inserting one element at a time."""
    items = list(items)
    if not items:
        return [[]]
    head, rest = items[0], items[1:]
    out = []
    for smaller in brute_partitions(rest):
        for i in range(len(smaller)):
            out.append(smaller[:i] + [smaller[i] + [head]] + smaller[i + 1 :])
        out.append([[head]] + smaller)
    return out


def reference_partition_check(hg, tau: int):
    """The partition bound counted member by member: each client's block
    index from a dict, each hyperedge's blocks gathered in a set.

    Returns (holds, worst) like `partition_bound_holds`: the most violated
    partition, ties going to the first in `iter_partitions` order."""
    worst = None
    for part in iter_partitions(hg.n):
        if len(part) == 1:
            continue
        block_of = {c: i for i, b in enumerate(part) for c in b}
        crossing = sum(
            len({block_of[c] for c in hg.edge_members(idx)}) - 1 for idx in range(hg.m)
        )
        required = tau * (len(part) - 1)
        if crossing < required:
            if worst is None or crossing - required < worst.crossing - worst.required:
                worst = PartitionCheck(part, crossing, required)
    return worst is None, worst


def brute_rate(fam: MessageFamily) -> Fraction:
    """Fractional omniscience optimum by the partition formula: the maximum,
    over client partitions P with at least two blocks, of
    sum over blocks C of (m - |X_C|) / (|P| - 1), where X_C is the union
    of the holdings of C's clients (0 when n = 1)."""
    best = Fraction(0)
    for partition in brute_partitions(range(fam.n)):
        if len(partition) >= 2:
            missing = sum(fam.m - union_size(fam, block) for block in partition)
            best = max(best, Fraction(missing, len(partition) - 1))
    return best


def nash_williams_bound(n: int, edges) -> int:
    """Tree packing limit from the partition formula.

    For every partition of the vertices the packing cannot exceed
    crossing / (blocks - 1); the true maximum equals the minimum of
    that ratio over all partitions with at least two blocks.
    """
    best = None
    for part in brute_partitions(range(1, n + 1)):
        if len(part) < 2:
            continue
        block_of = {}
        for b, block in enumerate(part):
            for v in block:
                block_of[v] = b
        crossing = sum(1 for u, v in edges if block_of[u] != block_of[v])
        ratio = crossing // (len(part) - 1)
        if best is None or ratio < best:
            best = ratio
    return best if best is not None else 0


def spanning_tree_ok(n: int, tree_edges) -> bool:
    """True when the edges form a spanning tree on vertices 1..n."""
    if len(tree_edges) != n - 1:
        return False
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in tree_edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def brute_span(field, rows, ncols: int) -> set:
    """Every vector in the row span, grown one row at a time by adding
    each field multiple of the row to everything reached so far."""
    span = {(0,) * ncols}
    for row in rows:
        span = {
            tuple(field.add(s, field.mul(a, v)) for s, v in zip(vec, row))
            for vec in span
            for a in field.elements()
        }
    return span


def brute_unit_completion(field, rows, ncols: int, count: int) -> list:
    """Scan unit vectors e_0, e_1, ... and keep each one outside the
    enumerated span of the rows and the units kept so far."""
    kept: list = []
    for j in range(ncols):
        if len(kept) == count:
            break
        unit = [0] * ncols
        unit[j] = 1
        if tuple(unit) not in brute_span(field, list(rows) + kept, ncols):
            kept.append(unit)
    return kept


def brute_eval_states(field, rows, ncoords: int) -> list:
    """Every row's value at every state, one state at a time: state s
    gives coordinate c the base-q digit (s // q**c) % q."""
    q = field.q
    out = []
    for row in rows:
        values = []
        for s in range(q**ncoords):
            acc = 0
            for c, coeff in enumerate(row):
                acc = field.add(acc, field.mul(coeff, s // q**c % q))
            values.append(acc)
        out.append(values)
    return out


def reference_determines(view, out, out_space: int):
    """Does the view fix the output?  Ranks the views, then sorts the
    states by (view rank, output); the first neighbours with one view and
    two outputs are the clashing pair."""
    _, inv = np.unique(view, return_inverse=True)
    pair = inv.astype(np.int64) * out_space + out
    order = np.argsort(pair, kind="stable")
    sv = inv[order]
    so = out[order]
    clash = (sv[1:] == sv[:-1]) & (so[1:] != so[:-1])
    hits = np.nonzero(clash)[0]
    if hits.size == 0:
        return True, None
    i = int(hits[0])
    return False, (int(order[i]), int(order[i + 1]))


def grid_code(space, cols) -> np.ndarray:
    """Base-q code of the listed coordinates at every state of an oracle
    grid, the first least significant."""
    digits = np.arange(space.q, dtype=np.int64)
    return space.pack(space.along(c, digits) for c in cols)


def reference_client_determines(space, cols, t_code, t_space: int, k_code):
    """The per-client check over every state of the grid: the view is the
    client's own code above the transmission code, and the output is the
    key code, or the state index when `k_code` is None."""
    view = space.flat(grid_code(space, cols) * t_space + t_code)
    if k_code is None:
        out = np.arange(space.states, dtype=np.int64)
    else:
        out = space.flat(k_code)
    return oracle._determines(view, out)


def reference_joint_counts(space, k_code, k_space: int, t_code, t_space: int) -> np.ndarray:
    """The (key, transmission) histogram by one bincount over every state
    of the grid."""
    codes = space.flat(k_code) * t_space + space.flat(t_code)
    return np.bincount(codes, minlength=k_space * t_space).reshape(k_space, t_space)


def solve_combination(field, rows, vec):
    """Coefficients y with y . rows == vec, or None when vec is outside the
    rowspan.  Solved by reducing the transposed system augmented with vec:
    a pivot in the augmented column means no solution, and coefficients
    without a pivot (free ones) are left at 0."""
    if rows and len(vec) != _width(rows):
        raise InputFormatError("vector length does not match matrix width")
    aug = [[row[c] for row in rows] + [v] for c, v in enumerate(vec)]
    reduced, pivots = rref(field, aug)
    if len(rows) in pivots:
        return None
    coeffs = [0] * len(rows)
    for row, c in zip(reduced, pivots):
        coeffs[c] = row[-1]
    return coeffs


def restricted(rows, cols) -> list[list[int]]:
    """The rows cut down to the given columns.  A client holding
    coordinates H decodes a vector exactly when its restriction to the
    other coordinates lies in the span of the rows restricted to them."""
    return [[row[c] for c in cols] for row in rows]


def reference_decode_issues(protocol, fam) -> list[str]:
    """The omniscience rank checks of `algebraic_issues` on the raw
    coordinates: client j decodes every message iff the transmissions cut
    to the coordinates it lacks have full rank."""
    trans = [list(r) for r in protocol.rows]
    issues = []
    for j in range(1, fam.n + 1):
        missing = _missing_cols(fam, j, protocol.dim)
        if rank(protocol.field, restricted(trans, missing)) != len(missing):
            issues.append(f"client {j} cannot decode every message")
    return issues


def reference_key_issues(protocol, fam) -> list[str]:
    """The secret-key rank checks of `algebraic_issues`, one elimination per
    (client, key) pair: a key is derivable iff `solve_combination` finds
    it in the span of the client's restricted transmissions."""
    field = protocol.field
    trans = [list(r) for r in protocol.rows]
    keys = [list(r) for r in protocol.key_rows]
    issues = []
    if rank(field, trans + keys) != rank(field, trans) + len(keys):
        issues.append("the keys leak through the transmissions")
    for j in range(1, fam.n + 1):
        missing = _missing_cols(fam, j, protocol.dim)
        seen = restricted(trans, missing)
        for i, key in enumerate(keys):
            if solve_combination(field, seen, [key[c] for c in missing]) is None:
                issues.append(f"client {j} cannot derive key {i + 1}")
    return issues


def reference_issues(protocol, fam) -> list[str]:
    """Every issue `algebraic_issues` should list, in its order: each
    transmission with a nonzero coefficient on a message its sender lacks,
    then the rank checks on the raw coordinates for the protocol's kind."""
    dim = protocol.dim
    issues = []
    for t, sender in enumerate(protocol.senders):
        held = fam.masks[sender - 1]
        rows = protocol.rows[t * dim : (t + 1) * dim]
        if any(v and not held >> (c // dim) & 1 for row in rows for c, v in enumerate(row)):
            issues.append(
                f"transmission {t + 1} uses messages its sender {sender} does not hold"
            )
    if protocol.kind == "omniscience":
        return issues + reference_decode_issues(protocol, fam)
    return issues + reference_key_issues(protocol, fam)


def reference_masks(m: int, holdings) -> tuple[int, ...]:
    """Holding masks built one bit at a time, each entry checked in order:
    integer, then in range 1..m, then not repeated.  Raises the same
    InputFormatError as `MessageFamily.from_holdings` on the first bad entry."""
    masks = []
    for j, hold in enumerate(holdings, start=1):
        mask = 0
        for msg in hold:
            if not isinstance(msg, int) or isinstance(msg, bool):
                raise InputFormatError(f"client {j}: message index {msg!r} is not an integer")
            if not 1 <= msg <= m:
                raise InputFormatError(f"client {j}: message {msg} out of range 1..{m}")
            bit = 1 << (msg - 1)
            if mask & bit:
                raise InputFormatError(f"client {j}: duplicate message {msg}")
            mask |= bit
        masks.append(mask)
    return tuple(masks)


def random_family(rng: random.Random, n: int, m: int) -> MessageFamily:
    """Random holdings where every message has at least one holder."""
    while True:
        masks = [0] * n
        for msg in range(m):
            holders = rng.sample(range(n), rng.randint(1, n))
            for j in holders:
                if rng.random() < 0.6:
                    masks[j] |= 1 << msg
        for msg in range(m):
            if not any(masks[j] >> msg & 1 for j in range(n)):
                masks[rng.randrange(n)] |= 1 << msg
        if any(masks):
            holdings = [
                [msg + 1 for msg in range(m) if masks[j] >> msg & 1] for j in range(n)
            ]
            return MessageFamily.from_holdings(n, m, holdings)
