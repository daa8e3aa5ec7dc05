from __future__ import annotations

import random
from itertools import combinations

import pytest

from omnikey import (
    Hypergraph,
    InducedMultigraph,
    extract_tree_packing,
    induce_by_order,
    is_inherently_connected,
    is_partition_connected,
    iter_partitions,
    make_cyclic15,
    make_gap,
    make_pin,
    min_broadcasts,
    partition_bound_holds,
    split_gap_protocol,
    to_hypergraph,
    tree_packing_number,
)
from omnikey.errors import InfeasibleError, InputFormatError, SizeGuardError

from conftest import (
    brute_partitions,
    nash_williams_bound,
    random_family,
    reference_partition_check,
    spanning_tree_ok,
)


def complete_graph(n: int) -> InducedMultigraph:
    edges = tuple(combinations(range(1, n + 1), 2))
    return InducedMultigraph(n, edges)


def random_multigraph(rng: random.Random, n: int, e: int) -> InducedMultigraph:
    edges = []
    for _ in range(e):
        u = rng.randint(1, n)
        v = rng.randint(1, n)
        while v == u:
            v = rng.randint(1, n)
        edges.append((u, v))
    return InducedMultigraph(n, tuple(edges))


def test_multigraph_validation():
    with pytest.raises(InputFormatError):
        InducedMultigraph(2, ((1, 1),))
    with pytest.raises(InputFormatError):
        InducedMultigraph(2, ((1, 3),))
    with pytest.raises(InputFormatError):
        InducedMultigraph(2, ((1, 2),), (7, 8))


@pytest.mark.parametrize(
    "args",
    [(0, ()), (2, (0,)), (3, (8, 3)), (2, (-1,)), (2, (1, 2), (7,))],
    ids=["no clients", "empty edge", "edge past n", "negative edge", "labels short"],
)
def test_hypergraph_validation(args):
    with pytest.raises(InputFormatError):
        Hypergraph(*args)


def test_hypergraph_labels_default_to_edge_positions():
    assert Hypergraph(3, (0b101, 0b011)).labels == (1, 2)
    assert Hypergraph(3, (0b101, 0b011), (4, 9)).labels == (4, 9)


def test_induce_by_order_chains_hyperedges():
    hg = Hypergraph(4, (0b1011, 0b0110), (5, 9))
    graph = induce_by_order(hg, [1, 2, 3, 4])
    # edge 1 covers clients {1, 2, 4}; edge 2 covers {2, 3}
    assert graph.edges == ((1, 2), (2, 4), (2, 3))
    assert graph.origins == (5, 5, 9)
    reordered = induce_by_order(hg, [4, 3, 2, 1])
    assert reordered.edges == ((4, 2), (2, 1), (3, 2))


def test_induce_by_order_needs_a_permutation():
    hg = Hypergraph(3, (0b111,))
    with pytest.raises(InputFormatError):
        induce_by_order(hg, [1, 2])
    with pytest.raises(InputFormatError):
        induce_by_order(hg, [1, 2, 2])


def test_complete_graph_packings():
    # K_n packs floor(n/2) edge-disjoint spanning trees; the last three
    # are past the partition enumeration's client limit
    for n in [*range(2, 8), 13, 20, 30]:
        assert tree_packing_number(complete_graph(n)) == n // 2


def test_packing_number_matches_partition_formula():
    rng = random.Random(10)
    for _ in range(40):
        n = rng.randint(2, 6)
        graph = random_multigraph(rng, n, rng.randint(n - 1, 3 * n))
        assert tree_packing_number(graph) == nash_williams_bound(n, graph.edges)


def test_extracted_trees_are_spanning_and_disjoint():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 6)
        graph = random_multigraph(rng, n, rng.randint(n, 3 * n))
        k = tree_packing_number(graph)
        # the number is the widest packing: one tree more does not fit
        with pytest.raises(InfeasibleError):
            extract_tree_packing(graph, k + 1)
        if k == 0:
            continue
        trees = extract_tree_packing(graph, k)
        assert len(trees) == k
        used = set()
        for tree in trees:
            assert spanning_tree_ok(n, [graph.edges[eid] for eid in tree])
            for eid in tree:
                assert eid not in used
                used.add(eid)


def test_extract_refuses_impossible_counts():
    graph = complete_graph(4)
    assert tree_packing_number(graph) == 2
    with pytest.raises(InfeasibleError):
        extract_tree_packing(graph, 3)
    assert extract_tree_packing(graph, 0) == []


def test_single_vertex_conventions():
    graph = InducedMultigraph(1, ())
    assert tree_packing_number(graph) == 1
    assert extract_tree_packing(graph, 3) == [[], [], []]


def test_disconnected_graph_packs_nothing():
    graph = InducedMultigraph(4, ((1, 2), (3, 4)))
    assert tree_packing_number(graph) == 0


def test_iter_partitions_counts_and_shape():
    bell = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52}
    for n, count in bell.items():
        parts = list(iter_partitions(n))
        assert len(parts) == count
        seen = set()
        for part in parts:
            flat = sorted(x for block in part for x in block)
            assert flat == list(range(1, n + 1))
            # blocks come ordered by smallest member
            mins = [min(block) for block in part]
            assert mins == sorted(mins)
            assert part not in seen
            seen.add(part)


def test_iter_partitions_matches_reference_enumeration():
    for n in range(1, 6):
        ours = {frozenset(part) for part in iter_partitions(n)}
        reference = {
            frozenset(frozenset(block) for block in part)
            for part in brute_partitions(range(1, n + 1))
        }
        assert ours == reference


def test_iter_partitions_guard():
    with pytest.raises(InputFormatError):
        list(iter_partitions(0))
    with pytest.raises(SizeGuardError):
        list(iter_partitions(13))


def test_partition_bound_on_pin4():
    hg = to_hypergraph(make_pin(4))
    ok, _ = partition_bound_holds(hg, 2)
    assert ok
    ok, worst = partition_bound_holds(hg, 3)
    assert not ok
    # the all-singletons partition gives crossing 6 < 3 * 3
    assert len(worst.partition) == 4
    assert worst.crossing == 6
    assert worst.required == 9
    assert not worst.holds


def test_partition_bound_agrees_with_packing_on_graphs():
    # for 2-member hyperedges the bound is exactly the packing formula
    rng = random.Random(12)
    for _ in range(30):
        n = rng.randint(2, 5)
        graph = random_multigraph(rng, n, rng.randint(n - 1, 3 * n))
        members = tuple(
            (1 << (u - 1)) | (1 << (v - 1)) for u, v in graph.edges
        )
        hg = Hypergraph(n, members)
        k = tree_packing_number(graph)
        for tau in range(1, k + 1):
            assert is_partition_connected(hg, tau)
        assert not is_partition_connected(hg, k + 1)


@pytest.mark.parametrize("n", [13, 20, 30])
def test_partition_connectivity_past_the_enumeration_limit(n):
    # the dual of the pairwise network is K_n, which packs n // 2 trees
    hg = to_hypergraph(make_pin(n))
    assert is_partition_connected(hg, n // 2)
    assert not is_partition_connected(hg, n // 2 + 1)


def random_hypergraph(rng: random.Random, n: int, m: int) -> Hypergraph:
    """Hyperedges of random holders; about a third hold a single client."""
    masks = []
    for _ in range(m):
        if rng.random() < 0.3:
            masks.append(1 << rng.randrange(n))
        else:
            masks.append(rng.randint(1, (1 << n) - 1))
    return Hypergraph(n, tuple(masks))


def test_partition_bound_matches_the_member_count():
    # the bitmask count against the per-member reference: the same
    # verdict, partition, crossing and requirement
    rng = random.Random(15)
    for _ in range(120):
        hg = random_hypergraph(rng, rng.randint(1, 7), rng.randint(0, 8))
        for tau in range(1, 5):
            want = reference_partition_check(hg, tau)
            assert partition_bound_holds(hg, tau) == want
            assert is_partition_connected(hg, tau) == want[0]


def test_partition_bound_rejects_bad_tau():
    hg = to_hypergraph(make_pin(3))
    with pytest.raises(InputFormatError):
        partition_bound_holds(hg, 0)


@pytest.mark.parametrize("tau", [1.5, 1.0, True, "1"], ids=repr)
def test_non_integer_tau_is_refused(tau):
    fam = make_pin(4)
    hg = to_hypergraph(fam)
    for check, arg in (
        (partition_bound_holds, hg),
        (is_partition_connected, hg),
        (is_inherently_connected, fam),
    ):
        with pytest.raises(InputFormatError, match="tau must be an integer"):
            check(arg, tau)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Hypergraph(True, (1,)),
        lambda: Hypergraph(2, (1.0,)),
        lambda: Hypergraph(2.0, (1, 3)),
        lambda: InducedMultigraph(2.0, ((1, 2),)),
        lambda: InducedMultigraph(2, ((1.0, 2),)),
        lambda: list(iter_partitions(True)),
        lambda: extract_tree_packing(complete_graph(4), True),
        lambda: extract_tree_packing(complete_graph(4), 1.5),
        lambda: make_pin(4.0),
        lambda: make_gap(4.0),
        lambda: split_gap_protocol(6.0),
    ],
    ids=[
        "Hypergraph n=True",
        "Hypergraph mask 1.0",
        "Hypergraph n=2.0",
        "InducedMultigraph n=2.0",
        "InducedMultigraph end 1.0",
        "iter_partitions(True)",
        "extract count True",
        "extract count 1.5",
        "make_pin(4.0)",
        "make_gap(4.0)",
        "split_gap_protocol(6.0)",
    ],
)
def test_non_integer_sizes_are_refused(build):
    with pytest.raises(InputFormatError, match="integer"):
        build()


def test_inherent_connectivity_thresholds():
    fam = make_pin(4)
    assert is_inherently_connected(fam, 1)
    assert is_inherently_connected(fam, 2)
    assert not is_inherently_connected(fam, 3)
    cyc = make_cyclic15()
    assert is_inherently_connected(cyc, 6)
    assert not is_inherently_connected(cyc, 7)


def test_inherent_connectivity_matches_optimum():
    rng = random.Random(13)
    for _ in range(25):
        fam = random_family(rng, rng.randint(2, 5), rng.randint(2, 6))
        slack = fam.m - min_broadcasts(fam).total
        for tau in range(1, slack + 1):
            assert is_inherently_connected(fam, tau)
        assert not is_inherently_connected(fam, slack + 1)


def test_partition_bound_is_necessary_for_inherent_connectivity():
    rng = random.Random(14)
    for _ in range(20):
        fam = random_family(rng, rng.randint(2, 5), rng.randint(2, 6))
        hg = to_hypergraph(fam)
        for tau in (1, 2, 3):
            if is_inherently_connected(fam, tau):
                assert is_partition_connected(hg, tau)


def test_gap_family_connectivity():
    fam = make_gap(4)
    assert is_inherently_connected(fam, 1)
    assert is_inherently_connected(fam, 2)
    assert not is_inherently_connected(fam, 3)
