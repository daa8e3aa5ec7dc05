from __future__ import annotations

import dataclasses
import gc
import json
import math
import random
import sys
import tracemalloc
import weakref

import pytest

from omnikey import (
    MessageFamily,
    build_report,
    is_critical,
    linear_secrecy_cost,
    make_cyclic15,
    make_gap,
    make_pin,
    max_keys,
    min_broadcasts,
    min_key_support,
    minimum_cover,
    omniscience,
    parse_set_cover,
    reduce_set_cover,
    restrict,
    secrecy,
    sk_feasible,
)
from omnikey.errors import InfeasibleError, InputFormatError, SizeGuardError
from omnikey.secrecy import SetCoverInstance, _Walk

from conftest import (
    brute_max_keys,
    brute_set_cover,
    brute_sk_cost,
    random_family,
    reference_support_search,
)


def test_max_keys_known_families():
    assert max_keys(make_pin(3)) == 1
    assert max_keys(make_pin(4)) == 2
    assert max_keys(make_gap(4)) == 2
    assert max_keys(make_cyclic15()) == 6


def test_max_keys_matches_brute_force():
    rng = random.Random(20)
    for _ in range(30):
        fam = random_family(rng, rng.randint(2, 5), rng.randint(1, 5))
        assert max_keys(fam) == brute_max_keys(fam)


def test_sk_feasible_thresholds():
    fam = make_cyclic15()
    assert sk_feasible(fam, 0)
    for tau in range(1, 7):
        assert sk_feasible(fam, tau)
    assert not sk_feasible(fam, 7)
    with pytest.raises(InputFormatError):
        sk_feasible(fam, -1)


@pytest.mark.parametrize("tau", [1.5, 1.0, True, "1"], ids=repr)
@pytest.mark.parametrize(
    "check", [sk_feasible, is_critical, min_key_support, linear_secrecy_cost, build_report]
)
def test_non_integer_key_counts_are_refused(check, tau):
    with pytest.raises(InputFormatError, match="tau must be an integer"):
        check(make_pin(4), tau)


def test_key_counts_out_of_range_keep_their_messages():
    fam = make_pin(4)
    for check in (is_critical, min_key_support, linear_secrecy_cost, build_report):
        with pytest.raises(InputFormatError, match="^tau must be positive$"):
            check(fam, 0)
    with pytest.raises(InputFormatError, match="^tau must be nonnegative$"):
        sk_feasible(fam, -1)


def test_cyclic15_cost_table():
    rep = build_report(make_cyclic15())
    assert rep.min_broadcasts == 9
    assert rep.allocation == (0,) * 6 + (1,) * 9
    assert rep.max_keys == 6
    assert [(e.tau, e.cost) for e in rep.entries] == [
        (1, 2),
        (2, 4),
        (3, 4),
        (4, 6),
        (5, 8),
        (6, 8),
    ]
    assert rep.entries[0].support == (1, 2, 13)
    assert rep.entries[5].support == tuple(range(1, 15))


def test_pin_cost_formula():
    # one key costs n - 2 chained relays; tau keys scale linearly until
    # the pool of pair messages runs out at floor(n / 2)
    for n in (4, 5, 6):
        rep = build_report(make_pin(n))
        assert rep.max_keys == n // 2
        for entry in rep.entries:
            assert entry.cost == entry.tau * (n - 2)
            assert len(entry.support) == entry.tau * (n - 1)


def test_costs_and_supports_grow_with_tau():
    rng = random.Random(21)
    for _ in range(25):
        fam = random_family(rng, rng.randint(2, 5), rng.randint(2, 6))
        rep = build_report(fam)
        assert rep.max_keys == fam.m - rep.min_broadcasts
        assert [e.tau for e in rep.entries] == list(range(1, rep.max_keys + 1))
        for prev, cur in zip(rep.entries, rep.entries[1:]):
            assert cur.cost >= prev.cost
            assert len(cur.support) > len(prev.support)


def test_single_tau_report_is_the_full_reports_entry():
    rng = random.Random(27)
    fams = [random_family(rng, rng.randint(1, 6), rng.randint(1, 8)) for _ in range(25)]
    for fam in fams + [make_cyclic15(), make_pin(5)]:
        full = build_report(fam)
        for tau in range(1, full.max_keys + 2):
            single = build_report(fam, tau)
            assert single.entries == tuple(e for e in full.entries if e.tau == tau)
            assert single.entries or tau > full.max_keys
            assert dataclasses.replace(single, entries=full.entries) == full
        with pytest.raises(InputFormatError):
            build_report(fam, 0)


def test_support_is_exactly_tau_feasible():
    rng = random.Random(22)
    for _ in range(25):
        fam = random_family(rng, rng.randint(2, 5), rng.randint(2, 6))
        for entry in build_report(fam).entries:
            sub = restrict(fam, entry.support)
            total = min_broadcasts(sub).total
            # at minimum size the slack is exactly tau, not more
            assert total == len(entry.support) - entry.tau
            assert max_keys(sub) == entry.tau


def test_cost_matches_brute_force():
    rng = random.Random(23)
    for _ in range(25):
        fam = random_family(rng, rng.randint(2, 4), rng.randint(1, 5))
        for tau in range(1, fam.m + 1):
            want_cost, want_support = brute_sk_cost(fam, tau)
            assert linear_secrecy_cost(fam, tau) == want_cost
            got = min_key_support(fam, tau)
            if want_support is None:
                assert got is None
            else:
                assert got == want_support


def random_cover(rng: random.Random, elements: int, nsets: int) -> SetCoverInstance:
    """Random sets of 3 to 7 elements, each element then added to one more
    random set so that the sets cover."""
    universe = tuple(range(1, elements + 1))
    sets = [set(rng.sample(universe, rng.randint(3, 7))) for _ in range(nsets)]
    for u in universe:
        rng.choice(sets).add(u)
    return SetCoverInstance(universe, tuple(map(frozenset, sets)))


def random_cover_family(rng: random.Random, elements: int, nsets: int) -> MessageFamily:
    """Set cover reduction of `random_cover`."""
    return reduce_set_cover(random_cover(rng, elements, nsets))


def support_search_cases():
    """(family, tau) pairs: seeded 6x16 families and three presets at every
    feasible key count, and set cover reductions at one key."""
    rng = random.Random(26)
    fams = [random_family(rng, 6, 16) for _ in range(8)]
    fams += [make_cyclic15(), make_pin(7), make_gap(6)]
    for fam in fams:
        for tau in range(1, max_keys(fam) + 1):
            yield fam, tau
    for _ in range(3):
        yield random_cover_family(rng, 20, 30), 1


@pytest.fixture
def decision_calls(monkeypatch):
    """Counts `_decision_keep` calls made by either support search."""
    calls = [0]
    real = omniscience._decision_keep

    def counted(fam, keep, budget):
        calls[0] += 1
        return real(fam, keep, budget)

    monkeypatch.setattr(omniscience, "_decision_keep", counted)
    monkeypatch.setattr(secrecy, "_decision_keep", counted)
    return calls


def test_support_walk_matches_combination_loop(decision_calls):
    for fam, tau in support_search_cases():
        # min_key_support starts at tau; build_report resumes past the
        # previous support, so also start one size early
        for start in (tau, max(1, tau - 1)):
            decision_calls[0] = 0
            want = reference_support_search(fam, tau, start)
            want_calls = decision_calls[0]
            decision_calls[0] = 0
            assert _Walk(fam).search(tau, start) == want
            assert decision_calls[0] == want_calls


def test_support_search_leaves_no_reference_cycle(table_builds):
    # a cycle through the family would keep it and its union tables alive
    # until the cyclic collector runs
    gc.disable()
    try:
        fam = make_cyclic15()
        build_report(fam)
        min_key_support(fam, 1)
        fam_ref = weakref.ref(fam)
        del fam
        assert fam_ref() is None
        # the optimum's allocation needs one table, freed when it returns
        assert len(table_builds) == 1
        assert table_builds[0]() is None
    finally:
        gc.enable()


def test_set_cover_builds_no_subset_table(monkeypatch, table_builds):
    # 20 elements give 21 clients: a union table would hold 2^21 subsets,
    # but the support walk only asks for decisions, which need none
    inst = random_cover(random.Random(21), 20, 30)
    fam = reduce_set_cover(inst)
    monkeypatch.setattr(secrecy, "reduce_set_cover", lambda _: fam)
    cover = minimum_cover(inst)
    assert cover == brute_set_cover(inst.universe, inst.sets)
    assert not table_builds


def test_infeasible_tau_costs_infinity():
    fam = make_pin(3)
    assert linear_secrecy_cost(fam, 2) == math.inf
    assert min_key_support(fam, 2) is None
    with pytest.raises(InputFormatError):
        min_key_support(fam, 0)


def test_gap4_min_support_is_lex_first():
    fam = make_gap(4)
    assert min_key_support(fam, 1) == (1, 2, 3)
    assert min_key_support(fam, 2) == (1, 2, 3, 4)


def test_is_critical():
    gap = make_gap(4)
    # the whole family wastes message 4: {1, 2, 3} already yields one key
    assert not is_critical(gap, 1)
    witness = restrict(gap, min_key_support(gap, 1))
    assert is_critical(witness, 1)
    # criticality is tied to the exact key count
    assert not is_critical(witness, 2)
    with pytest.raises(InputFormatError):
        is_critical(gap, 0)


def test_key_count_and_criticality_past_the_subset_tables(table_builds):
    # gap:8 and gap:16 have 29 and 121 clients, past the subset tables' 24:
    # the optimum total is a search over decisions, which build no table,
    # while the optimum's allocation still needs one
    for m in (8, 16):
        fam = make_gap(m)
        assert max_keys(fam) == 2
        assert is_critical(fam, 2)
        assert not is_critical(fam, 1)
        assert not table_builds
        with pytest.raises(SizeGuardError):
            min_broadcasts(fam)
        # the refused table is the only one asked for
        assert len(table_builds) == 1
        table_builds.clear()


@pytest.mark.parametrize(
    "n, tau, critical",
    [(12, 6, True), (12, 7, False), (20, 10, True), (20, 11, False), (30, 15, True),
     (30, 16, False), (13, 6, False)],
)
def test_pairwise_network_criticality(n, tau, critical):
    # pin:n yields n // 2 keys; an even n needs every pair, while pin:13's
    # 78 messages can lose one.  On pin:30 the walk from size 434 cuts every
    # subset on the degree floor, so no decision runs before the whole family
    assert is_critical(make_pin(n), tau) == critical


def test_every_minimum_support_is_critical():
    rng = random.Random(24)
    checked = 0
    for _ in range(60):
        fam = random_family(rng, rng.randint(2, 5), rng.randint(2, 6))
        for tau in range(1, max_keys(fam) + 1):
            support = min_key_support(fam, tau)
            assert is_critical(restrict(fam, support), tau)
            checked += 1
    assert checked > 10


def test_parse_set_cover_happy_path():
    inst = parse_set_cover(
        json.dumps({"universe": [3, 1, 2], "sets": [[1, 2], [3]]})
    )
    assert inst.universe == (1, 2, 3)
    assert inst.sets == (frozenset({1, 2}), frozenset({3}))


def test_parse_set_cover_mixed_labels():
    inst = parse_set_cover(
        json.dumps({"universe": ["b", 2, "a"], "sets": [["a", "b", 2]]})
    )
    assert inst.universe == (2, "a", "b")


def test_parse_set_cover_rejects_malformed_input():
    bad = [
        "nope",
        json.dumps({"universe": [1]}),
        json.dumps({"universe": [], "sets": [[1]]}),
        json.dumps({"universe": [1, 1], "sets": [[1]]}),
        json.dumps({"universe": [1.5], "sets": [[1]]}),
        json.dumps({"universe": [True], "sets": [[1]]}),
        json.dumps({"universe": [1], "sets": []}),
        json.dumps({"universe": [1], "sets": [[1, 1]]}),
        json.dumps({"universe": [1], "sets": [[2]]}),
        json.dumps({"universe": [1], "sets": ["x"]}),
        json.dumps({"universe": [1], "sets": [[1]], "cost": 3}),
    ]
    for text in bad:
        with pytest.raises(InputFormatError):
            parse_set_cover(text)


def test_reduction_shape():
    inst = parse_set_cover(
        json.dumps({"universe": [1, 2, 3], "sets": [[1, 2], [2, 3], [3]]})
    )
    fam = reduce_set_cover(inst)
    assert fam.n == 4
    assert fam.m == 3
    # element clients hold the sets containing them; the last client holds all
    assert fam.holdings == (
        frozenset({1}),
        frozenset({1, 2}),
        frozenset({2, 3}),
        frozenset({1, 2, 3}),
    )


def test_minimum_cover_matches_brute_force():
    rng = random.Random(25)
    for _ in range(30):
        nu = rng.randint(1, 5)
        universe = list(range(1, nu + 1))
        nsets = rng.randint(1, 5)
        sets = []
        for _ in range(nsets):
            sets.append([u for u in universe if rng.random() < 0.5])
        inst = parse_set_cover(json.dumps({"universe": universe, "sets": sets}))
        want = brute_set_cover(universe, sets)
        if want is None:
            with pytest.raises(InfeasibleError):
                minimum_cover(inst)
        else:
            got = minimum_cover(inst)
            assert got == want
            covered = set()
            for i in got:
                covered.update(sets[i - 1])
            assert covered == set(universe)


def test_minimum_cover_single_set():
    inst = parse_set_cover(json.dumps({"universe": [1, 2], "sets": [[1, 2]]}))
    assert minimum_cover(inst) == (1,)


def test_uncoverable_instance_raises():
    inst = parse_set_cover(
        json.dumps({"universe": [1, 2, 3], "sets": [[1], [2], []]})
    )
    with pytest.raises(InfeasibleError):
        minimum_cover(inst)


def test_many_sets_with_one_covering_set_stay_small():
    # the walk keeps weight bounds only for the positions it reaches, not
    # for every pair of set count and size (an m x m table would take
    # about 150 MB here)
    sets = [[1, 2, 3]] + [[1]] * 2999
    inst = parse_set_cover(json.dumps({"universe": [1, 2, 3], "sets": sets}))
    tracemalloc.start()
    try:
        assert minimum_cover(inst) == (1,)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_support_deeper_than_the_frame_limit():
    # two clients holding the same messages: each key count's support is
    # its first tau messages, so the walk descends up to m levels
    m = 1200
    assert sys.getrecursionlimit() < m
    fam = MessageFamily.from_holdings(2, m, [range(1, m + 1)] * 2)
    report = build_report(fam)
    assert report.max_keys == m
    start = 1
    for entry in report.entries:
        want = reference_support_search(fam, entry.tau, start)
        assert entry.support == tuple(fam.labels[i] for i in want)
        start = len(want) + 1
