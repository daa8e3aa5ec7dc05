from __future__ import annotations

import gc
import hashlib
import random

import numpy as np
import pytest

from omnikey import (
    MessageFamily,
    OmniscienceResult,
    allocation_feasible,
    broadcasts_at_most,
    demand,
    make_cyclic15,
    make_gap,
    make_pin,
    min_broadcasts,
    restrict,
    separate,
)
from omnikey.errors import InputFormatError, SizeGuardError
from omnikey.omniscience import _decision_keep

from conftest import (
    brute_feasible,
    brute_min_broadcasts,
    brute_most_violated,
    brute_restrict_total,
    brute_tight_sets,
    random_family,
    reverse_pass,
    union_size,
)


def test_two_clients_disjoint_halves():
    fam = MessageFamily.from_holdings(2, 2, [[1], [2]])
    res = min_broadcasts(fam)
    assert res.total == 2
    assert res.allocation == (1, 1)


def test_triangle_optimum_and_lexmin():
    fam = make_pin(3)
    res = min_broadcasts(fam)
    assert res.total == 2
    # (0, 1, 1) is optimal and lexicographically below (1, 1, 0)
    assert res.allocation == (0, 1, 1)
    assert allocation_feasible(fam, res.allocation)


def test_one_client_knows_everything():
    fam = MessageFamily.from_holdings(3, 2, [[1, 2], [1, 2], [1, 2]])
    res = min_broadcasts(fam)
    assert res.total == 0
    assert res.allocation == (0, 0, 0)


def test_single_client():
    fam = MessageFamily.from_holdings(1, 3, [[1, 2, 3]])
    assert min_broadcasts(fam).total == 0
    assert broadcasts_at_most(fam, 0)
    assert separate(fam, [0]) is None
    # a lone client holds every message, so the pass is the budget itself
    for keep in (0, 0b111):
        assert not _decision_keep(fam, keep, -1)
        assert _decision_keep(fam, keep, 0)
        assert _decision_keep(fam, keep, fam.m)


def test_reverse_pass_gives_the_lexmin_allocation():
    rng = random.Random(25)
    families = [random_family(rng, rng.randint(1, 9), rng.randint(1, 30)) for _ in range(500)]
    families += [make_pin(n) for n in range(2, 9)]
    families += [make_gap(4), make_gap(6), make_cyclic15()]
    for fam in families:
        assert reverse_pass(fam) == min_broadcasts(fam).allocation, fam.masks


def test_reverse_pass_past_the_subset_tables(table_builds):
    # pin:30 and gap:24 have 30 and 277 clients, past the tables' 24: the
    # reversed pass sums to the optimum (435 - 15 and 24 - 2 broadcasts)
    # and the allocation check accepts it, but not one broadcast fewer
    for fam, total in ((make_pin(30), 420), (make_gap(24), 22)):
        alloc = list(reverse_pass(fam))
        assert sum(alloc) == total
        assert allocation_feasible(fam, alloc)
        alloc[next(j for j, a in enumerate(alloc) if a)] -= 1
        assert not allocation_feasible(fam, alloc)
    assert not table_builds


@pytest.mark.parametrize("budget", [1.0, 2.5, "2", True, None], ids=repr)
def test_budgets_must_be_integers(budget):
    with pytest.raises(InputFormatError, match="budget must be an integer"):
        broadcasts_at_most(make_pin(4), budget)


def test_gap_family_optimum():
    fam = make_gap(4)
    res = min_broadcasts(fam)
    assert res.total == 2
    assert res.allocation == (2, 0, 0, 0, 0, 0, 0)


def test_cyclic15_optimum():
    res = min_broadcasts(make_cyclic15())
    assert res.total == 9
    assert res.allocation == (0,) * 6 + (1,) * 9


def test_demand_matches_direct_union():
    rng = random.Random(1)
    for _ in range(20):
        fam = random_family(rng, rng.randint(2, 6), rng.randint(1, 8))
        for _ in range(10):
            subset = [j for j in range(1, fam.n + 1) if rng.random() < 0.5]
            if not subset or len(subset) == fam.n:
                continue
            outside = [j - 1 for j in range(1, fam.n + 1) if j not in subset]
            assert demand(fam, subset) == fam.m - union_size(fam, outside)


def test_matches_brute_force_on_random_families():
    rng = random.Random(2)
    for _ in range(60):
        fam = random_family(rng, rng.randint(2, 5), rng.randint(1, 5))
        want_total, want_vec = brute_min_broadcasts(fam)
        res = min_broadcasts(fam)
        assert res.total == want_total, fam.holdings
        assert res.allocation == want_vec, fam.holdings


def test_multi_word_families_match_brute_force():
    # 64, 65 and 129 messages fill one, two and three words of the union table
    rng = random.Random(64)
    for m in (64, 65, 129):
        for n in range(2, 9):
            fam = random_family(rng, n, m)
            for _ in range(4):
                alloc = [rng.randint(0, m // 2) for _ in range(n)]
                assert separate(fam, alloc) == brute_most_violated(fam, alloc)
                assert allocation_feasible(fam, alloc) == brute_feasible(fam, alloc)
            # raise the last allocation until it is feasible, so that some
            # of its constraints hold with equality
            while (worst := brute_most_violated(fam, alloc)) is not None:
                alloc[min(worst) - 1] += demand(fam, worst) - sum(alloc[j - 1] for j in worst)
            res = OmniscienceResult(sum(alloc), tuple(alloc), fam)
            assert res.tight_sets == brute_tight_sets(fam, alloc)
            if n <= 5:
                res = min_broadcasts(fam)
                assert res.tight_sets == brute_tight_sets(fam, res.allocation)
                assert brute_feasible(fam, res.allocation)
        fam = random_family(rng, 2, m)
        res = min_broadcasts(fam)
        assert (res.total, res.allocation) == brute_min_broadcasts(fam)


def test_allocation_feasible_matches_brute():
    rng = random.Random(4)
    for _ in range(40):
        fam = random_family(rng, rng.randint(2, 5), rng.randint(1, 5))
        alloc = [rng.randint(0, 2) for _ in range(fam.n)]
        assert allocation_feasible(fam, alloc) == brute_feasible(fam, alloc)


def test_allocation_feasible_matches_brute_on_9000_allocations(table_builds):
    # the decision pass at the allocation's own total: no subset table
    rng = random.Random(2021)
    answers = set()
    for _ in range(1500):
        fam = random_family(rng, rng.randint(1, 7), rng.randint(1, 9))
        for _ in range(6):
            alloc = [rng.randint(0, 3) for _ in range(fam.n)]
            got = allocation_feasible(fam, alloc)
            assert got == brute_feasible(fam, alloc), (fam.masks, alloc)
            answers.add(got)
    assert answers == {True, False}
    assert not table_builds


def test_allocation_feasible_past_the_subset_tables(table_builds):
    # gap:24 has 277 clients and pin:30 has 30, past the tables' 24.
    # Client 1 of gap:24 holds everything and each pair client must hear
    # the other 22 messages.  A pin:30 client holds 29 of the 435, so the
    # other 29 clients must send 406: 14 each do, 13 each do not.
    gap = make_gap(24)
    rest = [0] * (gap.n - 1)
    assert allocation_feasible(gap, [22] + rest)
    assert not allocation_feasible(gap, [21] + rest)
    pin = make_pin(30)
    assert allocation_feasible(pin, [14] * 30)
    assert not allocation_feasible(pin, [13] * 30)
    assert not table_builds


@pytest.mark.parametrize("entry", [1.5, "1", True], ids=["float", "str", "bool"])
@pytest.mark.parametrize("check", [separate, allocation_feasible])
def test_allocation_entries_must_be_integers(check, entry):
    with pytest.raises(InputFormatError, match="must be integers"):
        check(make_pin(4), [entry, 1, 1, 1])


def test_numpy_integer_allocations_are_accepted():
    fam = make_pin(4)
    for alloc in ([np.int64(1), 1, 1, 1], list(np.array([1, 1, 1, 0], dtype=np.uint8))):
        want = brute_feasible(fam, [int(a) for a in alloc])
        assert allocation_feasible(fam, alloc) == want
        assert (separate(fam, alloc) is None) == want


def test_separate_returns_a_real_violation():
    rng = random.Random(5)
    seen_violation = False
    for _ in range(40):
        fam = random_family(rng, rng.randint(2, 5), rng.randint(1, 5))
        alloc = [rng.randint(0, 1) for _ in range(fam.n)]
        witness = separate(fam, alloc)
        if witness is None:
            assert brute_feasible(fam, alloc)
            continue
        seen_violation = True
        assert 0 < len(witness) < fam.n
        outside = [j - 1 for j in range(1, fam.n + 1) if j not in witness]
        need = fam.m - union_size(fam, outside)
        assert sum(alloc[j - 1] for j in witness) < need
    assert seen_violation


@pytest.mark.parametrize("huge", [2**40, 2**70], ids=["2^40", "2^70"])
def test_huge_allocation_entries_are_exact(huge):
    # an entry above m already meets every constraint it appears in, so
    # the answers match the brute force on unbounded Python integers
    assert separate(make_pin(4), [huge, 0, 0, 0]) == frozenset({2, 3, 4})
    rng = random.Random(9)
    for _ in range(30):
        fam = random_family(rng, rng.randint(2, 5), rng.randint(1, 5))
        alloc = [rng.choice((0, 1, huge)) for _ in range(fam.n)]
        assert separate(fam, alloc) == brute_most_violated(fam, alloc)
        assert allocation_feasible(fam, alloc) == brute_feasible(fam, alloc)
        res = OmniscienceResult(sum(alloc), tuple(alloc), fam)
        assert res.tight_sets == brute_tight_sets(fam, alloc)


def test_separate_validates_allocation():
    fam = make_pin(3)
    with pytest.raises(InputFormatError):
        separate(fam, [1, 1])
    with pytest.raises(InputFormatError):
        separate(fam, [1, -1, 0])


def test_optimum_is_feasible_and_one_less_is_not():
    rng = random.Random(6)
    for _ in range(30):
        fam = random_family(rng, rng.randint(2, 5), rng.randint(2, 6))
        res = min_broadcasts(fam)
        assert allocation_feasible(fam, res.allocation)
        assert broadcasts_at_most(fam, res.total)
        if res.total > 0:
            assert not broadcasts_at_most(fam, res.total - 1)


def test_tight_sets_are_tight_and_justify_optimality():
    rng = random.Random(7)
    for _ in range(25):
        fam = random_family(rng, rng.randint(2, 5), rng.randint(2, 6))
        res = min_broadcasts(fam)
        for subset in res.tight_sets:
            held = sum(res.allocation[j - 1] for j in subset)
            assert held == demand(fam, subset)


def test_tight_sets_are_exactly_the_brute_force_tight_sets():
    rng = random.Random(17)
    for n in range(1, 11):
        for _ in range(4):
            fam = random_family(rng, n, rng.randint(1, 7))
            res = min_broadcasts(fam)
            assert res.tight_sets == brute_tight_sets(fam, res.allocation)
    assert min_broadcasts(MessageFamily.from_holdings(1, 2, [[1, 2]])).tight_sets == ()


def test_tight_sets_are_built_on_first_read_and_cached():
    res = min_broadcasts(make_pin(5))
    assert "tight_sets" not in vars(res)
    first = res.tight_sets
    assert "tight_sets" in vars(res)
    assert res.tight_sets is first


def _answer_digest(families) -> str:
    h = hashlib.sha256()
    for fam in families:
        res = min_broadcasts(fam)
        sets = tuple(tuple(sorted(s)) for s in res.tight_sets)
        h.update(repr((res.total, res.allocation, sets)).encode())
    return h.hexdigest()


# sha256 of (total, allocation, tight sets), recorded before the tight sets
# became lazy; any change in the optimum, its tie-break or the certificate
# order shows up here
GOLDEN_ANSWER_DIGESTS = {
    "cyclic15": "d0ec128afedc3bb1ea316a46aa15dad57accbb84ae7224068148335622310802",
    "pin:7": "410be6c6e82dbe9e0034278a76a4fa1b4b5fabf0a518a23a193a969a5bd3c491",
    "gap:6": "b9e1b0d7749e7a459e1ade0ef68daa92a677ce679c3fff37dc754f58fe1e634c",
    "16x6 seeds 0-19": "ab00e87084a818e22469194bac23d503c551c9a6d76f765970c56c5c24355c82",
}


def test_answers_match_golden_digests():
    digests = {
        "cyclic15": _answer_digest([make_cyclic15()]),
        "pin:7": _answer_digest([make_pin(7)]),
        "gap:6": _answer_digest([make_gap(6)]),
        "16x6 seeds 0-19": _answer_digest(
            random_family(random.Random(seed), 16, 6) for seed in range(20)
        ),
    }
    assert digests == GOLDEN_ANSWER_DIGESTS


def test_decision_mode_monotone_in_budget():
    rng = random.Random(8)
    for _ in range(20):
        fam = random_family(rng, rng.randint(2, 6), rng.randint(2, 6))
        res = min_broadcasts(fam)
        for budget in range(0, res.total + 3):
            assert broadcasts_at_most(fam, budget) == (budget >= res.total)


def test_filtered_decisions_match_brute_force():
    rng = random.Random(9)
    seen_client_without_kept = False
    for _ in range(40):
        fam = random_family(rng, rng.randint(1, 5), rng.randint(1, 6))
        for keep in range(1 << fam.m):
            kept = [i + 1 for i in range(fam.m) if keep >> i & 1]
            # with nothing kept there is nothing to exchange
            want = brute_restrict_total(fam, kept) if kept else 0
            if kept and any(mask & keep == 0 for mask in fam.masks):
                seen_client_without_kept = True
            for budget in range(-1, len(kept) + 1):
                got = _decision_keep(fam, keep, budget)
                assert got == (want <= budget), (fam.masks, keep, budget)
    assert seen_client_without_kept


def test_decision_pass_matches_the_optimum_on_multiword_families():
    # 70 and 129 messages: two and three 64-message words per holding.  At
    # six clients and 129 messages the lazy-cut optimum takes seconds.
    rng = random.Random(12)
    for m in (70, 129):
        for _ in range(10):
            fam = random_family(rng, rng.randint(2, 5), m)
            keep = rng.getrandbits(m) | 1
            kept = [i + 1 for i in range(m) if keep >> i & 1]
            total = min_broadcasts(restrict(fam, kept)).total
            for budget in (total - 1, total):
                assert _decision_keep(fam, keep, budget) == (total <= budget)
            whole = min_broadcasts(fam).total
            for budget in (whole - 1, whole):
                assert broadcasts_at_most(fam, budget) == (budget >= whole)


def test_filtered_decision_below_the_holding_floor():
    # kept to these labels, client 1 holds message 10 alone and must hear
    # the other four, so no allocation within 3 exists
    fam = make_cyclic15()
    labels = (4, 6, 9, 10, 12)
    keep = sum(1 << (label - 1) for label in labels)
    assert fam.masks[0] & keep == 1 << 9
    assert not _decision_keep(fam, keep, 3)
    assert _decision_keep(fam, keep, 4)
    assert min_broadcasts(restrict(fam, labels)).total == 4


def test_searches_leave_no_reference_cycle():
    # a search that builds a reference cycle leaves garbage behind for the
    # cyclic collector on every call
    fam = random_family(random.Random(0), 6, 16)
    total = min_broadcasts(fam).total
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            assert broadcasts_at_most(fam, total)
        min_broadcasts(fam)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_client_count_guard():
    masks = tuple([1] * 25)
    fam = MessageFamily(25, 1, masks)
    with pytest.raises(SizeGuardError):
        min_broadcasts(fam)


def test_decisions_need_no_subset_table():
    # the 25 clients of the guard test above: the optimum is refused, but
    # a decision builds no subset table and answers
    fam = MessageFamily(25, 1, tuple([1] * 25))
    assert broadcasts_at_most(fam, 0)
    assert not broadcasts_at_most(fam, -1)
    with pytest.raises(SizeGuardError):
        min_broadcasts(fam)
    # 25 clients holding one message each: every message has one holder,
    # who must send it
    wide = MessageFamily(25, 25, tuple(1 << j for j in range(25)))
    assert broadcasts_at_most(wide, 25)
    assert not broadcasts_at_most(wide, 24)
