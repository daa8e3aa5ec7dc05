from __future__ import annotations

import json
import random
import time
from functools import reduce
from itertools import combinations
from operator import or_

import pytest

from omnikey import (
    MessageFamily,
    make_cyclic15,
    make_gap,
    make_pin,
    network_to_json,
    parse_network,
    restrict,
    to_hypergraph,
)
from omnikey.errors import InputFormatError, SizeGuardError
from omnikey.network import GAP_GUARD_M, PIN_GUARD_N

from conftest import random_family, reference_masks


def test_from_holdings_round_trip():
    fam = MessageFamily.from_holdings(3, 4, [[1, 2], [2, 3], [3, 4]])
    assert fam.n == 3
    assert fam.m == 4
    assert fam.holdings == (
        frozenset({1, 2}),
        frozenset({2, 3}),
        frozenset({3, 4}),
    )
    assert fam.holding_size(1) == 2
    assert fam.labels == (1, 2, 3, 4)


def test_masks_are_little_endian_in_message_position():
    fam = MessageFamily.from_holdings(2, 3, [[1, 3], [2]])
    assert fam.masks == (0b101, 0b010)


def test_rejects_bad_holdings():
    with pytest.raises(InputFormatError):
        MessageFamily.from_holdings(2, 2, [[1], [0]])
    with pytest.raises(InputFormatError):
        MessageFamily.from_holdings(2, 2, [[1], [3]])
    with pytest.raises(InputFormatError):
        MessageFamily.from_holdings(2, 2, [[1, 1], [2]])
    with pytest.raises(InputFormatError):
        MessageFamily.from_holdings(2, 2, [[1], [True]])
    with pytest.raises(InputFormatError):
        MessageFamily.from_holdings(2, 2, [[1]])


def _random_holdings(rng: random.Random, n: int, m: int) -> list[list[int]]:
    """Shuffled holdings in which every message 1..m has a holder."""
    holdings = [rng.sample(range(1, m + 1), rng.randint(0, m)) for _ in range(n)]
    for msg in range(1, m + 1):
        if not any(msg in hold for hold in holdings):
            holdings[rng.randrange(n)].append(msg)
    return holdings


def _reference_error(m: int, holdings) -> str:
    with pytest.raises(InputFormatError) as exc:
        reference_masks(m, holdings)
    return str(exc.value)


def test_holding_masks_match_the_bit_at_a_time_reference():
    rng = random.Random(400)
    for m in [1, 2, 7, 8, 9, 63, 64, 65, 127, 128, 129, 255, 256, 257, 399, 400]:
        n = rng.randint(1, 6)
        holdings = _random_holdings(rng, n, m)
        assert MessageFamily.from_holdings(n, m, holdings).masks == reference_masks(m, holdings)


def test_holding_errors_match_the_reference_entry_by_entry():
    # one bad entry spliced into valid holdings, then a second after it:
    # the same message names the first bad entry in per-entry order
    bad_entries = ["3", 2.0, None, True, False, [1], 0, -1, "m + 1", "repeat"]
    rng = random.Random(401)
    for trial in range(200):
        m = rng.choice([1, 5, 8, 64, 65, 400])
        n = rng.randint(1, 4)
        holdings = _random_holdings(rng, n, m)
        for _ in range(rng.randint(1, 2)):
            j = rng.randrange(n)
            bad = rng.choice(bad_entries)
            if bad == "m + 1":
                bad = m + 1
            elif bad == "repeat":
                if not holdings[j]:
                    continue
                bad = rng.choice(holdings[j])
            holdings[j].insert(rng.randint(0, len(holdings[j])), bad)
        try:
            expected = reference_masks(m, holdings)
        except InputFormatError as exc:
            with pytest.raises(InputFormatError) as got:
                MessageFamily.from_holdings(n, m, holdings)
            assert str(got.value) == str(exc), (trial, holdings)
        else:
            assert MessageFamily.from_holdings(n, m, holdings).masks == expected


def test_each_holding_error_is_named_as_the_reference_names_it():
    cases = [
        [[1, "2"], [2]],  # not an integer
        [[1, 2.0], [2]],
        [[1], [True]],  # a bool is not a message index
        [[1], [0]],  # out of range, low and high
        [[1], [3]],
        [[1, 1], [2]],  # duplicate
        [[1, 3, 1], [2]],  # out of range comes before the later duplicate
        [[1, 1, 3], [2]],  # the duplicate comes first
        [[1, 2], ["x", 5]],  # a later client is reached only after client 1
    ]
    for holdings in cases:
        with pytest.raises(InputFormatError) as exc:
            MessageFamily.from_holdings(2, 2, holdings)
        assert str(exc.value) == _reference_error(2, holdings), holdings
    assert _reference_error(2, [[1, 3, 1], [2]]) == "client 1: message 3 out of range 1..2"
    assert _reference_error(2, [[1, 1, 3], [2]]) == "client 1: duplicate message 1"


def test_rejects_unheld_message():
    with pytest.raises(InputFormatError) as exc:
        MessageFamily.from_holdings(2, 3, [[1], [3]])
    assert "2" in str(exc.value)


def test_unheld_messages_are_refused_briefly():
    # enough entries to pass the count check: the unheld labels are listed
    with pytest.raises(InputFormatError) as exc:
        MessageFamily.from_holdings(2, 3, [[1, 3], [3]])
    assert str(exc.value) == "messages held by nobody: [2]"
    with pytest.raises(InputFormatError) as exc:
        MessageFamily(1, 30, (1,))
    assert str(exc.value) == (
        "messages held by nobody: [2, 3, 4, 5, 6, 7, 8, 9, 10, 11] and 19 more"
    )
    # more messages than holding entries: refused before any work sized by m
    text = json.dumps({"clients": 1, "messages": 4_000_000, "holdings": [[1]]})
    started = time.perf_counter()
    with pytest.raises(InputFormatError) as exc:
        parse_network(text)
    assert time.perf_counter() - started < 0.5
    assert len(str(exc.value)) < 100
    with pytest.raises(InputFormatError):
        parse_network(json.dumps({"clients": 1, "messages": 10**18, "holdings": [[1]]}))


def test_duplicate_labels_are_refused():
    # two messages both labelled 1 would make restrict(fam, [1]) keep only
    # the second position and leave client 1 with nothing
    with pytest.raises(InputFormatError, match="duplicate message labels"):
        MessageFamily(2, 2, (1, 3), (1, 1))
    with pytest.raises(InputFormatError, match="duplicate message labels"):
        MessageFamily(3, 3, (1, 2, 4), (7, 9, 7))
    # distinct labels still survive restrict, each client keeping its own
    fam = MessageFamily(2, 2, (1, 3), (1, 5))
    assert fam.holdings == (frozenset({1}), frozenset({1, 5}))
    assert restrict(fam, [1]).masks == (1, 1)


@pytest.mark.parametrize("mask", [1.0, 1.5, "1", None, True])
def test_non_integer_masks_are_refused(mask):
    with pytest.raises(InputFormatError, match="is not an integer"):
        MessageFamily(2, 1, (mask, 1))


def test_parse_network_happy_path():
    text = json.dumps(
        {"clients": 2, "messages": 2, "holdings": [[1], [2]]}
    )
    fam = parse_network(text)
    assert fam.masks == (0b01, 0b10)


def test_parse_network_rejects_malformed_input():
    bad = [
        "not json",
        json.dumps([1, 2, 3]),
        json.dumps({"clients": 2, "messages": 2}),
        json.dumps({"clients": 2, "messages": 2, "holdings": [[1], [2]], "extra": 1}),
        json.dumps({"clients": 0, "messages": 2, "holdings": []}),
        json.dumps({"clients": 2, "messages": -1, "holdings": [[1], [1]]}),
        json.dumps({"clients": 2, "messages": 2, "holdings": "nope"}),
        json.dumps({"clients": 2, "messages": 2, "holdings": [[1], 2]}),
        json.dumps({"clients": True, "messages": 2, "holdings": [[1], [2]]}),
    ]
    for text in bad:
        with pytest.raises(InputFormatError):
            parse_network(text)


def test_serialization_round_trip_is_canonical():
    rng = random.Random(42)
    for _ in range(20):
        fam = random_family(rng, rng.randint(1, 5), rng.randint(1, 6))
        text = network_to_json(fam)
        again = parse_network(text)
        assert again.masks == fam.masks
        assert network_to_json(again) == text
        assert text.endswith("\n")


def test_restrict_renumbers_and_keeps_labels():
    fam = MessageFamily.from_holdings(3, 4, [[1, 2], [2, 3], [3, 4]])
    sub = restrict(fam, [2, 4])
    assert sub.n == 3
    assert sub.m == 2
    assert sub.labels == (2, 4)
    assert sub.holdings == (frozenset({2}), frozenset({2}), frozenset({4}))
    assert sub.masks == (0b01, 0b01, 0b10)


def test_restrict_composes():
    fam = make_cyclic15()
    sub = restrict(fam, [3, 5, 7, 9])
    subsub = restrict(sub, [5, 9])
    assert subsub.labels == (5, 9)
    direct = restrict(fam, [5, 9])
    assert subsub.masks == direct.masks


def test_restrict_rejects_bad_sets():
    fam = make_pin(3)
    with pytest.raises(InputFormatError):
        restrict(fam, [])
    with pytest.raises(InputFormatError):
        restrict(fam, [99])


def test_hypergraph_is_exact_dual():
    rng = random.Random(5)
    for _ in range(20):
        fam = random_family(rng, rng.randint(2, 5), rng.randint(1, 6))
        hg = to_hypergraph(fam)
        assert hg.n == fam.n
        assert hg.m == fam.m
        for pos in range(fam.m):
            members = hg.edge_members(pos)
            for j in range(1, fam.n + 1):
                holds = (fam.masks[j - 1] >> pos) & 1
                assert (j in members) == bool(holds)
            assert hg.edge_size(pos) == len(members)


def test_others_matches_the_union_of_the_rest():
    rng = random.Random(31)
    families = [random_family(rng, rng.randint(1, 12), rng.randint(1, 70)) for _ in range(60)]
    families += [MessageFamily.from_holdings(1, 2, [[1, 2]]), make_gap(8), make_pin(9)]
    assert any(fam.n == 1 for fam in families)
    for fam in families:
        want = tuple(
            reduce(or_, fam.masks[:j] + fam.masks[j + 1 :], 0) for j in range(fam.n)
        )
        assert fam.others == want


def test_pin_family_shape():
    fam = make_pin(4)
    assert fam.n == 4
    assert fam.m == 6
    for j in range(1, 5):
        assert fam.holding_size(j) == 3
    hg = to_hypergraph(fam)
    # dual is K_4: every pair of clients appears as exactly one edge
    edges = sorted(hg.edge_members(pos) for pos in range(hg.m))
    assert edges == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    with pytest.raises(InputFormatError):
        make_pin(1)


def test_pin_family_matches_the_pair_scan():
    for n in range(2, 13):
        pairs = list(combinations(range(1, n + 1), 2))
        holdings = [
            [k + 1 for k, (a, b) in enumerate(pairs) if j in (a, b)]
            for j in range(1, n + 1)
        ]
        assert make_pin(n) == MessageFamily.from_holdings(n, len(pairs), holdings)


def test_pin_family_builds_in_one_pass_over_the_pairs():
    # scanning every pair for each client took 0.13-0.16 s at n = 128
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        make_pin(PIN_GUARD_N)
        best = min(best, time.perf_counter() - started)
    assert best < 0.1


def test_pin_family_refuses_large_n_at_once():
    assert make_pin(PIN_GUARD_N).m == PIN_GUARD_N * (PIN_GUARD_N - 1) // 2
    started = time.perf_counter()
    for n in (PIN_GUARD_N + 1, 3000, 10**12):
        with pytest.raises(SizeGuardError):
            make_pin(n)
    assert time.perf_counter() - started < 1.0


def test_cyclic15_shape():
    fam = make_cyclic15()
    assert fam.n == 15
    assert fam.m == 15
    assert fam.holdings[0] == frozenset({5, 7, 10, 11, 13, 14, 15})
    # shift structure: client j+1 holds the rotated set of client j
    for j in range(14):
        shifted = frozenset((i % 15) + 1 for i in fam.holdings[j])
        assert fam.holdings[j + 1] == shifted
    # every message held by exactly 7 clients
    hg = to_hypergraph(fam)
    assert all(hg.edge_size(pos) == 7 for pos in range(15))


def test_gap_family_shape():
    fam = make_gap(6)
    assert fam.n == 1 + 15
    assert fam.m == 6
    assert fam.holdings[0] == frozenset(range(1, 7))
    assert fam.holdings[1] == frozenset({1, 2})
    assert fam.holdings[-1] == frozenset({5, 6})
    for bad in (3, 5, 2):
        with pytest.raises(InputFormatError):
            make_gap(bad)
    assert make_gap(GAP_GUARD_M).m == GAP_GUARD_M
    with pytest.raises(SizeGuardError):
        make_gap(GAP_GUARD_M + 2)


def test_label_positions():
    fam = restrict(make_cyclic15(), [4, 8, 12])
    assert fam.label_positions([8, 4]) == [1, 0]
    with pytest.raises(InputFormatError):
        fam.label_positions([5])
