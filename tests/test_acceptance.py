"""Ten end-to-end acceptance checks, one verdict line per guarantee.

Run `pytest tests/test_acceptance.py -s` to see the lines; each prints
the check number, what it guarantees, and PASS or FAIL before asserting.
Every comparison is exact: integer equality throughout, mutual
information compared against exact rationals, and math.inf ordered above
every integer wherever a key count is out of reach.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random

from conftest import (
    brute_min_broadcasts,
    brute_set_cover,
    nash_williams_bound,
    random_family,
)

from omnikey import (
    InducedMultigraph,
    InfeasibleError,
    LinearProtocol,
    SetCoverInstance,
    algebraic_issues,
    build_report,
    check_secret_key,
    decode_messages,
    demand,
    evaluate_rows,
    induce_by_order,
    is_inherently_connected,
    is_partition_connected,
    linear_secrecy_cost,
    make_cyclic15,
    make_gap,
    make_pin,
    min_broadcasts,
    minimum_cover,
    restrict,
    sk_feasible,
    split_gap_protocol,
    synth_chain,
    synth_omniscience,
    synth_sk,
    to_hypergraph,
    tree_packing_number,
    verify_exhaustive,
)
from omnikey.cli import main


def _verdict(num: int, label: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"\ncriterion {num:02d}  {label:<40} {status}")
    assert not failures, f"{len(failures)} failure(s), first: {failures[0]}"


def test_01_benchmark_family_cost_table():
    failures = []
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(
            ["analyze", "--preset", "table1", "--all-tau", "--json", "--jobs", "4"]
        )
    if code != 0:
        failures.append(f"analyze exited with {code}")
    data = json.loads(buf.getvalue())
    if data["min_broadcasts"] != 9:
        failures.append(f"optimum {data['min_broadcasts']} != 9")
    if data["max_keys"] != 6:
        failures.append(f"max keys {data['max_keys']} != 6")
    rows = [(row["keys"], row["cost"]) for row in data["table"]]
    want = [(1, 2), (2, 4), (3, 4), (4, 6), (5, 8), (6, 8), (7, None)]
    if rows != want:
        failures.append(f"table {rows} != {want}")
    if data["table"][-1]["support"] is not None:
        failures.append("the infinite row should carry no support")
    if sk_feasible(make_cyclic15(), 7):
        failures.append("seven keys should be out of reach")
    if data["seconds"] > 1800:
        failures.append(f"took {data['seconds']}s")
    _verdict(1, "benchmark family cost table", failures)


def test_02_pairwise_family_key_formula():
    failures = []
    for n in (4, 5, 6):
        fam = make_pin(n)
        for tau in range(1, n // 2 + 1):
            got = linear_secrecy_cost(fam, tau)
            if got != tau * (n - 2):
                failures.append(f"n={n} tau={tau}: {got} != {tau * (n - 2)}")
    _verdict(2, "pairwise family key formula", failures)


def test_03_half_rate_pair_holder_construction():
    failures = []
    for m in (4, 6, 8):
        got = linear_secrecy_cost(make_gap(m), 1)
        if got != m - 2:
            failures.append(f"m={m}: scalar cost {got} != {m - 2}")

    # At m = 8 (29 clients) only `min_broadcasts`, not the key cost, sits
    # above the subset-table guard: the cost above comes from decisions
    # alone.  Certify both of its bounds independently as well.  Upper:
    # chaining messages 1..7 gives a verified six-transmission scalar
    # protocol once a zero column re-embeds it over all eight messages.
    fam = make_gap(8)
    sub = restrict(fam, range(1, 8))
    chain = synth_chain(sub)
    lifted = LinearProtocol(
        chain.field,
        fam.n,
        fam.m,
        "secret-key",
        chain.senders,
        tuple(tuple(r) + (0,) for r in chain.rows),
        tuple(tuple(r) + (0,) for r in chain.key_rows),
        tuple(range(1, 8)),
    )
    if len(lifted.senders) != 6:
        failures.append(f"lifted chain uses {len(lifted.senders)} transmissions")
    if not check_secret_key(lifted, fam):
        failures.append("lifted chain fails the algebraic key checks")
    rep = verify_exhaustive(lifted, fam)
    if not rep.ok:
        failures.append(f"lifted chain fails the oracle: {rep.failures}")
    # Lower: any support of six or fewer messages misses two, so the
    # client holding exactly that pair retains nothing; the remaining
    # clients then owe one broadcast per kept message and no key is
    # left over.
    for size in range(1, 7):
        for keep in itertools.combinations(range(1, 9), size):
            small = restrict(fam, keep)
            empty = next(
                (j + 1 for j, mask in enumerate(small.masks) if mask == 0), None
            )
            if empty is None:
                failures.append(f"support {keep} leaves nobody empty-handed")
                continue
            rest = [c for c in range(1, fam.n + 1) if c != empty]
            if demand(small, rest) != len(keep):
                failures.append(f"support {keep} demand mismatch")

    # The split protocols halve the rate: m/2 - 1 transmissions, all
    # three key requirements checked by exhaustive enumeration.
    for m in (4, 6, 8):
        proto = split_gap_protocol(m)
        if len(proto.senders) != m // 2 - 1:
            failures.append(f"m={m}: {len(proto.senders)} transmissions")
        rep = verify_exhaustive(proto, make_gap(m))
        if not rep.ok:
            failures.append(f"m={m}: oracle failures {rep.failures}")
    # For m = 4 that single verified transmission beats the scalar
    # optimum, which coincides with the omniscience optimum: 1 < 2 = 2.
    if linear_secrecy_cost(make_gap(4), 1) != 2:
        failures.append("m=4 scalar cost moved off 2")
    if min_broadcasts(make_gap(4)).total != 2:
        failures.append("m=4 broadcast optimum moved off 2")
    _verdict(3, "half-rate pair-holder construction", failures)


def test_04_partition_bound_tracks_broadcast_route():
    rng = random.Random(104)
    failures = []
    for _ in range(200):
        fam = random_family(rng, rng.randint(2, 8), rng.randint(1, 8))
        hg = to_hypergraph(fam)
        for tau in (1, 2, 3):
            via_optimum = is_inherently_connected(fam, tau)
            via_partitions = is_partition_connected(hg, tau)
            if via_optimum != via_partitions:
                failures.append(
                    f"{fam.masks} tau={tau}: optimum {via_optimum},"
                    f" partitions {via_partitions}"
                )
    _verdict(4, "partition bound tracks broadcast route", failures)


def test_05_worst_client_order_still_packs():
    rng = random.Random(105)
    failures = []
    for _ in range(50):
        n = rng.randint(2, 6)
        fam = random_family(rng, n, rng.randint(1, 6))
        hg = to_hypergraph(fam)
        packs: dict[tuple, int] = {}
        for order in itertools.permutations(range(1, n + 1)):
            graph = induce_by_order(hg, order)
            key = tuple(sorted(tuple(sorted(e)) for e in graph.edges))
            if key not in packs:
                packs[key] = tree_packing_number(graph)
        floor_pack = min(packs.values())
        for tau in range(1, fam.m + 2):
            if (floor_pack >= tau) != is_inherently_connected(fam, tau):
                failures.append(f"{fam.masks} tau={tau}: floor {floor_pack}")
    _verdict(5, "worst client order still packs", failures)


def test_06_tree_packing_meets_partition_limit():
    rng = random.Random(106)
    failures = []
    for _ in range(200):
        n = rng.randint(2, 8)
        edges = []
        for _ in range(rng.randint(0, 2 * n)):
            u = rng.randint(1, n)
            v = rng.randint(1, n - 1)
            edges.append((u, v if v < u else v + 1))
        graph = InducedMultigraph(n, tuple(edges))
        got = tree_packing_number(graph)
        want = nash_williams_bound(n, edges)
        if got != want:
            failures.append(f"n={n} edges={edges}: packed {got}, limit {want}")
    _verdict(6, "tree packing meets partition limit", failures)


def test_07_broadcast_optimum_equals_brute_force():
    rng = random.Random(107)
    failures = []
    for _ in range(500):
        fam = random_family(rng, rng.randint(1, 4), rng.randint(1, 5))
        want, _ = brute_min_broadcasts(fam)
        got = min_broadcasts(fam).total
        if got != want:
            failures.append(f"{fam.masks}: {got} != {want}")
    _verdict(7, "broadcast optimum equals brute force", failures)


def _sound_for(fam, taus, rng, failures):
    res = min_broadcasts(fam)
    proto = synth_omniscience(fam)
    if len(proto.rows) != res.total:
        failures.append(f"{fam.masks}: {len(proto.rows)} rows != optimum {res.total}")
        return
    for _ in range(100):
        values = [rng.randrange(proto.field.q) for _ in range(fam.m)]
        heard = evaluate_rows(proto.field, proto.rows, values)
        for client in range(1, fam.n + 1):
            own = [
                values[i]
                for i in range(fam.m)
                if (fam.masks[client - 1] >> i) & 1
            ]
            got = decode_messages(proto, fam, client, own, heard)
            if list(got) != values:
                failures.append(f"{fam.masks}: client {client} misdecodes")
                return
    for tau in taus:
        sk = synth_sk(fam, tau)
        cost = linear_secrecy_cost(fam, tau)
        if len(sk.rows) != cost:
            failures.append(f"{fam.masks} tau={tau}: {len(sk.rows)} rows != {cost}")
        issues = algebraic_issues(sk, fam)
        if issues:
            failures.append(f"{fam.masks} tau={tau}: {issues[0]}")
        if sk.field.q**fam.m <= 1 << 22:
            rep = verify_exhaustive(sk, fam)
            if not rep.ok:
                failures.append(f"{fam.masks} tau={tau}: {rep.failures}")


def test_08_synthesized_protocols_decode_and_verify():
    rng = random.Random(108)
    failures = []
    checked_sk = 0
    for _ in range(60):
        fam = random_family(rng, rng.randint(2, 5), rng.randint(1, 5))
        taus = range(1, fam.m - min_broadcasts(fam).total + 1)
        checked_sk += len(taus)
        _sound_for(fam, taus, rng, failures)
    _sound_for(make_cyclic15(), (1, 6), rng, failures)
    assert checked_sk > 20
    _verdict(8, "synthesized protocols decode and verify", failures)


def test_09_set_cover_reduction_is_exact():
    rng = random.Random(109)
    failures = []
    for _ in range(100):
        universe = list(range(1, rng.randint(1, 6) + 1))
        sets = [
            frozenset(x for x in universe if rng.random() < 0.5)
            for _ in range(rng.randint(1, 6))
        ]
        inst = SetCoverInstance(tuple(universe), tuple(sets))
        want = brute_set_cover(universe, sets)
        if want is None:
            try:
                got = minimum_cover(inst)
                failures.append(f"{sets}: covered impossibly by {got}")
            except InfeasibleError:
                pass
        else:
            got = minimum_cover(inst)
            if got != want:
                failures.append(f"{sets}: {got} != {want}")
    _verdict(9, "set cover reduction is exact", failures)


def test_10_message_removal_is_monotone():
    rng = random.Random(110)
    failures = []
    for _ in range(500):
        fam = random_family(rng, rng.randint(1, 7), rng.randint(2, 7))
        keep = sorted(rng.sample(range(1, fam.m + 1), rng.randint(1, fam.m - 1)))
        sub = restrict(fam, keep)
        full_report = build_report(fam)
        sub_report = build_report(sub)
        if sub_report.min_broadcasts > full_report.min_broadcasts:
            failures.append(f"{fam.masks} keep={keep}: optimum grew")
        if sub_report.max_keys > full_report.max_keys:
            failures.append(f"{fam.masks} keep={keep}: key count grew")
        full_cost = {e.tau: e.cost for e in full_report.entries}
        sub_cost = {e.tau: e.cost for e in sub_report.entries}
        for tau in range(1, full_report.max_keys + 2):
            a = sub_cost.get(tau, math.inf)
            b = full_cost.get(tau, math.inf)
            if not a >= b:
                failures.append(f"{fam.masks} keep={keep} tau={tau}: {a} < {b}")
    _verdict(10, "message removal is monotone", failures)
