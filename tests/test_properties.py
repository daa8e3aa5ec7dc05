"""Property-based checks of the solvers against the brute force in conftest,
and of identities every synthesized protocol must satisfy.

These run alongside the seeded loops in the per-module test files; they
draw their own families and never replace a seeded case.
"""

from __future__ import annotations

import dataclasses
import math
from functools import reduce
from operator import or_

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from omnikey import (
    Hypergraph,
    LinearProtocol,
    MessageFamily,
    algebraic_issues,
    allocation_feasible,
    broadcasts_at_most,
    demand,
    field_from_order,
    is_critical,
    is_partition_connected,
    max_keys,
    min_broadcasts,
    min_key_support,
    oracle,
    partition_bound_holds,
    protocol_from_json,
    protocol_to_json,
    restrict,
    split_gap_protocol,
    synth_chain,
    synth_omniscience,
    synth_sk,
    verify_exhaustive,
)
from omnikey.errors import InfeasibleError, SynthesisExhaustedError
from omnikey.fields import rank
from omnikey.omniscience import _decision_keep, _min_total, _Tables
from omnikey.oracle import _determines
from omnikey.protocols import _client_cols

from conftest import (
    brute_feasible,
    brute_max_keys,
    brute_min_broadcasts,
    brute_rate,
    brute_restrict_total,
    brute_sk_cost,
    brute_tight_sets,
    reference_client_determines,
    reference_determines,
    reference_joint_counts,
    reference_issues,
    reference_key_issues,
    reference_optimum,
    reference_partition_check,
    reverse_pass,
)


@st.composite
def families(draw, max_n: int = 7, max_m: int = 6) -> MessageFamily:
    """Families of at most `max_n` clients and `max_m` messages, where each
    message has a nonempty, drawn set of holders."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    holders = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=m, max_size=m))
    masks = tuple(
        sum(1 << i for i, h in enumerate(holders) if h >> j & 1) for j in range(n)
    )
    return MessageFamily(n, m, masks)


@settings(deadline=None, max_examples=200)
@given(families())
def test_tight_sets_match_brute_force(fam):
    res = min_broadcasts(fam)
    assert res.tight_sets == brute_tight_sets(fam, res.allocation)


@settings(deadline=None, max_examples=300)
@given(families(max_n=7, max_m=9), st.data())
def test_allocation_feasible_matches_brute_force(fam, data):
    # the decision pass at the allocation's own total against every cut
    alloc = data.draw(st.lists(st.integers(0, 3), min_size=fam.n, max_size=fam.n))
    assert allocation_feasible(fam, alloc) == brute_feasible(fam, alloc)


@settings(deadline=None, max_examples=200)
@given(families(max_n=5, max_m=6))
def test_reverse_pass_gives_the_brute_force_lexmin(fam):
    assert reverse_pass(fam) == brute_min_broadcasts(fam)[1]


@settings(deadline=None, max_examples=200)
@given(families(max_n=7, max_m=9))
def test_optimum_total_is_the_ceiling_of_the_partition_rate(fam):
    # Courtade-Wesel: the integer optimum rounds the fractional one up;
    # n stays at 7 because the brute force lists Bell(n) partitions
    assert min_broadcasts(fam).total == math.ceil(brute_rate(fam))


@st.composite
def hypergraphs(draw) -> Hypergraph:
    """Hypergraphs on at most 7 clients with at most 8 hyperedges, single-
    member hyperedges drawn as often as arbitrary ones."""
    n = draw(st.integers(1, 7))
    edge = st.one_of(
        st.integers(0, n - 1).map(lambda j: 1 << j), st.integers(1, (1 << n) - 1)
    )
    return Hypergraph(n, tuple(draw(st.lists(edge, max_size=8))))


@settings(deadline=None, max_examples=100)
@given(hypergraphs(), st.integers(1, 4))
def test_partition_bound_matches_the_member_count(hg, tau):
    # the bitmask crossing count against the per-member one: the same
    # verdict and the same (partition, crossing, required) certificate
    want = reference_partition_check(hg, tau)
    assert partition_bound_holds(hg, tau) == want
    assert is_partition_connected(hg, tau) == want[0]


@settings(deadline=None, max_examples=60)
@given(families(max_n=4, max_m=5))
def test_min_key_support_matches_brute_force(fam):
    for tau in range(1, fam.m + 1):
        assert min_key_support(fam, tau) == brute_sk_cost(fam, tau)[1]


@settings(deadline=None, max_examples=100)
@given(families(max_n=4, max_m=5))
def test_is_critical_matches_brute_force(fam):
    # critical: exactly tau keys, and dropping any one message leaves fewer
    # (dropping the only message leaves no keys)
    keys = brute_max_keys(fam)
    messages = range(1, fam.m + 1)
    dropped = [[k for k in messages if k != i] for i in messages]
    left = max((len(d) - brute_restrict_total(fam, d) for d in dropped if d), default=0)
    for tau in range(1, keys + 2):
        assert is_critical(fam, tau) == (keys == tau and left < tau)


@settings(deadline=None, max_examples=60)
@given(families(max_n=4, max_m=5))
def test_every_support_meets_every_two_block_floor(fam):
    # the partition {j} | rest: a message subset supporting tau keys holds
    # at least tau messages that client j shares with some other client
    for keep in range(1, 1 << fam.m):
        kept = [i + 1 for i in range(fam.m) if keep >> i & 1]
        tau = len(kept) - brute_restrict_total(fam, kept)
        for j in range(fam.n if fam.n > 1 else 0):
            others = reduce(or_, fam.masks[:j] + fam.masks[j + 1 :])
            assert (fam.masks[j] & others & keep).bit_count() >= tau


@settings(deadline=None, max_examples=20)
@given(st.integers(1, 8))
def test_one_client_families_keep_their_supports(m):
    # one client has no two-block partition, so no floor may refuse it
    fam = MessageFamily(1, m, ((1 << m) - 1,))
    for tau in range(1, m + 1):
        assert min_key_support(fam, tau) == brute_sk_cost(fam, tau)[1]
        assert min_key_support(fam, tau) == tuple(range(1, tau + 1))


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_filtered_decision_matches_brute_force(data):
    fam = data.draw(families(max_n=5, max_m=6))
    keep = data.draw(st.integers(0, (1 << fam.m) - 1))
    kept = [i + 1 for i in range(fam.m) if keep >> i & 1]
    # with nothing kept there is nothing to exchange
    want = brute_restrict_total(fam, kept) if kept else 0
    for budget in range(-1, len(kept) + 1):
        assert _decision_keep(fam, keep, budget) == (want <= budget)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_decision_pass_matches_the_lazy_cut_optimum(data):
    # the decision pass and the escalating lazy-cut loop share no code
    fam = data.draw(families(max_n=10, max_m=8))
    keep = data.draw(st.integers(1, (1 << fam.m) - 1))
    kept = [i + 1 for i in range(fam.m) if keep >> i & 1]
    total, _ = reference_optimum(restrict(fam, kept))
    for budget in (total - 1, total):
        assert _decision_keep(fam, keep, budget) == (total <= budget)
    whole, _ = reference_optimum(fam)
    for budget in (whole - 1, whole):
        assert broadcasts_at_most(fam, budget) == (budget >= whole)


@settings(deadline=None, max_examples=150)
@given(families(max_n=10, max_m=8))
def test_optimum_total_matches_the_escalating_search(fam):
    # the total from the decision pass's binary search, the allocation from
    # the cut loop run once at that total
    res = min_broadcasts(fam)
    assert (res.total, res.allocation) == reference_optimum(fam)
    assert res.total == _min_total(fam)


@settings(deadline=None, max_examples=200)
@given(families(max_n=6, max_m=140))
def test_subset_rhs_matches_restricted_demand(fam):
    # up to 140 messages: one to three words of the union table
    rhs = _Tables(fam).rhs
    for s in range(1, (1 << fam.n) - 1):
        assert rhs[s] == demand(fam, [j + 1 for j in range(fam.n) if s >> j & 1])


@settings(deadline=None, max_examples=300)
@given(
    st.integers(1, 40).flatmap(
        lambda size: st.tuples(
            st.lists(st.integers(0, 5), min_size=size, max_size=size),
            st.lists(st.integers(0, 3), min_size=size, max_size=size),
        )
    )
)
def test_determines_matches_reference(arrays):
    view, out = (np.array(a, dtype=np.int64) for a in arrays)
    assert _determines(view, out) == reference_determines(view, out, 4)


@st.composite
def linear_protocols(draw):
    """(family, protocol) for random, not synthesized, linear protocols of
    at most four coordinates.  The family has a client holding nothing and
    one holding everything; a transmission may use coordinates its sender
    does not hold."""
    q = draw(st.sampled_from((2, 3, 4, 5, 7, 9)))
    dim = draw(st.integers(1, 2))
    m = draw(st.integers(1, 4 // dim))
    full = (1 << m) - 1
    masks = draw(st.permutations([0, full] + draw(st.lists(st.integers(0, full), max_size=2))))
    n = len(masks)
    fam = MessageFamily(n, m, tuple(masks))
    width = m * dim
    coeff = st.integers(0, q - 1)
    row = st.lists(coeff, min_size=width, max_size=width)
    senders = draw(st.lists(st.integers(1, n), max_size=2))
    rows = []
    for sender in senders:
        held = set(_client_cols(fam, sender, dim))
        honest = draw(st.booleans())
        for _ in range(dim):
            rows.append(tuple(
                v if c in held or not honest else 0 for c, v in enumerate(draw(row))
            ))
    kind = draw(st.sampled_from(("omniscience", "secret-key")))
    keys = draw(st.lists(row, min_size=1, max_size=2)) if kind == "secret-key" else []
    proto = LinearProtocol(
        field_from_order(q), n, m, kind, tuple(senders), tuple(rows),
        tuple(tuple(k) for k in keys), dim=dim,
    )
    return fam, proto


@settings(deadline=None, max_examples=300)
@given(linear_protocols())
def test_client_checks_match_the_whole_grid(case):
    fam, proto = case
    width = proto.m * proto.dim
    space = oracle._Space(proto.field, width)
    t_parts = [space.eval_row(r) for r in proto.rows]
    t_code = space.pack(t_parts)
    k_code = None
    if proto.kind == "secret-key":
        k_code = space.pack(space.eval_row(r) for r in proto.key_rows)
    t_space = proto.field.q ** len(proto.rows)
    verdicts = []
    for j in range(1, fam.n + 1):
        cols = _client_cols(fam, j, proto.dim)
        got = oracle._client_determines(space, cols, t_parts, k_code)
        assert got == reference_client_determines(space, cols, t_code, t_space, k_code)
        verdicts.append(got)
    report = verify_exhaustive(proto, fam)
    assert (report.mode, report.states) == ("full", space.states)
    failing = [j for j, (ok, _) in enumerate(verdicts, 1) if not ok]
    passing = [j for j, (ok, _) in enumerate(verdicts, 1) if ok]

    def clients(lines, prefix="client "):
        return [int(line[len(prefix):].split()[0]) for line in lines if line.startswith(prefix)]

    assert clients(report.failures) == failing
    assert clients(report.checks) == passing
    assert report.counterexamples == tuple(
        {
            "client": j,
            "state_a": space.unpack(verdicts[j - 1][1][0], width),
            "state_b": space.unpack(verdicts[j - 1][1][1], width),
        }
        for j in failing[: oracle._MAX_COUNTEREXAMPLES]
    )
    # enumeration and the rank conditions agree on every client
    assert sorted(set(clients(report.failures, "algebra: client "))) == failing


@settings(deadline=None, max_examples=300)
@given(linear_protocols())
def test_key_derivation_matches_the_per_key_reference(case):
    fam, proto = case
    issues = algebraic_issues(proto, fam)
    if proto.kind == "secret-key":
        rank_issues = [s for s in issues if not s.startswith("transmission ")]
        assert rank_issues == reference_key_issues(proto, fam)


@settings(deadline=None, max_examples=300)
@given(linear_protocols())
def test_algebraic_issues_match_the_raw_coordinate_references(case):
    # the quotient by span(T) and the restricted ranks agree on every
    # issue, of both kinds, in order
    fam, proto = case
    assert algebraic_issues(proto, fam) == reference_issues(proto, fam)


@st.composite
def disjoint_axis_protocols(draw):
    """(family, secret-key protocol) from `linear_protocols` with fresh key
    rows on a drawn set of coordinates and the transmission rows cut to
    the others, so the key and transmission codes share no grid axis."""
    fam, proto = draw(linear_protocols())
    width = proto.m * proto.dim
    key_cols = draw(st.sets(st.integers(0, width - 1)))
    row = st.lists(st.integers(0, proto.field.q - 1), min_size=width, max_size=width)
    keys = draw(st.lists(row, min_size=1, max_size=2))
    return fam, dataclasses.replace(
        proto,
        kind="secret-key",
        rows=tuple(
            tuple(0 if c in key_cols else v for c, v in enumerate(r)) for r in proto.rows
        ),
        key_rows=tuple(
            tuple(v if c in key_cols else 0 for c, v in enumerate(k)) for k in keys
        ),
    )


@settings(deadline=None, max_examples=300)
@given(st.one_of(linear_protocols(), disjoint_axis_protocols()))
def test_key_statistics_match_the_whole_grid_histogram(case):
    fam, proto = case
    report = verify_exhaustive(proto, fam)
    if proto.kind == "omniscience":
        assert (report.histogram, report.mutual_information) == (None, None)
        return
    space = oracle._Space(proto.field, proto.m * proto.dim)
    k_code = space.pack(space.eval_row(r) for r in proto.key_rows)
    t_code = space.pack(space.eval_row(r) for r in proto.rows)
    k_space = proto.field.q ** len(proto.key_rows)
    t_space = proto.field.q ** len(proto.rows)
    counts = reference_joint_counts(space, k_code, k_space, t_code, t_space)
    states = space.states
    keys, trans = counts.sum(axis=1), counts.sum(axis=0)
    uniform = bool(np.all(keys * k_space == states))
    independent = np.array_equal(counts * states, np.outer(keys, trans))
    bits = 0.0
    if not independent:
        nz = counts > 0
        c = counts[nz].astype(np.float64)
        bits = float(np.sum(c / states * np.log2(c * states / np.outer(keys, trans)[nz])))
    assert (f"key tuple uniform over {k_space} values" in report.checks) == uniform
    assert ("key tuple is not uniform" in report.failures) == (not uniform)
    assert ("keys exactly independent of the transmissions" in report.checks) == independent
    assert ("keys are correlated with the transmissions" in report.failures) == (
        not independent
    )
    assert report.mutual_information == bits
    hist = report.histogram
    disjoint = not any(
        any(k[c] for k in proto.key_rows) and any(r[c] for r in proto.rows)
        for c in range(space.ncoords)
    )
    assert (hist.factors is not None) == disjoint
    assert np.array_equal(hist.key_marginal(), keys)
    assert np.array_equal(hist.trans_marginal(), trans)
    assert hist.counts.dtype == np.int64
    assert np.array_equal(hist.counts, counts)
    if disjoint:
        assert oracle._independence(hist.counts, states) == (True, 0.0)


@st.composite
def key_and_transmission_codes(draw):
    """(space, key code, key code count, transmission code, transmission
    code count) from random rows on a grid of at most four coordinates.  With
    `split` drawn, the key rows use only the coordinates in a drawn set
    and the transmission rows only the others, so the two codes share no
    axis."""
    q = draw(st.sampled_from((2, 3, 4, 5, 7, 9)))
    ncoords = draw(st.integers(1, 4))
    space = oracle._Space(field_from_order(q), ncoords)
    split = draw(st.booleans())
    key_cols = set(draw(st.lists(st.integers(0, ncoords - 1), max_size=ncoords)))
    row = st.lists(st.integers(0, q - 1), min_size=ncoords, max_size=ncoords)

    def rows(least, keep):
        return [
            [v if keep(c) or not split else 0 for c, v in enumerate(r)]
            for r in draw(st.lists(row, min_size=least, max_size=2))
        ]

    keys = rows(1, lambda c: c in key_cols)
    trans = rows(0, lambda c: c not in key_cols)
    k_code = space.pack(space.eval_row(r) for r in keys)
    t_code = space.pack(space.eval_row(r) for r in trans)
    return space, k_code, q ** len(keys), t_code, q ** len(trans)


@settings(deadline=None, max_examples=300)
@given(key_and_transmission_codes())
def test_joint_counts_match_the_whole_grid_bincount(case):
    got = case[0].joint_counts(*case[1:])
    if isinstance(got, tuple):
        assert all(factor.dtype == np.int64 for factor in got)
        got = np.outer(*got)
    assert got.dtype == np.int64
    assert np.array_equal(got, reference_joint_counts(*case))


def synthesized(fam, seed, field):
    """The omniscience protocol and one protocol per key count, leaving out
    those the pinned field cannot carry."""
    out = []
    for tau in range(max_keys(fam) + 1):
        try:
            if tau == 0:
                out.append(synth_omniscience(fam, seed, field))
            else:
                out.append(synth_sk(fam, tau, seed, field))
        except SynthesisExhaustedError:
            pass
    return out


@settings(deadline=None, max_examples=100)
@given(
    families(),
    st.integers(0, 3),
    st.sampled_from((None, 2, 3, 4)),
    st.sampled_from((4, 6, 8)),
)
def test_protocols_survive_a_json_round_trip(fam, seed, field, gap):
    protos = synthesized(fam, seed, field) + [split_gap_protocol(gap)]
    try:
        protos.append(synth_chain(fam))
    except InfeasibleError:
        pass
    for proto in protos:
        assert protocol_from_json(protocol_to_json(proto)) == proto


@settings(deadline=None, max_examples=100)
@given(families(), st.integers(0, 3), st.sampled_from((None, 2, 3, 4)))
def test_synthesized_transmissions_are_independent(fam, seed, field):
    for proto in synthesized(fam, seed, field):
        assert rank(proto.field, proto.rows) == len(proto.senders)
