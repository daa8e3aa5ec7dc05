"""Property-based checks of the solvers against the brute force in conftest,
and of identities every synthesized protocol must satisfy.

These run alongside the seeded loops in the per-module test files; they
draw their own families and never replace a seeded case.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from omnikey import (
    LinearProtocol,
    MessageFamily,
    broadcasts_at_most,
    demand,
    field_from_order,
    max_keys,
    min_broadcasts,
    min_key_support,
    oracle,
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
from omnikey.fields import Matrix, rank
from omnikey.omniscience import _decision_keep, _family_tables
from omnikey.oracle import _determines
from omnikey.protocols import _client_cols

from conftest import (
    brute_restrict_total,
    brute_sk_cost,
    brute_tight_sets,
    reference_client_determines,
    reference_determines,
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


@settings(deadline=None, max_examples=60)
@given(families(max_n=4, max_m=5))
def test_min_key_support_matches_brute_force(fam):
    for tau in range(1, fam.m + 1):
        assert min_key_support(fam, tau) == brute_sk_cost(fam, tau)[1]


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
    # the decision pass and the optimum's lazy-cut loop share no code
    fam = data.draw(families(max_n=10, max_m=8))
    keep = data.draw(st.integers(1, (1 << fam.m) - 1))
    kept = [i + 1 for i in range(fam.m) if keep >> i & 1]
    total = min_broadcasts(restrict(fam, kept)).total
    for budget in (total - 1, total):
        assert _decision_keep(fam, keep, budget) == (total <= budget)
    whole = min_broadcasts(fam).total
    for budget in (whole - 1, whole):
        assert broadcasts_at_most(fam, budget) == (budget >= whole)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_subset_rhs_matches_restricted_demand(data):
    # up to 140 messages: one to three words of the union table
    fam = data.draw(families(max_n=6, max_m=140))
    kept = data.draw(st.lists(st.booleans(), min_size=fam.m, max_size=fam.m).filter(any))
    keep = sum(1 << i for i, bit in enumerate(kept) if bit)
    sub = restrict(fam, [i + 1 for i, bit in enumerate(kept) if bit])
    rhs = _family_tables(fam).rhs_for(keep)
    for s in range(1, (1 << fam.n) - 1):
        assert rhs[s] == demand(sub, [j + 1 for j in range(fam.n) if s >> j & 1])


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
    t_code = space.pack(space.eval_row(r) for r in proto.rows)
    k_code = None
    if proto.kind == "secret-key":
        k_code = space.pack(space.eval_row(r) for r in proto.key_rows)
    t_space = proto.field.q ** len(proto.rows)
    verdicts = []
    for j in range(1, fam.n + 1):
        cols = _client_cols(fam, j, proto.dim)
        got = oracle._client_determines(space, cols, t_code, k_code)
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
        rows = Matrix(proto.field, [list(r) for r in proto.rows])
        assert rank(rows) == len(proto.senders)
