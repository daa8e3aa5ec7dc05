"""Property-based checks of the solvers against the brute force in conftest,
and of identities every synthesized protocol must satisfy.

These run alongside the seeded loops in the per-module test files; they
draw their own families and never replace a seeded case.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from omnikey import (
    MessageFamily,
    demand,
    max_keys,
    min_broadcasts,
    min_key_support,
    protocol_from_json,
    protocol_to_json,
    restrict,
    split_gap_protocol,
    synth_chain,
    synth_omniscience,
    synth_sk,
)
from omnikey.errors import InfeasibleError, SynthesisExhaustedError
from omnikey.fields import Matrix, rank
from omnikey.omniscience import _decision_keep, _family_tables
from omnikey.oracle import _determines

from conftest import (
    brute_restrict_total,
    brute_sk_cost,
    brute_tight_sets,
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
