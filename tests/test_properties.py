"""Property-based checks of the solvers against the brute force in conftest.

These run alongside the seeded loops in the per-module test files; they
draw their own families and never replace a seeded case.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from omnikey import MessageFamily, min_broadcasts
from omnikey.oracle import _determines

from conftest import brute_tight_sets, reference_determines


@st.composite
def families(draw) -> MessageFamily:
    """Families of at most 7 clients and 6 messages, where each message
    has a nonempty, drawn set of holders."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 6))
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
