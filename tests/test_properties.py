"""Property-based checks of the solvers against the brute force in conftest.

These run alongside the seeded loops in the per-module test files; they
draw their own families and never replace a seeded case.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from omnikey import MessageFamily, min_broadcasts

from conftest import brute_tight_sets


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
