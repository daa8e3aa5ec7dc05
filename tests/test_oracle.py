from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import omnikey.oracle as oracle_mod
from omnikey import (
    JointHistogram,
    LinearProtocol,
    MessageFamily,
    make_field,
    make_gap,
    make_pin,
    mutual_information_exact,
    split_gap_protocol,
    synth_chain,
    synth_omniscience,
    synth_sk,
    verify_exhaustive,
)
from omnikey.errors import InputFormatError, SizeGuardError

GF2 = make_field(2)


def test_omniscience_protocol_verifies_in_full_mode():
    fam = make_pin(3)
    proto = synth_omniscience(fam)
    report = verify_exhaustive(proto, fam)
    assert report.ok
    assert report.kind == "omniscience"
    assert report.mode == "full"
    assert report.states == proto.field.q**fam.m
    assert report.failures == ()
    assert report.histogram is None
    assert report.mutual_information is None
    for j in range(1, 4):
        assert any(f"client {j}" in c for c in report.checks)


def test_secret_key_protocol_verifies_exactly():
    fam = make_pin(4)
    proto = synth_sk(fam, 2)
    report = verify_exhaustive(proto, fam)
    assert report.ok
    assert report.mode == "full"
    assert report.mutual_information == 0.0
    hist = report.histogram
    assert hist is not None
    assert int(hist.counts.sum()) == report.states
    km = hist.key_marginal()
    assert np.all(km == km[0])


def test_chain_protocol_verifies():
    fam = make_pin(4)
    report = verify_exhaustive(synth_chain(fam), fam)
    assert report.ok
    assert report.states == 2**6
    assert report.mutual_information == 0.0


def test_split_gap_protocol_verifies():
    fam = make_gap(4)
    report = verify_exhaustive(split_gap_protocol(4), fam)
    assert report.ok
    assert report.mode == "full"
    assert report.states == 4**8
    assert report.mutual_information == 0.0


def test_functional_mode_matches_full_mode():
    # both protocols span fewer dimensions than the raw message space:
    # a scalar key on a strict support subset, and the vector construction
    cases = [
        (make_gap(4), synth_sk(make_gap(4), 1)),
        (make_gap(4), split_gap_protocol(4)),
    ]
    for fam, proto in cases:
        q = proto.field.q
        spanned = len(proto.rows) + len(proto.key_rows)
        full = verify_exhaustive(proto, fam)
        assert full.mode == "full"
        saved = oracle_mod.STATE_GUARD
        oracle_mod.STATE_GUARD = q**spanned
        try:
            func = verify_exhaustive(proto, fam)
        finally:
            oracle_mod.STATE_GUARD = saved
        assert func.mode == "functional"
        assert func.ok
        assert func.mutual_information == 0.0
        assert any("algebraically" in c for c in func.checks)
        # the two joint histograms describe the same distribution
        scale = full.states // func.states
        assert scale > 1
        assert np.array_equal(
            full.histogram.counts, func.histogram.counts * scale
        )


def test_functional_mode_matches_full_mode_on_dependent_rows():
    # a key equal to a transmission: rows and keys span less than their count
    fam = make_gap(4)
    sound = synth_sk(fam, 1)
    leaky = dataclasses.replace(sound, key_rows=(sound.rows[-1],))
    full = verify_exhaustive(leaky, fam)
    saved = oracle_mod.STATE_GUARD
    oracle_mod.STATE_GUARD = leaky.field.q ** len(leaky.rows)
    try:
        func = verify_exhaustive(leaky, fam)
    finally:
        oracle_mod.STATE_GUARD = saved
    assert (full.mode, func.mode) == ("full", "functional")
    assert not func.ok
    assert func.mutual_information == full.mutual_information > 0
    scale = full.states // func.states
    assert np.array_equal(full.histogram.counts, func.histogram.counts * scale)


def test_functional_mode_never_covers_omniscience():
    fam = make_pin(3)
    proto = synth_omniscience(fam)
    saved = oracle_mod.STATE_GUARD
    oracle_mod.STATE_GUARD = 2
    try:
        with pytest.raises(SizeGuardError):
            verify_exhaustive(proto, fam)
    finally:
        oracle_mod.STATE_GUARD = saved


def test_functional_mode_guard_on_spanned_rank():
    fam = make_pin(4)
    proto = synth_sk(fam, 2)
    saved = oracle_mod.STATE_GUARD
    oracle_mod.STATE_GUARD = 3
    try:
        with pytest.raises(SizeGuardError):
            verify_exhaustive(proto, fam)
    finally:
        oracle_mod.STATE_GUARD = saved


def test_undecodable_omniscience_is_caught_with_counterexamples():
    fam = make_pin(3)
    silent = LinearProtocol(GF2, 3, 3, "omniscience", (), ())
    report = verify_exhaustive(silent, fam)
    assert not report.ok
    assert any(f.startswith("algebra:") for f in report.failures)
    assert any("cannot tell" in f for f in report.failures)
    assert report.counterexamples
    for ce in report.counterexamples:
        assert set(ce) == {"client", "state_a", "state_b"}
        a, b = ce["state_a"], ce["state_b"]
        assert a != b
        held = fam.masks[ce["client"] - 1]
        for pos in range(3):
            if (held >> pos) & 1:
                assert a[pos] == b[pos]


def test_leaky_key_is_caught_and_carries_information():
    fam = make_pin(3)
    leaky = LinearProtocol(
        GF2, 3, 3, "secret-key", (2, 3), ((0, 1, 1), (0, 0, 1)), ((0, 1, 1),)
    )
    report = verify_exhaustive(leaky, fam)
    assert not report.ok
    assert any("leak" in f for f in report.failures)
    assert any("correlated" in f for f in report.failures)
    assert report.mutual_information is not None
    assert report.mutual_information > 0.9


def test_constant_key_fails_uniformity_without_correlation():
    fam = make_pin(3)
    constant = LinearProtocol(
        GF2, 3, 3, "secret-key", (2,), ((0, 1, 1),), ((0, 0, 0),)
    )
    report = verify_exhaustive(constant, fam)
    assert not report.ok
    assert any("not uniform" in f for f in report.failures)
    assert report.mutual_information == 0.0


def test_underivable_key_yields_a_client_counterexample():
    fam = make_pin(3)
    # the key is message 1, which client 3 never sees
    proto = LinearProtocol(GF2, 3, 3, "secret-key", (), (), ((1, 0, 0),))
    report = verify_exhaustive(proto, fam)
    assert not report.ok
    assert any("client 3" in f and "pin down" in f for f in report.failures)
    ce = next(c for c in report.counterexamples if c["client"] == 3)
    a, b = ce["state_a"], ce["state_b"]
    # client 3 holds messages 2 and 3; the clash must hide in message 1
    assert a[0] != b[0]
    assert a[1] == b[1] and a[2] == b[2]


def test_shape_mismatch_rejected():
    fam = make_pin(3)
    proto = synth_omniscience(make_pin(4))
    with pytest.raises(InputFormatError):
        verify_exhaustive(proto, fam)


def test_field_order_guard_for_tables():
    fam = MessageFamily.from_holdings(2, 2, [[1, 2], [1, 2]])
    big = make_field(2, 13)
    proto = LinearProtocol(big, 2, 2, "secret-key", (), (), ((1, 0),))
    with pytest.raises(SizeGuardError):
        verify_exhaustive(proto, fam)


def test_mutual_information_exact_values():
    perfect = JointHistogram(
        counts=np.eye(2, dtype=np.int64), states=2, q=2, key_rows=1, trans_rows=1
    )
    assert mutual_information_exact(perfect) == 1.0
    flat = JointHistogram(
        counts=np.ones((2, 2), dtype=np.int64), states=4, q=2, key_rows=1, trans_rows=1
    )
    assert mutual_information_exact(flat) == 0.0
    half = JointHistogram(
        counts=np.array([[2, 1], [0, 1]], dtype=np.int64),
        states=4,
        q=2,
        key_rows=1,
        trans_rows=1,
    )
    mi = mutual_information_exact(half)
    assert 0.0 < mi < 1.0
