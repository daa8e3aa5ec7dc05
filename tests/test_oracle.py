from __future__ import annotations

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

import omnikey.oracle as oracle_mod
from omnikey import (
    JointHistogram,
    LinearProtocol,
    MessageFamily,
    field_from_order,
    make_cyclic15,
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
from omnikey.protocols import _client_cols

from conftest import brute_eval_states, grid_code

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


def test_full_mode_checks_each_client_on_its_own_zero_slice(monkeypatch):
    # a check over the whole grid would hand _determines q**width states
    sizes = []
    real = oracle_mod._determines

    def recording(view, out):
        sizes.append((view.size, out.size))
        return real(view, out)

    monkeypatch.setattr(oracle_mod, "_determines", recording)
    cases = [
        (make_pin(4), synth_omniscience(make_pin(4), field=7)),
        (make_pin(5), synth_sk(make_pin(5), 2)),
        (make_gap(4), split_gap_protocol(4)),
        (make_pin(3), LinearProtocol(GF2, 3, 3, "omniscience", (), ())),
    ]
    for fam, proto in cases:
        sizes.clear()
        report = verify_exhaustive(proto, fam)
        assert report.mode == "full"
        width = proto.m * proto.dim
        assert report.states == proto.field.q**width
        want = [
            proto.field.q ** (width - len(_client_cols(fam, j, proto.dim)))
            for j in range(1, fam.n + 1)
        ]
        assert sizes == [(size, size) for size in want]


@pytest.mark.parametrize(
    "fam, proto, most_mib",
    [
        # the (key, transmission) table is 49 x 7**6 int64 cells, 45 MiB
        (make_gap(8), split_gap_protocol(8), 8),
        # an int64 transmission code over all 11**6 states is 13.5 MiB
        (make_pin(4), synth_omniscience(make_pin(4), field=11), 4),
    ],
    ids=["gap8-split", "pin4-gf11"],
)
def test_verification_builds_no_full_grid_temporaries(fam, proto, most_mib):
    tracemalloc.start()
    try:
        report = verify_exhaustive(proto, fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < most_mib * 2**20
    if report.histogram is not None:
        assert int(report.histogram.counts.sum()) == report.states


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


def test_prime_power_tables_match_field_arithmetic():
    # every pair up to GF(256); above it seeded pairs plus every pair with 0
    rng = np.random.default_rng(4096)
    for q in range(4, oracle_mod._TABLE_GUARD + 1):
        try:
            field = field_from_order(q)
        except InputFormatError:
            continue
        if field.k == 1:
            continue
        space = oracle_mod._Space(field, 1)
        if q <= 256:
            a, b = (x.ravel() for x in np.indices((q, q)))
        else:
            every = np.arange(q)
            zeros = np.zeros(q, dtype=np.int64)
            a = np.concatenate([rng.integers(0, q, 4096), every, zeros])
            b = np.concatenate([rng.integers(0, q, 4096), zeros, every])
        pairs = list(zip(a.tolist(), b.tolist()))
        assert space.add[a, b].tolist() == [field.add(x, y) for x, y in pairs], q
        assert space.mul[a, b].tolist() == [field.mul(x, y) for x, y in pairs], q


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


def test_independence_compares_bounded_blocks_of_wide_rows(monkeypatch):
    block = oracle_mod._INDEPENDENCE_BLOCK
    width = 3 * block // 2
    rng = np.random.default_rng(5)
    counts = np.outer(np.arange(1, 5), rng.integers(1, 4, width)).astype(np.int64)
    sizes = []
    real = np.array_equal

    def spy(a, b):
        sizes.append(max(np.size(a), np.size(b)))
        return real(a, b)

    monkeypatch.setattr(np, "array_equal", spy)
    assert oracle_mod._independence(counts, int(counts.sum())) == (True, 0.0)
    assert max(sizes) <= block
    assert sum(sizes) == counts.size
    # a dependence in the last column block that keeps both marginals;
    # the bits are those of the whole table
    counts[-2:, -2:] += np.array([[-1, 1], [1, -1]])
    states = int(counts.sum())
    keys, trans = counts.sum(axis=1), counts.sum(axis=0)
    nz = counts > 0
    c = counts[nz].astype(np.float64)
    bits = float(np.sum(c / states * np.log2(c * states / np.outer(keys, trans)[nz])))
    sizes.clear()
    assert oracle_mod._independence(counts, states) == (False, bits)
    assert bits > 0.0
    assert max(sizes) <= block
    # the scan stopped at the last column block of the first changed row
    assert sum(sizes) == 3 * width


# 131 is the smallest prime whose residue sums overflow uint8
@pytest.mark.parametrize(
    "order, most",
    [(2, 4), (3, 4), (4, 4), (5, 4), (7, 4), (8, 4), (9, 4), (11, 3), (131, 2)],
)
def test_space_matches_per_state_evaluation(order, most):
    field = field_from_order(order)
    rng = np.random.default_rng(order)
    for ncoords in range(1, most + 1):
        space = oracle_mod._Space(field, ncoords)
        rows = [[0] * ncoords, [1] + [0] * (ncoords - 1)]
        rows += rng.integers(0, order, size=(4, ncoords)).tolist()
        expected = brute_eval_states(field, rows, ncoords)
        for row, values in zip(rows, expected):
            assert space.flat(space.eval_row(row)).tolist() == values
        for cols in ([], [ncoords - 1], list(range(ncoords))[::-1]):
            want = [
                sum(s // order**c % order * order**i for i, c in enumerate(cols))
                for s in range(space.states)
            ]
            assert space.flat(grid_code(space, cols)).tolist() == want


def _report_digest(proto, fam) -> str:
    """sha256 of every field of the verify report, or of the guard error."""
    try:
        r = verify_exhaustive(proto, fam)
    except SizeGuardError as exc:
        return hashlib.sha256(repr(("guard", str(exc))).encode()).hexdigest()
    h = hashlib.sha256()
    h.update(
        repr(
            (r.ok, r.kind, r.mode, r.states, r.checks, r.failures,
             r.counterexamples, r.mutual_information)
        ).encode()
    )
    if r.histogram is not None:
        counts = r.histogram.counts
        h.update(repr((counts.dtype.str, counts.shape)).encode())
        h.update(counts.tobytes())
    return h.hexdigest()


def _bumped(proto):
    """First nonzero coefficient of the first row plus one."""
    row = list(proto.rows[0])
    c = next(i for i, v in enumerate(row) if v)
    row[c] = proto.field.add(row[c], 1)
    return dataclasses.replace(proto, rows=(tuple(row),) + proto.rows[1:])


def _zeroed_key(proto):
    zero = (0,) * len(proto.key_rows[0])
    return dataclasses.replace(proto, key_rows=(zero,) + proto.key_rows[1:])


def _dropped(proto):
    """The last transmission (its `dim` rows) removed."""
    return dataclasses.replace(
        proto, senders=proto.senders[:-1], rows=proto.rows[: -proto.dim]
    )


def _golden_cases():
    """(name, family, protocol) for every pinned report."""
    for n in (3, 4, 5, 6):
        fam = make_pin(n)
        for field in (None, 7, 9, 16):
            yield f"omni pin:{n} {field}", fam, synth_omniscience(fam, field=field)
            for tau in (1, 2) if n > 3 else (1,):
                yield f"sk pin:{n} tau={tau} {field}", fam, synth_sk(fam, tau, field=field)
    for m in (4, 6, 8):
        yield f"split_gap:{m}", make_gap(m), split_gap_protocol(m)
    yield "sk cyclic15 tau=2", make_cyclic15(), synth_sk(make_cyclic15(), 2)
    # failing protocols over prime and prime-power fields, in both modes
    bases = [
        ("omni pin:3 GF(2)", make_pin(3), synth_omniscience(make_pin(3))),
        ("omni pin:4 GF(7)", make_pin(4), synth_omniscience(make_pin(4), field=7)),
        ("omni pin:4 GF(9)", make_pin(4), synth_omniscience(make_pin(4), field=9)),
        ("sk pin:4 tau=2 GF(4)", make_pin(4), synth_sk(make_pin(4), 2)),
        ("sk pin:4 tau=2 GF(7)", make_pin(4), synth_sk(make_pin(4), 2, field=7)),
        ("sk pin:5 tau=2 GF(3)", make_pin(5), synth_sk(make_pin(5), 2)),
        ("sk pin:5 tau=1 GF(16)", make_pin(5), synth_sk(make_pin(5), 1, field=16)),
        ("split_gap:4", make_gap(4), split_gap_protocol(4)),
        ("split_gap:6", make_gap(6), split_gap_protocol(6)),
    ]
    for name, fam, proto in bases:
        yield f"bumped {name}", fam, _bumped(proto)
        yield f"dropped {name}", fam, _dropped(proto)
        if proto.kind == "secret-key":
            yield f"zeroed key {name}", fam, _zeroed_key(proto)


# sha256 of every verify report field (histogram counts included), recorded
# before the oracle's enumeration was rewritten; the mutated protocols pin
# the counterexample pairs exactly
GOLDEN_REPORT_DIGESTS = {
    "omni pin:3 None": "706bacc85528bd90d66f356bac7b56ce104757eb343d04cc02352ee6b3ca9ff5",
    "sk pin:3 tau=1 None": "ff1b180f37c3978d1dd9bb79ca17c84dfbf7dd092d485d25850797463a8a7214",
    "omni pin:3 7": "565a708f76a8f79261e5cf846e64bb22fc82632ef2a35443faa0c848651de467",
    "sk pin:3 tau=1 7": "ae2bf3ce271db0fbb2bb38125f8d4b89e01963c1e8e45c37b359ec9244bd6e9a",
    "omni pin:3 9": "7c00bb7bae0c78b17770f9573b7ac7c400f3f0c1432b6eac89d43759eec383b5",
    "sk pin:3 tau=1 9": "1cebe0169208bc8adae70f751703893296fdae53b263c981febdae2143bec523",
    "omni pin:3 16": "962f27fd2d82d959d4b797bbff4e061d290fccc7a445e47787040b404e717537",
    "sk pin:3 tau=1 16": "1fc13dae0f79fab96923b32630fe5a522edc2bc79a71842f27babd64e92216b4",
    "omni pin:4 None": "479a429e581a89f969f02f7b09e6d55f08152037e6a60b91c0d228238d88aea1",
    "sk pin:4 tau=1 None": "91e01500b7814025de8d4a384b191b818d0cd7de13352759dc967ed22bf8eb84",
    "sk pin:4 tau=2 None": "2dcf6df070aa5df6b598dd920b3e520f41e863e57fa1cdabae7c00c74f8fe93b",
    "omni pin:4 7": "37dd456a17c3cde91352f7b76d1701fb78c22b75002826baeb26cb7060a24e20",
    "sk pin:4 tau=1 7": "556627360d5dc667a242202161a22fbb3f64844be2767d6ac68e7a71544d1c4e",
    "sk pin:4 tau=2 7": "214035923d9342bac7945b660b23f19167e8d497aead46fb50f9f53ff7e5b60d",
    "omni pin:4 9": "b08605c072e965ff986e6482fce9f481ff33327345d3bf993d58af24cd3e319a",
    "sk pin:4 tau=1 9": "f6904cb2476a1b0896a4d3b4b056612a839cdd49058265dfc9248e28dfa0b185",
    "sk pin:4 tau=2 9": "77841a91b3a98515c67d7f75b8864fad1dbbc46a01b73897eb8f084eb0bcafa9",
    "omni pin:4 16": "62cf5edffd7f7bba86345d255225cbb65bc26963837526a8e911b7d073dd68e9",
    "sk pin:4 tau=1 16": "06f3680a869fac19751fd81570bf9f7fbb736ba6458afb8211d979e57175f900",
    "sk pin:4 tau=2 16": "6e5d6f495cbd7f7608f2df1c471d6619ac4766b59ae82511e99e278033b36692",
    "omni pin:5 None": "d39a787e8532158fcfcaa7c738cf1dfec66c64574ad4129918ea196965bb52dd",
    "sk pin:5 tau=1 None": "ad46929b59aabbd694896e3849e35d6e34e4103574a354b901478603737e4455",
    "sk pin:5 tau=2 None": "fdf2dc67f9dd7416e45a4583f73b2d353cb1228a9c82b11f621ab002c0f97133",
    "omni pin:5 7": "d2b80d117a857bac2e2c4c067b9a2b1c9f1cb8718b61b18cb62572e5c6b4d971",
    "sk pin:5 tau=1 7": "da31217eb9ffe4e550d8d5013efa56e3783fafe22319d9a7a020d0f7d27d03aa",
    "sk pin:5 tau=2 7": "99acaabce2effa10022a9b5a77db17e4a87b6d5dcbfd1106bd6749df20bedb92",
    "omni pin:5 9": "50884bb44723ed60662f759bb8770095c9a702ab49389a407e962025dd20fe2b",
    "sk pin:5 tau=1 9": "bae0bea3cddcc4982948ceb8669d15b80ee0eb885a84846a5b652f633eece7a0",
    "sk pin:5 tau=2 9": "9a860a4b6da56e2193fb4e069b0c1f672c5a74a5689dfc700d3b37921705a920",
    "omni pin:5 16": "c081319b0cb65f49fa109253378b5936dec6ac20663b49ab49b08e809208ff01",
    "sk pin:5 tau=1 16": "a88b2e97e6276aa4e625c1d3bf124acb54542b6708a31252ca472f9bdbc22c4a",
    "sk pin:5 tau=2 16": "ba682b10c544214c0c1ae3b66bf00d19b536db08c86cf9778099c0dcf17e7baa",
    "omni pin:6 None": "a73095624bb4206ed554d5854ff81508aa7b1e2bc81e5d798833f660945b2a81",
    "sk pin:6 tau=1 None": "15a69fe077122c0dc7e0d4cfb4a3ca54ee2bf284087538152804a11517cb83bc",
    "sk pin:6 tau=2 None": "ef1f9c0a774e219fdd66d4527f70792eb883f5ab83cb3032a0cb8d2a8a85c8e0",
    "omni pin:6 7": "6aab87e4a1c452008a8d4a1b6c75c2ec38c87eed932f8870353086b3a721e000",
    "sk pin:6 tau=1 7": "ec400cdd57329d66bb3497c6bd7ee95fd19bab9c3d41c21fccb9d29cb5bfdd9b",
    "sk pin:6 tau=2 7": "3b3ffcc29a9d95795bd107afeea563d2f5887344527ecb995b4f3141a3f6cdbb",
    "omni pin:6 9": "8ab7e8b0fce2aa6be7776ac4ac2a0c7bc0b863fc9b519fda420cfd11b85d9a65",
    "sk pin:6 tau=1 9": "d6519d800a19eb8cfddaa4296b7ac3de251318721e881cbcc535d08e33fdf864",
    "sk pin:6 tau=2 9": "814566a7210161973e912e0f65aa335d9b7fe5b0e8dd3c990dae1293c6f0f906",
    "omni pin:6 16": "dca65eed72a028974e6aa07371fe6add6630e5fb35c01bb0b0cdab4dc100a6fb",
    "sk pin:6 tau=1 16": "ce521928e50c7e8ffaa6cc91b2a046e5ed748f472642b95e7b14b854425be91b",
    "sk pin:6 tau=2 16": "9133c37e909462bc5a5943c4d9b046ce967d8062fdb0837969b256fbe682cc32",
    "split_gap:4": "ef9349b381b9ccd05fd7f085b3a8c18adbd7698ba8021931530e5c5086773c5b",
    "split_gap:6": "f9054f2ce4bc917999159ab761aa9f16e31bf2a4853d3b2b6ddb73f53b67328c",
    "split_gap:8": "99acaabce2effa10022a9b5a77db17e4a87b6d5dcbfd1106bd6749df20bedb92",
    "sk cyclic15 tau=2": "f9054f2ce4bc917999159ab761aa9f16e31bf2a4853d3b2b6ddb73f53b67328c",
    "bumped omni pin:3 GF(2)": "c97c3a003d17eb7049b462982340f38b8d5e2f103e4900b58eea11db7b236441",
    "dropped omni pin:3 GF(2)": "c0f2c79054573291e840f6a5231db4b5c6d21c8c3a60b8796162f8f990d91a95",
    "bumped omni pin:4 GF(7)": "37dd456a17c3cde91352f7b76d1701fb78c22b75002826baeb26cb7060a24e20",
    "dropped omni pin:4 GF(7)": "0b60907f88271d83d42dd19135e4be900916441c1280cb6416c8472bc2d6366b",
    "bumped omni pin:4 GF(9)": "5749639c30b1e7f20c6bb7b32a900d72f3ba8f9db517b17cad7f77fef08452b4",
    "dropped omni pin:4 GF(9)": "859955cfd345582759479a888def2983fec26664c11c576327658385dc52a3ac",
    "bumped sk pin:4 tau=2 GF(4)": "dc3c3904782ba82486ccd13b9141c6493eb00aca1c3d431c8c6fce7b825e3654",
    "dropped sk pin:4 tau=2 GF(4)": "f8cbbd871cc4c6ec8fabb4c7bd93273e2c0e76708b59f3e9191ae1fc761cd44d",
    "zeroed key sk pin:4 tau=2 GF(4)": "4de8ca217f4497ce4b1d91c03730f09bb1463ce47155325a0782e61f4f82bf2a",
    "bumped sk pin:4 tau=2 GF(7)": "214035923d9342bac7945b660b23f19167e8d497aead46fb50f9f53ff7e5b60d",
    "dropped sk pin:4 tau=2 GF(7)": "158ac163f9221cfe6b131097b11b209f635bd34f9d64b44141699f5720579ef6",
    "zeroed key sk pin:4 tau=2 GF(7)": "c8cf075e7724a93173c8344515db475e5d2b80db612efbcec013ca4df5bdbadb",
    "bumped sk pin:5 tau=2 GF(3)": "fdf2dc67f9dd7416e45a4583f73b2d353cb1228a9c82b11f621ab002c0f97133",
    "dropped sk pin:5 tau=2 GF(3)": "06f4ac6f1109f196dd3687d5b212ecfa3ce590a3d4c1dcdf7393abc77b4309de",
    "zeroed key sk pin:5 tau=2 GF(3)": "409bac956f0420cf359780936445941baf9be22ca4d5eeabd505624dbc75f943",
    "bumped sk pin:5 tau=1 GF(16)": "a88b2e97e6276aa4e625c1d3bf124acb54542b6708a31252ca472f9bdbc22c4a",
    "dropped sk pin:5 tau=1 GF(16)": "edae2c5182f5d592384b034e61140c18bee52c4efb3f6e08d514429c6abfc2a4",
    "zeroed key sk pin:5 tau=1 GF(16)": "4ad82728524b33452d5914c986bae75d4ce2fdb916863c9d7cf84a2d4f9f7ddb",
    "bumped split_gap:4": "c567edf83fe04550378afd19817e627ea2ffafd5be4d1f51743abe272d22bf76",
    "dropped split_gap:4": "04a4e1eef1e454a9547f8988895d54f4eb74b8dc774485475f8e566c4e401048",
    "zeroed key split_gap:4": "117e06a686efd44bbd91f2b4836c15c1219db54b598b3e42c4f07eb94b1ad053",
    "bumped split_gap:6": "f9054f2ce4bc917999159ab761aa9f16e31bf2a4853d3b2b6ddb73f53b67328c",
    "dropped split_gap:6": "e0afd3670b6c3bdbe42e88b95b33c1cd03c05bc7ef72a1b5827156975cfab22d",
    "zeroed key split_gap:6": "4f0d44bda93e2eaa9fbd76f32c9053143ce9151a21849be6bbbdd6168b303cef",
}


def test_reports_match_golden_digests():
    digests = {
        name: _report_digest(proto, fam) for name, fam, proto in _golden_cases()
    }
    assert digests == GOLDEN_REPORT_DIGESTS
