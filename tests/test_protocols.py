from __future__ import annotations

import dataclasses
import hashlib
import random
import time

import pytest

import omnikey.fields as fields_mod
import omnikey.protocols as protocols_mod
from omnikey import (
    LinearProtocol,
    MessageFamily,
    algebraic_issues,
    check_omniscience,
    check_secret_key,
    compute_key,
    decode_messages,
    evaluate_rows,
    linear_secrecy_cost,
    make_cyclic15,
    make_field,
    make_gap,
    make_pin,
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
    verify_exhaustive,
)
from omnikey.errors import (
    InfeasibleError,
    InputFormatError,
    SizeGuardError,
    SynthesisExhaustedError,
)

from conftest import random_family, reference_issues

GF2 = make_field(2)


def broadcast_values(proto, fam, values, rng=None):
    """What everyone hears when the true message values are `values`."""
    return evaluate_rows(proto.field, proto.rows, values)


def client_view(fam, proto, client, values):
    dim = proto.dim
    own = []
    for pos in range(fam.m):
        if (fam.masks[client - 1] >> pos) & 1:
            own.extend(values[pos * dim : (pos + 1) * dim])
    return own


def test_validation_rejects_inconsistent_shapes():
    with pytest.raises(InputFormatError):
        LinearProtocol(GF2, 2, 2, "omniscience", (1,), ())
    with pytest.raises(InputFormatError):
        LinearProtocol(GF2, 2, 2, "omniscience", (3,), ((1, 0),))
    with pytest.raises(InputFormatError):
        LinearProtocol(GF2, 2, 2, "omniscience", (1,), ((1, 0, 0),))
    with pytest.raises(InputFormatError):
        LinearProtocol(GF2, 2, 2, "omniscience", (1,), ((1, 2),))
    with pytest.raises(InputFormatError):
        LinearProtocol(GF2, 2, 2, "banana", (1,), ((1, 0),))
    with pytest.raises(InputFormatError):
        LinearProtocol(GF2, 2, 2, "omniscience", (1,), (), dim=0)


def test_validation_ties_keys_to_kind():
    key = ((1, 0),)
    with pytest.raises(InputFormatError):
        LinearProtocol(GF2, 2, 2, "omniscience", (1,), ((1, 0),), key)
    with pytest.raises(InputFormatError):
        LinearProtocol(GF2, 2, 2, "secret-key", (1,), ((1, 0),), ())


def test_support_defaults_and_validation():
    p = LinearProtocol(GF2, 2, 3, "omniscience", (1,), ((1, 0, 0),))
    assert p.support == (1, 2, 3)
    with pytest.raises(InputFormatError):
        LinearProtocol(GF2, 2, 3, "omniscience", (1,), ((1, 0, 0),), (), (2, 1))
    with pytest.raises(InputFormatError):
        LinearProtocol(GF2, 2, 3, "omniscience", (1,), ((1, 0, 0),), (), (1, 4))


def test_evaluate_rows():
    f = make_field(3)
    rows = [[1, 2, 0], [0, 0, 2]]
    assert evaluate_rows(f, rows, [1, 1, 1]) == [0, 2]
    assert evaluate_rows(f, rows, [2, 2, 1]) == [0, 2]


def test_synth_omniscience_meets_the_optimum():
    rng = random.Random(30)
    for _ in range(20):
        fam = random_family(rng, rng.randint(2, 5), rng.randint(1, 5))
        proto = synth_omniscience(fam, seed=rng.randrange(100))
        assert check_omniscience(proto, fam)
        assert len(proto.senders) == min_broadcasts(fam).total
        assert algebraic_issues(proto, fam) == []


def test_synth_omniscience_trivial_family():
    fam = MessageFamily.from_holdings(2, 2, [[1, 2], [1, 2]])
    proto = synth_omniscience(fam)
    assert proto.senders == ()
    assert check_omniscience(proto, fam)


def test_decoding_recovers_the_truth():
    rng = random.Random(31)
    for _ in range(15):
        fam = random_family(rng, rng.randint(2, 4), rng.randint(1, 5))
        proto = synth_omniscience(fam, seed=7)
        q = proto.field.q
        for _ in range(3):
            values = [rng.randrange(q) for _ in range(fam.m)]
            heard = broadcast_values(proto, fam, values)
            for j in range(1, fam.n + 1):
                own = client_view(fam, proto, j, values)
                assert decode_messages(proto, fam, j, own, heard) == tuple(values)


def test_decoding_flags_contradictory_values():
    fam = make_pin(3)
    proto = synth_omniscience(fam)
    values = [1, 0, 1]
    heard = broadcast_values(proto, fam, values)
    own = client_view(fam, proto, 1, values)
    truth = decode_messages(proto, fam, 1, own, heard)
    tampered = list(heard)
    tampered[0] = proto.field.add(tampered[0], 1)
    try:
        decoded = decode_messages(proto, fam, 1, own, tampered)
    except InputFormatError:
        return
    assert decoded != truth


def test_compute_key_flags_contradictory_values():
    # client 1 holds messages 1 and 2 and hears message 2 again; client 2
    # holds messages 2 and 3 and cannot reach message 1
    fam = MessageFamily.from_holdings(2, 3, [[1, 2], [2, 3]])
    proto = LinearProtocol(GF2, 2, 3, "secret-key", (2,), ((0, 1, 0),), ((1, 1, 0),))
    assert compute_key(proto, fam, 1, [1, 1], [1]) == (0,)
    with pytest.raises(InputFormatError, match="contradict"):
        compute_key(proto, fam, 1, [1, 1], [0])
    # an underivable key is reported before a contradiction
    underivable = LinearProtocol(GF2, 2, 3, "secret-key", (2,), ((0, 1, 0),), ((0, 0, 1),))
    with pytest.raises(InfeasibleError):
        compute_key(underivable, fam, 1, [1, 1], [0])
    with pytest.raises(InfeasibleError):
        compute_key(proto, fam, 2, [1, 1], [1])


def test_compute_key_reduces_the_view_once(monkeypatch):
    calls = []
    real = fields_mod.rref

    def counting(field, rows):
        calls.append(field)
        return real(field, rows)

    fam = make_pin(5)
    proto = synth_sk(fam, 2)
    assert len(proto.key_rows) == 2
    monkeypatch.setattr(fields_mod, "rref", counting)
    monkeypatch.setattr(protocols_mod, "rref", counting)
    rng = random.Random(37)
    values = [rng.randrange(proto.field.q) for _ in range(fam.m)]
    heard = broadcast_values(proto, fam, values)
    truth = tuple(evaluate_rows(proto.field, proto.key_rows, values))
    for j in range(1, fam.n + 1):
        calls.clear()
        assert compute_key(proto, fam, j, client_view(fam, proto, j, values), heard) == truth
        assert len(calls) == 1


def test_decode_rejects_wrong_shapes():
    fam = make_pin(3)
    proto = synth_omniscience(fam)
    with pytest.raises(InputFormatError):
        decode_messages(proto, fam, 9, [0, 0], [0, 0])
    with pytest.raises(InputFormatError):
        decode_messages(proto, fam, 1, [0], [0, 0])
    with pytest.raises(InputFormatError):
        decode_messages(proto, fam, 1, [0, 0], [0])


def test_synth_sk_meets_the_scalar_cost():
    rng = random.Random(32)
    built = 0
    for _ in range(60):
        fam = random_family(rng, rng.randint(2, 5), rng.randint(2, 6))
        for tau in range(1, max_keys(fam) + 1):
            proto = synth_sk(fam, tau, seed=3)
            assert check_secret_key(proto, fam)
            assert len(proto.senders) == linear_secrecy_cost(fam, tau)
            assert len(proto.key_rows) == tau
            assert proto.support == min_key_support(fam, tau)
            built += 1
    assert built > 10


def test_synth_sk_rejects_impossible_counts():
    fam = make_pin(3)
    with pytest.raises(InfeasibleError):
        synth_sk(fam, 2)
    with pytest.raises(InputFormatError):
        synth_sk(fam, 0)


def test_all_clients_agree_on_the_key():
    rng = random.Random(33)
    tested = 0
    for _ in range(30):
        fam = random_family(rng, rng.randint(2, 4), rng.randint(2, 5))
        kmax = max_keys(fam)
        if kmax == 0:
            continue
        proto = synth_sk(fam, kmax, seed=5)
        q = proto.field.q
        for _ in range(4):
            values = [rng.randrange(q) for _ in range(fam.m)]
            heard = broadcast_values(proto, fam, values)
            truth = tuple(evaluate_rows(proto.field, proto.key_rows, values))
            for j in range(1, fam.n + 1):
                own = client_view(fam, proto, j, values)
                assert compute_key(proto, fam, j, own, heard) == truth
        # a unit vector on a nonzero key coordinate flips the key away
        # from the all-zero draw, so the key map is never constant
        pos = next(c for c, v in enumerate(proto.key_rows[0]) if v)
        zero = [0] * fam.m
        poke = list(zero)
        poke[pos] = 1
        assert evaluate_rows(proto.field, proto.key_rows, poke) != evaluate_rows(
            proto.field, proto.key_rows, zero
        )
        tested += 1
    assert tested > 5


def test_compute_key_requires_secret_key_kind():
    fam = make_pin(3)
    omni = synth_omniscience(fam)
    with pytest.raises(InputFormatError):
        compute_key(omni, fam, 1, [0, 0], [0, 0])
    sk = synth_sk(fam, 1)
    with pytest.raises(InputFormatError):
        decode_messages(sk, fam, 1, [0, 0], [0])


def test_shared_message_needs_no_transmissions():
    fam = MessageFamily.from_holdings(2, 2, [[1, 2], [2]])
    proto = synth_sk(fam, 1)
    assert proto.rows == ()
    assert proto.senders == ()
    assert proto.key_rows == ((0, 1),)
    assert proto.support == (2,)
    assert check_secret_key(proto, fam)


def test_forced_field_is_respected():
    fam = make_gap(4)
    proto = synth_sk(fam, 1, field=11)
    assert proto.field.q == 11
    assert len(proto.rows) == 2
    assert check_secret_key(proto, fam)
    omni = synth_omniscience(fam, field=make_field(3))
    assert omni.field.q == 3
    assert check_omniscience(omni, fam)


def test_forced_field_can_be_too_small():
    # Omniscience here needs two broadcasts from the full holder that
    # every pair of coordinates can invert, and GF(2) has no such pair
    # of length-4 rows.
    with pytest.raises(SynthesisExhaustedError):
        synth_omniscience(make_gap(4), field=2)


def test_forced_field_order_must_be_a_prime_power():
    with pytest.raises(InputFormatError):
        synth_sk(make_pin(3), 1, field=6)


def test_chain_protocol_on_pin_families():
    for n in (3, 4, 5):
        fam = make_pin(n)
        proto = synth_chain(fam)
        assert proto.field.q == 2
        assert len(proto.senders) == fam.m - 1
        assert len(proto.key_rows) == 1
        assert check_secret_key(proto, fam)


def test_chain_protocol_failure_modes():
    disconnected = MessageFamily.from_holdings(2, 2, [[1], [2]])
    with pytest.raises(InfeasibleError):
        synth_chain(disconnected)
    empty_handed = MessageFamily.from_holdings(2, 1, [[1], []])
    with pytest.raises(InfeasibleError):
        synth_chain(empty_handed)


def test_chain_values_agree():
    fam = make_pin(4)
    proto = synth_chain(fam)
    rng = random.Random(34)
    for _ in range(5):
        values = [rng.randrange(2) for _ in range(fam.m)]
        heard = broadcast_values(proto, fam, values)
        keys = {
            compute_key(proto, fam, j, client_view(fam, proto, j, values), heard)
            for j in range(1, fam.n + 1)
        }
        assert keys == {(values[0],)}


def test_split_gap_protocol_shapes():
    for m, order in ((4, 4), (6, 5), (8, 7)):
        proto = split_gap_protocol(m)
        fam = make_gap(m)
        assert proto.dim == 2
        assert proto.field.q == order
        assert proto.senders == (1,) * (m // 2 - 1)
        assert len(proto.key_rows) == 2
        assert check_secret_key(proto, fam)
    # strictly below the best scalar protocol for one key, which costs
    # m - 2 transmissions (solver-checked where the client count allows)
    assert linear_secrecy_cost(make_gap(4), 1) == 2
    assert linear_secrecy_cost(make_gap(6), 1) == 4
    for m in (4, 6, 8):
        assert len(split_gap_protocol(m).senders) == m // 2 - 1 < m - 2
    for bad in (3, 5, 2):
        with pytest.raises(InputFormatError):
            split_gap_protocol(bad)


def test_split_gap_protocol_refuses_large_m_at_once():
    started = time.perf_counter()
    for m in (26, 1000, 10**12):
        with pytest.raises(SizeGuardError):
            split_gap_protocol(m)
    assert time.perf_counter() - started < 1.0


def test_split_gap_vector_key_agreement():
    proto = split_gap_protocol(4)
    fam = make_gap(4)
    rng = random.Random(35)
    q = proto.field.q
    for _ in range(5):
        values = [rng.randrange(q) for _ in range(fam.m * proto.dim)]
        heard = evaluate_rows(proto.field, proto.rows, values)
        keys = {
            compute_key(proto, fam, j, client_view(fam, proto, j, values), heard)
            for j in range(1, fam.n + 1)
        }
        assert len(keys) == 1
        assert len(keys.pop()) == 2


def test_algebraic_issues_name_the_problem():
    fam = make_pin(3)
    # sender 1 holds messages 1 and 2 but the row touches message 3
    bad_locality = LinearProtocol(
        GF2, 3, 3, "omniscience", (1, 2), ((1, 0, 1), (0, 1, 1))
    )
    issues = algebraic_issues(bad_locality, fam)
    assert any("does not hold" in s for s in issues)

    # key equal to a transmission leaks completely
    leaky = LinearProtocol(
        GF2, 3, 3, "secret-key", (2, 3), ((0, 1, 1), (0, 0, 1)), ((0, 1, 1),)
    )
    issues = algebraic_issues(leaky, fam)
    assert any("leak" in s for s in issues)

    # key nobody outside the holders can reach
    undecodable = LinearProtocol(
        GF2, 3, 3, "secret-key", (), (), ((1, 0, 0),)
    )
    issues = algebraic_issues(undecodable, fam)
    assert any("cannot derive" in s for s in issues)


def test_algebraic_issues_reduce_each_client_once(monkeypatch):
    calls = []
    real = fields_mod.rref

    def counting(field, rows):
        calls.append(field)
        return real(field, rows)

    monkeypatch.setattr(fields_mod, "rref", counting)
    monkeypatch.setattr(protocols_mod, "rref", counting)
    fam = make_pin(5)
    proto = synth_sk(fam, 2)
    assert len(proto.key_rows) == 2
    # holding nothing, client 1 hears what an eavesdropper hears and can
    # derive neither key
    blind = MessageFamily(fam.n, fam.m, (0,) + fam.masks[1:])
    underivable = ["client 1 cannot derive key 1", "client 1 cannot derive key 2"]
    for family, failing in ((fam, []), (blind, underivable)):
        calls.clear()
        issues = algebraic_issues(proto, family)
        assert [s for s in issues if "cannot derive" in s] == failing
        # two ranks for the leak check, then one elimination per client
        # however many keys it has to derive
        assert len(calls) == 2 + fam.n


def test_client_eliminations_run_in_the_quotient(monkeypatch):
    # each client's elimination has one row per coordinate it holds and
    # one column per dimension of V / span(T), not one row per
    # transmission and one column per coordinate it lacks
    proto = split_gap_protocol(12)
    fam = make_gap(12)
    width = proto.m * proto.dim
    free = width - len(fields_mod.rref(proto.field, proto.rows)[1])
    shapes = []
    real = fields_mod.rref

    def recording(field, rows):
        shapes.append((len(rows), len(rows[0]) if rows else None))
        return real(field, rows)

    monkeypatch.setattr(fields_mod, "rref", recording)
    monkeypatch.setattr(protocols_mod, "rref", recording)
    assert algebraic_issues(proto, fam) == []
    per_client = shapes[-fam.n :]
    assert len(shapes) == 2 + fam.n
    for j, (nrows, ncols) in enumerate(per_client, start=1):
        held = len(protocols_mod._client_cols(fam, j, proto.dim))
        assert nrows <= held
        assert ncols == free


def mutants(proto, rng, count):
    """Seeded mutants: one coefficient of a transmission or key row bumped
    by one or zeroed, one transmission (or one of several keys) dropped,
    or one transmission repeated."""
    dim = proto.dim
    ntrans = len(proto.senders)
    for _ in range(count):
        rows = [list(r) for r in proto.rows]
        keys = [list(r) for r in proto.key_rows]
        senders = list(proto.senders)
        op = rng.choice(("bump", "zero", "drop", "repeat"))
        if op in ("bump", "zero"):
            row = rng.choice(rows + keys)
            c = rng.randrange(len(row))
            row[c] = proto.field.add(row[c], 1) if op == "bump" else 0
        elif op == "drop" and len(keys) > 1 and rng.random() < 0.3:
            del keys[rng.randrange(len(keys))]
        elif ntrans:
            t = rng.randrange(ntrans)
            group = rows[t * dim : (t + 1) * dim]
            if op == "drop":
                del rows[t * dim : (t + 1) * dim]
                del senders[t]
            else:
                rows.extend(list(r) for r in group)
                senders.append(senders[t])
        yield dataclasses.replace(
            proto,
            senders=tuple(senders),
            rows=tuple(tuple(r) for r in rows),
            key_rows=tuple(tuple(r) for r in keys),
        )


def test_algebraic_issues_match_the_references_on_mutants():
    rng = random.Random(19)
    cases = [(split_gap_protocol(m), make_gap(m)) for m in range(4, 13, 2)]
    families = [make_pin(n) for n in range(3, 7)] + [make_cyclic15()]
    for q in (2, 3, 4, 5, 7, 8, 9, 16):
        for fam in families:
            tau = max_keys(fam)
            for synth in (
                lambda: synth_omniscience(fam, seed=q, field=q),
                lambda: synth_sk(fam, min(tau, 2), seed=q, field=q),
            ):
                try:
                    cases.append((synth(), fam))
                except SynthesisExhaustedError:
                    pass
    assert len(cases) > 60
    failing = 0
    for proto, fam in cases:
        assert algebraic_issues(proto, fam) == []
        for mutant in mutants(proto, rng, 10):
            issues = algebraic_issues(mutant, fam)
            assert issues == reference_issues(mutant, fam)
            failing += bool(issues)
    # about four in ten mutants break the protocol somewhere, so the
    # references are compared on failing checks as well as passing ones
    assert len(cases) * 3 < failing < len(cases) * 10


def test_algebraic_issues_shape_mismatch():
    fam = make_pin(3)
    proto = synth_omniscience(make_pin(4))
    with pytest.raises(InputFormatError):
        algebraic_issues(proto, fam)


def test_json_round_trip_is_exact():
    rng = random.Random(36)
    protos = [
        synth_omniscience(make_pin(4), seed=1),
        synth_sk(make_pin(4), 2, seed=2),
        synth_chain(make_pin(3)),
        split_gap_protocol(4),
        split_gap_protocol(6),
    ]
    for _ in range(5):
        fam = random_family(rng, rng.randint(2, 4), rng.randint(1, 4))
        protos.append(synth_omniscience(fam, seed=rng.randrange(50)))
    for proto in protos:
        text = protocol_to_json(proto)
        again = protocol_from_json(text)
        assert again == proto
        assert type(again) is type(proto)
        assert protocol_to_json(again) == text


def test_undecodable_is_reported_before_contradictory_values():
    fam = MessageFamily.from_holdings(2, 2, [[1], [1, 2]])
    proto = LinearProtocol(GF2, 2, 2, "omniscience", (2,), ((1, 0),))
    # client 1 hears message 1 again, with a value that disagrees with its own
    with pytest.raises(InfeasibleError):
        decode_messages(proto, fam, 1, [0], [1])


def test_protocol_from_json_rejects_malformed_input():
    good = protocol_to_json(synth_sk(make_pin(3), 1))
    import json as _json

    data = _json.loads(good)
    variants = []
    d = dict(data)
    del d["kind"]
    variants.append(d)
    d = dict(data)
    d["extra"] = 1
    variants.append(d)
    d = dict(data)
    d["dimension"] = 0
    variants.append(d)
    d = dict(data)
    d["clients"] = True
    variants.append(d)
    d = dict(data)
    d["field"] = [2]
    variants.append(d)
    d = dict(data)
    d["transmissions"] = [{"sender": 1}]
    variants.append(d)
    d = dict(data)
    d["transmissions"] = [{"sender": 1, "rows": []}]
    variants.append(d)
    d = dict(data)
    d["transmissions"] = [{**data["transmissions"][0], "sender": True}]
    variants.append(d)
    d = dict(data)
    d["keys"] = "nope"
    variants.append(d)
    d = dict(data)
    d["kind"] = "banana"
    variants.append(d)
    d = dict(data)
    d["support"] = []
    variants.append(d)
    for v in variants:
        with pytest.raises(InputFormatError):
            protocol_from_json(_json.dumps(v))
    with pytest.raises(InputFormatError):
        protocol_from_json("{not json")


def test_synth_sk_on_a_restricted_family():
    fam = restrict(make_pin(5), [3, 5, 7, 9, 10])
    proto = synth_sk(fam, 1)
    # support holds 1-based positions, like the rows, not original labels
    assert [fam.labels[s - 1] for s in proto.support] == list(min_key_support(fam, 1))
    assert verify_exhaustive(proto, fam).ok
    assert protocol_from_json(protocol_to_json(proto)) == proto


# sha256 of protocol_to_json, recorded before the elimination routines were
# merged into one; any change in pivoting or basis choice shows up here
GOLDEN_DIGESTS = {
    "split_gap:4": "b6ff365f3c4028093752ae2198593e09b5df711ed56c92df6e443610dd5b6721",
    "split_gap:6": "79669b5877cb47844b6c3f1f481c4366a2a91c324cd69012a7b815d574a55be4",
    "split_gap:8": "9f4c57a17b2a0b1b17864dcff9da1e6910aec600bdcfecb0444bc8e5d450222b",
    "omni pin:4 GF(11)": "b9fd289a0880c7432c8a5bd24f1ecf7dd59922fa3dc7ac3a795ed226713df6a6",
    "sk pin:5 tau=2": "506e164930e0506e1abbef8f01a49fa480ce62b876a286c358c22218ed394e22",
    "sk cyclic15 tau=2": "9da0d98e32d71cc35c4400b7e9ce66de726594ba4559064248174c039e4d8448",
    "sk gap:6 tau=1": "c729b0d70b3edb3efc69a38b2a454bdad260bf4f266b432a6663c8fdd2e137af",
    "sk pin:4 tau=2 seed=1 GF(16)": "6a4ce039eba8274f389c6a3a59540f65a26ddc9727e169b54e2cb0146f55519b",
}


def test_protocol_json_matches_golden_digests():
    built = {
        "split_gap:4": split_gap_protocol(4),
        "split_gap:6": split_gap_protocol(6),
        "split_gap:8": split_gap_protocol(8),
        "omni pin:4 GF(11)": synth_omniscience(make_pin(4), field=11),
        "sk pin:5 tau=2": synth_sk(make_pin(5), 2),
        "sk cyclic15 tau=2": synth_sk(make_cyclic15(), 2),
        "sk gap:6 tau=1": synth_sk(make_gap(6), 1),
        "sk pin:4 tau=2 seed=1 GF(16)": synth_sk(make_pin(4), 2, seed=1, field=16),
    }
    digests = {
        name: hashlib.sha256(protocol_to_json(p).encode()).hexdigest()
        for name, p in built.items()
    }
    assert digests == GOLDEN_DIGESTS


# sha256 over every synthesis outcome of the grid below, recorded before the
# scalar and vector protocol types and the two synthesis paths were merged
SYNTHESIS_GRID_DIGEST = "96aef01769ee740b3ef87261204e64ede1a4b4f28180ffdf8471906efab06899"


def test_synthesis_grid_matches_golden_digest():
    rng = random.Random(60)
    fams = [
        (f"random {i}", random_family(rng, rng.randint(1, 6), rng.randint(1, 7)))
        for i in range(60)
    ]
    fams += [
        ("pin:4", make_pin(4)),
        ("pin:5", make_pin(5)),
        ("gap:4", make_gap(4)),
        ("gap:6", make_gap(6)),
        ("cyclic15", make_cyclic15()),
    ]
    h = hashlib.sha256()
    for name, fam in fams:
        for seed in (0, 1):
            for field in (None, 3, 4):
                for what in ("omniscience", 1, 2):
                    try:
                        if what == "omniscience":
                            proto = synth_omniscience(fam, seed, field)
                        else:
                            proto = synth_sk(fam, what, seed, field)
                        out = protocol_to_json(proto)
                    except (InfeasibleError, InputFormatError, SynthesisExhaustedError) as exc:
                        out = f"{type(exc).__name__}: {exc}\n"
                    h.update(f"{name} seed={seed} field={field} {what}\n{out}".encode())
    assert h.hexdigest() == SYNTHESIS_GRID_DIGEST
