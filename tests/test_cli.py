from __future__ import annotations

import hashlib
import json
import random
import time

from omnikey import (
    make_pin,
    min_broadcasts,
    network_to_json,
    parse_network,
    protocol_from_json,
)
from omnikey.cli import main

from conftest import brute_set_cover, random_family


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_json_pin3(capsys):
    code, out, _ = run(capsys, "analyze", "--preset", "pin:3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["clients"] == 3
    assert data["messages"] == 3
    assert data["min_broadcasts"] == 2
    assert data["allocation"] == [0, 1, 1]
    assert data["max_keys"] == 1
    assert data["table"] == [{"keys": 1, "cost": 1, "support": [1, 2]}]
    assert isinstance(data["seconds"], float)


def test_analyze_json_benchmark_table(capsys):
    code, out, _ = run(capsys, "analyze", "--preset", "table1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["min_broadcasts"] == 9
    assert data["allocation"] == [0] * 6 + [1] * 9
    assert data["max_keys"] == 6
    assert [row["cost"] for row in data["table"]] == [2, 4, 4, 6, 8, 8]
    assert data["table"][0]["support"] == [1, 2, 13]


def test_analyze_all_tau_appends_an_infinite_row(capsys):
    code, out, _ = run(capsys, "analyze", "--preset", "pin:4", "--all-tau", "--json")
    assert code == 0
    data = json.loads(out)
    assert [row["keys"] for row in data["table"]] == [1, 2, 3]
    assert data["table"][-1] == {"keys": 3, "cost": None, "support": None}
    code, out, _ = run(capsys, "analyze", "--preset", "pin:4", "--all-tau")
    assert code == 0
    assert "inf" in out


def test_analyze_tau_and_all_tau_conflict(capsys):
    code, _, err = run(
        capsys, "analyze", "--preset", "pin:4", "--tau", "1", "--all-tau"
    )
    assert code == 2
    assert "mutually exclusive" in err


def test_analyze_single_tau_out_of_reach(capsys):
    code, out, _ = run(
        capsys, "analyze", "--preset", "table1", "--tau", "9", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["table"] == [{"keys": 9, "cost": None, "support": None}]
    code, out, _ = run(capsys, "analyze", "--preset", "table1", "--tau", "9")
    assert code == 0
    assert "inf" in out
    assert "-" in out


def test_analyze_human_output(capsys):
    code, out, err = run(capsys, "analyze", "--preset", "cyclic15")
    assert code == 0
    assert "minimum broadcasts: 9" in out
    assert "max keys: 6" in out
    assert "completed in" in err


def test_analyze_witness_payload(capsys):
    code, out, _ = run(
        capsys, "analyze", "--preset", "pin:4", "--witness", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["tight_sets"]
    conn = data["connectivity"]
    assert len(conn["induced_edges"]) == 6
    assert conn["tree_packing_number"] == 2
    assert len(conn["tree_packing"]) == 2
    v = conn["violating_partition"]
    assert v["tau"] == 3
    assert v["crossing"] == 6
    assert v["required"] == 9
    assert v["blocks"] == [[1], [2], [3], [4]]


# sha256 of the printed tight sets of three 16-client, 6-message families,
# recorded while every tight set was still decoded before the first ten
# were taken
GOLDEN_WITNESS_TIGHT_SETS = "a08c648db64a3cd08d4f34b7724455e46a133211cc52309e817a4fce9a4346a8"


def test_analyze_witness_tight_sets_at_16_clients(tmp_path, capsys):
    h = hashlib.sha256()
    for seed in range(3):
        fam = random_family(random.Random(seed), 16, 6)
        path = tmp_path / f"fam{seed}.json"
        path.write_text(network_to_json(fam))
        code, out, _ = run(
            capsys, "analyze", "--input", str(path), "--tau", "1", "--witness", "--json"
        )
        assert code == 0
        printed = json.loads(out)["tight_sets"]
        assert len(printed) == 10
        assert printed == [sorted(s) for s in min_broadcasts(fam).tight_sets[:10]]
        h.update(json.dumps(printed).encode())
    assert h.hexdigest() == GOLDEN_WITNESS_TIGHT_SETS


def test_example_round_trips_through_parse(capsys):
    code, out, _ = run(capsys, "example", "--preset", "pin:3")
    assert code == 0
    fam = parse_network(out)
    assert fam.holdings == (
        frozenset({1, 2}),
        frozenset({1, 3}),
        frozenset({2, 3}),
    )


def test_example_writes_file(tmp_path, capsys):
    target = tmp_path / "fam.json"
    code, out, _ = run(capsys, "example", "--preset", "gap:4", "-o", str(target))
    assert code == 0
    assert out == ""
    fam = parse_network(target.read_text())
    assert fam.n == 7


def test_protocol_to_stdout(capsys):
    code, out, _ = run(capsys, "protocol", "--preset", "pin:3")
    assert code == 0
    proto = protocol_from_json(out)
    assert proto.kind == "omniscience"
    assert len(proto.senders) == 2


def test_protocol_forced_field(capsys):
    code, out, _ = run(
        capsys, "protocol", "--preset", "gap:4", "--kind", "secret-key",
        "--tau", "1", "--field", "11",
    )
    assert code == 0
    proto = protocol_from_json(out)
    assert proto.field.q == 11
    assert len(proto.rows) == 2

    code, _, err = run(
        capsys, "protocol", "--preset", "gap:4", "--field", "2"
    )
    assert code == 4
    assert "gave up" in err

    code, _, err = run(capsys, "protocol", "--gap", "4", "--field", "5")
    assert code == 2
    assert "chooses its own field" in err

    code, _, err = run(
        capsys, "protocol", "--preset", "pin:3", "--chain", "--field", "3"
    )
    assert code == 2
    assert "GF(2)" in err


def test_protocol_chain_shorthand(tmp_path, capsys):
    out_path = tmp_path / "chain.json"
    code, out, _ = run(
        capsys, "protocol", "--preset", "pin:4", "--chain", "--out", str(out_path)
    )
    assert code == 0
    assert out == ""
    proto = protocol_from_json(out_path.read_text())
    assert proto.kind == "secret-key"
    assert proto.field.q == 2
    assert len(proto.senders) == make_pin(4).m - 1


def test_protocol_verify_loop(tmp_path, capsys):
    pfile = tmp_path / "chain.json"
    code, _, _ = run(
        capsys,
        "protocol",
        "--preset",
        "pin:4",
        "--kind",
        "chain",
        "-o",
        str(pfile),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "verify", "--protocol", str(pfile), "--preset", "pin:4"
    )
    assert code == 0
    assert "verified" in out
    assert "mutual information: 0.0 bits" in out
    assert "full mode" in out


def test_verify_catches_a_tampered_protocol(tmp_path, capsys):
    pfile = tmp_path / "sk.json"
    run(
        capsys,
        "protocol",
        "--preset",
        "pin:4",
        "--kind",
        "secret-key",
        "--tau",
        "2",
        "-o",
        str(pfile),
    )
    data = json.loads(pfile.read_text())
    # claim one of the transmissions as a key
    data["keys"][0] = data["transmissions"][0]["rows"][0]
    pfile.write_text(json.dumps(data))
    code, out, _ = run(
        capsys, "verify", "--protocol", str(pfile), "--preset", "pin:4"
    )
    assert code == 1
    assert "FAIL" in out
    assert "verification failed" in out


def test_verify_gap_protocol_json(tmp_path, capsys):
    pfile = tmp_path / "gap.json"
    code, _, _ = run(capsys, "protocol", "--gap", "4", "-o", str(pfile))
    assert code == 0
    code, out, _ = run(
        capsys, "verify", "--protocol", str(pfile), "--gap", "4", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["mode"] == "full"
    assert data["states"] == 4**8
    assert data["mutual_information"] == 0.0
    assert data["failures"] == []


def test_reduce_emits_family(tmp_path, capsys):
    cover = tmp_path / "cover.json"
    cover.write_text(
        json.dumps({"universe": [1, 2, 3], "sets": [[1, 2], [2, 3], [3]]})
    )
    code, out, _ = run(capsys, "reduce", "--input", str(cover))
    assert code == 0
    fam = parse_network(out)
    assert fam.n == 4
    assert fam.m == 3


def test_reduce_solve(tmp_path, capsys):
    cover = tmp_path / "cover.json"
    cover.write_text(
        json.dumps({"universe": [1, 2, 3, 4], "sets": [[1, 2], [3], [3, 4], [2, 3]]})
    )
    code, out, _ = run(capsys, "reduce", "--input", str(cover), "--solve", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {"cover": [1, 3], "size": 2}
    code, out, _ = run(capsys, "reduce", "--input", str(cover), "--solve")
    assert code == 0
    assert "minimum cover: 1 3" in out


def test_reduce_solve_past_the_subset_guard(tmp_path, capsys):
    # 26 elements give 27 clients, more than the subset tables allow; the
    # support walk's decisions build no table
    rng = random.Random(26)
    universe = list(range(1, 27))
    sets = [set(rng.sample(universe, rng.randint(4, 9))) for _ in range(10)]
    for u in universe:
        rng.choice(sets).add(u)
    sets = [sorted(s) for s in sets]
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"universe": universe, "sets": sets}))
    code, out, _ = run(capsys, "reduce", "--input", str(cover), "--solve", "--json")
    assert code == 0
    want = brute_set_cover(universe, sets)
    assert json.loads(out) == {"cover": list(want), "size": len(want)}


def test_reduce_uncoverable_exits_one(tmp_path, capsys):
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"universe": [1, 2], "sets": [[1]]}))
    code, _, err = run(capsys, "reduce", "--input", str(cover), "--solve")
    assert code == 1
    assert "infeasible" in err


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "analyze", "--input", "/no/such/file.json")
    assert code == 2
    assert "error" in err


def test_bad_preset_exits_two(capsys):
    code, _, err = run(capsys, "analyze", "--preset", "nonsense")
    assert code == 2
    assert "preset" in err
    code, _, _ = run(capsys, "analyze", "--preset", "pin:x")
    assert code == 2
    code, _, _ = run(capsys, "example", "--preset", "pin:1")
    assert code == 2


def test_no_family_exits_two(capsys):
    code, _, err = run(capsys, "analyze")
    assert code == 2
    assert "provide" in err


def test_infeasible_synthesis_exits_one(capsys):
    code, _, err = run(
        capsys,
        "protocol",
        "--preset",
        "pin:3",
        "--kind",
        "secret-key",
        "--tau",
        "5",
    )
    assert code == 1
    assert "infeasible" in err


def test_oversized_family_exits_three(tmp_path, capsys):
    big = {"clients": 25, "messages": 1, "holdings": [[1]] * 25}
    f = tmp_path / "big.json"
    f.write_text(json.dumps(big))
    code, _, err = run(capsys, "analyze", "--input", str(f))
    assert code == 3
    assert "too large" in err


def test_jobs_flag_is_accepted(capsys):
    code, out, _ = run(
        capsys, "analyze", "--preset", "pin:3", "--jobs", "4", "--json"
    )
    assert code == 0
    assert json.loads(out)["min_broadcasts"] == 2


def test_oversized_field_order_exits_three_at_once(tmp_path, capsys):
    started = time.perf_counter()
    code, _, err = run(
        capsys, "protocol", "--preset", "pin:4", "--field", "2147483647"
    )
    assert code == 3
    assert "too large" in err
    good = tmp_path / "sk.json"
    run(capsys, "protocol", "--preset", "pin:4", "--kind", "secret-key", "-o", str(good))
    data = json.loads(good.read_text())
    data["field"] = {"p": 2305843009213693951, "k": 1, "modulus": [0, 1]}
    crafted = tmp_path / "crafted.json"
    crafted.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", "--protocol", str(crafted), "--preset", "pin:4")
    assert code == 3
    assert "too large" in err
    assert time.perf_counter() - started < 1.0


def test_non_integer_field_description_exits_two(tmp_path, capsys):
    good = tmp_path / "sk.json"
    run(capsys, "protocol", "--preset", "pin:4", "--kind", "secret-key", "-o", str(good))
    data = json.loads(good.read_text())
    field = data["field"]
    crafted = tmp_path / "crafted.json"
    for bad in (
        {**field, "p": "abc"},
        {**field, "p": 2.7},
        {**field, "p": True},
        {**field, "k": "1.5"},
        {**field, "modulus": [0, "x"]},
        {**field, "modulus": [0.0, 1]},
        {**field, "modulus": None},
    ):
        crafted.write_text(json.dumps({**data, "field": bad}))
        code, _, err = run(capsys, "verify", "--protocol", str(crafted), "--preset", "pin:4")
        assert code == 2, bad
        assert "bad field description" in err


def test_verify_refuses_codes_past_64_bits(tmp_path, capsys):
    # 80 transmissions over GF(2): client views need 2**83 codes in full
    # mode, and a 41-bit (key, transmission) histogram would take 16 TiB
    for argv, repeat in (
        (("--preset", "pin:3"), 40),
        (("--preset", "pin:4", "--kind", "secret-key"), 20),
    ):
        pfile = tmp_path / "repeated.json"
        code, _, _ = run(capsys, "protocol", *argv, "--field", "2", "-o", str(pfile))
        assert code == 0
        data = json.loads(pfile.read_text())
        data["transmissions"] *= repeat
        pfile.write_text(json.dumps(data))
        code, _, err = run(capsys, "verify", "--protocol", str(pfile), argv[0], argv[1])
        assert code == 3, argv
        assert "too large" in err


def test_non_integer_support_entry_exits_two(tmp_path, capsys):
    good = tmp_path / "sk.json"
    run(capsys, "protocol", "--preset", "pin:4", "--kind", "secret-key", "-o", str(good))
    data = json.loads(good.read_text())
    crafted = tmp_path / "crafted.json"
    for bad in ([1.5], [True, 2]):
        crafted.write_text(json.dumps({**data, "support": bad}))
        code, _, err = run(capsys, "verify", "--protocol", str(crafted), "--preset", "pin:4")
        assert code == 2, bad
        assert "support" in err


def test_huge_message_count_with_empty_support_exits_two_at_once(tmp_path, capsys):
    # an empty support used to be filled with one label per message before
    # anything bounded the message count
    good = tmp_path / "omni.json"
    run(capsys, "protocol", "--preset", "pin:3", "-o", str(good))
    data = json.loads(good.read_text())
    crafted = tmp_path / "crafted.json"
    crafted.write_text(
        json.dumps({**data, "messages": 10**12, "transmissions": [], "support": []})
    )
    started = time.perf_counter()
    code, _, err = run(capsys, "verify", "--protocol", str(crafted), "--preset", "pin:3")
    assert code == 2
    assert "support" in err
    assert time.perf_counter() - started < 1.0


def test_oversized_split_protocol_exits_three_at_once(capsys):
    started = time.perf_counter()
    code, _, err = run(capsys, "protocol", "--gap", "1000")
    assert code == 3
    assert "too large" in err
    assert time.perf_counter() - started < 1.0


def test_oversized_gap_family_exits_three_at_once(tmp_path, capsys):
    pfile = tmp_path / "gap4.json"
    assert run(capsys, "protocol", "--gap", "4", "-o", str(pfile))[0] == 0
    for argv in (
        ("analyze", "--preset", "gap:4000"),
        ("verify", "--protocol", str(pfile), "--gap", "4000"),
    ):
        started = time.perf_counter()
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert "too large" in err
        assert time.perf_counter() - started < 1.0


def test_analyze_tau_on_a_deep_support(tmp_path, capsys):
    # the support of 1195 keys is 1195 messages deep
    m = 1200
    net = tmp_path / "deep.json"
    holdings = [list(range(1, m + 1))] * 2
    net.write_text(json.dumps({"clients": 2, "messages": m, "holdings": holdings}))
    code, out, _ = run(capsys, "analyze", "--input", str(net), "--tau", str(m - 5), "--json")
    assert code == 0
    assert json.loads(out)["table"] == [
        {"keys": m - 5, "cost": 0, "support": list(range(1, m - 4))}
    ]
