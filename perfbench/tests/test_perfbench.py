"""Tests of the benchmark itself: seeded inputs, answer checks, and
failure accounting.  Run with `python3 -m pytest perfbench/tests`."""

from __future__ import annotations

import copy
import json
import random
import signal
import time

import pytest

import omnikey.cli
import run
import worker
import workloads
from answers import Certifier, compare_exact, exact_part


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(name):
    a, b = workloads.build(name, 7), workloads.build(name, 7)
    assert a.requests == b.requests
    assert a.files == b.files


@pytest.mark.parametrize("name", ["omni", "keytable", "witness"])
def test_other_seed_gives_other_inputs(name):
    a, b = workloads.build(name, 7), workloads.build(name, 8)
    assert (a.files, a.requests) != (b.files, b.requests)


def _answer(argv):
    _status, _seconds, stdout = worker.send(omnikey.cli.main, argv, 60.0)
    return worker.normalize(stdout)


@pytest.fixture
def table_case(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    holdings = workloads.random_family(random.Random(3), 5, 9)
    (tmp_path / "fam.json").write_text(workloads.network_text(5, 9, holdings))
    req = workloads.Request("fam", ("analyze", "--input", "fam.json", "--all-tau", "--json"), "fam.json")
    return req, _answer(list(req.argv))


def test_certifier_accepts_the_programs_answer(tmp_path, table_case):
    req, answer = table_case
    assert answer["max_keys"] >= 1
    assert Certifier(tmp_path).check(req, answer) is None
    assert compare_exact(req, answer, exact_part(req, answer)) is None


def test_checker_rejects_a_decremented_allocation(tmp_path, table_case):
    req, answer = table_case
    bad = copy.deepcopy(answer)
    j = next(i for i, a in enumerate(bad["allocation"]) if a > 0)
    bad["allocation"][j] -= 1
    assert Certifier(tmp_path).check(req, bad) is not None
    bad["min_broadcasts"] -= 1  # consistent sum, so only feasibility can catch it
    bad["max_keys"] += 1
    assert "infeasible" in Certifier(tmp_path).check(req, bad)
    assert compare_exact(req, bad, exact_part(req, answer)) is not None


def test_checker_rejects_a_support_missing_a_message(tmp_path, table_case):
    req, answer = table_case
    bad = copy.deepcopy(answer)
    row = bad["table"][0]
    row["support"] = row["support"][1:]
    row["cost"] -= 1  # consistent cost, so only the key check can catch it
    assert "does not yield" in Certifier(tmp_path).check(req, bad)
    assert compare_exact(req, bad, exact_part(req, answer)) is not None


def test_checker_rejects_a_cover_that_misses_an_element(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    inst = workloads.random_cover(random.Random(1), 8, 6, 0.4)
    (tmp_path / "cover.json").write_text(json.dumps(inst))
    req = workloads.Request("cover", ("reduce", "--input", "cover.json", "--solve", "--json"), "cover.json")
    answer = _answer(list(req.argv))
    assert Certifier(tmp_path).check(req, answer) is None
    bad = {"cover": answer["cover"][1:], "size": answer["size"] - 1}
    assert "misses" in Certifier(tmp_path).check(req, bad)


def test_failed_and_timed_out_requests_raise_failed_frac(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    good = {"cover": [1], "size": 1}
    (tmp_path / "c.json").write_text(json.dumps({"universe": [1], "sets": [[1]]}))

    def fake_main(argv):
        if argv[0] == "slow":
            time.sleep(5)
        print(json.dumps({"cover": [], "size": 0} if argv[0] == "wrong" else good))
        return 1 if argv[0] == "fails" else 0

    names = ["answers", "fails", "slow", "wrong"]
    batch = workloads.Batch("keytable", 1)
    batch.requests = [workloads.Request(n, ("reduce",), "c.json") for n in names]
    requests = [{"id": n, "argv": [n]} for n in names]
    previous = signal.signal(signal.SIGALRM, worker._alarm)
    try:
        started = time.perf_counter()
        results = worker.run_batch(fake_main, requests, 0.2, started + 60)["results"]
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - started < 3
    assert [r["status"] for r in results] == ["ok", "exit 1", "timeout", "ok"]
    checker = run.Checker(batch, tmp_path)
    attempted, failed = checker.count([{"mode": "plain", "reps": [{"results": results}]}])
    assert (attempted, failed) == (4, 3)


def test_deadline_fails_requests_it_stops():
    calls = []
    results = worker.run_batch(lambda argv: calls.append(argv) or 0, [{"id": "x", "argv": ["x"]}], 1.0, 0.0)["results"]
    assert calls == [] and results[0]["status"].startswith("not sent")
