"""One benchmark client: sends a batch of CLI requests in-process.

Run by run.py in a fresh interpreter with the program on PYTHONPATH:

    python3 perfbench/worker.py SPEC.json RESULT.json

SPEC holds the requests, the pass ("plain", "traced" or "memory"), the
seconds to keep repeating the batch for (at least once), the per-request
cap and the deadline after which no request is sent.  The
loop is closed with one client: each request starts after the previous
one returned.  A request that runs past the cap is interrupted by
SIGALRM and counts as failed.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import resource
import signal
import sys
import time

import numpy as np


class RequestTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so the CLI's own handler for
    Exception cannot turn it into an exit code."""


def _alarm(_signum, _frame):
    raise RequestTimeout


def normalize(stdout: str):
    """The answer a request printed: parsed JSON minus the timing-only
    "seconds" key, or None when it printed nothing."""
    if not stdout.strip():
        return None
    data = json.loads(stdout)
    if isinstance(data, dict):
        data.pop("seconds", None)
    return data


def send(main, argv, cap_s: float):
    """Run one request; return (status, seconds, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        status = "ok" if code == 0 else f"exit {code}"
    except RequestTimeout:
        status = "timeout"
    except SystemExit as exc:
        status = f"exit {exc.code}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return status, time.perf_counter() - start, out.getvalue()


REFERENCE_EVERY_S = 0.1
_REFERENCE_ARRAY = np.arange(1 << 16, dtype=np.uint64)


def reference_seconds() -> float:
    """Time a fixed reference computation of a few milliseconds.  Sampled
    between requests, it tracks the machine's speed, which on a shared
    host drifts by tens of percent over seconds (NOTES.md).

    It has two parts, combined by geometric mean: the operations the
    program computes with (a Python integer loop, numpy array operations,
    frozenset building), and filling a fresh 4 MB array, whose cost in
    page faults moves with the host the way the oracle's and the
    tables' large arrays do.  The collector is paused so that garbage a
    request left behind is not collected on the reference's time."""
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        x = _REFERENCE_ARRAY
        for _ in range(5):
            x = (x ^ (x >> np.uint64(3))) + np.uint64(1)
        sets = [frozenset((i, i + 1)) for i in range(5000)]
        middle = time.perf_counter()
        filled = np.ones(1 << 19, dtype=np.uint64)
        end = time.perf_counter()
    finally:
        gc.enable()
    del sets, filled
    return math.sqrt((middle - start) * (end - middle))


def run_batch(main, requests, cap_s: float, deadline: float, tracer=None) -> dict:
    """One pass over the batch.  Returns the per-request results, their
    summed time ("wall_s") and the reference times sampled between
    requests at least every REFERENCE_EVERY_S; each result names the
    last sample taken before it.  Requests not started by the deadline
    fail without being sent."""
    results = []
    references = [reference_seconds()]
    last_reference = time.perf_counter()
    for req in requests:
        if tracer is not None:
            tracer.request = req["id"]
        left = deadline - time.perf_counter()
        if left <= 0:
            status, seconds, stdout = "not sent before the run limit", 0.0, ""
        else:
            status, seconds, stdout = send(main, req["argv"], min(cap_s, left))
        results.append(
            {"id": req["id"], "status": status, "seconds": seconds, "stdout": stdout,
             "reference": len(references) - 1}
        )
        if time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
            references.append(reference_seconds())
            last_reference = time.perf_counter()
    for r in results:
        stdout = r.pop("stdout")
        try:
            r["answer"] = normalize(stdout) if r["status"] == "ok" else None
        except ValueError:
            r["status"] = "unparsable output"
            r["answer"] = None
    return {"wall_s": sum(r["seconds"] for r in results), "results": results, "reference_s": references}


def probe(tracer, requests, answers) -> None:
    """The benchmark's own direct calls, traced after each batch:
    - the decision form of the omniscience solve for every key count an
      analyze request answered;
    - field setup, with the field cache cleared, for every field order
      the batch's protocols use;
    - one call into each timed public function on the fixed pin:4 family,
      so every layer is timed on every workload, not only where the
      batch reaches it."""
    import omnikey
    from answers import load_family
    from omnikey import fields

    tracer.request = "probe"
    for req in requests:
        answer = answers.get(req["id"])
        if req["argv"][0] != "analyze" or not isinstance(answer, dict):
            continue
        fam = load_family(req["family"], ".")
        for row in answer["table"]:
            if row["cost"] is not None:
                omnikey.broadcasts_at_most(fam, fam.m - row["keys"])
    fields.make_field.cache_clear()
    for q in sorted(tracer.field_orders):
        omnikey.field_from_order(q)

    fam = omnikey.make_pin(4)
    omnikey.parse_network(omnikey.network_to_json(fam))
    omnikey.min_broadcasts(fam)
    omnikey.broadcasts_at_most(fam, fam.m - 1)
    omnikey.build_report(fam)
    omnikey.min_key_support(fam, 1)
    omnikey.minimum_cover(omnikey.parse_set_cover('{"universe": [1, 2, 3], "sets": [[1, 2], [2, 3], [3]]}'))
    hg = omnikey.to_hypergraph(fam)
    omnikey.partition_bound_holds(hg, 1)
    graph = omnikey.induce_by_order(hg, list(range(1, fam.n + 1)))
    omnikey.extract_tree_packing(graph, omnikey.tree_packing_number(graph))
    proto = omnikey.synth_sk(fam, 1)
    omnikey.verify_exhaustive(omnikey.protocol_from_json(omnikey.protocol_to_json(proto)), fam)


def main(argv) -> int:
    spec_path, result_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    deadline = time.perf_counter() + spec["deadline_s"]
    signal.signal(signal.SIGALRM, _alarm)

    import omnikey.cli
    from layers import MemoryProbe, Tracer, layer_metrics, self_times

    mode = spec["mode"]
    requests = spec["requests"]
    tracer = memory = None
    if mode == "traced":
        tracer = Tracer()
        tracer.install()
    elif mode == "memory":
        memory = MemoryProbe()
        memory.install()
    # In the traced pass each request is a root span of layer "cli".
    cli_main = omnikey.cli.main
    if tracer is not None:
        def cli_main(argv, _main=omnikey.cli.main):
            return tracer.call("cli", "main", _main, (argv,), {})

    reps = []
    started = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        rep = run_batch(cli_main, requests, spec["cap_s"], deadline, tracer)
        if tracer is not None:
            batch_spans = tracer.spans
            tracer.spans = []
            probe(tracer, requests, {r["id"]: r["answer"] for r in rep["results"]})
            spans = batch_spans + tracer.spans
            rep["layers"] = layer_metrics(spans, tracer.counts)
            rep["self_s"] = self_times(batch_spans)
            if not reps:
                rep["spans"] = spans
        reps.append(rep)
        # Another batch only if it should also end within the seconds.
        if time.perf_counter() - started + rep["wall_s"] > spec["seconds"]:
            break
    result = {
        "mode": mode,
        "reps": reps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if memory is not None:
        result["peak_alloc_mb"] = memory.peaks
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
