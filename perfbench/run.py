"""omnikey benchmark: one command runs a workload, checks every answer
and prints its metrics.

    python3 perfbench/run.py --workload omni --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout; it uses the program in src/ as is.
Each workload is one seeded batch of CLI requests (see workloads.py and
NOTES.md).  A worker process sends them in-process to
`omnikey.cli.main`, one at a time (a closed loop with one client), and
repeats the batch until --seconds have passed.

--trace 0 prints the end-to-end metrics: set-up time (cold import of
omnikey.cli in a fresh interpreter, median of several), batch wall time
and request time (medians), the worker's peak RSS, and the share of
requests that failed.  --trace 1 prints the per-layer metrics from a
traced pass, an untraced pass to compare it with, and a separate
tracemalloc pass.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from answers import Certifier, compare_exact, load_expected

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
SETUP_STARTS = 11
CAP_S = 20.0  # per request; a request past it is interrupted and fails
MEMORY_CAP_S = 4 * CAP_S  # tracemalloc slows allocation-heavy calls several times
RUN_LIMIT_S = 170.0  # the whole run, so it ends within 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "request_p50_ref": "ref",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def program_env() -> dict:
    src = ROOT / "src"
    if not (src / "omnikey" / "cli.py").is_file():
        raise BenchError(f"no program to measure: {src / 'omnikey' / 'cli.py'} is missing")
    sys.path.insert(0, str(src))  # for the answer checks in this process
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def cold_imports(env: dict, cwd: Path, count: int) -> list[float]:
    """Seconds for `import omnikey.cli` in `count` fresh interpreters."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import omnikey.cli"], env=env, cwd=cwd, check=True)
        times.append(time.perf_counter() - start)
    return times


def run_worker(requests, mode: str, seconds: float, env: dict, work: Path, deadline: float) -> dict:
    spec = {
        "mode": mode,
        "seconds": seconds,
        "cap_s": MEMORY_CAP_S if mode == "memory" else CAP_S,
        "deadline_s": max(1.0, deadline - time.monotonic()),
        "requests": [{"id": r.id, "argv": list(r.argv), "family": r.family} for r in requests],
    }
    spec_path, result_path = work / f"spec-{mode}.json", work / f"result-{mode}.json"
    spec_path.write_text(json.dumps(spec))
    timeout = deadline - time.monotonic() + 5
    try:
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
            env=env, cwd=work, check=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass did not finish within the run limit") from exc
    except subprocess.CalledProcessError as exc:
        raise BenchError(f"{mode} pass exited with {exc.returncode}") from exc
    return json.loads(result_path.read_text())


class Checker:
    """Checks each distinct answer once, by exact comparison when
    recorded answers exist for the seed, else by certificate."""

    def __init__(self, batch, work: Path):
        self.requests = {r.id: r for r in batch.requests}
        self.expected = load_expected(batch.workload, batch.seed, DEFAULT_SEED)
        self.certifier = None if self.expected is not None else Certifier(work)
        self.seen: dict[tuple, str | None] = {}
        self.problems: list[str] = []

    def problem(self, result) -> str | None:
        if result["status"] != "ok":
            return result["status"]
        key = (result["id"], json.dumps(result["answer"], sort_keys=True))
        if key not in self.seen:
            req = self.requests[result["id"]]
            if self.expected is not None:
                self.seen[key] = compare_exact(req, result["answer"], self.expected.get(req.id))
            else:
                self.seen[key] = self.certifier.check(req, result["answer"])
        return self.seen[key]

    def count(self, passes) -> tuple[int, int]:
        attempted = failed = 0
        for p in passes:
            for rep in p["reps"]:
                for result in rep["results"]:
                    attempted += 1
                    why = self.problem(result)
                    if why is not None:
                        failed += 1
                        self.problems.append(f"{p['mode']} {result['id']}: {why}")
        return attempted, failed


def scaled(rep) -> tuple[float, list[float]]:
    """A batch's request times, each divided by the median of the seven
    reference samples nearest to it in time, and their sum."""
    refs = rep["reference_s"]
    times = [
        r["seconds"] / statistics.median(refs[max(0, r["reference"] - 3) : r["reference"] + 4])
        for r in rep["results"]
    ]
    return sum(times), times


def end_to_end(setup, plain) -> tuple[dict, list[str]]:
    reps = plain["reps"]
    walls, per_request = zip(*(scaled(rep) for rep in reps))
    # Each request's time is its median over the batches, so the batch
    # median is not moved by one slow send of a short request.
    requests = [statistics.median(ts) for ts in zip(*per_request)]
    raw_requests = [statistics.median(ts) for ts in zip(*([r["seconds"] for r in rep["results"]] for rep in reps))]
    values = {
        "setup_s": statistics.median(setup),
        "wall_ref": statistics.median(walls),
        "request_p50_ref": statistics.median(requests),
        "peak_rss_mb": plain["peak_rss_mb"],
    }
    references = [t for rep in reps for t in rep["reference_s"]]
    notes = [
        f"setup_s: median of {len(setup)} cold imports of omnikey.cli",
        f"wall_ref: median of {len(walls)} batches of {len(reps[0]['results'])} requests, "
        "summed request time over the reference time",
        f"request_p50_ref: median of {len(requests)} requests (each the median of its {len(reps)} sends), "
        "request time over the reference time",
        "peak_rss_mb: peak resident set of the worker process",
        f"wall_s {statistics.median(rep['wall_s'] for rep in reps):.6g} s (raw, median of batches)",
        f"request_p50_s {statistics.median(raw_requests):.6g} s (raw)",
        f"reference_s {statistics.mean(references):.6g} s (mean of {len(references)} samples, "
        f"range {min(references):.4g} to {max(references):.4g})",
    ]
    return values, notes


def per_layer(plain, traced, memory) -> tuple[dict, list[str]]:
    import layers

    reps = traced["reps"]
    values = {key: statistics.median(rep["layers"][key] for rep in reps) for key in reps[0]["layers"]}
    values.update(memory["peak_alloc_mb"])
    plain_wall = statistics.median(scaled(rep)[0] for rep in plain["reps"])
    traced_wall = statistics.median(scaled(rep)[0] for rep in reps)
    values["trace.overhead_frac"] = traced_wall / plain_wall - 1
    shares = {}
    for layer in ("cli", *layers.LAYERS):
        shares[layer] = statistics.median(rep["self_s"].get(layer, 0.0) / rep["wall_s"] for rep in reps)
    ranked = ", ".join(f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1]))
    notes = [
        f"per-layer times: median of {len(reps)} traced batches, each with the probe calls after it; "
        "counts cover the same calls",
        f"traced self time by layer: {ranked}",
        "peak_alloc_mb: tracemalloc peak inside the call, from a separate untimed pass",
    ]
    return values, notes


def write_spans(workload: str, seed: int, spans) -> Path:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{workload}-seed{seed}.jsonl"
    fields = ("request", "span", "parent", "layer", "name", "start", "end")
    path.write_text("".join(json.dumps(dict(zip(fields, s))) + "\n" for s in spans))
    return path


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "frac" if name.endswith("_frac") else "count"


@contextlib.contextmanager
def workdir(batch):
    """A scratch directory inside the checkout holding the batch's input
    files; the worker runs there, so protocol files land there too."""
    work = ROOT / ".perfbench_work" / f"{batch.workload}-{batch.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for name, text in batch.files.items():
            (work / name).write_text(text)
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it


def run(args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    env = program_env()
    batch = workloads.build(args.workload, args.seed)
    with workdir(batch) as work:
        print(f"workload {args.workload}, seed {args.seed}: {len(batch.requests)} requests per batch, "
              f"closed loop with one client, per-request cap {CAP_S:g} s")
        if args.trace:
            plain = run_worker(batch.traced, "plain", args.seconds / 2, env, work, deadline)
            traced = run_worker(batch.traced, "traced", args.seconds / 2, env, work, deadline)
            memory = run_worker(batch.traced, "memory", 0, env, work, deadline)
            passes = [plain, traced, memory]
            values, notes = per_layer(plain, traced, memory)
            notes.append(f"spans of the first traced batch: {write_spans(args.workload, args.seed, traced['reps'][0]['spans'])}")
        else:
            # The first start may write bytecode caches and is not counted.
            # The rest are split around the timed pass, so their median
            # spans the machine's speed over the whole run.
            cold_imports(env, work, 1)
            setup = cold_imports(env, work, SETUP_STARTS // 2)
            plain = run_worker(batch.requests, "plain", args.seconds, env, work, deadline)
            setup += cold_imports(env, work, SETUP_STARTS - SETUP_STARTS // 2)
            passes = [plain]
            values, notes = end_to_end(setup, plain)
        checker = Checker(batch, work)
        attempted, failed = checker.count(passes)
    for line in notes:
        print(line)
    for problem in checker.problems[:20]:
        print(f"FAILED {problem}")
    print(f"failed_frac {failed / attempted:.4g} frac ({failed} of {attempted} requests)")
    for name, value in values.items():
        print(f"{name} {value:.6g} {unit_of(name)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0, help="how long to repeat the batch")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
