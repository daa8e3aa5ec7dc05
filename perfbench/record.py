"""Record the default seed's answers into expected/.

    python3 perfbench/record.py [WORKLOAD ...]

Run from the root of a checkout.  Every answer is first checked by
certificate (see answers.py); nothing is written if one fails.  Record
again only when an answer is meant to change.
"""

from __future__ import annotations

import json
import sys
import time

import run
import workloads
from answers import Certifier, exact_part, expected_path


def record(workload: str, env: dict) -> None:
    batch = workloads.build(workload, run.DEFAULT_SEED)
    with run.workdir(batch) as work:
        result = run.run_worker(batch.requests, "plain", 0, env, work, time.monotonic() + run.RUN_LIMIT_S)
        certifier = Certifier(work)
        requests = {r.id: r for r in batch.requests}
        answers = {}
        for r in result["reps"][0]["results"]:
            problem = r["status"] if r["status"] != "ok" else certifier.check(requests[r["id"]], r["answer"])
            if problem is not None:
                raise run.BenchError(f"{workload} {r['id']}: {problem}; nothing recorded")
            part = exact_part(requests[r["id"]], r["answer"])
            if part is not None:
                answers[r["id"]] = part
    path = expected_path(workload)
    path.parent.mkdir(exist_ok=True)
    lines = (f"{json.dumps(k)}: {json.dumps(v, sort_keys=True, separators=(',', ':'))}" for k, v in answers.items())
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")  # one answer per line
    print(f"{workload}: {len(answers)} answers -> {path}")


def main(argv) -> int:
    env = run.program_env()
    try:
        for workload in argv or workloads.WORKLOADS:
            record(workload, env)
    except run.BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
