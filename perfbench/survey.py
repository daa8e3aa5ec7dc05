"""Survey request time of the random-family generator across many seeds.

    python3 perfbench/survey.py --command tau1 --sizes 18x6,18x8 --seeds 100 --cap 10

Run from the root of a checkout.  For each clients x messages size it
draws one family per seed with random.Random(seed), sends one analyze
request in-process and prints the time distribution plus every seed that
failed or ran past the cap.  This is how the workload sizes in
workloads.py were chosen; NOTES.md records the results.
"""

from __future__ import annotations

import argparse
import random
import signal
import statistics
import sys
import tempfile
from pathlib import Path

import workloads
import worker

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = {
    "tau1": ("--tau", "1"),
    "all-tau": ("--all-tau",),
    "witness": ("--tau", "1", "--witness"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--command", choices=sorted(COMMANDS), default="tau1")
    parser.add_argument("--sizes", required=True, help="comma-separated NxM, e.g. 18x6,20x6")
    parser.add_argument("--seeds", type=int, default=100)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--cap", type=float, default=10.0, help="seconds per request")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import omnikey.cli

    signal.signal(signal.SIGALRM, worker._alarm)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        path = Path(tmp) / "family.json"
        for size in args.sizes.split(","):
            n, m = (int(v) for v in size.split("x"))
            times, bad = [], []
            for seed in range(args.first_seed, args.first_seed + args.seeds):
                path.write_text(workloads.network_text(n, m, workloads.random_family(random.Random(seed), n, m)))
                argv = ("analyze", "--input", str(path), *COMMANDS[args.command], "--json")
                status, seconds, _ = worker.send(omnikey.cli.main, argv, args.cap)
                times.append(seconds)
                if status != "ok":
                    bad.append(f"{seed}:{status}")
            times.sort()
            mean = statistics.mean(times)
            print(
                f"{args.command} n={n} m={m} seeds={len(times)} p50={times[len(times) // 2]:.3f}s "
                f"p90={times[int(0.9 * len(times))]:.3f}s max={times[-1]:.3f}s "
                f"cv={statistics.pstdev(times) / mean:.2f} failed={bad or 'none'}",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
