"""Seeded request batches for the four benchmark workloads.

A batch is a list of CLI requests plus the input files they read.  The
seed fixes every input: the same seed gives byte-identical files and
argument lists.  Nothing here imports the program, so the program only
ever sees the generated inputs.

The sizes below come from the generator survey recorded in NOTES.md.
They avoid the sizes where the covering search runs away on a few
percent of random families (NOTES.md, "Generator survey and the heavy
tail").
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("omni", "keytable", "witness", "protocols")

# Random families are drawn at one (clients, messages) size per workload,
# many per batch: the survey in NOTES.md shows a per-family time spread
# (coefficient of variation 0.5 to 1) that only a large batch averages
# out across seeds.  Each batch takes 10 to 20 s on a 2-vCPU Xeon VM.
# The first TRACE_COUNT requests form the traced run's batch.

# analyze --tau 1: 2^n union tables, cut loop and tight-set output.
OMNI_SIZE, OMNI_COUNT = (16, 6), 400

# analyze --all-tau on presets and on few-client families with many
# messages, plus set-cover instances solved through the support search.
KEYTABLE_PRESETS = ("cyclic15", "gap:6", "pin:7")
COVER_SIZE, COVER_COUNT = (20, 30, 0.15), 2
KEYTABLE_SIZE, KEYTABLE_COUNT = (6, 16), 1200

# analyze --tau 1 --witness: Bell(n) partitions plus tree packing, mostly
# on n = 8 families (so the median request is steady) with n = 9 and
# n = 10 in every round.  pin:9 is left out: two min_broadcasts calls take
# most of its time, so omniscience rather than connectivity would
# dominate the batch (NOTES.md).
WITNESS_SIZES = (((10, 16),) + ((9, 16),) * 2 + ((8, 16),) * 25) * 2

# protocol ... -o f, then verify --protocol f: (name, family args,
# protocol args).  The family args are shared by both requests.  These
# inputs are the same for every seed: a synthesis seed moves the field
# the ladder settles on (GF(3) to GF(5) for pin:5, tau 2) and with it the
# verified state space tenfold, so the cost would follow the seed rather
# than the program (NOTES.md).
PROTOCOL_CASES = (
    ("gap6-split", ("--gap", "6"), ()),
    ("gap8-split", ("--gap", "8"), ()),
    ("pin4-gf11", ("--preset", "pin:4"), ("--kind", "omniscience", "--field", "11")),
    ("pin5-sk2", ("--preset", "pin:5"), ("--kind", "secret-key", "--tau", "2")),
    ("cyclic15-sk2", ("--preset", "cyclic15"), ("--kind", "secret-key", "--tau", "2")),
    ("gap6-sk1", ("--preset", "gap:6"), ("--kind", "secret-key", "--tau", "1")),
)

TRACE_COUNT = {"omni": 70, "keytable": 150, "witness": 14, "protocols": len(PROTOCOL_CASES) * 2}


@dataclass(frozen=True)
class Request:
    """One CLI call.  `family` names the family an answer is about: an
    input file name or a preset spec such as "pin:9"."""

    id: str
    argv: tuple[str, ...]
    family: str | None = None
    tau: int | None = None


@dataclass
class Batch:
    workload: str
    seed: int
    requests: list[Request] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)

    @property
    def traced(self) -> list[Request]:
        """The shorter batch the traced run sends."""
        return self.requests[: TRACE_COUNT[self.workload]]


def random_family(rng: random.Random, n: int, m: int) -> list[list[int]]:
    """Holdings (1-based message lists) where every message has a holder.

    Same draws as the density-0.6 generator in tests/conftest.py."""
    while True:
        masks = [0] * n
        for msg in range(m):
            holders = rng.sample(range(n), rng.randint(1, n))
            for j in holders:
                if rng.random() < 0.6:
                    masks[j] |= 1 << msg
        for msg in range(m):
            if not any(masks[j] >> msg & 1 for j in range(n)):
                masks[rng.randrange(n)] |= 1 << msg
        if any(masks):
            return [[msg + 1 for msg in range(m) if masks[j] >> msg & 1] for j in range(n)]


def random_cover(rng: random.Random, universe: int, sets: int, density: float) -> dict:
    """Set cover instance over 1..universe where every element is covered."""
    members = [[e for e in range(1, universe + 1) if rng.random() < density] for _ in range(sets)]
    for e in range(1, universe + 1):
        if not any(e in s for s in members):
            members[rng.randrange(sets)].append(e)
    return {"universe": list(range(1, universe + 1)), "sets": [sorted(s) for s in members]}


def network_text(n: int, m: int, holdings: list[list[int]]) -> str:
    return json.dumps({"clients": n, "messages": m, "holdings": holdings}, indent=2) + "\n"


def _add_family(batch: Batch, rng: random.Random, name: str, n: int, m: int) -> str:
    path = f"{name}.json"
    batch.files[path] = network_text(n, m, random_family(rng, n, m))
    return path


def build(workload: str, seed: int) -> Batch:
    """The request batch of one workload for one seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"omnikey-bench:{workload}:{seed}")
    batch = Batch(workload, seed)
    add = batch.requests.append
    if workload == "omni":
        n, m = OMNI_SIZE
        for i in range(OMNI_COUNT):
            path = _add_family(batch, rng, f"omni{i:03d}-n{n}-m{m}", n, m)
            add(Request(path[:-5], ("analyze", "--input", path, "--tau", "1", "--json"), path, 1))
    elif workload == "keytable":
        for preset in KEYTABLE_PRESETS:
            add(Request(f"table-{preset}", ("analyze", "--preset", preset, "--all-tau", "--json"), preset))
        u, s, d = COVER_SIZE
        for i in range(COVER_COUNT):
            path = f"cover{i:02d}-u{u}-s{s}.json"
            batch.files[path] = json.dumps(random_cover(rng, u, s, d)) + "\n"
            add(Request(path[:-5], ("reduce", "--input", path, "--solve", "--json"), path))
        n, m = KEYTABLE_SIZE
        for i in range(KEYTABLE_COUNT):
            path = _add_family(batch, rng, f"table{i:03d}-n{n}-m{m}", n, m)
            add(Request(path[:-5], ("analyze", "--input", path, "--all-tau", "--json"), path))
    elif workload == "witness":
        for i, (n, m) in enumerate(WITNESS_SIZES):
            path = _add_family(batch, rng, f"witness{i:02d}-n{n}-m{m}", n, m)
            add(Request(path[:-5], ("analyze", "--input", path, "--tau", "1", "--witness", "--json"), path, 1))
    else:
        for name, fam_args, proto_args in PROTOCOL_CASES:
            out = f"{name}.protocol.json"
            family = fam_args[1] if fam_args[0] == "--preset" else f"gap:{fam_args[1]}"
            add(Request(f"protocol-{name}", ("protocol", *fam_args, *proto_args, "-o", out), family))
            add(Request(f"verify-{name}", ("verify", "--protocol", out, *fam_args, "--json"), family))
    return batch
