"""Answer checks that do not depend on timing.

For the default seed every answer is compared exactly with the answers
recorded in expected/ from the commit that defined the benchmark.  For
any other seed each answer is checked against a certificate that needs
no stored answer:

- analyze: the allocation sums to the total and `allocation_feasible`
  holds; max_keys is m minus the total; every finite cost row's support
  satisfies `sk_feasible` on `restrict` and costs its size minus the key
  count; the rows are the ones the request asked for.
- reduce --solve: the cover covers the universe.
- verify: the report says ok.
- protocol: the request exited 0 (its verify request checks the file).
"""

from __future__ import annotations

import json
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# Fields compared exactly against the recorded answers.
EXACT_FIELDS = {
    "analyze": ("clients", "messages", "min_broadcasts", "allocation", "max_keys", "table", "tight_sets"),
    "reduce": ("cover", "size"),
    "verify": ("ok", "mode", "states"),
}


def expected_path(workload: str) -> Path:
    return EXPECTED_DIR / f"{workload}.json"


def load_expected(workload: str, seed: int, default_seed: int) -> dict | None:
    """Recorded answers, or None when this seed has none."""
    path = expected_path(workload)
    if seed != default_seed or not path.is_file():
        return None
    return json.loads(path.read_text())


def exact_part(request, answer):
    """The fields of an answer that are recorded and compared exactly."""
    command = request.argv[0]
    if command == "protocol" or not isinstance(answer, dict):
        return None
    part = {key: answer.get(key) for key in EXACT_FIELDS[command] if key in answer}
    if "connectivity" in answer:
        part["tree_packing_number"] = answer["connectivity"].get("tree_packing_number")
    return part


def compare_exact(request, answer, recorded) -> str | None:
    """Problem with `answer` against the recorded one, or None."""
    got = exact_part(request, answer)
    if got == recorded:
        return None
    if not isinstance(got, dict) or not isinstance(recorded, dict):
        return "missing answer"
    differ = [key for key in sorted(set(got) | set(recorded)) if got.get(key) != recorded.get(key)]
    return f"{', '.join(differ)} differ from the recorded answer"


def load_family(spec: str, workdir: Path):
    """The family a request is about: an input file in `workdir` or a
    preset spec such as "pin:9".  Needs the program importable."""
    import omnikey as ok

    if spec.endswith(".json"):
        return ok.parse_network((Path(workdir) / spec).read_text())
    kind, _, size = spec.partition(":")
    if kind == "cyclic15":
        return ok.make_cyclic15()
    return {"pin": ok.make_pin, "gap": ok.make_gap}[kind](int(size))


class Certifier:
    """Certificate checks; needs the program importable as `omnikey`.
    `workdir` holds the batch's input files."""

    def __init__(self, workdir: Path):
        import omnikey

        self.ok = omnikey
        self.workdir = Path(workdir)

    def check(self, request, answer) -> str | None:
        command = request.argv[0]
        if command == "protocol":
            return None
        if not isinstance(answer, dict):
            return "missing answer"
        if command == "verify":
            return None if answer.get("ok") is True else "verify did not report ok"
        if command == "reduce":
            return self._check_cover(request, answer)
        return self._check_analyze(request, answer)

    def _check_cover(self, request, answer) -> str | None:
        data = json.loads((self.workdir / request.family).read_text())
        sets = data["sets"]
        cover = answer.get("cover")
        if not isinstance(cover, list) or answer.get("size") != len(cover):
            return "cover size does not match the cover"
        if not all(isinstance(i, int) and 1 <= i <= len(sets) for i in cover):
            return "cover names a set that does not exist"
        covered = set()
        for i in cover:
            covered.update(sets[i - 1])
        if covered != set(data["universe"]):
            return "cover misses part of the universe"
        return None

    def _check_analyze(self, request, answer) -> str | None:
        ok = self.ok
        fam = load_family(request.family, self.workdir)
        if (answer.get("clients"), answer.get("messages")) != (fam.n, fam.m):
            return "client or message count is wrong"
        total = answer.get("min_broadcasts")
        alloc = answer.get("allocation")
        if not isinstance(alloc, list) or len(alloc) != fam.n or sum(alloc) != total:
            return "allocation does not sum to the total"
        if not ok.allocation_feasible(fam, alloc):
            return "allocation is infeasible"
        max_keys = answer.get("max_keys")
        if max_keys != fam.m - total:
            return "max_keys is not m minus the total"
        table = answer.get("table")
        if request.tau is not None:
            want = [request.tau]
        else:
            want = list(range(1, max_keys + 2))
        if not isinstance(table, list) or [row.get("keys") for row in table] != want:
            return "table rows are not the requested key counts"
        for row in table:
            keys, cost, support = row["keys"], row["cost"], row["support"]
            if keys > max_keys:
                if cost is not None or support is not None:
                    return f"row {keys} is beyond max_keys but has a support"
                continue
            if support is None or cost != len(support) - keys:
                return f"row {keys} cost is not its support size minus the key count"
            if not ok.sk_feasible(ok.restrict(fam, support), keys):
                return f"row {keys} support does not yield {keys} keys"
        return None
