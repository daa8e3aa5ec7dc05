"""Command line front end.

Subcommands: analyze (broadcast optimum and key cost table), protocol
(synthesize and save a protocol), verify (check a saved protocol against
a family), example (emit a built-in family), reduce (embed a set cover
instance).  Exit codes: 0 success, 1 infeasible or verification failed,
2 bad input, 3 size guard, 4 synthesis gave up, 5 internal error.
"""

from __future__ import annotations

import argparse
import sys
import time

# Each subcommand imports the modules it runs, so a start loads (and, with
# no bytecode cache, compiles) only those.
from .errors import (
    InfeasibleError,
    InputFormatError,
    SizeGuardError,
    SynthesisExhaustedError,
)

__all__ = ["main"]


def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputFormatError(f"cannot write {path}: {exc}") from exc


def _preset(name: str) -> MessageFamily:
    from .network import make_cyclic15, make_gap, make_pin

    if name in ("cyclic15", "table1"):
        return make_cyclic15()
    if name.startswith("pin:"):
        return make_pin(_int_arg(name[4:], "pin preset size"))
    if name.startswith("gap:"):
        return make_gap(_int_arg(name[4:], "gap preset size"))
    raise InputFormatError(
        f"unknown preset {name!r}; try cyclic15, table1, pin:N or gap:M"
    )


def _int_arg(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise InputFormatError(f"{what} must be an integer, got {text!r}") from exc


def _load_family(args) -> MessageFamily:
    from .network import make_gap, parse_network

    if getattr(args, "gap", None) is not None:
        return make_gap(args.gap)
    if getattr(args, "input", None):
        return parse_network(_read_text(args.input))
    if getattr(args, "preset", None):
        return _preset(args.preset)
    raise InputFormatError("provide --input, --preset or --gap")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _witness_payload(fam: MessageFamily) -> dict:
    from .connectivity import (
        PARTITION_GUARD_N,
        extract_tree_packing,
        induce_by_order,
        partition_bound_holds,
        tree_packing_number,
    )
    from .network import to_hypergraph

    hg = to_hypergraph(fam)
    graph = induce_by_order(hg, list(range(1, fam.n + 1)))
    packing = tree_packing_number(graph)
    payload: dict = {
        "induced_edges": [list(e) for e in graph.edges],
        "tree_packing_number": packing,
    }
    if fam.n > 1 and packing:
        payload["tree_packing"] = extract_tree_packing(graph, packing)
    if fam.n <= PARTITION_GUARD_N:
        holds, check = partition_bound_holds(hg, packing + 1)
        if not holds:
            payload["violating_partition"] = {
                "tau": packing + 1,
                "blocks": [sorted(b) for b in check.partition],
                "crossing": check.crossing,
                "required": check.required,
            }
    return payload


def cmd_analyze(args) -> int:
    import json

    from .omniscience import _first_tight_sets
    from .secrecy import build_report

    fam = _load_family(args)
    started = time.perf_counter()
    if args.tau is not None and args.all_tau:
        raise InputFormatError("--tau and --all-tau are mutually exclusive")
    report = build_report(fam, args.tau)
    table = [
        {"keys": e.tau, "cost": e.cost, "support": list(e.support)}
        for e in report.entries
    ]
    if args.all_tau or (args.tau is not None and not table):
        unreached = report.max_keys + 1 if args.tau is None else args.tau
        table.append({"keys": unreached, "cost": None, "support": None})
    data = {
        "clients": report.n,
        "messages": report.m,
        "min_broadcasts": report.min_broadcasts,
        "allocation": list(report.allocation),
        "max_keys": report.max_keys,
        "table": table,
    }
    if args.witness:
        data["tight_sets"] = [sorted(s) for s in _first_tight_sets(fam, report.allocation, 10)]
        data["connectivity"] = _witness_payload(fam)
    seconds = time.perf_counter() - started
    if args.json:
        data["seconds"] = round(seconds, 3)
        print(json.dumps(data, indent=2))
        return 0
    print(f"clients: {data['clients']}  messages: {data['messages']}")
    print(f"minimum broadcasts: {data['min_broadcasts']}")
    print("allocation:", " ".join(str(a) for a in data["allocation"]))
    print(f"max keys: {data['max_keys']}")
    if data["table"]:
        print(f"{'keys':>5} {'cost':>5}  support")
        for row in data["table"]:
            cost = "inf" if row["cost"] is None else row["cost"]
            sup = "-" if row["support"] is None else " ".join(map(str, row["support"]))
            print(f"{row['keys']:>5} {cost:>5}  {sup}")
    if args.witness:
        conn = data["connectivity"]
        print(f"tree packing number: {conn['tree_packing_number']}")
        if "violating_partition" in conn:
            v = conn["violating_partition"]
            blocks = " | ".join(" ".join(map(str, b)) for b in v["blocks"])
            print(
                f"partition blocking tau={v['tau']}: {blocks}"
                f" (crossing {v['crossing']} < {v['required']})"
            )
    print(f"completed in {seconds:.2f}s", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# protocol / verify
# ---------------------------------------------------------------------------


def cmd_protocol(args) -> int:
    from .protocols import (
        protocol_to_json,
        split_gap_protocol,
        synth_chain,
        synth_omniscience,
        synth_sk,
    )

    started = time.perf_counter()
    kind = "chain" if args.chain else args.kind
    if args.gap is not None:
        if args.field is not None:
            raise InputFormatError("the split construction chooses its own field")
        proto = split_gap_protocol(args.gap)
    else:
        fam = _load_family(args)
        if kind == "omniscience":
            proto = synth_omniscience(fam, args.seed, field=args.field)
        elif kind == "secret-key":
            proto = synth_sk(fam, args.tau, args.seed, field=args.field)
        else:
            if args.field not in (None, 2):
                raise InputFormatError("the chain construction is fixed over GF(2)")
            proto = synth_chain(fam)
    _write_text(args.output, protocol_to_json(proto))
    seconds = time.perf_counter() - started
    print(f"completed in {seconds:.2f}s", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    import json

    from .protocols import protocol_from_json

    proto = protocol_from_json(_read_text(args.protocol))
    fam = _load_family(args)
    # the oracle loads numpy: imported once both inputs have parsed
    from .oracle import verify_exhaustive

    started = time.perf_counter()
    report = verify_exhaustive(proto, fam)
    seconds = time.perf_counter() - started
    if args.json:
        data = {
            "ok": report.ok,
            "kind": report.kind,
            "mode": report.mode,
            "states": report.states,
            "checks": list(report.checks),
            "failures": list(report.failures),
            "counterexamples": [dict(c) for c in report.counterexamples],
            "mutual_information": report.mutual_information,
            "seconds": round(seconds, 3),
        }
        print(json.dumps(data, indent=2))
        return 0 if report.ok else 1
    for line in report.checks:
        print(f"ok: {line}")
    for line in report.failures:
        print(f"FAIL: {line}")
    if report.mutual_information is not None:
        print(f"mutual information: {report.mutual_information} bits")
    print(f"states: {report.states} ({report.mode} mode)")
    print("verified" if report.ok else "verification failed")
    print(f"completed in {seconds:.2f}s", file=sys.stderr)
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# example / reduce
# ---------------------------------------------------------------------------


def cmd_example(args) -> int:
    from .network import network_to_json

    fam = _preset(args.preset)
    _write_text(args.output, network_to_json(fam))
    return 0


def cmd_reduce(args) -> int:
    import json

    from .network import network_to_json
    from .secrecy import minimum_cover, parse_set_cover, reduce_set_cover

    inst = parse_set_cover(_read_text(args.input))
    fam = reduce_set_cover(inst)
    if args.solve:
        cover = minimum_cover(inst)
        if args.json:
            print(json.dumps({"cover": list(cover), "size": len(cover)}, indent=2))
        else:
            print("minimum cover:", " ".join(map(str, cover)))
            print(f"size: {len(cover)}")
        return 0
    _write_text(args.output, network_to_json(fam))
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omnikey",
        description="Minimum broadcasts for omniscience and the secret keys left over.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="broadcast optimum and key cost table")
    pa.add_argument("--input", help="network JSON file")
    pa.add_argument("--preset", help="built-in family: cyclic15, table1, pin:N, gap:M")
    pa.add_argument("--tau", type=int, help="only report this key count")
    pa.add_argument(
        "--all-tau",
        dest="all_tau",
        action="store_true",
        help="append the first out-of-reach key count as an infinite row",
    )
    pa.add_argument("--json", action="store_true", help="machine readable output")
    pa.add_argument("--witness", action="store_true", help="include certificates")
    pa.add_argument(
        "--jobs", type=int, default=1, help="reserved; analysis runs in one process"
    )
    pa.set_defaults(func=cmd_analyze)

    pp = sub.add_parser("protocol", help="synthesize a protocol and write JSON")
    pp.add_argument("--input", help="network JSON file")
    pp.add_argument("--preset", help="built-in family")
    pp.add_argument(
        "--kind",
        choices=["omniscience", "secret-key", "chain"],
        default="omniscience",
    )
    pp.add_argument("--tau", type=int, default=1, help="key count for secret-key")
    pp.add_argument("--field", type=int, help="force this coefficient field order")
    pp.add_argument("--chain", action="store_true", help="shorthand for --kind chain")
    pp.add_argument("--gap", type=int, help="emit the half-rate pair-holder protocol")
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument("--output", "-o", "--out", help="write here instead of stdout")
    pp.set_defaults(func=cmd_protocol)

    pv = sub.add_parser("verify", help="check a protocol file against a family")
    pv.add_argument("--protocol", required=True, help="protocol JSON file")
    pv.add_argument("--input", help="network JSON file")
    pv.add_argument("--preset", help="built-in family")
    pv.add_argument("--gap", type=int, help="verify against the pair-holder family")
    pv.add_argument("--json", action="store_true")
    pv.set_defaults(func=cmd_verify)

    pe = sub.add_parser("example", help="emit a built-in family as JSON")
    pe.add_argument("--preset", required=True)
    pe.add_argument("--output", "-o")
    pe.set_defaults(func=cmd_example)

    pr = sub.add_parser("reduce", help="embed a set cover instance as a family")
    pr.add_argument("--input", required=True, help="set cover JSON file")
    pr.add_argument("--solve", action="store_true", help="solve instead of emitting")
    pr.add_argument("--json", action="store_true")
    pr.add_argument("--output", "-o")
    pr.set_defaults(func=cmd_reduce)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    except SizeGuardError as exc:
        print(f"too large: {exc}", file=sys.stderr)
        return 3
    except SynthesisExhaustedError as exc:
        print(f"synthesis gave up: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
