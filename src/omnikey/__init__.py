"""Coded cooperative data exchange: broadcast optima, secret keys, protocols.

`import omnikey` loads no submodule: each public name is imported from its
home module on first use (PEP 562) and then kept in this module's globals,
so a command pays only for the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name's home module, in the order of `__all__`.
_HOME = {
    name: module
    for module, names in (
        ("errors", "InfeasibleError InputFormatError SizeGuardError SynthesisExhaustedError"),
        ("fields", "Field field_from_order make_field"),
        (
            "network",
            "Hypergraph MessageFamily make_cyclic15 make_gap make_pin network_to_json"
            " parse_network restrict to_hypergraph",
        ),
        (
            "omniscience",
            "OmniscienceResult allocation_feasible broadcasts_at_most demand"
            " min_broadcasts separate",
        ),
        (
            "connectivity",
            "InducedMultigraph PartitionCheck extract_tree_packing induce_by_order"
            " is_inherently_connected is_partition_connected iter_partitions"
            " partition_bound_holds tree_packing_number",
        ),
        (
            "secrecy",
            "KeyCostEntry SecrecyReport SetCoverInstance build_report is_critical"
            " linear_secrecy_cost max_keys min_key_support minimum_cover parse_set_cover"
            " reduce_set_cover sk_feasible",
        ),
        (
            "protocols",
            "LinearProtocol algebraic_issues check_omniscience check_secret_key compute_key"
            " decode_messages evaluate_rows protocol_from_json protocol_to_json"
            " split_gap_protocol synth_chain synth_omniscience synth_sk",
        ),
        # the exhaustive oracle loads numpy
        ("oracle", "JointHistogram VerifyReport mutual_information_exact verify_exhaustive"),
    )
    for name in names.split()
}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _HOME.values():
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_HOME.values()})
