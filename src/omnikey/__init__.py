"""Coded cooperative data exchange: broadcast optima, secret keys, protocols."""

from .errors import (
    InfeasibleError,
    InputFormatError,
    SizeGuardError,
    SynthesisExhaustedError,
)
from .fields import Field, field_from_order, make_field
from .network import (
    Hypergraph,
    MessageFamily,
    make_cyclic15,
    make_gap,
    make_pin,
    network_to_json,
    parse_network,
    restrict,
    to_hypergraph,
)
from .omniscience import (
    OmniscienceResult,
    allocation_feasible,
    broadcasts_at_most,
    demand,
    min_broadcasts,
    separate,
)
from .connectivity import (
    InducedMultigraph,
    PartitionCheck,
    extract_tree_packing,
    induce_by_order,
    is_inherently_connected,
    is_partition_connected,
    iter_partitions,
    partition_bound_holds,
    tree_packing_number,
)
from .secrecy import (
    KeyCostEntry,
    SecrecyReport,
    SetCoverInstance,
    build_report,
    is_critical,
    linear_secrecy_cost,
    max_keys,
    min_key_support,
    minimum_cover,
    parse_set_cover,
    reduce_set_cover,
    sk_feasible,
)
from .protocols import (
    LinearProtocol,
    algebraic_issues,
    check_omniscience,
    check_secret_key,
    compute_key,
    decode_messages,
    evaluate_rows,
    protocol_from_json,
    protocol_to_json,
    split_gap_protocol,
    synth_chain,
    synth_omniscience,
    synth_sk,
)

__version__ = "0.1.0"

# The exhaustive oracle loads numpy, so its names are imported on first use
# (PEP 562) and `import omnikey` stays numpy-free.
_ORACLE_NAMES = ("JointHistogram", "VerifyReport", "mutual_information_exact", "verify_exhaustive")


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "InfeasibleError",
    "InputFormatError",
    "SizeGuardError",
    "SynthesisExhaustedError",
    "Field",
    "field_from_order",
    "make_field",
    "Hypergraph",
    "MessageFamily",
    "make_cyclic15",
    "make_gap",
    "make_pin",
    "network_to_json",
    "parse_network",
    "restrict",
    "to_hypergraph",
    "OmniscienceResult",
    "allocation_feasible",
    "broadcasts_at_most",
    "demand",
    "min_broadcasts",
    "separate",
    "InducedMultigraph",
    "PartitionCheck",
    "extract_tree_packing",
    "induce_by_order",
    "is_inherently_connected",
    "is_partition_connected",
    "iter_partitions",
    "partition_bound_holds",
    "tree_packing_number",
    "KeyCostEntry",
    "SecrecyReport",
    "SetCoverInstance",
    "build_report",
    "is_critical",
    "linear_secrecy_cost",
    "max_keys",
    "min_key_support",
    "minimum_cover",
    "parse_set_cover",
    "reduce_set_cover",
    "sk_feasible",
    "LinearProtocol",
    "algebraic_issues",
    "check_omniscience",
    "check_secret_key",
    "compute_key",
    "decode_messages",
    "evaluate_rows",
    "protocol_from_json",
    "protocol_to_json",
    "split_gap_protocol",
    "synth_chain",
    "synth_omniscience",
    "synth_sk",
    "JointHistogram",
    "VerifyReport",
    "mutual_information_exact",
    "verify_exhaustive",
]
