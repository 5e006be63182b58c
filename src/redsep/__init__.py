"""Finite models for set operations indexed by sequence trees.

The engine works over explicit finite topological spaces.  Subsets are
bitmasks, classes of subsets are extensional, and every advertised law is
checkable by enumeration: evaluation of tree-indexed operations and their
duals, fibers and algebras of point maps, diagonal products, reduction and
separation of classes, and constructive transfer of those properties along
maps.  The suites module quantifies the laws over a bounded catalog and
stores replayable counterexamples where a hypothesis is deliberately
dropped.  The catalog and suites names load on first access, so importing
the package, or running an instance subcommand, does not load them.
"""

from .classes import (
    REDUCTION,
    SEPARATION,
    CheckResult,
    LadderLevel,
    SetClass,
    borel_ladder,
    check_reduction,
    check_separation,
    complement_class,
    generate_class,
    reduction_to_separation,
)
from .errors import EngineError, InputError, ModeError, PreconditionError, ResourceError
from .hausdorff import (
    MODES,
    PREFIX,
    RANGE,
    Base,
    IndexedFamily,
    canonical_base,
    decreasing_replacement,
    dual_eval,
    dual_evaluate,
    evaluate,
)
from .maps import (
    DirectedImageReport,
    PointMap,
    alg_contains,
    alg_enumerate,
    diagonal_product,
    directed_image_check,
)
from .masks import SubsetMask
from .serialize import canonical_json
from .spaces import (
    FinSpace,
    ProductCodec,
    closed_sets,
    components,
    generate_topology,
    open_sets,
    product,
    zero_sets,
)
from .transfer import (
    GapReport,
    HypothesisReport,
    PairTrace,
    TransferReport,
    ZeroWitnessReport,
    transfer_property,
    zero_trace_gap,
    zero_witness_map,
)

__version__ = "0.1.0"

# name -> the submodule that defines it, imported on first access (PEP 562)
_LAZY = {
    **dict.fromkeys(("all_bases", "all_sequences", "all_tables", "all_topologies"), "catalog"),
    **dict.fromkeys(
        ("Bounds", "SuiteResult", "replay_finding", "run_suite", "suite_defaults", "suite_names"), "suites"
    ),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)


__all__ = [
    "Base",
    "Bounds",
    "CheckResult",
    "DirectedImageReport",
    "EngineError",
    "FinSpace",
    "GapReport",
    "HypothesisReport",
    "IndexedFamily",
    "InputError",
    "LadderLevel",
    "MODES",
    "ModeError",
    "PREFIX",
    "PairTrace",
    "PointMap",
    "PreconditionError",
    "ProductCodec",
    "RANGE",
    "REDUCTION",
    "ResourceError",
    "SEPARATION",
    "SetClass",
    "SubsetMask",
    "SuiteResult",
    "TransferReport",
    "ZeroWitnessReport",
    "alg_contains",
    "alg_enumerate",
    "all_bases",
    "all_sequences",
    "all_tables",
    "all_topologies",
    "borel_ladder",
    "canonical_base",
    "canonical_json",
    "check_reduction",
    "check_separation",
    "closed_sets",
    "complement_class",
    "components",
    "decreasing_replacement",
    "diagonal_product",
    "directed_image_check",
    "dual_eval",
    "dual_evaluate",
    "evaluate",
    "generate_class",
    "generate_topology",
    "open_sets",
    "product",
    "reduction_to_separation",
    "replay_finding",
    "run_suite",
    "suite_defaults",
    "suite_names",
    "transfer_property",
    "zero_sets",
    "zero_trace_gap",
    "zero_witness_map",
]
