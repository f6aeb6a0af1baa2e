"""Partition posets with block sizes 1 mod k, complexes of k-trees, and an
exact computational verification that the order complex of the former
subdivides the latter."""

from ._kernels import count_partitions_modk
from .complexes import SimplicialComplex
from .errors import (
    CycleDetected,
    FaceNotPresent,
    KTreeSubError,
    NoLowerBound,
    NotComparable,
    NotLinearExtension,
    NotNested,
    NotUnique,
    NoUpperBound,
    ResourceLimit,
)
from .partitions import (
    Partition,
    PartitionPoset,
    enumerate_partitions,
    factors_I,
    g_set,
    join_all,
    parse_partition,
)
from .poset import Poset, poset_to_json, product
from .subdivision import (
    BlowupResult,
    CarrierMap,
    SigmaLattice,
    SubdivisionReport,
    blowup_sequence,
    carrier_map_from_parts,
    check_equivariance,
    global_carrier_map,
    is_building_set,
    nested_set_complex,
    run_blowup,
    sigma_lattice,
    verify_carrier_map,
    verify_theorem,
)
from .trees import (
    KTree,
    contract,
    enumerate_ktree_complex,
    is_k_nested,
    nested_to_tree,
    star_tree,
    tree_to_nested,
)

__version__ = "0.1.0"

__all__ = [
    "BlowupResult",
    "CarrierMap",
    "CycleDetected",
    "FaceNotPresent",
    "KTree",
    "KTreeSubError",
    "NoLowerBound",
    "NotComparable",
    "NotLinearExtension",
    "NotNested",
    "NotUnique",
    "NoUpperBound",
    "Partition",
    "PartitionPoset",
    "Poset",
    "ResourceLimit",
    "SigmaLattice",
    "SimplicialComplex",
    "SubdivisionReport",
    "blowup_sequence",
    "carrier_map_from_parts",
    "check_equivariance",
    "contract",
    "count_partitions_modk",
    "enumerate_ktree_complex",
    "enumerate_partitions",
    "factors_I",
    "g_set",
    "global_carrier_map",
    "is_building_set",
    "is_k_nested",
    "join_all",
    "nested_set_complex",
    "nested_to_tree",
    "parse_partition",
    "poset_to_json",
    "product",
    "run_blowup",
    "sigma_lattice",
    "star_tree",
    "tree_to_nested",
    "verify_carrier_map",
    "verify_theorem",
]
