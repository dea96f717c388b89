"""Function merging: codegen, SSA repair, profitability, and the pass."""

from .errors import CommitError, MergeError
from .identical import IdenticalMergeReport, merge_identical_functions, structural_hash
from .merger import MergeOptions, MergeResult, merge_functions
from .partitioned import (
    PartitionedMergeReport,
    partition_functions,
    partitioned_merging,
)
from .pass_ import FunctionMergingPass, PassConfig
from .reconcile import ReconcileReport, RetainingTransaction
from .pgo import HotnessFilter, ProfileGuidedPass, profile_module
from .profitability import MergeBenefit, ProfitabilityBound, ProfitabilityModel
from .report import AttemptRecord, MergeReport, Outcome
from .ssa_repair import find_dominance_violations, repair_ssa
from .thunks import commit_merge, make_thunk, rewrite_call_sites
from .transaction import MergeTransaction

__all__ = [
    "CommitError",
    "MergeError",
    "MergeTransaction",
    "Outcome",
    "IdenticalMergeReport",
    "merge_identical_functions",
    "structural_hash",
    "HotnessFilter",
    "PartitionedMergeReport",
    "ReconcileReport",
    "RetainingTransaction",
    "partition_functions",
    "partitioned_merging",
    "ProfileGuidedPass",
    "profile_module",
    "MergeOptions",
    "MergeResult",
    "merge_functions",
    "FunctionMergingPass",
    "PassConfig",
    "MergeBenefit",
    "ProfitabilityBound",
    "ProfitabilityModel",
    "AttemptRecord",
    "MergeReport",
    "find_dominance_violations",
    "repair_ssa",
    "commit_merge",
    "make_thunk",
    "rewrite_call_sites",
]
