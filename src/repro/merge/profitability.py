"""Profitability model for committed merges.

A merge is profitable when the merged function plus the redirection
machinery (rewritten call sites, thunks for address-taken or external
functions) is smaller than the two original functions.  This mirrors HyFM's
post-codegen size check; F3M changes *which pairs reach this point*, not the
decision itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..alignment.batch import BatchAlignmentEngine
from ..alignment.model import FunctionAlignment
from ..analysis.size import _FUNCTION_OVERHEAD, function_size
from ..ir.function import Function
from .layout import BlockLayout
from .merger import MergeResult

__all__ = ["ProfitabilityModel", "MergeBenefit", "ProfitabilityBound"]

# Modelled byte costs of the redirection machinery.
_THUNK_BASE = 12 + 5 + 1  # function overhead + call + ret
_CALLSITE_EXTRA = 1  # passing the extra function-id argument


@dataclass
class MergeBenefit:
    original_size: int
    merged_size: int
    overhead: int

    @property
    def saving(self) -> int:
        return self.original_size - self.merged_size - self.overhead

    @property
    def profitable(self) -> bool:
        return self.saving > 0


class ProfitabilityModel:
    """Size-based accept/reject decision for a completed merge."""

    def _redirection_cost(self, func: Function) -> int:
        callers = len(func.callers())
        cost = callers * _CALLSITE_EXTRA
        if func.address_taken or not func.internal:
            cost += _THUNK_BASE + len(func.args)  # arg forwarding
        return cost

    def evaluate(self, result: MergeResult) -> MergeBenefit:
        original = function_size(result.function_a) + function_size(result.function_b)
        merged = function_size(result.merged)
        overhead = self._redirection_cost(result.function_a) + self._redirection_cost(
            result.function_b
        )
        return MergeBenefit(original, merged, overhead)


class ProfitabilityBound:
    """Sound pre-alignment bound on what merging a pair can achieve.

    The merged function emits every *reachable body* instruction of both
    originals (shared pairs once, split and unmatched-block instructions
    separately), and a shared pair requires ``mergeable``.  Mergeability
    is an equivalence relation, so each body instruction carries a dense
    *mergeability-class code* (the alignment interner's encoding — a
    refinement of its opcode, since mergeable instructions always share
    an opcode).  The multiset intersection of the two functions' code
    frequencies therefore bounds the alignment from above on both axes:

    * ``Σ_code min(cA, cB)`` bounds the number of shared instruction
      pairs any alignment can produce.  When it is zero, alignment is
      guaranteed to match nothing and the pipeline would discard the
      pair — alignment and codegen can be skipped outright.
    * Since the size model prices instructions purely by opcode, every
      instruction with a given code has one weight, and the merged body
      weighs at least ``Σ_code max(cA, cB) · w(code)``; phis,
      terminators and the dispatch machinery the merger adds only
      increase it further.  So

          saving ≤ size(A) + size(B) − overhead − redirection(A)
                   − redirection(B) − Σ_code max(cA, cB)·w(code)

      and a pair whose bound is ≤ 0 can never clear the profitability
      check (``saving > 0``).

    Once the pair is aligned, :meth:`after_alignment` prices the merged
    function the alignment fixes, plus the stack demotion SSA repair
    must add to it, and bounds the saving again, so a pair that cannot
    pay skips codegen too.

    Neither rejection can drop a pair the full pipeline would have
    merged.  Each function's code counts, code weights, body weight and
    size are read from the alignment engine's memoized function entry
    (:meth:`~repro.alignment.batch.BatchAlignmentEngine.function_entry`),
    so the bound and the aligner encode a function once and share one
    mergeability-code space; invalidating a function in the engine
    invalidates it here.  Redirection costs depend on the *current*
    caller sets, so they are recomputed on every query.
    """

    def __init__(
        self,
        model: Optional[ProfitabilityModel] = None,
        engine: Optional[BatchAlignmentEngine] = None,
    ) -> None:
        self.model = model if model is not None else ProfitabilityModel()
        self.engine = engine if engine is not None else BatchAlignmentEngine()

    def query(self, func_a: Function, func_b: Function) -> Tuple[int, int]:
        """(upper bound on saving, upper bound on shared instruction pairs)."""
        pa = self.engine.function_entry(func_a).profile()
        pb = self.engine.function_entry(func_b).profile()
        small, large = (
            (pa, pb) if len(pa.code_counts) <= len(pb.code_counts) else (pb, pa)
        )
        shared_pairs = 0
        shared_weight = 0
        for code, count in small.code_counts.items():
            other = large.code_counts.get(code)
            if other:
                common = count if count < other else other
                shared_pairs += common
                shared_weight += common * small.code_weights[code]
        merged_floor = (
            _FUNCTION_OVERHEAD + pa.body_weight + pb.body_weight - shared_weight
        )
        overhead = self.model._redirection_cost(func_a) + self.model._redirection_cost(
            func_b
        )
        return pa.total_size + pb.total_size - merged_floor - overhead, shared_pairs

    def after_alignment(
        self, alignment: FunctionAlignment, layout: Optional[BlockLayout] = None
    ) -> int:
        """Upper bound on the saving of merging an aligned pair.

        The alignment fixes the merged function's blocks
        (:class:`~repro.merge.layout.BlockLayout`), and with them all the
        merger emits: the function overhead and the dispatch branch; each
        shared pair once; every split-segment instruction, with the
        segment's guard branch and one join branch per non-empty side;
        each block pair's terminator, once when shared, else both with a
        guard branch; every instruction of the unmatched blocks; and a
        ``select`` for each operand slot of a shared pair whose two
        operands resolve to different merged values.  SSA repair then
        demotes, at least, every value whose use its definition does not
        dominate on the layout's block graph: an alloca and a store per
        value and a load per such use.  Later repair rounds and any
        further loads only add to this, so

            saving ≤ size(A) + size(B) − floor − redirection(A) − redirection(B)

        *layout* is the alignment's :class:`BlockLayout` when the caller
        has built it (pricing does not change it, so the merger can reuse
        it); otherwise one is built here.
        """
        func_a: Function = alignment.function_a  # type: ignore[assignment]
        func_b: Function = alignment.function_b  # type: ignore[assignment]
        if layout is None:
            layout = BlockLayout(alignment)
        merged, demotion = layout.price()
        overhead = self.model._redirection_cost(func_a) + self.model._redirection_cost(
            func_b
        )
        entry = self.engine.function_entry
        original = entry(func_a).profile().total_size + entry(func_b).profile().total_size
        return original - merged - demotion - overhead
