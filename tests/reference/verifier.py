"""The verifier's four walks over a function, as they were before the
production verifier folded them into two.

:func:`reference_verify_function` checks each block's shape, its phis
against ``BasicBlock.predecessors()`` (a use-list scan, for every block),
every operand's scope and every return in separate loops, then finds
dominance violations with :func:`~tests.reference.dominance.reference_violations`.
It shares no walk with :mod:`repro.ir.verifier`; only the error type and
the diagnostic fields are the production ones, so a test can demand the
same :class:`~repro.ir.verifier.VerificationError` diagnostics in the same
order.
"""

from __future__ import annotations

from typing import List

from repro.diagnostics import Diagnostic, Severity
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Instruction, Ret
from repro.ir.module import Module
from repro.ir.values import Argument, Constant
from repro.ir.verifier import VerificationError

from .dominance import reference_violations


def _diag(func: Function, message: str, block=None, inst=None) -> Diagnostic:
    return Diagnostic(
        checker="verifier",
        severity=Severity.ERROR,
        message=message,
        function=func.name,
        block=block.name if block is not None else None,
        instruction=(inst.name or None) if inst is not None else None,
    )


def _check_operand_scope(
    func: Function, inst: Instruction, errors: List[Diagnostic]
) -> None:
    block = inst.parent
    for op in inst.operands:
        if isinstance(op, Function):
            # Direct callee / function reference: fine only when the callee
            # lives in the same module (a cross-module reference would
            # dangle after the foreign module is mutated or dropped).
            if func.parent is not None and op.parent is not func.parent:
                errors.append(
                    _diag(
                        func,
                        f"instruction references function @{op.name} "
                        "from another module",
                        block,
                        inst,
                    )
                )
        elif isinstance(op, Constant):
            continue
        elif isinstance(op, Argument):
            if op.parent is not func:
                errors.append(
                    _diag(
                        func,
                        f"instruction uses argument %{op.name} of another function",
                        block,
                        inst,
                    )
                )
        elif isinstance(op, BasicBlock):
            if op.parent is not func:
                errors.append(
                    _diag(
                        func,
                        f"instruction references block %{op.name} of another function",
                        block,
                        inst,
                    )
                )
        elif isinstance(op, Instruction):
            if op.function is not func:
                errors.append(
                    _diag(
                        func,
                        f"instruction uses value %{op.name} defined outside the function",
                        block,
                        inst,
                    )
                )
        else:
            errors.append(
                _diag(func, f"unknown operand kind {type(op).__name__}", block, inst)
            )


def _check_block(func: Function, block: BasicBlock, errors: List[Diagnostic]) -> None:
    if not block.instructions:
        errors.append(_diag(func, f"block %{block.name} is empty", block))
        return
    term = block.instructions[-1]
    if not term.is_terminator:
        errors.append(
            _diag(func, f"block %{block.name} does not end in a terminator", block)
        )
    for inst in block.instructions[:-1]:
        if inst.is_terminator:
            errors.append(
                _diag(
                    func,
                    f"terminator in the middle of block %{block.name}",
                    block,
                    inst,
                )
            )
    seen_non_phi = False
    for inst in block.instructions:
        if inst.parent is not block:
            errors.append(
                _diag(
                    func,
                    f"instruction parent pointer broken in %{block.name}",
                    block,
                    inst,
                )
            )
        if inst.is_phi:
            if seen_non_phi:
                errors.append(
                    _diag(
                        func,
                        f"phi after non-phi instruction in %{block.name}",
                        block,
                        inst,
                    )
                )
        else:
            seen_non_phi = True


def _check_phis(func: Function, block: BasicBlock, errors: List[Diagnostic]) -> None:
    preds = block.predecessors()
    pred_ids = {id(p) for p in preds}
    for phi in block.phis():
        inc_ids = [id(b) for _, b in phi.incoming]
        if len(set(inc_ids)) != len(inc_ids):
            errors.append(
                _diag(
                    func,
                    f"phi %{phi.name} has duplicate incoming blocks",
                    block,
                    phi,
                )
            )
        if set(inc_ids) != pred_ids:
            errors.append(
                _diag(
                    func,
                    f"phi %{phi.name} incoming blocks do not match the "
                    f"predecessors of %{block.name}",
                    block,
                    phi,
                )
            )


def reference_verify_function(func: Function) -> None:
    """Raise :class:`VerificationError` if *func* is malformed."""
    errors: List[Diagnostic] = []
    if func.is_declaration:
        return
    entry = func.entry
    if entry.predecessors():
        errors.append(_diag(func, "entry block has predecessors", entry))
    if entry.phis():
        errors.append(_diag(func, "entry block contains phi nodes", entry))

    for block in func.blocks:
        if block.parent is not func:
            errors.append(
                _diag(func, f"block %{block.name} parent pointer broken", block)
            )
        _check_block(func, block, errors)
        _check_phis(func, block, errors)
        for inst in block.instructions:
            _check_operand_scope(func, inst, errors)

    # Return type agreement.
    for block in func.blocks:
        term = block.terminator
        if isinstance(term, Ret):
            if func.return_type.is_void:
                if term.value is not None:
                    errors.append(
                        _diag(func, "ret with value in void function", block, term)
                    )
            elif term.value is None:
                errors.append(
                    _diag(func, "ret void in non-void function", block, term)
                )
            elif term.value.type is not func.return_type:
                errors.append(
                    _diag(
                        func,
                        f"ret type {term.value.type} != {func.return_type}",
                        block,
                        term,
                    )
                )

    if errors:
        raise VerificationError(errors)

    # Dominance checks only make sense on structurally sound IR.
    errors = [
        Diagnostic(
            checker="ssa-dominance",
            severity=Severity.ERROR,
            message=f"use of %{op.name} is not dominated by its definition",
            function=func.name,
            block=user.parent.name,
            instruction=user.name or None,
            code="ssa-dominance/use-before-def",
        )
        for op, user, _idx in reference_violations(func)
    ]
    if errors:
        raise VerificationError(errors)


def reference_verify_module(module: Module) -> None:
    """Verify every function in *module*."""
    errors: List[Diagnostic] = []
    for func in module.functions:
        try:
            reference_verify_function(func)
        except VerificationError as exc:
            errors.extend(exc.diagnostics)
    if errors:
        raise VerificationError(errors)
