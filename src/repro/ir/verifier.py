"""IR verifier: structural and SSA-dominance well-formedness checks.

This is the arbiter of correctness for the merged-code generator.  The two
HyFM bugs described in F3M Section III-E are exactly dominance violations
that LLVM's verifier misses post-repair; ours checks the same properties, and
the interpreter-based differential tests catch the miscompiles the paper
describes.

A function is checked in two walks.  The first visits each instruction
once for the structural rules (block shape, phi order, operand scope,
return type), scans a use list for predecessors only in blocks that start
with a phi, and keeps each block's successors; any finding is raised
before dominance is checked.  The second is the dominance scan over the
dominator tree built from those successors.

Findings are structured :class:`~repro.diagnostics.Diagnostic` objects —
the same type the checkers in :mod:`repro.staticcheck` emit — and the
dominance phase *is* the staticcheck ``ssa-dominance`` checker, so the
verifier and the linter can never disagree about SSA validity.
:class:`VerificationError` keeps its historical string surface: ``str()``
joins the rendered diagnostics and ``.errors`` is the list of rendered
strings.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from ..diagnostics import Diagnostic, Severity
from .basicblock import BasicBlock
from .function import Function
from .instructions import TERMINATOR_OPCODES, Instruction, Opcode, Ret
from .module import Module
from .values import Argument, Constant, Value

__all__ = ["VerificationError", "verify_function", "verify_module"]


class VerificationError(Exception):
    """Raised when an IR unit violates a well-formedness rule.

    Carries structured :class:`Diagnostic` objects in ``.diagnostics``;
    plain strings passed by older call sites are wrapped on the fly.  The
    legacy ``.errors`` list-of-strings and the joined ``str()`` message are
    preserved for backward compatibility.
    """

    def __init__(self, errors: Sequence[Union[str, Diagnostic]]) -> None:
        self.diagnostics: List[Diagnostic] = [
            e
            if isinstance(e, Diagnostic)
            else Diagnostic(checker="verifier", severity=Severity.ERROR, message=e)
            for e in errors
        ]
        super().__init__("\n".join(str(d) for d in self.diagnostics))

    @property
    def errors(self) -> List[str]:
        return [str(d) for d in self.diagnostics]


_PHI = Opcode.PHI
#: Operands whose ``parent`` must be the function itself.
_LOCALS = (Argument, BasicBlock)


def _diag(func: Function, message: str, block=None, inst=None) -> Diagnostic:
    return Diagnostic(
        checker="verifier",
        severity=Severity.ERROR,
        message=message,
        function=func.name,
        block=block.name if block is not None else None,
        instruction=(inst.name or None) if inst is not None else None,
    )


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


def _scope_error(func: Function, op: Value) -> Optional[str]:
    """Why operand *op* may not appear in *func*, or None if it may."""
    if isinstance(op, Instruction):
        block = op.parent
        if block is None or block.parent is not func:
            return f"instruction uses value %{op.name} defined outside the function"
    elif isinstance(op, Constant):
        pass
    elif isinstance(op, Argument):
        if op.parent is not func:
            return f"instruction uses argument %{op.name} of another function"
    elif isinstance(op, BasicBlock):
        if op.parent is not func:
            return f"instruction references block %{op.name} of another function"
    elif isinstance(op, Function):
        # Direct callee / function reference: fine only when the callee
        # lives in the same module (a cross-module reference would
        # dangle after the foreign module is mutated or dropped).
        if func.parent is not None and op.parent is not func.parent:
            return f"instruction references function @{op.name} from another module"
    else:
        return f"unknown operand kind {type(op).__name__}"
    return None


def _ret_error(func: Function, term: Ret) -> Optional[str]:
    """Why *term* disagrees with *func*'s return type, or None."""
    ret_type = func.return_type
    value = term.value
    if ret_type.is_void:
        return "ret with value in void function" if value is not None else None
    if value is None:
        return "ret void in non-void function"
    if value.type is not ret_type:
        return f"ret type {value.type} != {ret_type}"
    return None


def verify_function(func: Function) -> None:
    """Raise :class:`VerificationError` if *func* is malformed.

    Two walks.  The first visits every instruction once: the block's shape
    (a terminator last and nowhere else, phis first, parent pointers), the
    scope of every operand and the return type, and it keeps each block's
    successors.  Only a block that starts with a phi scans its use list for
    predecessors.  Structural findings are raised before dominance is
    checked.  The second walk is the ``ssa-dominance`` checker, over the
    dominator tree built from the successors the first walk kept.
    """
    if func.is_declaration:
        return
    errors: List[Diagnostic] = []
    entry = func.entry
    if entry.predecessors():
        errors.append(_diag(func, "entry block has predecessors", entry))
    if entry.phis():
        errors.append(_diag(func, "entry block contains phi nodes", entry))

    successors: List[List[BasicBlock]] = []
    returns: List[Diagnostic] = []
    for block in func.blocks:
        if block.parent is not func:
            errors.append(_diag(func, f"block %{block.name} parent pointer broken", block))
        insts = block.instructions
        if not insts:
            errors.append(_diag(func, f"block %{block.name} is empty", block))
            successors.append([])
            continue
        # A block's findings are listed by kind: its terminators, then each
        # instruction's parent and phi order, then its phis, then scope.
        shape: List[Diagnostic] = []
        scope: List[Diagnostic] = []
        terminators = 0
        seen_non_phi = False
        for inst in insts:
            if inst.parent is not block:
                shape.append(
                    _diag(func, f"instruction parent pointer broken in %{block.name}", block, inst)
                )
            opcode = inst.opcode
            if opcode == _PHI:
                if seen_non_phi:
                    shape.append(
                        _diag(func, f"phi after non-phi instruction in %{block.name}", block, inst)
                    )
            else:
                seen_non_phi = True
                if opcode in TERMINATOR_OPCODES:
                    terminators += 1
            for op in inst._operands:
                # Accept the common operands here; _scope_error has the rule.
                if isinstance(op, Constant):
                    continue
                if isinstance(op, Instruction):
                    owner = op.parent
                    if owner is not None and owner.parent is func:
                        continue
                elif isinstance(op, _LOCALS):
                    if op.parent is func:  # type: ignore[attr-defined]
                        continue
                message = _scope_error(func, op)
                if message is not None:
                    # Named by the instruction's own parent pointer.
                    scope.append(_diag(func, message, inst.parent, inst))
        term = insts[-1]
        if term.opcode in TERMINATOR_OPCODES:
            successors.append(term.successors())
            terminators -= 1
            if isinstance(term, Ret):
                message = _ret_error(func, term)
                if message is not None:
                    returns.append(_diag(func, message, block, term))
        else:
            successors.append([])
            errors.append(
                _diag(func, f"block %{block.name} does not end in a terminator", block)
            )
        if terminators:
            errors.extend(
                _diag(func, f"terminator in the middle of block %{block.name}", block, inst)
                for inst in insts[:-1]
                if inst.is_terminator
            )
        errors.extend(shape)
        if insts[0].opcode == _PHI:
            _check_phis(func, block, errors)
        errors.extend(scope)
    errors.extend(returns)
    if errors:
        raise VerificationError(errors)

    # The rule is the staticcheck ``ssa-dominance`` checker — imported
    # lazily because repro.staticcheck depends on repro.ir and
    # repro.analysis.
    from ..analysis.dominators import DominatorTree
    from ..staticcheck.checkers import dominance_diagnostics

    errors = dominance_diagnostics(func, DominatorTree.of_blocks(func, successors))
    if errors:
        raise VerificationError(errors)


def verify_module(module: Module) -> None:
    """Verify every function in *module*."""
    errors: List[Diagnostic] = []
    for func in module.functions:
        try:
            verify_function(func)
        except VerificationError as exc:
            errors.extend(exc.diagnostics)
    if errors:
        raise VerificationError(errors)
