"""Checker registry and the built-in IR checkers.

Each checker is a named rule that inspects one function (scope
``"function"``) or a whole module (scope ``"module"``) and returns
:class:`~repro.diagnostics.Diagnostic` objects.  Registration order is the
execution order, which keeps ``repro lint`` output stable.

Severity policy: a checker reports ERROR only for properties whose
violation is a miscompile or undefined behaviour (dominance, type rules,
call arity); everything that is merely suspicious — an unreachable block,
a dead store, a load no store reaches — is a WARNING, because legitimate
IR can contain it (the interpreter zero-initializes memory, so an
uninitialized read is deterministic here).  The merge-safety linter in
:mod:`repro.staticcheck.lint` escalates the uninitialized-read warning to
an ERROR for the demotion slots that SSA repair itself introduced, where a
reaching store is a hard invariant of a correct repair (§III-E).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..analysis.cfg import reachable_blocks
from ..diagnostics import Diagnostic, Severity
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    Branch,
    Call,
    Instruction,
    Invoke,
    Load,
    Phi,
    Ret,
    Select,
    Store,
)
from ..ir.module import Module
from ..ir.types import I1, FunctionType
from .callgraph import CallGraph
from .dataflow import ReachingStores, SlotLiveness, solve

__all__ = [
    "CheckerInfo",
    "checker",
    "all_checkers",
    "get_checker",
    "run_function_checks",
    "run_module_checks",
    "dominance_diagnostics",
    "uninitialized_loads",
]


@dataclass(frozen=True)
class CheckerInfo:
    """One registered checker: its id, scope, description and entry point."""

    name: str
    scope: str  # "function" | "module"
    description: str
    run: Callable[..., List[Diagnostic]]


_REGISTRY: Dict[str, CheckerInfo] = {}


def checker(name: str, scope: str, description: str):
    """Register a checker function under *name*."""
    if scope not in ("function", "module"):
        raise ValueError(f"invalid checker scope {scope!r}")

    def wrap(fn: Callable[..., List[Diagnostic]]):
        if name in _REGISTRY:
            raise ValueError(f"duplicate checker {name!r}")
        _REGISTRY[name] = CheckerInfo(name, scope, description, fn)
        return fn

    return wrap


def all_checkers() -> List[CheckerInfo]:
    return list(_REGISTRY.values())


def get_checker(name: str) -> CheckerInfo:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown checker {name!r} (known: {known})") from None


def _select(names: Optional[Sequence[str]]) -> List[CheckerInfo]:
    if names is None:
        return all_checkers()
    return [get_checker(n) for n in names]


def run_function_checks(
    func: Function, names: Optional[Sequence[str]] = None
) -> List[Diagnostic]:
    """Run the function-scope checkers (all, or just *names*) on *func*."""
    diags: List[Diagnostic] = []
    if func.is_declaration:
        return diags
    for info in _select(names):
        if info.scope == "function":
            diags.extend(info.run(func))
    return diags


def run_module_checks(
    module: Module, names: Optional[Sequence[str]] = None
) -> List[Diagnostic]:
    """Run all selected checkers over *module* (functions, then module scope)."""
    diags: List[Diagnostic] = []
    infos = _select(names)
    for func in module.defined_functions():
        for info in infos:
            if info.scope == "function":
                diags.extend(info.run(func))
    for info in infos:
        if info.scope == "module":
            diags.extend(info.run(module))
    return diags


def _diag(
    name: str,
    severity: Severity,
    message: str,
    func: Optional[Function] = None,
    block: Optional[BasicBlock] = None,
    inst: Optional[Instruction] = None,
    code: Optional[str] = None,
) -> Diagnostic:
    return Diagnostic(
        checker=name,
        severity=severity,
        message=message,
        function=func.name if func is not None else None,
        block=block.name if block is not None else None,
        instruction=(inst.name or None) if inst is not None else None,
        code=f"{name}/{code}" if code is not None else None,
    )


# ---------------------------------------------------------------------------
# ssa-dominance — the rule the §III-E bugs break.  Shared with the verifier:
# ``verify_function`` delegates its dominance phase to this function so the
# two can never disagree.
# ---------------------------------------------------------------------------


def dominance_diagnostics(func: Function, dt=None) -> List[Diagnostic]:
    """Strict SSA-dominance violations in *func* (reachable code only)."""
    from ..analysis.dominators import dominance_violations

    return [
        _diag(
            "ssa-dominance",
            Severity.ERROR,
            f"use of %{op.name} is not dominated by its definition",
            func,
            user.parent,
            user,
            code="use-before-def",
        )
        for op, user, _idx in dominance_violations(func, dt)
    ]


@checker("ssa-dominance", "function", "every use is dominated by its definition")
def _check_dominance(func: Function) -> List[Diagnostic]:
    return dominance_diagnostics(func)


# ---------------------------------------------------------------------------
# maybe-uninit — reaching-definitions instance of the dataflow engine.
# ---------------------------------------------------------------------------


def uninitialized_loads(func: Function):
    """Loads from tracked stack slots that no store may reach.

    Returns ``(problem, [(load, slot), ...])`` so callers (the checker here,
    the merge-safety linter) can share one dataflow solve.
    """
    problem = ReachingStores(func)
    found = []
    if not problem.slots:
        return problem, found
    result = solve(problem, func)
    reachable = reachable_blocks(func)
    for block in func.blocks:
        if id(block) not in reachable:
            continue
        for inst in block.instructions:
            if not isinstance(inst, Load):
                continue
            reaching = problem.reaching_stores(result, inst)
            if reaching is not None and not reaching:
                found.append((inst, problem.slot_of_load(inst)))
    return problem, found


@checker(
    "maybe-uninit",
    "function",
    "load from a stack slot that no store may reach",
)
def _check_maybe_uninit(func: Function) -> List[Diagnostic]:
    _, loads = uninitialized_loads(func)
    return [
        _diag(
            "maybe-uninit",
            Severity.WARNING,
            f"load from %{slot.name} is reached by no store "
            "(reads uninitialized memory)",
            func,
            load.parent,
            load,
            code="no-reaching-store",
        )
        for load, slot in loads
    ]


# ---------------------------------------------------------------------------
# unreachable-block
# ---------------------------------------------------------------------------


@checker("unreachable-block", "function", "basic block unreachable from the entry")
def _check_unreachable(func: Function) -> List[Diagnostic]:
    reachable = reachable_blocks(func)
    return [
        _diag(
            "unreachable-block",
            Severity.WARNING,
            f"block %{block.name} is unreachable from the entry",
            func,
            block,
            code="dead-block",
        )
        for block in func.blocks
        if id(block) not in reachable
    ]


# ---------------------------------------------------------------------------
# dead-store — backward slot-liveness instance of the dataflow engine.
# ---------------------------------------------------------------------------


@checker("dead-store", "function", "store to a stack slot that is never read")
def _check_dead_store(func: Function) -> List[Diagnostic]:
    problem = SlotLiveness(func)
    if not problem.slots:
        return []
    result = solve(problem, func)
    reachable = reachable_blocks(func)
    diags: List[Diagnostic] = []
    for block in func.blocks:
        if id(block) not in reachable:
            continue
        for inst in block.instructions:
            if not isinstance(inst, Store):
                continue
            slot = inst.pointer
            if id(slot) not in problem.slots:
                continue
            if id(slot) not in result.state_after(inst):  # type: ignore[operator]
                diags.append(
                    _diag(
                        "dead-store",
                        Severity.WARNING,
                        f"store to %{slot.name} is never read",
                        func,
                        block,
                        inst,
                        code="never-read",
                    )
                )
    return diags


# ---------------------------------------------------------------------------
# type-consistency — re-checks the constructor-enforced typing rules, which
# operand mutation (set_operand, call-site rewriting) can silently break.
# ---------------------------------------------------------------------------


def _callee_ftype(callee) -> Optional[FunctionType]:
    ftype = callee.type
    if ftype.is_pointer:
        ftype = ftype.pointee
    return ftype if isinstance(ftype, FunctionType) else None


@checker(
    "type-consistency",
    "function",
    "operand/result types agree across calls, phis, returns and memory ops",
)
def _check_types(func: Function) -> List[Diagnostic]:
    diags: List[Diagnostic] = []

    def bad(message: str, block: BasicBlock, inst: Instruction, code: str) -> None:
        diags.append(
            _diag(
                "type-consistency", Severity.ERROR, message, func, block, inst,
                code=code,
            )
        )

    for block in func.blocks:
        for inst in block.instructions:
            if isinstance(inst, (Call, Invoke)):
                ftype = _callee_ftype(inst.callee)
                if ftype is None:
                    bad(f"callee is not a function: {inst.callee.type}", block, inst, "bad-callee")
                    continue
                args = inst.args
                if len(args) != len(ftype.params):
                    bad(
                        f"call passes {len(args)} arguments, callee type "
                        f"expects {len(ftype.params)}",
                        block,
                        inst,
                        "call-arity",
                    )
                else:
                    for i, (arg, param) in enumerate(zip(args, ftype.params)):
                        if arg.type is not param:
                            bad(
                                f"call argument {i} has type {arg.type}, "
                                f"expected {param}",
                                block,
                                inst,
                                "call-arg-type",
                            )
                if inst.type is not ftype.ret:
                    bad(
                        f"call result type {inst.type} != callee return "
                        f"type {ftype.ret}",
                        block,
                        inst,
                        "call-ret-type",
                    )
            elif isinstance(inst, Phi):
                for value, pred in inst.incoming:
                    if value.type is not inst.type:
                        bad(
                            f"phi incoming value from %{pred.name} has type "
                            f"{value.type}, phi is {inst.type}",
                            block,
                            inst,
                            "phi-incoming-type",
                        )
            elif isinstance(inst, Ret):
                if func.return_type.is_void:
                    if inst.value is not None:
                        bad("ret with value in void function", block, inst, "ret-arity")
                elif inst.value is None:
                    bad("ret void in non-void function", block, inst, "ret-arity")
                elif inst.value.type is not func.return_type:
                    bad(
                        f"ret type {inst.value.type} != {func.return_type}",
                        block,
                        inst,
                        "ret-type",
                    )
            elif isinstance(inst, Store):
                ptype = inst.pointer.type
                if not ptype.is_pointer:
                    bad(f"store through non-pointer {ptype}", block, inst, "memory-type")
                elif inst.value.type is not ptype.pointee:
                    bad(
                        f"store of {inst.value.type} into {ptype}",
                        block,
                        inst,
                        "memory-type",
                    )
            elif isinstance(inst, Load):
                ptype = inst.pointer.type
                if not ptype.is_pointer:
                    bad(f"load through non-pointer {ptype}", block, inst, "memory-type")
                elif inst.type is not ptype.pointee:
                    bad(f"load of {inst.type} from {ptype}", block, inst, "memory-type")
            elif isinstance(inst, Select):
                if inst.condition.type is not I1:
                    bad("select condition is not i1", block, inst, "cond-type")
            elif isinstance(inst, Branch):
                if inst.is_conditional and inst.condition.type is not I1:
                    bad("branch condition is not i1", block, inst, "cond-type")
            elif inst.is_binary:
                lhs, rhs = inst.operand(0), inst.operand(1)
                if lhs.type is not rhs.type or lhs.type is not inst.type:
                    bad(
                        f"binary operand types {lhs.type}/{rhs.type} do not "
                        f"match result {inst.type}",
                        block,
                        inst,
                        "binary-type",
                    )
    return diags


# ---------------------------------------------------------------------------
# callgraph — module scope: direct-call arity and recursion structure.
# ---------------------------------------------------------------------------


@checker(
    "callgraph",
    "module",
    "call-graph consistency: direct-call arity, recursion cycles",
)
def _check_callgraph(module: Module) -> List[Diagnostic]:
    graph = CallGraph(module)
    diags: List[Diagnostic] = []
    for site in graph.arity_mismatches():
        diags.append(
            _diag(
                "callgraph",
                Severity.ERROR,
                f"call to @{site.callee.name} passes {site.num_args} "
                f"arguments, @{site.callee.name} takes "
                f"{len(site.callee.ftype.params)}",
                site.caller,
                site.inst.parent,
                site.inst,
                code="arity-mismatch",
            )
        )
    for group in graph.recursive_groups():
        names = " -> ".join(f"@{f.name}" for f in group)
        if len(group) == 1:
            message = f"@{group[0].name} is directly recursive"
        else:
            message = f"recursion cycle: {names}"
        diags.append(
            _diag("callgraph", Severity.INFO, message, func=group[0], code="recursive")
        )
    return diags
