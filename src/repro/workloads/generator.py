"""Deterministic random IR generator.

The evaluation needs modules whose function populations look like real
programs to the merging pipeline: lots of unrelated functions, plus
*families* of near-duplicates (template instantiations, copy-pasted
handlers, generated boilerplate) that merging feeds on.  This module
generates individual structured functions; :mod:`repro.workloads.mutate`
derives family variants; :mod:`repro.workloads.suites` assembles whole
benchmark-shaped modules.

Each function is generated under a random *style* — a palette of preferred
types, a subset of opcodes, a distinctive memory shape — the way real
functions have their own idioms.  Without styles, every generated function
shares the same handful of instruction shingles and MinHash/LSH selectivity
collapses; with them, shingle diversity matches the behaviour the paper
reports on real code.

Everything is driven by :class:`random.Random` with explicit seeds, so every
workload is reproducible bit-for-bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..ir.basicblock import BasicBlock
from ..ir.builder import IRBuilder
from ..ir.function import Function
from ..ir.instructions import ICmpPred, Opcode
from ..ir.module import Module
from ..ir.types import (
    ArrayType,
    DOUBLE,
    FLOAT,
    FloatType,
    FunctionType,
    I1,
    I16,
    I32,
    I64,
    I8,
    IntType,
    PointerType,
    Type,
    VOID,
)
from ..ir.values import ConstantFloat, ConstantInt, Value

__all__ = ["GeneratorConfig", "FunctionGenerator"]

_INT_BINOPS = [Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR]
_SHIFT_BINOPS = [Opcode.SHL, Opcode.LSHR, Opcode.ASHR]
_DIV_BINOPS = [Opcode.SDIV, Opcode.UDIV, Opcode.SREM, Opcode.UREM]
_FLOAT_BINOPS = [Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV]
_ICMP_PREDS = [
    ICmpPred.EQ,
    ICmpPred.NE,
    ICmpPred.SLT,
    ICmpPred.SLE,
    ICmpPred.SGT,
    ICmpPred.SGE,
    ICmpPred.ULT,
    ICmpPred.UGT,
]
_INT_TYPES = [I8, I16, I32, I64]


@dataclass(frozen=True)
class GeneratorConfig:
    """Shape parameters for generated functions."""

    min_ops: int = 6
    max_ops: int = 24
    max_params: int = 4
    branch_prob: float = 0.35
    loop_prob: float = 0.2
    call_prob: float = 0.12
    memory_prob: float = 0.25
    float_prob: float = 0.2
    max_depth: int = 2
    max_callee_depth: int = 3
    void_ret_prob: float = 0.15


class _Style:
    """Per-function idiom: preferred types, opcode palette, memory shape."""

    def __init__(self, rng: random.Random, cfg: GeneratorConfig) -> None:
        # Two working integer widths, weighted toward the first.
        self.int_types = rng.sample(_INT_TYPES, 2)
        self.float_type: FloatType = rng.choice([FLOAT, DOUBLE])
        self.int_ops = rng.sample(_INT_BINOPS, rng.randint(2, 4))
        self.shift_ops = rng.sample(_SHIFT_BINOPS, rng.randint(1, 2))
        self.div_ops = rng.sample(_DIV_BINOPS, rng.randint(1, 2))
        self.float_ops = rng.sample(_FLOAT_BINOPS, rng.randint(1, 3))
        self.preds = rng.sample(_ICMP_PREDS, rng.randint(2, 4))
        elem = rng.choice([I8, I16, I32, I64])
        self.array_type = ArrayType(elem, rng.choice([2, 3, 4, 6, 8]))
        self.use_casts = rng.random() < 0.5
        self.use_select = rng.random() < 0.35
        # Jittered kind probabilities give every function its own op mix.
        self.memory_prob = cfg.memory_prob * rng.uniform(0.2, 1.8)
        self.float_prob = cfg.float_prob * rng.uniform(0.0, 2.0)
        self.call_prob = cfg.call_prob * rng.uniform(0.3, 1.7)

    def int_type(self, rng: random.Random) -> IntType:
        return self.int_types[0] if rng.random() < 0.7 else self.int_types[1]


class _Scope:
    """Values available (dominating) at the current insertion point."""

    def __init__(self) -> None:
        self.by_type: Dict[Type, List[Value]] = {}

    def add(self, value: Value) -> None:
        if value.type.is_void or value.type.is_label:
            return
        self.by_type.setdefault(value.type, []).append(value)

    def pick(self, rng: random.Random, type_: Type) -> Optional[Value]:
        values = self.by_type.get(type_)
        return rng.choice(values) if values else None

    def snapshot(self) -> "_Scope":
        copy = _Scope()
        copy.by_type = {t: list(vs) for t, vs in self.by_type.items()}
        return copy


class FunctionGenerator:
    """Generates structured, verifier-clean, interpretable functions."""

    def __init__(
        self,
        module: Module,
        rng: random.Random,
        config: GeneratorConfig = GeneratorConfig(),
    ) -> None:
        self.module = module
        self.rng = rng
        self.config = config
        # Call-chain depth of every generated function, so the generator can
        # bound the dynamic call depth of any workload.
        self.depths: Dict[str, int] = {}
        self._callables: List[Function] = []
        self._style: Optional[_Style] = None

    # -- public API ----------------------------------------------------------------
    def generate(self, name: str) -> Function:
        rng, cfg = self.rng, self.config
        self._style = _Style(rng, cfg)
        style = self._style
        nparams = rng.randint(1, cfg.max_params)
        param_types: List[Type] = []
        for _ in range(nparams):
            roll = rng.random()
            if roll < 0.6:
                param_types.append(style.int_type(rng))
            elif roll < 0.8:
                param_types.append(I32)
            elif roll < 0.92:
                param_types.append(style.float_type)
            else:
                param_types.append(I1)
        if rng.random() < cfg.void_ret_prob:
            ret: Type = VOID
        else:
            ret = rng.choice([I32, style.int_types[0], style.int_types[0], style.float_type])

        func = Function(FunctionType(ret, param_types), name, parent=self.module)
        builder = IRBuilder(BasicBlock("entry", func))
        scope = _Scope()
        for arg in func.args:
            scope.add(arg)
        # Seed value so tiny functions still have material to work with.
        t0 = style.int_types[0]
        seed_val = builder.binop(
            rng.choice(style.int_ops),
            self._int_value(builder, scope, t0),
            ConstantInt(t0, rng.randint(1, 60)),
        )
        scope.add(seed_val)

        budget = rng.randint(cfg.min_ops, cfg.max_ops)
        scope = self._emit_region(builder, scope, budget, cfg.max_depth)
        self._emit_return(builder, scope, ret)
        # Every loop names its phis %iv and %acc; a second loop must not
        # redefine them, or the printed function would not parse again.
        func.uniquify_names()

        depth = 1 + max(
            [0] + [self.depths.get(c.name, 0) for c in self._called_in(func)]
        )
        self.depths[func.name] = depth
        if depth <= cfg.max_callee_depth:
            self._callables.append(func)
        return func

    # -- regions ---------------------------------------------------------------------
    def _emit_region(
        self, builder: IRBuilder, scope: _Scope, budget: int, depth: int
    ) -> _Scope:
        rng, cfg = self.rng, self.config
        while budget > 0:
            roll = rng.random()
            if depth > 0 and roll < cfg.branch_prob and budget >= 4:
                used = self._emit_branch(builder, scope, min(budget, 8), depth - 1)
                budget -= used
            elif depth > 0 and roll < cfg.branch_prob + cfg.loop_prob and budget >= 4:
                used = self._emit_loop(builder, scope, min(budget, 8))
                budget -= used
            else:
                self._emit_straightline(builder, scope)
                budget -= 1
        return scope

    def _emit_straightline(
        self, builder: IRBuilder, scope: _Scope, allow_calls: bool = True
    ) -> None:
        rng = self.rng
        style = self._style
        assert style is not None
        roll = rng.random()
        if allow_calls and roll < style.call_prob and self._callables:
            self._emit_call(builder, scope)
        elif roll < style.call_prob + style.memory_prob:
            self._emit_memory(builder, scope)
        elif roll < style.call_prob + style.memory_prob + style.float_prob:
            self._emit_float_op(builder, scope)
        else:
            self._emit_int_op(builder, scope)

    # -- straight-line emitters ---------------------------------------------------------
    def _int_value(self, builder: IRBuilder, scope: _Scope, type_: IntType) -> Value:
        value = scope.pick(self.rng, type_)
        if value is None:
            value = ConstantInt(type_, self.rng.randint(0, 50))
        return value

    def _emit_int_op(self, builder: IRBuilder, scope: _Scope) -> None:
        rng = self.rng
        style = self._style
        assert style is not None
        type_ = style.int_type(rng)
        a = self._int_value(builder, scope, type_)
        roll = rng.random()
        if roll < 0.12:
            op = rng.choice(style.shift_ops)
            b: Value = ConstantInt(type_, rng.randint(1, min(5, type_.bits - 1)))
        elif roll < 0.22:
            op = rng.choice(style.div_ops)
            b = ConstantInt(type_, rng.randint(1, 13))  # non-zero divisor
        else:
            op = rng.choice(style.int_ops)
            b = (
                self._int_value(builder, scope, type_)
                if rng.random() < 0.6
                else ConstantInt(type_, rng.randint(0, 31))
            )
        result = builder.binop(op, a, b)
        scope.add(result)
        if rng.random() < 0.2:
            cmp_b = self._int_value(builder, scope, type_)
            scope.add(builder.icmp(rng.choice(style.preds), a, cmp_b))
        if style.use_casts and rng.random() < 0.25:
            self._emit_cast(builder, scope, result)
        if style.use_select and rng.random() < 0.25:
            cond = scope.pick(rng, I1)
            other = scope.pick(rng, result.type)
            if cond is not None and other is not None:
                scope.add(builder.select(cond, result, other))

    def _emit_cast(self, builder: IRBuilder, scope: _Scope, value: Value) -> None:
        if not isinstance(value.type, IntType):
            return
        rng = self.rng
        bits = value.type.bits
        wider = [t for t in _INT_TYPES if t.bits > bits]
        narrower = [t for t in _INT_TYPES if t.bits < bits and t.bits > 1]
        if wider and rng.random() < 0.6:
            target = rng.choice(wider)
            op = builder.zext if rng.random() < 0.5 else builder.sext
            scope.add(op(value, target))
        elif narrower:
            scope.add(builder.trunc(value, rng.choice(narrower)))

    def _emit_float_op(self, builder: IRBuilder, scope: _Scope) -> None:
        rng = self.rng
        style = self._style
        assert style is not None
        ftype = style.float_type
        a = scope.pick(rng, ftype)
        if a is None:
            src = self._int_value(builder, scope, style.int_types[0])
            a = builder.sitofp(src, ftype)
            scope.add(a)
        b = scope.pick(rng, ftype)
        if b is None or rng.random() < 0.4:
            b = ConstantFloat(ftype, round(rng.uniform(0.5, 9.5), 3))
        scope.add(builder.binop(rng.choice(style.float_ops), a, b))

    def _emit_memory(self, builder: IRBuilder, scope: _Scope) -> None:
        rng = self.rng
        style = self._style
        assert style is not None
        arr_ty = style.array_type
        elem: IntType = arr_ty.element  # type: ignore[assignment]
        ptr = scope.pick(rng, PointerType(arr_ty))
        if ptr is None:
            ptr = builder.alloca(arr_ty)
            scope.add(ptr)
        idx = ConstantInt(I64, rng.randint(0, arr_ty.count - 1))
        slot = builder.gep(ptr, [ConstantInt(I64, 0), idx])
        if rng.random() < 0.5:
            builder.store(self._int_value(builder, scope, elem), slot)
        else:
            scope.add(builder.load(slot))

    def _emit_call(self, builder: IRBuilder, scope: _Scope) -> None:
        rng = self.rng
        callee = rng.choice(self._callables)
        args: List[Value] = []
        for param in callee.ftype.params:
            if isinstance(param, IntType):
                args.append(self._int_value(builder, scope, param))
            elif param.is_float:
                value = scope.pick(rng, param)
                args.append(
                    value if value is not None else ConstantFloat(param, 1.5)  # type: ignore[arg-type]
                )
            else:
                return  # pointer params: skip the call
        result = builder.call(callee, args)
        scope.add(result)

    # -- control flow ---------------------------------------------------------------
    def _emit_branch(
        self, builder: IRBuilder, scope: _Scope, budget: int, depth: int
    ) -> int:
        rng = self.rng
        style = self._style
        assert style is not None
        func = builder.function
        cond = scope.pick(rng, I1)
        if cond is None:
            type_ = style.int_types[0]
            cond = builder.icmp(
                rng.choice(style.preds),
                self._int_value(builder, scope, type_),
                ConstantInt(type_, rng.randint(0, 20)),
            )
        then_bb = BasicBlock(func.next_name("then"), func)
        else_bb = BasicBlock(func.next_name("else"), func)
        join_bb = BasicBlock(func.next_name("join"), func)
        builder.cond_br(cond, then_bb, else_bb)

        half = max(1, budget // 2)
        base = scope.snapshot()
        merge_ty = style.int_types[0]

        builder.position_at_end(then_bb)
        then_scope = base.snapshot()
        self._emit_region(builder, then_scope, half, depth)
        then_val = then_scope.pick(rng, merge_ty)
        then_exit = builder.block
        builder.br(join_bb)

        builder.position_at_end(else_bb)
        else_scope = base.snapshot()
        self._emit_region(builder, else_scope, half, depth)
        else_val = else_scope.pick(rng, merge_ty)
        else_exit = builder.block
        builder.br(join_bb)

        builder.position_at_end(join_bb)
        scope.by_type = base.by_type
        if then_val is not None and else_val is not None:
            phi = builder.phi(merge_ty)
            phi.add_incoming(then_val, then_exit)
            phi.add_incoming(else_val, else_exit)
            scope.add(phi)
        return budget

    def _emit_loop(self, builder: IRBuilder, scope: _Scope, budget: int) -> int:
        rng = self.rng
        style = self._style
        assert style is not None
        func = builder.function
        pre = builder.block
        header = BasicBlock(func.next_name("loop"), func)
        body = BasicBlock(func.next_name("body"), func)
        exit_bb = BasicBlock(func.next_name("endloop"), func)
        trip = rng.randint(2, 6)
        acc_ty = style.int_types[0]
        acc_init = self._int_value(builder, scope, acc_ty)
        builder.br(header)

        builder.position_at_end(header)
        iv = builder.phi(I32, "iv")
        acc = builder.phi(acc_ty, "acc")
        iv.add_incoming(ConstantInt(I32, 0), pre)
        acc.add_incoming(acc_init, pre)
        cond = builder.icmp(ICmpPred.SLT, iv, ConstantInt(I32, trip))
        builder.cond_br(cond, body, exit_bb)

        builder.position_at_end(body)
        body_scope = scope.snapshot()
        body_scope.add(iv)
        body_scope.add(acc)
        step = builder.binop(
            rng.choice(style.int_ops),
            acc,
            self._int_value(builder, body_scope, acc_ty),
        )
        # No calls inside loop bodies: nested loop+call chains would make
        # the dynamic instruction count explode multiplicatively, and the
        # interpreter is our runtime-measurement substrate.
        for _ in range(max(0, budget - 4)):
            self._emit_straightline(builder, body_scope, allow_calls=False)
        iv_next = builder.add(iv, ConstantInt(I32, 1), "iv.next")
        body_exit = builder.block
        builder.br(header)
        iv.add_incoming(iv_next, body_exit)
        acc.add_incoming(step, body_exit)

        builder.position_at_end(exit_bb)
        scope.add(acc)
        scope.add(iv)
        return budget

    # -- epilogue -------------------------------------------------------------------
    def _emit_return(self, builder: IRBuilder, scope: _Scope, ret: Type) -> None:
        rng = self.rng
        if ret.is_void:
            builder.ret()
            return
        value = scope.pick(rng, ret)
        if value is None:
            if isinstance(ret, IntType):
                value = ConstantInt(ret, rng.randint(0, 99))
            else:
                value = ConstantFloat(ret, 0.0)  # type: ignore[arg-type]
        builder.ret(value)

    # -- helpers ---------------------------------------------------------------------
    @staticmethod
    def _called_in(func: Function) -> List[Function]:
        out = []
        for inst in func.instructions():
            if inst.opcode in (Opcode.CALL, Opcode.INVOKE):
                callee = inst.operand(0)
                if isinstance(callee, Function):
                    out.append(callee)
        return out
