"""The IR parser's per-token tokenizer and line-based header prescan.

This is the text parser as it was before the tokenizer became one
``findall`` pass: each token is one ``_TOKEN_RE.match`` with its kind and
line stored eagerly, and function headers are found by a second,
line-based regex (``_HEADER_RE``) whose matches are each tokenized again.
The parser body is the same grammar over ``(kind, value)`` tokens.  It
raises :class:`repro.ir.parser.ParseError`, so a test can compare messages
and lines with the production parser's.

One change from that parser: ``inf`` and ``nan`` are floats only where no
name character follows, so labels such as ``info:`` tokenize as words.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import (
    Alloca,
    BinaryOp,
    Branch,
    Call,
    Cast,
    FCmp,
    FCmpPred,
    GetElementPtr,
    ICmp,
    ICmpPred,
    Invoke,
    Load,
    Opcode,
    Phi,
    Ret,
    Select,
    Store,
    Switch,
    Unreachable,
    BINARY_OPCODES,
    CAST_OPCODES,
)
from repro.ir.module import Module
from repro.ir.types import (
    ArrayType,
    DOUBLE,
    FLOAT,
    FunctionType,
    IntType,
    LABEL,
    PointerType,
    StructType,
    Type,
    VOID,
)
from repro.ir.parser import ParseError
from repro.ir.values import (
    Argument,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    UndefValue,
    Value,
)

__all__ = ["parse_module"]


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>;[^\n]*)
  | (?P<local>%[A-Za-z0-9_.\-]+)
  | (?P<global>@[A-Za-z0-9_.\-$]+)
  | (?P<float>-?\d+\.\d+(e[-+]?\d+)?|(?:-?inf|nan)(?![A-Za-z0-9_.\-]))
  | (?P<int>-?\d+)
  | (?P<word>[A-Za-z_][A-Za-z0-9_.\-]*)
  | (?P<punct>\*|[(){}\[\],:=])
    """,
    re.VERBOSE,
)

_BINARY_WORDS = {op.name.lower(): op for op in BINARY_OPCODES}
_CAST_WORDS = {op.name.lower(): op for op in CAST_OPCODES}
_ICMP_PREDS = {p.name.lower(): p for p in ICmpPred}
_FCMP_PREDS = {p.name.lower(): p for p in FCmpPred}


class _Tokens:
    def __init__(self, text: str) -> None:
        self.tokens: List[Tuple[str, str, int]] = []
        line = 1
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise ParseError(f"unexpected character {text[pos]!r}", line)
            kind = m.lastgroup or ""
            value = m.group(0)
            if kind not in ("ws", "comment"):
                self.tokens.append((kind, value, line))
            line += value.count("\n")
            pos = m.end()
        self.index = 0

    @property
    def line(self) -> int:
        if self.index < len(self.tokens):
            return self.tokens[self.index][2]
        return self.tokens[-1][2] if self.tokens else 1

    def peek(self) -> Optional[Tuple[str, str]]:
        if self.index < len(self.tokens):
            kind, value, _ = self.tokens[self.index]
            return kind, value
        return None

    def next(self) -> Tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.line)
        self.index += 1
        return tok

    def expect(self, value: str) -> str:
        kind, got = self.next()
        if got != value:
            raise ParseError(f"expected {value!r}, got {got!r}", self.line)
        return got

    def accept(self, value: str) -> bool:
        tok = self.peek()
        if tok is not None and tok[1] == value:
            self.index += 1
            return True
        return False


def _parse_type(toks: _Tokens) -> Type:
    start = toks.index
    try:
        kind, value = toks.next()
        base: Type
        if value == "void":
            base = VOID
        elif value == "label":
            base = LABEL
        elif value == "float":
            base = FLOAT
        elif value == "double":
            base = DOUBLE
        elif kind == "word" and re.fullmatch(r"i\d+", value):
            base = IntType(int(value[1:]))
        elif value == "[":
            _, count = toks.next()
            if not count.isdigit():
                raise ParseError(f"expected an array length, got {count!r}", toks.line)
            toks.expect("x")
            elem = _parse_type(toks)
            toks.expect("]")
            base = ArrayType(elem, int(count))
        elif value == "{":
            fields = []
            if not toks.accept("}"):
                fields.append(_parse_type(toks))
                while toks.accept(","):
                    fields.append(_parse_type(toks))
                toks.expect("}")
            base = StructType(fields)
        else:
            raise ParseError(f"expected a type, got {value!r}", toks.line)
        # Suffixes: "(params)" builds a function type, "*" a pointer.  This is
        # unambiguous because every call-like construct puts the callee token
        # between the return type and its argument parenthesis, so a "(" right
        # after a type can only be a function-type parameter list (the operand
        # spelling of address-taken functions: ``i32 (i32)* @callee``).
        while True:
            if toks.accept("("):
                params = []
                if not toks.accept(")"):
                    params.append(_parse_type(toks))
                    while toks.accept(","):
                        params.append(_parse_type(toks))
                    toks.expect(")")
                base = FunctionType(base, params)
            elif toks.accept("*"):
                base = PointerType(base)
            else:
                return base
    except ValueError as exc:  # a type constructor refused the type
        toks.index = start
        raise ParseError(str(exc), toks.line) from None


class _FunctionParser:
    """Parses one function body with deferred (two-phase) name resolution."""

    def __init__(self, module: Module, toks: _Tokens) -> None:
        self.module = module
        self.toks = toks
        self.locals: Dict[str, Value] = {}
        self.placeholders: Dict[str, Value] = {}
        self.block_placeholders: Dict[str, BasicBlock] = {}
        self.func: Optional[Function] = None

    # -- name resolution ----------------------------------------------------------
    def _local(self, name: str, type_: Type) -> Value:
        existing = self.locals.get(name)
        if existing is not None:
            return existing
        ph = self.placeholders.get(name)
        if ph is None:
            ph = Value(type_, name)
            self.placeholders[name] = ph
        return ph

    def _block_ref(self, label: str) -> BasicBlock:
        existing = self.locals.get(label)
        if isinstance(existing, BasicBlock):
            return existing
        ph = self.block_placeholders.get(label)
        if ph is None:
            ph = BasicBlock(label)
            self.block_placeholders[label] = ph
        return ph

    def _define(self, name: str, value: Value) -> None:
        if name in self.locals:
            raise ParseError(f"redefinition of %{name}", self.toks.line)
        self.locals[name] = value

    def _resolve(self) -> None:
        for name, ph in self.placeholders.items():
            real = self.locals.get(name)
            if real is None:
                raise ParseError(f"use of undefined value %{name}", self.toks.line)
            ph.replace_all_uses_with(real)
        for label, ph in self.block_placeholders.items():
            real = self.locals.get(label)
            if not isinstance(real, BasicBlock):
                raise ParseError(f"use of undefined label %{label}", self.toks.line)
            ph.replace_all_uses_with(real)

    # -- operands -------------------------------------------------------------------
    def _value(self, type_: Type) -> Value:
        kind, tok = self.toks.next()
        if kind == "local":
            return self._local(tok[1:], type_)
        if kind == "global":
            func = self.module.get_function(tok[1:])
            if func is None:
                raise ParseError(f"unknown function {tok}", self.toks.line)
            return func
        if kind == "int":
            if type_.is_float:
                return ConstantFloat(type_, float(tok))  # type: ignore[arg-type]
            if not type_.is_int:
                raise ParseError(f"integer literal for type {type_}", self.toks.line)
            return ConstantInt(type_, int(tok))  # type: ignore[arg-type]
        if kind == "float":
            return ConstantFloat(type_, float(tok))  # type: ignore[arg-type]
        if tok == "null":
            return ConstantNull(type_)  # type: ignore[arg-type]
        if tok == "undef":
            return UndefValue(type_)
        raise ParseError(f"expected a value, got {tok!r}", self.toks.line)

    def _typed_value(self) -> Value:
        return self._value(_parse_type(self.toks))

    def _label(self) -> BasicBlock:
        self.toks.expect("label")
        kind, tok = self.toks.next()
        if kind != "local":
            raise ParseError(f"expected a label, got {tok!r}", self.toks.line)
        return self._block_ref(tok[1:])

    # -- instructions ------------------------------------------------------------------
    def _parse_instruction(self, block: BasicBlock) -> None:  # noqa: C901
        toks = self.toks
        kind, tok = toks.next()
        result_name: Optional[str] = None
        if kind == "local":
            result_name = tok[1:]
            toks.expect("=")
            kind, tok = toks.next()
        op = tok

        inst = None
        if op == "ret":
            if toks.accept("void"):
                inst = Ret(None)
            else:
                inst = Ret(self._typed_value())
        elif op == "br":
            if toks.peek() and toks.peek()[1] == "label":
                inst = Branch(self._label())
            else:
                cond_ty = _parse_type(toks)
                cond = self._value(cond_ty)
                toks.expect(",")
                t = self._label()
                toks.expect(",")
                f = self._label()
                inst = Branch(cond, t, f)
        elif op == "switch":
            ty = _parse_type(toks)
            value = self._value(ty)
            toks.expect(",")
            default = self._label()
            toks.expect("[")
            sw = Switch(value, default)
            while not toks.accept("]"):
                case_ty = _parse_type(toks)
                const = self._value(case_ty)
                target = self._label()
                if not isinstance(const, ConstantInt):
                    raise ParseError("switch case must be an integer constant", toks.line)
                sw.add_case(const, target)
                toks.accept(",")
            inst = sw
        elif op == "unreachable":
            inst = Unreachable()
        elif op == "icmp":
            _, word = toks.next()
            pred = _ICMP_PREDS.get(word)
            if pred is None:
                raise ParseError(f"unknown icmp predicate {word!r}", toks.line)
            ty = _parse_type(toks)
            a = self._value(ty)
            toks.expect(",")
            b = self._value(ty)
            inst = ICmp(pred, a, b)
        elif op == "fcmp":
            _, word = toks.next()
            pred = _FCMP_PREDS.get(word)
            if pred is None:
                raise ParseError(f"unknown fcmp predicate {word!r}", toks.line)
            ty = _parse_type(toks)
            a = self._value(ty)
            toks.expect(",")
            b = self._value(ty)
            inst = FCmp(pred, a, b)
        elif op == "select":
            cond = self._typed_value()
            toks.expect(",")
            t = self._typed_value()
            toks.expect(",")
            f = self._typed_value()
            inst = Select(cond, t, f)
        elif op == "alloca":
            inst = Alloca(_parse_type(toks))
        elif op == "load":
            _parse_type(toks)  # result type (redundant)
            toks.expect(",")
            inst = Load(self._typed_value())
        elif op == "store":
            value = self._typed_value()
            toks.expect(",")
            pointer = self._typed_value()
            inst = Store(value, pointer)
        elif op == "gep":
            pointer = self._typed_value()
            indices = []
            while toks.accept(","):
                indices.append(self._typed_value())
            inst = GetElementPtr(pointer, indices)
        elif op in ("call", "invoke"):
            ret_ty = _parse_type(toks)
            kind, callee_tok = toks.next()
            if kind == "global":
                callee = self.module.get_function(callee_tok[1:])
                if callee is None:
                    raise ParseError(f"unknown function {callee_tok}", toks.line)
            elif kind == "local":
                # Indirect call: the local must resolve to a function pointer.
                raise ParseError("indirect calls are not supported in text IR", toks.line)
            else:
                raise ParseError(f"expected a callee, got {callee_tok!r}", toks.line)
            toks.expect("(")
            args = []
            if not toks.accept(")"):
                args.append(self._typed_value())
                while toks.accept(","):
                    args.append(self._typed_value())
                toks.expect(")")
            if op == "call":
                inst = Call(callee, args)
            else:
                toks.expect("to")
                normal = self._label()
                toks.expect("unwind")
                unwind = self._label()
                inst = Invoke(callee, args, normal, unwind)
            if inst.type is not ret_ty:
                raise ParseError(
                    f"call result type {ret_ty} != callee return {inst.type}", toks.line
                )
        elif op == "phi":
            ty = _parse_type(toks)
            phi = Phi(ty)
            while True:
                toks.expect("[")
                value = self._value(ty)
                toks.expect(",")
                kind, label_tok = toks.next()
                if kind != "local":
                    raise ParseError("expected phi incoming label", toks.line)
                toks.expect("]")
                phi.add_incoming(value, self._block_ref(label_tok[1:]))
                if not toks.accept(","):
                    break
            inst = phi
        elif op in _CAST_WORDS:
            value = self._typed_value()
            toks.expect("to")
            inst = Cast(_CAST_WORDS[op], value, _parse_type(toks))
        elif op in _BINARY_WORDS:
            ty = _parse_type(toks)
            a = self._value(ty)
            toks.expect(",")
            b = self._value(ty)
            inst = BinaryOp(_BINARY_WORDS[op], a, b)
        else:
            raise ParseError(f"unknown instruction {op!r}", toks.line)

        if result_name is not None:
            if inst.type.is_void:
                raise ParseError(f"void instruction cannot be named %{result_name}", toks.line)
            inst.name = result_name
            self._define(result_name, inst)
        block.append(inst)

    # -- function -----------------------------------------------------------------
    def parse_body(self, func: Function) -> None:
        self.func = func
        for arg in func.args:
            self._define(arg.name, arg)
        toks = self.toks
        toks.expect("{")
        current: Optional[BasicBlock] = None
        while not toks.accept("}"):
            tok = toks.peek()
            if tok is None:
                raise ParseError("unterminated function body", toks.line)
            kind, value = tok
            # A label is `<word-or-local> :`
            nxt = (
                self.toks.tokens[self.toks.index + 1][1]
                if self.toks.index + 1 < len(self.toks.tokens)
                else None
            )
            if kind in ("word", "int") and nxt == ":":
                toks.next()
                toks.expect(":")
                current = BasicBlock(value, func)
                self._define(value, current)
            else:
                if current is None:
                    raise ParseError("instruction outside any block", toks.line)
                self._parse_instruction(current)
        self._resolve()


def _parse_params(toks: _Tokens) -> Tuple[List[Type], List[str]]:
    toks.expect("(")
    types: List[Type] = []
    names: List[str] = []
    if not toks.accept(")"):
        while True:
            types.append(_parse_type(toks))
            kind, value = toks.peek() or ("", "")
            if kind == "local":
                toks.next()
                names.append(value[1:])
            else:
                names.append(f"arg{len(names)}")
            if not toks.accept(","):
                break
        toks.expect(")")
    return types, names


def parse_module(text: str, name: str = "parsed") -> Module:
    """Parse a whole module from its textual form."""
    toks = _Tokens(text)
    module = Module(name)
    # First pass over token stream: we parse definitions in order; forward
    # references to functions are handled by pre-scanning headers.
    _prescan_headers(text, module)
    while toks.peek() is not None:
        kind, value = toks.next()
        if value == "define":
            ret = _parse_type(toks)
            kind, fname = toks.next()
            if kind != "global":
                raise ParseError(f"expected @name, got {fname!r}", toks.line)
            types, names = _parse_params(toks)
            func = module.get_function(fname[1:])
            assert func is not None  # created by prescan
            for arg, argname in zip(func.args, names):
                arg.name = argname
            _FunctionParser(module, toks).parse_body(func)
        elif value == "declare":
            ret = _parse_type(toks)
            toks.next()
            _parse_params(toks)
        else:
            raise ParseError(f"expected 'define' or 'declare', got {value!r}", toks.line)
    return module


_HEADER_RE = re.compile(
    r"^\s*(define|declare)\s+(?P<rest>.*?@(?P<name>[A-Za-z0-9_.\-$]+)\s*\(.*)$",
    re.MULTILINE,
)


def _prescan_headers(text: str, module: Module) -> None:
    """Create Function shells for all headers so calls can forward-reference."""
    for match in _HEADER_RE.finditer(text):
        header = match.group(0)
        toks = _Tokens(header)
        toks.next()  # define/declare
        is_def = match.group(1) == "define"
        ret = _parse_type(toks)
        _, fname = toks.next()
        types, _ = _parse_params(toks)
        name = fname[1:]
        if module.get_function(name) is None:
            Function(FunctionType(ret, types), name, parent=module, internal=is_def)
