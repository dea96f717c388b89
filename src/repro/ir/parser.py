"""Parser for the textual repro IR (the format produced by the printer).

The grammar is a compact LLVM dialect — see :mod:`repro.ir.printer`.  The
parser is the first layer of ``repro merge`` and of every merge the serve
daemon runs (it re-parses its corpus dump per request), so its cost is part
of a merge's compile time.  It tokenizes the whole module with one
``findall`` into plain strings; a token's kind is read from its first
character where the grammar branches on it, and a line number is computed
only for a :class:`ParseError`.  Function headers are read from the same
tokens before any body, so calls can reference functions defined later.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .basicblock import BasicBlock
from .function import Function
from .instructions import (
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
from .module import Module
from .types import (
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
from .values import (
    Argument,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    UndefValue,
    Value,
)

__all__ = ["ParseError", "parse_module", "parse_function"]


class ParseError(Exception):
    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


#: One token, in match priority: a local, a global, a float, an int, a
#: word, a punctuator or a comment.  ``inf``/``nan`` are floats only where no
#: name character follows (``info:`` is a label).
_TOKEN = r"""
    %[A-Za-z0-9_.\-]+
  | @[A-Za-z0-9_.\-$]+
  | -?\d+\.\d+(?:e[-+]?\d+)?
  | (?:-?inf|nan)(?![A-Za-z0-9_.\-])
  | -?\d+
  | [A-Za-z_][A-Za-z0-9_.\-]*
  | [*(){}\[\],:=]
  | ;[^\n]*
"""
_ONE_TOKEN_RE = re.compile(_TOKEN, re.VERBOSE)
#: Every token of a text in one ``findall``: whitespace matches nothing and
#: is skipped, and the last alternative takes the rest of the text from the
#: first character that starts no token.
_TOKEN_RE = re.compile(_TOKEN + r"| \S[\s\S]*", re.VERBOSE)

_WORD_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_PUNCT = frozenset("*(){}[],:=")

_BINARY_WORDS = {op.name.lower(): op for op in BINARY_OPCODES}
_CAST_WORDS = {op.name.lower(): op for op in CAST_OPCODES}
_ICMP_PREDS = {p.name.lower(): p for p in ICmpPred}
_FCMP_PREDS = {p.name.lower(): p for p in FCmpPred}
#: Type keywords and the common integer widths; other ``iN`` are built
#: when seen.
_TYPE_WORDS: Dict[str, Type] = {
    "void": VOID,
    "label": LABEL,
    "float": FLOAT,
    "double": DOUBLE,
    **{f"i{bits}": IntType(bits) for bits in (1, 8, 16, 32, 64)},
}


def _kind(tok: str) -> str:
    """``local``, ``global``, ``int``, ``float``, ``word`` or ``punct``,
    read from the token's first character."""
    first = tok[0]
    if first == "%":
        return "local"
    if first == "@":
        return "global"
    if first in _WORD_START:
        return "float" if tok == "inf" or tok == "nan" else "word"
    if first in _PUNCT:
        return "punct"
    return "float" if "." in tok or tok == "-inf" else "int"


class _Tokens:
    """A module's tokens as plain strings, and a cursor over them.

    Neither kinds nor line numbers are stored: the grammar asks
    :func:`_kind` where it branches on one, and :attr:`line` finds the
    cursor's offset in the text again, which only an error needs.
    """

    __slots__ = ("text", "tokens", "index")

    def __init__(self, text: str) -> None:
        tokens = _TOKEN_RE.findall(text)
        if tokens and _ONE_TOKEN_RE.fullmatch(tokens[-1]) is None:
            pos = len(text) - len(tokens[-1])
            raise ParseError(
                f"unexpected character {text[pos]!r}", text.count("\n", 0, pos) + 1
            )
        if ";" in text:
            tokens = [tok for tok in tokens if tok[0] != ";"]
        self.text = text
        self.tokens: List[str] = tokens
        self.index = 0

    @property
    def line(self) -> int:
        """Line of the current token, else of the last one, else 1."""
        if not self.tokens:
            return 1
        starts = [m.start() for m in _TOKEN_RE.finditer(self.text) if m.group()[0] != ";"]
        return self.text.count("\n", 0, starts[min(self.index, len(starts) - 1)]) + 1

    def peek(self) -> Optional[str]:
        index = self.index
        return self.tokens[index] if index < len(self.tokens) else None

    def next(self) -> str:
        index = self.index
        if index >= len(self.tokens):
            raise ParseError("unexpected end of input", self.line)
        self.index = index + 1
        return self.tokens[index]

    def expect(self, value: str) -> str:
        got = self.next()
        if got != value:
            raise ParseError(f"expected {value!r}, got {got!r}", self.line)
        return got

    def accept(self, value: str) -> bool:
        index = self.index
        if index < len(self.tokens) and self.tokens[index] == value:
            self.index = index + 1
            return True
        return False


def _parse_type(toks: _Tokens) -> Type:
    start = toks.index
    try:
        value = toks.next()
        base: Type
        if value in _TYPE_WORDS:
            base = _TYPE_WORDS[value]
        elif value[0] == "i" and value[1:].isdigit():
            base = IntType(int(value[1:]))
        elif value == "[":
            count = toks.next()
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
            suffix = toks.peek()
            if suffix == "(":
                toks.index += 1
                params = []
                if not toks.accept(")"):
                    params.append(_parse_type(toks))
                    while toks.accept(","):
                        params.append(_parse_type(toks))
                    toks.expect(")")
                base = FunctionType(base, params)
            elif suffix == "*":
                toks.index += 1
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
        tok = self.toks.next()
        kind = _kind(tok)
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
        tok = self.toks.next()
        if tok[0] != "%":
            raise ParseError(f"expected a label, got {tok!r}", self.toks.line)
        return self._block_ref(tok[1:])

    # -- instructions ------------------------------------------------------------------
    def _parse_instruction(self, block: BasicBlock) -> None:  # noqa: C901
        toks = self.toks
        op = toks.next()
        result_name: Optional[str] = None
        if op[0] == "%":
            result_name = op[1:]
            toks.expect("=")
            op = toks.next()

        inst = None
        if op == "ret":
            if toks.accept("void"):
                inst = Ret(None)
            else:
                inst = Ret(self._typed_value())
        elif op == "br":
            if toks.peek() == "label":
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
            word = toks.next()
            pred = _ICMP_PREDS.get(word)
            if pred is None:
                raise ParseError(f"unknown icmp predicate {word!r}", toks.line)
            ty = _parse_type(toks)
            a = self._value(ty)
            toks.expect(",")
            b = self._value(ty)
            inst = ICmp(pred, a, b)
        elif op == "fcmp":
            word = toks.next()
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
            callee_tok = toks.next()
            kind = _kind(callee_tok)
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
                label_tok = toks.next()
                if label_tok[0] != "%":
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
        tokens = toks.tokens
        while not toks.accept("}"):
            value = toks.peek()
            if value is None:
                raise ParseError("unterminated function body", toks.line)
            # A label is `<word-or-int> :`
            at = toks.index + 1
            if at < len(tokens) and tokens[at] == ":" and _kind(value) in ("word", "int"):
                toks.index = at + 1
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
            value = toks.peek()
            if value is not None and value[0] == "%":
                toks.index += 1
                names.append(value[1:])
            else:
                names.append(f"arg{len(names)}")
            if not toks.accept(","):
                break
        toks.expect(")")
    return types, names


def _parse_header(toks: _Tokens) -> Tuple[Type, str, List[Type], List[str]]:
    """``TYPE @name(PARAMS)``, the header after ``define``/``declare``:
    the return type, the name, the parameter types and names."""
    ret = _parse_type(toks)
    fname = toks.next()
    if fname[0] != "@":
        raise ParseError(f"expected @name, got {fname!r}", toks.line)
    types, names = _parse_params(toks)
    return ret, fname[1:], types, names


def parse_module(text: str, name: str = "parsed") -> Module:
    """Parse a whole module from its textual form."""
    toks = _Tokens(text)
    module = Module(name)
    # Function shells first, so calls can reference functions defined later.
    _prescan_headers(toks, module)
    toks.index = 0
    while toks.peek() is not None:
        value = toks.next()
        if value == "define":
            _, fname, _, names = _parse_header(toks)
            func = module.get_function(fname)
            assert func is not None  # created by prescan
            for arg, argname in zip(func.args, names):
                arg.name = argname
            _FunctionParser(module, toks).parse_body(func)
        elif value == "declare":
            _parse_header(toks)
        else:
            raise ParseError(f"expected 'define' or 'declare', got {value!r}", toks.line)
    return module


def _prescan_headers(toks: _Tokens, module: Module) -> None:
    """Create a Function shell for every header, in text order.

    Walks the tokens at top level and skips each body by brace depth.  A
    ``define``/``declare`` whose first global is followed by ``(`` is a
    header: it is parsed here, so its errors raise before any body is read,
    and it creates its function unless an earlier header named it.  A
    ``define``/``declare`` without ``@name(`` names no function; the main
    parse reports it where it stands.
    """
    tokens = toks.tokens
    index = 0
    while index < len(tokens):
        tok = tokens[index]
        if tok == "{":
            index = _body_end(tokens, index + 1)
        elif (tok == "define" or tok == "declare") and _names_function(tokens, index + 1):
            toks.index = index + 1
            ret, fname, types, _ = _parse_header(toks)
            if module.get_function(fname) is None:
                Function(
                    FunctionType(ret, types), fname, parent=module, internal=tok == "define"
                )
            index = toks.index
        else:
            index += 1


def _body_end(tokens: List[str], start: int) -> int:
    """Index just past the ``}`` that closes the ``{`` before *start*, or
    the end of *tokens* if none does."""
    depth = 1
    while depth:
        try:
            close = tokens.index("}", start)
        except ValueError:
            return len(tokens)
        depth += tokens[start:close].count("{") - 1
        start = close + 1
    return start


def _names_function(tokens: List[str], start: int) -> bool:
    """Whether the first global from *start* on, before the next
    ``define``/``declare``, is followed by ``(``."""
    for index in range(start, len(tokens)):
        tok = tokens[index]
        if tok[0] == "@":
            return tokens[index + 1 : index + 2] == ["("]
        if tok == "define" or tok == "declare":
            return False
    return False


def parse_function(text: str, module: Optional[Module] = None) -> Function:
    """Parse a single function definition; returns the Function."""
    mod = module if module is not None else Module("scratch")
    before = {f.name for f in mod.functions}
    parsed = parse_module(text)
    # Re-link the parsed functions into the caller's module.
    first_def: Optional[Function] = None
    for func in parsed.functions:
        parsed.remove_function(func)
        if func.name in before:
            raise ParseError(f"function @{func.name} already exists", 1)
        mod.add_function(func)
        if first_def is None and not func.is_declaration:
            first_def = func
    if first_def is None:
        raise ParseError("no function definition found", 1)
    return first_def
