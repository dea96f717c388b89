"""Parser for the textual repro IR (the format produced by the printer).

The grammar is a compact LLVM dialect — see :mod:`repro.ir.printer`.  The
parser is the first layer of ``repro merge``, of the serve daemon's
deltas and of its merges of client text, so its cost is part of a merge's
compile time.  It tokenizes the whole module with one
``findall`` into plain strings; a token's kind is read from its first
character where the grammar branches on it, and a line number is computed
only for a :class:`ParseError`.  The grammar reads the token list through
a plain index that each parsing function takes and returns, so a token
costs a list read and a comparison, not a cursor method call.  A label
reference makes the label's block the first time it is named, and the
label attaches it to the function; only a value used before its
definition gets a placeholder.  Function headers are read from the same
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
    Instruction,
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
_NUMBER_START = frozenset("-0123456789")

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
    """A module's tokens as plain strings, read through an index.

    Neither kinds nor line numbers are stored: the grammar asks
    :func:`_kind` where it branches on one, and :meth:`error` finds a
    token's offset in the text again, which only an error needs.  The list
    ends with one empty string past the last of its :attr:`count` tokens.
    No token is empty, so a read past the end gets a token the grammar
    rejects, and the error raised there reports the end of the input.
    """

    __slots__ = ("text", "tokens", "count")

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
        self.count = len(tokens)
        tokens.append("")
        self.tokens: List[str] = tokens

    def error(self, message: str, index: int) -> ParseError:
        """*message* at the line of token *index*, the cursor when it was
        found (the last token's line at the end).  A cursor past the end
        means the empty token was read, and the error is the end of input."""
        if index > self.count:
            message = "unexpected end of input"
        if not self.count:
            return ParseError(message, 1)
        starts = [m.start() for m in _TOKEN_RE.finditer(self.text) if m.group()[0] != ";"]
        return ParseError(
            message, self.text.count("\n", 0, starts[min(index, self.count - 1)]) + 1
        )

    def expected(self, value: str, index: int) -> ParseError:
        """The error for token *index* not being *value*, found once it is read."""
        return self.error(f"expected {value!r}, got {self.tokens[index]!r}", index + 1)


def _parse_type(toks: _Tokens, i: int) -> Tuple[Type, int]:
    """The type starting at token *i*, and the index just past it."""
    tokens = toks.tokens
    start = i
    try:
        value = tokens[i]
        i += 1
        base = _TYPE_WORDS.get(value)
        if base is None:
            if value[:1] == "i" and value[1:].isdigit():
                base = IntType(int(value[1:]))
            elif value == "[":
                count = tokens[i]
                i += 1
                if not count.isdigit():
                    raise toks.error(f"expected an array length, got {count!r}", i)
                if tokens[i] != "x":
                    raise toks.expected("x", i)
                elem, i = _parse_type(toks, i + 1)
                if tokens[i] != "]":
                    raise toks.expected("]", i)
                i += 1
                base = ArrayType(elem, int(count))
            elif value == "{":
                fields, i = _type_list(toks, i, "}")
                base = StructType(fields)
            else:
                raise toks.error(f"expected a type, got {value!r}", i)
        # Suffixes: "(params)" builds a function type, "*" a pointer.  This is
        # unambiguous because every call-like construct puts the callee token
        # between the return type and its argument parenthesis, so a "(" right
        # after a type can only be a function-type parameter list (the operand
        # spelling of address-taken functions: ``i32 (i32)* @callee``).
        while True:
            suffix = tokens[i]
            if suffix == "(":
                params, i = _type_list(toks, i + 1, ")")
                base = FunctionType(base, params)
            elif suffix == "*":
                i += 1
                base = PointerType(base)
            else:
                return base, i
    except ValueError as exc:  # a type constructor refused the type
        raise toks.error(str(exc), start) from None


def _type_list(toks: _Tokens, i: int, close: str) -> Tuple[List[Type], int]:
    """Comma-separated types from token *i* up to *close*, and the index
    past *close*."""
    tokens = toks.tokens
    types: List[Type] = []
    if tokens[i] == close:
        return types, i + 1
    ty, i = _parse_type(toks, i)
    types.append(ty)
    while tokens[i] == ",":
        ty, i = _parse_type(toks, i + 1)
        types.append(ty)
    if tokens[i] != close:
        raise toks.expected(close, i)
    return types, i + 1


class _FunctionParser:
    """Parses one function body, reading the module's tokens by index.

    Each method takes the index of its first token and returns the index
    past its last.  A label reference makes the label's block the first
    time it is named; the label attaches it to the function, so blocks keep
    their text order.  Only a value used before its definition (by a phi or
    across a back edge) gets a placeholder, replaced once the body is read.
    """

    def __init__(self, module: Module, toks: _Tokens) -> None:
        self.module = module
        self.toks = toks
        self.tokens = toks.tokens
        self.locals: Dict[str, Value] = {}
        self.placeholders: Dict[str, Value] = {}
        #: Blocks named by a reference whose label has not been read yet.
        self.pending: Dict[str, BasicBlock] = {}
        #: Blocks named before their label, with the uses made before it.
        self.forward: List[Tuple[BasicBlock, dict]] = []

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
        block = self.pending.get(label)
        if block is None:
            block = self.pending[label] = BasicBlock(label)
        return block

    def _define(self, name: str, value: Value, i: int) -> None:
        if name in self.locals:
            raise self.toks.error(f"redefinition of %{name}", i)
        self.locals[name] = value

    def _define_label(self, label: str, func: Function, i: int) -> BasicBlock:
        block = self.pending.pop(label, None)
        if block is None:
            block = BasicBlock(label, func)
        else:
            func.add_block(block)
            # A block lists the uses after its label first and the ones
            # before it last (see _resolve): merged code and mem2reg's phis
            # are built in that use order.
            self.forward.append((block, block._uses))
            block._uses = {}
        self._define(label, block, i)
        return block

    def _resolve(self, i: int) -> None:
        for name, ph in self.placeholders.items():
            real = self.locals.get(name)
            if real is None:
                raise self.toks.error(f"use of undefined value %{name}", i)
            ph.replace_all_uses_with(real)
        for label in self.pending:
            raise self.toks.error(f"use of undefined label %{label}", i)
        for block, uses in self.forward:
            later = block._uses
            for user, slots in uses.items():
                later.setdefault(user, []).extend(slots)

    # -- operands -------------------------------------------------------------------
    def _value(self, type_: Type, i: int) -> Tuple[Value, int]:
        tok = self.tokens[i]
        i += 1
        first = tok[:1]
        if first == "%":
            return self._local(tok[1:], type_), i
        if first == "@":
            func = self.module.get_function(tok[1:])
            if func is None:
                raise self.toks.error(f"unknown function {tok}", i)
            return func, i
        if first in _NUMBER_START:
            if "." in tok or tok == "-inf" or type_.is_float:
                return ConstantFloat(type_, float(tok)), i  # type: ignore[arg-type]
            if not type_.is_int:
                raise self.toks.error(f"integer literal for type {type_}", i)
            return ConstantInt(type_, int(tok)), i  # type: ignore[arg-type]
        if tok == "inf" or tok == "nan":
            return ConstantFloat(type_, float(tok)), i  # type: ignore[arg-type]
        if tok == "null":
            return ConstantNull(type_), i  # type: ignore[arg-type]
        if tok == "undef":
            return UndefValue(type_), i
        raise self.toks.error(f"expected a value, got {tok!r}", i)

    def _typed_value(self, i: int) -> Tuple[Value, int]:
        type_, i = _parse_type(self.toks, i)
        return self._value(type_, i)

    def _label(self, i: int) -> Tuple[BasicBlock, int]:
        tokens = self.tokens
        if tokens[i] != "label":
            raise self.toks.expected("label", i)
        tok = tokens[i + 1]
        i += 2
        if tok[:1] != "%":
            raise self.toks.error(f"expected a label, got {tok!r}", i)
        return self._block_ref(tok[1:]), i

    def _expect(self, value: str, i: int) -> int:
        if self.tokens[i] != value:
            raise self.toks.expected(value, i)
        return i + 1

    # -- instructions ------------------------------------------------------------------
    def _parse_instruction(self, block: BasicBlock, i: int) -> int:  # noqa: C901
        toks = self.toks
        tokens = self.tokens
        expect = self._expect
        op = tokens[i]
        i += 1
        result_name: Optional[str] = None
        if op[0] == "%":
            result_name = op[1:]
            i = expect("=", i)
            op = tokens[i]
            i += 1

        inst: Instruction
        binary = _BINARY_WORDS.get(op)
        if binary is not None:
            ty, i = _parse_type(toks, i)
            a, i = self._value(ty, i)
            b, i = self._value(ty, expect(",", i))
            inst = BinaryOp(binary, a, b)
        elif op == "load":
            i = _parse_type(toks, i)[1]  # result type (redundant)
            pointer, i = self._typed_value(expect(",", i))
            inst = Load(pointer)
        elif op == "store":
            value, i = self._typed_value(i)
            pointer, i = self._typed_value(expect(",", i))
            inst = Store(value, pointer)
        elif op == "br":
            if tokens[i] == "label":
                target, i = self._label(i)
                inst = Branch(target)
            else:
                cond_ty, i = _parse_type(toks, i)
                cond, i = self._value(cond_ty, i)
                t, i = self._label(expect(",", i))
                f, i = self._label(expect(",", i))
                inst = Branch(cond, t, f)
        elif op == "icmp" or op == "fcmp":
            word = tokens[i]
            i += 1
            pred = (_ICMP_PREDS if op == "icmp" else _FCMP_PREDS).get(word)
            if pred is None:
                raise toks.error(f"unknown {op} predicate {word!r}", i)
            ty, i = _parse_type(toks, i)
            a, i = self._value(ty, i)
            b, i = self._value(ty, expect(",", i))
            inst = ICmp(pred, a, b) if op == "icmp" else FCmp(pred, a, b)  # type: ignore[arg-type]
        elif op == "ret":
            if tokens[i] == "void":
                i += 1
                inst = Ret(None)
            else:
                value, i = self._typed_value(i)
                inst = Ret(value)
        elif op == "phi":
            ty, i = _parse_type(toks, i)
            phi = Phi(ty)
            while True:
                value, i = self._value(ty, expect("[", i))
                i = expect(",", i)
                label_tok = tokens[i]
                i += 1
                if label_tok[:1] != "%":
                    raise toks.error("expected phi incoming label", i)
                i = expect("]", i)
                phi.add_incoming(value, self._block_ref(label_tok[1:]))
                if tokens[i] != ",":
                    break
                i += 1
            inst = phi
        elif op == "call" or op == "invoke":
            ret_ty, i = _parse_type(toks, i)
            callee_tok = tokens[i]
            i += 1
            first = callee_tok[:1]
            if first == "@":
                callee = self.module.get_function(callee_tok[1:])
                if callee is None:
                    raise toks.error(f"unknown function {callee_tok}", i)
            elif first == "%":
                # Indirect call: the local must resolve to a function pointer.
                raise toks.error("indirect calls are not supported in text IR", i)
            else:
                raise toks.error(f"expected a callee, got {callee_tok!r}", i)
            i = expect("(", i)
            args = []
            if tokens[i] == ")":
                i += 1
            else:
                arg, i = self._typed_value(i)
                args.append(arg)
                while tokens[i] == ",":
                    arg, i = self._typed_value(i + 1)
                    args.append(arg)
                i = expect(")", i)
            if op == "call":
                inst = Call(callee, args)
            else:
                normal, i = self._label(expect("to", i))
                unwind, i = self._label(expect("unwind", i))
                inst = Invoke(callee, args, normal, unwind)
            if inst.type is not ret_ty:
                raise toks.error(
                    f"call result type {ret_ty} != callee return {inst.type}", i
                )
        elif op == "gep":
            pointer, i = self._typed_value(i)
            indices = []
            while tokens[i] == ",":
                index, i = self._typed_value(i + 1)
                indices.append(index)
            inst = GetElementPtr(pointer, indices)
        elif op == "alloca":
            ty, i = _parse_type(toks, i)
            inst = Alloca(ty)
        elif op == "select":
            cond, i = self._typed_value(i)
            t, i = self._typed_value(expect(",", i))
            f, i = self._typed_value(expect(",", i))
            inst = Select(cond, t, f)
        elif op in _CAST_WORDS:
            value, i = self._typed_value(i)
            dest, i = _parse_type(toks, expect("to", i))
            inst = Cast(_CAST_WORDS[op], value, dest)
        elif op == "switch":
            ty, i = _parse_type(toks, i)
            value, i = self._value(ty, i)
            default, i = self._label(expect(",", i))
            i = expect("[", i)
            sw = Switch(value, default)
            while tokens[i] != "]":
                case_ty, i = _parse_type(toks, i)
                const, i = self._value(case_ty, i)
                target, i = self._label(i)
                if not isinstance(const, ConstantInt):
                    raise toks.error("switch case must be an integer constant", i)
                sw.add_case(const, target)
                if tokens[i] == ",":
                    i += 1
            i += 1
            inst = sw
        elif op == "unreachable":
            inst = Unreachable()
        else:
            raise toks.error(f"unknown instruction {op!r}", i)

        if result_name is not None:
            if inst.type.is_void:
                raise toks.error(f"void instruction cannot be named %{result_name}", i)
            inst.name = result_name
            self._define(result_name, inst, i)
        block.append(inst)
        return i

    # -- function -----------------------------------------------------------------
    def parse_body(self, func: Function, i: int) -> int:
        for arg in func.args:
            self._define(arg.name, arg, i)
        i = self._expect("{", i)
        tokens = self.tokens
        current: Optional[BasicBlock] = None
        while True:
            tok = tokens[i]
            if tok == "}":
                i += 1
                break
            if not tok:
                raise self.toks.error("unterminated function body", i)
            # A label is `<word-or-int> :`
            if tokens[i + 1] == ":" and _kind(tok) in ("word", "int"):
                i += 2
                current = self._define_label(tok, func, i)
            else:
                if current is None:
                    raise self.toks.error("instruction outside any block", i)
                i = self._parse_instruction(current, i)
        self._resolve(i)
        return i


def _parse_header(toks: _Tokens, i: int) -> Tuple[Type, str, List[Type], List[str], int]:
    """``TYPE @name(PARAMS)``, the header after ``define``/``declare``:
    the return type, the name, the parameter types and names, and the index
    past the header."""
    tokens = toks.tokens
    ret, i = _parse_type(toks, i)
    fname = tokens[i]
    i += 1
    if fname[:1] != "@":
        raise toks.error(f"expected @name, got {fname!r}", i)
    if tokens[i] != "(":
        raise toks.expected("(", i)
    i += 1
    types: List[Type] = []
    names: List[str] = []
    if tokens[i] == ")":
        return ret, fname[1:], types, names, i + 1
    while True:
        ty, i = _parse_type(toks, i)
        types.append(ty)
        value = tokens[i]
        if value[:1] == "%":
            i += 1
            names.append(value[1:])
        else:
            names.append(f"arg{len(names)}")
        if tokens[i] != ",":
            break
        i += 1
    if tokens[i] != ")":
        raise toks.expected(")", i)
    return ret, fname[1:], types, names, i + 1


def parse_module(text: str, name: str = "parsed") -> Module:
    """Parse a whole module from its textual form."""
    toks = _Tokens(text)
    module = Module(name)
    # Function shells first, so calls can reference functions defined later.
    _prescan_headers(toks, module)
    tokens = toks.tokens
    i = 0
    while i < toks.count:
        value = tokens[i]
        i += 1
        if value == "define":
            _, fname, _, names, i = _parse_header(toks, i)
            func = module.get_function(fname)
            assert func is not None  # created by prescan
            for arg, argname in zip(func.args, names):
                arg.name = argname
            i = _FunctionParser(module, toks).parse_body(func, i)
        elif value == "declare":
            i = _parse_header(toks, i)[-1]
        else:
            raise toks.error(f"expected 'define' or 'declare', got {value!r}", i)
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
    while index < toks.count:
        tok = tokens[index]
        if tok == "{":
            index = _body_end(tokens, index + 1)
        elif (tok == "define" or tok == "declare") and _names_function(tokens, index + 1):
            ret, fname, types, _, index = _parse_header(toks, index + 1)
            if module.get_function(fname) is None:
                Function(
                    FunctionType(ret, types), fname, parent=module, internal=tok == "define"
                )
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
        if tok[:1] == "@":
            return tokens[index + 1] == "("
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
