"""The one-pass tokenizer against the per-token tokenizer it replaced.

``tests/reference/parser.py`` keeps the old parser: a ``_TOKEN_RE.match``
per token with eager kinds and lines, and a line-based header regex whose
matches are tokenized again.  On generated modules, with comments and blank
lines inserted, both parsers must build the same module.  On corrupted
text, both must raise the same error at the same line.

One difference is by design.  The oracle tokenizes each header line on its
own, so the line of an error it finds in a header counts from the start of
that header's match, not of the module.  For those errors the oracle's
header is re-read from the whole module's tokens, which gives the line the
production parser must report; the message must not change.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import Module, ParseError, parse_module, print_module
from repro.workloads import build_workload
from repro.workloads.suites import WorkloadConfig
from tests.reference import parser as ref

#: Grammar the generated workloads do not emit: a declaration, invoke,
#: switch, struct, array and float operands, address-taken functions.
EXTRA = """
declare i32 @ext(i32)

define i32 @kitchen(i32 %x, double %d, i1 %flag) {
entry:
  %a = alloca [4 x i32]
  %p = gep [4 x i32]* %a, i64 0, i64 2
  store i32 %x, i32* %p
  %l = load i32, i32* %p
  %s = alloca { i32, double }
  %f = sitofp i32 %l to double
  %g = fadd double %f, 4.5
  %c = fcmp olt double %g, %d
  %e = call i32 @ext(i32 %l)
  %r = invoke i32 @kitchen(i32 %e, double %g, i1 %c) to label %ok unwind label %bad
ok:
  switch i32 %r, label %bad [i32 1 label %ok, i32 2 label %bad]
bad:
  ret i32 0
}
"""

#: The inputs of ``tests/ir/test_printer_parser.py::TestParseErrors``, then
#: label errors.
PARSE_ERROR_TEXTS = [
    "define i32 @f() {\nentry:\n  %x = frob i32 1, 2\n  ret i32 %x\n}",
    "define i32 @f() {\nentry:\n  ret i32 %nope\n}",
    "define i32 @f() {\nentry:\n  br label %nowhere\n}",
    "define i32 @f(i32 %x) {\nentry:\n  %v = add i32 %x, 1\n  %v = add i32 %x, 2\n  ret i32 %v\n}",
    "define i32 @f(i32 %x) {\nentry:\n  %r = call i32 @missing(i32 %x)\n  ret i32 %r\n}",
    "define wibble @f() {\nentry:\n  ret void\n}",
    "define i1 @f(i32 %a) {\nentry:\n  %c = icmp sl- i32 %a, 1\n  ret i1 %c\n}",
    "define i1 @f(double %a) {\nentry:\n  %c = fcmp xx double %a, 1.0\n  ret i1 %c\n}",
    "define i32 @f() {\nentry:\n  %p = alloca i0\n  ret i32 0\n}",
    "define i32 @f() {\nentry:\n  %p = alloca void*\n  ret i32 0\n}",
    "define i32 @f() {\nentry:\n  %p = alloca [x x i32]\n  ret i32 0\n}",
    # Labels: used by a phi, a switch or an invoke but never defined,
    # defined twice, named like an argument or a value, numeric, and named
    # by a phi before the block is defined (valid up to a later error).
    "define i32 @f(i32 %x) {\nentry:\n  br label %next\nnext:\n"
    "  %p = phi i32 [ %x, %entry ], [ %x, %gone ]\n  ret i32 %p\n}",
    "define i32 @f(i32 %x) {\nentry:\n  switch i32 %x, label %out [i32 1 label %gone]\n"
    "out:\n  ret i32 0\n}",
    "declare i32 @g(i32)\n\ndefine i32 @f(i32 %x) {\nentry:\n"
    "  %r = invoke i32 @g(i32 %x) to label %ok unwind label %gone\nok:\n  ret i32 %r\n}",
    "define i32 @f() {\nentry:\n  br label %a\na:\n  br label %a\na:\n  ret i32 0\n}",
    "define i32 @f(i32 %x) {\nentry:\n  br label %x\nx:\n  ret i32 0\n}",
    "define i32 @f(i32 %x) {\nentry:\n  br label %x\n}",
    "define i32 @f(i32 %x) {\nentry:\n  %v = add i32 %x, 1\n  br label %v\nv:\n  ret i32 %v\n}",
    "define i32 @f(i32 %x) {\nentry:\n  br label %v\nbody:\n  %v = add i32 %x, 1\n"
    "  ret i32 %v\n}",
    "define i32 @f() {\n0:\n  br label %1\n1:\n  br label %2\n}",
    "define i32 @f(i32 %x) {\nentry:\n  br label %loop\nloop:\n"
    "  %i = phi i32 [ %x, %entry ], [ %n, %latch ]\n  %n = add i32 %i, 1\n"
    "  br label %latch\nlatch:\n  %n = add i32 %x, 2\n  br label %loop\n}",
]

#: Lines the property inserts between the module's lines.
FILLER = ("", "   ", "; a comment", "  ; define i32 @fake(i32 %x) {", ";")


def _uses(module):
    """Every argument's, block's and instruction's uses in use-list order,
    each as its user's position and operand index: merged code and
    mem2reg's phis are built in this order."""
    where = {}
    values = []
    for f, func in enumerate(module.functions):
        values.extend(func.args)
        for b, block in enumerate(func.blocks):
            values.append(block)
            for i, inst in enumerate(block.instructions):
                where[id(inst)] = (f, b, i)
                values.append(inst)
    return [[(where[id(user)], index) for user, index in v.uses()] for v in values]


def _outcome(parse, text):
    """The printed module with each function's ``internal`` flag and its
    use lists, or the error as its type, message and line."""
    try:
        module = parse(text)
    except Exception as exc:  # the two parsers must fail the same way
        return ("error", type(exc).__name__, str(exc), getattr(exc, "line", None))
    flags = [(f.name, f.internal) for f in module.functions]
    return ("module", print_module(module), flags, _uses(module))


def _message(exc: ParseError) -> str:
    return str(exc).split(": ", 1)[1]


def _oracle_header_error(text):
    """The oracle's header-prescan error on *text*, at its module line.

    None when the oracle fails before its prescan (tokenizing) or its
    prescan raises nothing.  Otherwise the failing header is parsed again
    from the module's tokens, which moves the error's line, but not its
    message, to where the production parser reports it.
    """
    try:
        module_tokens = ref._Tokens(text)
    except ParseError:
        return None
    shells = Module("probe")
    for match in ref._HEADER_RE.finditer(text):
        try:
            ref._prescan_headers(match.group(0), shells)
        except ParseError as exc:
            on_its_line = exc
            break
    else:
        return None
    define_line = text.count("\n", 0, match.start(1)) + 1
    module_tokens.index = 1 + next(
        i
        for i, (_, value, line) in enumerate(module_tokens.tokens)
        if line == define_line and value == match.group(1)
    )
    with pytest.raises(ParseError) as in_module:
        ref._parse_type(module_tokens)
        module_tokens.next()
        ref._parse_params(module_tokens)
    assert _message(in_module.value) == _message(on_its_line)
    return ("error", "ParseError", str(in_module.value), in_module.value.line)


def assert_same_outcome(text):
    expected = _oracle_header_error(text) or _outcome(ref.parse_module, text)
    assert _outcome(parse_module, text) == expected


def _module_text(size, seed, filler, extra):
    text = print_module(build_workload(size, "diff", WorkloadConfig(seed=seed)))
    if extra:
        text += EXTRA
    lines = text.split("\n")
    for position, line in sorted(filler, reverse=True):
        lines.insert(position % (len(lines) + 1), FILLER[line])
    return "\n".join(lines)


modules = st.builds(
    _module_text,
    size=st.integers(1, 24),
    seed=st.integers(0, 2**31 - 1),
    filler=st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(0, len(FILLER) - 1)), max_size=12
    ),
    extra=st.booleans(),
)


class TestSameModule:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(text=modules)
    def test_generated_modules(self, text):
        result = _outcome(parse_module, text)
        assert result[0] == "module"
        assert result == _outcome(ref.parse_module, text)


class TestSameError:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        text=modules,
        offset=st.integers(0, 10**7),
        in_header=st.booleans(),
        replacement=st.sampled_from(["$", "#", "!", "-", None]),
    )
    def test_corrupted_modules(self, text, offset, in_header, replacement):
        if in_header:
            # Aim at a header line: a random character of a random header.
            starts = [m.start() for m in re.finditer(r"(?m)^(define|declare) ", text)]
            start = starts[offset % len(starts)]
            offset = start + offset % (text.index("\n", start) - start + 1)
        offset %= len(text)
        if replacement is None:
            text = text[:offset]
        else:
            text = text[:offset] + replacement + text[offset + 1 :]
        assert_same_outcome(text)

    @pytest.mark.parametrize("text", PARSE_ERROR_TEXTS)
    def test_parse_error_cases(self, text):
        assert _outcome(parse_module, text)[1] == "ParseError"
        assert_same_outcome(text)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   \n; only a comment\n",
            "define",
            "define i32 @f(i32 %a) {\nentry:\n  ret i32 %a\n",
            "define i32 @f(i32 %a) {\nentry:\n  %x = add i32 %a, 1 ; tail\n  ret i32 %y\n}\n",
            "\n\n\ndefine i32 @f(i32 -a) {\nentry:\n  ret i32 0\n}\n",
            "\n\n\ndefine i-32 @f(i32 %a) {\nentry:\n  ret i32 0\n}\n",
            "define i32 @f(i32 %a) {\nentry:\n  ret i32 0\n}\n\n\ndefine i32 @g(i32 %a$) {\n",
            "define i32 @f(i32 %a) {\nentry:\n  ret i32 0\n}\n}\n",
            "define i32 @f() {\nentry:\n  %x = call i32 @g()\n  ret i32 %x\n}\ndefine i32 @g-i32 %a) {\n",
            "define i32 @f() {\n-inf:\n  ret i32 0\n}\n",
            "define i32 @f() {\nnan:\n  ret i32 0\n}\n",
            "define i32 @f() {\nentry:\n  ret i32 -inf\n}\n",
            "define i32 @f(i32 %x) {\n0:\n  br label %2\n2:\n"
            "  %p = phi i32 [ %x, %0 ], [ %n, %3 ]\n  %n = add i32 %p, 1\n"
            "  br label %3\n3:\n  br label %2\n}\n",
        ],
    )
    def test_edge_texts(self, text):
        assert_same_outcome(text)
