"""Round-trip and error tests for the textual IR."""

import math

import pytest

from repro.ir import (
    ParseError,
    parse_function,
    parse_module,
    print_function,
    print_module,
    verify_module,
)
from tests.conftest import build_diamond, build_loop, build_straightline


def roundtrip(module):
    text = print_module(module)
    reparsed = parse_module(text)
    assert print_module(reparsed) == text
    verify_module(reparsed)
    return reparsed


class TestRoundTrip:
    def test_straightline(self, module):
        build_straightline(module)
        roundtrip(module)

    def test_diamond(self, module):
        build_diamond(module)
        roundtrip(module)

    def test_loop_with_back_edge_phis(self, module):
        build_loop(module)
        roundtrip(module)

    def test_calls_between_functions(self, module):
        text = """
define i32 @callee(i32 %x) {
entry:
  %r = add i32 %x, 1
  ret i32 %r
}

define i32 @caller(i32 %x) {
entry:
  %r = call i32 @callee(i32 %x)
  ret i32 %r
}
"""
        m = parse_module(text)
        verify_module(m)
        roundtrip(m)

    def test_forward_function_reference(self):
        text = """
define i32 @caller(i32 %x) {
entry:
  %r = call i32 @callee(i32 %x)
  ret i32 %r
}

define i32 @callee(i32 %x) {
entry:
  ret i32 %x
}
"""
        m = parse_module(text)
        verify_module(m)

    def test_all_shapes(self):
        text = """
define void @ext(i32 %x) {
entry:
  ret void
}

define i32 @kitchen(i32 %x, double %d, i1 %flag) {
entry:
  %a = alloca [4 x i32]
  %p = gep [4 x i32]* %a, i64 0, i64 2
  store i32 %x, i32* %p
  %l = load i32, i32* %p
  %wide = sext i32 %l to i64
  %narrow = trunc i64 %wide to i16
  %back = zext i16 %narrow to i32
  %f = sitofp i32 %back to double
  %g = fadd double %f, %d
  %c = fcmp olt double %g, 4.5
  %s = select i1 %c, i32 %back, i32 %x
  call void @ext(i32 %s)
  switch i32 %s, label %other [i32 1 label %one, i32 2 label %two]
one:
  ret i32 1
two:
  ret i32 2
other:
  %cmp = icmp slt i32 %s, 0
  br i1 %cmp, label %one, label %two
}
"""
        m = parse_module(text)
        verify_module(m)
        roundtrip(m)

    def test_invoke(self):
        text = """
define i32 @callee(i32 %x) {
entry:
  ret i32 %x
}

define i32 @f(i32 %x) {
entry:
  %r = invoke i32 @callee(i32 %x) to label %ok unwind label %bad
ok:
  ret i32 %r
bad:
  unreachable
}
"""
        m = parse_module(text)
        verify_module(m)
        roundtrip(m)


class TestParseErrors:
    def test_unknown_instruction(self):
        with pytest.raises(ParseError):
            parse_module("define i32 @f() {\nentry:\n  %x = frob i32 1, 2\n  ret i32 %x\n}")

    def test_undefined_value(self):
        with pytest.raises(ParseError):
            parse_module("define i32 @f() {\nentry:\n  ret i32 %nope\n}")

    def test_undefined_label(self):
        with pytest.raises(ParseError):
            parse_module("define i32 @f() {\nentry:\n  br label %nowhere\n}")

    def test_redefinition(self):
        with pytest.raises(ParseError):
            parse_module(
                "define i32 @f(i32 %x) {\nentry:\n  %v = add i32 %x, 1\n  %v = add i32 %x, 2\n  ret i32 %v\n}"
            )

    def test_unknown_callee(self):
        with pytest.raises(ParseError):
            parse_module(
                "define i32 @f(i32 %x) {\nentry:\n  %r = call i32 @missing(i32 %x)\n  ret i32 %r\n}"
            )

    def test_type_gibberish(self):
        with pytest.raises(ParseError):
            parse_module("define wibble @f() {\nentry:\n  ret void\n}")


class TestParseFunction:
    def test_into_existing_module(self, module):
        func = parse_function(
            "define i32 @g(i32 %x) {\nentry:\n  ret i32 %x\n}", module
        )
        assert module.get_function("g") is func

    def test_requires_definition(self, module):
        with pytest.raises(ParseError):
            parse_function("declare i32 @g(i32)", module)


class TestPrinter:
    def test_declaration_printing(self, module):
        from repro.ir import FunctionType, I32, Function

        Function(FunctionType(I32, [I32]), "ext", parent=module, internal=False)
        text = print_module(module)
        assert "declare i32 @ext" in text

    def test_function_header(self, module):
        func = build_straightline(module)
        text = print_function(func)
        assert text.startswith("define i32 @line(i32 %arg0)")


class TestNamesStartingWithFloatWords:
    def test_inf_and_nan_prefixed_labels_round_trip(self):
        text = """
define double @f(double %x, i1 %c) {
entry:
  br i1 %c, label %info, label %nanny
info:
  %a = fadd double %x, inf
  br label %inflate
nanny:
  %b = fadd double %x, -inf
  br label %inflate
inflate:
  %p = phi double [ %a, %info ], [ %b, %nanny ]
  %r = fmul double %p, nan
  ret double %r
}
"""
        func = roundtrip(parse_module(text)).get_function("f")
        assert [b.name for b in func.blocks] == ["entry", "info", "nanny", "inflate"]
        consts = [
            inst.operands[1].value
            for inst in func.instructions()
            if inst.opcode.name in ("FADD", "FMUL")
        ]
        assert consts[:2] == [math.inf, -math.inf] and math.isnan(consts[2])


class TestHeaders:
    BODY = "entry:\n  %r = call i32 @g(i32 %a)\n  ret i32 %r\n}\n\n"
    CALLEE = "define i32 @g(i32 %b) {\nentry:\n  ret i32 %b\n}\n"

    def test_header_split_across_lines(self):
        one_line = parse_module("define i32 @f(i32 %a) {\n" + self.BODY + self.CALLEE)
        split = parse_module(
            "define i32\n  @f(\n  i32 %a\n) {\n" + self.BODY + "define\ni32 @g(i32 %b)\n{\n"
            "entry:\n  ret i32 %b\n}\n"
        )
        assert print_module(split) == print_module(one_line)
        assert [(f.name, f.internal) for f in split.functions] == [
            (f.name, f.internal) for f in one_line.functions
        ]

    @pytest.mark.parametrize(
        "header",
        [
            "define i32 @f(i32 %a {",
            "define i32 @f i32 %a) {",
            "define @f(i32 %a) {",
            "define i32 f(i32 %a) {",
            "define i32 (i32 %a) {",
            "define i32\n  @f(i32 %a {",
            "define i32\n  @f(",
            "define { i32 @f(i32 %a) {",
            "define i32 @f(i32 %a)",
            "declare i32 @f(i32",
            "declare i32 f(i32)\ndefine i32 @f(i32 %a) {",
        ],
    )
    def test_malformed_header_raises_parse_error(self, header):
        with pytest.raises(ParseError):
            parse_module(header + "\n" + self.BODY + self.CALLEE)
