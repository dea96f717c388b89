"""A self-contained, LLVM-shaped SSA IR.

This package is the substrate the F3M reproduction runs on: typed values,
instructions, basic blocks, functions and modules, plus a textual
printer/parser, a verifier and a reference interpreter.
"""

from .basicblock import BasicBlock
from .builder import IRBuilder
from .clone import clone_function, clone_function_into, clone_instruction, clone_module
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
    Instruction,
    Invoke,
    Load,
    Opcode,
    Phi,
    Ret,
    Select,
    Store,
    Switch,
    Unreachable,
)
from .interp import ExecutionResult, FuelExhausted, Interpreter, InterpError, Trap
from .module import Module, link_modules
from .parser import ParseError, parse_function, parse_module
from .printer import format_instruction, print_function, print_module
from .types import (
    DOUBLE,
    FLOAT,
    I1,
    I8,
    I16,
    I32,
    I64,
    LABEL,
    VOID,
    ArrayType,
    FloatType,
    FunctionType,
    IntType,
    LabelType,
    PointerType,
    StructType,
    Type,
    VoidType,
)
from .values import (
    Argument,
    Constant,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    UndefValue,
    User,
    Value,
)
from .verifier import VerificationError, verify_function, verify_module

__all__ = [name for name in dir() if not name.startswith("_")]
