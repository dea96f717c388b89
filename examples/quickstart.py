#!/usr/bin/env python3
"""Quickstart: merge two similar functions and watch what F3M does.

Walks the full pipeline on a pair of hand-written IR functions:

1. parse textual IR;
2. fingerprint both functions (opcode-frequency and MinHash);
3. align them block by block;
4. generate the merged function;
5. redirect call sites and delete the originals;
6. prove semantic equivalence with the reference interpreter.

Run:  python examples/quickstart.py
"""

from repro.alignment import BatchAlignmentEngine
from repro.analysis import module_size
from repro.fingerprint import (
    encode_function,
    fingerprint_function,
    minhash_function,
)
from repro.ir import Interpreter, parse_module, print_function, verify_module
from repro.merge import ProfitabilityModel, commit_merge, merge_functions

SOURCE = """
define i32 @checksum_v1(i32 %x, i32 %y) {
entry:
  %sum = add i32 %x, %y
  %scaled = mul i32 %sum, 3
  %big = icmp sgt i32 %scaled, 100
  br i1 %big, label %clamp, label %pad
clamp:
  %c = sub i32 %scaled, 100
  br label %done
pad:
  %p = add i32 %scaled, 7
  br label %done
done:
  %r = phi i32 [ %c, %clamp ], [ %p, %pad ]
  ret i32 %r
}

define i32 @checksum_v2(i32 %x, i32 %y) {
entry:
  %sum = add i32 %x, %y
  %scaled = mul i32 %sum, 5
  %big = icmp sgt i32 %scaled, 100
  br i1 %big, label %clamp, label %pad
clamp:
  %c = sub i32 %scaled, 50
  br label %done
pad:
  %p = add i32 %scaled, 9
  br label %done
done:
  %r = phi i32 [ %c, %clamp ], [ %p, %pad ]
  ret i32 %r
}

define i32 @main(i32 %x) {
entry:
  %a = call i32 @checksum_v1(i32 %x, i32 2)
  %b = call i32 @checksum_v2(i32 %x, i32 3)
  %out = add i32 %a, %b
  ret i32 %out
}
"""


def main() -> None:
    module = parse_module(SOURCE)
    verify_module(module)
    f1 = module.get_function("checksum_v1")
    f2 = module.get_function("checksum_v2")

    print("== fingerprints ==")
    opcode_sim = fingerprint_function(f1).similarity(fingerprint_function(f2))
    minhash_sim = minhash_function(f1).similarity(minhash_function(f2))
    print(f"opcode-frequency similarity (HyFM metric): {opcode_sim:.3f}")
    print(f"MinHash estimated Jaccard     (F3M metric): {minhash_sim:.3f}")
    print(f"encoded length: {len(encode_function(f1))} instructions")

    print("\n== alignment ==")
    alignment = BatchAlignmentEngine().align_functions(f1, f2)
    print(f"block pairs: {len(alignment.block_pairs)}")
    print(f"alignment ratio: {alignment.alignment_ratio:.2f}")

    print("\n== merged function ==")
    size_before = module_size(module)
    result = merge_functions(alignment, module)
    print(print_function(result.merged))
    benefit = ProfitabilityModel().evaluate(result)
    print(f"profitability: save {benefit.saving} modelled bytes -> merge!")

    # Capture reference outputs before rewiring the module.
    ref = {x: Interpreter().run(module.get_function("main"), [x]).value for x in range(0, 60, 7)}

    commit_merge(result)
    verify_module(module)
    size_after = module_size(module)
    print(f"\nmodule size: {size_before} -> {size_after} modelled bytes "
          f"({1 - size_after / size_before:.1%} reduction)")

    print("\n== differential check ==")
    for x, expected in ref.items():
        got = Interpreter().run(module.get_function("main"), [x]).value
        status = "ok" if got == expected else "MISMATCH"
        print(f"main({x:2d}) = {got:5d}  [{status}]")
        assert got == expected
    print("merged module is semantically equivalent ✔")


if __name__ == "__main__":
    main()
