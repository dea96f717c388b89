#!/usr/bin/env python3
"""Why fingerprints mislead: the paper's Figure 5 scenario, reconstructed.

HyFM matched Linux's ``perf_trace_destroy`` with ``fat_put_super`` because
their opcode-frequency fingerprints differed by only one — yet the two
functions could not merge profitably.  The ideal candidate,
``perf_kprobe_destroy``, had a *less* similar fingerprint (distance two)
but aligned almost perfectly.

This example builds an equivalent triple in our IR and shows that the
opcode metric prefers the wrong partner while MinHash picks the right one.

Run:  python examples/focused_selection.py
"""

from repro.alignment import BatchAlignmentEngine
from repro.fingerprint import fingerprint_function, minhash_function
from repro.harness import format_table
from repro.ir import parse_module, verify_module

SOURCE = """
; The function we want to merge: straight-line arithmetic, one branch.
define i32 @perf_trace_destroy(i32 %ev) {
entry:
  %a = add i32 %ev, 8
  %b = mul i32 %a, 3
  %c = xor i32 %b, 85
  %d = icmp sgt i32 %c, 64
  br i1 %d, label %free, label %out
free:
  %e = sub i32 %c, 64
  br label %out
out:
  %r = phi i32 [ %e, %free ], [ %c, %entry ]
  ret i32 %r
}

; Near-identical sibling (two extra instructions): the IDEAL candidate.
define i32 @perf_kprobe_destroy(i32 %ev) {
entry:
  %a = add i32 %ev, 8
  %b = mul i32 %a, 3
  %b2 = add i32 %b, 1
  %c = xor i32 %b2, 85
  %c2 = add i32 %c, 2
  %d = icmp sgt i32 %c2, 64
  br i1 %d, label %free, label %out
free:
  %e = sub i32 %c2, 64
  br label %out
out:
  %r = phi i32 [ %e, %free ], [ %c2, %entry ]
  ret i32 %r
}

; Same opcode *multiset*, totally different structure: the TRAP candidate.
define i32 @fat_put_super(i32 %sb) {
entry:
  %d = icmp sgt i32 %sb, 0
  br i1 %d, label %free, label %out
free:
  %a = add i32 %sb, 8
  %e = sub i32 %a, 64
  %b = mul i32 %e, 3
  br label %out
out:
  %p = phi i32 [ %b, %free ], [ %sb, %entry ]
  %c = xor i32 %p, 85
  %r = add i32 %c, 0
  ret i32 %r
}
"""


def main() -> None:
    module = parse_module(SOURCE)
    verify_module(module)
    target = module.get_function("perf_trace_destroy")
    ideal = module.get_function("perf_kprobe_destroy")
    trap = module.get_function("fat_put_super")

    fp_target = fingerprint_function(target)
    mh_target = minhash_function(target)

    engine = BatchAlignmentEngine()
    rows = []
    for cand in (ideal, trap):
        opcode_dist = fp_target.distance(fingerprint_function(cand))
        opcode_sim = fp_target.similarity(fingerprint_function(cand))
        mh_sim = mh_target.similarity(minhash_function(cand))
        ratio = engine.align_functions(target, cand).alignment_ratio
        rows.append(
            (
                cand.name,
                opcode_dist,
                f"{opcode_sim:.3f}",
                f"{mh_sim:.3f}",
                f"{ratio:.2f}",
            )
        )
    print("candidates for merging with @perf_trace_destroy:\n")
    print(
        format_table(
            [
                "candidate",
                "opcode distance",
                "opcode similarity",
                "MinHash similarity",
                "alignment ratio",
            ],
            rows,
        )
    )

    opcode_choice = min(
        (ideal, trap), key=lambda f: fp_target.distance(fingerprint_function(f))
    )
    minhash_choice = max(
        (ideal, trap), key=lambda f: mh_target.similarity(minhash_function(f))
    )
    print(f"\nopcode-frequency metric picks:  @{opcode_choice.name}")
    print(f"MinHash metric picks:           @{minhash_choice.name}")

    assert minhash_choice is ideal, "MinHash should prefer the structural twin"
    print(
        "\nThe opcode metric cannot see structure, so the shuffled function "
        "looks (almost) as good as the true sibling; MinHash over encoded "
        "instruction shingles puts the sibling far ahead (paper Figure 5)."
    )


if __name__ == "__main__":
    main()
