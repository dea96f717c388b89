"""Translation-validation tests: the product-CFG walker end to end.

Three layers are pinned here:

* :func:`repro.staticcheck.validate.validate_merge` on real merges —
  straight-line, branching and looping pairs must *prove*; the §III-E
  corpus reproducers on the legacy repair path must *refute*; caps
  exhaustion must degrade to *unknown*, never to a false ``proved``.
* the ``validate`` checker on committed modules (specialized self-check).
* budget/verdict plumbing: ordering, report serialization, diagnostics.
"""

from pathlib import Path

import pytest

from repro.alignment import BatchAlignmentEngine
from repro.ir.parser import parse_module
from repro.ir.verifier import verify_module
from repro.merge.merger import MergeOptions, merge_functions
from repro.staticcheck import (
    PROVED,
    REFUTED,
    UNKNOWN,
    Caps,
    ValidationReport,
    run_module_checks,
    specialized_demote_diagnostics,
    validate_merge,
)

CORPUS = Path(__file__).resolve().parents[2] / "corpus"

# Same entries as tests/fuzz/test_corpus.py — the validator must refute
# exactly the merges whose committed form the campaign flags.
CORPUS_ENTRIES = [
    ("sec3e_stale_reload.ir", ["d1", "d2"]),
    ("sec3e_phi_reload.ir", ["v1", "v2"]),
]


def _merge_pair(text, a, b, legacy_bugs=False):
    module = parse_module(text)
    verify_module(module)
    alignment = BatchAlignmentEngine().align_functions(
        module.get_function(a), module.get_function(b)
    )
    return merge_functions(
        alignment, module, options=MergeOptions(legacy_bugs=legacy_bugs)
    )


STRAIGHT = """
define i32 @f1(i32 %x, i32 %y) {
entry:
  %a = add i32 %x, %y
  %b = mul i32 %a, 3
  ret i32 %b
}
define i32 @f2(i32 %x, i32 %y) {
entry:
  %a = add i32 %x, %y
  %b = mul i32 %a, 7
  ret i32 %b
}
"""

LOOP = """
define i32 @s1(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %inc, %body ]
  %acc = phi i32 [ 0, %entry ], [ %nacc, %body ]
  %cmp = icmp slt i32 %i, %n
  br i1 %cmp, label %body, label %exit
body:
  %nacc = add i32 %acc, %i
  %inc = add i32 %i, 1
  br label %head
exit:
  ret i32 %acc
}
define i32 @s2(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %inc, %body ]
  %acc = phi i32 [ 0, %entry ], [ %nacc, %body ]
  %cmp = icmp slt i32 %i, %n
  br i1 %cmp, label %body, label %exit
body:
  %nacc = add i32 %acc, %i
  %inc = add i32 %i, 2
  br label %head
exit:
  ret i32 %acc
}
"""


class TestProves:
    def test_straight_line_pair_proves(self):
        report = validate_merge(_merge_pair(STRAIGHT, "f1", "f2"))
        assert report.verdict == PROVED
        assert set(report.sides) == {0, 1}
        assert all(s.verdict == PROVED for s in report.sides.values())
        assert report.diagnostics == []

    def test_loop_pair_proves(self):
        # Back-edges become product-task boundaries; the walk must
        # terminate via memoization, not step budget.
        report = validate_merge(_merge_pair(LOOP, "s1", "s2"))
        assert report.verdict == PROVED
        assert report.tasks > 2  # at least one loop crossing per side
        assert report.steps > 0

    def test_fixed_corpus_merges_prove(self):
        for name, (a, b) in CORPUS_ENTRIES:
            result = _merge_pair((CORPUS / name).read_text(), a, b, legacy_bugs=False)
            report = validate_merge(result)
            assert report.verdict == PROVED, f"{name}: {report.to_dict()}"


class TestRefutes:
    @pytest.mark.parametrize("name,pair", CORPUS_ENTRIES)
    def test_legacy_corpus_merges_refute(self, name, pair):
        # Both §III-E reproducers are definitive miscompiles on the
        # legacy repair path: the validator must *refute* them
        # statically, naming the product-node pair.
        result = _merge_pair((CORPUS / name).read_text(), *pair, legacy_bugs=True)
        report = validate_merge(result)
        assert report.verdict == REFUTED
        assert report.diagnostics, "a refutation must carry diagnostics"
        diag = report.diagnostics[0]
        assert diag.checker == "validate"
        assert diag.code and diag.code.startswith("validate/")
        assert "<->" in diag.message or "demote" in diag.message

    def test_refuted_side_short_circuits(self):
        name, pair = CORPUS_ENTRIES[0]
        result = _merge_pair((CORPUS / name).read_text(), *pair, legacy_bugs=True)
        report = validate_merge(result)
        refuted = [fid for fid, s in report.sides.items() if s.verdict == REFUTED]
        assert refuted
        # Walking stops at the first refuted specialization.
        assert min(refuted) == max(fid for fid in report.sides)


class TestUnknown:
    def test_step_budget_degrades_to_unknown(self):
        result = _merge_pair(LOOP, "s1", "s2")
        report = validate_merge(result, caps=Caps(max_steps=1))
        assert report.verdict == UNKNOWN
        assert report.diagnostics
        assert any(d.code == "validate/budget" for d in report.diagnostics)

    def test_task_budget_degrades_to_unknown(self):
        result = _merge_pair(LOOP, "s1", "s2")
        report = validate_merge(result, caps=Caps(max_tasks=1))
        assert report.verdict in (UNKNOWN, PROVED)
        assert report.verdict != REFUTED

    def test_unknown_outranks_proved(self):
        report = ValidationReport()
        report.verdict = PROVED
        # worst-of ordering is proved < unknown < refuted
        from repro.staticcheck.validate import _RANK

        assert _RANK[PROVED] < _RANK[UNKNOWN] < _RANK[REFUTED]


class TestReport:
    def test_to_dict_round_trips_to_json(self):
        import json

        report = validate_merge(_merge_pair(STRAIGHT, "f1", "f2"))
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["verdict"] == PROVED
        assert set(payload["sides"]) == {"0", "1"}
        for side in payload["sides"].values():
            assert {"verdict", "tasks", "steps", "memo_hits"} <= set(side)


class TestCommittedChecker:
    def test_validate_checker_flags_committed_legacy_merge(self):
        name, pair = CORPUS_ENTRIES[0]
        module = parse_module((CORPUS / name).read_text())
        alignment = BatchAlignmentEngine().align_functions(
            module.get_function(pair[0]), module.get_function(pair[1])
        )
        result = merge_functions(
            alignment, module, options=MergeOptions(legacy_bugs=True)
        )
        from repro.merge.thunks import commit_merge

        commit_merge(result)
        diags = [
            d for d in run_module_checks(module, ["validate"]) if d.checker == "validate"
        ]
        assert diags
        assert all(d.code == "validate/demote-reload" for d in diags)
        assert all("funcId=" in d.message for d in diags)

    def test_specialized_check_skips_other_specializations_spills(self):
        # A demote reload parked behind one funcId's branch with a store on
        # that same specialized path must not fire (the whole-CFG linter
        # scan would still see both paths; the specialized one must not).
        text = """
define i32 @merged.a.b(i1 %fid, i32 %x) {
entry:
  %demote.r = alloca i32
  br i1 %fid, label %left, label %right
left:
  store i32 %x, i32* %demote.r
  %lv = load i32, i32* %demote.r
  ret i32 %lv
right:
  ret i32 %x
}
"""
        module = parse_module(text)
        func = module.get_function("merged.a.b")
        assert specialized_demote_diagnostics(func) == []
