"""Tests for the transactional merge-attempt bracket."""

import contextlib

import pytest

import repro.merge.pass_ as pass_module
from repro.alignment import align_functions
from repro.fingerprint.encoding import encode_function
from repro.ir import Interpreter, parse_module, print_module, verify_module
from repro.ir.instructions import Instruction
from repro.merge import (
    FunctionMergingPass,
    MergeTransaction,
    PassConfig,
    commit_merge,
    merge_functions,
)
from repro.search import ExhaustiveRanker


def _module_with_callers_text():
    return """
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
define i32 @main(i32 %x) {
entry:
  %r1 = call i32 @f1(i32 %x, i32 2)
  %r2 = call i32 @f2(i32 %x, i32 3)
  %s = add i32 %r1, %r2
  ret i32 %s
}
"""


def _module_with_callers():
    return parse_module(_module_with_callers_text())


def _recursive_pair_module():
    """f1 and f2 call @g and themselves; @main calls both."""
    return parse_module(
        """
define i32 @g(i32 %x) {
entry:
  %r = add i32 %x, 1
  ret i32 %r
}
define i32 @f1(i32 %x, i32 %y) {
entry:
  %a = call i32 @g(i32 %x)
  %b = mul i32 %a, %y
  %c = call i32 @f1(i32 %b, i32 %y)
  ret i32 %c
}
define i32 @f2(i32 %x, i32 %y) {
entry:
  %a = call i32 @g(i32 %x)
  %b = mul i32 %a, 7
  %c = call i32 @f2(i32 %b, i32 %y)
  ret i32 %c
}
define i32 @main(i32 %x) {
entry:
  %r1 = call i32 @f1(i32 %x, i32 2)
  %r2 = call i32 @f2(i32 %x, i32 3)
  %s = add i32 %r1, %r2
  ret i32 %s
}
"""
    )


def _merge_pair(module):
    f1, f2 = module.get_function("f1"), module.get_function("f2")
    return merge_functions(align_functions(f1, f2), module)


class TestRollback:
    def test_rollback_after_codegen_restores_module_text(self):
        module = _module_with_callers()
        before = print_module(module)
        txn = MergeTransaction(module)
        _merge_pair(module)  # adds @merged.f1.f2 to the module
        assert print_module(module) != before
        txn.rollback()
        assert print_module(module) == before
        verify_module(module)

    def test_rollback_after_commit_restores_module_text(self):
        module = _module_with_callers()
        before = print_module(module)
        f1, f2 = module.get_function("f1"), module.get_function("f2")
        txn = MergeTransaction(module)
        result = _merge_pair(module)
        txn.capture_commit_set(result.function_a, result.function_b)
        commit_merge(result)
        # Originals gone, merged function live, caller rewritten.
        assert module.get_function("f1") is None
        txn.rollback()
        assert print_module(module) == before
        verify_module(module)
        # Identity is preserved: the restored functions are the same objects.
        assert module.get_function("f1") is f1
        assert module.get_function("f2") is f2

    def test_rollback_preserves_semantics(self):
        module = _module_with_callers()
        main = module.get_function("main")
        ref = {x: Interpreter().run(main, [x]).value for x in (0, 4, 9)}
        txn = MergeTransaction(module)
        result = _merge_pair(module)
        txn.capture_commit_set(result.function_a, result.function_b)
        commit_merge(result)
        txn.rollback()
        for x, expected in ref.items():
            assert Interpreter().run(module.get_function("main"), [x]).value == expected

    def test_rollback_is_idempotent(self):
        module = _module_with_callers()
        before = print_module(module)
        txn = MergeTransaction(module)
        txn.capture(module.get_function("f1"))
        txn.rollback()
        txn.rollback()  # second call must be a silent no-op
        assert print_module(module) == before

    def test_rollback_after_commit_is_noop(self):
        module = _module_with_callers()
        txn = MergeTransaction(module)
        result = _merge_pair(module)
        txn.capture_commit_set(result.function_a, result.function_b)
        commit_merge(result)
        txn.commit()
        after = print_module(module)
        txn.rollback()  # must not undo a committed merge
        assert print_module(module) == after
        assert module.get_function("merged.f1.f2") is not None


class TestCapture:
    def test_captured_flag(self):
        module = _module_with_callers()
        txn = MergeTransaction(module)
        assert not txn.captured
        txn.capture(module.get_function("f1"))
        assert txn.captured

    def test_capture_after_close_raises(self):
        module = _module_with_callers()
        txn = MergeTransaction(module)
        txn.commit()
        with pytest.raises(RuntimeError):
            txn.capture(module.get_function("f1"))

    def test_commit_set_includes_callers(self):
        # The touched set names the originals and every caller, found
        # before the commit, and a commit through the journal keeps it.
        module = _module_with_callers()
        f1, f2 = module.get_function("f1"), module.get_function("f2")
        txn = MergeTransaction(module)
        result = _merge_pair(module)
        txn.capture_commit_set(f1, f2)
        assert {f.name for f in txn.captured_functions()} == {"f1", "f2", "main"}
        commit_merge(result)
        assert {f.name for f in txn.captured_functions()} == {"f1", "f2", "main"}
        assert txn.journal.touched_names() == {"f1", "f2", "main"}

    def test_backups_do_not_inflate_use_counts(self):
        # A body moved into the journal counts as no uses: the originals'
        # self-references and their calls to @g must not show up on the
        # live module, and rollback must register them exactly once again.
        module = _recursive_pair_module()
        g, f1, f2 = (module.get_function(n) for n in ("g", "f1", "f2"))
        before = print_module(module)
        counts = {f.name: (len(f.callers()), f.num_uses) for f in module}
        txn = MergeTransaction(module)
        result = _merge_pair(module)
        merged = result.merged
        txn.capture_commit_set(result.function_a, result.function_b)
        commit_merge(result)
        # The originals became thunks (the merged body selects their
        # addresses); their journaled bodies' calls to @g and to
        # themselves are not uses any more.
        for func in (g, f1, f2):
            assert {user.function for user, _ in func.uses()} == {merged}
        txn.rollback()
        assert print_module(module) == before
        assert {f.name: (len(f.callers()), f.num_uses) for f in module} == counts
        verify_module(module)

    def test_pre_merge_body_is_the_body_before_the_commit(self):
        # Reconciliation re-ranks a consumed original by the body its
        # commit moved aside.  A recursive call the commit rewrote inside
        # that body before moving it must read as the original call.
        module = _recursive_pair_module()
        f1 = module.get_function("f1")
        body = [inst for block in f1.blocks for inst in block.instructions]
        codes = encode_function(f1)
        txn = MergeTransaction(module)
        result = _merge_pair(module)
        txn.capture_commit_set(result.function_a, result.function_b)
        commit_merge(result)
        view = txn.journal.pre_merge_body("f1")
        assert [inst for block in view.blocks for inst in block.instructions] == body
        assert encode_function(view) == codes
        assert txn.journal.pre_merge_body("main") is None  # callers keep their bodies

    def test_empty_rollback_is_free(self):
        # Attempts that fail before codegen captured nothing; rollback must
        # still leave the module untouched.
        module = _module_with_callers()
        before = print_module(module)
        txn = MergeTransaction(module)
        txn.rollback()
        assert print_module(module) == before


class TestCommitCost:
    """A commit costs what it changes, not the size of its callers."""

    @staticmethod
    def _instructions_created_in_commit(caller_size, monkeypatch):
        filler = "\n".join(
            f"  %t{i} = add i32 %t{i - 1}, {i}" for i in range(1, caller_size - 3)
        )
        module = parse_module(
            _module_with_callers_text().replace(
                "  %s = add i32 %r1, %r2\n  ret i32 %s",
                f"  %t0 = add i32 %r1, %r2\n{filler}\n  ret i32 %t{caller_size - 4}",
            )
        )
        assert module.get_function("main").num_instructions == caller_size
        created = []
        in_commit = []
        real_init = Instruction.__init__
        real_stage = pass_module.stage

        def counting_init(self, *args, **kwargs):
            if in_commit:
                created.append(type(self).__name__)
            real_init(self, *args, **kwargs)

        @contextlib.contextmanager
        def marking_stage(ctx, name, *args, **kwargs):
            with real_stage(ctx, name, *args, **kwargs):
                if name == "commit":
                    in_commit.append(name)
                try:
                    yield
                finally:
                    if name == "commit":
                        in_commit.pop()

        monkeypatch.setattr(Instruction, "__init__", counting_init)
        monkeypatch.setattr(pass_module, "stage", marking_stage)
        report = FunctionMergingPass(ExhaustiveRanker(), PassConfig()).run(module)
        monkeypatch.undo()
        assert report.merges == 1
        return sorted(created)

    def test_instructions_created_do_not_grow_with_the_caller(self, monkeypatch):
        small = self._instructions_created_in_commit(20, monkeypatch)
        large = self._instructions_created_in_commit(2000, monkeypatch)
        assert small == large
        assert small  # the rewritten call sites and the thunks, at least
