"""Tests for optimistic cross-partition merging (phase-2 reconciliation).

The crafted modules pick function names whose FNV-1a hashes land them in
specific partitions (the same assignment :func:`partition_functions`
uses), so each scenario controls exactly which pairs phase 1 can see and
which pairs only the global re-ranking can surface.
"""

import json

import pytest

from repro.analysis.size import module_size
from repro.faults import FaultInjector
from repro.fingerprint.fnv import fnv1a_32
from repro.ir import Interpreter, parse_module, print_module, verify_module
from repro.merge import PassConfig, partitioned_merging
from repro.search.pairing import MinHashLSHRanker
from repro.workloads import build_workload

CONFIG = PassConfig(verify=True)


def _reconcile(module, partitions, config=CONFIG, faults=None):
    return partitioned_merging(
        module, partitions, MinHashLSHRanker, config, reconcile=True, faults=faults
    )


def _phase1_only(n_or_text, partitions, tag="reconref"):
    """The phase-1-only reference: the same driver with ``reconcile=False``.

    Returns the partition-local result the reconcile phase is measured
    against (and must fall back to under an injected fault)."""
    if isinstance(n_or_text, int):
        module = build_workload(n_or_text, f"{tag}{n_or_text}")
    else:
        module = parse_module(n_or_text)
    partitioned_merging(module, partitions, MinHashLSHRanker, CONFIG)
    return module


def _pick_name(base: str, partition: int, partitions: int) -> str:
    """A name starting with *base* that hashes into *partition*."""
    for i in range(500):
        name = base if i == 0 else f"{base}_{i}"
        if fnv1a_32(name.encode("utf-8")) % partitions == partition:
            return name
    raise AssertionError(f"no name found for {base} -> partition {partition}")


def _family_fn(name: str, k: int, diffs=()) -> str:
    """A 24-instruction chain; family members share the opcode skeleton
    and differ in the constant at position 1 (*k*) plus every position in
    *diffs* — more diffs means more select operands in a merge, shrinking
    its modelled saving toward barely-profitable."""
    lines = []
    prev = "%x"
    for i in range(24):
        op = ["add", "mul", "xor", "sub"][i % 4]
        c = k if i == 1 else (100 + i if i in diffs else 7 + i)
        lines.append(f"  %v{i} = {op} i32 {prev}, {c}")
        prev = f"%v{i}"
    body = "\n".join(lines)
    return (
        f"define i32 @{name}(i32 %x, i32 %y) {{\n"
        f"entry:\n{body}\n  ret i32 {prev}\n}}\n"
    )


def _conflict_module_text(diff_count: int) -> str:
    """Two partitions, each holding one big-family function and one
    partner sharing its opcode skeleton with *diff_count* differing
    constants.  Phase 1 merges within each partition; the cross-partition
    big-family pair (identical bar one constant) is only visible to the
    global re-ranking and conflicts with BOTH optimistic merges."""
    a0 = _pick_name("alpha_a", 0, 2)
    b0 = _pick_name("alpha_b", 0, 2)
    a1 = _pick_name("beta_a", 1, 2)
    b1 = _pick_name("beta_b", 1, 2)
    diffs = tuple(range(2, 2 + diff_count))
    return (
        _family_fn(a0, 3)
        + _family_fn(b0, 3, diffs)
        + _family_fn(a1, 4)
        + _family_fn(b1, 4, diffs)
    )


class TestRecovery:
    def test_recovers_pairs_partition_local_sweep_forgoes(self):
        # The generated workload scatters similarity families across
        # partitions by name hash, so partition-local merging provably
        # forgoes cross-partition pairs (see
        # test_partitioned.py::test_summary_counts_cross_partition_losses).
        baseline = _phase1_only(48, 4, tag="reconbl")
        module = build_workload(48, "reconbl48")
        rc = _reconcile(module, 4).reconcile
        assert rc.recovered_pairs > 0
        assert rc.size_phase1 == module_size(baseline)
        assert rc.size_after < rc.size_phase1
        assert module_size(module) == rc.size_after
        assert rc.recovered_size_delta > 0
        verify_module(module)

    def test_replay_reproduces_partition_decisions(self):
        # Phase 1 of a reconcile run is the plain partition-local run:
        # same attempts, same decisions, same merges.
        plain = partitioned_merging(build_workload(48, "reconrep48"), 4, MinHashLSHRanker, CONFIG)
        report = _reconcile(build_workload(48, "reconrep48"), 4)
        assert report.merges == plain.merges
        assert json.loads(report.digest())[:-1] == json.loads(plain.digest())

    def test_semantics_preserved(self):
        module = build_workload(60, "reconsem")
        driver = module.get_function("driver")
        ref = {x: Interpreter().run(driver, [x]).value for x in (0, 3, 11)}
        _reconcile(module, 4)
        verify_module(module)
        for x, expected in ref.items():
            got = Interpreter().run(module.get_function("driver"), [x]).value
            assert got == expected

    def test_all_gates_green(self):
        # The reconcile attempts run through the same gated pipeline:
        # with linter, translation validator, and differential oracle all
        # gating, recovery still happens and nothing leaks a failure.
        config = PassConfig(
            verify=True, static_check=True, validate="gate", oracle=True
        )
        module = build_workload(32, "recongate")
        rc = _reconcile(module, 4, config).reconcile
        assert rc.recovered_pairs > 0
        verify_module(module)


class TestPhase1Agreement:
    def test_phase1_equals_plain_run_where_the_snapshot_sweep_differed(self):
        # 320 functions in 5 partitions: the replayed snapshot sweep's
        # phase 1 once ended 9 bytes larger than the in-place passes.
        # With one driver, reconcile=True's phase 1 is the plain run.
        config = PassConfig(verify=False)
        plain = build_workload(320, "agree320")
        plain_report = partitioned_merging(plain, 5, MinHashLSHRanker, config)
        module = build_workload(320, "agree320")
        texts = []

        def factory():
            # The sixth ranker (after five partition passes) is phase 2's
            # global one, so the last text recorded is the phase-1 module.
            texts.append(print_module(module))
            return MinHashLSHRanker()

        report = partitioned_merging(module, 5, factory, config, reconcile=True)
        assert len(texts) == 6
        assert report.reconcile.size_phase1 == plain_report.size_after
        assert texts[-1] == print_module(plain)


class TestDeterminism:
    def test_digest_identical_across_runs(self):
        digests = set()
        for _ in range(3):
            module = build_workload(48, "recondet")
            digests.add(_reconcile(module, 4).digest())
        assert len(digests) == 1

    def test_module_bytes_identical_across_runs(self):
        texts = set()
        for _ in range(2):
            module = build_workload(48, "reconbytes")
            _reconcile(module, 4)
            texts.add(print_module(module))
        assert len(texts) == 1

    def test_digest_includes_reconcile_decisions(self):
        module = build_workload(48, "recondig")
        report = _reconcile(module, 4)
        assert report.reconcile is not None
        assert '"reconcile"' in report.digest()
        plain = build_workload(48, "recondig")
        sweep = partitioned_merging(plain, 4, MinHashLSHRanker, CONFIG)
        assert '"reconcile"' not in sweep.digest()


class TestConflictResolution:
    def test_double_rollback_better_cross_pair_wins(self):
        # Both members of the cross-partition pair already won optimistic
        # merges (barely profitable: 20 differing constants); reconciling
        # must roll BOTH back and commit the far-better global pair.
        text = _conflict_module_text(diff_count=20)
        module = parse_module(text)
        report = _reconcile(module, 2)
        rc = report.reconcile
        assert report.merges == 2
        assert rc.conflicts_considered >= 1
        assert rc.conflicts_resolved == 1
        assert rc.rollbacks == 2  # both optimistic merges undone
        won = [d for d in rc.decisions if d[4] == "conflict_won"]
        assert len(won) == 1
        assert rc.size_after < rc.size_phase1
        verify_module(module)
        # The winner is a merge of the two big-family functions.
        merged = [
            f.name
            for f in module.defined_functions()
            if f.name.startswith("merged.")
        ]
        assert len(merged) == 1
        assert "alpha_a" in merged[0] and "beta_a" in merged[0]

    def test_lower_benefit_cross_pair_loses_and_phase1_is_restored(self):
        # With only 6 differing constants the optimistic merges are worth
        # more together than any single cross merge: every conflict must
        # re-apply phase 1's decisions (bit-identical re-commit).
        text = _conflict_module_text(diff_count=6)
        module = parse_module(text)
        rc = _reconcile(module, 2).reconcile
        assert rc.conflicts_considered >= 1
        assert rc.conflicts_resolved == 0
        kept = [d for d in rc.decisions if d[4] == "conflict_kept"]
        assert kept, rc.decisions
        assert rc.reapply_failures == 0
        assert rc.reapplied >= 2
        verify_module(module)

    def test_conflict_kept_semantics_preserved(self):
        text = _conflict_module_text(diff_count=6)
        ref_module = parse_module(text)
        refs = {}
        for func in ref_module.defined_functions():
            refs[func.name] = Interpreter().run(func, [5, 9]).value
        module = parse_module(text)
        _reconcile(module, 2)
        verify_module(module)
        for name, expected in refs.items():
            live = module.get_function(name)
            if live is None or not live.blocks:
                continue  # erased or declared away by a merge
            assert Interpreter().run(live, [5, 9]).value == expected


class TestFaultContainment:
    def test_reconcile_fault_leaves_phase1_result_byte_identical(self):
        reference = _phase1_only(48, 4, tag="reconflt")
        ref_text = print_module(reference)
        module = build_workload(48, "reconflt48")
        faults = FaultInjector("reconcile")
        rc = _reconcile(module, 4, faults=faults).reconcile
        assert faults.fired > 0
        assert rc.recovered_pairs == 0
        assert rc.size_after == rc.size_phase1
        assert print_module(module) == ref_text

    def test_single_fault_is_contained_per_pair(self):
        # Fault only the first phase-2 attempt: later attempts still
        # recover pairs and the module stays verifiable.
        clean_rc = _reconcile(build_workload(48, "reconflt1"), 4).reconcile
        module = build_workload(48, "reconflt1")
        faults = FaultInjector("reconcile", at=1)
        rc = _reconcile(module, 4, faults=faults).reconcile
        assert faults.fired == 1
        assert rc.recovered_pairs >= clean_rc.recovered_pairs - 1
        assert rc.recovered_pairs > 0
        verify_module(module)

    def test_unknown_stage_still_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector("reconcile-nonsense")


class TestReportShape:
    def test_sweep_report_carries_reconcile(self):
        module = build_workload(40, "reconshape")
        report = _reconcile(module, 4)
        rc = report.reconcile
        assert rc.partitions == 4
        assert rc.size_phase1 >= rc.size_after
        assert rc.recovered_size_delta == rc.size_phase1 - rc.size_after
        assert rc.attempted >= rc.recovered_pairs
        assert report.stage_times["reconcile"] > 0.0
        assert report.size_after == rc.size_after
        for decision in rc.decisions:
            assert len(decision) == 6

    def test_plain_partition_sweep_has_no_reconcile(self):
        module = build_workload(40, "reconshape2")
        report = partitioned_merging(module, 4, MinHashLSHRanker, CONFIG)
        assert report.reconcile is None
        assert set(report.stage_times) == {"partition"}
