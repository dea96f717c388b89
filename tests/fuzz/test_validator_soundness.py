"""Property test: the translation validator is one-sided sound.

The validator's contract is that ``proved`` is trustworthy — the merge
pipeline *skips the differential oracle* on proved merges, so a single
false ``proved`` silently ships a miscompile.  Hypothesis drives the
fuzz campaign's own candidate generator (both repair paths, danger bias
up) and checks every attempt two independent ways:

* pipeline: an attempt the validator ``proved`` must never be failed by
  the oracle that ran right after it (``validate="observe"`` keeps the
  oracle on for every attempt);
* post-hoc: a *committed* merge the validator ``proved`` must show no
  static demote shape and no behavioural divergence against the
  pre-merge snapshot (the campaign's other two verifiers).

``refuted``/``unknown`` verdicts are unconstrained here — refuting or
giving up on a good merge costs recall, not correctness.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.fuzz.config import FuzzConfig
from repro.fuzz.verify import evaluate_candidate
from repro.harness.experiments import make_ranker
from repro.merge.pass_ import FunctionMergingPass, PassConfig
from repro.oracle import DifferentialOracle, OracleConfig

from .test_corpus import CORPUS, ENTRIES  # reuse the checked-in reproducers


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    index=st.integers(min_value=0, max_value=7),
    legacy=st.booleans(),
)
def test_proved_is_never_oracle_failed(seed, index, legacy):
    from repro.fuzz.generate import generate_candidate

    config = FuzzConfig(
        budget=1, seed=seed, legacy_bugs=legacy, danger_bias=0.9,
        inputs_per_function=4,
    )
    module = generate_candidate(config, index)
    pass_config = PassConfig(
        legacy_bugs=legacy, validate="observe", oracle=True
    )
    pass_ = FunctionMergingPass(
        make_ranker("f3m"),
        pass_config,
        oracle=DifferentialOracle(OracleConfig(inputs_per_function=4)),
    )
    report = pass_.run(module)
    for att in report.attempts:
        if att.validate_verdict != "proved":
            continue
        assert str(att.outcome) not in ("oracle_fail", "oracle_timeout"), (
            f"validator proved {att.function}/{att.candidate} "
            f"but the oracle failed it: {att.error}"
        )


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    index=st.integers(min_value=0, max_value=5),
    legacy=st.booleans(),
)
def test_proved_commits_survive_all_campaign_verifiers(seed, index, legacy):
    config = FuzzConfig(
        budget=1, seed=seed, legacy_bugs=legacy, danger_bias=0.9,
        inputs_per_function=4,
    )
    result = evaluate_candidate(config, index)
    shapes = {f["shape"] for f in result["failures"]}
    assert "validator-false-proved" not in shapes, result["failures"]


@pytest.mark.parametrize("name,pair,shape", ENTRIES)
def test_corpus_reproducers_never_prove_on_legacy_path(name, pair, shape):
    # The two known miscompile shapes are the validator's reason to
    # exist: a regression to ``proved`` (or even ``unknown``) on either
    # one means the static gate no longer catches the paper's bugs.
    from repro.alignment import BatchAlignmentEngine
    from repro.ir.parser import parse_module
    from repro.merge.merger import MergeOptions, merge_functions
    from repro.staticcheck import REFUTED, validate_merge

    module = parse_module((CORPUS / name).read_text(), name=name)
    alignment = BatchAlignmentEngine().align_functions(
        module.get_function(pair[0]), module.get_function(pair[1])
    )
    merged = merge_functions(
        alignment, module, options=MergeOptions(legacy_bugs=True)
    )
    assert validate_merge(merged).verdict == REFUTED
