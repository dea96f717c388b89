"""Commit-gate cost: translation validator vs differential oracle.

The validator exists to replace most oracle runs: a ``proved`` verdict
lets the pipeline skip differential execution entirely, and only the
``unknown`` residue escalates.  For that trade to pay off, two things
must hold at scale, and this suite pins both over the generated
workloads (validator and oracle observing the *same* attempts):

* **cost** — the product-CFG walk is at least 5x cheaper than the
  differential oracle on the largest workload (2000 functions);
* **coverage** — the ``unknown`` residue stays at or below 20% of the
  validated attempts, so the gate actually absorbs the oracle's work
  instead of forwarding it.

Emits ``BENCH_validate.json`` for the perf trajectory.
"""

import os

import pytest

from repro.harness import load_bench_json, write_bench_json
from repro.harness.experiments import make_ranker
from repro.harness.table import format_table
from repro.merge import FunctionMergingPass, PassConfig

from conftest import header, workload

pytestmark = [pytest.mark.tier2]

SIZES = (200, 600, 2000)
_BENCH_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_validate.json")

_cache = {}


def _rows():
    if "rows" in _cache:
        return _cache["rows"]
    rows = []
    for n in SIZES:
        module = workload(n, "valcost")
        report = FunctionMergingPass(
            make_ranker("f3m"),
            PassConfig(verify=False, validate="observe", oracle=True),
        ).run(module)
        verdicts = {"proved": 0, "refuted": 0, "unknown": 0}
        for att in report.attempts:
            if att.validate_verdict is not None:
                verdicts[att.validate_verdict] += 1
        validated = sum(verdicts.values())
        stages = report.stage_totals()
        validate_time = stages["validate"]
        oracle_time = stages["oracle"]
        rows.append(
            {
                "module": f"valcost{n}",
                "functions": n,
                "attempts": len(report.attempts),
                "merges": report.merges,
                "validated": validated,
                "proved": verdicts["proved"],
                "refuted": verdicts["refuted"],
                "unknown": verdicts["unknown"],
                "unknown_rate": (verdicts["unknown"] / validated) if validated else 0.0,
                "validate_time": validate_time,
                "oracle_time": oracle_time,
                "speedup": (oracle_time / validate_time) if validate_time else 0.0,
                "total_time": report.total_time,
            }
        )
    _cache["rows"] = rows
    return rows


class TestValidatorCost:
    def test_validator_is_5x_cheaper_than_oracle_at_scale(self):
        header("Commit-gate cost: translation validator vs oracle")
        rows = _rows()
        print(
            format_table(
                ["module", "validated", "proved", "unknown", "val s", "oracle s", "x"],
                [
                    (
                        r["module"],
                        r["validated"],
                        r["proved"],
                        r["unknown"],
                        f"{r['validate_time']:.3f}",
                        f"{r['oracle_time']:.3f}",
                        f"{r['speedup']:.1f}",
                    )
                    for r in rows
                ],
            )
        )
        largest = rows[-1]
        assert largest["functions"] == 2000
        assert largest["validated"] > 0
        assert largest["speedup"] >= 5.0, (
            f"validator only {largest['speedup']:.1f}x cheaper than the oracle"
        )

    def test_unknown_residue_stays_under_twenty_percent(self):
        for row in _rows():
            assert row["unknown_rate"] <= 0.20, (
                f"{row['module']}: unknown rate {row['unknown_rate']:.1%} "
                f"({row['unknown']}/{row['validated']})"
            )

    def test_validator_never_refutes_a_fixed_pipeline_merge(self):
        # On the fixed repair path there is nothing to refute: a refuted
        # verdict here is a validator soundness/precision bug, the exact
        # analogue of the staticcheck suite's zero-veto assertion.
        for row in _rows():
            assert row["refuted"] == 0, row

    def test_bench_json_written(self):
        rows = _rows()
        write_bench_json(
            _BENCH_PATH,
            "validate",
            rows,
            metadata={"sizes": list(SIZES), "ranker": "f3m", "oracle": "observe+on"},
        )
        payload = load_bench_json(_BENCH_PATH)
        assert payload["bench"] == "validate"
        assert len(payload["rows"]) == len(SIZES)
