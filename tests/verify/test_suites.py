"""The differential verification suites must pass on the shipped library."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.verify import (
    SUITE_NAMES,
    CheckResult,
    Checks,
    SuiteResult,
    VerificationReport,
    run_suite,
    run_suites,
)


class TestRunner:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigurationError):
            run_suite("astrology")

    @pytest.mark.parametrize("schedules", [0, -3])
    def test_accumulator_suite_refuses_no_schedules(self, schedules):
        """Zero replay schedules would pass the replay checks unchecked."""
        with pytest.raises(ConfigurationError, match="schedules must be >= 1"):
            run_suite("accumulators", schedules=schedules)

    def test_checks_collector_records_and_returns(self):
        checks = Checks()
        assert checks.record("a", True, "fine") is True
        assert checks.record("b", False, "broken") is False
        assert [c.name for c in checks.results] == ["a", "b"]

    def test_empty_suite_is_not_ok(self):
        assert not SuiteResult(name="x", checks=[], seconds=0.0).ok

    def test_report_summary_shows_failures(self):
        report = VerificationReport(
            suites=[
                SuiteResult(
                    name="demo",
                    checks=[
                        CheckResult("good", True),
                        CheckResult("bad", False, "because"),
                    ],
                    seconds=0.1,
                )
            ]
        )
        assert not report.ok
        text = report.summary()
        assert "demo" in text and "FAIL" in text
        assert "! bad — because" in text
        assert "good" not in text  # passing checks hidden unless verbose
        assert "good" in report.summary(verbose=True)

    def test_suite_registry_is_complete(self):
        assert SUITE_NAMES == (
            "aes", "accumulators", "drp", "planner", "drift", "lint"
        )


class TestSuitesGreen:
    """Each oracle suite passes against the current library."""

    def test_aes_suite(self):
        result = run_suite("aes")
        assert result.ok, [c for c in result.failures()]
        assert result.n_passed >= 14

    def test_accumulator_suite_reduced(self):
        result = run_suite("accumulators", schedules=8)
        assert result.ok, [c for c in result.failures()]
        # 4 accumulator kinds x (empty-update, streaming-vs-batch,
        # replay-schedules) checks
        assert result.n_passed == 12

    def test_drp_suite_reduced(self):
        result = run_suite("drp", plan_sets=48)
        assert result.ok, [c for c in result.failures()]

    def test_planner_suite(self):
        result = run_suite("planner")
        assert result.ok, [c for c in result.failures()]

    def test_drift_suite(self, tmp_path):
        import json

        out = tmp_path / "drift.json"
        result = run_suite("drift", drift_out=str(out))
        assert result.ok, [c for c in result.failures()]
        payload = json.loads(out.read_text())
        assert set(payload["observed"]) == set(payload["budgets"])
        for kernel, value in payload["observed"].items():
            assert value <= payload["budgets"][kernel]

    def test_lint_suite(self):
        result = run_suite("lint")
        assert result.ok, [c for c in result.failures()]

    def test_run_suites_subset_order(self):
        report = run_suites(["lint", "aes"])
        assert [s.name for s in report.suites] == ["lint", "aes"]
        assert report.ok


class TestAccumulatorOracleCatchesBugs:
    """The oracle is only worth its runtime if it fails on a broken kernel."""

    def test_states_equal_detects_drift(self):
        from repro.verify.accumulators import states_equal

        a = {"n": 3, "sum": np.array([1.0, 2.0])}
        assert states_equal(a, {"n": 3, "sum": np.array([1.0, 2.0])})
        assert not states_equal(a, {"n": 3, "sum": np.array([1.0, 2.0 + 1e-15])})
        assert not states_equal(a, {"n": 4, "sum": np.array([1.0, 2.0])})
        assert not states_equal(a, {"n": 3})
