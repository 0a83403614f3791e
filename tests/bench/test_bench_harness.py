"""Tests for the ``repro bench`` harness: pairing, determinism
enforcement, document schema, and the regression check CI runs."""

from __future__ import annotations

import json

import pytest

from repro.benchmarks import (
    SCHEMA,
    SUITES,
    BenchCase,
    BenchError,
    check_regression,
    format_report,
    run_suite,
    suite_cases,
    validate_document,
)
from repro.benchmarks.harness import validate_document as _vd  # re-export check
from repro.core.scheduler import StaggeredStripingPolicy
from repro.core.virtual_disks import SlotPool
from repro.errors import ReproError


class _Policy:
    """Stands in for a built policy: records the harness's switch."""

    def __init__(self):
        self.scalar = False

    def use_scalar_admission(self):
        self.scalar = True


def _counting_case(name="count") -> BenchCase:
    def prepare():
        pool = SlotPool(num_disks=8, stride=1)

        def thunk():
            for z in range(8):
                pool.claim(z, "x")
            total = pool.free_half_total
            pool.release_all("x")
            return {"total": total, "free": pool.free_half_total}

        return thunk, [_Policy()]

    return BenchCase(name=name, prepare=prepare, params={"num_disks": 8})


class TestRunSuite:
    def test_document_shape(self):
        doc = run_suite("unit", [_counting_case()], warmup=0, repeats=2)
        validate_document(doc)  # must not raise
        assert doc["schema"] == SCHEMA
        assert doc["suite"] == "unit"
        assert "pair" not in doc
        assert doc["repeats"] == 2
        (row,) = doc["cases"]
        assert row["name"] == "count"
        assert row["byte_identical"] is True
        assert row["speedup"] > 0
        assert len(row["fast"]["times_s"]) == 2
        assert row["fast"]["digest"] == row["reference"]["digest"]

    def test_document_is_json_round_trippable(self):
        doc = run_suite("unit", [_counting_case()], warmup=0, repeats=1)
        validate_document(json.loads(json.dumps(doc)))

    def test_both_modes_actually_run(self):
        """Fast mode leaves the built policies alone; reference mode
        switches every one of them to the scalar pass."""
        seen = []

        def prepare():
            policies = [_Policy(), _Policy()]
            seen.append(policies)
            return (lambda: {"ok": 1}), policies

        run_suite(
            "unit",
            [BenchCase(name="modes", prepare=prepare)],
            warmup=0,
            repeats=1,
        )
        assert [[p.scalar for p in policies] for policies in seen] == [
            [False, False],
            [True, True],
        ]

    def test_nondeterminism_is_an_error(self):
        counter = [0]

        def prepare():
            def thunk():
                counter[0] += 1
                return {"n": counter[0]}

            return thunk, []

        with pytest.raises(BenchError, match="nondeterministic"):
            run_suite(
                "unit",
                [BenchCase(name="drift", prepare=prepare)],
                warmup=0,
                repeats=2,
            )

    def test_mode_divergence_is_an_error(self):
        def prepare():
            policy = _Policy()
            return (lambda: {"scalar": policy.scalar}), [policy]

        with pytest.raises(BenchError, match="diverged"):
            run_suite(
                "unit",
                [BenchCase(name="diverge", prepare=prepare)],
                warmup=0,
                repeats=1,
            )

    def test_batch_pair_divergence_is_an_error(self):
        """With real policies: a payload that sees which admission pass
        is bound diverges, proving the harness switches real policies
        in the reference mode."""

        def prepare():
            _thunk, (policy,) = suite_cases("core", quick=True)[0].prepare()
            return (lambda: {"batched": policy._batch_index is not None}), [
                policy
            ]

        with pytest.raises(BenchError, match="diverged"):
            run_suite(
                "unit",
                [BenchCase(name="diverge", prepare=prepare)],
                warmup=0,
                repeats=1,
            )

    def test_unknown_pair_rejected_up_front(self):
        """One pairing remains; the retired ``--pair`` flag is an
        argparse error (exit 2), not silently ignored."""
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["bench", "--pair", "batch"])
        assert exit_info.value.code == 2

    def test_format_report_lists_every_case(self):
        doc = run_suite(
            "unit",
            [_counting_case("a"), _counting_case("b")],
            warmup=0,
            repeats=1,
        )
        report = format_report(doc)
        assert "a" in report and "b" in report and "speedup" in report
        assert "batched" in report and "scalar" in report


class TestValidateDocument:
    def test_rejects_wrong_schema(self):
        with pytest.raises(BenchError, match="schema"):
            validate_document({"schema": "bogus/9", "cases": [{}]})

    def test_rejects_schema_one(self):
        """Old committed baselines must be regenerated, not silently
        reinterpreted."""
        with pytest.raises(BenchError, match="schema"):
            validate_document({"schema": "repro-bench/1", "cases": [{}]})

    def test_rejects_schema_two(self):
        """Documents from the pair-axis era (``--pair batch|occ-index``)
        paired different references; they are re-recorded, not
        compared."""
        with pytest.raises(BenchError, match="schema"):
            validate_document(
                {"schema": "repro-bench/2", "pair": "batch", "cases": [{}]}
            )

    def test_rejects_missing_cases(self):
        with pytest.raises(BenchError, match="no cases"):
            validate_document({"schema": SCHEMA, "cases": []})

    def test_rejects_non_identical_outputs(self):
        doc = run_suite("unit", [_counting_case()], warmup=0, repeats=1)
        doc["cases"][0]["byte_identical"] = False
        with pytest.raises(BenchError, match="non-identical"):
            validate_document(doc)

    def test_reexport_is_the_same_function(self):
        assert _vd is validate_document


class TestCheckRegression:
    def _doc(self, speedup):
        doc = run_suite("unit", [_counting_case()], warmup=0, repeats=1)
        doc["cases"][0]["speedup"] = speedup
        return doc

    def test_no_failure_within_tolerance(self):
        assert check_regression(self._doc(1.6), self._doc(2.0)) == []

    def test_failure_beyond_tolerance(self):
        failures = check_regression(self._doc(1.0), self._doc(2.0))
        assert len(failures) == 1
        assert "1.00x" in failures[0]

    def test_unknown_baseline_case_is_ignored(self):
        current = self._doc(1.0)
        baseline = self._doc(2.0)
        baseline["cases"][0]["name"] = "something-else"
        assert check_regression(current, baseline) == []


class TestSuiteRegistry:
    def test_known_suites(self):
        assert SUITES == ("core", "sweep", "batched")

    @pytest.mark.parametrize("suite", SUITES)
    def test_every_suite_yields_cases(self, suite):
        cases = suite_cases(suite, quick=True)
        assert cases
        for case in cases:
            assert case.name and callable(case.prepare)

    def test_unknown_suite_raises(self):
        with pytest.raises(ReproError, match="unknown bench suite"):
            suite_cases("nope")


class TestSeededRepeatability:
    def test_quick_sweep_suite_is_repeatable(self):
        """Two fresh runs of a real suite produce identical digests —
        the underlying workloads are fully seeded — and the scalar
        reference matches the batched pass."""
        first = run_suite(
            "sweep", suite_cases("sweep", quick=True), quick=True,
            warmup=0, repeats=1,
        )
        second = run_suite(
            "sweep", suite_cases("sweep", quick=True), quick=True,
            warmup=0, repeats=1,
        )
        for a, b in zip(first["cases"], second["cases"]):
            assert a["name"] == b["name"]
            assert a["fast"]["digest"] == b["fast"]["digest"]
            assert a["reference"]["digest"] == b["reference"]["digest"]
            assert a["byte_identical"] and b["byte_identical"]

    def test_real_cases_hand_back_striping_policies(self):
        for case in suite_cases("sweep", quick=True):
            _thunk, policies = case.prepare()
            assert policies
            assert all(
                isinstance(policy, StaggeredStripingPolicy)
                for policy in policies
            )
