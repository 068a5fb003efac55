"""Acceptance gate: every criterion at its stated tolerance, one line each.

The results come from `mpshmm.selftest.run_all`, the code of the
command-line `selftest`, so the two can never drift apart; each test
prints its PASS/FAIL line and asserts the outcome.
"""

import pytest

from mpshmm import selftest


@pytest.fixture(scope="module")
def results():
    return {r.index: r for r in selftest.run_all()}


def _report(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} criterion {result.index}: {result.name} -- {result.detail}")
    assert result.passed, f"criterion {result.index}: {result.detail}"


def test_criterion_1_partial_measurement_round_trip(results):
    _report(results[1])


def test_criterion_2_gauge_and_extraction_fixtures(results):
    _report(results[2])


def test_criterion_3_factorization_feasibility(results):
    _report(results[3])


def test_criterion_4_observation_density_equivalence(results):
    _report(results[4])


def test_criterion_5_entropy_lower_bound(results):
    _report(results[5])


def test_criterion_6_data_processing(results):
    _report(results[6])


def test_criterion_7_unit_vectors_and_observation_route(results):
    _report(results[7])


def test_criterion_8_distinctness_with_fixture(results):
    _report(results[8])


def test_criterion_9_suite_runtime(results):
    total = sum(r.elapsed for r in results.values())
    print(f"PASS criterion 9: criteria 1-8 in {total:.1f}s (< 300s)")
    assert total < 300.0
    assert all(r.passed for r in results.values())
