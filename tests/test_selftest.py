"""The criterion runner behind `selftest`: timing, time limit and result packing."""

import itertools
import re
from types import SimpleNamespace

from mpshmm import selftest
from mpshmm.linalg import TensorVector

NAMES = [
    "partial-measurement round trip",
    "gauge and extraction fixtures",
    "factorization feasibility",
    "observation-density cross-check",
    "entropy lower bound",
    "data processing inequality",
    "unit vectors and observation route",
    "distinctness of rebuilt state",
]


def test_criterion_1_past_its_time_limit_fails_with_its_detail_text(monkeypatch):
    on_time = selftest.criterion_1()
    # every clock reading is 61 s after the one before
    clock = itertools.count(0.0, 61.0)
    monkeypatch.setattr(selftest, "time", SimpleNamespace(time=clock.__next__))
    late = selftest.criterion_1()
    assert on_time.passed and not late.passed
    assert late.elapsed == 61.0
    assert re.fullmatch(r"max deviation \d\.\d{3}e[+-]\d\d \(.+ N=\d n=\d\), 61\.0s", late.detail)
    assert late.detail.rsplit(", ", 1)[0] == on_time.detail.rsplit(", ", 1)[0]


def test_run_all_reports_criteria_1_to_8_by_name():
    results = selftest.run_all()
    assert [(r.index, r.name) for r in results] == list(enumerate(NAMES, start=1))


def test_criteria_keep_their_module_function_names():
    for index in range(1, 9):
        fn = getattr(selftest, f"criterion_{index}")
        assert (fn.__module__, fn.__name__) == ("mpshmm.selftest", f"criterion_{index}")


def test_criterion_8_fails_on_a_pair_that_overlaps_but_is_not_orthogonal(monkeypatch):
    # two unit vectors (1 + 1e-18 rounds to 1) at overlap 1e-9: distinct, but not orthogonal
    states = iter([TensorVector((2,), [1.0, 0.0]), TensorVector((2,), [1e-9, 1.0])])
    monkeypatch.setattr(selftest, "build_state", lambda tensors, n_sites: next(states))
    result = selftest.criterion_8()
    assert not result.passed
    assert result.detail == "normalized overlap 0.000000001000"
