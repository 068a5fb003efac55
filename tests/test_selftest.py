"""The criterion runner behind `selftest`: timing, time limit, result packing and fixed inputs."""

import gc
import itertools
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mpshmm import selftest
from mpshmm.ehmm import observation_from_joint
from mpshmm.linalg import TensorVector

SRC = Path(__file__).resolve().parent.parent / "src"

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
    monkeypatch.setattr(selftest, "time", SimpleNamespace(perf_counter=clock.__next__))
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


def test_fixed_inputs_are_the_same_read_only_objects_on_every_call():
    models = selftest._criterion_4_models()
    pairs = selftest._criterion_6_pairs()
    assert selftest._criterion_4_models() is models
    assert selftest._criterion_6_pairs() is pairs
    assert [name for name, _ in models] == [f"random(seed={seed})" for seed in range(100, 105)]
    assert len(pairs) == 50
    arrays = [a for _, model in models for a in (model.pi, *model.hidden, *model.emission)]
    arrays += [x.matrix for pair in pairs for x in pair]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 0.0


def test_importing_selftest_builds_no_fixed_input():
    code = (
        "from mpshmm import selftest; "
        "print([f.cache_info().currsize for f in (selftest._criterion_models, "
        "selftest._criterion_4_models, selftest._criterion_6_pairs)])"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[0, 0, 0]"


def _details(results):
    """(index, name, passed, detail) per criterion, criterion 1's seconds stripped."""
    return [
        (r.index, r.name, r.passed, r.detail.rsplit(", ", 1)[0] if r.index == 1 else r.detail)
        for r in results
    ]


def test_run_all_twice_in_one_process_gives_the_same_details():
    assert _details(selftest.run_all()) == _details(selftest.run_all())


def test_criterion_7_route_equals_observation_from_joint_bit_for_bit(monkeypatch):
    original = selftest.partial_inner_product
    routes = []

    def recording(*args):
        routes.append(original(*args))
        return routes[-1]

    monkeypatch.setattr(selftest, "partial_inner_product", recording)
    assert selftest.criterion_7().passed
    cases = [(model, n) for _, model in selftest._criterion_models() for n in range(1, 6)]
    assert len(routes) == len(cases)
    for route, (model, n) in zip(routes, cases):
        expected = observation_from_joint(model, n)
        assert route.factor_dims == expected.factor_dims
        assert np.array_equal(route.entries, expected.entries)


def _traced_peak(fn, *args):
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_criterion_7_peaks_at_the_observation_route_of_its_largest_case():
    # random m=3, d=2 at n=5 has the largest joint state, 3^6 * 2^5 entries
    model = dict(selftest._criterion_models())["random(m=3,d=2,seed=2)"]
    selftest.criterion_7()  # derives each model's cached factors first
    route_peak = _traced_peak(observation_from_joint, model, 5)
    # slack for the small arrays held across cases; a second joint state would add 373 kB
    assert _traced_peak(selftest.criterion_7) <= 1.1 * route_peak
