"""End-to-end verification suite behind the `selftest` command.

Each criterion function returns a :class:`CriterionResult`; `run_all` executes
them in order and reports one line per criterion.  The same functions back
the package's acceptance tests so the command-line check and the test suite
cannot drift apart.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import catalog
from .bridge import (
    decompose_tensors,
    extract_classical_hmm,
    observed_mps,
    tensors_from_ehmm,
)
from .ehmm import EhmmModel, build_psi_hon, build_psi_on, observation_from_joint
from .entropy import (
    DensityMatrix,
    check_bound,
    diagonal_channel,
    observation_density_formula,
    observation_density_trace,
    relative_entropy,
)
from .linalg import partial_trace
from .mps import build_state, gauge_check

RANDOM_SHAPES = ((2, 2), (2, 3), (3, 2))

__all__ = ["CriterionResult", "run_all", "criterion_functions"]


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    elapsed: float


def _criterion_models() -> list[tuple[str, EhmmModel]]:
    """The model roster shared by several criteria."""
    models = [
        ("ghz", catalog.get("ghz").model),
        ("cluster", catalog.get("cluster").model),
        ("aklt-derived", catalog.get("aklt-derived").model),
        ("theta(pi/3)", catalog.get("theta", theta=math.pi / 3).model),
    ]
    for seed in range(10):
        m, d = RANDOM_SHAPES[seed % len(RANDOM_SHAPES)]
        models.append((f"random(m={m},d={d},seed={seed})", catalog.random_model(m, d, 6, seed)))
    return models


def criterion_1() -> CriterionResult:
    """Partial measurement reproduces the direct MPS build, independent of n."""
    start = time.time()
    worst = 0.0
    worst_case = ""
    for name, model in _criterion_models():
        t = tensors_from_ehmm(model, require_unitary=False)
        for n_keep in (1, 2, 3, 4):
            direct = build_state(t, n_keep)
            previous = None
            for n in (n_keep, n_keep + 1, n_keep + 2):
                measured = observed_mps(model, n_keep, n)
                dev = float(np.max(np.abs(measured.entries - direct.entries)))
                if previous is not None:
                    dev = max(
                        dev,
                        float(np.max(np.abs(measured.entries - previous.entries))),
                    )
                previous = measured
                if dev > worst:
                    worst, worst_case = dev, f"{name} N={n_keep} n={n}"
    elapsed = time.time() - start
    passed = worst <= 1e-10 and elapsed <= 60.0
    return CriterionResult(
        1,
        "partial-measurement round trip",
        passed,
        f"max deviation {worst:.3e} ({worst_case}), {elapsed:.1f}s",
        elapsed,
    )


def criterion_2() -> CriterionResult:
    """Extraction fixtures and gauge condition across the whole catalog."""
    start = time.time()
    failures: list[str] = []

    aklt = extract_classical_hmm(catalog.get("aklt").tensors)
    pi_expected = np.array([[1, 2], [2, 1]]) / 3.0
    q_expected = np.array([[2, 1, 0], [0, 1, 2]]) / 3.0
    dev_pi = float(np.max(np.abs(aklt.transitions[0] - pi_expected)))
    dev_q = float(np.max(np.abs(aklt.emissions[0] - q_expected)))
    if max(dev_pi, dev_q) > 1e-15:
        failures.append(f"aklt extraction off by {max(dev_pi, dev_q):.2e}")

    for th in (math.pi / 6, math.pi / 4, math.pi / 3):
        ex = extract_classical_hmm(catalog.get("theta", theta=th).tensors)
        c2, s2 = math.cos(th) ** 2, math.sin(th) ** 2
        dev = max(
            float(np.max(np.abs(ex.transitions[0] - np.array([[c2, s2], [0, 1]])))),
            float(np.max(np.abs(ex.emissions[0] - np.array([[c2, s2], [1, 0]])))),
        )
        if dev > 1e-15:
            failures.append(f"theta({th:.3f}) extraction off by {dev:.2e}")

    tensor_sets = [
        ("ghz", catalog.get("ghz").tensors),
        ("cluster", catalog.get("cluster").tensors),
        ("aklt", catalog.get("aklt").tensors),
        ("aklt-derived", catalog.get("aklt-derived").tensors),
    ] + [
        (f"theta({th:.3f})", catalog.get("theta", theta=th).tensors)
        for th in (math.pi / 6, math.pi / 4, math.pi / 3)
    ]
    worst_gauge = max(gauge_check(t).max_deviation for _, t in tensor_sets)
    if worst_gauge > 1e-12:
        failures.append(f"catalog gauge deviation {worst_gauge:.2e}")

    elapsed = time.time() - start
    detail = f"extraction devs {dev_pi:.1e}/{dev_q:.1e}, worst gauge {worst_gauge:.1e}"
    if failures:
        detail = "; ".join(failures)
    return CriterionResult(2, "gauge and extraction fixtures", not failures, detail, elapsed)


def criterion_3() -> CriterionResult:
    """AKLT tensors cannot factor; cluster tensors factor with Hadamard moduli."""
    start = time.time()
    failures: list[str] = []
    aklt = decompose_tensors(catalog.get("aklt").tensors)
    if aklt.feasible:
        failures.append("aklt reported feasible")
    elif aklt.witness is None or aklt.witness.sigma2 <= 0.0:
        failures.append("aklt witness lacks a nonzero second singular value")

    cluster = decompose_tensors(catalog.get("cluster").tensors)
    if not cluster.feasible:
        failures.append("cluster reported infeasible")
    else:
        mod_dev = float(np.max(np.abs(np.abs(cluster.hidden[0]) - 1 / math.sqrt(2))))
        if mod_dev > 1e-10:
            failures.append(f"cluster |U| deviates {mod_dev:.2e}")
        if cluster.reconstruction_error > 1e-10:
            failures.append(f"cluster reconstruction error {cluster.reconstruction_error:.2e}")
    elapsed = time.time() - start
    detail = (
        f"aklt sigma2 {aklt.witness.sigma2:.4f}; cluster recon "
        f"{cluster.reconstruction_error if cluster.feasible else float('nan'):.2e}"
        if not failures
        else "; ".join(failures)
    )
    return CriterionResult(3, "factorization feasibility", not failures, detail, elapsed)


def criterion_4() -> CriterionResult:
    """Transfer-formula observation density equals the partial-trace route."""
    start = time.time()
    models = [
        ("ghz", catalog.get("ghz").model),
        ("cluster", catalog.get("cluster").model),
        ("aklt-derived", catalog.get("aklt-derived").model),
        ("theta(pi/3)", catalog.get("theta", theta=math.pi / 3).model),
    ]
    for seed in range(100, 105):
        m, d = RANDOM_SHAPES[seed % len(RANDOM_SHAPES)]
        models.append((f"random(seed={seed})", catalog.random_model(m, d, 4, seed)))
    worst = 0.0
    worst_case = ""
    for name, model in models:
        t = tensors_from_ehmm(model, require_unitary=False)
        max_n = 2 if model.d == 3 else 3
        for n_sites in range(1, max_n + 1):
            formula = observation_density_formula(t, model.pi, n_sites)
            traced = observation_density_trace(model, n_sites)
            dev = float(np.max(np.abs(formula.matrix - traced.matrix)))
            if dev > worst:
                worst, worst_case = dev, f"{name} N={n_sites}"
    elapsed = time.time() - start
    return CriterionResult(
        4,
        "observation-density cross-check",
        worst <= 1e-12,
        f"max deviation {worst:.3e} ({worst_case})",
        elapsed,
    )


def criterion_5() -> CriterionResult:
    """Entropy lower bound: GHZ closed form plus the whole model roster."""
    start = time.time()
    failures: list[str] = []

    ghz_report = check_bound(catalog.get("ghz").model, 3)
    if abs(ghz_report.s_value - math.log(2.0)) > 1e-8:
        failures.append(f"GHZ S = {ghz_report.s_value} != ln 2")
    if abs(ghz_report.rhs_value) > 1e-10:
        failures.append(f"GHZ RHS = {ghz_report.rhs_value} != 0")

    worst_gap = math.inf
    worst_identity = 0.0
    for name, model in _criterion_models():
        for n_sites in (1, 2, 3):
            rep = check_bound(model, n_sites)
            if not (rep.holds and rep.holds_normalized):
                failures.append(f"{name} N={n_sites}: bound fails")
            if not math.isinf(rep.s_value_normalized):
                worst_gap = min(worst_gap, rep.s_value_normalized - rep.rhs_value_normalized)
            identity_dev = abs(rep.rhs_value_normalized - rep.s_diag_normalized)
            if identity_dev > 1e-10:
                failures.append(f"{name} N={n_sites}: RHS/diagonal mismatch {identity_dev:.2e}")
            worst_identity = max(worst_identity, identity_dev)
    elapsed = time.time() - start
    detail = (
        f"GHZ S={ghz_report.s_value:.9f}, RHS={ghz_report.rhs_value:.1e}; "
        f"min normalized gap {worst_gap:.3e}; max RHS identity dev {worst_identity:.1e}"
        if not failures
        else "; ".join(failures[:4])
    )
    return CriterionResult(5, "entropy lower bound", not failures, detail, elapsed)


def _random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def criterion_6() -> CriterionResult:
    """Data processing: dephasing and partial trace never increase divergence."""
    start = time.time()
    worst = -math.inf
    cases = 0
    for idx in range(50):
        dims = (2, 2) if idx % 2 == 0 else (2, 4)
        dim = dims[0] * dims[1]
        rng = np.random.Generator(np.random.PCG64(2000 + idx))
        rho = _random_density(rng, dim)
        sigma = _random_density(rng, dim)
        s_full = relative_entropy(
            DensityMatrix(rho, dims), DensityMatrix(sigma, dims)
        )
        s_deph = relative_entropy(
            diagonal_channel(DensityMatrix(rho, dims)),
            diagonal_channel(DensityMatrix(sigma, dims)),
        )
        s_red = relative_entropy(
            DensityMatrix(partial_trace(rho, dims, {1}), (dims[1],)),
            DensityMatrix(partial_trace(sigma, dims, {1}), (dims[1],)),
        )
        worst = max(worst, s_deph - s_full, s_red - s_full)
        cases += 1
    elapsed = time.time() - start
    return CriterionResult(
        6,
        "data processing inequality",
        worst <= 1e-8,
        f"{cases} pairs, max channel excess {worst:.3e}",
        elapsed,
    )


def criterion_7() -> CriterionResult:
    """Joint states are unit vectors; observation route consistency."""
    start = time.time()
    worst_norm = 0.0
    worst_route = 0.0
    for _, model in _criterion_models():
        for n in range(1, 6):
            psi = build_psi_hon(model, n)
            worst_norm = max(worst_norm, abs(psi.norm() - 1.0))
            via_pip = observation_from_joint(model, n)
            direct = build_psi_on(model, n)
            worst_route = max(
                worst_route, float(np.max(np.abs(via_pip.entries - direct.entries)))
            )
    elapsed = time.time() - start
    passed = worst_norm <= 1e-10 and worst_route <= 1e-10
    return CriterionResult(
        7,
        "unit vectors and observation route",
        passed,
        f"max |norm-1| {worst_norm:.2e}, route dev {worst_route:.2e}",
        elapsed,
    )


def criterion_8(fixture_path: str | Path | None = None) -> CriterionResult:
    """The rebuilt tensors generate a state distinct from the original AKLT state."""
    start = time.time()
    psi = build_state(catalog.get("aklt").tensors, 3)
    psi_new = build_state(catalog.get("aklt-derived").tensors, 3)
    overlap = abs(psi.inner(psi_new)) / (psi.norm() * psi_new.norm())
    passed = overlap < 1.0 - 1e-6
    note = ""
    if fixture_path is not None:
        path = Path(fixture_path)
        if path.exists():
            stored = json.loads(path.read_text())["normalized_overlap"]
            if abs(stored - overlap) > 1e-12:
                passed = False
                note = f"; fixture {stored} != computed"
            else:
                note = "; matches fixture"
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps({"normalized_overlap": overlap}, indent=2) + "\n")
            note = "; fixture written"
    elapsed = time.time() - start
    return CriterionResult(
        8,
        "distinctness of rebuilt state",
        passed,
        f"normalized overlap {overlap:.12f}{note}",
        elapsed,
    )


def criterion_functions(
    fixture_path: str | Path | None = None,
) -> list[Callable[[], CriterionResult]]:
    return [
        criterion_1,
        criterion_2,
        criterion_3,
        criterion_4,
        criterion_5,
        criterion_6,
        criterion_7,
        lambda: criterion_8(fixture_path),
    ]


def run_all(fixture_path: str | Path | None = None) -> list[CriterionResult]:
    results = []
    for fn in criterion_functions(fixture_path):
        result = fn()
        results.append(result)
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} criterion {result.index}: {result.name} -- {result.detail}")
    total = sum(r.elapsed for r in results)
    all_ok = all(r.passed for r in results)
    print(
        f"{'PASS' if all_ok and total < 300 else 'FAIL'} criterion 9: "
        f"full suite in {total:.1f}s (< 300s required)"
    )
    return results
