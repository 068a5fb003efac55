"""End-to-end verification suite behind the `selftest` command.

Each criterion, `criterion_1` to `criterion_8`, is a body that returns
``(passed, detail)``.  The private `_criterion` runner times the body and
packs a :class:`CriterionResult`; a criterion with a time limit (criterion
1, 60 s) fails past it and ends its detail with the elapsed seconds.
`run_all` executes the criteria in order and reports one line per criterion.
It takes no inputs: the command-line `selftest` and the package's acceptance
tests both call it, so the two cannot drift apart.

The fixed inputs are built once per process, on first use and never at
import: the model roster, criterion 4's random models and criterion 6's
density pairs, each read-only.  Only inputs are kept between runs; every
run recomputes every check.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import catalog
from .bridge import (
    decompose_tensors,
    extract_classical_hmm,
    observed_mps,
    tensors_from_ehmm,
)
from .ehmm import EhmmModel, build_psi_hn, build_psi_hon, build_psi_on
from .entropy import (
    DensityMatrix,
    check_bound,
    diagonal_channel,
    observation_density_formula,
    observation_density_trace,
    relative_entropy,
)
from .linalg import partial_inner_product, partial_trace
from .mps import build_state, gauge_check

RANDOM_SHAPES = ((2, 2), (2, 3), (3, 2))

__all__ = ["CriterionResult", "run_all"]


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    elapsed: float


@functools.cache
def _criterion_models() -> tuple[tuple[str, EhmmModel], ...]:
    """The model roster shared by several criteria, built once per process.

    Sharing is safe: an `EhmmModel` is frozen and holds read-only arrays.
    """
    models = [
        ("ghz", catalog.get("ghz").model),
        ("cluster", catalog.get("cluster").model),
        ("aklt-derived", catalog.get("aklt-derived").model),
        ("theta(pi/3)", catalog.get("theta", theta=math.pi / 3).model),
    ]
    for seed in range(10):
        m, d = RANDOM_SHAPES[seed % len(RANDOM_SHAPES)]
        models.append((f"random(m={m},d={d},seed={seed})", catalog.random_model(m, d, 6, seed)))
    return tuple(models)


@functools.cache
def _criterion_4_models() -> tuple[tuple[str, EhmmModel], ...]:
    """Criterion 4's random 4-site models (seeds 100-104), built once per process."""
    models = []
    for seed in range(100, 105):
        m, d = RANDOM_SHAPES[seed % len(RANDOM_SHAPES)]
        models.append((f"random(seed={seed})", catalog.random_model(m, d, 4, seed)))
    return tuple(models)


def _criterion(index: int, name: str, limit_s: float = math.inf):
    """Time a ``(passed, detail)`` body and pack its result as criterion ``index``."""

    def decorate(body: Callable[..., tuple[bool, str]]) -> Callable[..., CriterionResult]:
        @functools.wraps(body)
        def run(*args, **kwargs) -> CriterionResult:
            start = time.perf_counter()
            passed, detail = body(*args, **kwargs)
            elapsed = time.perf_counter() - start
            if math.isfinite(limit_s):
                passed = passed and elapsed <= limit_s
                detail = f"{detail}, {elapsed:.1f}s"
            return CriterionResult(index, name, passed, detail, elapsed)

        return run

    return decorate


@_criterion(1, "partial-measurement round trip", limit_s=60.0)
def criterion_1() -> tuple[bool, str]:
    """Partial measurement reproduces the direct MPS build, independent of n."""
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
    return worst <= 1e-10, f"max deviation {worst:.3e} ({worst_case})"


@_criterion(2, "gauge and extraction fixtures")
def criterion_2() -> tuple[bool, str]:
    """Extraction fixtures and gauge condition across the whole catalog."""
    failures: list[str] = []
    names = ("aklt", "ghz", "cluster", "aklt-derived")
    tensor_sets = [catalog.get(name).tensors for name in names]

    aklt = extract_classical_hmm(tensor_sets[0])
    pi_expected = np.array([[1, 2], [2, 1]]) / 3.0
    q_expected = np.array([[2, 1, 0], [0, 1, 2]]) / 3.0
    dev_pi = float(np.max(np.abs(aklt.transitions[0] - pi_expected)))
    dev_q = float(np.max(np.abs(aklt.emissions[0] - q_expected)))
    if max(dev_pi, dev_q) > 1e-15:
        failures.append(f"aklt extraction off by {max(dev_pi, dev_q):.2e}")

    for th in (math.pi / 6, math.pi / 4, math.pi / 3):
        tensor_sets.append(catalog.get("theta", theta=th).tensors)
        ex = extract_classical_hmm(tensor_sets[-1])
        c2, s2 = math.cos(th) ** 2, math.sin(th) ** 2
        dev = max(
            float(np.max(np.abs(ex.transitions[0] - np.array([[c2, s2], [0, 1]])))),
            float(np.max(np.abs(ex.emissions[0] - np.array([[c2, s2], [1, 0]])))),
        )
        if dev > 1e-15:
            failures.append(f"theta({th:.3f}) extraction off by {dev:.2e}")

    worst_gauge = max(gauge_check(t).max_deviation for t in tensor_sets)
    if worst_gauge > 1e-12:
        failures.append(f"catalog gauge deviation {worst_gauge:.2e}")

    detail = f"extraction devs {dev_pi:.1e}/{dev_q:.1e}, worst gauge {worst_gauge:.1e}"
    if failures:
        detail = "; ".join(failures)
    return not failures, detail


@_criterion(3, "factorization feasibility")
def criterion_3() -> tuple[bool, str]:
    """AKLT tensors cannot factor; cluster tensors factor with Hadamard moduli."""
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
    detail = (
        f"aklt sigma2 {aklt.witness.sigma2:.4f}; cluster recon "
        f"{cluster.reconstruction_error if cluster.feasible else float('nan'):.2e}"
        if not failures
        else "; ".join(failures)
    )
    return not failures, detail


@_criterion(4, "observation-density cross-check")
def criterion_4() -> tuple[bool, str]:
    """Transfer-formula observation density equals the partial-trace route."""
    worst = 0.0
    worst_case = ""
    for name, model in (*_criterion_models()[:4], *_criterion_4_models()):
        t = tensors_from_ehmm(model, require_unitary=False)
        max_n = 2 if model.d == 3 else 3
        for n_sites in range(1, max_n + 1):
            formula = observation_density_formula(t, model.pi, n_sites)
            traced = observation_density_trace(model, n_sites)
            dev = float(np.max(np.abs(formula.matrix - traced.matrix)))
            if dev > worst:
                worst, worst_case = dev, f"{name} N={n_sites}"
    return worst <= 1e-12, f"max deviation {worst:.3e} ({worst_case})"


@_criterion(5, "entropy lower bound")
def criterion_5() -> tuple[bool, str]:
    """Entropy lower bound: GHZ closed form plus the whole model roster."""
    failures: list[str] = []
    worst_gap = math.inf
    worst_identity = 0.0
    for name, model in _criterion_models():
        for n_sites in (1, 2, 3):
            rep = check_bound(model, n_sites)
            if name == "ghz" and n_sites == 3:
                ghz_report = rep
            if not (rep.holds and rep.holds_normalized):
                failures.append(f"{name} N={n_sites}: bound fails")
            if not math.isinf(rep.s_value_normalized):
                worst_gap = min(worst_gap, rep.s_value_normalized - rep.rhs_value_normalized)
            identity_dev = abs(rep.rhs_value_normalized - rep.s_diag_normalized)
            if identity_dev > 1e-10:
                failures.append(f"{name} N={n_sites}: RHS/diagonal mismatch {identity_dev:.2e}")
            worst_identity = max(worst_identity, identity_dev)

    # the GHZ closed form is checked on the roster's GHZ report at N=3, its failures listed first
    ghz_failures = []
    if abs(ghz_report.s_value - math.log(2.0)) > 1e-8:
        ghz_failures.append(f"GHZ S = {ghz_report.s_value} != ln 2")
    if abs(ghz_report.rhs_value) > 1e-10:
        ghz_failures.append(f"GHZ RHS = {ghz_report.rhs_value} != 0")
    failures = ghz_failures + failures
    detail = (
        f"GHZ S={ghz_report.s_value:.9f}, RHS={ghz_report.rhs_value:.1e}; "
        f"min normalized gap {worst_gap:.3e}; max RHS identity dev {worst_identity:.1e}"
        if not failures
        else "; ".join(failures[:4])
    )
    return not failures, detail


def _random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


@functools.cache
def _criterion_6_pairs() -> tuple[tuple[DensityMatrix, DensityMatrix], ...]:
    """Criterion 6's 50 seeded (rho, sigma) pairs, built once per process.

    Each matrix is wrapped in one `DensityMatrix`, checked when built, and
    made read-only.
    """
    pairs = []
    for idx in range(50):
        dims = (2, 2) if idx % 2 == 0 else (2, 4)
        dim = dims[0] * dims[1]
        rng = np.random.Generator(np.random.PCG64(2000 + idx))
        rho = DensityMatrix(_random_density(rng, dim), dims)
        sigma = DensityMatrix(_random_density(rng, dim), dims)
        rho.matrix.flags.writeable = False
        sigma.matrix.flags.writeable = False
        pairs.append((rho, sigma))
    return tuple(pairs)


@_criterion(6, "data processing inequality")
def criterion_6() -> tuple[bool, str]:
    """Data processing: dephasing and partial trace never increase divergence."""
    worst = -math.inf
    cases = 0
    for rho, sigma in _criterion_6_pairs():
        dims = rho.factor_dims
        s_full = relative_entropy(rho, sigma)
        s_deph = relative_entropy(diagonal_channel(rho), diagonal_channel(sigma))
        s_red = relative_entropy(
            DensityMatrix(partial_trace(rho.matrix, dims, {1}), (dims[1],)),
            DensityMatrix(partial_trace(sigma.matrix, dims, {1}), (dims[1],)),
        )
        worst = max(worst, s_deph - s_full, s_red - s_full)
        cases += 1
    return worst <= 1e-8, f"{cases} pairs, max channel excess {worst:.3e}"


@_criterion(7, "unit vectors and observation route")
def criterion_7() -> tuple[bool, str]:
    """Joint states are unit vectors; observation route consistency."""
    worst_norm = 0.0
    worst_route = 0.0
    for _, model in _criterion_models():
        for n in range(1, 6):
            # one joint state serves both checks: its norm, and the route of
            # `observation_from_joint` (the same three calls), dropped before
            # the direct build so the peak stays that route's own
            joint = build_psi_hon(model, n)
            worst_norm = max(worst_norm, abs(joint.norm() - 1.0))
            via_pip = partial_inner_product(joint, build_psi_hn(model, n), n + 1)
            del joint
            direct = build_psi_on(model, n)
            worst_route = max(
                worst_route, float(np.max(np.abs(via_pip.entries - direct.entries)))
            )
    passed = worst_norm <= 1e-10 and worst_route <= 1e-10
    return passed, f"max |norm-1| {worst_norm:.2e}, route dev {worst_route:.2e}"


@_criterion(8, "distinctness of rebuilt state")
def criterion_8() -> tuple[bool, str]:
    """The rebuilt tensors generate a state orthogonal to the original AKLT state.

    At N=3 the exact overlap is 0; the float route leaves a few 1e-18.
    """
    psi = build_state(catalog.get("aklt").tensors, 3)
    psi_new = build_state(catalog.get("aklt-derived").tensors, 3)
    overlap = abs(psi.inner(psi_new)) / (psi.norm() * psi_new.norm())
    return overlap <= 1e-12, f"normalized overlap {overlap:.12f}"


def run_all() -> list[CriterionResult]:
    """Run criteria 1-8 in order, printing one line each, then criterion 9's runtime line."""
    results = []
    for fn in (
        criterion_1, criterion_2, criterion_3, criterion_4,
        criterion_5, criterion_6, criterion_7, criterion_8,
    ):
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
