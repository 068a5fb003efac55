"""Entangled hidden Markov models and their finite-volume state vectors.

A model is the triple (pi, U, chi): an initial distribution over m hidden
states, per-site m-by-m hidden amplitude matrices U with unit-norm rows, and
per-site m-by-d emission amplitude matrices chi with unit-norm rows.  Squared
moduli of U and chi are the classical transition / emission matrices of the
underlying hidden Markov chain.

The joint state on n sites lives in H^(n+1) (x) K^n and has coefficients

    sqrt(pi[i1]) * U[1][i1,i2] * ... * U[n][i_n,i_{n+1}]
                 * chi[1][i1,k1] * ... * chi[n][i_n,k_n]

on the basis vector e_{i1..i_{n+1}} (x) |k1..kn>.  Hidden factors come first,
then observation factors, both lexicographic.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass, field

import numpy as np

from .linalg import ATOL, TensorVector, as_matrix, partial_inner_product

DEFAULT_SIZE_CAP = 2**22
ROW_NORM_TOL = 1e-10
PI_SUM_TOL = 1e-12

__all__ = [
    "DEFAULT_SIZE_CAP",
    "EhmmModel",
    "Violation",
    "validate",
    "require_valid",
    "is_unitary",
    "stochastic_projections",
    "hidden_isometry_matrix",
    "emission_isometry_matrix",
    "transition_expectation",
    "emission_expectation",
    "build_psi_hon",
    "build_psi_hn",
    "build_psi_on",
    "psi_on_reading_gap",
    "observation_from_joint",
]


@dataclass(frozen=True)
class EhmmModel:
    """Initial distribution plus per-site hidden/emission amplitude matrices.

    ``hidden[l]`` and ``emission[l]`` describe site l+1 (sites are 1-based in
    formulas).  A translation-invariant model stores a single pair and serves
    it for every site; `validate` reports one that stores more.
    """

    pi: np.ndarray
    hidden: tuple[np.ndarray, ...] = field(repr=False)
    emission: tuple[np.ndarray, ...] = field(repr=False)
    translation_invariant: bool = False

    def __post_init__(self) -> None:
        pi = np.asarray(self.pi, dtype=np.float64).reshape(-1)
        hidden = tuple(as_matrix(u) for u in self.hidden)
        emission = tuple(as_matrix(c) for c in self.emission)
        if not hidden or not emission:
            raise ValueError("model needs at least one site pair")
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "hidden", hidden)
        object.__setattr__(self, "emission", emission)

    @property
    def m(self) -> int:
        return self.hidden[0].shape[0]

    @property
    def d(self) -> int:
        return self.emission[0].shape[1]

    @property
    def n_sites(self) -> int | None:
        """Number of stored sites, or None when translation-invariant."""
        return None if self.translation_invariant else len(self.hidden)

    def hidden_at(self, site: int) -> np.ndarray:
        """Hidden amplitude matrix U at 1-based site index."""
        return self.hidden[self._site_slot(site)]

    def emission_at(self, site: int) -> np.ndarray:
        return self.emission[self._site_slot(site)]

    def _site_slot(self, site: int) -> int:
        if site < 1:
            raise ValueError(f"site index {site} must be >= 1")
        if self.translation_invariant:
            return 0
        if site > len(self.hidden):
            raise ValueError(f"site {site} exceeds {len(self.hidden)} stored sites")
        return site - 1


@dataclass(frozen=True)
class Violation:
    location: str
    message: str
    magnitude: float


def validate(model: EhmmModel) -> list[Violation]:
    """Check every model invariant; an empty report means valid."""
    out: list[Violation] = []
    m, d = model.m, model.d
    pi = model.pi

    if pi.size != m:
        out.append(Violation("pi", f"length {pi.size} != hidden dim {m}", abs(pi.size - m)))
    finite = np.isfinite(pi)
    if not finite.all():
        bad = pi[~finite][0]
        out.append(Violation("pi", f"non-finite entry {bad}", math.inf))
    else:
        neg = float(pi.min(initial=0.0))
        if neg < 0:
            out.append(Violation("pi", f"negative entry {neg}", -neg))
        s = float(pi.sum())
        if abs(s - 1.0) > PI_SUM_TOL:
            out.append(Violation("pi", f"pi sum = {s}", abs(s - 1.0)))

    if len(model.hidden) != len(model.emission):
        out.append(
            Violation(
                "sites",
                f"{len(model.hidden)} hidden vs {len(model.emission)} emission matrices",
                abs(len(model.hidden) - len(model.emission)),
            )
        )
    stored = max(len(model.hidden), len(model.emission))
    if model.translation_invariant and stored > 1:
        out.append(
            Violation(
                "sites",
                f"translation-invariant model stores {stored} site pairs, expected 1",
                stored - 1,
            )
        )
    for idx, u in enumerate(model.hidden, start=1):
        if u.shape != (m, m):
            out.append(Violation(f"hidden[{idx}]", f"shape {u.shape} != ({m}, {m})", 0.0))
            continue
        rows = np.abs(u) ** 2
        for i, rsum in enumerate(rows.sum(axis=1)):
            if abs(rsum - 1.0) > ROW_NORM_TOL:
                out.append(
                    Violation(
                        f"hidden[{idx}] row {i}",
                        f"squared-modulus row sum = {rsum}",
                        abs(rsum - 1.0),
                    )
                )
    for idx, c in enumerate(model.emission, start=1):
        if c.shape != (m, d):
            out.append(Violation(f"emission[{idx}]", f"shape {c.shape} != ({m}, {d})", 0.0))
            continue
        for i, rsum in enumerate((np.abs(c) ** 2).sum(axis=1)):
            if abs(rsum - 1.0) > ROW_NORM_TOL:
                out.append(
                    Violation(
                        f"emission[{idx}] row {i}",
                        f"squared-modulus row sum = {rsum}",
                        abs(rsum - 1.0),
                    )
                )
    return out


def require_valid(model: EhmmModel) -> None:
    report = validate(model)
    if report:
        first = report[0]
        raise ValueError(
            f"invalid model ({len(report)} violation(s)); first: "
            f"{first.location}: {first.message}"
        )


def is_unitary(u: np.ndarray, tol: float = ATOL) -> bool:
    u = as_matrix(u)
    if u.shape[0] != u.shape[1]:
        return False
    return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]))) <= tol


def stochastic_projections(
    model: EhmmModel,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-site classical matrices: transitions |U|^2 and emissions |chi|^2."""
    require_valid(model)
    pis = [np.abs(u) ** 2 for u in model.hidden]
    qs = [np.abs(c) ** 2 for c in model.emission]
    return pis, qs


def hidden_isometry_matrix(u: np.ndarray) -> np.ndarray:
    """Explicit (m^2 x m) matrix of e_i |-> sum_j U[i,j] e_i (x) e_j."""
    u = as_matrix(u)
    m = u.shape[0]
    if u.shape != (m, m):
        raise ValueError(f"hidden amplitude matrix must be square, got {u.shape}")
    v = np.zeros((m * m, m), dtype=np.complex128)
    for i in range(m):
        v[i * m : (i + 1) * m, i] = u[i]
    return v


def emission_isometry_matrix(chi: np.ndarray) -> np.ndarray:
    """Explicit (m*d x m) matrix of e_i |-> sum_k chi[i,k] e_i (x) |k>."""
    chi = as_matrix(chi)
    m, d = chi.shape
    v = np.zeros((m * d, m), dtype=np.complex128)
    for i in range(m):
        v[i * d : (i + 1) * d, i] = chi[i]
    return v


def transition_expectation(u: np.ndarray, x: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """One hidden Markov step: V_H^dag (x (x) x2) V_H, as a Schur formula.

    Entry (i,j) is x[i,j] * sum_{k,l} conj(U[i,k]) U[j,l] x2[k,l]; identity
    inputs map to the identity for any row-normalized U.
    """
    u, x, x2 = as_matrix(u), as_matrix(x), as_matrix(x2)
    m = u.shape[0]
    if x.shape != (m, m) or x2.shape != (m, m):
        raise ValueError(f"observables must be {m}x{m}, got {x.shape} and {x2.shape}")
    return x * (u.conj() @ x2 @ u.T)


def emission_expectation(chi: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Hidden/observation coupling step: V_O^dag (x (x) y) V_O."""
    chi, x, y = as_matrix(chi), as_matrix(x), as_matrix(y)
    m, d = chi.shape
    if x.shape != (m, m) or y.shape != (d, d):
        raise ValueError(f"expected {m}x{m} and {d}x{d}, got {x.shape} and {y.shape}")
    return x * (chi.conj() @ y @ chi.T)


def _check_cap(entries: int, size_cap: int) -> None:
    if entries > size_cap:
        raise ValueError(f"state of {entries} entries exceeds size cap {size_cap}")


def _letters(count: int) -> list[str]:
    if count > len(string.ascii_letters):
        raise ValueError("too many tensor factors for einsum construction")
    return list(string.ascii_letters[:count])


def build_psi_hon(
    model: EhmmModel, n: int, size_cap: int = DEFAULT_SIZE_CAP
) -> TensorVector:
    """Joint hidden/observation state on n sites; a unit vector.

    Factors: n+1 hidden (dimension m) followed by n observation (dimension d).
    """
    require_valid(model)
    if n < 1:
        raise ValueError("n must be >= 1")
    m, d = model.m, model.d
    _check_cap(m ** (n + 1) * d**n, size_cap)
    us = [model.hidden_at(l) for l in range(1, n + 1)]
    chis = [model.emission_at(l) for l in range(1, n + 1)]

    hid = _letters(2 * n + 1)[: n + 1]
    obs = _letters(2 * n + 1)[n + 1 :]
    subs = [hid[0]]
    subs += [hid[l] + hid[l + 1] for l in range(n)]
    subs += [hid[l] + obs[l] for l in range(n)]
    out = "".join(hid) + "".join(obs)
    coeff = np.einsum(
        ",".join(subs) + "->" + out,
        np.sqrt(model.pi.astype(np.complex128)),
        *us,
        *chis,
        optimize=True,
    )
    return TensorVector((m,) * (n + 1) + (d,) * n, coeff.reshape(-1))


def build_psi_hn(
    model: EhmmModel, n: int, size_cap: int = DEFAULT_SIZE_CAP
) -> TensorVector:
    """Hidden Markov chain state on n+1 hidden factors; a unit vector."""
    require_valid(model)
    if n < 1:
        raise ValueError("n must be >= 1")
    m = model.m
    _check_cap(m ** (n + 1), size_cap)
    us = [model.hidden_at(l) for l in range(1, n + 1)]
    hid = _letters(n + 1)
    subs = [hid[0]] + [hid[l] + hid[l + 1] for l in range(n)]
    coeff = np.einsum(
        ",".join(subs) + "->" + "".join(hid),
        np.sqrt(model.pi.astype(np.complex128)),
        *us,
        optimize=True,
    )
    return TensorVector((m,) * (n + 1), coeff.reshape(-1))


def build_psi_on(
    model: EhmmModel,
    n: int,
    size_cap: int = DEFAULT_SIZE_CAP,
    shifted_transitions: bool = False,
) -> TensorVector:
    """Observation-process vector on n observation factors (not unit norm).

    Coefficients chain the classical transition matrices between consecutive
    hidden indices and weight each site with the emission amplitudes:

        sum_{i1..in} pi[i1] * Pi[i1,i2] * ... * Pi[i_{n-1},i_n]
                            * chi[1][i1,k1] * ... * chi[n][i_n,k_n]

    Which site matrices supply the n-1 transition factors is ambiguous for
    site-dependent models: the default uses sites 1..n-1, and
    ``shifted_transitions=True`` selects sites 2..n instead.  Both coincide
    for translation-invariant models; the default additionally equals the
    partial-inner-product route exactly, which is why it is the default.
    """
    require_valid(model)
    if n < 1:
        raise ValueError("n must be >= 1")
    m, d = model.m, model.d
    _check_cap(d**n, size_cap)
    offset = 1 if shifted_transitions else 0
    trans = [
        np.abs(model.hidden_at(l + offset)) ** 2 for l in range(1, n)
    ]  # n-1 factors; empty when n == 1
    chis = [model.emission_at(l) for l in range(1, n + 1)]

    hid = _letters(2 * n)[:n]
    obs = _letters(2 * n)[n:]
    subs = [hid[0]]
    subs += [hid[l] + hid[l + 1] for l in range(n - 1)]
    subs += [hid[l] + obs[l] for l in range(n)]
    coeff = np.einsum(
        ",".join(subs) + "->" + "".join(obs),
        model.pi.astype(np.complex128),
        *trans,
        *chis,
        optimize=True,
    )
    return TensorVector((d,) * n, coeff.reshape(-1))


def psi_on_reading_gap(model: EhmmModel, n: int) -> float:
    """Max entrywise gap between the two transition-site numberings.

    Zero for translation-invariant models; a nonzero value flags that the
    site-numbering ambiguity is live for this model, in which case the
    partial-inner-product route (equal to the default numbering) governs.
    """
    default = build_psi_on(model, n)
    shifted = build_psi_on(model, n, shifted_transitions=True)
    return float(np.max(np.abs(default.entries - shifted.entries)))


def observation_from_joint(model: EhmmModel, n: int, size_cap: int = DEFAULT_SIZE_CAP) -> TensorVector:
    """Observation vector via partial inner product against the hidden chain.

    This is the defining route: contract the joint state over all n+1 hidden
    factors, holding the hidden chain vector.
    """
    joint = build_psi_hon(model, n, size_cap)
    chain = build_psi_hn(model, n, size_cap)
    return partial_inner_product(joint, chain, n + 1)
