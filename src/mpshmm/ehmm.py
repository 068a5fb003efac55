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
    "build_psi_hon",
    "build_psi_hn",
    "build_psi_on",
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


def _row_violations(
    kind: str, mats: tuple[np.ndarray, ...], shape: tuple[int, int]
) -> list[Violation]:
    """Shape and unit-row-norm violations of one matrix family, in site order.

    The squared-modulus row sums of every matrix of the expected shape come
    from one reduction over their rows stacked end to end.
    """
    fits = [a.shape == shape for a in mats]
    sites = [idx for idx, fit in enumerate(fits, start=1) if fit]
    by_site: dict[int, list[Violation]] = {}
    if sites:
        sums = (np.abs(np.concatenate([mats[s - 1] for s in sites])) ** 2).sum(axis=1)
        dev = np.abs(sums - 1.0)
        for r in np.flatnonzero(dev > ROW_NORM_TOL):
            site, row = sites[r // shape[0]], r % shape[0]
            by_site.setdefault(site, []).append(
                Violation(
                    f"{kind}[{site}] row {row}", f"squared-modulus row sum = {sums[r]}", dev[r]
                )
            )
    out: list[Violation] = []
    for idx, (a, fit) in enumerate(zip(mats, fits), start=1):
        if fit:
            out += by_site.get(idx, [])
        else:
            out.append(Violation(f"{kind}[{idx}]", f"shape {a.shape} != {shape}", 0.0))
    return out


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
    out += _row_violations("hidden", model.hidden, (m, m))
    out += _row_violations("emission", model.emission, (m, d))
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


def _check_cap(
    size_cap: int, *powers: tuple[int, int], what: str = "state"
) -> None:
    """Refuse a dense array of prod(base**exp) entries above ``size_cap``.

    Each base is at least 2^(bit_length - 1).  When that lower bound already
    exceeds 2^64 times the cap, the count is refused, named by its powers,
    without building its integer; otherwise it is computed exactly, so the
    boundary is exact.
    """
    if sum(e * (b.bit_length() - 1) for b, e in powers) > int(size_cap).bit_length() + 64:
        shape = " * ".join(f"{b}^{e}" for b, e in powers)
        raise ValueError(f"{what} of {shape} entries exceeds size cap {size_cap}")
    entries = math.prod(b**e for b, e in powers)
    if entries > size_cap:
        raise ValueError(f"{what} of {entries} entries exceeds size cap {size_cap}")


def _chain_step(
    x: np.ndarray, u: np.ndarray, chi: np.ndarray, sum_hidden: bool = False
) -> np.ndarray:
    """Advance the hidden chain by one site.

    ``x[h, i, w]`` holds the chain so far: the kept hidden prefix h, the
    current hidden index i and the observation prefix w, both in C order.
    The site multiplies in u[i, j] * chi[i, k], moves to the next hidden
    index j and appends k to w.  Kept, i joins the hidden prefix (one
    broadcast); summed, x must be (1, m, W) and i is summed by one GEMM.
    """
    h, m, w = x.shape
    out_m, d = u.shape[1], chi.shape[1]
    if sum_hidden:
        y = (x[0, :, :, None] * chi[:, None, :]).reshape(m, -1)
        return (u.T @ y).reshape(1, out_m, w * d)
    site = u[:, :, None] * chi[:, None, :]
    out = x[:, :, None, :, None] * site[None, :, :, None, :]
    return out.reshape(h * m, out_m, w * d)


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
    _check_cap(size_cap, (m, n + 1), (d, n))
    x = np.sqrt(model.pi.astype(np.complex128)).reshape(1, m, 1)
    for l in range(1, n + 1):
        x = _chain_step(x, model.hidden_at(l), model.emission_at(l))
    return TensorVector((m,) * (n + 1) + (d,) * n, x.reshape(-1))


def build_psi_hn(
    model: EhmmModel, n: int, size_cap: int = DEFAULT_SIZE_CAP
) -> TensorVector:
    """Hidden Markov chain state on n+1 hidden factors; a unit vector."""
    require_valid(model)
    if n < 1:
        raise ValueError("n must be >= 1")
    m = model.m
    _check_cap(size_cap, (m, n + 1))
    x = np.sqrt(model.pi.astype(np.complex128)).reshape(1, m, 1)
    no_emission = np.ones((m, 1))
    for l in range(1, n + 1):
        x = _chain_step(x, model.hidden_at(l), no_emission)
    return TensorVector((m,) * (n + 1), x.reshape(-1))


def build_psi_on(
    model: EhmmModel, n: int, size_cap: int = DEFAULT_SIZE_CAP
) -> TensorVector:
    """Observation-process vector on n observation factors (not unit norm).

    Coefficients chain the classical transition matrices of sites 1..n-1
    between consecutive hidden indices and weight each site with the
    emission amplitudes:

        sum_{i1..in} pi[i1] * Pi_1[i1,i2] * ... * Pi_{n-1}[i_{n-1},i_n]
                            * chi[1][i1,k1] * ... * chi[n][i_n,k_n]

    This is the site numbering the partial-inner-product route
    (`observation_from_joint`) gives, also for site-dependent models.
    """
    require_valid(model)
    if n < 1:
        raise ValueError("n must be >= 1")
    m, d = model.m, model.d
    _check_cap(size_cap, (d, n))
    x = model.pi.astype(np.complex128).reshape(1, m, 1)
    for l in range(1, n + 1):
        # the last site has no transition; summing i_n is a column of ones
        trans = np.abs(model.hidden_at(l)) ** 2 if l < n else np.ones((m, 1))
        x = _chain_step(x, trans, model.emission_at(l), sum_hidden=True)
    return TensorVector((d,) * n, x.reshape(-1))


def observation_from_joint(model: EhmmModel, n: int, size_cap: int = DEFAULT_SIZE_CAP) -> TensorVector:
    """Observation vector via partial inner product against the hidden chain.

    This is the defining route: contract the joint state over all n+1 hidden
    factors, holding the hidden chain vector.
    """
    joint = build_psi_hon(model, n, size_cap)
    chain = build_psi_hn(model, n, size_cap)
    return partial_inner_product(joint, chain, n + 1)
