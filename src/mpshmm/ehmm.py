"""Entangled hidden Markov models and their finite-volume state vectors.

A model is the triple (pi, U, chi): an initial distribution over m hidden
states and, per site, m-by-m hidden amplitudes U and m-by-d emission
amplitudes chi with unit-norm rows, held as read-only (L, m, m) and (L, m, d)
stacks over the L stored sites, so that per-site checks and factors such as
|U|^2 (the classical transitions) are one array operation each.

Every route in the package takes sites 1..n of a stack from one rule,
`_over_sites`: a translation-invariant stack (L = 1) serves any n >= 1 as a
broadcast view, a site-dependent one 1 <= n <= L, and any other n raises one
message.  A per-site factor is computed on the stored stack, then spread.

A model is immutable, so what is derived from it alone is derived once per
process and shared read-only: whether its hidden stack is unitary
(`EhmmModel.hidden_unitary`) and its site tensors (`bridge.tensors_from_ehmm`).

The joint state on n sites lives in H^(n+1) (x) K^n and has coefficients

    sqrt(pi[i1]) * U[1][i1,i2] * ... * U[n][i_n,i_{n+1}]
                 * chi[1][i1,k1] * ... * chi[n][i_n,k_n]

on the basis vector e_{i1..i_{n+1}} (x) |k1..kn>.  Hidden factors come first,
then observation factors, both lexicographic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .linalg import ATOL, TensorVector, as_matrix, partial_inner_product

if TYPE_CHECKING:
    from .mps import SiteTensorSet

DEFAULT_SIZE_CAP = 2**22
ROW_NORM_TOL = 1e-10
PI_SUM_TOL = 1e-12

__all__ = [
    "DEFAULT_SIZE_CAP",
    "EhmmModel",
    "Violation",
    "validate",
    "require_valid",
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
    it for every site.  Construction copies U and chi into read-only (L, m, m)
    and (L, m, d) stacks over the L stored sites, of which ``hidden`` and
    ``emission`` are views, and raises `ValueError` unless the model is valid.
    The site tensors `bridge.tensors_from_ehmm` builds are kept in ``_tensors``.
    """

    pi: np.ndarray
    hidden: tuple[np.ndarray, ...] = field(repr=False)
    emission: tuple[np.ndarray, ...] = field(repr=False)
    translation_invariant: bool = False
    _hidden: np.ndarray = field(init=False, repr=False, compare=False)
    _emission: np.ndarray = field(init=False, repr=False, compare=False)
    _tensors: SiteTensorSet | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        pi = np.array(np.reshape(self.pi, -1), dtype=np.float64)
        # tuple() copies an array given as a family into the stack rather than adopting it
        hidden, emission = _as_family(tuple(self.hidden)), _as_family(tuple(self.emission))
        if not len(hidden) or not len(emission):
            raise ValueError("model needs at least one site pair")
        require_valid(pi, hidden, emission, self.translation_invariant)
        pi.flags.writeable = hidden.flags.writeable = emission.flags.writeable = False
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "_hidden", hidden)
        object.__setattr__(self, "_emission", emission)
        object.__setattr__(self, "hidden", tuple(hidden))
        object.__setattr__(self, "emission", tuple(emission))

    @property
    def m(self) -> int:
        return self.hidden[0].shape[0]

    @property
    def d(self) -> int:
        return self.emission[0].shape[1]

    @functools.cached_property
    def _non_unitary_site(self) -> int | None:
        """1-based site of the first stored hidden matrix that is not unitary, or None."""
        return _first_non_unitary(self._hidden)

    @property
    def hidden_unitary(self) -> bool:
        """Whether every hidden matrix is unitary; decided once per model."""
        return self._non_unitary_site is None

    def site_stacks(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(n, m, m) hidden and (n, m, d) emission stacks of sites 1..n, by `_over_sites`."""
        ti = self.translation_invariant
        return _over_sites(self._hidden, ti, n), _over_sites(self._emission, ti, n)


def _over_sites(stack: np.ndarray, translation_invariant: bool, n: int) -> np.ndarray:
    """Sites 1..n of a stack over the stored sites: the one site rule.

    A translation-invariant stack holds one site, broadcast to n sites as a
    read-only view without a copy; a site-dependent one serves its first n.
    A per-site factor is computed on the stored stack, then spread by this rule.
    """
    if n < 1 or not (translation_invariant or n <= len(stack)):
        serves = "any count >= 1" if translation_invariant else f"counts 1..{len(stack)}"
        raise ValueError(f"site count {n} is below 1 or exceeds the stored sites ({serves})")
    if translation_invariant:
        return np.broadcast_to(stack, (n, *stack.shape[1:]))
    return stack[:n]


@dataclass(frozen=True)
class Violation:
    location: str
    message: str
    magnitude: float


def _as_family(mats: Sequence) -> np.ndarray | list[np.ndarray]:
    """One matrix family as finite complex128 matrices: a sequence of one shape
    stacked into a new (L, rows, cols) array, a 3-d array taken as such a stack,
    and a family of mixed shapes, which no valid model has, left a list.
    """
    if not (isinstance(mats, np.ndarray) and mats.ndim == 3):
        family = [np.asarray(a, dtype=np.complex128) for a in mats]
        if len({a.shape for a in family}) != 1 or family[0].ndim != 2:
            return [as_matrix(a) for a in family]
        mats = np.array(family)
    if not np.isfinite(mats).all():
        raise ValueError("matrix entries must be finite")
    return mats.astype(np.complex128, copy=False)


def _row_violations(
    kind: str, family: np.ndarray | list[np.ndarray], shape: tuple[int, int]
) -> list[Violation]:
    """Shape and unit-row-norm violations of one matrix family, in site order.

    The squared-modulus row sums of every matrix of the expected shape come
    from one reduction over their stack.  An entry too large to square gives
    an infinite sum, which is a violation, not a warning.
    """
    fits = [a.shape == shape for a in family]
    sites = [idx for idx, fit in enumerate(fits, start=1) if fit]
    stack = np.asarray(family) if all(fits) else np.array([family[s - 1] for s in sites])
    with np.errstate(over="ignore"):
        sums = (np.abs(stack.reshape(-1, shape[1])) ** 2).sum(axis=1)
    dev = np.abs(sums - 1.0)
    by_site: dict[int, list[Violation]] = {}
    for r in np.flatnonzero(dev > ROW_NORM_TOL):
        site, row = sites[r // shape[0]], r % shape[0]
        by_site.setdefault(site, []).append(
            Violation(f"{kind}[{site}] row {row}", f"squared-modulus row sum = {sums[r]}", dev[r])
        )
    out: list[Violation] = []
    for idx, (a, fit) in enumerate(zip(family, fits), start=1):
        if not fit:
            out.append(Violation(f"{kind}[{idx}]", f"shape {a.shape} != {shape}", 0.0))
        out += by_site.get(idx, [])
    return out


def validate(
    pi: np.ndarray,
    hidden: tuple[np.ndarray, ...],
    emission: tuple[np.ndarray, ...],
    translation_invariant: bool = False,
) -> list[Violation]:
    """Check every model invariant of the `EhmmModel` arguments; empty means valid."""
    out: list[Violation] = []
    pi = np.asarray(pi, dtype=np.float64).reshape(-1)
    hidden, emission = _as_family(hidden), _as_family(emission)
    m, d = hidden[0].shape[0], emission[0].shape[1]

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

    if len(hidden) != len(emission):
        out.append(
            Violation(
                "sites",
                f"{len(hidden)} hidden vs {len(emission)} emission matrices",
                abs(len(hidden) - len(emission)),
            )
        )
    stored = max(len(hidden), len(emission))
    if translation_invariant and stored > 1:
        out.append(
            Violation(
                "sites",
                f"translation-invariant model stores {stored} site pairs, expected 1",
                stored - 1,
            )
        )
    out += _row_violations("hidden", hidden, (m, m))
    out += _row_violations("emission", emission, (m, d))
    return out


def require_valid(
    pi: np.ndarray,
    hidden: tuple[np.ndarray, ...],
    emission: tuple[np.ndarray, ...],
    translation_invariant: bool = False,
) -> None:
    """Raise `ValueError` naming the first violation of `validate`, if any."""
    report = validate(pi, hidden, emission, translation_invariant)
    if report:
        first = report[0]
        raise ValueError(
            f"invalid model ({len(report)} violation(s)); first: "
            f"{first.location}: {first.message}"
        )


def _first_non_unitary(stack: np.ndarray) -> int | None:
    """1-based index of the first matrix of an (L, m, m) stack that is not unitary, or None."""
    gram = stack.conj().transpose(0, 2, 1) @ stack
    gaps = np.linalg.norm(gram - np.eye(stack.shape[-1]), axis=(1, 2))
    return next((l for l, gap in enumerate(gaps, start=1) if gap > ATOL), None)


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
    The site factor site[i, j, k] = u[i, j] * chi[i, k] (m * out_m * d
    entries) moves to the next hidden index j and appends k to w.

    Kept, i joins the hidden prefix: out[h, i, j, w, k] = x[h, i, w] *
    site[i, j, k] is one batched (W, 1) @ (1, d) matmul, which writes the
    new (h * m, out_m, W * d) state and nothing else beside x.  Summed, x
    must be (1, m, W) and out[j, w, k] = sum_i x[i, w] * site[i, j, k] is
    one (W, m) @ (m, d) GEMM per next index j, again writing only the
    (1, out_m, W * d) output.
    """
    h, m, w = x.shape
    out_m, d = u.shape[1], chi.shape[1]
    site = u[:, :, None] * chi[:, None, :]
    if sum_hidden:
        return np.matmul(x[0].T, site.transpose(1, 0, 2)).reshape(1, out_m, w * d)
    out = np.matmul(x[:, :, None, :, None], site[None, :, :, None, :])
    return out.reshape(h * m, out_m, w * d)


def build_psi_hon(
    model: EhmmModel, n: int, size_cap: int = DEFAULT_SIZE_CAP
) -> TensorVector:
    """Joint hidden/observation state on n sites; a unit vector.

    Factors: n+1 hidden (dimension m) followed by n observation (dimension d).
    """
    m, d = model.m, model.d
    _check_cap(size_cap, (m, n + 1), (d, n))
    u, chi = model.site_stacks(n)
    x = np.sqrt(model.pi.astype(np.complex128)).reshape(1, m, 1)
    for u_l, chi_l in zip(u, chi):
        x = _chain_step(x, u_l, chi_l)
    return TensorVector((m,) * (n + 1) + (d,) * n, x.reshape(-1))


def build_psi_hn(
    model: EhmmModel, n: int, size_cap: int = DEFAULT_SIZE_CAP
) -> TensorVector:
    """Hidden Markov chain state on n+1 hidden factors; a unit vector."""
    m = model.m
    _check_cap(size_cap, (m, n + 1))
    u, _ = model.site_stacks(n)
    x = np.sqrt(model.pi.astype(np.complex128)).reshape(1, m, 1)
    no_emission = np.ones((m, 1))
    for u_l in u:
        x = _chain_step(x, u_l, no_emission)
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
    m, d = model.m, model.d
    _check_cap(size_cap, (d, n))
    _, chi = model.site_stacks(n)
    trans = _over_sites(np.abs(model._hidden) ** 2, model.translation_invariant, n)
    x = model.pi.astype(np.complex128).reshape(1, m, 1)
    # the last site has no transition; summing i_n is a column of ones
    for trans_l, chi_l in zip([*trans[:-1], np.ones((m, 1))], chi):
        x = _chain_step(x, trans_l, chi_l, sum_hidden=True)
    return TensorVector((d,) * n, x.reshape(-1))


def observation_from_joint(model: EhmmModel, n: int, size_cap: int = DEFAULT_SIZE_CAP) -> TensorVector:
    """Observation vector via partial inner product against the hidden chain.

    This is the defining route: contract the joint state over all n+1 hidden
    factors, holding the hidden chain vector.
    """
    joint = build_psi_hon(model, n, size_cap)
    chain = build_psi_hn(model, n, size_cap)
    return partial_inner_product(joint, chain, n + 1)
