"""Matrix product states with periodic boundary conditions.

A state on N sites is defined by per-site families {A_k : k = 0..d-1} of
m-by-m matrices; the coefficient of the word k1..kN is the trace of the
ordered product A_{k1}^[1] ... A_{kN}^[N].  No normalization is applied:
the raw trace coefficients are returned and the norm is reported separately.

The dense state is evaluated for all words at once by a split-half
contraction: the ordered products of the first and of the second half of the
chain are built for every half-word, and one matrix product pairs them up.
`coefficient` stays the scalar route for single words, and `state_norm`
the transfer-operator route that never forms the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .ehmm import DEFAULT_SIZE_CAP, _check_cap
from .linalg import TensorVector, _read_only_copy, as_matrix

GAUGE_TOL = 1e-12

__all__ = [
    "GAUGE_TOL",
    "SiteTensorSet",
    "GaugeReport",
    "gauge_check",
    "require_gauge",
    "coefficient",
    "build_state",
    "state_norm",
]


@dataclass(frozen=True)
class SiteTensorSet:
    """Per-site families of m x m matrices indexed by physical symbol.

    ``sites[l][k]`` is A_k at site l+1.  A translation-invariant set stores a
    single family and serves it for every site.  Construction copies the
    matrices and makes the copies read-only.
    """

    sites: tuple[tuple[np.ndarray, ...], ...] = field(repr=False)
    translation_invariant: bool = False

    def __post_init__(self) -> None:
        sites = tuple(
            tuple(as_matrix(_read_only_copy(a)) for a in fam) for fam in self.sites
        )
        if not sites or not sites[0]:
            raise ValueError("tensor set needs at least one site with one symbol")
        if self.translation_invariant and len(sites) > 1:
            raise ValueError(
                f"translation-invariant tensor set stores {len(sites)} sites, expected 1"
            )
        m = sites[0][0].shape[0]
        d = len(sites[0])
        for l, fam in enumerate(sites, start=1):
            if len(fam) != d:
                raise ValueError(f"site {l} has {len(fam)} symbols, expected {d}")
            for k, a in enumerate(fam):
                if a.shape != (m, m):
                    raise ValueError(
                        f"site {l} symbol {k} has shape {a.shape}, expected ({m}, {m})"
                    )
        object.__setattr__(self, "sites", sites)

    @property
    def m(self) -> int:
        return self.sites[0][0].shape[0]

    @property
    def d(self) -> int:
        return len(self.sites[0])

    @property
    def n_sites(self) -> int | None:
        return None if self.translation_invariant else len(self.sites)

    def family_at(self, site: int) -> tuple[np.ndarray, ...]:
        """Matrix family at 1-based site index."""
        if site < 1:
            raise ValueError(f"site index {site} must be >= 1")
        if self.translation_invariant:
            return self.sites[0]
        if site > len(self.sites):
            raise ValueError(f"site {site} exceeds {len(self.sites)} stored sites")
        return self.sites[site - 1]

    def compatible_length(self, n: int) -> bool:
        return self.translation_invariant or n <= len(self.sites)


@dataclass(frozen=True)
class GaugeReport:
    """Per-site Frobenius deviation of sum_k A_k A_k^dag from the identity."""

    deviations: tuple[float, ...]
    tol: float

    @property
    def passes(self) -> tuple[bool, ...]:
        return tuple(dev <= self.tol for dev in self.deviations)

    @property
    def ok(self) -> bool:
        return all(self.passes)

    @property
    def max_deviation(self) -> float:
        return max(self.deviations)


def gauge_check(t: SiteTensorSet) -> GaugeReport:
    """Measure the gauge condition sum_k A_k A_k^dag = I at every stored site."""
    eye = np.eye(t.m)
    devs = []
    for fam in t.sites:
        acc = sum(a @ a.conj().T for a in fam)
        devs.append(float(np.linalg.norm(acc - eye)))
    return GaugeReport(tuple(devs), GAUGE_TOL)


def require_gauge(t: SiteTensorSet) -> None:
    report = gauge_check(t)
    if not report.ok:
        worst = max(range(len(report.deviations)), key=report.deviations.__getitem__)
        raise ValueError(
            f"gauge condition fails at site {worst + 1}: "
            f"deviation {report.deviations[worst]:.3e} > {GAUGE_TOL:.1e}"
        )


def coefficient(t: SiteTensorSet, word: Sequence[int]) -> complex:
    """Trace of the ordered matrix product selected by the symbol word."""
    n = len(word)
    if n < 1:
        raise ValueError("word must be nonempty")
    if not t.compatible_length(n):
        raise ValueError(f"word length {n} exceeds {len(t.sites)} stored sites")
    prod = np.eye(t.m, dtype=np.complex128)
    for l, k in enumerate(word, start=1):
        k = int(k)
        if not 0 <= k < t.d:
            raise ValueError(f"symbol {k} out of range 0..{t.d - 1}")
        prod = prod @ t.family_at(l)[k]
    return complex(np.trace(prod))


def _site_stacks(
    t: SiteTensorSet,
    n_sites: int,
    transform: Callable[[np.ndarray], np.ndarray] | None = None,
) -> list[np.ndarray]:
    """(d, m, m) symbol stacks for sites 1..N, optionally mapped by ``transform``.

    A translation-invariant set is stacked (and transformed) once, and the
    one array serves every site.
    """
    stored = t.sites[:1] if t.translation_invariant else t.sites[:n_sites]
    stacks = [np.stack(fam) for fam in stored]
    if transform is not None:
        stacks = [transform(s) for s in stacks]
    return stacks * n_sites if t.translation_invariant else stacks


def _word_sums(
    stacks: Sequence[np.ndarray], left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Tr(left A_{k1} ... A_{kN} right) for every word k1..kN, flat in C word order.

    ``stacks[l]`` is the (d, m, m) symbol stack of site l+1; ``left`` is
    (r, m) and ``right`` is (m, r).  The identity pair gives the periodic
    trace, a row pi^T and a column e give the boundary-vector form pi^T A..A e.

    Split-half contraction: with h = ceil(N/2), the words of sites 1..h give
    X = left A..A and the words of sites h+1..N give Z = (A..A right)^T, both
    (r, m) per half-word, and Tr(X Z^T) for all pairs is one matrix product
    of the flattened halves.  X is built one first symbol at a time and its
    product is written straight into that symbol's block of the output, so
    the peak memory stays close to the output itself.
    """
    h = (len(stacks) + 1) // 2
    r, m = left.shape
    z = right.T[None]
    for fam in reversed(stacks[h:]):
        z = (z @ fam.transpose(0, 2, 1)[:, None]).reshape(-1, r, m)
    z = z.reshape(len(z), -1).T
    first = stacks[0]
    rows = math.prod(len(fam) for fam in stacks[1:h])
    out = np.empty((len(first), rows, z.shape[1]), np.result_type(left, right, first))
    for k, a in enumerate(first):
        x = (left @ a)[None]
        for fam in stacks[1:h]:
            x = (x[:, None] @ fam).reshape(-1, r, m)
        np.matmul(x.reshape(rows, -1), z, out=out[k])
    return out.reshape(-1)


def build_state(
    t: SiteTensorSet, n_sites: int, size_cap: int = DEFAULT_SIZE_CAP
) -> TensorVector:
    """Dense state over d^N words, entry at word w = coefficient(t, w).

    All words at once by the split-half contraction of `_word_sums`; this
    route is deliberately independent of the transfer-operator route in
    `state_norm`.
    """
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    if not t.compatible_length(n_sites):
        raise ValueError(f"{n_sites} sites exceed {len(t.sites)} stored sites")
    _check_cap(size_cap, (t.d, n_sites))
    eye = np.eye(t.m, dtype=np.complex128)
    return TensorVector((t.d,) * n_sites, _word_sums(_site_stacks(t, n_sites), eye, eye))


def state_norm(t: SiteTensorSet, n_sites: int) -> float:
    """Norm of the periodic state via the transfer operator, without the dense state.

    The row-major matrix of M |-> sum_k A_k M A_k^dag is sum_k A_k (x) conj(A_k);
    the squared norm is the trace of the product of these site matrices.
    """
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    if not t.compatible_length(n_sites):
        raise ValueError(f"{n_sites} sites exceed {len(t.sites)} stored sites")
    prod = np.eye(t.m * t.m, dtype=np.complex128)
    for l in range(1, n_sites + 1):
        transfer = sum(np.kron(a, a.conj()) for a in t.family_at(l))
        prod = prod @ transfer
    norm_sq = complex(np.trace(prod))
    return math.sqrt(max(norm_sq.real, 0.0))
