"""Matrix product states with periodic boundary conditions.

A state on N sites is defined by per-site families {A_k : k = 0..d-1} of
m-by-m matrices, held as one read-only (L, d, m, m) stack over the L stored
sites; the coefficient of the word k1..kN is the trace of the ordered product
A_{k1}^[1] ... A_{kN}^[N].  No normalization is applied: the raw trace
coefficients are returned and the norm is reported separately.

Every route takes sites 1..N from the site rule of `ehmm._over_sites`: a
translation-invariant set serves any N >= 1, a site-dependent one 1 <= N <= L.

The dense state is evaluated for all words at once by a split-half
contraction: the ordered products of the first and of the second half of the
chain are built for every half-word, and one matrix product pairs them up.
`coefficient` stays the scalar route for single words, and `state_norm`
the transfer-operator route that never forms the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .ehmm import DEFAULT_SIZE_CAP, _check_cap, _over_sites, _sum_chain
from .linalg import TensorVector, as_matrix

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
    matrices into one read-only (L, d, m, m) stack, of which they are views.
    """

    sites: tuple[tuple[np.ndarray, ...], ...] = field(repr=False)
    translation_invariant: bool = False
    _stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sites = self.sites
        if not isinstance(sites, np.ndarray):  # an (L, d, m, m) array needs no per-matrix pass
            sites = [[np.asarray(a, dtype=np.complex128) for a in fam] for fam in sites]
        if not len(sites) or not len(sites[0]):
            raise ValueError("tensor set needs at least one site with one symbol")
        if self.translation_invariant and len(sites) > 1:
            raise ValueError(
                f"translation-invariant tensor set stores {len(sites)} sites, expected 1"
            )
        m = as_matrix(sites[0][0]).shape[0]
        d = len(sites[0])
        for l, fam in enumerate(sites, start=1):
            if len(fam) != d:
                raise ValueError(f"site {l} has {len(fam)} symbols, expected {d}")
            for k, a in enumerate(fam):
                if a.shape != (m, m):
                    raise ValueError(
                        f"site {l} symbol {k} has shape {a.shape}, expected ({m}, {m})"
                    )
        stack = np.array(sites, dtype=np.complex128)
        if not np.isfinite(stack).all():
            raise ValueError("matrix entries must be finite")
        stack.flags.writeable = False
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "sites", tuple(tuple(fam) for fam in self._stack))

    @property
    def m(self) -> int:
        return self.sites[0][0].shape[0]

    @property
    def d(self) -> int:
        return len(self.sites[0])

    def site_stack(self, n: int) -> np.ndarray:
        """(n, d, m, m) symbol stack of sites 1..n, by `ehmm._over_sites`."""
        return _over_sites(self._stack, self.translation_invariant, n)


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
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan fails `dev <= tol`
        acc = (t._stack @ t._stack.conj().transpose(0, 1, 3, 2)).sum(axis=1)
        devs = np.linalg.norm(acc - np.eye(t.m), axis=(1, 2))
    return GaugeReport(tuple(map(float, devs)), GAUGE_TOL)


class VerificationError(ValueError):
    """Well-formed input failed one of the paper's conditions (the CLI's exit 1)."""


def require_gauge(t: SiteTensorSet) -> None:
    report = gauge_check(t)
    if not report.ok:
        worst = max(range(len(report.deviations)), key=report.deviations.__getitem__)
        raise VerificationError(
            f"gauge condition fails at site {worst + 1}: "
            f"deviation {report.deviations[worst]:.3e} > {GAUGE_TOL:.1e}"
        )


def coefficient(t: SiteTensorSet, word: Sequence[int]) -> complex:
    """Trace of the ordered matrix product selected by the symbol word."""
    stack = t.site_stack(len(word))
    prod = np.eye(t.m, dtype=np.complex128)
    for fam, k in zip(stack, word):
        k = int(k)
        if not 0 <= k < t.d:
            raise ValueError(f"symbol {k} out of range 0..{t.d - 1}")
        prod = prod @ fam[k]
    return complex(np.trace(prod))


def _word_sums(stacks: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Tr(left A_{k1} ... A_{kN} right) for every word k1..kN, flat in C word order.

    ``stacks`` is the (N, d, m, m) symbol stack of sites 1..N; ``left`` is
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
    rows = stacks.shape[1] ** (h - 1)
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
    _check_cap(size_cap, (t.d, n_sites))
    stack = t.site_stack(n_sites)
    eye = np.eye(t.m, dtype=np.complex128)
    return TensorVector((t.d,) * n_sites, _word_sums(stack, eye, eye))


def state_norm(t: SiteTensorSet, n_sites: int) -> float:
    """Norm of the periodic state via the transfer operator, without the dense state.

    The row-major matrix of M |-> sum_k A_k M A_k^dag is sum_k A_k (x) conj(A_k);
    the squared norm is the trace of the product of these site matrices,
    each computed once per stored site.  A product that overflows gives inf,
    as the dense norm does, with no warning: the entries are finite, so a nan
    can only come from an inf met by a zero or by an inf of the other sign.
    The loop takes one step per site, so a site count above `DEFAULT_SIZE_CAP`
    is refused before any site is spread.
    """
    if n_sites > DEFAULT_SIZE_CAP:
        raise ValueError(f"{n_sites} sites exceed size cap {DEFAULT_SIZE_CAP}")
    a = t._stack
    m2 = t.m * t.m
    with np.errstate(over="ignore", invalid="ignore"):
        stored = (a[:, :, :, None, :, None] * a.conj()[:, :, None, :, None, :]).sum(axis=1)
        transfers = _over_sites(stored.reshape(-1, m2, m2), t.translation_invariant, n_sites)
        prod = _sum_chain(np.eye(m2, dtype=np.complex128), transfers)
        norm_sq = complex(np.trace(prod)).real
    return math.sqrt(max(norm_sq, 0.0)) if math.isfinite(norm_sq) else math.inf
