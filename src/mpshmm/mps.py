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
Each half is the forward pass `ehmm._sum_chain`, one GEMM per site over the
steps step[j, (k, j')] = A_k[j, j'], which a tensor set derives once, on
first use, for A_k and for |A_k|^2.  The first half runs once per first
symbol, so only one of its d blocks sits beside the output at a time.
`coefficient` stays the scalar route for single words, and `state_norm`
the transfer-operator route that never forms the state.
"""

from __future__ import annotations

import functools
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
    The `_sum_chain` steps of A_k and of |A_k|^2 are derived once, on first use.
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
        if m == 0:
            raise ValueError("site 1 symbol 0 is empty: bond dimension must be >= 1")
        d = len(sites[0])
        for l, fam in enumerate(sites, start=1):
            if len(fam) != d:
                raise ValueError(f"site {l} has {len(fam)} symbols, expected {d}")
            for k, a in enumerate(fam):
                if a.shape != (m, m):
                    raise ValueError(
                        f"site {l} symbol {k} has shape {a.shape}, expected ({m}, {m})"
                    )
        stack = np.array(sites, dtype=np.complex128, order="C")  # `_over_sites` views need C order
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

    @functools.cached_property
    def _steps(self) -> np.ndarray:
        """`_word_sums` steps of the stored sites, step[j, (k, j')] = A_k[j, j']."""
        return _chain_steps(self._stack)

    @functools.cached_property
    def _square_steps(self) -> np.ndarray:
        """`_word_sums` steps of the stored real family |A_k|^2."""
        return _chain_steps(self._stack.real**2 + self._stack.imag**2)


def _chain_steps(stack: np.ndarray) -> np.ndarray:
    """Read-only (L, m, d*m) `_sum_chain` steps of an (L, d, m, m) symbol stack, hidden index last."""
    steps = stack.transpose(0, 2, 1, 3).reshape(len(stack), stack.shape[2], -1)
    steps.flags.writeable = False
    return steps


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


def _word_sums(
    steps: np.ndarray, left: np.ndarray | None = None, right: np.ndarray | None = None
) -> np.ndarray:
    """Tr(left A_{k1} ... A_{kN} right) for every word k1..kN, flat in C word order.

    ``steps`` holds the (m, d*m) `_sum_chain` steps step[j, (k, j')] =
    A_k[j, j'] of sites 1..N (`_chain_steps`); ``left`` is (r, m) and
    ``right`` is (m, r), and None stands for the identity (r = m), which is
    then never multiplied.  The identity pair gives the periodic trace, a row
    pi^T and a column e give the boundary-vector form pi^T A..A e.

    Split-half contraction, h = ceil(N/2).  The second half, (A..A right)
    over sites h+1..N, is the forward pass from step_{h+1} closed by
    ``right``, and the first half, (left A..A) over sites 1..h, the forward
    pass over sites 2..h from the k-th m columns of left @ step_1 (step_1
    itself for the identity), run once per first symbol k.  Every site is
    one GEMM, and so is Tr(X Z) for all pairs of one first symbol, after one
    transposed copy of its block (none when r = 1); it is written straight
    into that symbol's block of the output.  The blocks stay per symbol for
    the peak memory: one block of d^(h-1) half-words sits beside the output
    and the second half at a time, where a first half shared by all symbols
    would hold more.  `np.dot` writes the product because `np.matmul`'s
    ufunc path allocates beside it.
    """
    h = (len(steps) + 1) // 2
    m = steps.shape[1]
    r = m if left is None else len(left)
    if h < len(steps):
        z = _sum_chain(steps[h], steps[h + 1 :]).reshape(-1, m)
        if right is not None:
            z = z @ right
    else:
        z = np.eye(m, dtype=steps.dtype) if right is None else right
    z = z.reshape(m, -1, r).transpose(2, 0, 1).reshape(r * m, -1)  # [(r, j), w]
    first = steps[0] if left is None else left @ steps[0]
    d = first.shape[1] // m
    rows = d ** (h - 1)
    out = np.empty((d, rows, z.shape[1]), np.result_type(first, z))
    for k in range(d):
        x = _sum_chain(first[:, k * m : (k + 1) * m], steps[1:h]).reshape(r, rows, m)
        np.dot(x.transpose(1, 0, 2).reshape(rows, r * m), z, out=out[k])
        del x  # the next block's chain runs beside the output and z alone
    return out.reshape(-1)


def build_state(
    t: SiteTensorSet, n_sites: int, size_cap: int = DEFAULT_SIZE_CAP
) -> TensorVector:
    """Dense state over d^N words, entry at word w = coefficient(t, w).

    All words at once by the split-half contraction of `_word_sums` over the
    set's cached steps.  It is a different network from the transfer-operator
    route in `state_norm` and from the partial-measurement forward pass over
    U chi; the oracles that share no code with it are the scalar
    `coefficient` and the literal word loops of the tests.  The size cap
    counts the d^N output, then the second half's chain, m^2 d^floor(N/2)
    entries, the largest array the contraction forms beside it.
    """
    _check_cap(size_cap, (t.d, n_sites))
    _check_cap(size_cap, (t.m, 2), (t.d, n_sites // 2), what="second-half chain")
    steps = _over_sites(t._steps, t.translation_invariant, n_sites)
    return TensorVector((t.d,) * n_sites, _word_sums(steps))


def state_norm(t: SiteTensorSet, n_sites: int, size_cap: int = DEFAULT_SIZE_CAP) -> float:
    """Norm of the periodic state via the transfer operator, without the dense state.

    The row-major matrix of M |-> sum_k A_k M A_k^dag is E = sum_k A_k (x)
    conj(A_k); its (i, i') block of m x m entries is the d-term product
    A[:, i, :]^T conj(A[:, i', :]), so one batched matmul writes the E of
    every stored site, L m^4 entries, and the size cap counts them.  The
    squared norm is the trace of the product of these site matrices, a chain
    that starts at site 1's matrix.  A product that overflows gives inf, as
    the dense norm does, with no warning: the entries are finite, so a nan
    can only come from an inf met by a zero or by an inf of the other sign.
    The loop takes one step per site, so a site count above ``size_cap`` is
    refused before any site is spread.
    """
    if n_sites > size_cap:
        raise ValueError(f"{n_sites} sites exceed size cap {size_cap}")
    a = t._stack
    m2 = t.m * t.m
    _check_cap(size_cap, (len(a), 1), (t.m, 4), what="transfer matrices")
    with np.errstate(over="ignore", invalid="ignore"):
        # [l, i, i', j, j'] = sum_k a[l, k, i, j] conj(a[l, k, i', j'])
        rows, cols = a.transpose(0, 2, 3, 1)[:, :, None], a.conj().transpose(0, 2, 1, 3)[:, None]
        stored = np.matmul(rows, cols)
        transfers = _over_sites(stored.reshape(-1, m2, m2), t.translation_invariant, n_sites)
        prod = _sum_chain(transfers[0], transfers[1:])
        norm_sq = complex(np.trace(prod)).real
    return math.sqrt(max(norm_sq, 0.0)) if math.isfinite(norm_sq) else math.inf
