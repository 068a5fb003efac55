"""Dense complex linear-algebra kernel.

Everything here operates on plain ``numpy`` arrays (``complex128``) plus one
light container, :class:`TensorVector`, for vectors living on an explicit
tensor-product factorization.  Basis ordering is lexicographic with the leftmost
factor most significant (C order), consistently across the whole package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

ATOL = 1e-10

__all__ = [
    "ATOL",
    "TensorVector",
    "as_matrix",
    "partial_inner_product",
    "partial_trace",
    "hermitian_eig",
]


def as_matrix(a: np.ndarray | Sequence) -> np.ndarray:
    """Coerce to a finite 2-d complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


@dataclass(frozen=True)
class TensorVector:
    """Dense complex vector over a tensor-product basis.

    ``entries[idx]`` is the coefficient of the basis vector whose multi-index
    unravels from ``idx`` in C order over ``factor_dims`` (leftmost factor
    most significant).
    """

    factor_dims: tuple[int, ...]
    entries: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.factor_dims)
        if any(d < 1 for d in dims):
            raise ValueError(f"factor dims must be positive, got {dims}")
        ent = np.asarray(self.entries, dtype=np.complex128).reshape(-1)
        if ent.size != math.prod(dims):
            raise ValueError(
                f"entry count {ent.size} != prod(factor_dims) {math.prod(dims)}"
            )
        if not np.isfinite(ent).all():
            raise ValueError("entries must be finite")
        object.__setattr__(self, "factor_dims", dims)
        object.__setattr__(self, "entries", ent)

    @property
    def dim(self) -> int:
        return self.entries.size

    def as_tensor(self) -> np.ndarray:
        """Entries reshaped to one axis per factor."""
        return self.entries.reshape(self.factor_dims)

    def norm(self) -> float:
        """Euclidean norm; inf, with no warning, when the sum of squares overflows."""
        with np.errstate(over="ignore"):
            return float(np.linalg.norm(self.entries))

    def inner(self, other: "TensorVector") -> complex:
        """<self|other> (antilinear in self)."""
        if self.factor_dims != other.factor_dims:
            raise ValueError("factor dimensions differ")
        return complex(np.vdot(self.entries, other.entries))

    def permute_factors(self, order: Sequence[int]) -> "TensorVector":
        """Reorder tensor factors; ``order[i]`` is the old axis at new slot i."""
        order = list(order)
        if sorted(order) != list(range(len(self.factor_dims))):
            raise ValueError(f"bad factor permutation {order}")
        t = self.as_tensor().transpose(order)
        return TensorVector(tuple(self.factor_dims[i] for i in order), t.reshape(-1))


def partial_inner_product(
    w: TensorVector, u0: TensorVector, prefix_count: int
) -> TensorVector:
    """Contract ``w`` against ``u0`` over the first ``prefix_count`` factors.

    Returns v with v[beta] = sum_alpha conj(u0[alpha]) * w[alpha, beta]:
    linear in ``w``, antilinear in the held vector ``u0``.
    """
    if not 0 < prefix_count <= len(w.factor_dims):
        raise ValueError(f"prefix_count {prefix_count} out of range")
    prefix = w.factor_dims[:prefix_count]
    if u0.factor_dims != prefix:
        raise ValueError(
            f"held-vector factors {u0.factor_dims} != leading factors {prefix}"
        )
    rest = w.factor_dims[prefix_count:]
    block = w.entries.reshape(u0.dim, -1)
    out = u0.entries.conj() @ block
    return TensorVector(rest if rest else (1,), out)


def partial_trace(
    rho: np.ndarray, factor_dims: Sequence[int], keep: Iterable[int]
) -> np.ndarray:
    """Reduce a density matrix on prod(factor_dims) to the kept factors.

    ``keep`` lists 0-based factor indices to retain, in their original order;
    all other factors are traced out.  The full trace is preserved.
    """
    dims = tuple(int(d) for d in factor_dims)
    rho = as_matrix(rho)
    total = math.prod(dims)
    if rho.shape != (total, total):
        raise ValueError(f"matrix shape {rho.shape} != ({total}, {total})")
    keep = sorted(set(int(i) for i in keep))
    if any(i < 0 or i >= len(dims) for i in keep):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} factors")

    n = len(dims)
    t = rho.reshape(dims + dims)
    # row axis i pairs with column axis n + i; trace the non-kept pairs
    for i in reversed(range(n)):
        if i not in keep:
            t = np.trace(t, axis1=i, axis2=t.ndim // 2 + i)
    kept_dim = math.prod(dims[i] for i in keep) if keep else 1
    return t.reshape(kept_dim, kept_dim)


def _require_hermitian(a: np.ndarray, what: str) -> None:
    """Check |A - A^H|_F <= ATOL * max(1, |A|_F) for a square matrix.

    Raises ``ValueError("<what> is not Hermitian within tolerance")`` otherwise.
    A complex A is measured as hypot(|Re A - Re A^T|_F, |Im A + Im A^T|_F),
    the same residual, so the check holds at most one real D x D temporary.
    """
    scale = max(1.0, float(np.linalg.norm(a)))
    if np.iscomplexobj(a):
        re, im = a.real, a.imag
        residual = math.hypot(np.linalg.norm(re - re.T), np.linalg.norm(im + im.T))
    else:
        residual = float(np.linalg.norm(a - a.T))
    if residual > ATOL * scale:
        raise ValueError(f"{what} is not Hermitian within tolerance")


def hermitian_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of a Hermitian matrix: real eigenvalues
    descending, and the orthonormal eigenvectors as matching columns.

    An exactly real matrix takes the real symmetric `eigh`, about twice as fast.
    The Hermitian check (`_require_hermitian`) holds one real D x D temporary
    at a time.  Both outputs are reversed views of `eigh`'s, not copies, so
    beside the input the call keeps one D x D array, the eigenvectors; LAPACK's
    workspace is allocated outside numpy and is not seen by tracemalloc.
    """
    a = as_matrix(a)
    if not a.imag.any():
        a = a.real
    _require_hermitian(a, "matrix")
    vals, vecs = np.linalg.eigh(a)
    return vals[::-1], vecs[:, ::-1]
