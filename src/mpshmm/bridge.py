"""Both directions of the MPS / entangled-HMM correspondence.

Forward: a model with row-normalized hidden amplitudes generates site
tensors a[k][i,j] = U[i,j] * chi[i,k]; contracting the joint state against a
boundary vector reproduces the periodic MPS built from those tensors. The
gauge condition additionally holds whenever U is unitary.

Backward: any gauge-satisfying tensor set yields classical transition and
emission matrices by summing squared moduli, and square roots of those turn
it into a model again.  Whether the tensors factor exactly as U * chi is a
rank-one feasibility question on the per-hidden-index slices, settled here
by singular values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ehmm import DEFAULT_SIZE_CAP, EhmmModel, _chain_step, _check_cap
from .ehmm import _over_sites
from .linalg import TensorVector
from .mps import SiteTensorSet, require_gauge

DECOMPOSE_TOL = 1e-8

__all__ = [
    "DECOMPOSE_TOL",
    "ExtractedHmm",
    "DecompositionWitness",
    "DecompositionResult",
    "tensors_from_ehmm",
    "build_e_vector",
    "observed_mps",
    "extract_classical_hmm",
    "isometries_from_mps",
    "decompose_tensors",
]


@dataclass(frozen=True)
class ExtractedHmm:
    """Classical transition/emission matrices read off a tensor set."""

    transitions: tuple[np.ndarray, ...] = field(repr=False)
    emissions: tuple[np.ndarray, ...] = field(repr=False)
    translation_invariant: bool = False


@dataclass(frozen=True)
class DecompositionWitness:
    """First obstruction found: 1-based site and hidden index, second singular value."""

    site: int
    hidden_index: int
    sigma2: float
    reason: str


@dataclass(frozen=True)
class DecompositionResult:
    feasible: bool
    hidden: tuple[np.ndarray, ...] | None = None
    emission: tuple[np.ndarray, ...] | None = None
    translation_invariant: bool = False
    reconstruction_error: float | None = None
    witness: DecompositionWitness | None = None

    def model(self, pi: np.ndarray | None = None) -> EhmmModel:
        """Package the recovered amplitudes as a model (uniform pi by default)."""
        if not self.feasible or self.hidden is None or self.emission is None:
            raise ValueError("decomposition was infeasible; no model available")
        m = self.hidden[0].shape[0]
        if pi is None:
            pi = np.full(m, 1.0 / m)
        return EhmmModel(
            pi=pi,
            hidden=self.hidden,
            emission=self.emission,
            translation_invariant=self.translation_invariant,
        )


def tensors_from_ehmm(model: EhmmModel, require_unitary: bool = True) -> SiteTensorSet:
    """Site tensors a[k][i,j] = U[i,j] * chi[i,k] of a model.

    With unitary hidden matrices the result satisfies the gauge condition;
    `require_unitary=False` skips that check for models that are merely
    row-normalized (the partial-measurement identity still holds, the gauge
    condition need not).  The set is built on the first call for a model and
    kept on it, so every later call returns the same read-only object.
    """
    if require_unitary and (bad := model._non_unitary_site) is not None:
        raise ValueError(f"hidden matrix at site {bad} is not unitary")
    if model._tensors is None:
        u, chi = model._hidden, model._emission
        tensors = chi.transpose(0, 2, 1)[..., None] * u[:, None]  # [l, k, i, j] = chi[l,i,k] U[l,i,j]
        object.__setattr__(model, "_tensors", SiteTensorSet(tensors, model.translation_invariant))
    return model._tensors


def _check_boundary_args(model: EhmmModel, n_keep: int, n: int) -> None:
    """The arguments both boundary routes need: 1 <= N <= n and pi > 0."""
    if n_keep < 1:
        raise ValueError("number of kept sites must be >= 1")
    if n < n_keep:
        raise ValueError(f"n = {n} must be >= kept sites {n_keep}")
    if float(model.pi.min()) <= 0.0:
        raise ValueError("boundary vector needs strictly positive pi entries")


def build_e_vector(
    model: EhmmModel, n_keep: int, n: int, size_cap: int = DEFAULT_SIZE_CAP
) -> TensorVector:
    """Boundary vector pairing the joint n-site state down to an N-site MPS.

    Lives on n+1 hidden factors and the trailing n-N observation factors;
    its coefficient is  (1/sqrt(pi[i1])) * prod_{l=N+1..n} U[l][i_l,i_{l+1}]
    * chi[l][i_l,k_l]  times the periodic constraint delta(i_{N+1}, i1).
    The middle hidden indices i_2..i_N are unconstrained.  For n = N the
    product is empty and only the weight and the delta remain.
    """
    u, chi = model.site_stacks(n)
    _check_boundary_args(model, n_keep, n)
    m, d = model.m, model.d
    _check_cap(size_cap, (m, n + 1), (d, n - n_keep))

    # tail over (i_{N+1}, ..., i_{n+1}, k_{N+1}, ..., k_n)
    n_tail = n - n_keep
    tail = np.ones((1, m, 1), dtype=np.complex128)
    for u_l, chi_l in zip(u[n_keep:], chi[n_keep:]):
        tail = _chain_step(tail, u_l, chi_l)
    tail_dims = (m,) * (n_tail + 1) + (d,) * n_tail

    inv_sqrt_pi = 1.0 / np.sqrt(model.pi)
    mid = m ** (n_keep - 1)
    out = np.zeros((m, mid, m, tail.size // m), dtype=np.complex128)
    out[np.arange(m), :, np.arange(m)] = (inv_sqrt_pi[:, None] * tail.reshape(m, -1))[:, None]
    dims = (m,) * (n_keep - 1 + 1) + tail_dims  # i1, i2..iN, then tail factors
    return TensorVector(dims, out.reshape(-1))


def observed_mps(
    model: EhmmModel, n_keep: int, n: int, size_cap: int = DEFAULT_SIZE_CAP
) -> TensorVector:
    """Partial measurement of the joint state down to an N-site word vector.

    Evaluates <e|psi_hon> over all hidden factors plus the trailing n-N
    observation factors, leaving a vector on the first N observation
    factors.  For every n >= N this equals the dense periodic MPS of
    `tensors_from_ehmm(model)` on N sites.

    The network is contracted one site at a time and neither the joint state
    nor the boundary vector is formed.  Each trailing site N+1..n pairs the
    psi factor with the conjugated e factor and sums k_l, giving the m x m
    matrix T_l = |U_l|^2 * (sum_k |chi_l[:,k]|^2)[:, None]; these fold right
    to left, from ones at i_{n+1}, into an m-vector r over i_{N+1}.  The kept
    sites 1..N grow a block X[i1, word, i] from the identity, one matrix
    product per site against chi_l[i,k] U_l[i,j] (an m x dm matrix made once
    per stored site), with words in C order.  The e-vector weight
    sqrt(pi[i1]) conj(1/sqrt(pi[i1])), the periodic delta i_{N+1} = i1 and
    r close the chain.  The size cap bounds both X, the largest array
    formed, with m^2 d^N entries, and the n-N trailing sites folded one
    Python step each, so the work stays bounded for any n.
    """
    m, d = model.m, model.d
    u, chi = model._hidden, model._emission
    steps = (chi[..., None] * u[:, :, None, :]).reshape(len(u), m, d * m)
    steps = _over_sites(steps, model.translation_invariant, n)
    _check_boundary_args(model, n_keep, n)
    _check_cap(size_cap, (m, 2), (d, n_keep))
    if n - n_keep > size_cap:
        raise ValueError(f"{n - n_keep} trailing sites exceed size cap {size_cap}")

    r = _trailing_fold(model, n_keep, n)
    x = np.eye(m, dtype=np.complex128)
    for step in steps[:n_keep]:
        x = x.reshape(-1, m) @ step
    del steps, step  # freed before the read-out below, where the call peaks

    sqrt_pi = np.sqrt(model.pi)
    weight = sqrt_pi * np.conj(1.0 / sqrt_pi) * r
    diag = x.reshape(m, d**n_keep, m)[np.arange(m), :, np.arange(m)]
    return TensorVector((d,) * n_keep, weight @ diag)


def _trailing_fold(model: EhmmModel, n_keep: int, n: int) -> np.ndarray:
    """r = T_{N+1} ... T_n 1, with every T_l from one operation on the model's stacks.

    A function of its own, so that the factors are freed before the kept block grows.
    """
    u, chi = model._hidden, model._emission
    trans = (u.conj() * u) * (chi.conj() * chi).sum(axis=2)[..., None]
    r = np.ones(model.m, dtype=np.complex128)
    for t_l in reversed(_over_sites(trans, model.translation_invariant, n)[n_keep:]):
        r = t_l @ r
    return r


def extract_classical_hmm(t: SiteTensorSet) -> ExtractedHmm:
    """Classical HMM of a gauge-satisfying tensor set.

    Transition (i,j) sums |a[k][i,j]|^2 over symbols; emission (i,k) sums it
    over the column index.  The gauge condition makes both row-stochastic.
    """
    require_gauge(t)
    sq = np.abs(t._stack) ** 2  # (L, d, m, m)
    transitions = tuple(sq.sum(axis=1))
    emissions = tuple(sq.sum(axis=3).transpose(0, 2, 1).copy())
    return ExtractedHmm(transitions, emissions, t.translation_invariant)


def isometries_from_mps(t: SiteTensorSet, pi: np.ndarray | None = None) -> EhmmModel:
    """Model whose amplitudes are the nonnegative roots of the extracted HMM.

    Any complex square root would do; the nonnegative branch is canonical and
    reproducible.  The hidden matrices need not come out unitary.  The source
    fixes no initial distribution, so `pi` defaults to uniform.
    """
    extracted = extract_classical_hmm(t)
    if pi is None:
        pi = np.full(t.m, 1.0 / t.m)
    return EhmmModel(
        pi=pi,
        hidden=tuple(np.sqrt(p).astype(np.complex128) for p in extracted.transitions),
        emission=tuple(np.sqrt(q).astype(np.complex128) for q in extracted.emissions),
        translation_invariant=t.translation_invariant,
    )


def decompose_tensors(t: SiteTensorSet, tol: float = DECOMPOSE_TOL) -> DecompositionResult:
    """Test whether tensors factor as a[k][i,j] = U[i,j] * chi[i,k].

    For each site and hidden index i the m-by-d slice M[j,k] = a[k][i,j] must
    be rank one: chi row i is the unit right factor (phase fixed so its first
    nonzero entry is nonnegative real), U row i the left factor.  Feasible
    only if every slice passes and the assembled U is unitary within `tol`.
    Callers are expected to hand in gauge-satisfying tensors.  A negative or
    non-finite `tol` raises `ValueError`.  A slice or U passes only when its
    deviation is `<= tol`, so the nan of an overflowing product fails.
    """
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    slices = t._stack.transpose(0, 2, 3, 1)  # slices[s, i][j, k] = a[k][i, j], each m x d
    with np.errstate(over="ignore", invalid="ignore"):
        left, sing, right_h = np.linalg.svd(slices)
        sigma2 = sing[..., 1] if sing.shape[-1] > 1 else np.zeros(sing.shape[:-1])
        zero = np.linalg.norm(slices, axis=(2, 3)) <= tol
        slice_bad = zero | ~(sigma2 <= tol * sing[..., 0])
        # a right singular vector has unit norm, so some entry lies above the 1e-12 floor
        chi = right_h[..., 0, :]
        first = np.take_along_axis(chi, (np.abs(chi) > 1e-12).argmax(-1)[..., None], -1)
        phase = first.conj() / np.abs(first)
        chi = chi * phase
        u = sing[..., :1] * left[..., 0] * np.conj(phase)
        gram_dev = np.linalg.norm(u.conj().transpose(0, 2, 1) @ u - np.eye(t.m), axis=(1, 2))
    for s in range(len(slices)):  # the first failing site; its slices before its U
        i = int(slice_bad[s].argmax())
        if zero[s, i]:
            found = (i + 1, 0.0, "zero emission row")
        elif slice_bad[s, i]:
            found = (i + 1, float(sigma2[s, i]), "slice has rank greater than one")
        elif not gram_dev[s] <= tol:
            found = (0, float(gram_dev[s]), "assembled hidden matrix is not unitary")
        else:
            continue
        return DecompositionResult(feasible=False, witness=DecompositionWitness(s + 1, *found))
    err = np.abs(slices - u[..., None] * chi[..., None, :]).max()
    return DecompositionResult(
        feasible=True,
        hidden=tuple(u),
        emission=tuple(chi),
        translation_invariant=t.translation_invariant,
        reconstruction_error=float(err),
    )
