"""Density matrices, quantum relative entropy, and the divergence lower bound.

Two observation density matrices are built for the same object: a transfer
formula chaining Schur products of site tensors, and the partial trace of
the joint pure state over all hidden factors.  They agree whenever the
tensors come from a model, and the pair doubles as a cross-check.  The trace
route forms neither the joint state nor |psi><psi|: tracing out the hidden
factors leaves pi and the classical transitions |U|^2 of the hidden Markov
chain, so sigma is a forward recursion over that chain (the HMM forward
algorithm run over pairs of words).

The lower bound compares the periodic-MPS density (1/m)|psi><psi| against
the observation density: dephasing both in the word basis turns the relative
entropy into a classical divergence between |Tr prod A|^2 / m and the
diagonal transfer weights, which is exactly the closed-form right-hand side
evaluated here.  Because the MPS density has rank one, its relative entropy
needs only the observation density's spectrum, and the dephased pair needs
no eigendecomposition at all.  Natural logarithms throughout.

Every divergence, literal oracle included, goes through one support rule
(`_divergence`) whose cuts are relative to scale: an eigenvalue is zero at
or below max * dim * finfo.eps, a word weight at or below max * finfo.eps.
Nothing about it is settable.  Because the rule is scale-invariant, a
divergence of the literal density follows from the unit-trace one by
S(t rho || sigma) = t S(rho || sigma) + t ln t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bridge import tensors_from_ehmm
from .ehmm import DEFAULT_SIZE_CAP, EhmmModel, _chain_step, _check_cap
from .ehmm import _over_sites
from .linalg import _require_hermitian, as_matrix, hermitian_eig
from .mps import SiteTensorSet, _word_sums, build_state

BOUND_SLACK = 1e-8
# input validation, not a support cut: eigenvalues below -_PSD_TOL reject the input
_PSD_TOL = 1e-12

__all__ = [
    "BOUND_SLACK",
    "DensityMatrix",
    "BoundReport",
    "mps_density",
    "observation_density_formula",
    "observation_density_trace",
    "diagonal_channel",
    "relative_entropy",
    "bound_rhs",
    "check_bound",
]


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian matrix with its factorization and recorded (not forced) trace.

    Construction checks the shape and Hermiticity only.  The builders here
    give PSD matrices by construction, and `relative_entropy`, the one
    consumer that needs a spectrum, checks PSD on every call.
    """

    matrix: np.ndarray = field(repr=False)
    factor_dims: tuple[int, ...]
    trace_value: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        mat = as_matrix(self.matrix)
        dims = tuple(int(x) for x in self.factor_dims)
        if mat.shape != (math.prod(dims), math.prod(dims)):
            raise ValueError(f"matrix shape {mat.shape} incompatible with factors {dims}")
        _require_hermitian(mat, "density matrix")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "factor_dims", dims)
        object.__setattr__(self, "trace_value", float(np.trace(mat).real))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _require_distribution(pi: np.ndarray, m: int) -> np.ndarray:
    """``pi`` as a flat float array, after checking it has m finite, non-negative entries."""
    pi = np.asarray(pi, dtype=np.float64).reshape(-1)
    if pi.size != m:
        raise ValueError(f"pi has length {pi.size}, expected {m}")
    if not (np.isfinite(pi) & (pi >= 0.0)).all():
        raise ValueError("pi entries must be finite and non-negative")
    return pi


def _unzip_pairs(x: np.ndarray, d: int, n_sites: int) -> np.ndarray:
    """The (d^N, d^N) matrix of entries indexed by pair words (k1 k1')..(kN kN').

    Entry (word, word') = x at the pair word that interleaves them; one
    transpose copy of x.
    """
    order = [*range(0, 2 * n_sites, 2), *range(1, 2 * n_sites, 2)]
    n_words = d**n_sites
    return x.reshape((d,) * (2 * n_sites)).transpose(order).reshape(n_words, n_words)


def mps_density(
    t: SiteTensorSet, n_sites: int, size_cap: int = DEFAULT_SIZE_CAP
) -> DensityMatrix:
    """The literal (1/m) |psi_N><psi_N|; trace equals |psi|^2 / m, recorded as is.

    The size cap counts the d^(2N) entries of the matrix, not only the state.
    """
    _check_cap(size_cap, (t.d, 2 * n_sites))
    psi = build_state(t, n_sites, size_cap)
    mat = np.outer(psi.entries, psi.entries.conj())
    mat /= t.m
    return DensityMatrix(mat, psi.factor_dims)


def observation_density_formula(
    t: SiteTensorSet,
    pi: np.ndarray,
    n_sites: int,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> DensityMatrix:
    """Observation density via the Schur-product transfer formula.

    Entry at (word, word') is sqrt(m) * pi^T (prod_l A_{k_l} o conj(A_{k'_l})) e
    with e the normalized all-ones vector; bra and ket words each run over
    all d^N values independently.  All d^(2N) entries come from one
    split-half contraction over the d^2 pair symbols (k_l, k'_l).  With pi
    non-negative the matrix is a sum of Gram matrices, so PSD.
    """
    pi = _require_distribution(pi, t.m)
    # the pair family A_k o conj(A_k') over d*d symbols (k, k'), one word
    # of pairs per (word, word'), with the pair axes unzipped afterwards
    a = t._stack
    pairs = (a[:, :, None] * a.conj()[:, None]).reshape(len(a), -1, t.m, t.m)
    _check_cap(size_cap, (t.d, 2 * n_sites))
    stacks = _over_sites(pairs, t.translation_invariant, n_sites)
    e_vec = np.ones((t.m, 1)) / math.sqrt(t.m)
    sums = _word_sums(stacks, pi[None], e_vec)
    return DensityMatrix(math.sqrt(t.m) * _unzip_pairs(sums, t.d, n_sites), (t.d,) * n_sites)


def _hidden_chain_density(model: EhmmModel, n_sites: int, size_cap: int) -> np.ndarray:
    """Observation density of a valid model by a forward recursion over its hidden chain.

    sigma[w, w'] = sum_{i_1..i_{N+1}} pi[i_1] prod_l |U_l[i_l, i_{l+1}]|^2
    chi_l[i_l, k_l] conj(chi_l[i_l, k'_l]), the joint state's partial trace
    over its hidden factors.  |U_l|^2 and the pair factors chi_l (x)
    conj(chi_l) of every stored site come from one operation each on the
    model's stacks.  Each site is one `_chain_step` over the pair alphabet
    (k, k'): one GEMM per next hidden index, taking the (m, d^(2l-2)) array
    of the sites so far to the next (m, d^(2l)) one and holding nothing else.
    The last site sums i_{N+1} through the row sums of |U_N|^2, so its step
    writes sigma itself, d^(2N) entries, beside an input m / d^2 as large.
    Unzipping the pair axes copies sigma once, so the call peaks at two
    sigma-sized arrays and returns one.
    """
    m, d = model.m, model.d
    chi = model._emission
    pairs = (chi[..., None] * chi.conj()[:, :, None]).reshape(len(chi), m, d * d)  # [l, i, (k, k')]
    _check_cap(size_cap, (d, 2 * n_sites))
    _check_cap(size_cap, (m, 1), (d, 2 * n_sites), what="observation-density recursion")
    pairs = _over_sites(pairs, model.translation_invariant, n_sites)
    trans = _over_sites(np.abs(model._hidden) ** 2, model.translation_invariant, n_sites)
    x = model.pi.astype(np.complex128).reshape(1, m, 1)
    last = trans[-1].sum(axis=1, keepdims=True)
    for trans_l, pairs_l in zip([*trans[:-1], last], pairs):
        x = _chain_step(x, trans_l, pairs_l, sum_hidden=True)
    return _unzip_pairs(x, d, n_sites)


def observation_density_trace(
    model: EhmmModel, n_sites: int, size_cap: int = DEFAULT_SIZE_CAP
) -> DensityMatrix:
    """Observation density: the joint pure state traced over its hidden factors.

    Computed by the hidden-chain recursion; the joint state is never formed.
    """
    return DensityMatrix(
        _hidden_chain_density(model, n_sites, size_cap), (model.d,) * n_sites
    )


def diagonal_channel(rho: DensityMatrix) -> DensityMatrix:
    """Dephase in the word basis: zero all off-diagonal entries."""
    return DensityMatrix(np.diag(np.diag(rho.matrix)), rho.factor_dims)


def _divergence(a: np.ndarray, b: np.ndarray, overlap: np.ndarray | None = None) -> float:
    """sum a ln a - sum a W ln b over a's support; +inf if that support leaks onto b's zeros.

    ``overlap`` is W[i, j] = |<a_i|b_j>|^2 for two spectra from `eigh`, or
    None for two diagonals compared word by word (W the identity).  What
    counts as zero is relative to scale: a spectrum value at or below
    max * dim * finfo.eps (numerical rank, as numpy's `matrix_rank`), a
    directly summed word weight at or below max * finfo.eps.  A row of a's
    support leaks when its mass on b's zero set exceeds dim * finfo.eps.
    Both cuts are scale-invariant, so S(t rho || sigma) = t S(rho || sigma)
    + t ln t holds for the computed values too.
    """
    tiny = np.finfo(np.float64).eps
    dim = 1 if overlap is None else b.size
    keep = a > a.max() * dim * tiny
    b_zero = b <= b.max() * dim * tiny
    if overlap is None:
        if np.any(keep & b_zero):
            return math.inf
        terms = np.divide(a, b, out=np.ones_like(a), where=keep)
        np.log(terms, out=terms)
        return float(a @ terms)
    w = overlap[keep]
    if np.any(w[:, b_zero].sum(axis=1) > b.size * tiny):
        return math.inf
    a_kept = a[keep]
    term_a = float(a_kept @ np.log(a_kept))
    return term_a - float(a_kept @ w[:, ~b_zero] @ np.log(b[~b_zero]))


def _unscaled(value: float, t: float) -> float:
    """S(t rho || sigma) from S(rho || sigma) for a unit-trace rho: t S + t ln t."""
    return t * value + t * math.log(t)


def _require_psd(min_eigenvalue: float) -> None:
    if min_eigenvalue < -_PSD_TOL:
        raise ValueError(
            f"inputs must be positive semidefinite: smallest eigenvalue "
            f"{min_eigenvalue:.3e} is below -{_PSD_TOL:g}"
        )


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr(rho log rho) - Tr(rho log sigma) on supports; +inf if supports split.

    The literal oracle: both spectra come from `eigh`, and `_divergence`
    decides which eigenvalues count as zero (at or below max * dim *
    finfo.eps) and when an eigenvector of rho leaks onto sigma's null space.
    """
    r = rho.matrix if isinstance(rho, DensityMatrix) else as_matrix(rho)
    s = sigma.matrix if isinstance(sigma, DensityMatrix) else as_matrix(sigma)
    if r.shape != s.shape:
        raise ValueError(f"shape mismatch {r.shape} vs {s.shape}")
    vals_r, vecs_r = hermitian_eig(r)
    vals_s, vecs_s = hermitian_eig(s)
    _require_psd(min(vals_r.min(), vals_s.min()))
    overlap = np.abs(vecs_r.conj().T @ vecs_s) ** 2
    return _divergence(vals_r, vals_s, overlap)


def _word_weights(
    t: SiteTensorSet, pi: np.ndarray, n_sites: int, psi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The dephased pair word by word: p = |Tr prod A|^2 / m and q = pi^T (prod A o conj A) 1.

    ``psi`` holds the trace coefficients Tr prod A (the `build_state`
    entries), so p is the diagonal of (1/m)|psi><psi| and sums to its trace.
    q is the diagonal of the observation density by the Schur formula, from
    one boundary-vector contraction over the real family |A_k|^2.
    """
    p = np.abs(psi)
    p **= 2
    p /= t.m
    squares = _over_sites(t._stack.real**2 + t._stack.imag**2, t.translation_invariant, n_sites)
    q = _word_sums(squares, pi[None], np.ones((t.m, 1)))
    return p, q


def bound_rhs(
    t: SiteTensorSet, pi: np.ndarray, n_sites: int, trace_normalized: bool = False
) -> float:
    """Closed-form lower bound for the MPS-vs-observation relative entropy.

    (1/m) sum_words |Tr prod A|^2 * log(|Tr prod A|^2 / (m^{3/2} pi^T
    (prod A o conj A) e)), the divergence of the dephased pair.  Words whose
    numerator is zero relative to the largest contribute nothing; a kept
    word over a denominator that is zero relative to the largest gives +inf.
    With ``trace_normalized`` the word weights are rescaled to the unit-trace
    version of the MPS density; the literal value follows from it as
    t * RHS + t ln t with t the trace.  Numerators and denominators for all
    words come from two split-half contractions: the dense state, and the
    boundary-vector form over the family |A_k|^2.
    """
    pi = _require_distribution(pi, t.m)
    psi = build_state(t, n_sites).entries
    p, q = _word_weights(t, pi, n_sites, psi)
    trace = float(p.sum())
    if trace <= 0.0:
        if trace_normalized:
            raise ValueError("cannot trace-normalize a zero state")
        return 0.0
    p /= trace
    value = _divergence(p, q)
    return value if trace_normalized else _unscaled(value, trace)


@dataclass(frozen=True)
class BoundReport:
    """Everything measured while checking the entropy lower bound.

    Stored: the divergences for the unit-trace MPS density, the two traces
    and whether the hidden stack is unitary.  The literal values, for the
    density (1/m)|psi><psi| exactly as defined even when its trace t is not
    1, are derived as t * S + t ln t.  ``holds`` compares the literal pair,
    ``holds_normalized`` the unit-trace one; an infinite divergence
    satisfies the bound trivially.
    """

    trace_rho: float
    trace_sigma: float
    s_value_normalized: float
    rhs_value_normalized: float
    s_diag_normalized: float
    hidden_unitary: bool

    @property
    def s_value(self) -> float:
        return _unscaled(self.s_value_normalized, self.trace_rho)

    @property
    def rhs_value(self) -> float:
        return _unscaled(self.rhs_value_normalized, self.trace_rho)

    @property
    def s_diag(self) -> float:
        return _unscaled(self.s_diag_normalized, self.trace_rho)

    @property
    def holds(self) -> bool:
        return bool(self.s_value >= self.rhs_value - BOUND_SLACK)

    @property
    def holds_normalized(self) -> bool:
        return bool(self.s_value_normalized >= self.rhs_value_normalized - BOUND_SLACK)

    @property
    def support_violation(self) -> bool:
        return math.isinf(self.s_value)


def check_bound(
    model: EhmmModel, n_sites: int, size_cap: int = DEFAULT_SIZE_CAP
) -> BoundReport:
    """Run the full lower-bound pipeline for a model at N sites.

    The observation density sigma comes from the trace route (the
    hidden-chain recursion, which never forms the joint state) and is
    eigendecomposed once; the model was validated when it was built.  Three
    divergences are evaluated, all for the unit-trace MPS density |v><v|,
    v = psi / |psi|: S = -<v|log sigma|v> from sigma's spectrum (the density
    has rank one), the dephased S between the word weights p = |v|^2 and
    diag(sigma), and the RHS between p and the Schur-formula diagonal.  Each
    goes through `relative_entropy`'s support rule, so criterion 5's
    identity (RHS = dephased S) compares like with like.  The literal values,
    for (1/m)|psi><psi| with trace t = |psi|^2 / m, follow exactly as
    t * S + t ln t, because the rule is scale-invariant.

    Memory: sigma is the only D x D array the call makes before `eigh` (the
    recursion's unzip copy is gone when it returns), and the Hermitian check
    holds one real D x D temporary at a time.  `eigh` adds the eigenvectors,
    handed back as a view, and the overlap weights |<v|e_i>|^2 are one
    vector-matrix product.  So sigma plus its eigenvectors is the traced
    peak; LAPACK's workspace is allocated outside numpy's tracing.
    """
    # an oversized state is refused as such; then sigma, whose recursion peaks holding nothing else
    _check_cap(size_cap, (model.d, n_sites))
    sigma = _hidden_chain_density(model, n_sites, size_cap)
    t = tensors_from_ehmm(model, require_unitary=False)
    psi = build_state(t, n_sites, size_cap).entries

    vals, vecs = hermitian_eig(sigma)
    _require_psd(vals.min())
    p, q_formula = _word_weights(t, model.pi, n_sites, psi)
    trace_rho = float(p.sum())
    if trace_rho <= 0.0:
        raise ValueError("cannot normalize a traceless density matrix")
    p /= trace_rho
    q = np.diag(sigma).real
    v = psi / math.sqrt(trace_rho * t.m)
    weights = np.abs(v.conj() @ vecs) ** 2

    return BoundReport(
        trace_rho=trace_rho,
        trace_sigma=float(q.sum()),
        s_value_normalized=_divergence(np.ones(1), vals, weights[None]),
        rhs_value_normalized=_divergence(p, q_formula),
        s_diag_normalized=_divergence(p, q),
        hidden_unitary=model.hidden_unitary,
    )
