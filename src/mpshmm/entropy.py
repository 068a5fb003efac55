"""Density matrices, quantum relative entropy, and the divergence lower bound.

Two observation density matrices are built for the same object: a transfer
formula chaining Schur products of site tensors, and the partial trace of
the joint pure state over all hidden factors.  They agree whenever the
tensors come from a model, and the pair doubles as a cross-check.  The trace
route forms neither the joint state nor |psi><psi|: tracing out the hidden
factors leaves pi and the classical transitions |U|^2 of the hidden Markov
chain, so sigma is the HMM forward pass over that chain run over pairs of
words: `ehmm._sum_chain`, the step that also builds the observation vector.
Every spectrum comes from a `DensityMatrix`, checked Hermitian once when
built, through one helper (`_spectrum`) that also applies the one PSD rule.

The lower bound compares the periodic-MPS density (1/m)|psi><psi| against
the observation density: dephasing both in the word basis turns the relative
entropy into a classical divergence between |Tr prod A|^2 / m and the
diagonal transfer weights, which is exactly the closed-form right-hand side
evaluated here.  Because the MPS density has rank one, its relative entropy
needs only the observation density's spectrum, and the dephased pair needs
no eigendecomposition at all.  Natural logarithms throughout.

That spectrum has two routes (`check_bound`).  sigma is the mixture
sum_i P(i) |phi_i><phi_i| over hidden paths i of the product vectors phi_i
= (x)_l chi_l[i_l, :], with P the hidden chain's path probabilities.  When
every emission Gram matrix conj(chi_l) chi_l^T is exactly diagonal, the
phi_i are orthogonal, and the spectrum is P times their squared norms, with
no sigma and no `eigh` (the diagonal route); AB and BA share their nonzero
spectrum (Horn and Johnson, Matrix Analysis, Thm 1.3.22), and P is the HMM
forward pass over the hidden chain alone (Rabiner 1989).  Every other model
forms sigma by the trace route and eigendecomposes it (the dense route, also
the oracle the tests hold the diagonal route to).

Every divergence, literal oracle included, goes through one support rule
(`_divergence`, with its rank-one case `_rank_one_divergence` and its
word-by-word case `_word_divergences`) whose cuts are relative to scale: an
eigenvalue is zero at or below max * dim * finfo.eps, a word weight at or
below max * finfo.eps.  Nothing about it is settable.  Because the rule is
scale-invariant, a divergence of the literal density follows from the
unit-trace one by S(t rho || sigma) = t S(rho || sigma) + t ln t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bridge import tensors_from_ehmm
from .ehmm import DEFAULT_SIZE_CAP, EhmmModel, _check_cap, _over_sites, _require_pi, _sum_chain
from .linalg import _descending_eigh, _require_hermitian, as_matrix
from .mps import SiteTensorSet, _chain_steps, _word_sums, build_state

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
    give PSD matrices by construction, and `_spectrum`, which takes every
    spectrum, checks PSD on every call.
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
    _check_cap(size_cap, (t.d, 2 * n_sites), what="density matrix")
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
    non-negative the matrix is a sum of Gram matrices, so PSD.  The size cap
    counts the d^(2N) entries, then the second half's chain over the pair
    words, m^2 d^(2 floor(N/2)) entries.
    """
    pi = _require_pi(pi, t.m)
    # the pair family A_k o conj(A_k') over d*d symbols (k, k'), one word
    # of pairs per (word, word'), with the pair axes unzipped afterwards
    a = t._stack
    pairs = (a[:, :, None] * a.conj()[:, None]).reshape(len(a), -1, t.m, t.m)
    _check_cap(size_cap, (t.d, 2 * n_sites), what="observation density")
    _check_cap(size_cap, (t.m, 2), (t.d, 2 * (n_sites // 2)), what="second-half chain")
    steps = _over_sites(_chain_steps(pairs), t.translation_invariant, n_sites)
    e_vec = np.ones((t.m, 1)) / math.sqrt(t.m)
    sums = _word_sums(steps, pi[None], e_vec)
    return DensityMatrix(math.sqrt(t.m) * _unzip_pairs(sums, t.d, n_sites), (t.d,) * n_sites)


def observation_density_trace(
    model: EhmmModel, n_sites: int, size_cap: int = DEFAULT_SIZE_CAP
) -> DensityMatrix:
    """Observation density: the joint pure state traced over its hidden factors.

    sigma[w, w'] = sum_{i_1..i_{N+1}} pi[i_1] prod_l |U_l[i_l, i_{l+1}]|^2
    chi_l[i_l, k_l] conj(chi_l[i_l, k'_l]) is `_sum_chain` from pi over the
    pair alphabet (k, k'), one GEMM per site over the model's pair steps,
    which it derives once; the joint state is never formed.  The last step
    sums i_{N+1} and writes sigma, d^(2N) entries, from the chain after site
    N-1, m d^(2N-2) entries; the size cap counts both.  The pair-axis unzip
    copies sigma once, and the chain is dropped before the `DensityMatrix`
    check, so the call peaks at two sigma-sized arrays.
    """
    _check_cap(size_cap, (model.d, 2 * n_sites), what="observation density")
    _check_cap(size_cap, (model.m, 1), (model.d, 2 * n_sites - 2), what="observation-density recursion")
    ti = model.translation_invariant
    steps = _over_sites(model._pair_steps, ti, n_sites)
    last = _over_sites(model._pair_last, ti, n_sites)[-1]
    x = _sum_chain(model.pi.astype(np.complex128)[None], [*steps[:-1], last])
    sigma = _unzip_pairs(x, model.d, n_sites)
    del x  # the check below holds sigma alone
    return DensityMatrix(sigma, (model.d,) * n_sites)


def diagonal_channel(rho: DensityMatrix) -> DensityMatrix:
    """Dephase in the word basis: zero all off-diagonal entries."""
    return DensityMatrix(np.diag(np.diag(rho.matrix)), rho.factor_dims)


_EPS = np.finfo(np.float64).eps


def _zero_set(x: np.ndarray, dim: int) -> np.ndarray:
    """Where the spectrum or weights x count as zero: at or below max * dim * finfo.eps."""
    return x <= x.max() * dim * _EPS


def _leaks(mass: np.ndarray | float, dim: int) -> np.ndarray | bool:
    """Whether a row's mass on the other side's zero set exceeds dim * finfo.eps."""
    return mass > dim * _EPS


def _divergence(a: np.ndarray, b: np.ndarray, overlap: np.ndarray) -> float:
    """sum a ln a - sum a W ln b over a's support; +inf if that support leaks onto b's zeros.

    ``overlap`` is W[i, j] = |<a_i|b_j>|^2 for two spectra from `eigh`.
    What counts as zero is relative to scale (`_zero_set`): a spectrum value
    at or below max * dim * finfo.eps (numerical rank, as numpy's
    `matrix_rank`).  A row of a's support leaks when its mass on b's zero
    set exceeds dim * finfo.eps (`_leaks`).  Two diagonals compared word by
    word (W the identity) take `_word_divergences`, whose cut is max *
    finfo.eps.  Both cuts are scale-invariant, so S(t rho || sigma) = t
    S(rho || sigma) + t ln t holds for the computed values too.
    """
    keep = ~_zero_set(a, b.size)
    b_zero = _zero_set(b, b.size)
    w = overlap[keep]
    if np.any(_leaks(w[:, b_zero].sum(axis=1), b.size)):
        return math.inf
    a_kept = a[keep]
    term_a = float(a_kept @ np.log(a_kept))
    return term_a - float(a_kept @ w[:, ~b_zero] @ np.log(b[~b_zero]))


def _rank_one_divergence(b: np.ndarray, weights: np.ndarray, dim: int) -> float:
    """`_divergence` of |v><v| against eigenvalues b of a dim x dim matrix: -sum_j w_j ln b_j.

    ``weights`` are |<b_j|v>|^2; v has no mass on eigenvectors left
    unlisted.  The rank-one case of the rule: b_j is zero at or below max *
    dim * finfo.eps, and v leaks when its mass there exceeds dim * finfo.eps.
    """
    b_zero = _zero_set(b, dim)
    if _leaks(float(weights[b_zero].sum()), dim):
        return math.inf
    # 0.0 - x, as in `_divergence` with a = [1]: an S of zero reads +0.0, not -0.0
    return 0.0 - float(weights[~b_zero] @ np.log(b[~b_zero]))


def _word_divergences(a: np.ndarray, *bs: np.ndarray) -> list[float]:
    """sum a ln(a / b) over a's support for each word-weight vector b, sharing that support.

    A word is in a's support above max(a) * finfo.eps, and the divergence
    is +inf when a kept word's b is at or below max(b) * finfo.eps.
    """
    keep = ~_zero_set(a, 1)
    values = []
    for b in bs:
        if np.any(keep & _zero_set(b, 1)):
            values.append(math.inf)
            continue
        terms = np.divide(a, b, out=np.ones_like(a), where=keep)
        np.log(terms, out=terms)
        values.append(float(a @ terms))
    return values


def _unscaled(value: float, t: float) -> float:
    """S(t rho || sigma) from S(rho || sigma) for a unit-trace rho: t S + t ln t."""
    return t * value + t * math.log(t)


def _spectrum(x: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """A density's eigenvalues, descending, and eigenvectors as matching columns.

    The one PSD rule: a smallest eigenvalue below -_PSD_TOL refuses the input.
    An exactly real matrix takes the real symmetric `eigh`, about twice as fast.
    """
    mat = x.matrix
    vals, vecs = _descending_eigh(mat if mat.imag.any() else mat.real)
    if vals[-1] < -_PSD_TOL:
        raise ValueError(
            f"inputs must be positive semidefinite: smallest eigenvalue "
            f"{vals[-1]:.3e} is below -{_PSD_TOL:g}"
        )
    return vals, vecs


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr(rho log rho) - Tr(rho log sigma) on supports; +inf if supports split.

    The literal oracle: both spectra come from `eigh`, and `_divergence`
    decides which eigenvalues count as zero (at or below max * dim *
    finfo.eps) and when an eigenvector of rho leaks onto sigma's null space.
    A raw matrix becomes a `DensityMatrix` here, which checks it once; a
    `DensityMatrix` was checked when it was built and is not checked again.
    """
    # one factor of the row count; a non-matrix is refused before the shape check
    rho, sigma = (x if isinstance(x, DensityMatrix) else DensityMatrix(x, np.shape(x)[:1])
                  for x in (rho, sigma))
    if rho.dim != sigma.dim:
        raise ValueError(f"shape mismatch {rho.matrix.shape} vs {sigma.matrix.shape}")
    vals_r, vecs_r = _spectrum(rho)
    vals_s, vecs_s = _spectrum(sigma)
    overlap = np.abs(vecs_r.conj().T @ vecs_s) ** 2
    return _divergence(vals_r, vals_s, overlap)


def _mps_weights(psi: np.ndarray, m: int) -> np.ndarray:
    """p = |Tr prod A|^2 / m word by word, from the `build_state` entries ``psi``.

    p is the diagonal of (1/m)|psi><psi|, so it sums to its trace.
    """
    p = np.abs(psi)
    p **= 2
    p /= m
    return p


def _formula_weights(t: SiteTensorSet, pi: np.ndarray, n_sites: int) -> np.ndarray:
    """q = pi^T (prod A o conj A) 1 word by word: the Schur-formula observation diagonal.

    One boundary-vector contraction over the real family |A_k|^2.  Its
    second-half chain has the m^2 d^floor(N/2) entries that `build_state`,
    which both callers run first under the same cap, counts.
    """
    squares = _over_sites(t._square_steps, t.translation_invariant, n_sites)
    return _word_sums(squares, pi[None], np.ones((t.m, 1)))


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
    pi = _require_pi(pi, t.m)
    p = _mps_weights(build_state(t, n_sites).entries, t.m)
    trace = float(p.sum())
    if trace <= 0.0:
        if trace_normalized:
            raise ValueError("cannot trace-normalize a zero state")
        return 0.0
    p /= trace
    (value,) = _word_divergences(p, _formula_weights(t, pi, n_sites))
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

    Three divergences are evaluated, all for the unit-trace MPS density
    |v><v|, v = psi / |psi|: S = -<v|log sigma|v> from the observation
    density sigma's spectrum (the MPS density has rank one), the dephased S
    between the word weights p = |v|^2 and diag(sigma), and the RHS between
    p and the Schur-formula diagonal.  Each goes through `_divergence`'s
    support rule (S as its rank-one case, the last two in one pass over p's
    support), so criterion 5's identity (RHS = dephased S) compares like
    with like.  The literal values, for (1/m)|psi><psi| with trace t =
    |psi|^2 / m, follow exactly as t * S + t ln t, because the rule is
    scale-invariant.  The model was validated when it was built.  p and S
    come first; psi is dropped before diag(sigma) and the Schur-formula
    word sums are formed, so neither overlaps the state or S's temporaries.

    sigma's spectrum comes from one of two routes, chosen once per model:

    - Diagonal route, when every emission Gram matrix G_l = conj(chi_l)
      chi_l^T is exactly diagonal (GHZ, cluster).  sigma is the mixture
      sum_i P(i) |phi_i><phi_i| of the product vectors phi_i = (x)_l
      chi_l[i_l, :] over the m^N hidden paths, with P the hidden chain from
      pi and |U|^2; the phi_i are then orthogonal, so sigma's nonzero
      eigenvalues are P(i) prod_l g_l(i_l), g_l the diagonal of G_l, with
      weights |(K^H v)_i|^2 / prod_l g_l(i_l), K the d^N x m^N matrix of the
      phi_i.  K^H v is N mode products with conj(chi_l).  Those weights are
      all of v: psi = K c with c_i = prod_l U_l[i_l, i_{l+1}] over periodic
      paths, so v has no mass outside K's range, where sigma's remaining
      eigenvalues, all 0, lie.
      diag(sigma) is the pair chain over the d symbols (k, k).  No D x D
      array and no `eigh`: every array holds at most d^N entries, since
      orthogonal rows need m <= d, so the state cap counts them all.
    - Dense route otherwise: sigma from `observation_density_trace`, one
      `DensityMatrix` eigendecomposed once.  sigma is the only D x D array
      held before `eigh`; its builder drops the chain before the Hermitian
      check, which holds one real D x D temporary at a time.  `eigh` adds
      the eigenvectors, handed back as a view, and the overlap weights
      |<v|e_i>|^2 are one vector-matrix product.  So sigma plus its
      eigenvectors is the traced peak; LAPACK's workspace is allocated
      outside numpy's tracing.
    """
    # an oversized state is refused as such; then sigma, whose recursion peaks holding nothing else
    _check_cap(size_cap, (model.d, n_sites))
    g = model._gram_diagonal
    if g is None:
        sigma = observation_density_trace(model, n_sites, size_cap)
        vals, vecs = _spectrum(sigma)
    t = tensors_from_ehmm(model, require_unitary=False)
    psi = build_state(t, n_sites, size_cap).entries
    p = _mps_weights(psi, t.m)
    trace_rho = float(p.sum())
    if trace_rho <= 0.0:
        raise ValueError("cannot normalize a traceless density matrix")
    p /= trace_rho
    if g is None:
        v = psi / math.sqrt(trace_rho * t.m)
        del psi
        s_value = _rank_one_divergence(vals, np.abs(v.conj() @ vecs) ** 2, sigma.dim)
        del v, vecs
        q = np.diag(sigma.matrix).real
        trace_sigma = sigma.trace_value
    else:
        s_value = _diagonal_route(model, n_sites, g, psi, trace_rho * t.m)
        del psi
        q = _dephased_diagonal(model, n_sites)
        trace_sigma = float(q.sum())
    rhs_value, s_diag = _word_divergences(p, _formula_weights(t, model.pi, n_sites), q)

    return BoundReport(
        trace_rho=trace_rho,
        trace_sigma=trace_sigma,
        s_value_normalized=s_value,
        rhs_value_normalized=rhs_value,
        s_diag_normalized=s_diag,
        hidden_unitary=model.hidden_unitary,
    )


def _diagonal_route(
    model: EhmmModel, n_sites: int, g: np.ndarray, psi: np.ndarray, norm_sq: float
) -> float:
    """S(|v><v| || sigma), v = psi / sqrt(norm_sq), for diagonal emission Grams.

    ``g`` is the (L, m) stack of those Grams' diagonals.  The weights are
    |w_i|^2 / norm_sq with w = K^H psi / sqrt(prod_l g_l), N mode products
    with conj(chi_l) / sqrt(g_l): each takes the leading symbol axis of the
    chain and appends the hidden index last, one GEMM.  The eigenvalues
    P(i) prod_l g_l(i_l) are the hidden chain from pi over the m^N paths,
    each step |U_l|^2 g_{l+1} and the last |U_N|^2 summed over its target.
    The cut is taken at sigma's dimension d^N.
    """
    m, d, ti = model.m, model.d, model.translation_invariant
    modes = _over_sites(model._emission.conj() / np.sqrt(g)[..., None], ti, n_sites)
    w = psi
    for mode in modes:
        w = w.reshape(d, -1).T @ mode.T
    weights = np.abs(w.reshape(-1))
    del w
    weights **= 2
    weights /= norm_sq
    trans = _over_sites(model._transitions, ti, n_sites)
    g_sites = _over_sites(g, ti, n_sites)
    eig = model.pi * g_sites[0]
    for step in trans[:-1] * g_sites[1:, None]:  # |U_l|^2[i, j] g_{l+1}[j]
        eig = (eig.reshape(-1, m, 1) * step).reshape(-1)
    eig = (eig.reshape(-1, m) * trans[-1].sum(axis=1)).reshape(-1)
    return _rank_one_divergence(eig, weights, d**n_sites)


def _dephased_diagonal(model: EhmmModel, n_sites: int) -> np.ndarray:
    """diag(sigma): sigma's pair chain over the d symbols (k, k) alone, whose entries are real."""
    m, d, ti = model.m, model.d, model.translation_invariant
    stored = model._pair_steps
    steps = stored.reshape(*stored.shape[:2], d * d, m)[:, :, :: d + 1].real  # a view: symbols (k, k)
    steps = _over_sites(np.ascontiguousarray(steps).reshape(stored.shape[0], m, -1), ti, n_sites)
    last = _over_sites(np.ascontiguousarray(model._pair_last[:, :, :: d + 1].real), ti, n_sites)[-1]
    return _sum_chain(model.pi[None], [*steps[:-1], last]).reshape(-1)
