import math
import string

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mpshmm import bridge, catalog, ehmm, linalg, mps
from mpshmm.bridge import (
    build_e_vector,
    decompose_tensors,
    extract_classical_hmm,
    isometries_from_mps,
    observed_mps,
    tensors_from_ehmm,
)
from mpshmm.ehmm import EhmmModel, build_psi_hon
from mpshmm.linalg import TensorVector, partial_inner_product
from mpshmm.mps import SiteTensorSet, build_state, gauge_check
from test_ehmm import CHAIN_CASES

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


# ---- tensors from a model ----


def test_ghz_tensors_are_projectors():
    t = tensors_from_ehmm(catalog.get("ghz").model)
    assert np.array_equal(t.sites[0][0], P0)
    assert np.array_equal(t.sites[0][1], P1)


def test_cluster_tensors_from_hadamard():
    t = tensors_from_ehmm(catalog.get("cluster").model)
    root2 = math.sqrt(2.0)
    assert np.allclose(t.sites[0][0], np.array([[1, 1], [0, 0]]) / root2, atol=1e-15)
    assert np.allclose(t.sites[0][1], np.array([[0, 0], [1, -1]]) / root2, atol=1e-15)


def test_gauge_condition_for_unitary_models():
    for seed in (40, 41, 42):
        m, d = [(2, 2), (2, 3), (3, 2)][seed % 3]
        t = tensors_from_ehmm(catalog.random_model(m, d, 3, seed))
        assert gauge_check(t).max_deviation <= 1e-12


def test_non_unitary_hidden_rejected_by_default():
    model = catalog.get("theta", theta=math.pi / 3).model
    with pytest.raises(ValueError, match="not unitary"):
        tensors_from_ehmm(model)
    t = tensors_from_ehmm(model, require_unitary=False)
    assert t.m == 2 and t.d == 2


def test_repeated_tensors_from_ehmm_returns_one_set_equal_to_a_fresh_stack():
    model = catalog.random_model(2, 3, 3, seed=43)
    t = tensors_from_ehmm(model)
    assert tensors_from_ehmm(model) is t
    assert tensors_from_ehmm(model, require_unitary=False) is t
    # a[l][k][i, j] = chi_l[i, k] * U_l[i, j]
    fresh = np.array(
        [[chi[:, k, None] * u for k in range(model.d)] for u, chi in zip(model.hidden, model.emission)]
    )
    assert np.array_equal(t._stack, fresh)
    assert not t._stack.flags.writeable


def _second_site_non_unitary() -> EhmmModel:
    theta_u = catalog.get("theta", theta=0.3).model.hidden[0]
    return EhmmModel(pi=[0.5, 0.5], hidden=(np.eye(2), theta_u), emission=(np.eye(2), np.eye(2)))


@pytest.mark.parametrize(
    "make, site",
    [(lambda: catalog.get("theta", theta=0.3).model, 1), (_second_site_non_unitary, 2)],
    ids=["theta", "second-site"],
)
def test_non_unitary_model_raises_the_same_message_on_every_call(make, site):
    model = make()
    assert not model.hidden_unitary
    t = tensors_from_ehmm(model, require_unitary=False)
    for _ in range(3):
        with pytest.raises(ValueError) as info:
            tensors_from_ehmm(model)
        assert str(info.value) == f"hidden matrix at site {site} is not unitary"
    assert tensors_from_ehmm(model, require_unitary=False) is t


# ---- boundary vector ----


def test_boundary_vector_ghz_enumeration():
    model = catalog.get("ghz").model
    vec = build_e_vector(model, 2, 2)
    assert vec.factor_dims == (2, 2, 2)
    # enumeration of the defining sum at n = N: weight / sqrt(pi) times the
    # periodic delta, middle hidden index unconstrained
    oracle = np.zeros((2, 2, 2), dtype=complex)
    for i1 in range(2):
        for i2 in range(2):
            for i3 in range(2):
                if i3 == i1:
                    oracle[i1, i2, i3] = 1.0 / math.sqrt(model.pi[i1])
    assert np.allclose(vec.as_tensor(), oracle)


def test_boundary_vector_trivial_hidden_dimension():
    chi = np.array([[0.6, 0.8j]], dtype=complex)
    model = EhmmModel(
        pi=np.array([1.0]),
        hidden=(np.array([[1.0]]),),
        emission=(chi,),
        translation_invariant=True,
    )
    vec = build_e_vector(model, 1, 3)
    assert vec.factor_dims == (1, 1, 1, 1, 2, 2)
    expected = np.kron(chi[0], chi[0])
    assert np.allclose(vec.entries, expected)


def test_boundary_vector_theta_against_index_loop():
    model = catalog.get("theta", theta=math.pi / 3).model
    u = model.hidden[0]
    chi = model.emission[0]
    pi = model.pi
    vec = build_e_vector(model, 2, 3)
    assert vec.factor_dims == (2, 2, 2, 2, 2)
    oracle = np.zeros((2, 2, 2, 2, 2), dtype=complex)
    for i1 in range(2):
        for i2 in range(2):
            for i3 in range(2):
                for i4 in range(2):
                    for k3 in range(2):
                        if i3 == i1:
                            oracle[i1, i2, i3, i4, k3] = (
                                u[i3, i4] * chi[i3, k3] / math.sqrt(pi[i1])
                            )
    assert np.allclose(vec.as_tensor(), oracle, atol=1e-14)


def test_boundary_vector_requires_positive_pi():
    model = EhmmModel(
        pi=np.array([1.0, 0.0]),
        hidden=(np.eye(2, dtype=complex),),
        emission=(np.eye(2, dtype=complex),),
        translation_invariant=True,
    )
    with pytest.raises(ValueError, match="positive"):
        build_e_vector(model, 1, 2)


def test_boundary_vector_n_ordering():
    with pytest.raises(ValueError):
        build_e_vector(catalog.get("ghz").model, 3, 2)


def einsum_e_vector(model, n_keep, n):
    """The boundary vector with its tail as one einsum over 2(n-N)+1 factors."""
    m, d = model.m, model.d
    n_tail = n - n_keep
    if n_tail == 0:
        tail = np.ones(m, dtype=np.complex128)
        tail_dims = (m,)
    else:
        hid = list(string.ascii_letters[: n_tail + 1])
        obs = list(string.ascii_letters[n_tail + 1 : 2 * n_tail + 1])
        subs = [hid[t] + hid[t + 1] for t in range(n_tail)]
        subs += [hid[t] + obs[t] for t in range(n_tail)]
        us, chis = (stack[n_keep:] for stack in model.site_stacks(n))
        tail = np.einsum(
            ",".join(subs) + "->" + "".join(hid) + "".join(obs), *us, *chis, optimize=True
        )
        tail_dims = (m,) * (n_tail + 1) + (d,) * n_tail
    rest = tail.size // m
    out = np.zeros((m, m ** (n_keep - 1), m, rest), dtype=np.complex128)
    tail_flat = tail.reshape(m, rest)
    for i in range(m):
        out[i, :, i, :] = tail_flat[i][None, :] / np.sqrt(model.pi[i])
    return (m,) * n_keep + tail_dims, out.reshape(-1)


@pytest.mark.parametrize("name, model", CHAIN_CASES, ids=[c[0] for c in CHAIN_CASES])
def test_boundary_vector_equals_einsum_reference(name, model):
    for n in range(1, 6):
        for n_keep in range(1, n + 1):
            vec = build_e_vector(model, n_keep, n)
            dims, want = einsum_e_vector(model, n_keep, n)
            assert vec.factor_dims == dims
            assert np.max(np.abs(vec.entries - want)) <= 1e-14, (name, n_keep, n)


def test_boundary_vector_past_einsum_letter_limit():
    model = EhmmModel(
        pi=np.array([1.0]),
        hidden=(np.array([[1.0]]),),
        emission=(np.array([[1.0]]),),
        translation_invariant=True,
    )
    vec = build_e_vector(model, 1, 40)
    assert vec.factor_dims == (1,) * 80
    assert np.allclose(vec.entries, [1.0])


# ---- partial measurement ----


def test_ghz_measurement_equals_direct_build():
    model = catalog.get("ghz").model
    direct = build_state(tensors_from_ehmm(model), 3)
    for n in (3, 4, 5):
        measured = observed_mps(model, 3, n)
        assert np.allclose(measured.entries, direct.entries, atol=1e-10)
    expected = np.zeros(8, dtype=complex)
    expected[0] = expected[-1] = 1.0
    assert np.allclose(direct.entries, expected)


def _loop_contraction_oracle(model, n_keep, n):
    """Fully independent evaluation: loop-built state, boundary vector, and sum."""
    m, d = model.m, model.d
    pi = model.pi
    us, chis = model.site_stacks(n)
    out = np.zeros((d,) * n_keep, dtype=complex)
    for hidden in np.ndindex(*(m,) * (n + 1)):
        for word in np.ndindex(*(d,) * n):
            amp = math.sqrt(pi[hidden[0]])
            for l in range(n):
                amp *= us[l][hidden[l], hidden[l + 1]] * chis[l][hidden[l], word[l]]
            if hidden[n_keep] != hidden[0]:
                continue
            weight = 1.0 / math.sqrt(pi[hidden[0]])
            for l in range(n_keep, n):
                weight *= us[l][hidden[l], hidden[l + 1]] * chis[l][hidden[l], word[l]]
            out[word[:n_keep]] += np.conj(weight) * amp
    return out


def test_cluster_measurement_against_loop_oracle():
    model = catalog.get("cluster").model
    measured = observed_mps(model, 3, 4)
    oracle = _loop_contraction_oracle(model, 3, 4)
    assert np.allclose(measured.as_tensor(), oracle, atol=1e-10)
    direct = build_state(tensors_from_ehmm(model), 3)
    assert np.allclose(measured.entries, direct.entries, atol=1e-10)


def test_measurement_boundary_case_n_equals_kept():
    for model in (catalog.get("ghz").model, catalog.random_model(2, 2, 4, 43)):
        direct = build_state(tensors_from_ehmm(model), 2)
        measured = observed_mps(model, 2, 2)
        assert np.allclose(measured.entries, direct.entries, atol=1e-10)


def test_round_trip_random_models():
    for seed in (44, 45):
        m, d = (2, 3) if seed % 2 else (3, 2)
        model = catalog.random_model(m, d, 5, seed)
        t = tensors_from_ehmm(model)
        for n_keep in (1, 2, 3):
            direct = build_state(t, n_keep)
            for n in (n_keep, n_keep + 1):
                measured = observed_mps(model, n_keep, n)
                assert np.max(np.abs(measured.entries - direct.entries)) <= 1e-10


def _literal_observed_mps(model, n_keep, n):
    """The defining route: joint state, boundary vector, permute, contract."""
    psi = build_psi_hon(model, n)
    bound = build_e_vector(model, n_keep, n)
    hidden = list(range(n + 1))
    trailing_obs = list(range(n + 1 + n_keep, 2 * n + 1))
    kept_obs = list(range(n + 1, n + 1 + n_keep))
    w = psi.permute_factors(hidden + trailing_obs + kept_obs)
    return partial_inner_product(w, bound, len(hidden) + len(trailing_obs))


# the literal route forms the m^(n+1) d^n joint state; larger cases are left out
REFERENCE_CAP = 2**20


def _assert_matches_literal(model, n_keep, n):
    measured = observed_mps(model, n_keep, n)
    literal = _literal_observed_mps(model, n_keep, n)
    assert measured.factor_dims == literal.factor_dims == (model.d,) * n_keep
    assert np.max(np.abs(measured.entries - literal.entries)) <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3])
def test_sitewise_measurement_matches_literal_route(m, d):
    checked = 0
    for n_keep in range(1, 5):
        model = catalog.random_model(m, d, n_keep + 3, 1000 * m + 10 * d + n_keep)
        for n in range(n_keep, n_keep + 4):
            if m ** (n + 1) * d**n <= REFERENCE_CAP:
                _assert_matches_literal(model, n_keep, n)
                checked += 1
    assert checked >= 13


def test_sitewise_measurement_matches_literal_route_non_unitary():
    model = catalog.get("theta", theta=[0.3, 1.0, 2.0, 0.7, 1.4, 0.2, 2.5]).model
    assert not model.hidden_unitary
    for n_keep in range(1, 5):
        for n in range(n_keep, n_keep + 4):
            _assert_matches_literal(model, n_keep, n)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 3),
    d=st.integers(2, 3),
    n_keep=st.integers(1, 4),
    extra=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_sitewise_measurement_equals_literal_route_property(m, d, n_keep, extra, seed):
    n = n_keep + extra
    assume(m ** (n + 1) * d**n <= REFERENCE_CAP)
    _assert_matches_literal(catalog.random_model(m, d, n, seed), n_keep, n)


def test_long_chain_measurement_equals_direct_build():
    model = catalog.get("cluster").model
    direct = build_state(tensors_from_ehmm(model), 3)
    measured = observed_mps(model, 3, 200)
    assert np.max(np.abs(measured.entries - direct.entries)) <= 1e-10


def _literal_fold(model, n_keep, n):
    """r = T_{N+1} ... T_n 1 with every step taken, each T_l built from site l's matrices."""
    u, chi = model.site_stacks(n)
    r = np.ones(model.m, dtype=np.complex128)
    for l in reversed(range(n_keep, n)):
        t_l = (u[l].conj() * u[l]) * (chi[l].conj() * chi[l]).sum(axis=1)[:, None]
        r = t_l @ r
    return r


@pytest.mark.parametrize("name, theta", [("ghz", None), ("aklt-derived", None), ("theta", 0.7)])
def test_fold_exit_at_a_fixed_point_is_exact(name, theta):
    model = catalog.get(name, theta=theta).model
    assert model.translation_invariant
    for n_keep, n in [(1, 1), (1, 2), (3, 4), (3, 50), (2, 1999), (3, 2000)]:
        fold = bridge._trailing_fold(model, n_keep, n)
        assert fold.tobytes() == _literal_fold(model, n_keep, n).tobytes()


def test_fold_of_a_drifting_model_takes_every_step():
    model = catalog.get("cluster").model
    for n in (200, 2000):
        full = _literal_fold(model, 3, n)
        # r still moves at the last step, so no step before it reached a fixed point
        assert full.tobytes() != _literal_fold(model, 3, n - 1).tobytes()
        assert bridge._trailing_fold(model, 3, n).tobytes() == full.tobytes()


def test_measurement_size_cap_counts_kept_block():
    model = catalog.random_model(3, 2, 6, 53)
    needed = 3 * 3 * 2**4
    assert observed_mps(model, 4, 6, size_cap=needed).dim == 2**4
    with pytest.raises(ValueError, match="size cap"):
        observed_mps(model, 4, 6, size_cap=needed - 1)


def test_measurement_size_cap_counts_trailing_fold():
    model = catalog.get("cluster").model
    assert observed_mps(model, 3, 203, size_cap=200).dim == 2**3
    with pytest.raises(ValueError, match="size cap"):
        observed_mps(model, 3, 204, size_cap=200)
    with pytest.raises(ValueError, match="size cap"):
        observed_mps(model, 3, 10**9)


def test_measurement_requires_positive_pi():
    model = EhmmModel(
        pi=np.array([1.0, 0.0]),
        hidden=(np.eye(2, dtype=complex),),
        emission=(np.eye(2, dtype=complex),),
        translation_invariant=True,
    )
    with pytest.raises(ValueError, match="positive"):
        observed_mps(model, 1, 2)


def test_measurement_argument_errors():
    model = catalog.get("ghz").model
    with pytest.raises(ValueError, match="kept sites must be >= 1"):
        observed_mps(model, 0, 2)
    with pytest.raises(ValueError, match="must be >= kept sites"):
        observed_mps(model, 3, 2)


def test_sitewise_measurement_is_independent_of_other_routes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("observed_mps used another route")

    names = (
        "build_e_vector",
        "tensors_from_ehmm",
        "build_psi_hon",
        "partial_inner_product",
        "build_state",
        "_word_sums",
    )
    for module in (bridge, ehmm, linalg, mps):
        for name in names:
            monkeypatch.setattr(module, name, refuse, raising=False)
    monkeypatch.setattr(TensorVector, "permute_factors", refuse)
    assert observed_mps(catalog.random_model(2, 2, 5, 54), 3, 5).dim == 8


# ---- classical extraction ----


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 3),
    d=st.integers(1, 3),
    sites=st.integers(1, 4),
    shared=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_extraction_of_model_tensors_gives_moduli_property(m, d, sites, shared, seed):
    model = _random_unitary_model(m, d, sites, shared, seed)
    extracted = extract_classical_hmm(tensors_from_ehmm(model))
    pairs = zip(extracted.transitions + extracted.emissions, model.hidden + model.emission)
    for got, amplitudes in pairs:
        assert np.max(np.abs(got - np.abs(amplitudes) ** 2)) <= 1e-12
        assert np.max(np.abs(got.sum(axis=1) - 1.0)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 3),
    d=st.integers(1, 3),
    sites=st.integers(1, 4),
    shared=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_decomposition_of_model_tensors_rebuilds_them_property(m, d, sites, shared, seed):
    t = tensors_from_ehmm(_random_unitary_model(m, d, sites, shared, seed))
    result = decompose_tensors(t)
    assert result.feasible
    rebuilt = tensors_from_ehmm(result.model())
    assert rebuilt.translation_invariant == t.translation_invariant
    for fam_a, fam_b in zip(t.sites, rebuilt.sites, strict=True):
        for a, b in zip(fam_a, fam_b, strict=True):
            assert np.max(np.abs(a - b)) <= 1e-10


def _random_unitary_model(m, d, sites, shared, seed):
    """A seeded random model with unitary U, site-dependent or translation-invariant."""
    model = catalog.random_model(m, d, sites, seed)
    if not shared:
        return model
    return EhmmModel(model.pi, model.hidden[:1], model.emission[:1], translation_invariant=True)


def test_extract_aklt():
    ex = extract_classical_hmm(catalog.get("aklt").tensors)
    assert np.allclose(ex.transitions[0], np.array([[1, 2], [2, 1]]) / 3, atol=1e-15)
    assert np.allclose(ex.emissions[0], np.array([[2, 1, 0], [0, 1, 2]]) / 3, atol=1e-15)


def test_extract_theta():
    th = math.pi / 3
    ex = extract_classical_hmm(catalog.get("theta", theta=th).tensors)
    c2, s2 = math.cos(th) ** 2, math.sin(th) ** 2
    assert np.allclose(ex.transitions[0], [[c2, s2], [0, 1]], atol=1e-15)
    assert np.allclose(ex.emissions[0], [[c2, s2], [1, 0]], atol=1e-15)


def test_extract_ghz_identities():
    ex = extract_classical_hmm(catalog.get("ghz").tensors)
    assert np.array_equal(ex.transitions[0], np.eye(2))
    assert np.array_equal(ex.emissions[0], np.eye(2))


def test_extract_requires_gauge():
    bad = SiteTensorSet(((np.eye(2, dtype=complex), np.eye(2, dtype=complex)),), True)
    with pytest.raises(ValueError, match="gauge"):
        extract_classical_hmm(bad)


def test_extract_matches_model_projections():
    for seed in (46, 47):
        model = catalog.random_model(2, 3, 3, seed)
        ex = extract_classical_hmm(tensors_from_ehmm(model))
        for u, p in zip(model.hidden, ex.transitions):
            assert np.max(np.abs(np.abs(u) ** 2 - p)) <= 1e-12
        for chi, q in zip(model.emission, ex.emissions):
            assert np.max(np.abs(np.abs(chi) ** 2 - q)) <= 1e-12


def test_extract_rows_stochastic_whenever_gauge_holds():
    for t in (catalog.get("aklt").tensors, tensors_from_ehmm(catalog.random_model(3, 2, 2, 48))):
        ex = extract_classical_hmm(t)
        for mat in ex.transitions + ex.emissions:
            assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-10)
            assert np.all(mat >= -1e-15)


# ---- square-root model ----


def test_isometries_from_aklt():
    model = isometries_from_mps(catalog.get("aklt").tensors)
    r13, r23 = math.sqrt(1 / 3), math.sqrt(2 / 3)
    assert np.allclose(model.hidden[0], [[r13, r23], [r23, r13]], atol=1e-15)
    assert np.allclose(
        model.emission[0],
        [[r23, r13, 0], [0, r13, r23]],
        atol=1e-15,
    )


def test_isometries_from_ghz():
    model = isometries_from_mps(catalog.get("ghz").tensors)
    assert np.array_equal(model.hidden[0], np.eye(2))
    assert np.array_equal(model.emission[0], np.eye(2))


def test_isometries_moduli_reproduce_extraction():
    t = catalog.get("theta", theta=0.9).tensors
    ex = extract_classical_hmm(t)
    model = isometries_from_mps(t)
    assert np.allclose(np.abs(model.hidden[0]) ** 2, ex.transitions[0], atol=1e-14)
    assert np.allclose(np.abs(model.emission[0]) ** 2, ex.emissions[0], atol=1e-14)


# ---- rank-one factorization ----


def test_decompose_cluster():
    result = decompose_tensors(catalog.get("cluster").tensors)
    assert result.feasible
    assert np.allclose(np.abs(result.hidden[0]), np.full((2, 2), 1 / math.sqrt(2)), atol=1e-10)
    assert np.allclose(result.emission[0], np.eye(2), atol=1e-10)
    assert result.reconstruction_error <= 1e-10


def test_decompose_aklt_infeasible():
    result = decompose_tensors(catalog.get("aklt").tensors)
    assert not result.feasible
    assert result.witness.site == 1
    assert result.witness.hidden_index == 1
    assert np.isclose(result.witness.sigma2, math.sqrt(1 / 3))


def test_decompose_theta_infeasible():
    result = decompose_tensors(catalog.get("theta", theta=0.6).tensors)
    assert not result.feasible
    assert result.witness.sigma2 > 0


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-12])
def test_decompose_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tol must be finite and non-negative"):
        decompose_tensors(catalog.get("aklt").tensors, tol)


def test_decompose_refuses_gram_that_overflows_to_nan():
    big = np.diag([1e200, 0.0]).astype(complex)
    t = SiteTensorSet(((big, np.diag([0.0, 1.0]).astype(complex)),), translation_invariant=True)
    result = decompose_tensors(t)
    assert not result.feasible
    assert result.witness.reason == "assembled hidden matrix is not unitary"


def test_decompose_zero_row():
    t = SiteTensorSet(
        ((np.array([[1, 0], [0, 0]], dtype=complex), np.zeros((2, 2), dtype=complex)),),
        translation_invariant=True,
    )
    result = decompose_tensors(t)
    assert not result.feasible
    assert result.witness.reason == "zero emission row"
    assert result.witness.hidden_index == 2
    assert result.witness.sigma2 == 0.0


def test_decompose_round_trip_random_model():
    for seed in (49, 50):
        model = catalog.random_model(2, 3, 2, seed)
        t = tensors_from_ehmm(model)
        result = decompose_tensors(t)
        assert result.feasible
        assert result.reconstruction_error <= 1e-10
        rebuilt = tensors_from_ehmm(result.model())
        for fam_a, fam_b in zip(t.sites, rebuilt.sites):
            for a, b in zip(fam_a, fam_b):
                assert np.max(np.abs(a - b)) <= 1e-10
        # recovered amplitudes match the source up to a per-row phase
        for u_rec, u_src in zip(result.hidden, model.hidden):
            assert np.allclose(np.abs(u_rec), np.abs(u_src), atol=1e-10)


def test_decompose_chi_phase_covariance():
    model = catalog.random_model(2, 2, 1, 51)
    phased_chi = model.emission[0].copy()
    phased_chi[0] *= np.exp(0.7j)
    phased = EhmmModel(
        pi=model.pi, hidden=model.hidden, emission=(phased_chi,), translation_invariant=False
    )
    base = decompose_tensors(tensors_from_ehmm(model))
    alt = decompose_tensors(tensors_from_ehmm(phased))
    # the phase lands in U's row; recovered chi (phase-fixed) coincides
    assert np.allclose(base.emission[0], alt.emission[0], atol=1e-12)
    assert np.allclose(np.abs(base.hidden[0]), np.abs(alt.hidden[0]), atol=1e-12)


def test_chi_row_phase_leaves_extraction_invariant():
    model = catalog.random_model(2, 2, 1, 52)
    phased_chi = model.emission[0].copy()
    phased_chi[1] *= np.exp(1.3j)
    phased = EhmmModel(
        pi=model.pi, hidden=model.hidden, emission=(phased_chi,), translation_invariant=False
    )
    a = extract_classical_hmm(tensors_from_ehmm(model))
    b = extract_classical_hmm(tensors_from_ehmm(phased))
    assert np.allclose(a.transitions[0], b.transitions[0], atol=1e-14)
    assert np.allclose(a.emissions[0], b.emissions[0], atol=1e-14)


def test_chi_row_phase_amplitude_invariance_single_path_models():
    # with at most one nonzero emission amplitude per (row, symbol) pattern a
    # word fixes the hidden path, so a row phase is global per word; generic
    # models mix paths with different phase counts and are NOT covered
    model = catalog.get("ghz").model
    phased_chi = model.emission[0].copy()
    phased_chi[0] *= np.exp(0.4j)
    phased = EhmmModel(
        pi=model.pi,
        hidden=model.hidden,
        emission=(phased_chi,),
        translation_invariant=True,
    )
    base = observed_mps(model, 3, 4)
    alt = observed_mps(phased, 3, 4)
    assert np.allclose(np.abs(base.entries), np.abs(alt.entries), atol=1e-12)
