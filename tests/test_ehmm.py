import math
import string

import numpy as np
import pytest

from mpshmm import catalog
from mpshmm.ehmm import (
    PI_SUM_TOL,
    ROW_NORM_TOL,
    EhmmModel,
    Violation,
    build_psi_hn,
    build_psi_hon,
    build_psi_on,
    emission_expectation,
    emission_isometry_matrix,
    hidden_isometry_matrix,
    observation_from_joint,
    stochastic_projections,
    transition_expectation,
    validate,
)
from mpshmm.linalg import kron

SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
# sign variant whose rows realize e_i -> (e_i x e_i + (-1)^i e_i x e_{1-i})/sqrt(2)
HADAMARD_VARIANT = np.array([[1, 1], [-1, 1]], dtype=complex) / np.sqrt(2)


def trivial_model():
    return EhmmModel(
        pi=np.array([1.0]),
        hidden=(np.array([[1.0]]),),
        emission=(np.array([[1.0]]),),
        translation_invariant=True,
    )


# ---- validation ----


def test_ghz_model_is_valid():
    assert validate(catalog.get("ghz").model) == []


def test_pi_sum_violation_reported():
    model = EhmmModel(
        pi=np.array([0.6, 0.6]),
        hidden=(np.eye(2, dtype=complex),),
        emission=(np.eye(2, dtype=complex),),
        translation_invariant=True,
    )
    report = validate(model)
    assert any("pi sum = 1.2" in v.message for v in report)


@pytest.mark.parametrize("bad", [[math.nan, math.nan], [math.inf, -math.inf], [0.5, math.nan]])
def test_non_finite_pi_reported(bad):
    model = EhmmModel(
        pi=np.array(bad),
        hidden=(np.eye(2, dtype=complex),),
        emission=(np.eye(2, dtype=complex),),
        translation_invariant=True,
    )
    report = validate(model)
    assert [v.location for v in report] == ["pi"]
    assert report[0].message.startswith("non-finite entry")
    with pytest.raises(ValueError, match="non-finite entry"):
        build_psi_hon(model, 1)


def test_bad_emission_row_names_index():
    chi = np.array([[1.0, 0.0], [0.5, 0.5]], dtype=complex)  # row 1 not normalized
    model = EhmmModel(
        pi=np.array([0.5, 0.5]),
        hidden=(np.eye(2, dtype=complex),),
        emission=(chi,),
        translation_invariant=True,
    )
    report = validate(model)
    assert any("emission[1] row 1" == v.location for v in report)


def test_translation_invariant_model_with_several_sites_reported():
    model = catalog.random_model(2, 2, 2, 26)
    shared = EhmmModel(
        pi=model.pi, hidden=model.hidden, emission=model.emission, translation_invariant=True
    )
    report = validate(shared)
    assert [v.location for v in report] == ["sites"]
    assert "translation-invariant model stores 2 site pairs" in report[0].message
    with pytest.raises(ValueError, match="translation-invariant model stores 2"):
        build_psi_hon(shared, 2)
    assert validate(model) == []


# ---- stochastic projections ----


def test_theta_projections():
    model = catalog.get("theta", theta=math.pi / 3).model
    pis, qs = stochastic_projections(model)
    assert np.allclose(pis[0], [[0.25, 0.75], [0.0, 1.0]], atol=1e-15)
    assert np.allclose(qs[0], [[0.25, 0.75], [1.0, 0.0]], atol=1e-15)


def test_ghz_projections_are_identities():
    pis, qs = stochastic_projections(catalog.get("ghz").model)
    assert np.array_equal(pis[0], np.eye(2))
    assert np.array_equal(qs[0], np.eye(2))


def test_cluster_projections():
    pis, qs = stochastic_projections(catalog.get("cluster").model)
    assert np.allclose(pis[0], np.full((2, 2), 0.5), atol=1e-15)
    assert np.allclose(qs[0], np.eye(2), atol=1e-15)


def test_projections_are_row_stochastic_for_random_models():
    for seed in range(5):
        model = catalog.random_model(3, 2, 2, seed)
        pis, qs = stochastic_projections(model)
        for mat in pis + qs:
            assert np.all(mat >= 0)
            assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-10)


# ---- isometry matrices ----


def test_hidden_isometry_identity_is_copier():
    v = hidden_isometry_matrix(np.eye(2, dtype=complex))
    for i in range(2):
        e = np.zeros(2)
        e[i] = 1
        assert np.allclose(v[:, i], np.kron(e, e))


def test_hidden_isometry_hadamard_variant_signs():
    v = hidden_isometry_matrix(HADAMARD_VARIANT)
    basis = np.eye(2)
    for i in range(2):
        expected = (
            np.kron(basis[i], basis[i]) + (-1) ** i * np.kron(basis[i], basis[1 - i])
        ) / np.sqrt(2)
        assert np.allclose(v[:, i], expected)


def test_hidden_isometry_is_isometry_for_random_unitary():
    u = catalog.random_model(3, 2, 1, 11).hidden[0]
    v = hidden_isometry_matrix(u)
    assert np.linalg.norm(v.conj().T @ v - np.eye(3)) <= 1e-10


def test_emission_isometry_identity():
    v = emission_isometry_matrix(np.eye(2, dtype=complex))
    basis = np.eye(2)
    for i in range(2):
        assert np.allclose(v[:, i], np.kron(basis[i], basis[i]))


def test_emission_isometry_aklt_derived():
    chi = catalog.get("aklt-derived").model.emission[0]
    v = emission_isometry_matrix(chi)
    assert np.linalg.norm(v.conj().T @ v - np.eye(2)) <= 1e-10


def test_emission_isometry_extracted_square_roots():
    from mpshmm.bridge import isometries_from_mps

    chi = isometries_from_mps(catalog.get("aklt").tensors).emission[0]
    v = emission_isometry_matrix(chi)
    assert np.linalg.norm(v.conj().T @ v - np.eye(2)) <= 1e-10


def test_emission_isometry_random_rows():
    chi = catalog.random_model(2, 3, 1, 12).emission[0]
    v = emission_isometry_matrix(chi)
    assert np.linalg.norm(v.conj().T @ v - np.eye(2)) <= 1e-10


# ---- transition / emission expectations ----


def test_transition_expectation_identity_u_is_schur():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    x2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.allclose(transition_expectation(np.eye(2), x, x2), x * x2)


def test_transition_expectation_preserves_identity():
    for u in (HADAMARD, catalog.get("theta", theta=0.7).model.hidden[0]):
        out = transition_expectation(u, np.eye(2), np.eye(2))
        assert np.allclose(out, np.eye(2), atol=1e-12)


def test_transition_expectation_matches_dense_conjugation():
    v = hidden_isometry_matrix(HADAMARD)
    dense = v.conj().T @ kron(SZ, SX) @ v
    assert np.allclose(transition_expectation(HADAMARD, SZ, SX), dense, atol=1e-12)
    rng = np.random.default_rng(14)
    u = catalog.random_model(3, 2, 1, 15).hidden[0]
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    x2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    v = hidden_isometry_matrix(u)
    dense = v.conj().T @ kron(x, x2) @ v
    assert np.allclose(transition_expectation(u, x, x2), dense, atol=1e-12)


def test_emission_expectation_identity_chi_is_schur():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.allclose(emission_expectation(np.eye(2), x, y), x * y)


def test_emission_expectation_identity_preserving():
    chi = catalog.get("aklt-derived").model.emission[0]
    assert np.allclose(emission_expectation(chi, np.eye(2), np.eye(3)), np.eye(2), atol=1e-12)


def test_emission_expectation_matches_dense_conjugation():
    rng = np.random.default_rng(17)
    chi = catalog.random_model(2, 3, 1, 18).emission[0]
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    v = emission_isometry_matrix(chi)
    dense = v.conj().T @ kron(x, y) @ v
    assert np.allclose(emission_expectation(chi, x, y), dense, atol=1e-12)


def test_expectation_shape_errors():
    with pytest.raises(ValueError):
        transition_expectation(np.eye(2), np.eye(3), np.eye(2))
    with pytest.raises(ValueError):
        emission_expectation(np.eye(2), np.eye(2), np.eye(3))


# ---- joint state ----


def test_ghz_joint_state_structure():
    model = catalog.get("ghz").model
    for n in (1, 3):
        psi = build_psi_hon(model, n).as_tensor()
        expected = np.zeros_like(psi)
        for i in range(2):
            expected[(i,) * (n + 1) + (i,) * n] = 1 / np.sqrt(2)
        assert np.allclose(psi, expected)


def test_joint_state_unit_norm():
    models = [
        catalog.get("cluster").model,
        catalog.get("theta", theta=1.1).model,
        catalog.random_model(2, 3, 5, 19),
        catalog.random_model(3, 2, 5, 20),
    ]
    for model in models:
        for n in range(1, 6):
            assert abs(build_psi_hon(model, n).norm() - 1.0) <= 1e-10


def test_theta_joint_state_matches_index_loop():
    model = catalog.get("theta", theta=math.pi / 3).model
    u = model.hidden[0]
    chi = model.emission[0]
    pi = model.pi
    psi = build_psi_hon(model, 2).as_tensor()
    oracle = np.zeros((2, 2, 2, 2, 2), dtype=complex)
    for i1 in range(2):
        for i2 in range(2):
            for i3 in range(2):
                for k1 in range(2):
                    for k2 in range(2):
                        oracle[i1, i2, i3, k1, k2] = (
                            math.sqrt(pi[i1]) * u[i1, i2] * u[i2, i3] * chi[i1, k1] * chi[i2, k2]
                        )
    assert np.allclose(psi, oracle, atol=1e-14)


def test_hidden_chain_state():
    model = catalog.get("ghz").model
    psi = build_psi_hn(model, 3).as_tensor()
    expected = np.zeros_like(psi)
    for i in range(2):
        expected[(i,) * 4] = 1 / np.sqrt(2)
    assert np.allclose(psi, expected)
    for seed in (21, 22):
        rnd = catalog.random_model(2, 2, 4, seed)
        assert abs(build_psi_hn(rnd, 4).norm() - 1.0) <= 1e-10


def test_trivial_one_state_model():
    model = trivial_model()
    assert np.allclose(build_psi_hn(model, 3).entries, [1.0])
    assert np.allclose(build_psi_on(model, 3).entries, [1.0])


def test_observation_state_ghz_hand_value():
    psi = build_psi_on(catalog.get("ghz").model, 2)
    expected = np.zeros(4, dtype=complex)
    expected[0] = expected[3] = 0.5
    assert np.allclose(psi.entries, expected)


def test_observation_state_equals_partial_inner_product():
    model = catalog.get("theta", theta=math.pi / 3).model
    direct = build_psi_on(model, 3)
    via_pip = observation_from_joint(model, 3)
    assert np.allclose(direct.entries, via_pip.entries, atol=1e-10)
    # also for a site-dependent random model, where the site-numbering
    # ambiguity would show up if the wrong reading were used
    rnd = catalog.random_model(2, 2, 5, 23)
    assert np.allclose(
        build_psi_on(rnd, 4).entries, observation_from_joint(rnd, 4).entries, atol=1e-12
    )


def test_back_measurement_against_observation_vector_is_computable():
    from mpshmm.linalg import partial_inner_product

    # contracting the joint state against the observation vector leaves a
    # hidden-factor vector; no identity with the hidden chain is claimed
    model = catalog.get("theta", theta=0.8).model
    n = 3
    joint = build_psi_hon(model, n)
    obs = build_psi_on(model, n)
    obs_first = joint.permute_factors(list(range(n + 1, 2 * n + 1)) + list(range(n + 1)))
    back = partial_inner_product(obs_first, obs, n)
    assert back.factor_dims == (2,) * (n + 1)
    assert back.norm() > 0
    chain = build_psi_hn(model, n)
    assert np.max(np.abs(back.entries - chain.entries)) > 1e-3  # visibly not a product split


def test_size_cap_enforced():
    model = catalog.get("ghz").model
    with pytest.raises(ValueError, match="size cap"):
        build_psi_hon(model, 4, size_cap=100)


def test_site_dependent_model_length_guard():
    model = catalog.random_model(2, 2, 2, 25)
    with pytest.raises(ValueError, match="exceeds"):
        build_psi_hon(model, 3)


# ---- chain builders against the literal einsum contractions ----


def _letters(count):
    return list(string.ascii_letters[:count])


def einsum_psi_hon(model, n):
    """The joint state as one einsum over all 2n+1 factors (52-letter limit)."""
    us = [model.hidden_at(l) for l in range(1, n + 1)]
    chis = [model.emission_at(l) for l in range(1, n + 1)]
    hid = _letters(2 * n + 1)[: n + 1]
    obs = _letters(2 * n + 1)[n + 1 :]
    subs = [hid[0]]
    subs += [hid[l] + hid[l + 1] for l in range(n)]
    subs += [hid[l] + obs[l] for l in range(n)]
    out = "".join(hid) + "".join(obs)
    coeff = np.einsum(
        ",".join(subs) + "->" + out,
        np.sqrt(model.pi.astype(np.complex128)),
        *us,
        *chis,
        optimize=True,
    )
    return coeff.reshape(-1)


def einsum_psi_hn(model, n):
    us = [model.hidden_at(l) for l in range(1, n + 1)]
    hid = _letters(n + 1)
    subs = [hid[0]] + [hid[l] + hid[l + 1] for l in range(n)]
    coeff = np.einsum(
        ",".join(subs) + "->" + "".join(hid),
        np.sqrt(model.pi.astype(np.complex128)),
        *us,
        optimize=True,
    )
    return coeff.reshape(-1)


def einsum_psi_on(model, n):
    trans = [np.abs(model.hidden_at(l)) ** 2 for l in range(1, n)]
    chis = [model.emission_at(l) for l in range(1, n + 1)]
    hid = _letters(2 * n)[:n]
    obs = _letters(2 * n)[n:]
    subs = [hid[0]]
    subs += [hid[l] + hid[l + 1] for l in range(n - 1)]
    subs += [hid[l] + obs[l] for l in range(n)]
    coeff = np.einsum(
        ",".join(subs) + "->" + "".join(obs),
        model.pi.astype(np.complex128),
        *trans,
        *chis,
        optimize=True,
    )
    return coeff.reshape(-1)


def _chain_cases():
    """Site-dependent and translation-invariant random models, m in 1..3, d in 2..3."""
    cases = []
    for m in (1, 2, 3):
        for d in (2, 3):
            rnd = catalog.random_model(m, d, 5, 300 + 10 * m + d)
            shared = EhmmModel(
                pi=rnd.pi,
                hidden=rnd.hidden[:1],
                emission=rnd.emission[:1],
                translation_invariant=True,
            )
            cases += [(f"m{m}-d{d}-sites", rnd), (f"m{m}-d{d}-shared", shared)]
    return cases


CHAIN_CASES = _chain_cases()


@pytest.mark.parametrize("name, model", CHAIN_CASES, ids=[c[0] for c in CHAIN_CASES])
def test_chain_builders_equal_einsum_reference(name, model):
    for n in range(1, 6):
        pairs = [
            (build_psi_hon(model, n).entries, einsum_psi_hon(model, n)),
            (build_psi_hn(model, n).entries, einsum_psi_hn(model, n)),
            (build_psi_on(model, n).entries, einsum_psi_on(model, n)),
        ]
        for got, want in pairs:
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14, (name, n)


def test_chain_builders_past_einsum_letter_limit():
    # 2n+1 = 61 and 2n = 80 tensor factors; one einsum string has 52 letters
    model = trivial_model()
    assert np.allclose(build_psi_hon(model, 30).entries, [1.0])
    assert np.allclose(build_psi_on(model, 40).entries, [1.0])
    assert np.allclose(build_psi_hn(model, 60).entries, [1.0])


# ---- vectorized validation against the per-row loop ----


def loop_validate(model):
    """The per-row reference: every matrix and row checked in a Python loop."""
    out = []
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
    for idx, u in enumerate(model.hidden, start=1):
        if u.shape != (m, m):
            out.append(Violation(f"hidden[{idx}]", f"shape {u.shape} != ({m}, {m})", 0.0))
            continue
        rows = np.abs(u) ** 2
        for i, rsum in enumerate(rows.sum(axis=1)):
            if abs(rsum - 1.0) > ROW_NORM_TOL:
                out.append(
                    Violation(
                        f"hidden[{idx}] row {i}",
                        f"squared-modulus row sum = {rsum}",
                        abs(rsum - 1.0),
                    )
                )
    for idx, c in enumerate(model.emission, start=1):
        if c.shape != (m, d):
            out.append(Violation(f"emission[{idx}]", f"shape {c.shape} != ({m}, {d})", 0.0))
            continue
        for i, rsum in enumerate((np.abs(c) ** 2).sum(axis=1)):
            if abs(rsum - 1.0) > ROW_NORM_TOL:
                out.append(
                    Violation(
                        f"emission[{idx}] row {i}",
                        f"squared-modulus row sum = {rsum}",
                        abs(rsum - 1.0),
                    )
                )
    return out


def _malformed_models():
    rnd = catalog.random_model(3, 2, 4, 330)
    hidden, emission = list(rnd.hidden), list(rnd.emission)
    scaled = [h.copy() for h in hidden]
    scaled[1][2] *= 1.1  # one bad row at site 2
    scaled[3] *= 0.5  # every row bad at site 4
    shaped = list(scaled)
    shaped[2] = np.eye(2, dtype=complex)  # wrong shape between sites with bad rows
    bad_chi = [c.copy() for c in emission]
    bad_chi[0][0] = 0.0
    bad_chi[3] = np.ones((3, 3), dtype=complex)
    wide = catalog.random_model(9, 2, 2, 331)
    wide_h = [h.copy() for h in wide.hidden]
    wide_h[0][4] *= 1 + 1e-9
    wide_h[1][8] *= 1 + 1e-11  # within tolerance
    return [
        ("valid", rnd),
        ("rows", EhmmModel(pi=rnd.pi, hidden=tuple(scaled), emission=rnd.emission)),
        ("shape", EhmmModel(pi=rnd.pi, hidden=tuple(shaped), emission=rnd.emission)),
        (
            "shapes-and-rows",
            EhmmModel(pi=rnd.pi, hidden=tuple(scaled[:3]), emission=tuple(bad_chi)),
        ),
        (
            "nan-pi",
            EhmmModel(pi=np.array([0.5, np.nan, 0.5]), hidden=tuple(scaled), emission=rnd.emission),
        ),
        (
            "pi-length-shared",
            EhmmModel(
                pi=np.array([0.7, 0.6]),
                hidden=tuple(shaped),
                emission=tuple(bad_chi),
                translation_invariant=True,
            ),
        ),
        ("wide", EhmmModel(pi=wide.pi, hidden=tuple(wide_h), emission=wide.emission)),
    ]


MALFORMED_MODELS = _malformed_models()


@pytest.mark.parametrize("name, model", MALFORMED_MODELS, ids=[c[0] for c in MALFORMED_MODELS])
def test_validate_equals_per_row_loop(name, model):
    assert validate(model) == loop_validate(model)
