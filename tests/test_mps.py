import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpshmm import catalog
from mpshmm.bridge import tensors_from_ehmm
from mpshmm.linalg import TensorVector
from mpshmm.mps import (
    SiteTensorSet,
    build_state,
    coefficient,
    gauge_check,
    state_norm,
)

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def ghz_normalized_tensors(n_sites):
    """Site-dependent GHZ tensors with 1/sqrt(2) folded into site 1 only.

    The state has unit norm; site 1 fails the gauge condition
    (sum_k A_k A_k^dag = I/2 there).
    """
    first = (P0 / math.sqrt(2.0), P1 / math.sqrt(2.0))
    return SiteTensorSet((first,) + ((P0, P1),) * (n_sites - 1))


# ---- gauge condition ----


def test_ghz_projectors_gauge_exact():
    report = gauge_check(catalog.get("ghz").tensors)
    assert report.max_deviation == 0.0
    assert report.ok


def test_aklt_gauge():
    report = gauge_check(catalog.get("aklt").tensors)
    assert report.max_deviation <= 1e-15


def test_double_identity_fails_gauge():
    t = SiteTensorSet(((np.eye(2, dtype=complex), np.eye(2, dtype=complex)),), True)
    report = gauge_check(t)
    assert not report.ok
    assert np.isclose(report.max_deviation, np.sqrt(2))


# ---- coefficients ----


def test_ghz_coefficients():
    t = catalog.get("ghz").tensors
    assert coefficient(t, (0, 0, 0)) == 1
    assert coefficient(t, (1, 1, 1)) == 1
    assert coefficient(t, (0, 1, 0)) == 0


def test_aklt_two_site_word():
    t = catalog.get("aklt").tensors
    # symbols ordered (+, 0, -): Tr(A_+ A_-) = -(2/3) Tr(s+ s-)
    assert np.isclose(coefficient(t, (0, 2)), -2.0 / 3.0)


def test_single_site_word_is_trace():
    t = catalog.get("aklt-derived").tensors
    for k in range(3):
        assert np.isclose(coefficient(t, (k,)), np.trace(t.sites[0][k]))


def test_symbol_out_of_range():
    with pytest.raises(ValueError):
        coefficient(catalog.get("ghz").tensors, (0, 2))


# ---- dense state ----


def test_ghz_normalized_state():
    t = ghz_normalized_tensors(4)
    psi = build_state(t, 4)
    expected = np.zeros(16, dtype=complex)
    expected[0] = expected[-1] = 1 / np.sqrt(2)
    assert np.allclose(psi.entries, expected)
    assert np.isclose(psi.norm(), 1.0)


def test_cluster_state_against_contraction_oracle():
    t = catalog.get("cluster").tensors
    psi = build_state(t, 3)
    w = np.stack(t.sites[0])  # (k, i, j)
    oracle = np.einsum("kab,lbc,mca->klm", w, w, w)
    assert np.allclose(psi.as_tensor(), oracle, atol=1e-14)
    assert np.isclose(psi.norm() ** 2, 1.0, atol=1e-12)


def test_single_symbol_state():
    a = np.array([[0.3, 0.1], [0.0, 0.5]], dtype=complex)
    t = SiteTensorSet(((a,),), translation_invariant=True)
    psi = build_state(t, 4)
    assert psi.entries.shape == (1,)
    assert np.isclose(psi.entries[0], np.trace(np.linalg.matrix_power(a, 4)))


def test_state_multilinear_in_site_family():
    base = catalog.get("cluster").tensors.sites[0]
    scaled = tuple(2.5 * a for a in base)
    t_plain = SiteTensorSet((base, base, base))
    t_scaled = SiteTensorSet((base, scaled, base))
    psi_plain = build_state(t_plain, 3)
    psi_scaled = build_state(t_scaled, 3)
    assert np.allclose(psi_scaled.entries, 2.5 * psi_plain.entries)


def test_translation_invariant_set_with_several_sites_rejected():
    fam = catalog.get("cluster").tensors.sites[0]
    with pytest.raises(ValueError, match="translation-invariant tensor set stores 2 sites"):
        SiteTensorSet((fam, fam), translation_invariant=True)
    assert len(SiteTensorSet((fam, fam)).sites) == 2


def test_cyclic_invariance_translation_invariant():
    t = catalog.get("aklt").tensors
    rng = np.random.default_rng(30)
    for _ in range(10):
        word = tuple(rng.integers(0, 3, size=4))
        rotated = word[1:] + word[:1]
        assert np.isclose(coefficient(t, word), coefficient(t, rotated), atol=1e-14)


def test_build_state_size_cap():
    with pytest.raises(ValueError, match="size cap"):
        build_state(catalog.get("aklt").tensors, 10, size_cap=100)


# ---- batched kernel against the scalar coefficient ----


def random_site_tensors(rng, m, d, n_sites, translation_invariant=False):
    """Site-dependent (or one shared) random complex families, no gauge."""
    sites = tuple(
        tuple(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)) for _ in range(d))
        for _ in range(1 if translation_invariant else n_sites)
    )
    return SiteTensorSet(sites, translation_invariant)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3])
def test_build_state_matches_coefficient_on_every_word(m, d):
    rng = np.random.default_rng(100 * m + d)
    for n in range(1, 9):
        t = random_site_tensors(rng, m, d, n)
        psi = build_state(t, n)
        oracle = np.array([coefficient(t, w) for w in np.ndindex(*(d,) * n)])
        # summation order differs from the running product: relative 1e-12
        scale = max(1.0, float(np.abs(oracle).max()))
        assert np.abs(psi.entries - oracle).max() <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 3),
    d=st.integers(1, 3),
    n=st.integers(1, 7),
    invariant=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_kernel_coefficient_equals_scalar_coefficient(m, d, n, invariant, seed, data):
    t = random_site_tensors(np.random.default_rng(seed), m, d, n, invariant)
    word = tuple(data.draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n)))
    psi = build_state(t, n)
    oracle = coefficient(t, word)
    entry = psi.entries[np.ravel_multi_index(word, psi.factor_dims)]
    assert abs(entry - oracle) <= 1e-12 * max(1.0, float(np.abs(psi.entries).max()))


def test_build_state_peak_memory_near_output_size():
    # the split-half halves and one left block sit beside the d^N output;
    # at AKLT N=7 they add 2 * 27 words of 2x2 complex matrices (10%)
    t = catalog.get("aklt").tensors
    build_state(t, 7)
    tracemalloc.start()
    try:
        entries = build_state(t, 7).entries
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * entries.nbytes


# ---- norm via transfer operator ----


def test_ghz_transfer_norm():
    assert np.isclose(state_norm(catalog.get("ghz").tensors, 3), np.sqrt(2))


def test_overflowing_norms_are_inf_without_warnings():
    # A_0[0, 0] = 1e200: the squares overflow on both routes, as the dense norm does
    stack = catalog.get("ghz").tensors._stack.copy()
    stack[0, 0, 0, 0] = 1e200
    t = SiteTensorSet(stack, translation_invariant=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert build_state(t, 1).norm() == math.inf
        assert TensorVector((2,), [1e200, 1e-300j]).norm() == math.inf
        for n in (1, 2, 7):
            assert state_norm(t, n) == math.inf


def test_transfer_norm_matches_dense_for_random_gauged():
    for seed in (31, 32, 33):
        m, d = [(2, 2), (2, 3), (3, 2)][seed % 3]
        t = tensors_from_ehmm(catalog.random_model(m, d, 6, seed))
        for n in (2, 4, 6):
            assert np.isclose(state_norm(t, n), build_state(t, n).norm(), atol=1e-10)


def test_transfer_norm_identity_family():
    t = SiteTensorSet(((np.eye(2, dtype=complex),),), translation_invariant=True)
    assert np.isclose(state_norm(t, 5), 2.0)
