import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpshmm import catalog, serialize
from mpshmm.bridge import DecompositionResult, decompose_tensors, extract_classical_hmm
from mpshmm.entropy import BoundReport, check_bound
from mpshmm.linalg import TensorVector


def test_model_round_trip_exact():
    model = catalog.random_model(2, 3, 2, seed=80)
    doc = serialize.model_to_dict(model)
    back = serialize.model_from_dict(doc)
    assert np.array_equal(model.pi, back.pi)
    for a, b in zip(model.hidden + model.emission, back.hidden + back.emission):
        assert np.array_equal(a, b)
    assert back.translation_invariant == model.translation_invariant


def test_tensor_round_trip_exact():
    t = catalog.get("aklt").tensors
    back = serialize.tensors_from_dict(serialize.tensors_to_dict(t))
    for fam_a, fam_b in zip(t.sites, back.sites):
        for a, b in zip(fam_a, fam_b):
            assert np.array_equal(a, b)
    assert back.translation_invariant


def test_file_round_trip_bit_for_bit(tmp_path):
    model = catalog.get("aklt-derived").model
    path = tmp_path / "model.json"
    text = serialize.dump_json(serialize.model_to_dict(model), path)
    loaded = serialize.load_model(path)
    again = serialize.dump_json(serialize.model_to_dict(loaded))
    assert again == text


def test_state_document_round_trip():
    v = TensorVector((2, 2), np.array([0.5, 0.5j, -0.5, 0.5]))
    doc = serialize.state_to_dict(v)
    back = serialize.state_from_dict(doc)
    assert back.factor_dims == v.factor_dims
    assert np.array_equal(back.entries, v.entries)
    assert doc["schema_version"] == serialize.SCHEMA_VERSION


def test_extracted_document():
    doc = serialize.extracted_to_dict(extract_classical_hmm(catalog.get("aklt").tensors))
    assert doc["kind"] == "extracted_hmm"
    assert doc["transitions"][0][0][1] == [pytest.approx(2 / 3), 0.0]


def test_decomposition_documents():
    ok = serialize.decomposition_to_dict(decompose_tensors(catalog.get("cluster").tensors))
    assert ok["feasible"] and "hidden" in ok
    bad = serialize.decomposition_to_dict(decompose_tensors(catalog.get("aklt").tensors))
    assert not bad["feasible"]
    assert bad["witness"]["site"] == 1
    assert bad["witness"]["sigma2"] > 0


def test_bound_report_document_and_infinities():
    doc = serialize.bound_report_to_dict(check_bound(catalog.get("ghz").model, 2))
    assert doc["holds"] is True
    rep = BoundReport(
        s_value=math.inf,
        rhs_value=0.0,
        s_diag=0.0,
        holds=True,
        trace_rho=1.0,
        trace_sigma=1.0,
        s_value_normalized=math.inf,
        rhs_value_normalized=0.0,
        s_diag_normalized=0.0,
        holds_normalized=True,
        support_violation=True,
        hidden_unitary=False,
    )
    doc = serialize.bound_report_to_dict(rep)
    assert doc["s_value"] == "inf"
    assert doc["support_violation"] is True


_INF_REPORT = BoundReport(
    s_value=math.inf,
    rhs_value=0.0,
    s_diag=math.inf,
    holds=True,
    trace_rho=1.0,
    trace_sigma=1.0,
    s_value_normalized=math.inf,
    rhs_value_normalized=-0.0,
    s_diag_normalized=math.inf,
    holds_normalized=True,
    support_violation=True,
    hidden_unitary=False,
)

DOCUMENTS = {
    "model": lambda: serialize.model_to_dict(catalog.random_model(3, 2, 2, 82)),
    "tensors": lambda: serialize.tensors_to_dict(catalog.get("aklt").tensors),
    "state": lambda: serialize.state_to_dict(
        TensorVector((2, 3), np.array([0.5, -0.0, 0.5j, -1e-300, 1 / 3 - 0.1j, 0.0]))
    ),
    "extracted": lambda: serialize.extracted_to_dict(
        extract_classical_hmm(catalog.get("theta", theta=[0.3, 0.7]).tensors)
    ),
    "feasible": lambda: serialize.decomposition_to_dict(
        decompose_tensors(catalog.get("cluster").tensors)
    ),
    "witness": lambda: serialize.decomposition_to_dict(
        decompose_tensors(catalog.get("aklt").tensors)
    ),
    "empty-families": lambda: serialize.decomposition_to_dict(
        DecompositionResult(feasible=True, reconstruction_error=0.0)
    ),
    "no-witness": lambda: serialize.decomposition_to_dict(DecompositionResult(feasible=False)),
    "bound-inf": lambda: serialize.bound_report_to_dict(_INF_REPORT),
    "bound": lambda: serialize.bound_report_to_dict(check_bound(catalog.get("cluster").model, 3)),
    "empty": dict,
}


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
def test_dump_json_parses_to_the_indented_document(kind):
    doc = DOCUMENTS[kind]()
    text = serialize.dump_json(doc)
    assert json.loads(text) == json.loads(json.dumps(doc, indent=2))
    # one top-level field per line
    assert len(text.splitlines()) == (len(doc) + 2 if doc else 1)


def test_kind_mismatch_rejected():
    doc = serialize.tensors_to_dict(catalog.get("ghz").tensors)
    with pytest.raises(ValueError, match="expected a ehmm_model"):
        serialize.model_from_dict(doc)


def _model_doc():
    return serialize.model_to_dict(catalog.get("ghz").model)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda doc: [doc], "JSON object"),
        (lambda doc: {k: v for k, v in doc.items() if k != "pi"}, "missing field 'pi'"),
        (lambda doc: {**doc, "pi": "0.5,0.5"}, "field 'pi'"),
        (lambda doc: {**doc, "pi": [0.5, [0.5]]}, "field 'pi'"),
        (lambda doc: {**doc, "hidden": 3}, "field 'hidden'"),
        (lambda doc: {**doc, "hidden": [[[1.0, 0.0], [0.0, 1.0]]]}, r"hidden\[1\]"),
        (lambda doc: {**doc, "emission": [[[[1.0, 0.0, 0.0]]]]}, r"emission\[1\]"),
        (lambda doc: {**doc, "emission": [[[[1.0, 0.0]], []]]}, r"emission\[1\]"),
        (lambda doc: {**doc, "translation_invariant": "false"}, "translation_invariant"),
    ],
)
def test_malformed_model_document_names_field(mutate, message):
    with pytest.raises(ValueError, match=message):
        serialize.model_from_dict(mutate(_model_doc()))


def test_malformed_tensor_document_names_field():
    doc = serialize.tensors_to_dict(catalog.get("ghz").tensors)
    with pytest.raises(ValueError, match="missing field 'sites'"):
        serialize.tensors_from_dict({k: v for k, v in doc.items() if k != "sites"})
    with pytest.raises(ValueError, match=r"sites\[1\]"):
        serialize.tensors_from_dict({**doc, "sites": [7]})
    with pytest.raises(ValueError, match=r"sites\[1\]\[0\]"):
        serialize.tensors_from_dict({**doc, "sites": [[[[1.0, 0.0, 2.0]]]]})


def test_malformed_state_document_names_field():
    doc = serialize.state_to_dict(TensorVector((2,), np.array([1.0, 0.0])))
    with pytest.raises(ValueError, match=r"entries\[1\]"):
        serialize.state_from_dict({**doc, "entries": [[1.0, 0.0], [0.0]]})
    with pytest.raises(ValueError, match="factor_dims"):
        serialize.state_from_dict({**doc, "factor_dims": ["2"]})


def test_load_model_rejects_top_level_list(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("[1, 2]\n")
    with pytest.raises(ValueError, match="ehmm_model document"):
        serialize.load_model(path)
    with pytest.raises(ValueError, match="site_tensor_set document"):
        serialize.load_tensors(path)


# ---- fuzzing: any JSON-shaped input ends in ValueError (or OSError on load) ----

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**401), 10**401)
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=25,
)


def _paths(doc, prefix=()):
    """Every position in a JSON document, as a tuple of keys and indices."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _replaced(doc, path, value):
    """A copy of doc with the entry at path replaced by value."""
    if not path:
        return value
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    out[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return out


FROM_DICT = {
    "model": (serialize.model_from_dict, serialize.model_to_dict(catalog.random_model(2, 2, 2, 81))),
    "tensors": (serialize.tensors_from_dict, serialize.tensors_to_dict(catalog.get("ghz").tensors)),
    "state": (serialize.state_from_dict, serialize.state_to_dict(TensorVector((2,), np.array([0.6, 0.8j])))),
}


@pytest.mark.parametrize("kind", sorted(FROM_DICT))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_from_dict_raises_only_value_error(kind, data):
    from_dict, valid = FROM_DICT[kind]
    near_valid = st.sampled_from(list(_paths(valid))).flatmap(
        lambda path: JSON_VALUES.map(lambda value: _replaced(valid, path, value))
    )
    doc = data.draw(JSON_VALUES | near_valid)
    try:
        from_dict(doc)
    except ValueError:
        pass


@settings(max_examples=60, deadline=None)
@given(raw=st.binary(max_size=64) | JSON_VALUES.map(lambda v: json.dumps(v).encode()))
def test_loaders_raise_only_value_or_os_error(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_bytes(raw)
        for load in (serialize.load_json, serialize.load_model, serialize.load_tensors):
            try:
                load(path)
            except (ValueError, OSError):
                pass


def test_deeply_nested_file_is_a_value_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    with pytest.raises(ValueError, match="nested too deeply"):
        serialize.load_tensors(path)


def test_integer_too_large_for_a_float_is_a_value_error():
    doc = serialize.tensors_to_dict(catalog.get("aklt").tensors)
    doc["sites"][0][0][0][0][0] = 10**400
    with pytest.raises(ValueError, match=r"sites\[1\]\[0\]"):
        serialize.tensors_from_dict(doc)
    doc = serialize.model_to_dict(catalog.get("ghz").model)
    doc["pi"][0] = -(10**400)
    with pytest.raises(ValueError, match="field 'pi'"):
        serialize.model_from_dict(doc)


@settings(max_examples=100, deadline=None)
@given(doc=st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=6))
def test_dump_json_parses_like_the_indented_encoder(doc):
    # re-encoding compares NaN by its text, where == would not
    parsed = json.loads(serialize.dump_json(doc))
    assert json.dumps(parsed) == json.dumps(json.loads(json.dumps(doc, indent=2)))
