import argparse
import json
import re
import warnings

import numpy as np
import pytest

from mpshmm import catalog, cli, serialize
from mpshmm.bridge import observed_mps
from mpshmm.cli import _emit_state, _fmt_complex, main
from mpshmm.linalg import TensorVector
from mpshmm.mps import build_state


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "cluster" in out and "theta" in out


def test_verify_ghz_passes(capsys):
    assert main(["verify", "theorem1", "--name", "ghz", "--N", "3", "--n", "3,4,5"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok") == 3


def test_verify_failure_exit_code(monkeypatch, capsys):
    # the identity holds for every valid model, so a perturbed measured state
    # exercises the failure path (a negative tolerance is now a usage error)
    def perturbed(model, n_keep, n, size_cap):
        v = observed_mps(model, n_keep, n, size_cap)
        return TensorVector(v.factor_dims, v.entries + 1e-6)

    monkeypatch.setattr(cli, "observed_mps", perturbed)
    assert main(["verify", "theorem1", "--name", "ghz", "--N", "2", "--n", "2"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_decompose_aklt_infeasible(capsys):
    assert main(["decompose", "--name", "aklt"]) == 1
    out = capsys.readouterr().out
    assert "infeasible, site 1, hidden index 1" in out


def test_decompose_cluster_feasible(capsys):
    assert main(["decompose", "--name", "cluster"]) == 0
    assert "reconstruction error" in capsys.readouterr().out


def test_extract_aklt_values(capsys):
    assert main(["extract", "--name", "aklt"]) == 0
    out = capsys.readouterr().out
    assert "0.333333333333" in out and "0.666666666667" in out


def test_entropy_ghz(capsys):
    assert main(["entropy", "--name", "ghz", "--N", "3"]) == 0
    out = capsys.readouterr().out
    assert "0.69314718056" in out
    assert "holds" in out


def test_entropy_json_format(capsys):
    assert main(["entropy", "--name", "ghz", "--N", "2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "bound_report"
    assert doc["holds"] is True


def test_export_import_round_trip(tmp_path, capsys):
    assert main(["catalog", "export", "cluster", "--dir", str(tmp_path)]) == 0
    capsys.readouterr()
    tensor_file = tmp_path / "cluster.tensors.json"
    model_file = tmp_path / "cluster.model.json"
    assert tensor_file.exists() and model_file.exists()
    original = tensor_file.read_text()
    loaded = serialize.load_tensors(tensor_file)
    assert serialize.dump_json(serialize.tensors_to_dict(loaded)) + "\n" == original
    assert main(["build-mps", "--tensors", str(tensor_file), "--sites", "3"]) == 0
    out = capsys.readouterr().out
    assert "norm: 1" in out


def test_build_mps_writes_state(tmp_path, capsys):
    out_file = tmp_path / "state.json"
    code = main(["build-mps", "--name", "ghz", "--sites", "4", "--out", str(out_file)])
    assert code == 0
    capsys.readouterr()
    doc = json.loads(out_file.read_text())
    assert doc["kind"] == "tensor_vector"
    assert doc["factor_dims"] == [2, 2, 2, 2]


def test_build_ehmm_state_observation(capsys):
    assert main(["build-ehmm-state", "--name", "ghz", "--n", "2", "--which", "on"]) == 0
    out = capsys.readouterr().out
    assert "|00> : 0.5" in out and "|11> : 0.5" in out


def test_theta_entry_through_cli(capsys):
    code = main(
        ["verify", "theorem1", "--name", "theta", "--theta", "1.0471975511965976",
         "--N", "2", "--n", "2,3,4"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "not unitary" in out  # informational note for this family


def test_unknown_catalog_name_is_usage_error(capsys):
    assert main(["extract", "--name", "w-state"]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_source_is_usage_error(capsys):
    assert main(["extract"]) == 2
    assert "provide" in capsys.readouterr().err


def test_io_failure_is_usage_error(capsys):
    assert main(["extract", "--tensors", "/no/such/file.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_size_cap_environment_variable(monkeypatch, capsys):
    monkeypatch.setenv("MPSHMM_SIZE_CAP", "4")
    assert main(["build-mps", "--name", "ghz", "--sites", "3"]) == 2
    assert "size cap" in capsys.readouterr().err


def test_selftest_command(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS criterion") == 9


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1, 2]", "JSON object"),
        ('{"kind": "ehmm_model"}', "missing field 'pi'"),
        ('{"kind": "ehmm_model", "pi": [1.0], "hidden": [[[1.0]]], "emission": [[[[1, 0]]]],'
         ' "translation_invariant": true}', r"hidden\[1\]"),
        ("{not json", "Expecting"),
    ],
)
def test_malformed_model_file_is_one_line_usage_error(tmp_path, capsys, text, message):
    path = tmp_path / "model.json"
    path.write_text(text)
    assert main(["entropy", "--model", str(path), "--N", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert re.search(message, err)


@pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
def test_bad_size_cap_environment_variable_is_usage_error(monkeypatch, capsys, value):
    monkeypatch.setenv("MPSHMM_SIZE_CAP", value)
    assert main(["catalog", "list"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: MPSHMM_SIZE_CAP must be a positive integer, got {value!r}\n"


def test_unknown_catalog_name_message_is_unquoted(capsys):
    assert main(["extract", "--name", "w-state"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown catalog name 'w-state'; known: ")
    assert not err.startswith('error: "')


def test_translation_invariant_model_with_two_sites_is_usage_error(tmp_path, capsys):
    doc = serialize.model_to_dict(catalog.random_model(2, 2, 2, 27))
    doc["translation_invariant"] = True
    path = tmp_path / "model.json"
    serialize.dump_json(doc, path)
    assert main(["verify", "theorem1", "--model", str(path), "--N", "1", "--n", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "translation-invariant model stores 2 site pairs" in err


@pytest.mark.parametrize("dims", [(2, 3, 2), (12, 2), (3,), (2, 12, 3)])
def test_state_table_matches_per_coefficient_format(capsys, dims):
    rng = np.random.default_rng(sum(dims))
    entries = rng.standard_normal(int(np.prod(dims))) + 1j * rng.standard_normal(int(np.prod(dims)))
    entries[::3] = 0.0
    entries[1::4] = entries[1::4].real
    entries[2] = -0.25j
    v = TensorVector(dims, entries)
    _emit_state(v, argparse.Namespace(out=None, format="table"), "heading")
    body = capsys.readouterr().out.splitlines()[2:]
    expected = [
        f"  |{''.join(str(s) for s in np.unravel_index(idx, dims))}> : "
        f"{_fmt_complex(complex(z))}"
        for idx, z in enumerate(entries)
        if abs(z) > 0
    ]
    assert body == expected


def test_state_table_of_zero_state_lists_no_words(capsys):
    v = TensorVector((2, 2), np.zeros(4, dtype=complex))
    _emit_state(v, argparse.Namespace(out=None, format="table"), "heading")
    assert capsys.readouterr().out.splitlines()[1:] == [
        "factors: [2, 2]  norm: 0  nonzero coefficients: 0/4"
    ]


@pytest.mark.parametrize("raw", [",", ""])
def test_empty_n_list_is_usage_error(capsys, raw):
    with pytest.raises(SystemExit) as info:
        main(["verify", "theorem1", "--name", "ghz", "--N", "3", "--n", raw])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [f"mpshmm verify: error: argument --n: empty integer list {raw!r}"]


@pytest.mark.parametrize(
    "argv",
    [
        ["build-mps", "--name", "ghz", "--sites", "20000"],
        ["build-mps", "--name", "ghz", "--sites", "100000000"],
        ["build-ehmm-state", "--name", "ghz", "--n", "100000000"],
        ["entropy", "--name", "ghz", "--N", "100000000"],
        ["verify", "theorem1", "--name", "ghz", "--N", "100000000", "--n", "100000000"],
    ],
    ids=["build-mps-20000", "build-mps", "build-ehmm-state", "entropy", "verify"],
)
def test_huge_size_is_one_line_size_cap_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: state of ") and captured.err.count("\n") == 1
    assert "entries exceeds size cap" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "theorem1", "--N", "2", "--n", "2"],
        ["entropy", "--N", "2"],
        ["build-mps", "--sites", "2"],
        ["build-ehmm-state", "--n", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_invalid_model_file_is_refused_before_any_output(tmp_path, capsys, argv):
    doc = serialize.model_to_dict(catalog.get("ghz").model)
    doc["hidden"][0][0] = [[0.6, 0.0], [0.0, 0.0]]
    path = tmp_path / "bad.json"
    serialize.dump_json(doc, path)
    assert main([*argv, "--model", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: invalid model (1 violation(s)); first: "
        "hidden[1] row 0: squared-modulus row sum = 0.36\n"
    )


def test_gauge_failure_is_a_verification_failure(tmp_path, capsys):
    doc = serialize.tensors_to_dict(catalog.get("aklt").tensors)
    doc["sites"][0][0][0][0] = [2.0, 0.0]
    path = tmp_path / "bad.json"
    serialize.dump_json(doc, path)
    assert main(["extract", "--tensors", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: gauge condition fails at site 1: deviation ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["entropy", "--name", "ghz", "--N", "0"], "site count 0 is below 1 or exceeds the "
         "stored sites (any count >= 1)"),
        (["build-mps", "--name", "theta", "--theta", "0.3,0.9", "--sites", "3"],
         "site count 3 is below 1 or exceeds the stored sites (counts 1..2)"),
    ],
    ids=["entropy-N-0", "build-mps-past-stored-sites"],
)
def test_site_count_outside_the_rule_is_one_line_usage_error(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def _huge_entry_file(tmp_path, kind):
    """GHZ tensors or model with one entry of 1e200, too large to square."""
    if kind == "tensors":
        doc = serialize.tensors_to_dict(catalog.get("ghz").tensors)
        doc["sites"][0][0][0][0] = [1e200, 0.0]
    else:
        doc = serialize.model_to_dict(catalog.get("ghz").model)
        doc["hidden"][0][0][0] = [1e200, 0.0]
    path = tmp_path / f"big.{kind}.json"
    serialize.dump_json(doc, path)
    return str(path)


@pytest.mark.parametrize(
    "argv, kind, code, err_start",
    [
        (["entropy", "--N", "2", "--model"], "model", 2, "error: invalid model"),
        (["extract", "--tensors"], "tensors", 1, "error: gauge condition fails at site 1"),
        (["decompose", "--tensors"], "tensors", 1, None),
    ],
    ids=["entropy", "extract", "decompose"],
)
def test_overflowing_entry_gives_no_warnings(tmp_path, capsys, argv, kind, code, err_start):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, _huge_entry_file(tmp_path, kind)]) == code
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    if err_start is None:  # an infeasible factorization is a verdict on stdout
        assert err == ""
    else:
        assert err.startswith(err_start) and err.count("\n") == 1


def test_decompose_refuses_non_unitary_u_from_overflowing_gram(tmp_path, capsys):
    # U = diag(1e200, 1): U^dag U overflows to inf * 0 = nan, which must not pass as unitary
    assert main(["decompose", "--tensors", _huge_entry_file(tmp_path, "tensors")]) == 1
    out = capsys.readouterr().out
    assert out.startswith("infeasible, site 1") and "not unitary" in out
    assert "reconstruction error" not in out


def _refuse_constant(token):
    raise ValueError(f"bare {token} is not JSON")


# the 1e200 entry overflows the norms; only the document is checked here
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "argv, code, path, value",
    [
        (["decompose", "--format", "json", "--tensors"], 1, ("witness", "sigma2"), "nan"),
        (["build-mps", "--sites", "1", "--format", "json", "--tensors"], 0, ("norm",), "inf"),
    ],
    ids=["decompose-witness", "build-mps-norm"],
)
def test_overflowing_tensors_give_strict_json(tmp_path, capsys, argv, code, path, value):
    assert main([*argv, _huge_entry_file(tmp_path, "tensors")]) == code
    decoder = json.JSONDecoder(parse_constant=_refuse_constant)
    doc, _ = decoder.raw_decode(capsys.readouterr().out)
    for key in path:
        doc = doc[key]
    assert doc == value


@pytest.mark.parametrize(
    "argv, text",
    [
        (["extract", "--tensors"], "[" * 200000 + "]" * 200000),
        (["extract", "--tensors"], '{"kind": "site_tensor_set", "translation_invariant": true,'
         ' "sites": [[[[[1' + "0" * 400 + ', 0]]]]]}'),
        (["entropy", "--N", "1", "--model"], '{"kind": "ehmm_model", "translation_invariant": true,'
         ' "pi": [1' + "0" * 400 + '], "hidden": [[[[1, 0]]]], "emission": [[[[1, 0]]]]}'),
    ],
    ids=["deep-nesting", "huge-matrix-entry", "huge-pi"],
)
def test_malformed_json_file_is_one_line_usage_error(tmp_path, capsys, argv, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main([*argv, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["decompose", "--name", "aklt", "--tol", "nan"],
         "argument --tol: must be finite and non-negative, got 'nan'"),
        (["decompose", "--name", "aklt", "--tol", "-0.001"],
         "argument --tol: must be finite and non-negative, got '-0.001'"),
        (["verify", "theorem1", "--name", "ghz", "--N", "3", "--n", "3", "--tol", "nan"],
         "argument --tol: must be finite and non-negative, got 'nan'"),
        (["verify", "theorem1", "--name", "ghz", "--N", "3", "--n", "3", "--tol", "inf"],
         "argument --tol: must be finite and non-negative, got 'inf'"),
        (["build-mps", "--name", "ghz", "--sites", "3", "--size-cap", "-5"],
         "argument --size-cap: must be a positive integer, got '-5'"),
        (["entropy", "--name", "ghz", "--N", "2", "--size-cap", "0"],
         "argument --size-cap: must be a positive integer, got '0'"),
        (["verify", "theorem1", "--name", "theta", "--theta", "inf", "--N", "2", "--n", "2"],
         "argument --theta: theta values must be finite, got 'inf'"),
        (["extract", "--name", "theta", "--theta", "0.5,nan"],
         "argument --theta: theta values must be finite, got '0.5,nan'"),
        (["catalog", "export", "theta", "--theta", "nan"],
         "argument --theta: theta values must be finite, got 'nan'"),
        (["decompose", "--name", "aklt", "--tol", "abc"], "argument --tol: bad value 'abc'"),
        (["extract", "--name", "theta", "--theta", "0.5,x"], "argument --theta: bad value '0.5,x'"),
    ],
    ids=["decompose-nan", "decompose-negative", "verify-nan", "verify-inf", "size-cap-negative",
         "size-cap-zero", "theta-inf", "theta-nan", "export-theta-nan", "tol-text", "theta-text"],
)
def test_bad_option_value_is_usage_error_naming_the_option(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].endswith(f"error: {message}")


def test_zero_tolerance_is_accepted(capsys):
    assert main(["verify", "theorem1", "--name", "ghz", "--N", "2", "--n", "2", "--tol", "0"]) == 0
    assert capsys.readouterr().out == "n=2: max deviation 0.000e+00  ok\n"


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["catalog", "list"],
        ["entropy", "--name", "ghz", "--N", "3", "--format", "json"],
        ["decompose", "--name", "aklt"],
        ["build-mps", "--name", "cluster", "--sites", "3", "--size-cap", "16"],
        ["build-mps", "--name", "ghz", "--sites", "5", "--size-cap", "16"],
        ["extract", "--name", "w-state"],
    ],
    ids=lambda argv: "-".join(argv[:2]),
)
def test_same_argv_twice_gives_identical_output(capsys, argv):
    first = _run(argv, capsys)
    assert _run(argv, capsys) == first


def test_json_call_leaves_no_state_for_the_next_call(capsys):
    argv = ["build-mps", "--name", "ghz", "--sites", "2"]
    code, out, _ = _run([*argv, "--format", "json"], capsys)
    assert code == 0 and json.JSONDecoder().raw_decode(out)[0]["kind"] == "tensor_vector"
    code, out, _ = _run(argv, capsys)
    assert code == 0
    assert out.splitlines()[:2] == [
        "MPS on 2 sites",
        "factors: [2, 2]  norm: 1.41421356237  nonzero coefficients: 2/4",
    ]


def test_size_cap_environment_variable_is_read_on_every_call(monkeypatch, capsys):
    argv = ["build-mps", "--name", "ghz", "--sites", "3"]
    monkeypatch.setenv("MPSHMM_SIZE_CAP", "4")
    assert _run(argv, capsys)[0] == 2
    monkeypatch.delenv("MPSHMM_SIZE_CAP")
    assert _run(argv, capsys)[0] == 0
    monkeypatch.setenv("MPSHMM_SIZE_CAP", "-1")
    assert _run(argv, capsys)[0] == 2


def test_state_out_file_round_trips_bit_for_bit(tmp_path, capsys):
    path = tmp_path / "state.json"
    assert main(["build-mps", "--name", "cluster", "--sites", "10", "--out", str(path)]) == 0
    capsys.readouterr()
    loaded = serialize.state_from_dict(serialize.load_json(path))
    direct = build_state(catalog.get("cluster").tensors, 10)
    assert loaded.factor_dims == direct.factor_dims
    assert loaded.entries.tobytes() == direct.entries.tobytes()
