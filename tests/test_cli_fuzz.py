"""Hypothesis fuzz over the command-line grammar, calling `cli.main` in process.

Drawn argv mix every subcommand but `selftest` with catalog names, an unknown
name, and option values that are zero, negative, huge, NaN, infinite, -0.0,
empty lists or unwritable paths.  Sizes stay at four sites or fewer, or are
huge enough to be refused at once.
"""

import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mpshmm import catalog, cli, serialize

# a path below a regular file can be neither read nor written
UNWRITABLE = str(Path(__file__) / "out.json")

INTS = st.sampled_from(("-1", "0", "1", "2", "3", "4", "1" + "0" * 30))
REALS = st.sampled_from(("0", "-0.0", "-1", "0.3", "1e-300", "1e308", "nan", "inf", "-inf"))
NAMES = st.sampled_from((*catalog.NAMES, "w-state"))


def _joined(values: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    return st.lists(values, max_size=3).map(",".join)


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> dict[str, str]:
    """A writable output path and valid model and tensor files, in a fresh directory."""
    root = tmp_path_factory.mktemp("cli-fuzz")
    entry = catalog.get("cluster")
    serialize.dump_json(serialize.model_to_dict(entry.model), root / "model.json")
    serialize.dump_json(serialize.tensors_to_dict(entry.tensors), root / "tensors.json")
    paths = {name: str(root / f"{name}.json") for name in ("out", "model", "tensors", "missing")}
    return {**paths, "dir": str(root)}


def _commands(files: dict[str, str]) -> dict[tuple[str, ...], tuple[dict, dict]]:
    """Each subcommand's fixed words, its usual options and the rest it may be given."""
    inputs = st.sampled_from((files["model"], files["tensors"], files["missing"], UNWRITABLE))
    shared = {
        "--theta": _joined(REALS),
        "--format": st.sampled_from(("table", "json")),
        "--out": st.sampled_from((files["out"], UNWRITABLE)),
    }
    return {
        ("catalog", "list"): ({}, {}),
        ("catalog", "export"): ({}, {"--theta": _joined(REALS)}),
        ("build-mps",): (
            {"--name": NAMES, "--sites": INTS},
            {**shared, "--size-cap": INTS, "--tensors": inputs, "--model": inputs},
        ),
        ("build-ehmm-state",): (
            {"--name": NAMES, "--n": INTS},
            {**shared, "--size-cap": INTS, "--model": inputs,
             "--which": st.sampled_from(("hon", "hn", "on"))},
        ),
        ("verify", "theorem1"): (
            {"--name": NAMES, "--N": INTS, "--n": _joined(INTS)},
            {"--theta": _joined(REALS), "--size-cap": INTS, "--tol": REALS, "--model": inputs},
        ),
        ("extract",): ({"--name": NAMES}, {**shared, "--tensors": inputs}),
        ("decompose",): ({"--name": NAMES}, {**shared, "--tol": REALS, "--tensors": inputs}),
        ("entropy",): ({"--name": NAMES, "--N": INTS}, {**shared, "--size-cap": INTS, "--model": inputs}),
    }


@st.composite
def _argv(draw, files: dict[str, str]) -> list[str]:
    commands = _commands(files)
    words = draw(st.sampled_from(sorted(commands)))
    usual, rest = commands[words]
    argv = list(words)
    if words == ("catalog", "export"):
        # always a --dir: the default is the working directory, which a test must not write to
        argv += [draw(NAMES), "--dir", draw(st.sampled_from((files["dir"], UNWRITABLE)))]
    for flag, values in usual.items():
        if draw(st.integers(0, 4)):  # a usual option is left out 1 time in 5
            argv += [flag, draw(values)]
    for flag in draw(st.lists(st.sampled_from(sorted(rest)), unique=True)) if rest else []:
        argv += [flag, draw(rest[flag])]
    return argv


def _run(argv: list[str]) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses a malformed command line this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_grammar_fuzz(files, data):
    argv = data.draw(_argv(files), label="argv")
    code, out, err = _run(argv)
    assert code in (0, 1, 2)
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) <= 1
    if errors:
        assert code != 0
    if "FAIL" in out:
        assert code != 0
    # catalog entries and tensor sets are shared between calls; nothing may leak
    assert _run(argv) == (code, out, err)
