"""The benchmark's four workloads.

Each workload builds its inputs from a seed (`build`, the part `setup_s`
times), then turns them into one *pass*: a fixed list of top-level public
calls into mpshmm, each with the number of work items it completes and a
check of its output against an independent route.  Checks run outside the
timed region; a check returns None when the output is right and a short
message when it is not.

Calls look their target up on the mpshmm module at call time, so that the
span recorder in `tracer.py` sees the benchmark's own calls as well as the
calls between modules.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "mpshmm" / "__init__.py").is_file():
    raise SystemExit(f"error: mpshmm sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import mpshmm  # noqa: E402
from mpshmm import bridge, catalog, entropy, mps  # noqa: E402

if Path(mpshmm.__file__).resolve().parent != SRC / "mpshmm":
    raise SystemExit(f"error: imported mpshmm from {mpshmm.__file__}, not {SRC}")

# Oracle words sampled per build_state call for the scalar `coefficient` check.
ORACLE_WORDS = 8
TOL = 1e-10


@dataclass
class Call:
    """One top-level public call, its work items, and its output check."""

    label: str
    run: Callable[[], Any]
    items: int
    check: Callable[[Any], str | None]


@dataclass(frozen=True)
class Workload:
    name: str
    item: str  # what one counted work item is
    build: Callable[[int], dict]  # seed -> inputs (models, tensors, argv)
    calls: Callable[[dict], list[Call]]  # inputs -> one pass (references untimed)


def _seeds(seed: int, count: int) -> list[int]:
    """Independent 32-bit model seeds derived from the benchmark seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _close(a: complex, b: complex) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


# --- mps-dense ------------------------------------------------------------


def _build_mps_dense(seed: int) -> dict:
    (model_seed, word_seed) = _seeds(seed, 2)
    random_t = bridge.tensors_from_ehmm(
        catalog.random_model(3, 2, 9, model_seed), require_unitary=False
    )
    derived = catalog.get("aklt-derived")
    states = [
        ("aklt", catalog.get("aklt").tensors, 7),
        ("cluster", catalog.get("cluster").tensors, 11),
        ("random(m=3,d=2)", random_t, 9),
    ]
    rng = np.random.Generator(np.random.PCG64(word_seed))
    words = [rng.integers(0, t.d, size=(ORACLE_WORDS, n)) for _, t, n in states]
    return {
        "states": states,
        "oracle_words": words,
        "rhs": (derived.tensors, derived.model.pi, 6),
    }


def _state_check(t, n: int, words: np.ndarray) -> Callable[[Any], str | None]:
    def check(state) -> str | None:
        expected = mps.state_norm(t, n)
        if not _close(state.norm(), expected):
            return f"norm {state.norm()!r} != transfer-operator norm {expected!r}"
        for word in words:
            idx = int(np.ravel_multi_index(tuple(word), state.factor_dims))
            oracle = mps.coefficient(t, tuple(int(k) for k in word))
            if not _close(complex(state.entries[idx]), oracle):
                return f"word {tuple(word)}: {state.entries[idx]!r} != oracle {oracle!r}"
        return None

    return check


def _rhs_check(value: float) -> str | None:
    if not math.isfinite(value) or value < -TOL:
        return f"trace-normalized RHS {value!r} is not finite and >= 0"
    return None


def _finite_check(value: float) -> str | None:
    return None if math.isfinite(value) else f"RHS {value!r} is not finite"


def _calls_mps_dense(inputs: dict) -> list[Call]:
    calls = [
        Call(
            f"build_state {name} N={n}",
            lambda t=t, n=n: mps.build_state(t, n),
            t.d**n,
            _state_check(t, n, words),
        )
        for (name, t, n), words in zip(inputs["states"], inputs["oracle_words"])
    ]
    # Both forms check_bound evaluates; five call kinds keep the median
    # latency inside one kind rather than on the edge between two.
    t, pi, n = inputs["rhs"]
    calls += [
        Call(
            f"bound_rhs aklt-derived N={n} normalized={norm}",
            lambda norm=norm: entropy.bound_rhs(t, pi, n, trace_normalized=norm),
            t.d**n,
            _rhs_check if norm else _finite_check,
        )
        for norm in (True, False)
    ]
    return calls


# --- entropy-bound --------------------------------------------------------


def _build_entropy_bound(seed: int) -> dict:
    s = _seeds(seed, 4)
    return {
        "models": [
            ("ghz", catalog.get("ghz").model, 5),
            ("cluster", catalog.get("cluster").model, 5),
            ("theta(pi/3)", catalog.get("theta", theta=math.pi / 3).model, 5),
            ("random(m=2,d=2)#1", catalog.random_model(2, 2, 5, s[0]), 5),
            ("random(m=2,d=2)#2", catalog.random_model(2, 2, 5, s[1]), 5),
            ("random(m=2,d=2)#3", catalog.random_model(2, 2, 5, s[2]), 5),
            ("aklt-derived", catalog.get("aklt-derived").model, 3),
            ("random(m=3,d=2)", catalog.random_model(3, 2, 3, s[3]), 3),
        ]
    }


def _bound_check(name: str) -> Callable[[Any], str | None]:
    def check(rep) -> str | None:
        if not (rep.holds and rep.holds_normalized):
            return f"bound fails (holds={rep.holds}, normalized={rep.holds_normalized})"
        a, b = rep.rhs_value_normalized, rep.s_diag_normalized
        both_inf = math.isinf(a) and math.isinf(b) and a == b
        if not both_inf and not abs(a - b) <= TOL:
            return f"normalized RHS {a!r} != dephased S {b!r}"
        if name == "ghz" and not abs(rep.s_value - math.log(2.0)) <= 1e-8:
            return f"GHZ S = {rep.s_value!r} != ln 2"
        return None

    return check


def _calls_entropy_bound(inputs: dict) -> list[Call]:
    return [
        Call(
            f"check_bound {name} N={n}",
            lambda model=model, n=n: entropy.check_bound(model, n),
            1,
            _bound_check(name),
        )
        for name, model, n in inputs["models"]
    ]


# --- partial-measurement --------------------------------------------------


def _build_partial_measurement(seed: int) -> dict:
    s = _seeds(seed, 3)
    return {
        "cases": [
            ("random(m=2,d=2)#1", catalog.random_model(2, 2, 9, s[0]), 6, (6, 8, 9)),
            ("random(m=2,d=2)#2", catalog.random_model(2, 2, 9, s[1]), 6, (6, 8, 9)),
            # n=7 rather than 4 puts the median latency mid-way through a block of
            # similar calls instead of on the edge between millisecond and 14 ms calls
            ("random(m=3,d=2)", catalog.random_model(3, 2, 7, s[2]), 4, (5, 6, 7)),
        ]
    }


def _round_trip_check(direct) -> Callable[[Any], str | None]:
    def check(measured) -> str | None:
        if measured.factor_dims != direct.factor_dims:
            return f"factors {measured.factor_dims} != {direct.factor_dims}"
        dev = float(np.max(np.abs(measured.entries - direct.entries)))
        return None if dev <= TOL else f"deviation {dev:.3e} from build_state"

    return check


def _calls_partial_measurement(inputs: dict) -> list[Call]:
    calls = []
    for name, model, n_keep, ns in inputs["cases"]:
        t = bridge.tensors_from_ehmm(model, require_unitary=False)
        direct = mps.build_state(t, n_keep)
        for n in ns:
            calls.append(
                Call(
                    f"observed_mps {name} N={n_keep} n={n}",
                    lambda model=model, k=n_keep, n=n: bridge.observed_mps(model, k, n),
                    1,
                    _round_trip_check(direct),
                )
            )
    return calls


# --- cli-small ------------------------------------------------------------

AKLT_TRANSITIONS = np.array([[1, 2], [2, 1]]) / 3.0
AKLT_EMISSIONS = np.array([[2, 1, 0], [0, 1, 2]]) / 3.0


def _json_doc(out: str, kind: str) -> dict:
    doc, _ = json.JSONDecoder().raw_decode(out.lstrip())
    if doc.get("kind") != kind:
        raise ValueError(f"kind {doc.get('kind')!r} != {kind!r}")
    return doc


def _matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _entropy_ok(out: str) -> bool:
    doc = _json_doc(out, "bound_report")
    return doc["holds"] and abs(doc["s_value"] - math.log(2.0)) <= 1e-8


def _verify_ok(out: str) -> bool:
    lines = out.splitlines()
    return len(lines) == 3 and all(line.endswith(" ok") for line in lines)


def _build_mps_ok(out: str) -> bool:
    doc = _json_doc(out, "tensor_vector")
    return doc["factor_dims"] == [3] * 4 and len(doc["entries"]) == 81


def _extract_ok(out: str) -> bool:
    doc = _json_doc(out, "extracted_hmm")
    dev_p = np.max(np.abs(_matrix(doc["transitions"][0]) - AKLT_TRANSITIONS))
    dev_q = np.max(np.abs(_matrix(doc["emissions"][0]) - AKLT_EMISSIONS))
    return max(dev_p, dev_q) <= 1e-15


def _decompose_ok(feasible: bool) -> Callable[[str], bool]:
    return lambda out: _json_doc(out, "decomposition_result")["feasible"] is feasible


def _ehmm_on_ok(out: str) -> bool:
    return _json_doc(out, "tensor_vector")["factor_dims"] == [2] * 4


def _catalog_ok(out: str) -> bool:
    names = [line.split()[0] for line in out.splitlines()]
    return names == list(catalog.NAMES)


def _selftest_ok(out: str) -> bool:
    lines = out.splitlines()
    return len(lines) == 9 and all(line.startswith("PASS criterion") for line in lines)


# argv, documented exit code, output check
CLI_COMMANDS: tuple[tuple[tuple[str, ...], int, Callable[[str], bool]], ...] = (
    (("entropy", "--name", "ghz", "--N", "3", "--format", "json"), 0, _entropy_ok),
    (("verify", "theorem1", "--name", "cluster", "--N", "3", "--n", "3,4,5"), 0, _verify_ok),
    (("build-mps", "--name", "aklt", "--sites", "4", "--format", "json"), 0, _build_mps_ok),
    (("extract", "--name", "aklt", "--format", "json"), 0, _extract_ok),
    (("decompose", "--name", "cluster", "--format", "json"), 0, _decompose_ok(True)),
    (("decompose", "--name", "aklt", "--format", "json"), 1, _decompose_ok(False)),
    (("build-ehmm-state", "--name", "cluster", "--n", "4", "--which", "on", "--format", "json"), 0, _ehmm_on_ok),
    (("catalog", "list"), 0, _catalog_ok),
)
CLI_REPEATS = 10


def _build_cli_small(seed: int) -> dict:
    importlib.import_module("mpshmm.cli")
    order = [i for i in range(len(CLI_COMMANDS)) for _ in range(CLI_REPEATS)]
    np.random.Generator(np.random.PCG64(seed)).shuffle(order)
    return {"order": order}


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mpshmm.cli.main(argv)
    return code, out.getvalue()


def _cli_check(expected_code: int, ok: Callable[[str], bool]) -> Callable[[Any], str | None]:
    def check(result) -> str | None:
        code, out = result
        if code != expected_code:
            return f"exit code {code} != {expected_code}"
        try:
            if ok(out):
                return None
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unparsable output: {exc}"
        return "output check failed"

    return check


def _calls_cli_small(inputs: dict) -> list[Call]:
    calls = []
    for i in inputs["order"]:
        argv, code, ok = CLI_COMMANDS[i]
        calls.append(
            Call(
                " ".join(argv), lambda argv=list(argv): _run_cli(argv), 1, _cli_check(code, ok)
            )
        )
    calls.append(Call("selftest", lambda: _run_cli(["selftest"]), 1, _cli_check(0, _selftest_ok)))
    return calls


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mps-dense", "word coefficients", _build_mps_dense, _calls_mps_dense),
        Workload("entropy-bound", "bound checks", _build_entropy_bound, _calls_entropy_bound),
        Workload(
            "partial-measurement", "round trips", _build_partial_measurement, _calls_partial_measurement
        ),
        Workload("cli-small", "CLI commands", _build_cli_small, _calls_cli_small),
    )
}
