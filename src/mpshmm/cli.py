"""Command-line front end.

Subcommands: ``catalog list|export``, ``build-mps``, ``build-ehmm-state``,
``verify theorem1``, ``extract``, ``decompose``, ``entropy``, ``selftest``.
Exit codes: 0 success / bound holds, 1 verification failure (a failed bound,
round trip or factorization, or a `VerificationError` such as a failed gauge
condition), 2 usage or I/O error.  Human tables round to 12 significant
digits; ``--format json`` emits full-precision structured output.  The
default dense-state size cap comes from the MPSHMM_SIZE_CAP environment
variable when set; it is read on every `main` call.  The argument grammar is
built once per process for each default cap, so repeated in-process calls
pay only for their own work.  Option values are checked as they are parsed:
a negative or non-finite ``--tol``, a non-positive ``--size-cap`` or a
non-finite ``--theta`` is a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from . import catalog, selftest, serialize
from .bridge import (
    DECOMPOSE_TOL,
    decompose_tensors,
    extract_classical_hmm,
    observed_mps,
    tensors_from_ehmm,
)
from .ehmm import (
    DEFAULT_SIZE_CAP,
    EhmmModel,
    build_psi_hn,
    build_psi_hon,
    build_psi_on,
)
from .entropy import check_bound
from .linalg import TensorVector
from .mps import SiteTensorSet, VerificationError, build_state, state_norm

__all__ = ["main"]


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    return f"{x:.12g}"


def _fmt_complex(z: complex) -> str:
    if z.imag == 0.0:
        return _fmt(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt(z.real)}{sign}{_fmt(abs(z.imag))}j"


def _print_matrix(label: str, mat: np.ndarray) -> None:
    print(label)
    for row in np.asarray(mat):
        print("  [" + ", ".join(_fmt_complex(complex(z)) for z in row) + "]")


def _size_cap_default() -> int:
    env = os.environ.get("MPSHMM_SIZE_CAP")
    if not env:
        return DEFAULT_SIZE_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"MPSHMM_SIZE_CAP must be a positive integer, got {env!r}")
    return cap


def _resolve_model(args: argparse.Namespace) -> EhmmModel:
    if getattr(args, "model", None):
        return serialize.load_model(args.model)
    if getattr(args, "name", None):
        entry = catalog.get(args.name, theta=getattr(args, "theta", None))
        if entry.model is None:
            raise ValueError(f"catalog entry {args.name!r} carries no model")
        return entry.model
    raise ValueError("provide --model FILE or --name NAME")


def _resolve_tensors(args: argparse.Namespace) -> SiteTensorSet:
    if getattr(args, "tensors", None):
        return serialize.load_tensors(args.tensors)
    if getattr(args, "name", None):
        entry = catalog.get(args.name, theta=getattr(args, "theta", None))
        if entry.tensors is None:
            raise ValueError(f"catalog entry {args.name!r} carries no tensors")
        return entry.tensors
    raise ValueError("provide --tensors FILE or --name NAME")


def _emit_doc(doc: dict, args: argparse.Namespace) -> bool:
    """Write ``doc`` to ``--out`` if given and print it under ``--format json``.

    Returns True when the document was printed, so no table should follow.
    """
    if args.out:
        serialize.dump_json(doc, args.out)
        print(f"wrote {args.out}")
    if args.format == "json":
        print(serialize.dump_json(doc))
        return True
    return False


def _emit_state(v: TensorVector, args: argparse.Namespace, heading: str) -> None:
    if _emit_doc(serialize.state_to_dict(v), args):
        return
    print(heading)
    nonzero = int(np.count_nonzero(v.entries))
    print(
        f"factors: {list(v.factor_dims)}  norm: {_fmt(v.norm())}  "
        f"nonzero coefficients: {nonzero}/{v.dim}"
    )
    idx = np.flatnonzero(np.abs(v.entries) > 0)
    if idx.size:
        lines = zip(_word_labels(idx, v.factor_dims), v.entries[idx].tolist())
        print("\n".join(f"  |{word}> : {_fmt_complex(z)}" for word, z in lines))


def _word_labels(idx: np.ndarray, dims: tuple[int, ...]) -> list[str]:
    """Symbol digits of each flat index written side by side, e.g. '0110'.

    Every label is a first-half word's label followed by a second-half
    word's, so only the two halves' labels are built digit by digit.
    """
    half = len(dims) // 2
    left, right = (
        ["".join(word) for word in itertools.product(*(map(str, range(d)) for d in part))]
        for part in (dims[:half], dims[half:])
    )
    hi, lo = np.divmod(idx, len(right))
    return [left[i] + right[j] for i, j in zip(hi.tolist(), lo.tolist())]


def _cmd_catalog(args: argparse.Namespace) -> int:
    if args.action == "list":
        for name, (_, summary, required) in catalog._TABLE.items():
            # any theta builds the family, and every value carries the same parts
            entry = catalog.get(name, theta=0.0)
            carried = {"tensors": entry.tensors, "model": entry.model}
            parts = "+".join(k for k, v in carried.items() if v is not None)
            req = f" (requires {required})" if required else ""
            print(f"{name:<13} {parts:<14}{summary}{req}")
        return 0
    entry = catalog.get(args.entry, theta=args.theta)
    out_dir = Path(args.dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if entry.tensors is not None:
        path = out_dir / f"{entry.name}.tensors.json"
        serialize.dump_json(serialize.tensors_to_dict(entry.tensors), path)
        print(f"wrote {path}")
    if entry.model is not None:
        path = out_dir / f"{entry.name}.model.json"
        serialize.dump_json(serialize.model_to_dict(entry.model), path)
        print(f"wrote {path}")
    if entry.notes:
        print(f"notes: {entry.notes}")
    return 0


def _cmd_build_mps(args: argparse.Namespace) -> int:
    if args.tensors or (args.name and not args.model):
        t = _resolve_tensors(args)
    else:
        t = tensors_from_ehmm(_resolve_model(args), require_unitary=False)
    state = build_state(t, args.sites, args.size_cap)
    _emit_state(state, args, f"MPS on {args.sites} sites")
    print(f"transfer-route norm: {_fmt(state_norm(t, args.sites))}")
    return 0


def _cmd_build_ehmm_state(args: argparse.Namespace) -> int:
    model = _resolve_model(args)
    builder = {"hon": build_psi_hon, "hn": build_psi_hn, "on": build_psi_on}[args.which]
    state = builder(model, args.n, args.size_cap)
    _emit_state(state, args, f"state '{args.which}' on n={args.n} sites")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    model = _resolve_model(args)
    if not model.hidden_unitary:
        print("note: hidden matrices are not unitary; gauge condition not implied")
    t = tensors_from_ehmm(model, require_unitary=False)
    direct = build_state(t, args.N, args.size_cap)
    failed = False
    for n in args.n:
        measured = observed_mps(model, args.N, n, args.size_cap)
        dev = float(np.max(np.abs(measured.entries - direct.entries)))
        status = "ok" if dev <= args.tol else "FAIL"
        print(f"n={n}: max deviation {dev:.3e}  {status}")
        failed = failed or dev > args.tol
    return 1 if failed else 0


def _cmd_extract(args: argparse.Namespace) -> int:
    t = _resolve_tensors(args)
    extracted = extract_classical_hmm(t)
    if _emit_doc(serialize.extracted_to_dict(extracted), args):
        return 0
    for idx, (p, q) in enumerate(zip(extracted.transitions, extracted.emissions), start=1):
        site = "every site" if extracted.translation_invariant else f"site {idx}"
        _print_matrix(f"transition matrix ({site}):", p)
        _print_matrix(f"emission matrix ({site}):", q)
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    t = _resolve_tensors(args)
    result = decompose_tensors(t, args.tol)
    if _emit_doc(serialize.decomposition_to_dict(result), args):
        return 0 if result.feasible else 1
    if not result.feasible:
        w = result.witness
        print(
            f"infeasible, site {w.site}, hidden index {w.hidden_index}: "
            f"{w.reason} (sigma2 = {_fmt(w.sigma2)})"
        )
        return 1
    for idx, (u, chi) in enumerate(zip(result.hidden, result.emission), start=1):
        site = "every site" if result.translation_invariant else f"site {idx}"
        _print_matrix(f"hidden amplitudes U ({site}):", u)
        _print_matrix(f"emission amplitudes chi ({site}):", chi)
    print(f"reconstruction error: {result.reconstruction_error:.3e}")
    return 0


def _cmd_entropy(args: argparse.Namespace) -> int:
    model = _resolve_model(args)
    report = check_bound(model, args.N, size_cap=args.size_cap)
    if not _emit_doc(serialize.bound_report_to_dict(report), args):
        rows = [
            ("S(rho_N || rho_O,N)", _fmt(report.s_value)),
            ("lower bound (RHS)", _fmt(report.rhs_value)),
            ("S of dephased pair", _fmt(report.s_diag)),
            ("holds", str(report.holds)),
            ("trace rho_N", _fmt(report.trace_rho)),
            ("trace rho_O,N", _fmt(report.trace_sigma)),
            ("S (unit-trace rho)", _fmt(report.s_value_normalized)),
            ("RHS (unit-trace rho)", _fmt(report.rhs_value_normalized)),
            ("holds (unit-trace)", str(report.holds_normalized)),
            ("support violation", str(report.support_violation)),
            ("hidden unitary", str(report.hidden_unitary)),
        ]
        width = max(len(k) for k, _ in rows)
        for key, val in rows:
            print(f"{key:<{width}}  {val}")
    return 0 if report.holds and report.holds_normalized else 1


def _cmd_selftest(args: argparse.Namespace) -> int:
    results = selftest.run_all(fixture_path=args.fixture)
    return 0 if all(r.passed for r in results) else 1


def _int_list(raw: str) -> list[int]:
    try:
        values = [int(x) for x in raw.split(",") if x]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {raw!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError(f"empty integer list {raw!r}")
    return values


def _checked(convert: Callable[[str], Any], ok: Callable[[Any], bool], rule: str):
    """An argparse ``type=``: convert the text, then refuse a value that breaks ``rule``."""

    def parse(raw: str) -> Any:
        try:
            value = convert(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad value {raw!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {raw!r}")
        return value

    return parse


# every `> tol` test is false for nan; cos and sin of inf or nan are undefined
_tolerance = _checked(
    float, lambda tol: math.isfinite(tol) and tol >= 0.0, "must be finite and non-negative"
)
_positive_int = _checked(int, lambda value: value >= 1, "must be a positive integer")
_theta_list = _checked(
    lambda raw: [float(x) for x in raw.split(",") if x],
    lambda values: all(map(math.isfinite, values)),
    "theta values must be finite",
)


@functools.cache
def _build_parser(size_cap: int) -> argparse.ArgumentParser:
    """The full grammar with ``size_cap`` as the ``--size-cap`` default.

    Cached per cap: a parser holds no per-call state, because every
    `parse_args` call fills a fresh namespace.
    """
    parser = argparse.ArgumentParser(
        prog="mpshmm",
        description=(
            "Periodic matrix product states as partial observations of "
            "entangled hidden Markov models."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.add_argument("--out", help="write structured JSON to this path")

    def add_name(p: argparse.ArgumentParser) -> None:
        p.add_argument("--name", help="catalog entry name")
        p.add_argument(
            "--theta", type=_theta_list, help="comma-separated theta values for the theta family"
        )

    p_cat = sub.add_parser("catalog", help="list or export named constructions")
    cat_sub = p_cat.add_subparsers(dest="action", required=True)
    cat_sub.add_parser("list", help="show available entries")
    p_exp = cat_sub.add_parser("export", help="write tensor/model files for an entry")
    p_exp.add_argument("entry")
    p_exp.add_argument("--theta", type=_theta_list)
    p_exp.add_argument("--dir", default=".")
    p_cat.set_defaults(func=_cmd_catalog)

    p_bm = sub.add_parser("build-mps", help="dense periodic MPS from tensors or a model")
    p_bm.add_argument("--tensors", help="tensor-set JSON file")
    p_bm.add_argument("--model", help="model JSON file (tensors derived from it)")
    add_name(p_bm)
    p_bm.add_argument("--sites", type=int, required=True)
    p_bm.add_argument("--size-cap", type=_positive_int, default=size_cap)
    add_common(p_bm)
    p_bm.set_defaults(func=_cmd_build_mps)

    p_be = sub.add_parser("build-ehmm-state", help="joint/hidden/observation state vectors")
    p_be.add_argument("--model", help="model JSON file")
    add_name(p_be)
    p_be.add_argument("--n", type=int, required=True)
    p_be.add_argument("--which", choices=("hon", "hn", "on"), default="hon")
    p_be.add_argument("--size-cap", type=_positive_int, default=size_cap)
    add_common(p_be)
    p_be.set_defaults(func=_cmd_build_ehmm_state)

    p_ver = sub.add_parser("verify", help="verify the partial-measurement identity")
    p_ver.add_argument("what", choices=("theorem1",))
    p_ver.add_argument("--model")
    add_name(p_ver)
    p_ver.add_argument("--N", type=int, required=True, help="number of kept sites")
    p_ver.add_argument("--n", type=_int_list, required=True, help="joint-state lengths, e.g. 3,4,5")
    p_ver.add_argument("--tol", type=_tolerance, default=1e-10)
    p_ver.add_argument("--size-cap", type=_positive_int, default=size_cap)
    p_ver.set_defaults(func=_cmd_verify)

    p_ex = sub.add_parser("extract", help="classical transition/emission matrices")
    p_ex.add_argument("--tensors")
    add_name(p_ex)
    add_common(p_ex)
    p_ex.set_defaults(func=_cmd_extract)

    p_dec = sub.add_parser("decompose", help="rank-one factorization a = U * chi")
    p_dec.add_argument("--tensors")
    add_name(p_dec)
    p_dec.add_argument("--tol", type=_tolerance, default=DECOMPOSE_TOL)
    add_common(p_dec)
    p_dec.set_defaults(func=_cmd_decompose)

    p_ent = sub.add_parser("entropy", help="relative-entropy lower-bound report")
    p_ent.add_argument("--model")
    add_name(p_ent)
    p_ent.add_argument("--N", type=int, required=True)
    p_ent.add_argument("--size-cap", type=_positive_int, default=size_cap)
    add_common(p_ent)
    p_ent.set_defaults(func=_cmd_entropy)

    p_st = sub.add_parser("selftest", help="run the full verification suite")
    p_st.add_argument("--fixture", help="overlap fixture path (written on first run)")
    p_st.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser(_size_cap_default()).parse_args(argv)
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its argument, quotes included
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1 if isinstance(exc, VerificationError) else 2


if __name__ == "__main__":
    sys.exit(main())
