"""JSON interchange for models, tensor sets, and result records.

Complex entries are two-element [re, im] arrays; matrices are row-major
nested lists; every document carries ``schema_version``.  Floats are written
with full precision so export/import round-trips bit for bit.  Infinities
(legal for divergences) are encoded as the string "inf".

`dump_json` writes one top-level field per line, and each field's value on
that one line, so CPython's C encoder (which ``json.dumps`` takes only
without ``indent``) encodes every value.  The text parses to the same
document as ``json.dumps(doc, indent=2)``; only the whitespace differs.
"""

from __future__ import annotations

import json
import math
import reprlib
import sys
from pathlib import Path
from typing import Any

import numpy as np

from .bridge import DecompositionResult, DecompositionWitness, ExtractedHmm
from .ehmm import EhmmModel
from .entropy import BoundReport
from .linalg import TensorVector
from .mps import SiteTensorSet

SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "model_to_dict",
    "model_from_dict",
    "tensors_to_dict",
    "tensors_from_dict",
    "state_to_dict",
    "state_from_dict",
    "extracted_to_dict",
    "decomposition_to_dict",
    "bound_report_to_dict",
    "dump_json",
    "load_json",
    "load_model",
    "load_tensors",
]


def _pairs(a: np.ndarray) -> list:
    """``a`` as nested lists with every complex entry an [re, im] pair."""
    a = np.asarray(a, dtype=np.complex128)
    return np.stack((a.real, a.imag), -1).tolist()


def _is_real(x: Any) -> bool:
    """A JSON number that converts to a float; a 400-digit integer does not."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    return isinstance(x, float) or abs(x) <= sys.float_info.max


def _complex_in(p: Any, where: str) -> complex:
    if not (isinstance(p, list) and len(p) == 2 and all(_is_real(x) for x in p)):
        raise ValueError(f"{where}: expected an [re, im] pair of numbers, found {reprlib.repr(p)}")
    return complex(p[0], p[1])


def _matrix_in(rows: Any, where: str) -> np.ndarray:
    if not (
        isinstance(rows, list)
        and rows
        and all(isinstance(row, list) for row in rows)
        and len({len(row) for row in rows}) == 1
    ):
        raise ValueError(f"{where}: expected a matrix as a non-empty list of equal-length rows")
    return np.array(
        [[_complex_in(p, where) for p in row] for row in rows], dtype=np.complex128
    )


def _field(doc: dict, key: str, kind: type) -> Any:
    """doc[key], required to be present and of the given JSON type."""
    if key not in doc:
        raise ValueError(f"missing field {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise ValueError(f"field {key!r} has type {type(value).__name__}")
    return value


def _real(x: float) -> float | str:
    return "inf" if math.isinf(x) else float(x)


def model_to_dict(model: EhmmModel) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "ehmm_model",
        "m": model.m,
        "d": model.d,
        "translation_invariant": model.translation_invariant,
        "pi": [float(p) for p in model.pi],
        "hidden": [_pairs(u) for u in model.hidden],
        "emission": [_pairs(c) for c in model.emission],
    }


def model_from_dict(doc: dict) -> EhmmModel:
    _expect_kind(doc, "ehmm_model")
    pi = _field(doc, "pi", list)
    if not all(_is_real(p) for p in pi):
        raise ValueError("field 'pi' must be a list of numbers")
    hidden = _field(doc, "hidden", list)
    emission = _field(doc, "emission", list)
    return EhmmModel(
        pi=np.array(pi, dtype=np.float64),
        hidden=tuple(_matrix_in(u, f"hidden[{l}]") for l, u in enumerate(hidden, 1)),
        emission=tuple(_matrix_in(c, f"emission[{l}]") for l, c in enumerate(emission, 1)),
        translation_invariant=_field(doc, "translation_invariant", bool),
    )


def tensors_to_dict(t: SiteTensorSet) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "site_tensor_set",
        "m": t.m,
        "d": t.d,
        "translation_invariant": t.translation_invariant,
        "sites": [[_pairs(a) for a in fam] for fam in t.sites],
    }


def tensors_from_dict(doc: dict) -> SiteTensorSet:
    _expect_kind(doc, "site_tensor_set")
    sites = _field(doc, "sites", list)
    families = []
    for l, fam in enumerate(sites, 1):
        if not isinstance(fam, list):
            raise ValueError(f"sites[{l}]: expected a list of matrices")
        families.append(tuple(_matrix_in(a, f"sites[{l}][{k}]") for k, a in enumerate(fam)))
    return SiteTensorSet(
        tuple(families),
        translation_invariant=_field(doc, "translation_invariant", bool),
    )


def state_to_dict(v: TensorVector) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "tensor_vector",
        "factor_dims": list(v.factor_dims),
        "norm": v.norm(),
        "entries": _pairs(v.entries),
    }


def state_from_dict(doc: dict) -> TensorVector:
    _expect_kind(doc, "tensor_vector")
    dims = _field(doc, "factor_dims", list)
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in dims):
        raise ValueError("field 'factor_dims' must be a list of integers")
    entries = _field(doc, "entries", list)
    values = np.array(
        [_complex_in(p, f"entries[{i}]") for i, p in enumerate(entries)],
        dtype=np.complex128,
    )
    return TensorVector(tuple(dims), values)


def extracted_to_dict(e: ExtractedHmm) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "extracted_hmm",
        "translation_invariant": e.translation_invariant,
        "transitions": [_pairs(p) for p in e.transitions],
        "emissions": [_pairs(q) for q in e.emissions],
    }


def _witness_to_dict(w: DecompositionWitness) -> dict:
    return {
        "site": w.site,
        "hidden_index": w.hidden_index,
        "sigma2": w.sigma2,
        "reason": w.reason,
    }


def decomposition_to_dict(r: DecompositionResult) -> dict:
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "kind": "decomposition_result",
        "feasible": r.feasible,
    }
    if r.feasible:
        doc["translation_invariant"] = r.translation_invariant
        doc["hidden"] = [_pairs(u) for u in r.hidden or ()]
        doc["emission"] = [_pairs(c) for c in r.emission or ()]
        doc["reconstruction_error"] = r.reconstruction_error
    else:
        doc["witness"] = _witness_to_dict(r.witness) if r.witness else None
    return doc


def bound_report_to_dict(rep: BoundReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "bound_report",
        "s_value": _real(rep.s_value),
        "rhs_value": _real(rep.rhs_value),
        "s_diag": _real(rep.s_diag),
        "holds": rep.holds,
        "trace_rho": rep.trace_rho,
        "trace_sigma": rep.trace_sigma,
        "s_value_normalized": _real(rep.s_value_normalized),
        "rhs_value_normalized": _real(rep.rhs_value_normalized),
        "s_diag_normalized": _real(rep.s_diag_normalized),
        "holds_normalized": rep.holds_normalized,
        "support_violation": rep.support_violation,
        "hidden_unitary": rep.hidden_unitary,
    }


def dump_json(doc: dict, path: str | Path | None = None) -> str:
    """``doc`` as JSON text, one top-level field per line; also written to ``path``."""
    fields = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in doc.items())
    text = f"{{\n{fields}\n}}" if doc else "{}"
    if path is not None:
        Path(path).write_text(text + "\n")
    return text


def load_json(path: str | Path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def load_model(path: str | Path) -> EhmmModel:
    return model_from_dict(load_json(path))


def load_tensors(path: str | Path) -> SiteTensorSet:
    return tensors_from_dict(load_json(path))


def _expect_kind(doc: dict, kind: str) -> None:
    if not isinstance(doc, dict):
        raise ValueError(
            f"expected a {kind} document (a JSON object), found {type(doc).__name__}"
        )
    found = doc.get("kind")
    if found != kind:
        raise ValueError(f"expected a {kind} document, found kind={reprlib.repr(found)}")
