"""Span recorder that wraps mpshmm's public functions from outside the package.

`Recorder.install` replaces every public function of every ``mpshmm``
module in each module namespace that binds it, so calls between modules are
caught as well as the benchmark's own calls.  It also wraps
``TensorVector.permute_factors``, ``DensityMatrix.__post_init__`` and
``numpy.linalg.eigh``, ``numpy.linalg.eigvalsh`` and ``numpy.einsum``.
`Recorder.uninstall` puts every original back.

A span is (name, start, end, parent span, top-level call id).  Spans stay in
memory and are written once, at the end of the run.  Self time is a span's
duration minus the durations of its direct child spans; the program is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

MODULES = (
    "linalg",
    "ehmm",
    "mps",
    "bridge",
    "entropy",
    "catalog",
    "serialize",
    "cli",
    "selftest",
)
ORIGINAL = "__perfbench_original__"

# Words a call evaluates, from its own arguments (bound as the function binds them).
WORK = {
    "mps.build_state": lambda t, n_sites, *args, **kwargs: t.d**n_sites,
    "entropy.bound_rhs": lambda t, pi, n_sites, *args, **kwargs: t.d**n_sites,
}


class Stat:
    """Totals for one span name."""

    __slots__ = ("calls", "self_s", "errors", "work", "out_bytes", "in_bytes", "in_dim")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0
        self.work = 0
        self.out_bytes = 0
        self.in_bytes = 0
        self.in_dim = 0


def _nbytes(obj: Any) -> int:
    """Bytes of the dense array an argument or result carries, else 0."""
    for arr in (obj, getattr(obj, "entries", None), getattr(obj, "matrix", None)):
        if isinstance(arr, np.ndarray):
            return arr.nbytes
    return 0


def _namespaces() -> list:
    mpshmm = importlib.import_module("mpshmm")
    return [mpshmm] + [importlib.import_module(f"mpshmm.{m}") for m in MODULES]


def _extra_targets() -> list[tuple[Any, str, str]]:
    """(owner, attribute, span name) wrapped besides module-level functions."""
    from mpshmm.entropy import DensityMatrix
    from mpshmm.linalg import TensorVector

    return [
        (TensorVector, "permute_factors", "linalg.TensorVector.permute_factors"),
        (DensityMatrix, "__post_init__", "entropy.DensityMatrix.init"),
        (np.linalg, "eigh", "numpy.eigh"),
        (np.linalg, "eigvalsh", "numpy.eigvalsh"),
        (np, "einsum", "numpy.einsum"),
    ]


def _public_functions(ns) -> list[tuple[str, Callable]]:
    return [
        (attr, value)
        for attr, value in vars(ns).items()
        if not attr.startswith("_")
        and inspect.isfunction(value)
        and (value.__module__ or "").startswith("mpshmm.")
    ]


class Recorder:
    """Collects spans and per-name totals while `enabled` is true.

    With `measure_sizes` set, each span also records the bytes of its result
    and of its first argument and the last dimension of that argument.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.measure_sizes = False
        self.top_id = -1
        self.stats: dict[str, Stat] = {}
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.tops: list[int] = []
        self._stack: list[list] = []  # [span index, child seconds]
        self._patches: list[tuple[Any, str, Any]] = []

    def reset(self) -> None:
        """Drop spans and totals; installed wrappers stay."""
        self.stats = {name: Stat() for name in self.stats}
        self.names, self.starts, self.ends, self.parents, self.tops = [], [], [], [], []

    def _wrap(self, name: str, fn: Callable, is_error: Callable[[Any], bool] | None = None):
        rec = self
        work = WORK.get(name)
        self.stats.setdefault(name, Stat())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            stat = rec.stats[name]
            if work is not None:
                stat.work += work(*args, **kwargs)
            stack = rec._stack
            idx = len(rec.names)
            rec.names.append(name)
            rec.parents.append(stack[-1][0] if stack else -1)
            rec.tops.append(rec.top_id)
            rec.ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            rec.starts.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                rec.ends[idx] = end
                stat.calls += 1
                stat.self_s += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if is_error is not None and is_error(result):
                stat.errors += 1
            if rec.measure_sizes:
                stat.out_bytes = max(stat.out_bytes, _nbytes(result))
                if args:
                    stat.in_bytes = max(stat.in_bytes, _nbytes(args[0]))
                    if isinstance(args[0], np.ndarray) and args[0].ndim:
                        stat.in_dim = max(stat.in_dim, args[0].shape[-1])
            return result

        setattr(wrapper, ORIGINAL, fn)
        return wrapper

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("recorder is already installed")
        wrappers: dict[Callable, Callable] = {}
        for ns in _namespaces():
            for attr, fn in _public_functions(ns):
                if fn not in wrappers:
                    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                    # cli.main reports errors as exit code 2 rather than raising
                    is_error = (lambda code: code == 2) if name == "cli.main" else None
                    wrappers[fn] = self._wrap(name, fn, is_error)
                self._patch(ns, attr, wrappers[fn])
        for owner, attr, name in _extra_targets():
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_spans(self, path: Path, meta: dict) -> None:
        """Write every span as columns; span names are indices into `names`."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        doc = {
            **meta,
            "names": table,
            "span_name": [index[n] for n in self.names],
            "start_s": self.starts,
            "end_s": self.ends,
            "parent": self.parents,
            "top_call": self.tops,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


def leftover_wrappers() -> list[str]:
    """Names still bound to a recorder wrapper; empty once uninstalled."""
    found = [
        f"{ns.__name__}.{attr}"
        for ns in _namespaces()
        for attr, value in vars(ns).items()
        if hasattr(value, ORIGINAL)
    ]
    found += [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in _extra_targets()
        if hasattr(getattr(owner, attr), ORIGINAL)
    ]
    return found
