"""mpshmm benchmark: four workloads through the public Python API and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; mpshmm is imported from ``src/``.  Workloads
and the reason for each are listed in ``BENCHMARK.json``, which also names
every metric this script prints and its unit.

``--trace 0`` measures the end-to-end metrics with nothing wrapped:

* ``items_per_s``: work items of one pass over the median pass time; the
  item is per workload (word coefficients, bound checks, round trips, CLI
  commands).
* ``call_p50_ms`` / ``call_p90_ms``: latency of one top-level public call,
  over every call of the timed passes (the sample count is in the detail
  line).
* ``peak_mb``: largest tracemalloc peak of one call, from a separate untimed
  pass after the timed ones (tracemalloc slows some calls about 5x).
* ``setup_s``: median over fresh processes of importing mpshmm and building
  the workload's inputs.  The processes run one at a time between the timed
  passes, spread over the whole run, so that load from other processes on
  the machine reaches them as it reaches the passes.  They run with one
  OpenBLAS thread (see `setup_probe`).
* ``ok_ratio``: calls that returned and passed their output check, over
  calls attempted.  Every call is checked, outside the timed region.

``--trace 1`` wraps mpshmm's public functions (see ``tracer.py``) and prints
the per-layer metrics instead: counts and self times per top-level call,
array sizes from a separate untimed pass, per-module self time, and the
tracing overhead (median traced pass time minus median untraced pass time,
over untraced and traced passes run in turn).  mpshmm is
single-threaded and has no queues, so no layer has a waiting-time metric.
Spans are written to ``.bench_out/spans-<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
a detail record (seed, sample counts, environment, first failures).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

SETUP_PROBES = 16  # fresh processes per run for setup_s, after one discarded
WARMUP_S = 1.0  # untimed passes before measuring, at least one
MIN_CALLS = 110  # at least 10 samples beyond p90


class Tally:
    """Attempted and failed top-level calls, with the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, label: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"{label}: {problem}")


def _call(call) -> tuple[bool, object]:
    try:
        return True, call.run()
    except Exception as exc:  # a failed call is counted, never dropped
        return False, exc


def _check(call, tally: Tally, ok: bool, out: object) -> None:
    if not ok:
        problem = f"raised {type(out).__name__}: {out}"
    else:
        try:
            problem = call.check(out)
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
    tally.record(call.label, problem)


def run_pass(calls, tally: Tally, recorder=None) -> list[float]:
    """One timed pass; returns each call's seconds.  Checks run afterwards."""
    durations = []
    results = []
    for call in calls:
        if recorder is not None:
            recorder.top_id += 1
            recorder.enabled = True
        start = time.perf_counter()
        result = _call(call)
        durations.append(time.perf_counter() - start)
        if recorder is not None:
            recorder.enabled = False
        results.append(result)
    for call, (ok, out) in zip(calls, results):
        _check(call, tally, ok, out)
    return durations


def timed_passes(calls, tally: Tally, seconds: float, between=None) -> tuple[list, list]:
    """Passes until `seconds` have elapsed and MIN_CALLS calls were timed.

    `between(elapsed_s)`, if given, runs after each pass, outside its timing.
    """
    pass_s: list[float] = []
    call_s: list[float] = []
    start = time.perf_counter()
    while time.perf_counter() < start + seconds or len(call_s) < MIN_CALLS:
        durations = run_pass(calls, tally)
        call_s += durations
        pass_s.append(sum(durations))
        if between is not None:
            between(time.perf_counter() - start)
    return pass_s, call_s


def warm_up(calls, tally: Tally) -> None:
    deadline = time.perf_counter() + WARMUP_S
    run_pass(calls, tally)
    while time.perf_counter() < deadline:
        run_pass(calls, tally)


def peak_megabytes(calls, tally: Tally) -> float:
    """Largest tracemalloc peak of a single call, in MB (1e6 bytes)."""
    peak = 0
    tracemalloc.start()
    try:
        for call in calls:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ok, out = _call(call)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - before)
            _check(call, tally, ok, out)
            del out
    finally:
        tracemalloc.stop()
    return peak / 1e6


def setup_probe(workload: str, seed: int) -> float:
    """Import-and-build time of one fresh process.

    The process gets one OpenBLAS thread.  With two, OpenBLAS starts its
    second thread while numpy is imported and that thread spins through the
    rest of the import; whether it slows the importing thread most likely
    depends on how the host schedules the machine's two CPUs.  That moved the
    figure between about 0.16 s and 0.25 s for spells of many minutes with no
    change in code.
    Building the inputs makes no BLAS call large enough to use a second thread.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def _blas_threads() -> int | None:
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    names = (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
    }


def end_to_end(workload, seed: int, seconds: float, tally: Tally, detail: dict) -> dict:
    setup_probe(workload.name, seed)  # discarded: it warms the file cache
    setup: list[float] = []

    def probe_on_schedule(elapsed: float) -> None:
        if len(setup) < SETUP_PROBES and elapsed >= len(setup) * seconds / SETUP_PROBES:
            setup.append(setup_probe(workload.name, seed))

    calls = workload.calls(workload.build(seed))
    warm_up(calls, tally)
    pass_s, call_s = timed_passes(calls, tally, seconds, probe_on_schedule)
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(workload.name, seed))
    peak = peak_megabytes(calls, tally)
    cuts = statistics.quantiles(call_s, n=10)
    p50, p90 = statistics.median(call_s), cuts[8]
    detail.update(
        passes=len(pass_s),
        calls_per_pass=len(calls),
        latency_samples=len(call_s),
        samples_beyond_p90=sum(t > p90 for t in call_s),
        setup_samples_s=setup,
    )
    return {
        "items_per_s": sum(c.items for c in calls) / statistics.median(pass_s),
        "call_p50_ms": p50 * 1e3,
        "call_p90_ms": p90 * 1e3,
        "peak_mb": peak,
        "setup_s": statistics.median(setup),
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
    }


def layer_values(stats: dict, sizes: dict, top_calls: int) -> dict:
    """Per-layer values by metric name `<span name>.<field>`, per top-level call."""
    values = {}
    for span, st in stats.items():
        values[f"{span}.calls"] = st.calls / top_calls
        values[f"{span}.errors"] = st.errors / top_calls
        values[f"{span}.self_s"] = st.self_s / top_calls
        values[f"{span}.words"] = st.work / top_calls
        values[f"{span}.out_mb"] = sizes[span].out_bytes / 1e6
        values[f"{span}.in_mb"] = sizes[span].in_bytes / 1e6
    layers = {span.split(".", 1)[0] for span in stats}
    for layer in layers:
        values[f"layer.{layer}.self_s"] = sum(
            st.self_s for span, st in stats.items() if span.startswith(layer + ".")
        ) / top_calls
    values["serialize.to_dict.self_s"] = sum(
        st.self_s
        for span, st in stats.items()
        if span.startswith("serialize.") and span.endswith("_to_dict")
    ) / top_calls
    values["numpy.eig.max_dim"] = max(sizes["numpy.eigh"].in_dim, sizes["numpy.eigvalsh"].in_dim)
    return values


def traced_run(calls, tally: Tally, seconds: float, min_calls: int = MIN_CALLS):
    """Untraced and traced passes in turn, then one size pass.

    Each traced pass installs a recorder and removes it afterwards, so the
    untraced passes run the plain functions and drift on the machine reaches
    both alike.  The size pass uses a second recorder with `measure_sizes`;
    its times are not used.  A wrapper left behind counts as a failed call.
    Returns the traced recorder, the size totals, the untraced and traced
    pass times and the traced call times.
    """
    from tracer import Recorder, leftover_wrappers

    rec = Recorder()
    sizer = Recorder()
    sizer.measure_sizes = True
    plain_s: list[float] = []
    traced_s: list[float] = []
    call_s: list[float] = []
    deadline = time.perf_counter() + seconds
    try:
        while time.perf_counter() < deadline or len(call_s) < min_calls:
            plain_s.append(sum(run_pass(calls, tally)))
            rec.install()
            try:
                durations = run_pass(calls, tally, rec)
            finally:
                rec.uninstall()
            call_s += durations
            traced_s.append(sum(durations))
        sizer.install()
        run_pass(calls, tally, sizer)
    finally:
        rec.uninstall()
        sizer.uninstall()
    leftover = leftover_wrappers()
    tally.record("tracer uninstall", f"wrappers left: {leftover}" if leftover else None)
    return rec, sizer.stats, plain_s, traced_s, call_s


def per_layer(workload, seed: int, seconds: float, tally: Tally, detail: dict) -> dict:
    from tracer import Recorder

    rec = Recorder()
    rec.install()
    try:
        rec.enabled = True
        inputs = workload.build(seed)
        rec.enabled = False
        setup_random_model = rec.stats["catalog.random_model"].self_s
    finally:
        rec.uninstall()
    calls = workload.calls(inputs)
    warm_up(calls, tally)
    rec, sizes, plain_s, traced_s, call_s = traced_run(calls, tally, seconds)
    rec.write_spans(
        OUT_DIR / f"spans-{workload.name}.json",
        {"workload": workload.name, "seed": seed},
    )

    values = layer_values(rec.stats, sizes, len(call_s))
    values.update(
        {
            "catalog.random_model.self_s": setup_random_model,
            "trace.overhead_s": statistics.median(traced_s) - statistics.median(plain_s),
        }
    )
    detail.update(
        untraced_passes=len(plain_s),
        traced_passes=len(traced_s),
        traced_calls=len(call_s),
        spans=len(rec.names),
        waiting_time="none: mpshmm is single-threaded with no queues",
    )
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import workloads  # exits non-zero when the mpshmm sources are missing

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    workload = workloads.WORKLOADS[args.workload]

    tally = Tally()
    detail = {"workload": workload.name, "item": workload.item, "seed": args.seed}
    measure = per_layer if args.trace else end_to_end
    values = measure(workload, args.seed, args.seconds, tally, detail)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    detail["environment"] = environment()
    detail["failures"] = tally.messages
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
