"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

For each workload: one untraced pass and one traced pass, every output
check passing, every recorder wrapper removed afterwards, and every metric
named in BENCHMARK.json computable.  Prints the trace counts that later
changes are expected to move.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

END_TO_END = {"items_per_s", "call_p50_ms", "call_p90_ms", "peak_mb", "setup_s", "ok_ratio"}
TRACE_ONLY = {"catalog.random_model.self_s", "trace.overhead_s"}
SHOWN = (
    "mps.build_state.words",
    "mps.coefficient.calls",
    "numpy.eigh.calls",
    "numpy.eigvalsh.calls",
    "numpy.einsum.calls",
    "ehmm.require_valid.calls",
)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["end_to_end"]}
    if names != END_TO_END:
        print(f"end-to-end metrics {sorted(names)} != {sorted(END_TO_END)}")
        return 1
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        print("BENCHMARK.json workloads differ from workloads.WORKLOADS")
        return 1

    for workload in workloads.WORKLOADS.values():
        tally = run.Tally()
        calls = workload.calls(workload.build(0))
        rec, sizes, _, _, call_s = run.traced_run(calls, tally, seconds=0, min_calls=1)
        if tally.failed:
            print(f"{workload.name}: {tally.failed} failed: {tally.messages}")
            return 1
        values = run.layer_values(rec.stats, sizes, len(call_s))
        missing = [
            m["name"]
            for m in spec["per_layer"]
            if m["name"] not in values and m["name"] not in TRACE_ONLY
        ]
        if missing:
            print(f"{workload.name}: per-layer metrics not computed: {missing}")
            return 1
        shown = ", ".join(f"{name}={values[name]:g}" for name in SHOWN)
        print(f"ok {workload.name}: {tally.attempted} calls checked; per call: {shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
