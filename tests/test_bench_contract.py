"""The benchmark's contract with the package, checked on each workload's
first timed call.

``bench/`` reads the harness's reports, wraps functions by name and checks
decisions against references; a change under ``src/`` that breaks any of
that would otherwise show only in a full ``bench/run.py`` run. For call 0 at
seed 0 of every workload this checks that:

- the digest equals the seed-0 digest recorded in ``bench/BENCH_0.json``;
- the workload's own check, re-scoring its sample, finds nothing;
- the same call traced gives the same digest, its spans nest and the tracer
  ends idle (a trial span opens on the trial's one ``STREAM_DELAY`` draw);
- ``child.layer_metrics`` runs on the pair and gives every per-layer metric
  that ``BENCHMARK.json`` declares.

The benchmark's modules are only imported, and no bytecode is written under
``bench/``. The pooled C1 check of the moments workload needs 400k draws
and is left to the benchmark. A change that moves a digest on purpose
records the new ``BENCH_<n>.json`` baseline and reads it here.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _import_bench():
    sys.path.insert(0, str(BENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import child
        import tracing
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(BENCH))
    return child, tracing, workloads


child, tracing, workloads = _import_bench()
BASELINE = json.loads((BENCH / "BENCH_0.json").read_text())
PER_LAYER = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_call_keeps_the_benchmark_contract(name):
    workload = workloads.WORKLOADS[name]
    call_seed = workloads.master_seed(0, 0)
    untraced = child.timed_call(workload, call_seed)
    assert untraced["error"] is None, untraced["error"]
    report = untraced["report"]
    assert workload.digest(report) == BASELINE["workloads"][name]["digests"]["0"]
    assert workload.check(report, rescore=True) == (0, [])

    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        traced = child.timed_call(workload, call_seed)
    assert traced["error"] is None, traced["error"]
    assert workload.digest(traced["report"]) == workload.digest(report)
    assert tracing.check_nesting(tracer.spans) == []
    assert tracer.idle

    metrics = child.layer_metrics(workload, tracer, [untraced], [traced], 0.0)
    assert set(metrics) == PER_LAYER
    assert metrics["harness.trials_traced"]["value"] == workload.trials_of(traced["report"])
