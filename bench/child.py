"""One workload in a fresh process: warm up, time harness calls, check them.

Usage: python3 bench/child.py WORKLOAD SEED SECONDS TRACE OUT_DIR

Prints one JSON object on its last stdout line. With TRACE=1 every call
seed runs twice in a row, untraced and then traced: the traced calls give
the per-layer split, each pair must reach the same decision digest, and the
pairs' time ratio is the tracing overhead.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads
from tracing import POINT, TRIAL, Tracer, check_nesting, instrument, self_times

PRESET_REPEATS = 20


def machine_facts() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "machine": platform.machine(),
    }


def timed_call(workload, call_seed: int) -> dict:
    t0 = time.perf_counter()
    try:
        report, error = workload.run(call_seed), None
    except Exception:  # a failed call counts its trials as failed and the run goes on
        report, error = None, traceback.format_exc()
    return {"wall_s": time.perf_counter() - t0, "report": report, "error": error}


def timed_calls(workload, seed: int, seconds: float, tracer: Tracer | None):
    """Calls with call seeds 0, 1, ... until ``seconds`` have passed and at
    least ``workload.min_calls`` are done; with a tracer, each seed also runs
    traced."""
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(untraced) < workload.min_calls or time.perf_counter() < deadline:
        call_seed = workloads.master_seed(seed, len(untraced))
        untraced.append(timed_call(workload, call_seed))
        if tracer is not None:
            with instrument(tracer):
                traced.append(timed_call(workload, call_seed))
    return untraced, traced


def judge(workload, calls) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over the calls of one kind."""
    attempted = failed = 0
    problems: list[str] = []
    for i, call in enumerate(calls):
        if call["report"] is None:
            n = workload.trials_per_call()
            attempted += n
            failed += n
            problems.append(call["error"].strip().splitlines()[-1])
            continue
        attempted += workload.trials_of(call["report"])
        n_failed, found = workload.check(call["report"], rescore=i == 0)
        failed += n_failed
        problems += found
    if hasattr(workload, "check_pooled"):
        pooled = workload.check_pooled([c["report"] for c in calls if c["report"] is not None])
        if pooled:
            failed = attempted
            problems += pooled
    return attempted, failed, problems


def digest(workload, call) -> str | None:
    return None if call["report"] is None else workload.digest(call["report"])


def rates(workload, calls) -> list[float]:
    return [workload.trials_of(c["report"]) / c["wall_s"] for c in calls if c["report"] is not None]


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(workload, tracer, untraced, traced, preset_ms) -> dict:
    spans = tracer.spans
    self_ns, calls = self_times(spans)
    n = max(1, sum(workload.trials_of(c["report"]) for c in traced if c["report"] is not None))

    def per_trial_ms(name):
        return self_ns.get(name, 0) / 1e6 / n

    def per_trial(name):
        return calls.get(name, 0) / n

    m = {
        "harness.trials_traced": (n, "count"),
        "waveform.generate_block.calls": (per_trial("waveform.generate_block"), "count"),
        "waveform.generate_block.self_ms": (per_trial_ms("waveform.generate_block"), "ms"),
        "channel.substream.calls": (per_trial("channel.substream"), "count"),
        "channel.substream.self_ms": (per_trial_ms("channel.substream"), "ms"),
        "channel.draw_noise.calls": (per_trial("channel.draw_noise"), "count"),
        "channel.draw_noise.self_ms": (per_trial_ms("channel.draw_noise"), "ms"),
        "channel.convolve_frame.self_ms": (per_trial_ms("channel.convolve_frame"), "ms"),
        "channel.draw_channel.self_ms": (per_trial_ms("channel.draw_channel"), "ms"),
        "channel.assemble_window.self_ms": (per_trial_ms("channel.assemble_window"), "ms"),
        "likelihood.loglik_class_table.self_ms": (per_trial_ms("likelihood.loglik_class_table"), "ms"),
        "likelihood.table_cells": (tracer.counts["likelihood.table_cells"] / n, "count"),
        "likelihood.window_class_matrix.self_ms": (per_trial_ms("likelihood.window_class_matrix"), "ms"),
        "likelihood.window_class_matrix.calls": (per_trial("likelihood.window_class_matrix"), "count"),
        "likelihood.window_class_matrix.hit_ratio": (
            tracer.counts["likelihood.window_class_matrix.hits"]
            / max(1, calls.get("likelihood.window_class_matrix", 0)),
            "frac",
        ),
        "likelihood.class_matrix_mb": (tracer.class_matrix_mb, "MB"),
        "estimators.aml.self_ms": (per_trial_ms("estimators.aml"), "ms"),
        "estimators.wed.self_ms": (per_trial_ms("estimators.wed"), "ms"),
        "estimators.ed.self_ms": (per_trial_ms("estimators.ed"), "ms"),
        "estimators.gather_reads": (tracer.counts["estimators.gather_reads"] / n, "count"),
    }
    # estimator timings the harness itself records, from the untraced calls
    elapsed = {est: [] for est in ("aml", "wed", "ed")}
    for c in untraced:
        for outcomes in (getattr(c["report"], "outcomes", None) or {}).values():
            for o in outcomes:
                for est, ns in o.elapsed_ns.items():
                    elapsed[est].append(ns / 1e6)
    for est, values in elapsed.items():
        m[f"estimators.{est}.ms.p50"] = (percentile(values, 50), "ms")
        m[f"estimators.{est}.ms.p98"] = (percentile(values, 98), "ms")
    vp_calls = max(1, calls.get("likelihood.variance_profile_h0", 0))
    m["likelihood.variance_profile_h0.self_ms"] = (
        self_ns.get("likelihood.variance_profile_h0", 0) / 1e6 / vp_calls,
        "ms",
    )
    m["presets.load_ms"] = (preset_ms, "ms")
    m["likelihood.b_function.self_ms"] = (per_trial_ms("likelihood.b_function"), "ms")
    m["harness.run_moment_validation.self_ms"] = (per_trial_ms("harness.run_moment_validation"), "ms")
    m["harness.run_sweep.self_ms"] = (per_trial_ms("harness.run_sweep"), "ms")
    m["harness.point.self_ms"] = (per_trial_ms(POINT), "ms")
    m["harness.trial.self_ms"] = (per_trial_ms(TRIAL), "ms")
    trial_ms = [(s[4] - s[3]) / 1e6 for s in spans if s[0] == TRIAL]
    if not trial_ms:  # moment validation draws a batch of trials per call
        trial_ms = [c["wall_s"] * 1e3 / workload.trials_of(c["report"]) for c in traced if c["report"]]
    m["harness.trial_ms.p50"] = (percentile(trial_ms, 50), "ms")
    m["harness.trial_ms.p98"] = (percentile(trial_ms, 98), "ms")
    ratios = [t["wall_s"] / u["wall_s"] for u, t in zip(untraced, traced) if u["report"] and t["report"]]
    m["harness.trace_overhead_frac"] = (statistics.median(ratios or [np.nan]) - 1.0, "frac")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def module_shares(spans) -> dict:
    """Share of all self time per module and per span name, largest first."""
    self_ns, _ = self_times(spans)
    total = sum(self_ns.values()) or 1
    by_module: dict[str, int] = {}
    for name, ns in self_ns.items():
        module = name.split(".")[0]
        by_module[module] = by_module.get(module, 0) + ns

    def ranked(totals):
        return {k: round(v / total, 4) for k, v in sorted(totals.items(), key=lambda kv: -kv[1])}

    return {"modules": ranked(by_module), "spans": ranked(self_ns)}


def preset_load_ms(workload) -> float:
    samples = []
    for _ in range(PRESET_REPEATS):
        t0 = time.perf_counter()
        workload.resolve()
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def main(argv) -> int:
    name, seed, seconds, trace, out_dir = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", Path(argv[4])
    workload = workloads.WORKLOADS[name]
    facts = machine_facts()
    workload.run(workloads.master_seed(seed, 2**31), trials=max(1, workload.trials // 8))  # warm-up

    tracer = Tracer() if trace else None
    untraced, traced = timed_calls(workload, seed, seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, problems = judge(workload, untraced)
    result = {
        "machine": facts,
        "digest": digest(workload, untraced[0]),
        "call_trials": workload.trials_per_call(),
        "calls": len(untraced),
        # the machine is shared and its speed drifts by tens of percent over
        # minutes; contention only adds time, so the fastest call is the
        # steadiest reading of what the code itself costs
        "trials_per_s": max(rates(workload, untraced) or [np.nan]),
        "trials_per_s_median": statistics.median(rates(workload, untraced) or [np.nan]),
        "peak_rss_mb": peak_rss_mb,
    }

    if trace:
        t_attempted, t_failed, t_problems = judge(workload, traced)
        attempted, failed, problems = attempted + t_attempted, failed + t_failed, problems + t_problems
        self_test = [
            f"call {i}: traced digest {digest(workload, t)} != untraced {digest(workload, u)}"
            for i, (u, t) in enumerate(zip(untraced, traced))
            if digest(workload, t) != digest(workload, u)
        ]
        self_test += check_nesting(tracer.spans) + ([] if tracer.idle else ["spans left open"])
        if self_test:
            problems += self_test
            failed = attempted
        result["per_layer"] = layer_metrics(workload, tracer, untraced, traced, preset_load_ms(workload))
        result["shares"] = module_shares(tracer.spans)
        out_dir.mkdir(parents=True, exist_ok=True)
        trace_path = out_dir / f"trace-{name}-seed{seed}.json"
        with open(trace_path, "w") as fh:
            json.dump(
                {
                    "workload": name,
                    "seed": seed,
                    "machine": facts,
                    "digest": result["digest"],
                    "per_layer": result["per_layer"],
                    "shares": result["shares"],
                    "span_fields": ["name", "trace", "parent", "start_ns", "end_ns"],
                    "spans": tracer.spans,
                },
                fh,
            )
        result["trace_file"] = str(trace_path)

    result.update(attempted=attempted, failed=failed, problems=problems[:20])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
