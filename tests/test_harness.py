import csv
import dataclasses
import gc
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zpsync import (
    ConfigError,
    DelayProfile,
    HypothesisSet,
    NoiseMixture,
    ReceivedWindow,
    SystemConfig,
    aml_estimate,
    ed_estimate,
    estimators,
    harness,
    qam_constellation,
    scale_mixture_to_snr,
    variance_profile_h0,
    wed_estimate,
)
from zpsync.cli import _write_moments, _write_sweep
from zpsync.harness import (
    ExperimentSpec,
    run_moment_validation,
    run_runtime_scaling,
    run_sweep,
    spec_hash,
    wilson_interval,
)
from zpsync.presets import (
    config_from_settings,
    load_preset,
    mixture_from_settings,
    profile_from_settings,
    spec_from_settings,
)

SMALL = SystemConfig(n_data=64, n_zero=12, n_taps=6, n_blocks=3, mod_order=16, snr_db=12.0)
SMALL_PROFILE = DelayProfile.exponential(1.0, 0.2, 6, normalized=True)
IMPULSIVE = NoiseMixture.impulsive(0.99, 1.0, 100.0)


def small_spec(**overrides) -> ExperimentSpec:
    base = dict(
        config=SMALL,
        profile=SMALL_PROFILE,
        mixture=IMPULSIVE,
        axis="snr_db",
        values=(12.0,),
        trials=20,
        master_seed=7,
        estimators=("aml",),
        d_min=-8,
        d_max=8,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class SerialPool:
    """The process pool's interface, mapping in this process."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        for successes in (0, 3, 17, 20):
            lo, hi = wilson_interval(successes, 20)
            assert 0.0 <= lo <= successes / 20 <= hi <= 1.0

    def test_coverage_of_known_probability(self):
        # rigged estimator: Bernoulli(q) successes; the 95% interval should
        # cover q in roughly 95% of meta-trials
        q, n, meta = 0.7, 100, 500
        rng = np.random.default_rng(123)
        covered = 0
        for _ in range(meta):
            successes = int(rng.binomial(n, q))
            lo, hi = wilson_interval(successes, n)
            covered += lo <= q <= hi
        assert 0.92 <= covered / meta <= 0.98


class TestExperimentSpecValidation:
    def test_wed_with_impulsive_mixture_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(estimators=("wed",), d_min=0)

    def test_wed_with_negative_offsets_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(mixture=NoiseMixture.gaussian(), estimators=("wed",))

    def test_unknown_axis_and_estimator(self):
        with pytest.raises(ConfigError):
            small_spec(axis="bogus")
        with pytest.raises(ConfigError):
            small_spec(estimators=("aml", "oml"))

    def test_p0_axis_needs_two_components(self):
        with pytest.raises(ConfigError):
            small_spec(axis="p0", values=(0.9, 0.99), mixture=NoiseMixture.gaussian())

    def test_alpha_bounds(self):
        with pytest.raises(ConfigError):
            small_spec(axis="pdp_alpha", values=(0.0, 1.2))

    @pytest.mark.parametrize(
        "axis, value",
        [
            ("snr_db", float("nan")),
            ("snr_db", True),
            ("n_blocks", 2.0),
            ("n_blocks", 0),
            ("n_blocks", np.int64(-1)),
            ("antennas", (1, 1, 1)),
            ("antennas", (1, 0)),
            ("antennas", "2x2"),
            ("p0", 1.0),
            ("p0", "0.5"),
            ("pdp_alpha", "0.5"),
        ],
    )
    def test_axis_values_checked_against_their_axis(self, axis, value):
        with pytest.raises(ConfigError, match=f"{axis} values must be"):
            small_spec(axis=axis, values=(value,))

    def test_empty_values(self):
        with pytest.raises(ConfigError):
            small_spec(values=())

    @pytest.mark.parametrize(
        "axis, values",
        [("snr_db", (12, 5.0, 12.0)), ("antennas", ([1, 2], (1, 2))), ("pdp_alpha", (0.0, 0))],
    )
    def test_repeated_axis_values_rejected(self, axis, values):
        with pytest.raises(ConfigError, match=f"{axis} values must not repeat"):
            small_spec(axis=axis, values=values)

    def test_antenna_pairs_given_as_lists(self, tmp_path):
        # list pairs used to reach the outcomes as unhashable keys, the CSV
        # as '[1, 1]' and lock_in's lookup as a list that equals no tuple
        spec = small_spec(axis="antennas", values=([1, 1], [1, 2]), trials=3)
        assert spec.values == ((1, 1), (1, 2))
        as_tuples = small_spec(axis="antennas", values=((1, 1), (1, 2)), trials=3)
        assert spec_hash(spec) == spec_hash(as_tuples)
        report = run_sweep(spec, keep_outcomes=True)
        assert list(report.outcomes) == [(1, 1), (1, 2)]
        assert 0.0 <= report.lock_in((1, 1)) <= 1.0
        _write_sweep(report, tmp_path)
        with open(tmp_path / "sweep.csv", newline="") as fh:
            assert [row["value"] for row in csv.DictReader(fh)] == ["1x1", "1x2"]

    def test_reversed_range_rejected(self):
        with pytest.raises(ConfigError, match="empty hypothesis set"):
            small_spec(d_min=5, d_max=4)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ConfigError, match="workers"):
            small_spec(workers=workers)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("trials", 10.5),
            ("trials", True),
            ("workers", 2.0),
            ("master_seed", 2.5),
            ("master_seed", "7"),
            ("d_min", 0.5),
            ("d_max", np.float64(8.0)),
        ],
    )
    def test_counts_must_be_ints(self, field, value):
        # 10.5 trials ran 10 and reported 6/10.5; d_min=0.5 and
        # master_seed=2.5 died in the run with a traceback
        with pytest.raises(ConfigError, match=f"{field} must be an int"):
            small_spec(**{field: value})

    def test_hash_ignores_workers(self, tmp_path):
        # serial and parallel runs are identical, so they share a hash; the
        # sidecar still records the worker count
        serial, parallel = small_spec(), small_spec(workers=4)
        assert spec_hash(serial) == spec_hash(parallel)
        assert spec_hash(serial) != spec_hash(small_spec(trials=21))
        _write_sweep(harness.SweepReport(parallel, rows=()), tmp_path)
        payload = json.loads((tmp_path / "spec.json").read_text())
        assert payload["config_hash"] == spec_hash(serial)
        assert payload["spec"]["workers"] == 4

    @pytest.mark.parametrize(
        "axis, values, base",
        [
            ("snr_db", (12.0, 20.0), dict(config=dataclasses.replace(SMALL, snr_db=3.0))),
            ("n_blocks", (2, 3), dict(config=dataclasses.replace(SMALL, n_blocks=5))),
            ("antennas", ((1, 1), (1, 2)), dict(config=dataclasses.replace(SMALL, n_tx=2, n_rx=2))),
            ("p0", (0.9, 0.99), dict(mixture=NoiseMixture.impulsive(0.5, 1.0, 100.0))),
        ],
    )
    def test_hash_ignores_base_fields_the_axis_replaces(self, axis, values, base):
        # every point replaces these fields, so two such specs give identical
        # reports and must share a hash
        a = small_spec(axis=axis, values=values, trials=4)
        b = small_spec(axis=axis, values=values, trials=4, **base)
        decisions = [
            {v: [(o.d_true, o.d_hat) for o in outcomes] for v, outcomes in report.items()}
            for report in (run_sweep(s, keep_outcomes=True).outcomes for s in (a, b))
        ]
        assert decisions[0] == decisions[1]
        assert spec_hash(a) == spec_hash(b)

    def test_hash_keeps_base_fields_that_points_read(self):
        # the pdp_alpha axis replaces no base field: the SNR still counts
        a = small_spec(axis="pdp_alpha", values=(0.0, 0.3))
        b = small_spec(
            axis="pdp_alpha", values=(0.0, 0.3), config=dataclasses.replace(SMALL, snr_db=3.0)
        )
        assert spec_hash(a) != spec_hash(b)

    def test_energies_of_every_point_count_against_the_memory_budget(self):
        # about 59 MiB of stream, table and seeds, and 74 MiB of energies per
        # point: two ED points fit the 256 MiB, three do not
        config = dataclasses.replace(SMALL, n_blocks=2000)
        ed = dict(config=config, estimators=("ed",), d_min=0)
        small_spec(**ed, values=(12.0, 13.0))
        small_spec(config=config, values=(12.0, 13.0, 14.0))
        with pytest.raises(ConfigError, match="run too large: .*energies 222"):
            small_spec(**ed, values=(12.0, 13.0, 14.0))

    def test_presets_and_readme_runs_fit_the_memory_budget_with_room(self, monkeypatch):
        totals = []
        monkeypatch.setattr(harness, "_check_bytes", lambda a: totals.append(sum(a.values())))
        for name in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7"):
            spec_from_settings(load_preset(name), master_seed=0)
        table1 = config_from_settings(load_preset("table1"))
        harness.check_moment_run(table1, (1, 150), 100000, 0)
        harness.check_scaling_run(SystemConfig(), (1, 2, 4), 10, 0)
        assert len(totals) == 8
        assert max(totals) < harness._RUN_BYTES // 8


class TestRunSweep:
    def test_deterministic_reports(self):
        a = run_sweep(small_spec(trials=10))
        b = run_sweep(small_spec(trials=10))
        for ra, rb in zip(a.rows, b.rows):
            assert (ra.axis_value, ra.estimator, ra.successes) == (
                rb.axis_value,
                rb.estimator,
                rb.successes,
            )
            assert ra.lock_in == rb.lock_in
        assert spec_hash(a.spec) == spec_hash(b.spec)

    def test_single_trial_high_snr(self):
        report = run_sweep(small_spec(values=(40.0,), trials=1))
        assert report.rows[0].lock_in in (0.0, 1.0)
        assert report.rows[0].lock_in == 1.0

    def test_interval_brackets_estimate(self):
        report = run_sweep(small_spec(trials=30))
        row = report.rows[0]
        assert row.ci_lo <= row.lock_in <= row.ci_hi
        assert row.trials == 30
        assert row.mean_ns > 0

    def test_common_randomness_across_points(self):
        report = run_sweep(small_spec(values=(0.0, 12.0, 40.0), trials=8), keep_outcomes=True)
        d_true = {v: [o.d_true for o in outs] for v, outs in report.outcomes.items()}
        assert d_true[0.0] == d_true[12.0] == d_true[40.0]

    def test_estimators_share_windows(self):
        report = run_sweep(
            small_spec(
                mixture=NoiseMixture.gaussian(),
                estimators=("aml", "wed", "ed"),
                d_min=0,
                d_max=8,
                values=(40.0,),
                trials=6,
            ),
            keep_outcomes=True,
        )
        for outs in report.outcomes.values():
            for o in outs:
                assert set(o.d_hat) == {"aml", "wed", "ed"}
                assert set(o.elapsed_ns) == {"aml", "wed", "ed"}

    def test_worker_pool_matches_serial(self, monkeypatch):
        pools = []

        class CountingPool(harness.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness, "futures", mock.Mock(ProcessPoolExecutor=CountingPool))
        # every axis runs through one path: the SNR, the p0 link and the
        # per-trial profile perturbation of pdp_alpha
        specs = (
            small_spec(trials=12, values=(6.0, 12.0)),
            small_spec(trials=12, axis="p0", values=(0.9, 0.99)),
            small_spec(trials=12, axis="pdp_alpha", values=(0.0, 0.4)),
            small_spec(trials=12, axis="antennas", values=((1, 2), (2, 1), (1, 1))),
            small_spec(trials=12, axis="n_blocks", values=(3, 1, 2)),
        )

        def untimed(report):
            return [dataclasses.replace(row, mean_ns=0.0) for row in report.rows]

        for spec in specs:
            serial = run_sweep(spec, keep_outcomes=True)
            parallel = run_sweep(dataclasses.replace(spec, workers=2), keep_outcomes=True)
            assert untimed(serial) == untimed(parallel), spec.axis
            for value in spec.values:
                assert [(o.trial_index, o.d_true, o.d_hat) for o in serial.outcomes[value]] == [
                    (o.trial_index, o.d_true, o.d_hat) for o in parallel.outcomes[value]
                ], (spec.axis, value)
            # a sweep that keeps no outcomes counts the same successes
            for workers in (1, 2):
                unkept = run_sweep(dataclasses.replace(spec, workers=workers))
                assert unkept.outcomes is None
                assert untimed(unkept) == untimed(serial), (spec.axis, workers)
        assert len(pools) == 2 * len(specs)  # one pool per pooled sweep, not one per value

    @pytest.mark.parametrize(
        "axis, values",
        [
            ("snr_db", (6.0, 40.0)),
            ("p0", (0.9, 0.99)),
            ("pdp_alpha", (0.0, 0.4)),
            ("antennas", ((1, 2), (2, 1), (1, 1), (2, 2))),
            ("n_blocks", (2, 1, 3)),
        ],
    )
    def test_windows_equal_assemble_window(self, monkeypatch, axis, values):
        # every point's window is finished from its trial's one draw for the
        # sweep's largest link; each must equal the window built for that
        # point alone, bit for bit
        real_finish = harness.finish_stream
        windows = []

        def finish(*args):
            windows.append(real_finish(*args))
            return windows[-1]

        monkeypatch.setattr(harness, "finish_stream", finish)
        spec = small_spec(trials=6, axis=axis, values=values)
        report = run_sweep(spec, keep_outcomes=True)
        # trial-major: all points of trial 0, then all of trial 1, ...
        assert len(windows) == spec.trials * len(values)
        for k, window in enumerate(windows):
            t, p = divmod(k, len(values))
            value = values[p]
            config, mixture = harness._point_link(spec, value)
            ref = harness.assemble_window(
                config, spec.profile, mixture, report.outcomes[value][t].d_true,
                seed=(spec.master_seed, t), d_pad=-spec.d_min,
            )
            np.testing.assert_array_equal(window, ref.samples, err_msg=f"{value!r} trial {t}")

    def test_each_trial_is_drawn_once_per_sweep(self, monkeypatch):
        # the draws are shared by every point, whatever the axis changes:
        # one seed row per trial, in trial order, for the sweep's largest
        # link, up to the end of its longest window
        real_draw = harness.draw_stream
        drawn = []

        def draw(config, profile, mixture, d_pad, seeds, stop):
            drawn.append((seeds, stop))
            return real_draw(config, profile, mixture, d_pad, seeds, stop)

        monkeypatch.setattr(harness, "draw_stream", draw)
        specs = (
            (small_spec(trials=5, values=(6.0, 12.0, 40.0)), {}),
            (
                small_spec(trials=5, axis="antennas", values=((1, 1), (1, 2), (2, 2))),
                {"n_tx": 2, "n_rx": 2},
            ),
            (small_spec(trials=5, axis="n_blocks", values=(1, 3)), {"n_blocks": 3}),
        )
        for spec, largest in specs:
            drawn.clear()
            report = run_sweep(spec, keep_outcomes=True)
            link = dataclasses.replace(spec.config, **largest)
            rows = harness.window_seeds(
                link, -spec.d_min, (spec.master_seed,), range(spec.trials)
            )
            assert len(drawn) == spec.trials, spec.axis
            outcomes = report.outcomes[spec.values[0]]
            for (got, stop), row, outcome in zip(drawn, rows, outcomes):
                np.testing.assert_array_equal(got, row, err_msg=spec.axis)
                assert stop == -spec.d_min + outcome.d_true + link.window_len, spec.axis

    def test_sweep_leaves_no_reference_cycles(self):
        # what a sweep point holds (its plans, its prefix buffer) must be
        # freed when the sweep returns, not left to the cyclic collector:
        # garbage piling up between collections raised a benchmark's peak
        # memory by about half
        gaussian = dict(mixture=NoiseMixture.gaussian(), d_min=0, d_max=8)
        specs = (
            small_spec(trials=6, values=(6.0, 12.0)),
            small_spec(
                trials=6, axis="pdp_alpha", values=(0.0, 0.4), estimators=("aml", "wed", "ed"),
                **gaussian,
            ),
        )
        for spec in specs:
            run_sweep(spec)  # first calls fill lazy caches
            gc.collect()
            run_sweep(spec)
            assert gc.collect() == 0, spec.axis

    def test_pool_starts_no_more_processes_than_trials(self, monkeypatch):
        # the pool used to be asked for --workers processes, each of them
        # forked at the first submit, whatever the trial count
        asked = []

        class CountingPool(SerialPool):
            def __init__(self, max_workers=None):
                asked.append(max_workers)

        monkeypatch.setattr(harness, "futures", mock.Mock(ProcessPoolExecutor=CountingPool))
        # more cores than trials, whatever the host has
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        spec = small_spec(trials=3)
        pooled = run_sweep(dataclasses.replace(spec, workers=10**6), keep_outcomes=True)
        assert len(asked) == 1 and 1 <= asked[0] <= 3
        serial = run_sweep(spec, keep_outcomes=True)
        assert [(o.d_true, o.d_hat) for o in pooled.outcomes[12.0]] == [
            (o.d_true, o.d_hat) for o in serial.outcomes[12.0]
        ]

    @pytest.mark.parametrize("cores", [1, 8])
    def test_one_process_runs_without_a_pool(self, monkeypatch, cores):
        # a pool of one process used to be started, which forked a process
        # and cut the trials as for a pool
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a one-process pool was started")

        monkeypatch.setattr(harness, "futures", mock.Mock(ProcessPoolExecutor=NoPool))
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cores)
        # one trial, or one core, leaves one process whatever the workers
        spec = small_spec(trials=1 if cores > 1 else 3, workers=4)
        run_sweep(spec)

    def test_seed_groups_leave_outcomes_unchanged(self, monkeypatch):
        # window seeds are derived, and WED and ED scored, a group of trials
        # at a time; the group boundaries must not show in any trial
        gaussian = dict(mixture=NoiseMixture.gaussian(), d_min=0, d_max=12)
        specs = (
            small_spec(trials=12),
            small_spec(trials=12, estimators=("wed", "ed"), **gaussian),
            small_spec(trials=12, axis="pdp_alpha", values=(0.0, 0.4)),
            small_spec(
                trials=12, axis="pdp_alpha", values=(0.4,), estimators=("aml", "wed", "ed"),
                **gaussian,
            ),
        )
        for spec in specs:
            monkeypatch.setattr(harness, "_SEED_GROUP", 64)
            whole = run_sweep(spec, keep_outcomes=True)
            for size in (1, 5):
                monkeypatch.setattr(harness, "_SEED_GROUP", size)
                grouped = run_sweep(spec, keep_outcomes=True)
                for value in spec.values:
                    assert [(o.trial_index, o.d_true, o.d_hat) for o in whole.outcomes[value]] == [
                        (o.trial_index, o.d_true, o.d_hat) for o in grouped.outcomes[value]
                    ], (spec.axis, spec.estimators, size)

    def test_chunk_layout(self, monkeypatch):
        # each _run_trials call runs one chunk of at most _SEED_GROUP trials;
        # a serial sweep cuts at every _SEED_GROUP trials
        real_run = harness._run_trials
        calls = []

        def run(spec, work, trials):
            calls.append(trials)
            return real_run(spec, work, trials)

        monkeypatch.setattr(harness, "_run_trials", run)
        monkeypatch.setattr(harness, "_SEED_GROUP", 5)
        spec = small_spec(trials=12)
        run_sweep(spec)
        assert calls == [range(0, 5), range(5, 10), range(10, 12)]
        calls.clear()
        monkeypatch.setattr(harness, "futures", mock.Mock(ProcessPoolExecutor=SerialPool))
        run_sweep(dataclasses.replace(spec, workers=2))
        assert [t for chunk in calls for t in chunk] == list(range(12))
        assert all(1 <= len(chunk) <= 5 for chunk in calls)

    def test_serial_chunks_reuse_one_workspace(self, monkeypatch):
        # the energy buffers, the energy gathers' tiles and A-ML's scratch
        # outlive a chunk: a chunk after the first finds its buffers
        # allocated, not fresh ones to fault
        real_run = harness._run_trials
        buffers = []

        def run(spec, work, trials):
            result = real_run(spec, work, trials)
            buffers.append({name: buf for name, buf in work.items()})
            return result

        monkeypatch.setattr(harness, "_run_trials", run)
        monkeypatch.setattr(harness, "_SEED_GROUP", 5)
        run_sweep(small_spec(
            trials=12, values=(6.0, 12.0), estimators=("aml", "wed", "ed"),
            mixture=NoiseMixture.gaussian(), d_min=0, d_max=8,
        ))
        assert len(buffers) == 3
        expected = {"energy0", "energy1", "aml0", "aml1", "terms", "gather_hi", "gather_lo"}
        assert expected <= buffers[0].keys()
        for later in buffers[1:]:
            assert later.keys() == buffers[0].keys()
            assert all(later[name] is buf for name, buf in buffers[0].items())
        # a point that runs only A-ML writes no energies, so it gets no buffer
        buffers.clear()
        run_sweep(small_spec(trials=3, values=(6.0, 12.0)))
        assert not any(name.startswith("energy") for name in buffers[0])

    def test_each_estimator_decides_once_per_chunk(self, monkeypatch):
        # A-ML used to decide every window as it was scored: 18 calls here,
        # 12 of them on one window's scores
        real_best = estimators._best
        shapes = []

        def best(scores, *args, **kwargs):
            shapes.append(scores.shape)
            return real_best(scores, *args, **kwargs)

        monkeypatch.setattr(estimators, "_best", best)
        monkeypatch.setattr(harness, "_SEED_GROUP", 5)
        run_sweep(small_spec(
            trials=12, estimators=("aml", "wed", "ed"), mixture=NoiseMixture.gaussian(),
            d_min=0, d_max=8,
        ))
        assert shapes == [(5, 9)] * 3 + [(5, 9)] * 3 + [(2, 9)] * 3

    def test_group_shares_one_timing_mapping(self, monkeypatch):
        # each trial of a group carries the group's mean time per estimator,
        # and a point's mean_ns is its total time over its trials, exactly: an
        # odd span leaves chunk means that round, so a mean of them is off
        clock = iter(range(0, 10**9, 1001))
        monkeypatch.setattr(harness, "time", mock.Mock(perf_counter_ns=lambda: next(clock)))
        monkeypatch.setattr(harness, "_SEED_GROUP", 5)
        spec = small_spec(
            trials=12, estimators=("aml", "wed", "ed"), mixture=NoiseMixture.gaussian(),
            d_min=0, d_max=8,
        )
        report = run_sweep(spec, keep_outcomes=True)
        outcomes = report.outcomes[spec.values[0]]
        groups = [outcomes[:5], outcomes[5:10], outcomes[10:]]
        for group in groups:
            assert all(o.elapsed_ns is group[0].elapsed_ns for o in group)
        assert len({id(group[0].elapsed_ns) for group in groups}) == 3
        # every timed span reads 1001 ns: A-ML one per trial; WED and ED
        # half of each trial's shared energy prefix (500) plus one per group
        totals = {"aml": 1001 * 12, "wed": 500 * 12 + 1001 * 3, "ed": 500 * 12 + 1001 * 3}
        for row in report.rows:
            assert row.mean_ns == totals[row.estimator] / spec.trials

    def test_unkept_sweep_memory_does_not_grow_with_trials(self):
        # every chunk used to return a TrialOutcome per trial and point, and
        # the sweep held them all to count them, outcomes kept or not (about
        # 1.8 MiB more at 640 trials than at 64)
        spec = small_spec(
            values=tuple(float(snr) for snr in range(0, 20, 2)), estimators=("wed", "ed"),
            mixture=NoiseMixture.gaussian(), d_min=0, d_max=8,
        )
        run_sweep(dataclasses.replace(spec, trials=64))  # warm caches
        peaks = []
        for trials in (64, 640):
            tracemalloc.start()
            try:
                run_sweep(dataclasses.replace(spec, trials=trials))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 256 * 2**10, peaks

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize(
        "bad, message",
        [(np.nan, "window holds non-finite samples"), (1e200, "scores are not finite")],
        ids=["nan", "overflow"],
    )
    @pytest.mark.parametrize(
        "estimators", [("wed", "ed"), ("ed", "wed"), ("aml", "wed", "ed")], ids="-".join
    )
    def test_bad_window_raises_the_per_window_error(self, monkeypatch, bad, message, estimators):
        # group scoring must refuse a bad window with the message of the
        # first public call that refuses it, and never rank a NaN
        spec = small_spec(
            trials=12, estimators=estimators, mixture=NoiseMixture.gaussian(), d_min=0, d_max=8
        )
        real_finish = harness.finish_stream
        finished, seen = [], []

        def finish(*args):
            samples = real_finish(*args)
            finished.append(samples)
            # one point, trials in order: the eighth window is trial 7's
            if len(finished) == 8:
                samples[0, 20] = bad
                seen.append(ReceivedWindow(samples, 0, SMALL, None))
            return samples

        real_argmin, real_argmax = np.argmin, np.argmax

        def finite_only(real):
            def rank(a, *args, **kwargs):
                assert np.all(np.isfinite(a)), "a non-finite score reached a decision"
                return real(a, *args, **kwargs)

            return rank

        monkeypatch.setattr(harness, "finish_stream", finish)
        monkeypatch.setattr(np, "argmin", finite_only(real_argmin))
        monkeypatch.setattr(np, "argmax", finite_only(real_argmax))
        with pytest.raises(ConfigError, match=message) as swept:
            run_sweep(spec)
        (window,) = seen
        vp = variance_profile_h0(SMALL, SMALL_PROFILE)
        mixture = scale_mixture_to_snr(spec.mixture, SMALL.signal_power, 12.0)
        hyp = HypothesisSet(0, 8)
        public = {
            "aml": lambda: aml_estimate(window, vp, mixture, hyp),
            "wed": lambda: wed_estimate(window, vp, float(mixture.variances[0]), hyp),
            "ed": lambda: ed_estimate(window, hyp),
        }
        with pytest.raises(ConfigError) as direct:
            for est in estimators:
                public[est]()
        assert str(swept.value) == str(direct.value)

    def test_antenna_axis(self):
        report = run_sweep(small_spec(axis="antennas", values=((1, 1), (2, 2)), trials=5))
        assert [r.axis_value for r in report.rows] == [(1, 1), (2, 2)]

    def test_csv_and_json_outputs(self, tmp_path):
        report = run_sweep(small_spec(trials=5))
        csv_path = tmp_path / "sweep.csv"
        json_path = tmp_path / "spec.json"
        _write_sweep(report, tmp_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("axis,value,estimator,trials,successes")
        assert len(lines) == 1 + len(report.rows)
        import json

        payload = json.loads(json_path.read_text())
        assert payload["master_seed"] == 7
        assert payload["config_hash"] == report.config_hash
        assert payload["spec"]["trials"] == 5


class TestMomentValidation:
    def test_table1_call_holds_no_full_batch(self):
        # a 20000-trial batch once held all its data blocks and their inverse
        # DFT at once (392 MiB traced); a row buffer and the tapped columns
        # take about 24 MiB
        settings = load_preset("table1")
        config = config_from_settings(settings)
        profile = profile_from_settings(settings, config.n_taps)
        mixture = mixture_from_settings(settings)
        tracemalloc.start()
        try:
            run_moment_validation(config, profile, mixture, 15.0, [1, 150], trials=20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_symmetric_model_has_no_skew(self):
        report = run_moment_validation(
            SMALL, SMALL_PROFILE, NoiseMixture.gaussian(), 15.0, [1, 30], trials=40_000,
            master_seed=3,
        )
        for row in report.rows:
            assert abs(row.mean) < 0.02
            assert abs(row.skewness) < 0.05
            assert row.analytic_mean == 0.0

    def test_empirical_variance_tracks_analytic(self):
        report = run_moment_validation(
            SMALL, SMALL_PROFILE, IMPULSIVE, 10.0, [30], trials=60_000, master_seed=4
        )
        row = report.row(30)
        assert row.variance == pytest.approx(row.analytic_variance, rel=0.03)

    def test_histogram_is_reconstructible(self, tmp_path):
        report = run_moment_validation(
            SMALL, SMALL_PROFILE, NoiseMixture.gaussian(), 12.0, [5], trials=5_000,
            master_seed=5,
        )
        hist = report.histograms[5]
        assert hist["counts"].sum() == 5_000
        assert hist["edges"].size == hist["counts"].size + 1
        assert np.all(np.diff(hist["edges"]) > 0)
        # analytic curve should integrate to ~1 over the sampled support
        width = np.diff(hist["edges"])
        assert float(np.sum(hist["analytic_pdf"] * width)) == pytest.approx(1.0, abs=0.05)
        _write_moments(report, tmp_path)
        assert (tmp_path / "hist_k5.csv").read_text().startswith("bin_lo,bin_hi,count,analytic_pdf")

    @pytest.mark.parametrize("trials", [0, -1])
    def test_empty_run_rejected(self, trials):
        with pytest.raises(ConfigError, match="trials"):
            run_moment_validation(SMALL, SMALL_PROFILE, IMPULSIVE, 10.0, [5], trials=trials)

    def test_single_trial_rejected(self):
        # one sample has a zero second moment, which the skewness divided by
        with pytest.raises(ConfigError, match="at least 2 trials"):
            run_moment_validation(SMALL, SMALL_PROFILE, IMPULSIVE, 10.0, [5], trials=1)

    def test_zero_variance_rejected(self, monkeypatch):
        def sampler(config, profile, scaled, ks, batch, rng):
            return np.full((batch, ks.size), 0.5 + 0.5j)

        monkeypatch.setattr(harness, "_batch_received_samples", sampler)
        with pytest.raises(ConfigError, match="zero variance"):
            run_moment_validation(SMALL, SMALL_PROFILE, IMPULSIVE, 10.0, [5], trials=10)

    def test_index_bounds_checked(self):
        with pytest.raises(ConfigError):
            run_moment_validation(
                SMALL, SMALL_PROFILE, IMPULSIVE, 10.0, [SMALL.block_len], trials=10
            )

    def test_gaussian_source_kurtosis_near_reference(self):
        # oracle mode: with direct Gaussian data samples the received sample is
        # a sum of Gaussian products; kurtosis is far from 3 at early indices
        cfg = dataclasses.replace(SMALL, gaussian_source=True)
        report = run_moment_validation(
            cfg, SMALL_PROFILE, NoiseMixture.gaussian(), 30.0, [1], trials=100_000,
            master_seed=6,
        )
        row = report.row(1)
        # V[1] is a sum of 4 independent Gaussian-product terms: kurtosis 3 + 6*sum(u^2)/(sum u)^2
        u = np.repeat(SMALL_PROFILE.powers[:2] / 4, 2)
        predicted = 3 + 6 * np.sum(u**2) / np.sum(u) ** 2
        assert row.kurtosis == pytest.approx(predicted, rel=0.05)


def reference_batch_received_samples(config, profile, scaled, ks, batch, rng):
    """The moment sampler as it was before it drew through the window
    generator's helpers: its own copy of the QAM/IDFT data (one antenna at
    full power), the Rayleigh taps and the mixture noise."""
    n_x = config.n_data
    if config.gaussian_source:
        s = rng.standard_normal((batch, 2 * n_x)).view(np.complex128)
        s *= np.sqrt(config.signal_power / 2.0)
    else:
        points = qam_constellation(config.mod_order)
        symbols = points[rng.integers(0, config.mod_order, size=(batch, n_x))]
        s = np.fft.ifft(symbols, axis=1) * np.sqrt(n_x * config.signal_power)
    taps = rng.standard_normal((batch, config.n_taps, 2)) @ np.array([1.0, 1.0j])
    taps *= np.sqrt(profile.powers / 2.0)
    out = np.empty((batch, ks.size), dtype=np.complex128)
    for col, k in enumerate(ks):
        acc = np.zeros(batch, dtype=np.complex128)
        for u in range(config.n_taps):
            pos = k - u
            if 0 <= pos < n_x:
                acc += taps[:, u] * s[:, pos]
        out[:, col] = acc
    comp = np.searchsorted(np.cumsum(scaled.probs), rng.random((batch, ks.size)), side="right")
    comp = np.minimum(comp, scaled.n_components - 1)
    draw = rng.standard_normal((batch, ks.size, 2)) @ np.array([1.0, 1.0j])
    out += draw * np.sqrt(scaled.variances[comp] / 2.0)
    return out


@st.composite
def moment_cases(draw):
    """A small link with QAM 4/16/128 or the Gaussian source, 1 or 2 tx
    antennas, any (also odd) n_data, 1 or 2 noise components, master seeds
    past 2**32 and batch sizes that need not divide the trial count."""
    n_taps = draw(st.integers(1, 6))
    config = SystemConfig(
        n_data=draw(st.integers(1, 70)),
        n_zero=draw(st.integers(n_taps, n_taps + 4)),
        n_taps=n_taps,
        n_blocks=1,
        n_tx=draw(st.sampled_from([1, 2])),
        mod_order=draw(st.sampled_from([4, 16, 128])),
        signal_power=draw(st.sampled_from([1.0, 2.5])),
        gaussian_source=draw(st.booleans()),
    )
    profile = DelayProfile.exponential(1.0, draw(st.sampled_from([0.05, 0.5])), n_taps)
    mixture = draw(st.sampled_from([NoiseMixture.gaussian(), IMPULSIVE]))
    ks = draw(st.lists(st.integers(0, config.block_len - 1), min_size=1, max_size=4, unique=True))
    trials = draw(st.integers(2, 300))
    seed = draw(st.sampled_from([0, 5, 2**32 - 1, 2**40 + 3]))
    batch = draw(st.integers(1, 400))
    return config, profile, mixture, ks, trials, seed, batch


class TestMomentSamplerBitExact:
    """Drawing through the window generator's helpers reproduces the
    sampler's former private model bit for bit."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(moment_cases())
    @example(  # table1 dimensions
        (SystemConfig(n_blocks=1), DelayProfile.exponential(1.0, 0.05, 10, normalized=True),
         NoiseMixture.gaussian(), [1, 150], 50, 0, 20)
    )
    @example(  # odd n_data * batch leaves a held-back integer half between batches
        (dataclasses.replace(SMALL, n_data=33), SMALL_PROFILE, NoiseMixture.gaussian(),
         [0, 7, 40], 20, 2**40 + 3, 7)
    )
    @example(  # every position in the zero tail: no data column is kept, yet
        # the blocks must still be drawn before the taps and noise
        (SystemConfig(n_blocks=1), DelayProfile.exponential(1.0, 0.05, 10, normalized=True),
         NoiseMixture.gaussian(), [531, 525], 50, 0, 20)
    )
    def test_equals_reference_sampler(self, case):
        assert_equals_reference_sampler(case)

    # the batches of up to 400 rows cross many chunk boundaries, partial last
    # chunks included
    @pytest.mark.parametrize("data_rows", [1, 2, 3])
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(moment_cases())
    @example(
        (dataclasses.replace(SMALL, n_data=33), SMALL_PROFILE, NoiseMixture.gaussian(),
         [0, 7, 40], 20, 2**40 + 3, 7)
    )
    @example(
        (dataclasses.replace(SMALL, gaussian_source=True), SMALL_PROFILE, IMPULSIVE,
         [3, 63], 30, 5, 11)
    )
    @example(  # all positions in the zero tail
        (dataclasses.replace(SMALL, n_data=33), SMALL_PROFILE, IMPULSIVE, [38, 44], 20, 0, 7)
    )
    def test_equals_reference_sampler_in_row_chunks(self, data_rows, case):
        # a budget of data_rows whole rows, and a few bytes short of one more
        row_bytes = 16 * case[0].n_data
        with mock.patch.object(harness, "_DATA_BYTES", (data_rows + 1) * row_bytes - 8):
            assert harness._data_rows(case[0].n_data, 400) == data_rows
            assert_equals_reference_sampler(case)

    def test_row_buffer_is_bounded_in_bytes(self):
        assert harness._data_rows(512, 20000) == 1024  # table1
        assert harness._data_rows(512, 300) == 300
        assert harness._data_rows(4096, 20000) * 16 * 4096 == harness._DATA_BYTES
        assert harness._data_rows(2**30, 20000) == 1


def assert_equals_reference_sampler(case):
    config, profile, mixture, ks, trials, seed, batch = case
    args = (config, profile, mixture, 12.0, ks, trials, seed)
    with mock.patch.object(harness, "_BATCH", batch):
        report = run_moment_validation(*args)
        with mock.patch.object(
            harness, "_batch_received_samples", reference_batch_received_samples
        ):
            ref = run_moment_validation(*args)
    assert report.rows == ref.rows
    assert report.trials == ref.trials
    assert report.histograms.keys() == ref.histograms.keys()
    for k, hist in ref.histograms.items():
        assert report.histograms[k].keys() == hist.keys()
        for name, values in hist.items():
            np.testing.assert_array_equal(report.histograms[k][name], values)


def _moments(**changes):
    args = dict(sample_indices=[5], trials=10, master_seed=0) | changes
    return run_moment_validation(SMALL, SMALL_PROFILE, IMPULSIVE, 10.0, **args)


def _scaling(**changes):
    args = dict(multipliers=[1, 2, 3], trials=2, master_seed=0) | changes
    return run_runtime_scaling(SMALL, **args)


@pytest.mark.parametrize(
    "run, changes, message",
    [
        (_moments, {"trials": 10.5}, "trials must be an int"),
        (_moments, {"master_seed": 2.5}, "master_seed must be an int"),
        (_moments, {"master_seed": -1}, "master_seed must be non-negative"),
        (_moments, {"sample_indices": [5.7]}, "sample indices must be ints"),
        (_moments, {"sample_indices": [True]}, "sample indices must be ints"),
        (_scaling, {"trials": 2.5}, "trials must be an int"),
        (_scaling, {"master_seed": 2.5}, "master_seed must be an int"),
        (_scaling, {"master_seed": -1}, "master_seed must be non-negative"),
        (_scaling, {"multipliers": [1, 2.5, 4]}, "sizes must be ints"),
        (_scaling, {"multipliers": ["1", "2", "3"]}, "sizes must be ints"),
    ],
)
def test_moment_and_scaling_inputs_checked(run, changes, message):
    # each of these once died inside numpy with a TypeError or ValueError,
    # or ran silently on truncated values (k=5 for 5.7, k=1 for True)
    with pytest.raises(ConfigError, match=message):
        run(**changes)


class TestPdpSensitivity:
    def test_zero_alpha_matches_plain_sweep(self):
        plain = run_sweep(small_spec(trials=25))
        sens = run_sweep(small_spec(axis="pdp_alpha", values=(0.0,), trials=25))
        assert sens.rows[0].successes == plain.rows[0].successes

    def test_alpha_rejected_at_one(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(
                config=SMALL, profile=SMALL_PROFILE, mixture=IMPULSIVE,
                axis="pdp_alpha", values=(0.0, 1.0), trials=5,
            )

    def test_shared_randomness_across_alphas(self):
        report = run_sweep(
            small_spec(axis="pdp_alpha", values=(0.0, 0.5), trials=10, master_seed=8)
        )
        assert len(report.rows) == 2
        assert report.rows[0].trials == report.rows[1].trials == 10

    def test_chunk_keeps_no_aml_plan_per_trial(self):
        # each trial's perturbed A-ML plan used to be held until its chunk
        # ended (a 64-trial chunk traced about 4 MiB against 0.6 at 8
        # trials); only WED and ED read their per-trial plans after the window
        run_sweep(small_spec(axis="pdp_alpha", values=(0.2, 0.5), trials=2))  # warm caches
        peaks = []
        for trials in (8, 64):
            spec = small_spec(axis="pdp_alpha", values=(0.2, 0.5), trials=trials)
            tracemalloc.start()
            try:
                run_sweep(spec)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0], peaks


class TestRuntimeScaling:
    def test_linear_complexity_smoke(self):
        # large enough that per-call overhead does not swamp the scaling;
        # the acceptance suite pins tight bounds at full size
        cfg = dataclasses.replace(SMALL, n_data=512, n_zero=20, n_taps=10, n_blocks=4)
        report = run_runtime_scaling(cfg, [1, 2, 4], trials=5, master_seed=9)
        assert len(report.rows) == 3
        assert report.rows[0].window_len * 2 == report.rows[1].window_len
        for row in report.rows:
            assert row.ed_mean_ns < row.aml_mean_ns
            assert row.aml_min_ns <= row.aml_mean_ns
        assert 0.5 < report.loglog_slope < 1.7

    def test_empty_run_rejected(self):
        with pytest.raises(ConfigError, match="trials"):
            run_runtime_scaling(SMALL, [1, 2, 4], trials=0)

    def test_needs_three_sizes(self):
        with pytest.raises(ConfigError):
            run_runtime_scaling(SMALL, [1, 2], trials=3)

    @pytest.mark.parametrize("sizes", [[1, 1, 1], [1, 2, 2, 1], [0, 1, 2], [-1, 1, 2]])
    def test_needs_three_distinct_sizes_of_at_least_one(self, sizes):
        message = "at least 3 sizes >= 1" if min(sizes) < 1 else "sizes must not repeat"
        with pytest.raises(ConfigError, match=message):
            run_runtime_scaling(SMALL, sizes, trials=3)

    def test_rejects_repeated_size(self):
        # three distinct sizes used to let a repeat through: it was timed
        # twice and counted twice in the slope fit
        with pytest.raises(ConfigError, match="sizes must not repeat, got 1 twice"):
            harness.check_scaling_run(SMALL, [1, 1, 2, 4], trials=3, master_seed=0)

    def test_caller_link_reaches_estimator(self, monkeypatch):
        profiles, mixtures = [], []
        real_assemble, real_aml = harness.assemble_window, harness.aml_estimate

        def assemble(config, profile, *args, **kwargs):
            profiles.append(profile)
            return real_assemble(config, profile, *args, **kwargs)

        def spy(window, vp, mixture, hyp):
            mixtures.append(mixture)
            return real_aml(window, vp, mixture, hyp)

        monkeypatch.setattr(harness, "assemble_window", assemble)
        monkeypatch.setattr(harness, "aml_estimate", spy)
        run_runtime_scaling(
            SMALL, [1, 2, 3], trials=1, profile=SMALL_PROFILE, mixture=IMPULSIVE
        )
        assert len(profiles) == len(mixtures) == 3 * (1 + 3)  # warm-up calls included
        assert all(profile is SMALL_PROFILE for profile in profiles)
        for mixture in mixtures:
            np.testing.assert_array_equal(mixture.probs, IMPULSIVE.probs)
            assert mixture.variances[1] / mixture.variances[0] == pytest.approx(100.0)
