import dataclasses
import json
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
    SystemConfig,
    aml_estimate,
    ed_estimate,
    harness,
    qam_constellation,
    scale_mixture_to_snr,
    variance_profile_h0,
    wed_estimate,
)
from zpsync.harness import (
    ExperimentSpec,
    histogram_to_csv,
    moments_to_csv,
    run_moment_validation,
    run_runtime_scaling,
    run_sweep,
    spec_hash,
    sweep_to_csv,
    sweep_to_json,
    wilson_interval,
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

    def test_reversed_range_rejected(self):
        with pytest.raises(ConfigError, match="empty hypothesis set"):
            small_spec(d_min=5, d_max=4)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ConfigError, match="workers"):
            small_spec(workers=workers)

    def test_hash_ignores_workers(self, tmp_path):
        # serial and parallel runs are identical, so they share a hash; the
        # sidecar still records the worker count
        serial, parallel = small_spec(), small_spec(workers=4)
        assert spec_hash(serial) == spec_hash(parallel)
        assert spec_hash(serial) != spec_hash(small_spec(trials=21))
        sweep_to_json(harness.SweepReport(parallel, rows=()), tmp_path / "spec.json")
        payload = json.loads((tmp_path / "spec.json").read_text())
        assert payload["config_hash"] == spec_hash(serial)
        assert payload["spec"]["workers"] == 4


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

        class CountingPool(harness.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
        values = (6.0, 12.0)
        serial = run_sweep(small_spec(trials=12, values=values), keep_outcomes=True)
        parallel = run_sweep(small_spec(trials=12, values=values, workers=2), keep_outcomes=True)
        assert len(pools) == 1  # one pool for the whole sweep, not one per value
        assert serial.rows[0].successes == parallel.rows[0].successes
        assert serial.rows[0].lock_in == parallel.rows[0].lock_in
        untimed = [dataclasses.replace(row, mean_ns=0.0) for row in serial.rows]
        assert untimed == [dataclasses.replace(row, mean_ns=0.0) for row in parallel.rows]
        for value in values:
            assert [(o.trial_index, o.d_true, o.d_hat) for o in serial.outcomes[value]] == [
                (o.trial_index, o.d_true, o.d_hat) for o in parallel.outcomes[value]
            ]

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

    def test_group_shares_one_timing_mapping(self, monkeypatch):
        # each trial of a group carries the group's mean time per estimator,
        # so a point's mean_ns is its total time over its trials
        clock = iter(range(0, 10**9, 1000))
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
        # every timed span reads 1000 ns: A-ML one per trial; WED and ED
        # half of each trial's shared energy prefix plus one per group
        totals = {"aml": 1000 * 12, "wed": 500 * 12 + 1000 * 3, "ed": 500 * 12 + 1000 * 3}
        for row in report.rows:
            assert row.mean_ns == pytest.approx(totals[row.estimator] / spec.trials, abs=1.0)

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
        real_assemble = harness.assemble_window
        seen = []

        def assemble(*args, **kwargs):
            window = real_assemble(*args, **kwargs)
            if window.seed[1] == 7:
                window.samples[0, 20] = bad
                seen.append(window)
            return window

        real_argmin, real_argmax = np.argmin, np.argmax

        def finite_only(real):
            def rank(a, *args, **kwargs):
                assert np.all(np.isfinite(a)), "a non-finite score reached a decision"
                return real(a, *args, **kwargs)

            return rank

        monkeypatch.setattr(harness, "assemble_window", assemble)
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
        sweep_to_csv(report, csv_path)
        sweep_to_json(report, json_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("axis,value,estimator,trials,successes")
        assert len(lines) == 1 + len(report.rows)
        import json

        payload = json.loads(json_path.read_text())
        assert payload["master_seed"] == 7
        assert payload["config_hash"] == report.config_hash
        assert payload["spec"]["trials"] == 5


class TestMomentValidation:
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
        moments_to_csv(report, tmp_path / "moments.csv")
        histogram_to_csv(report, 5, tmp_path / "hist.csv")
        assert (tmp_path / "hist.csv").read_text().startswith("bin_lo,bin_hi,count,analytic_pdf")

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

    @pytest.mark.parametrize("batch", [0, -2])
    def test_empty_batch_rejected(self, batch, monkeypatch):
        # a batch of 0 used to loop forever; fail instead of hanging if it regresses
        def sampler(*args):
            raise AssertionError("sampler reached with an empty batch")

        monkeypatch.setattr(harness, "_batch_received_samples", sampler)
        with pytest.raises(ConfigError, match="batch"):
            run_moment_validation(
                SMALL, SMALL_PROFILE, IMPULSIVE, 10.0, [5], trials=10, batch=batch
            )

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
    def test_equals_reference_sampler(self, case):
        config, profile, mixture, ks, trials, seed, batch = case
        args = (config, profile, mixture, 12.0, ks, trials, seed, batch)
        report = run_moment_validation(*args)
        with mock.patch.object(
            harness, "_batch_received_samples", reference_batch_received_samples
        ):
            ref = run_moment_validation(*args)
        assert report.rows == ref.rows
        assert (report.trials, report.snr_db, report.master_seed) == (
            ref.trials, ref.snr_db, ref.master_seed
        )
        assert report.histograms.keys() == ref.histograms.keys()
        for k, hist in ref.histograms.items():
            assert report.histograms[k].keys() == hist.keys()
            for name, values in hist.items():
                np.testing.assert_array_equal(report.histograms[k][name], values)


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
        with pytest.raises(ConfigError, match="distinct sizes >= 1"):
            run_runtime_scaling(SMALL, sizes, trials=3)

    def test_caller_link_reaches_estimator(self, monkeypatch):
        seen = []
        original = harness.aml_estimate

        def spy(window, vp, mixture, hyp):
            seen.append((window.profile, mixture))
            return original(window, vp, mixture, hyp)

        monkeypatch.setattr(harness, "aml_estimate", spy)
        run_runtime_scaling(
            SMALL, [1, 2, 3], trials=1, profile=SMALL_PROFILE, mixture=IMPULSIVE
        )
        assert len(seen) == 3 * (1 + 3)  # warm-up calls included
        for profile, mixture in seen:
            assert profile is SMALL_PROFILE
            np.testing.assert_array_equal(mixture.probs, IMPULSIVE.probs)
            assert mixture.variances[1] / mixture.variances[0] == pytest.approx(100.0)
