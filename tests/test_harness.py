import dataclasses
import json

import numpy as np
import pytest

from zpsync import ConfigError, DelayProfile, NoiseMixture, SystemConfig, harness
from zpsync.harness import (
    ExperimentSpec,
    histogram_to_csv,
    moments_to_csv,
    run_moment_validation,
    run_pdp_sensitivity,
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

    def test_empty_values(self):
        with pytest.raises(ConfigError):
            small_spec(values=())

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

    def test_worker_pool_matches_serial(self):
        serial = run_sweep(small_spec(trials=12))
        parallel = run_sweep(small_spec(trials=12, workers=2))
        assert serial.rows[0].successes == parallel.rows[0].successes
        assert serial.rows[0].lock_in == parallel.rows[0].lock_in

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


class TestPdpSensitivity:
    def test_zero_alpha_matches_plain_sweep(self):
        plain = run_sweep(small_spec(trials=25))
        sens = run_pdp_sensitivity(
            SMALL, SMALL_PROFILE, IMPULSIVE, [0.0], trials=25, master_seed=7,
            d_min=-8, d_max=8,
        )
        assert sens.rows[0].successes == plain.rows[0].successes

    def test_alpha_rejected_at_one(self):
        with pytest.raises(ConfigError):
            run_pdp_sensitivity(SMALL, SMALL_PROFILE, IMPULSIVE, [0.0, 1.0], trials=5)

    def test_shared_randomness_across_alphas(self):
        report = run_pdp_sensitivity(
            SMALL, SMALL_PROFILE, IMPULSIVE, [0.0, 0.5], trials=10, master_seed=8,
            d_min=-8, d_max=8,
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
