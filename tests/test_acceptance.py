"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured numbers.

Every run is pinned to a fixed master seed, desk-scale trial counts match the
criterion statements, and thresholds are asserted exactly as specified. Run
with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import time

import numpy as np
from scipy import integrate

from zpsync import (
    DelayProfile,
    NoiseMixture,
    SystemConfig,
    aml_estimate,
    assemble_window,
    b_function,
    p_function,
    profile_window,
    scale_mixture_to_snr,
    variance_profile_h0,
    wed_estimate,
    window_loglik,
)
from zpsync.channel import substream
from zpsync.estimators import HypothesisSet
from zpsync.harness import (
    ExperimentSpec,
    run_moment_validation,
    run_runtime_scaling,
    run_sweep,
)
from zpsync.presets import (
    config_from_settings,
    load_preset,
    merge_settings,
    mixture_from_settings,
    profile_from_settings,
    spec_from_settings,
)


def check(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def sweep_from_preset(preset: str, seed: int, **overrides):
    settings = merge_settings(load_preset(preset), overrides)
    return run_sweep(
        spec_from_settings(settings, master_seed=seed),
        keep_outcomes=overrides.pop("_keep", False),
    )


def non_decreasing_up_to_overlap(rows) -> bool:
    """A decrease between consecutive points only counts when their Wilson
    intervals do not overlap."""
    for prev, cur in zip(rows, rows[1:]):
        if cur.lock_in < prev.lock_in and prev.ci_lo > cur.ci_hi:
            return False
    return True


def test_c01_moment_validation_table():
    t0 = time.perf_counter()
    settings = load_preset("table1")
    config = config_from_settings(settings)
    report = run_moment_validation(
        config=config,
        profile=profile_from_settings(settings, config.n_taps),
        mixture=mixture_from_settings(settings),
        snr_db=15.0,
        sample_indices=[1, 150],
        trials=100_000,
        master_seed=101,
    )
    elapsed = time.perf_counter() - t0
    r1, r150 = report.row(1), report.row(150)
    var_rel = abs(r150.variance - r150.analytic_variance) / r150.analytic_variance
    check(
        "C1 variance@150",
        var_rel <= 0.02,
        f"empirical {r150.variance:.4f} vs analytic {r150.analytic_variance:.4f} ({var_rel:.2%})",
    )
    check("C1 kurtosis@150", 3.1 <= r150.kurtosis <= 3.5, f"{r150.kurtosis:.3f} in [3.1, 3.5]")
    check("C1 kurtosis@1", 4.0 <= r1.kurtosis <= 4.9, f"{r1.kurtosis:.3f} in [4.0, 4.9]")
    check(
        "C1 skewness",
        abs(r1.skewness) < 0.05 and abs(r150.skewness) < 0.05,
        f"|{r1.skewness:.4f}|, |{r150.skewness:.4f}| < 0.05",
    )
    check("C1 runtime", elapsed <= 150.0, f"{elapsed:.1f} s for 1e5 trials (cap 150 s)")


def test_c02_high_snr_consistency():
    report = sweep_from_preset("fig2", seed=102, values=[40.0], trials=200)
    lock_in = report.rows[0].lock_in
    check("C2 lock-in@40dB", lock_in >= 0.99, f"{lock_in:.3f} over 200 trials (>= 0.99)")


def test_c03_snr_monotonicity():
    report = sweep_from_preset("fig2", seed=103, trials=500)
    rows = sorted(report.rows, key=lambda r: r.axis_value)
    curve = " ".join(f"{r.axis_value:g}:{r.lock_in:.3f}" for r in rows)
    check("C3 monotone in SNR", non_decreasing_up_to_overlap(rows), curve)
    top = rows[-1].lock_in
    check("C3 lock-in@20dB", top >= 0.9, f"{top:.3f} (>= 0.9)")


def test_c04_observation_count_monotonicity():
    report = sweep_from_preset("fig3", seed=104, trials=500)
    rows = sorted(report.rows, key=lambda r: r.axis_value)
    curve = " ".join(f"N={r.axis_value}:{r.lock_in:.3f}" for r in rows)
    values = [r.lock_in for r in rows]
    check("C4 monotone in N", all(a <= b for a, b in zip(values, values[1:])), curve)


def test_c05_wed_aml_argmax_equivalence():
    config = SystemConfig(snr_db=10.0)
    profile = DelayProfile.exponential(1.0, 0.05, 10, normalized=True)
    scaled = scale_mixture_to_snr(NoiseMixture.gaussian(), 1.0, 10.0)
    vp = variance_profile_h0(config, profile)
    hyp = HypothesisSet(0, 531)
    agree = 0
    trials = 100
    for t in range(trials):
        d_true = int(substream(105, t, 4).integers(0, 532))
        window = assemble_window(config, profile, scaled, d_true, seed=(105, t), d_pad=0)
        a = aml_estimate(window, vp, scaled, hyp)
        w = wed_estimate(window, vp, float(scaled.variances[0]), hyp)
        agree += a.d_hat == w.d_hat
    check("C5 WED==A-ML", agree == trials, f"{agree}/{trials} identical decisions over d in [0,531]")


def test_c06_ed_vs_wed():
    report = sweep_from_preset("fig4", seed=106, values=[0.0, 20.0], trials=500)
    vals = {(r.axis_value, r.estimator): r.lock_in for r in report.rows}
    gap20 = abs(vals[(20.0, "ed")] - vals[(20.0, "wed")])
    check(
        "C6 |ED-WED|@20dB",
        gap20 <= 0.05,
        f"wed {vals[(20.0, 'wed')]:.3f} vs ed {vals[(20.0, 'ed')]:.3f} (gap {gap20:.3f} <= 0.05)",
    )
    check(
        "C6 WED>=ED@0dB",
        vals[(0.0, "wed")] >= vals[(0.0, "ed")],
        f"wed {vals[(0.0, 'wed')]:.3f} >= ed {vals[(0.0, 'ed')]:.3f}",
    )


def test_c07_mimo_gain():
    report = sweep_from_preset(
        "fig5", seed=107, values=["1x1", "2x2"], trials=500
    )
    siso = next(r for r in report.rows if r.axis_value == (1, 1))
    mimo = next(r for r in report.rows if r.axis_value == (2, 2))
    check(
        "C7 MIMO gain@5dB",
        mimo.ci_lo > siso.ci_hi,
        f"2x2 [{mimo.ci_lo:.3f},{mimo.ci_hi:.3f}] above 1x1 [{siso.ci_lo:.3f},{siso.ci_hi:.3f}]",
    )


def test_c08_impulsiveness_trend():
    report = sweep_from_preset("fig6", seed=108, trials=500)
    rows = sorted(report.rows, key=lambda r: r.axis_value)
    curve = " ".join(f"p0={r.axis_value}:{r.lock_in:.3f}" for r in rows)
    values = [r.lock_in for r in rows]
    check("C8 monotone in p0", all(a <= b for a, b in zip(values, values[1:])), curve)


def test_c09_pdp_error_sensitivity():
    settings = load_preset("fig7")
    config = config_from_settings(settings)
    report = run_sweep(
        ExperimentSpec(
            config=config,
            profile=profile_from_settings(settings, config.n_taps),
            mixture=mixture_from_settings(settings),
            axis="pdp_alpha",
            values=(0.0, 0.7),
            trials=1000,
            master_seed=109,
            d_min=int(settings["d_min"]),
            d_max=int(settings["d_max"]),
        )
    )
    base = report.lock_in(0.0)
    perturbed = report.lock_in(0.7)
    loss = base - perturbed
    check(
        "C9 loss@alpha=0.7",
        loss <= 0.05 + 0.03,
        f"lock-in {base:.3f} -> {perturbed:.3f}, loss {loss:+.3f} (<= 0.08)",
    )


def test_c10_runtime_scaling():
    report = run_runtime_scaling(SystemConfig(snr_db=10.0), [1, 2, 4], trials=16, master_seed=110)
    sizes = " ".join(f"m={r.window_len}:{r.aml_min_ns/1e6:.1f}ms" for r in report.rows)
    check(
        "C10 log-log slope",
        0.8 <= report.loglog_slope <= 1.3,
        f"slope {report.loglog_slope:.3f} over {sizes}",
    )
    ratios = [
        b.aml_min_ns / a.aml_min_ns for a, b in zip(report.rows, report.rows[1:])
    ]
    check(
        "C10 doubling cost",
        all(r <= 2.5 for r in ratios),
        "ratios " + " ".join(f"{r:.2f}" for r in ratios) + " (<= 2.5)",
    )
    check(
        "C10 ED faster than A-ML",
        all(r.ed_min_ns < r.aml_min_ns for r in report.rows),
        " ".join(f"{r.ed_min_ns/1e3:.0f}us<{r.aml_min_ns/1e3:.0f}us" for r in report.rows),
    )


def test_c11_unit_oracles():
    mixture = NoiseMixture(np.array([0.99, 0.01]), np.array([1.0, 100.0]))

    def gaussian_pdf(x, var):
        return np.exp(-(x**2) / (2 * var)) / np.sqrt(2 * np.pi * var)

    worst = 0.0
    for y in (-1.5, 0.2, 2.5):
        for t in (0.3, 1.1):
            quad_val = sum(
                p
                * integrate.quad(
                    lambda s: gaussian_pdf(y - s, v / 2) * gaussian_pdf(s, t),
                    -np.inf,
                    np.inf,
                )[0]
                for p, v in zip(mixture.probs, mixture.variances)
            )
            rel = abs(float(b_function(y, t, mixture)) - quad_val) / quad_val
            worst = max(worst, rel)
            c = complex(y, -y / 2)
            p_quad = quad_val * sum(
                p
                * integrate.quad(
                    lambda s: gaussian_pdf(-y / 2 - s, v / 2) * gaussian_pdf(s, t),
                    -np.inf,
                    np.inf,
                )[0]
                for p, v in zip(mixture.probs, mixture.variances)
            )
            rel_p = abs(float(p_function(c, t, mixture)) - p_quad) / p_quad
            worst = max(worst, rel_p)
    check("C11 quadrature oracle", worst <= 1e-6, f"max relative error {worst:.2e} (<= 1e-6)")

    rng = np.random.default_rng(111)
    vp = variance_profile_h0(
        SystemConfig(n_data=8, n_zero=4, n_taps=2, n_blocks=1, mod_order=16),
        DelayProfile(np.array([0.7, 0.3])),
    )
    worst_bf = 0.0
    for m in (5, 20):
        y = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * 0.7
        for d in (-3, 0, 2):
            kappa = profile_window(vp, d, m)
            brute = np.prod([float(p_function(y[k], kappa[k], mixture)) for k in range(m)])
            rel = abs(np.exp(window_loglik(y, d, vp, mixture).loglik) - brute) / brute
            worst_bf = max(worst_bf, rel)
    check("C11 brute-force product", worst_bf <= 1e-9, f"max relative error {worst_bf:.2e} (<= 1e-9)")

    long_seq = np.concatenate([np.zeros(40), np.tile(vp.body, 5)])
    exact = all(
        np.array_equal(profile_window(vp, d, m), long_seq[40 + d : 40 + d + m])
        for d in (-40, -1, 0, 7, 11)
        for m in (1, 12, 30)
    )
    check("C11 window slicing", exact, "profile_window == materialized sequence, bit-exact")

    config = SystemConfig(n_data=64, n_zero=12, n_taps=6, n_blocks=2, mod_order=16)
    profile = DelayProfile.exponential(1.0, 0.2, 6, normalized=True)
    scaled = scale_mixture_to_snr(mixture, 1.0, 10.0)
    w1 = assemble_window(config, profile, scaled, 3, seed=(111, 8), d_pad=10)
    w2 = assemble_window(config, profile, scaled, 3, seed=(111, 8), d_pad=10)
    same = np.array_equal(w1.samples, w2.samples)
    check("C11 determinism", same, "identical seeds give bit-identical windows")
