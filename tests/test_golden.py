"""Golden per-trial decisions at fixed seeds.

The vectors below were recorded from the per-sample gather implementation of
the estimators. Any refactor of the scoring path must reproduce them exactly:
passing the acceptance thresholds is not enough to call a change
decision-identical.
"""

from dataclasses import replace

import pytest

from zpsync import presets
from zpsync.harness import run_sweep

SEED = 2020
TRIALS = 10

FIG2_FULL_RANGE = {
    "d_true": [42, 207, 373, 218, 255, 143, 166, 365, 354, 45],
    "aml": [42, 206, 372, 218, 257, 143, 166, 364, 353, 45],
    "wed": [42, 206, 372, 218, 257, 143, 166, 364, 353, 45],
    "ed": [43, 208, 374, 218, 257, 143, 166, 364, 352, 45],
}

FIG5_IMPULSIVE = {
    (1, 1): {
        "d_true": [-26, -7, 12, -5, -1, -14, -11, 11, 10, -25],
        "aml": [-27, -8, 11, -5, 1, -13, -11, 10, 9, -26],
    },
    (2, 2): {
        "d_true": [-26, -7, 12, -5, -1, -14, -11, 11, 10, -25],
        "aml": [-26, -7, 12, -5, -1, -13, -11, 11, 10, -25],
    },
}

# fig3 (impulsive, 10 dB) at two block counts: the period count the
# estimator folds over changes with n_blocks
FIG3_BLOCKS = {
    2: {
        "d_true": [-26, -7, 12, -5, -1, -14, -11, 11, 10, -25],
        "aml": [-27, -9, 10, -5, 0, -14, -11, 11, 10, -25],
    },
    20: {
        "d_true": [-26, -7, 12, -5, -1, -14, -11, 11, 10, -25],
        "aml": [-27, -8, 11, -5, 0, -14, -11, 10, 9, -25],
    },
}

# fig7 (impulsive) at 10 dB: every trial scores against its own perturbed
# variance profile, whose constant-class runs differ from the true one's
FIG7_PERTURBED = {
    0.3: {
        "d_true": [-26, -7, 12, -5, -1, -14, -11, 11, 10, -25],
        "aml": [-27, -8, 11, -5, 1, -13, -11, 10, 9, -25],
    },
    0.7: {
        "d_true": [-26, -7, 12, -5, -1, -14, -11, 11, 10, -25],
        "aml": [-27, -10, 11, -6, 0, -12, -11, 10, 9, -25],
    },
}

# fig6 (impulsive, 0 dB) at three nominal weights: each point anchors the
# nominal component to the SNR, so only the impulse rate changes
FIG6_D_TRUE = [-26, -7, 12, -5, -1, -14, -11, 11, 10, -25]
FIG6_IMPULSIVENESS = {
    0.9: {"d_true": FIG6_D_TRUE, "aml": [-28, -8, 11, -1, 1, -13, -11, 10, 8, -27]},
    0.99: {"d_true": FIG6_D_TRUE, "aml": [-28, -8, 11, -4, 1, -12, -11, 10, 8, -27]},
    0.999: {"d_true": FIG6_D_TRUE, "aml": [-27, -9, 11, -3, 1, -12, -11, 10, 8, -27]},
}

# fig4 (Gaussian) WED and ED at two block counts: ED reads the zero tail of
# each of the n_blocks blocks in the window
FIG4_D_TRUE = [2, 12, 21, 12, 14, 8, 9, 21, 20, 2]
FIG4_ENERGY = {
    1: {
        0: {"d_true": FIG4_D_TRUE,
            "wed": [6, 1, 15, 12, 23, 9, 7, 22, 18, 0],
            "ed": [7, 10, 22, 9, 30, 17, 6, 25, 20, 10]},
        20: {"d_true": FIG4_D_TRUE,
             "wed": [2, 10, 21, 12, 15, 8, 9, 21, 20, 2],
             "ed": [2, 11, 21, 14, 14, 8, 9, 21, 20, 2]},
    },
    10: {
        0: {"d_true": FIG4_D_TRUE,
            "wed": [0, 11, 20, 13, 14, 9, 9, 20, 18, 0],
            "ed": [7, 13, 18, 17, 16, 9, 8, 20, 18, 5]},
        20: {"d_true": FIG4_D_TRUE,
             "wed": [2, 11, 21, 12, 15, 8, 9, 21, 20, 2],
             "ed": [2, 13, 21, 12, 14, 8, 9, 21, 20, 2]},
    },
}


def _decisions(preset: str, overrides: dict) -> dict:
    settings = presets.merge_settings(presets.load_preset(preset), overrides)
    spec = replace(presets.spec_from_settings(settings, master_seed=SEED), trials=TRIALS)
    report = run_sweep(spec, keep_outcomes=True)
    return {
        value: {
            "d_true": [o.d_true for o in outcomes],
            **{est: [o.d_hat[est] for o in outcomes] for est in spec.estimators},
        }
        for value, outcomes in report.outcomes.items()
    }


def test_fig2_full_range_gaussian_10db():
    got = _decisions(
        "fig2",
        {"values": [10], "noise": "gaussian", "d_min": 0, "d_max": 531,
         "estimators": ["aml", "wed", "ed"]},
    )
    assert got == {10: FIG2_FULL_RANGE}


@pytest.mark.parametrize("antennas", sorted(FIG5_IMPULSIVE))
def test_fig5_impulsive_5db(antennas):
    label = f"{antennas[0]}x{antennas[1]}"
    got = _decisions("fig5", {"values": [label], "snr_db": 5, "d_min": -30, "d_max": 30})
    assert got == {antennas: FIG5_IMPULSIVE[antennas]}


def test_fig3_impulsive_block_counts():
    got = _decisions("fig3", {"values": sorted(FIG3_BLOCKS)})
    assert got == FIG3_BLOCKS


def test_fig7_perturbed_profiles_10db():
    got = _decisions(
        "fig7", {"axis": "pdp_alpha", "values": sorted(FIG7_PERTURBED), "snr_db": 10}
    )
    assert got == FIG7_PERTURBED


def test_fig6_impulsiveness_points():
    got = _decisions("fig6", {"values": sorted(FIG6_IMPULSIVENESS)})
    assert got == FIG6_IMPULSIVENESS


@pytest.mark.parametrize("n_blocks", sorted(FIG4_ENERGY))
def test_fig4_energy_detectors(n_blocks):
    got = _decisions("fig4", {"values": [0, 20], "n_blocks": n_blocks})
    assert got == FIG4_ENERGY[n_blocks]
