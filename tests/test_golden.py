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
