"""The public estimators' scores, pinned bit for bit.

A change to how A-ML, WED or ED score a window (the fold, the gathers, the
order of the sums) that is meant to leave every score identical must leave
these digests as they are. The window digests pin what is scored; these pin
every score of every hypothesis, not only the decision.
"""

import hashlib

import numpy as np
import pytest

from zpsync import (
    HypothesisSet,
    aml_estimate,
    assemble_window,
    ed_estimate,
    scale_mixture_to_snr,
    variance_profile_h0,
    wed_estimate,
)
from zpsync.presets import (
    config_from_settings,
    load_preset,
    merge_settings,
    mixture_from_settings,
    parse_antennas,
    profile_from_settings,
)

# (preset, overrides, hypothesis set or None for the preset's own)
CASES = {
    "fig2-gaussian-full-range": ("fig2", {"noise": "gaussian", "values": [10]}, (0, 531)),
    "fig2-gaussian-wide": ("fig2", {"noise": "gaussian", "values": [10]}, (-200, 300)),
    "fig2-impulsive": ("fig2", {}, None),
    "fig3": ("fig3", {}, None),
    "fig4": ("fig4", {}, None),
    "fig5": ("fig5", {}, None),
}

PINNED = {
    "fig2-gaussian-full-range": "8b94e0a1b44177b8a9d7a811fbdb3780c5a42d49b4121eada1b46e17cc8d5248",
    "fig2-gaussian-wide": "2287df04e2973496e98331008dfcbded6b954d08c30e765c086791dfbf588001",
    "fig2-impulsive": "5a4133f151ef9886eda242a41502baddfa71f5a3e382f7ed3e6e3692deec7a78",
    "fig3": "f2a9b2f23e44dde9b83dfd1c47bd0abf9dfac3dc2c9379f77f26cf52cfb7cf33",
    "fig4": "b73b44ded5a03f7f6d0d9cf5f3cc41e9509d9e87a33bcb34376751cd47057f7a",
    "fig5": "25a6c013b75ae4d3575808cdba9ff4b0b5f800bb90c3958f13fe8d999a18850f",
}


def point_settings(settings: dict, value) -> dict:
    """The settings of one point of the preset's axis."""
    axis = settings["axis"]
    if axis == "antennas":
        n_tx, n_rx = parse_antennas(value)
        return {**settings, "n_tx": n_tx, "n_rx": n_rx}
    return {**settings, axis: value}


@pytest.mark.parametrize("case", list(CASES))
def test_scores_are_pinned(case):
    # every point of the axis, the sweep's pre-pad, the first, zero and
    # last offset of the hypothesis set and two seeds; A-ML on every
    # window, WED and ED where the set has no negative offset
    preset, overrides, bounds = CASES[case]
    settings = merge_settings(load_preset(preset), overrides)
    d_min, d_max = bounds or (settings["d_min"], settings["d_max"])
    hyp = HypothesisSet(d_min, d_max)
    digest = hashlib.sha256()
    for value in settings["values"]:
        point = point_settings(settings, value)
        config = config_from_settings(point)
        profile = profile_from_settings(point, config.n_taps)
        mixture = scale_mixture_to_snr(
            mixture_from_settings(point), config.signal_power, config.snr_db
        )
        vp = variance_profile_h0(config, profile)
        for seed in ((0, 3), (2**33, 11)):
            for d_true in (d_min, 0, d_max):
                window = assemble_window(config, profile, mixture, d_true, seed, max(0, -d_min))
                results = [aml_estimate(window, vp, mixture, hyp)]
                if d_min >= 0:
                    noise_var = float(mixture.variances[0])
                    results += [wed_estimate(window, vp, noise_var, hyp), ed_estimate(window, hyp)]
                for result in results:
                    assert result.scores.shape == (hyp.size,)
                    digest.update(np.ascontiguousarray(result.scores).tobytes())
    assert digest.hexdigest() == PINNED[case]
