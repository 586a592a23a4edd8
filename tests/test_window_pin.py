"""The window generator's output, pinned bit for bit.

A change to how windows are drawn (which generator calls, in which order,
how much of the stream) that is meant to leave them identical must leave
these digests as they are. The decision digests pin only what the
estimators decide; these pin every sample.
"""

import hashlib

import numpy as np
import pytest

from zpsync import assemble_window, scale_mixture_to_snr
from zpsync.presets import (
    config_from_settings,
    load_preset,
    mixture_from_settings,
    profile_from_settings,
)

PINNED = {
    ("fig2", (1, 1)): "2833f123591144c11b1fc7e46fd3053887c7e26d192e100b32d666989f23ed2c",
    ("fig2", (2, 2)): "373e7b1df1b5e270dc844d90f9585690c04afdbb6930fe94e77b0b99dfce6145",
    ("fig4", (1, 1)): "d9b8e62856e96f85dc148557d047339b81b479ca1860babf2b0627c516039614",
    ("fig4", (2, 2)): "a55e2a3d8ee9b60acb122371229b92a19619040ee5344a1dfb21e81cd7145323",
    ("fig5", (1, 1)): "9096220031301e661ea10a17851eda28e476d8ad7ff93385c4391d0dddf313fb",
    ("fig5", (2, 2)): "9902e2f0082248ffa7b0ccf89126e82dc6ffc59196accb2269add041053fe85d",
}


@pytest.mark.parametrize(
    "preset, antennas", list(PINNED), ids=[f"{p}-{a[0]}x{a[1]}" for p, a in PINNED]
)
def test_windows_are_pinned(preset, antennas):
    # each preset's link at its own SNR and noise, the sweep's pre-pad, the
    # first, zero and last offset of its hypothesis set, and two seeds
    settings = {**load_preset(preset), "n_tx": antennas[0], "n_rx": antennas[1]}
    config = config_from_settings(settings)
    profile = profile_from_settings(settings, config.n_taps)
    mixture = scale_mixture_to_snr(mixture_from_settings(settings), 1.0, config.snr_db)
    d_min, d_max = settings["d_min"], settings["d_max"]
    digest = hashlib.sha256()
    for seed in ((0, 3), (2**33, 11)):
        for d_true in (d_min, 0, d_max):
            window = assemble_window(config, profile, mixture, d_true, seed, max(0, -d_min))
            assert window.samples.shape == (antennas[1], config.window_len)
            digest.update(np.ascontiguousarray(window.samples).tobytes())
    assert digest.hexdigest() == PINNED[preset, antennas]
