"""Moment validation's statistics, pinned bit for bit.

A change to how the moment sampler draws its blocks, taps or noise that is
meant to leave the samples identical must leave these digests as they are.
Each digest covers a report's rows (k, mean, variance, skewness, kurtosis)
and its histogram counts. A change that means to move them, such as a new
definition of a statistic, states why where it updates them.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from zpsync import NoiseMixture
from zpsync.harness import run_moment_validation
from zpsync.presets import config_from_settings, load_preset, profile_from_settings

MIXTURES = {"impulsive": NoiseMixture.impulsive(), "gaussian": NoiseMixture.gaussian()}

PINNED = {
    ("impulsive", 0): "d8c2b483e595674da29be327b7c231755a7f0a30f252ce79f8641aa654b1ad34",
    ("impulsive", 3): "8756638052fa40df32f5815168cb6e51a11d6337ed315fd839e9acda69f93150",
    ("gaussian", 0): "91e4b6e229f4dab21382279ede6a48c0ae6ab4a32efcf9a448d23dee50602ebc",
    ("gaussian", 3): "c8b2aef23df2b01b460bae82d9f624baeaaf60fa95e1c99a252ec3a4353529ee",
}
# an odd index count per batch (33 x 21) takes qam_indices' lone-half branch
PINNED_ODD = "751446962f2f45406dbe9e05c6facca79aa763d012dc79739aab59f587a4db90"


def table1_link():
    settings = load_preset("table1")
    config = config_from_settings(settings)
    return config, profile_from_settings(settings, config.n_taps)


def report_digest(report) -> str:
    digest = hashlib.sha256()
    for row in report.rows:
        stats = (row.mean, row.variance, row.skewness, row.kurtosis)
        digest.update(np.array([row.k], dtype="<i8").tobytes())
        digest.update(np.array(stats, dtype="<f8").tobytes())
        digest.update(np.asarray(report.histograms[row.k]["counts"], dtype="<i8").tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("noise, seed", list(PINNED), ids=[f"{n}-{s}" for n, s in PINNED])
def test_table1_moments_are_pinned(noise, seed):
    # the tap-fill ramp, the data plateau and the last zero-pad sample
    config, profile = table1_link()
    report = run_moment_validation(
        config, profile, MIXTURES[noise], 15.0, (1, 150, 531), 2000, seed
    )
    assert report_digest(report) == PINNED[noise, seed]


def test_odd_block_moments_are_pinned():
    config, profile = table1_link()
    config = dataclasses.replace(config, n_data=33)
    report = run_moment_validation(
        config, profile, NoiseMixture.impulsive(), 15.0, (0, 7, 40), 21, 2**40 + 3
    )
    assert report_digest(report) == PINNED_ODD
