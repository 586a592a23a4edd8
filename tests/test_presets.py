import dataclasses

import numpy as np
import pytest

from zpsync import presets
from zpsync.harness import spec_hash
from zpsync.presets import (
    PRESET_NAMES,
    ConfigFileError,
    config_from_settings,
    load_preset,
    mixture_from_settings,
    parse_flat_config,
    profile_from_settings,
    spec_from_settings,
)
from zpsync.waveform import ConfigError, SystemConfig


class TestParseFlatConfig:
    def test_comment_and_list(self):
        text = "# header\ntrials = 20  # per point\nvalues = [0, 5.5, 10]\nnoise = \"gaussian\"\n"
        assert parse_flat_config(text) == {
            "trials": 20,
            "values": [0, 5.5, 10],
            "noise": "gaussian",
        }

    def test_hash_inside_quotes_is_kept(self):
        assert parse_flat_config('noise = "gaus#sian"') == {"noise": "gaus#sian"}

    def test_hash_inside_quoted_list_item_is_kept(self):
        text = 'values = ["1x1", "2#2"]  # antenna pairs'
        assert parse_flat_config(text) == {"values": ["1x1", "2#2"]}

    def test_comma_inside_quoted_list_item_is_kept(self):
        assert parse_flat_config('estimators = ["a,b", "c"]') == {"estimators": ["a,b", "c"]}

    def test_comment_after_closing_quote(self):
        assert parse_flat_config('noise = "impulsive" # "x"') == {"noise": "impulsive"}

    def test_unterminated_quote_rejected(self):
        with pytest.raises(ConfigFileError, match="cannot parse"):
            parse_flat_config('noise = "impulsive # open')

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigFileError, match="unknown key"):
            parse_flat_config("colour = 3")

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_parse(self, name):
        assert load_preset(name)

    @pytest.mark.parametrize(
        "line",
        ["noise = = 3", 'noise = "gaussian', "n_blocks = 007", "snr_db = 1.", "snr_db = .5",
         "snr_db = Infinity", "snr_db = NaN"],
    )
    def test_syntax_error_names_file_and_line(self, line):
        # leading zeros, bare-dot floats and capitalised specials are not TOML
        with pytest.raises(ConfigFileError, match=r"^exp\.toml: cannot parse: .*at line 2, column"):
            parse_flat_config(f"trials = 10\n{line}\n", source="exp.toml")

    def test_repeated_key_rejected(self):
        # the old parser kept the last value silently
        text = "trials = 10\nnoise = 'gaussian'\ntrials = 20\n"
        repeated = r"^exp\.toml: cannot parse: .*'trials' on lines \[1, 3\]"
        with pytest.raises(ConfigFileError, match=repeated):
            parse_flat_config(text, source="exp.toml")

    def test_multiline_list_and_literal_string(self):
        text = "values = [\n  0,\n  5,  # dB\n]\nnoise = 'gaussian'\n"
        assert parse_flat_config(text) == {"values": [0, 5], "noise": "gaussian"}
        # errors still name the line that assigns the key
        with pytest.raises(ConfigFileError, match=r"^exp\.toml:6: 'trials' must be int"):
            parse_flat_config(text + "trials = 'many'\n", source="exp.toml")

    @pytest.mark.parametrize("line", ['"colour" = 3', "colour.shade = 3", "[colour]"])
    def test_unknown_key_without_a_bare_assignment_names_the_file(self, line):
        with pytest.raises(ConfigFileError, match=r"^exp\.toml: unknown key 'colour'"):
            parse_flat_config(f"trials = 10\n{line}\n", source="exp.toml")


class TestLinkKeys:
    def test_link_keys_are_system_config_fields(self):
        assert list(presets._CONFIG_KEYS) == [f.name for f in dataclasses.fields(SystemConfig)]

    @pytest.mark.parametrize(
        "line, ok",
        [("n_taps = 4", True), ("n_taps = 4.0", False), ("n_taps = true", False),
         ("signal_power = 2", True), ("signal_power = 2.5", True), ("signal_power = true", False),
         ("gaussian_source = true", True), ("gaussian_source = 1", False)],
    )
    def test_link_key_types_follow_the_annotations(self, line, ok):
        if ok:
            assert parse_flat_config(line)
        else:
            with pytest.raises(ConfigFileError, match="must be"):
                parse_flat_config(line)


# each sweep preset's config_hash at master seed 7: the schema may change,
# these runs may not
_PRESET_HASHES = {
    "fig2": "07d14c48eef36487",
    "fig3": "ab0b9e08b6b8e428",
    "fig4": "554e6efe0918e602",
    "fig5": "3df76d32f1cd4d41",
    "fig6": "e3c45ebde135a5f7",
    "fig7": "b3097457549d419d",
}


@pytest.mark.parametrize("name", sorted(_PRESET_HASHES))
def test_preset_config_hash_is_pinned(name):
    settings = load_preset(name)
    assert spec_hash(spec_from_settings(settings, master_seed=7)) == _PRESET_HASHES[name]


@pytest.mark.parametrize("key, value", [("trials", 10.5), ("d_min", -0.5), ("d_max", 30.9)])
def test_spec_counts_are_not_truncated(key, value):
    # int() once turned trials=10.5 into 10 before the spec could see it
    settings = dict(load_preset("fig2"), **{key: value})
    with pytest.raises(ConfigError, match=f"{key} must be an int"):
        spec_from_settings(settings, master_seed=0)


def test_table1_link_is_pinned():
    settings = load_preset("table1")
    config = config_from_settings(settings)
    assert config == SystemConfig(
        n_data=512, n_zero=20, n_taps=10, n_blocks=1, n_tx=1, n_rx=1, mod_order=128,
        signal_power=1.0, snr_db=15, gaussian_source=False,
    )
    powers = np.exp(-0.05 * np.arange(10))
    np.testing.assert_array_equal(
        profile_from_settings(settings, config.n_taps).powers, powers / powers.sum()
    )
    mixture = mixture_from_settings(settings)
    assert (mixture.probs.tolist(), mixture.variances.tolist()) == ([1.0], [1.0])
