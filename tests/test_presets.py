import pytest

from zpsync.presets import PRESET_NAMES, ConfigFileError, load_preset, parse_flat_config


class TestParseFlatConfig:
    def test_comment_and_list(self):
        text = "# header\ntrials = 20  # per point\nvalues = [0, 5.5, 10]\nnoise = \"gaussian\"\n"
        assert parse_flat_config(text) == {
            "trials": 20,
            "values": [0, 5.5, 10],
            "noise": "gaussian",
        }

    def test_hash_inside_quotes_is_kept(self):
        assert parse_flat_config('command = "sim#ulate"') == {"command": "sim#ulate"}

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
