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
