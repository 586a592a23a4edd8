import csv
import json

import pytest

from zpsync.cli import main


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# small but real run: 2 trials per point over the fig2 SNR grid
def test_simulate_preset_smoke(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        ["simulate", "--preset", "fig2", "--trials", "2", "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    rows = read_rows(out / "sweep.csv")
    assert len(rows) == 6  # one row per SNR point, single estimator
    assert {r["axis"] for r in rows} == {"snr_db"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["master_seed"] == 7
    assert manifest["preset"] == "fig2"
    sidecar = json.loads((out / "spec.json").read_text())
    assert sidecar["spec"]["trials"] == 2
    assert "config_hash" in sidecar
    assert len(list(out.glob("manifest.json"))) == 1


def test_simulate_missing_config_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.toml"
    code = main(["simulate", "--config", str(missing), "--out", str(tmp_path / "o")])
    assert code == 2
    assert str(missing) in capsys.readouterr().err


def test_wed_with_impulsive_noise_exits_2(tmp_path):
    code = main(
        [
            "simulate",
            "--preset",
            "fig2",
            "--estimators",
            "wed",
            "--noise",
            "impulsive",
            "--trials",
            "1",
            "--delay-range",
            "0:8",
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert code == 2


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "exp.toml"
    cfg.write_text(
        "\n".join(
            [
                'axis = "snr_db"',
                "values = [40]",
                "trials = 9",
                "n_data = 64",
                "n_zero = 12",
                "n_taps = 6",
                "n_blocks = 2",
                "mod_order = 16",
                'estimators = ["aml"]',
                "d_min = -4",
                "d_max = 4",
            ]
        )
    )
    out = tmp_path / "run"
    code = main(
        ["simulate", "--config", str(cfg), "--trials", "3", "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    sidecar = json.loads((out / "spec.json").read_text())
    assert sidecar["spec"]["trials"] == 3  # flag wins over the file's 9


def test_validate_pdf_smoke(tmp_path):
    out = tmp_path / "v"
    code = main(
        [
            "validate-pdf",
            "--preset",
            "table1",
            "--k",
            "1,150",
            "--trials",
            "3000",
            "--seed",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = read_rows(out / "moments.csv")
    assert [r["k"] for r in rows] == ["1", "150"]
    assert (out / "hist_k1.csv").exists()
    assert (out / "hist_k150.csv").exists()


def test_validate_pdf_index_out_of_range(tmp_path):
    code = main(
        [
            "validate-pdf",
            "--preset",
            "table1",
            "--k",
            "600",
            "--trials",
            "10",
            "--out",
            str(tmp_path / "v"),
        ]
    )
    assert code == 2


def test_sensitivity_smoke(tmp_path):
    cfg = tmp_path / "exp.toml"
    cfg.write_text(
        "\n".join(
            [
                "n_data = 64",
                "n_zero = 12",
                "n_taps = 6",
                "n_blocks = 2",
                "mod_order = 16",
                "snr_db = 12",
                "d_min = -4",
                "d_max = 4",
            ]
        )
    )
    out = tmp_path / "s"
    code = main(
        [
            "sensitivity",
            "--config",
            str(cfg),
            "--alphas",
            "0,0.3,0.7",
            "--trials",
            "4",
            "--seed",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert len(read_rows(out / "sweep.csv")) == 3


def test_sensitivity_alpha_out_of_domain(tmp_path):
    code = main(
        ["sensitivity", "--preset", "fig7", "--alphas", "1.2", "--trials", "2",
         "--out", str(tmp_path / "s")]
    )
    assert code == 2


def test_profile_smoke(tmp_path, capsys):
    cfg = tmp_path / "exp.toml"
    cfg.write_text(
        "\n".join(
            [
                "n_data = 64",
                "n_zero = 12",
                "n_taps = 6",
                "n_blocks = 2",
                "mod_order = 16",
                "snr_db = 12",
            ]
        )
    )
    out = tmp_path / "p"
    code = main(
        [
            "profile",
            "--config",
            str(cfg),
            "--sizes",
            "1,2,4",
            "--trials",
            "3",
            "--seed",
            "4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "slope" in captured
    assert (out / "scaling.csv").exists()


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "exp.toml"
    cfg.write_text("nonsense = 3\n")
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2


def test_unseeded_run_records_random_seed(tmp_path):
    cfg = tmp_path / "exp.toml"
    cfg.write_text(
        "\n".join(
            [
                'axis = "snr_db"',
                "values = [40]",
                "trials = 1",
                "n_data = 64",
                "n_zero = 12",
                "n_taps = 6",
                "n_blocks = 2",
                "mod_order = 16",
                "d_min = -4",
                "d_max = 4",
            ]
        )
    )
    out = tmp_path / "r"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert isinstance(manifest["master_seed"], int)


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--preset", "fig2", "--snr", "abc"],
        ["simulate", "--preset", "fig2", "--blocks", "2,x"],
        ["simulate", "--preset", "fig2", "--delay-range", "5"],
        ["simulate", "--preset", "fig2", "--delay-range", "a:5"],
        ["simulate", "--preset", "fig2", "--antennas", "2xb"],
        ["validate-pdf", "--preset", "table1", "--k", "1,a"],
        ["sensitivity", "--preset", "fig7", "--alphas", "q"],
        ["profile", "--preset", "fig2", "--sizes", "1,b"],
    ],
)
def test_malformed_flag_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main([*argv, "--seed", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["validate-pdf", "--preset", "table1", "--k", "1", "--trials", "0"],
        ["profile", "--preset", "fig2", "--sizes", "1,2,4", "--trials", "0"],
        ["simulate", "--preset", "fig2", "--trials", "1", "--workers", "0"],
        ["simulate", "--preset", "fig2", "--trials", "1", "--workers", "-3"],
    ],
)
def test_invalid_run_size_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main([*argv, "--seed", "1", "--out", str(out)]) == 2
    assert "must be >= 1" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))
