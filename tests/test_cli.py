import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zpsync import cli
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


_SWEEP_HEADER = "axis,value,estimator,trials,successes,lock_in,ci_lo,ci_hi,mean_ns"
_HIST_HEADER = "bin_lo,bin_hi,count,analytic_pdf"

# each command's run directory: the exact files it holds and each CSV's header
_RUN_DIRECTORIES = {
    "simulate": (
        ["simulate", "--preset", "fig2", "--trials", "2"],
        {"manifest.json": None, "spec.json": None, "sweep.csv": _SWEEP_HEADER},
    ),
    "sensitivity": (
        ["sensitivity", "--preset", "fig7", "--trials", "2"],
        {"manifest.json": None, "spec.json": None, "sweep.csv": _SWEEP_HEADER},
    ),
    "validate-pdf": (
        ["validate-pdf", "--preset", "table1", "--k", "1,150", "--trials", "200"],
        {
            "manifest.json": None,
            "moments.csv": "k,n_samples,mean,variance,skewness,kurtosis,analytic_mean,"
            "analytic_variance",
            "hist_k1.csv": _HIST_HEADER,
            "hist_k150.csv": _HIST_HEADER,
        },
    ),
    "profile": (
        ["profile", "--preset", "fig4", "--sizes", "1,2,3", "--trials", "1"],
        {
            "manifest.json": None,
            "scaling.csv": "multiplier,window_len,aml_mean_ns,ed_mean_ns,aml_min_ns,ed_min_ns",
        },
    ),
}


@pytest.mark.parametrize("command", _RUN_DIRECTORIES)
def test_run_directory_files_and_headers(tmp_path, capsys, command):
    argv, files = _RUN_DIRECTORIES[command]
    out = tmp_path / "o"
    assert main([*argv, "--seed", "11", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(files)
    for name, header in files.items():
        if header is not None:
            assert (out / name).read_text().splitlines()[0] == header, name
    assert json.loads((out / "manifest.json").read_text())["command"] == command


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


def test_sensitivity_is_a_pdp_alpha_sweep(tmp_path):
    # sensitivity is simulate on the pdp_alpha axis: one config file, seed
    # and trial count give the same resolved experiment and lock-in either way
    cfg = tmp_path / "exp.toml"
    cfg.write_text(
        "\n".join(
            [
                'axis = "pdp_alpha"',
                "values = [0.0, 0.5]",
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
    common = ["--config", str(cfg), "--trials", "6", "--seed", "3"]
    sens, sim, cfg_only = tmp_path / "sens", tmp_path / "sim", tmp_path / "cfg"
    assert main(["sensitivity", *common, "--alphas", "0,0.5", "--out", str(sens)]) == 0
    assert main(["simulate", *common, "--out", str(sim)]) == 0
    # the config's axis and values are enough: --alphas was once required
    assert main(["sensitivity", *common, "--out", str(cfg_only)]) == 0
    assert (sens / "spec.json").read_text() == (sim / "spec.json").read_text()
    assert (cfg_only / "spec.json").read_text() == (sim / "spec.json").read_text()
    lock_in = ["axis", "value", "estimator", "trials", "successes", "lock_in", "ci_lo", "ci_hi"]
    rows = [
        [[row[c] for c in lock_in] for row in read_rows(out / "sweep.csv")] for out in (sens, sim)
    ]
    assert rows[0] == rows[1]
    assert [r[:2] for r in rows[0]] == [["pdp_alpha", "0.0"], ["pdp_alpha", "0.5"]]


def test_sensitivity_without_alphas_exits_2(tmp_path, capsys):
    out = tmp_path / "s"
    assert main(["sensitivity", "--preset", "fig2", "--seed", "1", "--out", str(out)]) == 2
    assert "sensitivity needs --alphas" in capsys.readouterr().err


def test_simulate_runs_fig7_as_sensitivity_does(tmp_path):
    # fig7 once spelled its axis values 'alphas', which only sensitivity read:
    # simulate --preset fig7 exited 2 with "sweep needs 'values'"
    common = ["--preset", "fig7", "--trials", "2", "--seed", "5"]
    sens, sim = tmp_path / "sens", tmp_path / "sim"
    assert main(["sensitivity", *common, "--out", str(sens)]) == 0
    assert main(["simulate", *common, "--out", str(sim)]) == 0
    assert (sens / "spec.json").read_text() == (sim / "spec.json").read_text()


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


@pytest.mark.parametrize(
    "line",
    [
        'snr_db = "ten"',
        "n_blocks = 2.5",
        "n_blocks = true",
        'trials = "many"',
        "values = 5",
        'pdp_powers = [1, "a"]',
    ],
)
def test_wrong_typed_config_value_exits_2(tmp_path, capsys, line):
    # each of these used to pass the parser and die later with a traceback
    cfg = tmp_path / "exp.toml"
    cfg.write_text(f"# wrong type on line 2\n{line}\n")
    out = tmp_path / "o"
    argv = ["simulate", "--preset", "fig4", "--config", str(cfg), "--seed", "1", "--out", str(out)]
    assert main(argv) == 2
    key = line.partition(" ")[0]
    assert f"{cfg}:2: {key!r} must be" in capsys.readouterr().err
    assert not out.exists()


def test_sample_rate_config_key_exits_2(tmp_path, capsys):
    # the sample rate was metadata that no computation read
    cfg = tmp_path / "exp.toml"
    cfg.write_text("sample_rate_hz = 1e6\n")
    out = tmp_path / "o"
    assert main(["simulate", "--preset", "fig4", "--config", str(cfg), "--out", str(out)]) == 2
    assert "unknown key 'sample_rate_hz'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "preset, axis, values",
    [
        ("fig3", "n_blocks", "[2.5]"),
        ("fig2", "snr_db", '["1x1"]'),
        ("fig6", "p0", '["0.5"]'),
        ("fig5", "antennas", '["1x1", "0x1"]'),
        ("fig7", "pdp_alpha", '["0.5"]'),
    ],
)
def test_sweep_value_of_wrong_kind_exits_2(tmp_path, capsys, preset, axis, values):
    # each used to run at a converted value with exit 0, die with a
    # traceback, or fail only after the points before it had run
    cfg = tmp_path / "exp.toml"
    cfg.write_text(f'axis = "{axis}"\nvalues = {values}\ntrials = 1\n')
    out = tmp_path / "o"
    argv = ["simulate", "--preset", preset, "--config", str(cfg), "--seed", "1", "--out", str(out)]
    assert main(argv) == 2
    assert f"error: {axis} values must be" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


# a rejected run, and the error it reports. From the third on, each used to
# leave a directory holding only manifest.json (--snr=-4000 with exit 1 and an
# OverflowError), except two axis flags, which ran the last flag's sweep with
# exit 0
_REJECTED_RUNS = {
    ("validate-pdf", "--preset", "fig2"): "validate-pdf needs --",
    ("profile", "--preset", "fig2"): "profile needs --",
    ("simulate", "--preset", "fig2", "--snr", "10,10"): "snr_db values must not repeat",
    ("simulate", "--preset", "fig3", "--blocks", "2,2"): "n_blocks values must not repeat",
    ("validate-pdf", "--preset", "table1", "--k", "1,1"): "sample indices must not repeat",
    ("validate-pdf", "--preset", "table1", "--k", "1", "--trials", "1"): (
        "moment validation needs at least 2 trials"
    ),
    ("profile", "--preset", "fig4", "--sizes", "1,1,2"): "sizes must not repeat, got 1 twice",
    ("simulate", "--preset", "fig2", "--snr=-4000"): "snr_db = -4000.0 gives noise power inf",
    ("simulate", "--preset", "fig2", "--snr=4000"): "snr_db = 4000.0 gives noise power 0.0",
    ("simulate", "--preset", "fig2", "--snr", "0,10", "--blocks", "2"): (
        "a run sweeps one axis: give one of --snr, --blocks"
    ),
    ("simulate", "--preset", "fig5", "--blocks", "2", "--antennas", "2x2"): (
        "a run sweeps one axis: give one of --blocks, --antennas"
    ),
    # three distinct sizes let a repeat through, into two rows and the fit
    ("profile", "--preset", "fig4", "--sizes", "1,1,2,4"): "sizes must not repeat, got 1 twice",
}


@pytest.mark.parametrize("argv", [list(argv) for argv in _REJECTED_RUNS])
def test_missing_required_list_leaves_no_output(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main([*argv, "--seed", "1", "--out", str(out)]) == 2
    assert f"error: {_REJECTED_RUNS[tuple(argv)]}" in capsys.readouterr().err
    assert not out.exists()


# a run given a config file whose link it cannot run, and the error it
# reports; each passed every check made before the output directory, then
# failed mid-run and left a directory holding only manifest.json (validate-pdf
# at -4000 dB exited 1 with an OverflowError)
_REJECTED_CONFIGS = {
    ("simulate", "fig2", "p0 = nan"): "component probabilities must be positive and sum to 1",
    ("simulate", "fig2", "var_impulse = nan"): "component variances must be finite",
    ("simulate", "fig2", "var_impulse = inf"): "component variances must be finite",
    ("simulate", "fig2", "signal_power = inf"): "signal_power must be finite and positive",
    ("simulate", "fig4", "mod_order = 131072"): "mod_order must be at most 65536",
    ("simulate", "fig2", "n_taps = 4\npdp_powers = [nan, 1.0, 1.0, 1.0]"): (
        "tap powers must be finite"
    ),
    ("simulate", "fig6", "snr_db = 4000"): "snr_db = 4000 gives noise power 0.0",
    ("validate-pdf", "table1", "snr_db = -4000"): "snr_db = -4000 gives noise power inf",
    ("profile", "fig4", "snr_db = 4000"): "snr_db = 4000 gives noise power 0.0",
    ("simulate", "fig2", "pdp_powers = [1.0, 1.0, 1.0, 1.0]"): (
        "profile has 4 taps but config expects 10"
    ),
    ("validate-pdf", "table1", "pdp_powers = [1.0, 1.0, 1.0, 1.0]"): (
        "profile has 4 taps but config expects 10"
    ),
}


@pytest.mark.parametrize(
    "case", list(_REJECTED_CONFIGS), ids=lambda case: " ".join(case).replace("\n", "; ")
)
def test_rejected_config_leaves_no_output(tmp_path, capsys, case):
    command, preset, text = case
    cfg = tmp_path / "exp.toml"
    cfg.write_text(text + "\n")
    out = tmp_path / "o"
    argv = [command, "--preset", preset, "--config", str(cfg), "--trials", "2"]
    argv += {"validate-pdf": ["--k", "1"], "profile": ["--sizes", "1,2,4"]}.get(command, [])
    assert main([*argv, "--seed", "1", "--out", str(out)]) == 2
    assert f"error: {_REJECTED_CONFIGS[case]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "line",
    ['command = "simulate"', "var_nominal = 2.0", "pdp_scale = 2.0", "pdp_normalized = false",
     "alphas = [0.0, 0.5]"],
)
def test_deleted_config_key_exits_2(tmp_path, capsys, line):
    # no result read these: every run scales the noise to its SNR (only the
    # impulse-to-nominal ratio var_impulse counts), exponential profiles are
    # normalized, and the command comes from the command line; the pdp_alpha
    # values are 'values', as on every axis
    cfg = tmp_path / "exp.toml"
    cfg.write_text(f"trials = 2\n{line}\n")
    out = tmp_path / "o"
    argv = ["simulate", "--preset", "fig4", "--config", str(cfg), "--seed", "1", "--out", str(out)]
    assert main(argv) == 2
    key = line.partition(" ")[0]
    assert f"error: {cfg}:2: unknown key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_blank_list_items_are_skipped(tmp_path):
    # blank antenna items used to reach the pair parser and exit 2
    out = tmp_path / "o"
    argv = ["simulate", "--preset", "fig5", "--antennas", "1x1,,2x2,", "--trials", "2"]
    assert main([*argv, "--seed", "1", "--out", str(out)]) == 0
    assert [row["value"] for row in read_rows(out / "sweep.csv")] == ["1x1", "2x2"]


def test_blank_estimator_items_are_skipped(tmp_path):
    # --estimators was split outside the list-flag table: 'wed,' exited 2
    out = tmp_path / "o"
    argv = ["simulate", "--preset", "fig4", "--estimators", "wed,,ed,", "--trials", "2"]
    assert main([*argv, "--seed", "1", "--out", str(out)]) == 0
    assert {row["estimator"] for row in read_rows(out / "sweep.csv")} == {"wed", "ed"}


def test_non_finite_decay_exits_2_without_a_numpy_warning(tmp_path):
    # numpy used to print "invalid value encountered in multiply" first
    cfg = tmp_path / "exp.toml"
    cfg.write_text("pdp_decay = -inf\n")
    src = Path(__file__).resolve().parents[1] / "src"
    out = tmp_path / "o"
    argv = ["simulate", "--preset", "fig2", "--config", str(cfg), "--trials", "2",
            "--seed", "1", "--out", str(out)]
    done = subprocess.run(
        [sys.executable, "-m", "zpsync", *argv],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert "error: profile decay must be finite, got -inf" in done.stderr
    assert "RuntimeWarning" not in done.stderr
    assert not out.exists()


@pytest.mark.parametrize("decay", ["-80.0", "-1000.0", "1e308"])
def test_overflowing_decay_runs_without_a_numpy_warning(tmp_path, decay):
    # exp(-decay * k) used to overflow: -80 and -1000 printed two warnings and
    # exited 2 on a NaN profile, 1e308 printed one and ran
    cfg = tmp_path / "exp.toml"
    cfg.write_text(f"pdp_decay = {decay}\n")
    src = Path(__file__).resolve().parents[1] / "src"
    out = tmp_path / "o"
    argv = ["simulate", "--preset", "fig2", "--config", str(cfg), "--trials", "2",
            "--seed", "1", "--out", str(out)]
    done = subprocess.run(
        [sys.executable, "-m", "zpsync", *argv],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "RuntimeWarning" not in done.stderr
    assert (out / "sweep.csv").is_file()


def test_out_of_memory_exits_1_without_a_traceback(tmp_path, capsys, monkeypatch):
    # a run too large for memory used to end in a numpy traceback
    def too_large(**kwargs):
        raise MemoryError("Unable to allocate 728. TiB for an array")

    monkeypatch.setattr(cli, "run_moment_validation", too_large)
    argv = ["validate-pdf", "--preset", "table1", "--k", "1", "--trials", "100"]
    assert main([*argv, "--seed", "1", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "error: Unable to allocate 728. TiB" in err
    assert "Traceback" not in err


def test_repeated_config_key_exits_2(tmp_path, capsys):
    # the old parser kept the last value: this ran 20 trials with exit 0
    cfg = tmp_path / "exp.toml"
    cfg.write_text("trials = 10\ntrials = 20\n")
    out = tmp_path / "o"
    argv = ["simulate", "--preset", "fig4", "--config", str(cfg), "--seed", "1", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {cfg}: cannot parse" in err
    assert "'trials' on lines [1, 2]" in err
    assert not out.exists()


def test_import_leaves_numpy_random_unloaded():
    # numpy.random costs 10-15 ms to import; the package loads it on first use
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, zpsync, zpsync.cli; print('numpy.random' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--preset", "fig4", "--trials", "1"],
        ["validate-pdf", "--preset", "table1", "--k", "1", "--trials", "2"],
        ["sensitivity", "--preset", "fig7", "--alphas", "0", "--trials", "1"],
        ["profile", "--preset", "fig2", "--sizes", "1,2,4", "--trials", "1"],
    ],
)
def test_negative_seed_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main([*argv, "--seed", "-1", "--out", str(out)]) == 2
    assert "--seed must be non-negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", [2, 0])
def test_workers_config_key_exits_2(tmp_path, capsys, workers):
    # the worker count is set by --workers alone: a config file key for it
    # was accepted and then ignored, so the run went serial and exited 0
    cfg = tmp_path / "exp.toml"
    cfg.write_text(f'axis = "snr_db"\nvalues = [40]\ntrials = 1\nworkers = {workers}\n')
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 2
    assert "unknown key 'workers'" in capsys.readouterr().err
    assert not out.exists()


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
        ["sensitivity", "--preset", "fig7", "--alphas", "0", "--trials", "1", "--workers", "0"],
    ],
)
def test_invalid_run_size_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main([*argv, "--seed", "1", "--out", str(out)]) == 2
    # moment validation needs two trials, so it names that bound instead
    expected = "at least 2 trials" if argv[0] == "validate-pdf" else "must be >= 1"
    assert expected in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_validate_pdf_single_trial_exits_2(tmp_path, capsys):
    # used to die with a ZeroDivisionError traceback and exit 1
    out = tmp_path / "o"
    argv = ["validate-pdf", "--preset", "table1", "--k", "1", "--trials", "1"]
    assert main([*argv, "--seed", "1", "--out", str(out)]) == 2
    assert "at least 2 trials" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_python_m_zpsync_runs_from_a_checkout(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = ["validate-pdf", "--preset", "table1", "--k", "1", "--trials", "50",
            "--seed", "1", "--out", str(tmp_path / "o")]
    done = subprocess.run(
        [sys.executable, "-m", "zpsync", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "o" / "moments.csv").is_file()


@pytest.mark.parametrize(
    "sizes, message",
    [("1,1,1", "sizes must not repeat"), ("1,2,2", "sizes must not repeat"),
     ("0,1,2", "at least 3 sizes >= 1")],
    ids=["1,1,1", "1,2,2", "0,1,2"],
)
def test_profile_needs_three_distinct_sizes(tmp_path, capsys, sizes, message):
    # a log-log slope fitted on fewer than 3 distinct window lengths means nothing
    out = tmp_path / "o"
    argv = ["profile", "--preset", "fig2", "--sizes", sizes, "--seed", "1", "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "slope" not in captured.out
    assert not (out / "scaling.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["validate-pdf", "--preset", "table1", "--k", "1", "--workers", "2"],
        ["validate-pdf", "--preset", "table1", "--k", "1", "--workers", "0"],
        ["profile", "--preset", "fig2", "--sizes", "1,2,4", "--workers", "-2"],
    ],
)
def test_workers_flag_only_on_sweeps(tmp_path, capsys, argv):
    # validate-pdf and profile run in one process, so they take no --workers
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "1", "--out", str(out)])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--preset", "fig2", "--snr", "10,10"], "snr_db values must not repeat"),
        (
            ["simulate", "--preset", "fig5", "--antennas", "1x1,1X1"],
            "antennas values must not repeat",
        ),
        (["simulate", "--preset", "fig2", "--estimators", "aml,aml"], "estimators must not repeat"),
        (
            ["sensitivity", "--preset", "fig7", "--alphas", "0.5,0.5"],
            "pdp_alpha values must not repeat",
        ),
        (["validate-pdf", "--preset", "table1", "--k", "1,1"], "sample indices must not repeat"),
    ],
    ids=["snr", "antennas", "estimators", "alphas", "k"],
)
def test_repeated_sweep_value_estimator_or_k_exits_2(tmp_path, capsys, argv, message):
    # each used to run the repeat twice, writing duplicate rows (or two
    # k=1 rows over one hist_k1.csv) with exit 0
    out = tmp_path / "o"
    assert main([*argv, "--trials", "2", "--seed", "1", "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_delay_range_help_example_runs(tmp_path, capsys, monkeypatch):
    # a bare "--delay-range -30:30" reads as an option to argparse, so the
    # help shows the "=" form, and that form must run
    monkeypatch.setenv("COLUMNS", "200")  # keep the example on one help line
    with pytest.raises(SystemExit):
        main(["simulate", "--help"])
    assert "--delay-range=-30:30" in capsys.readouterr().out
    out = tmp_path / "o"
    argv = ["simulate", "--preset", "fig4", "--estimators", "aml", "--snr", "10"]
    assert main([*argv, "--delay-range=-30:30", "--trials", "1", "--seed", "1", "--out", str(out)]) == 0
    spec = json.loads((out / "spec.json").read_text())["spec"]
    assert (spec["d_min"], spec["d_max"]) == (-30, 30)


@pytest.mark.parametrize(
    "command, counted",
    [
        ("simulate", "trials per sweep point"),
        ("sensitivity", "trials per sweep point"),
        ("validate-pdf", "independent block draws"),
        ("profile", "timed A-ML and ED estimates per window size"),
    ],
)
def test_trials_help_names_what_each_command_counts(capsys, monkeypatch, command, counted):
    # validate-pdf and profile have no sweep points, yet their help said
    # "trials per sweep point"
    monkeypatch.setenv("COLUMNS", "200")  # keep each help line whole
    with pytest.raises(SystemExit):
        main([command, "--help"])
    lines = capsys.readouterr().out.splitlines()
    trials = [line for line in lines if line.strip().startswith("--trials")]
    assert len(trials) == 1 and trials[0].endswith(counted)


def test_manifest_records_run_status(tmp_path, capsys, monkeypatch):
    # the manifest reads running while the sweep computes, then ok, or
    # failed with the error and the exit code; a rejected run makes no
    # directory
    argv = ["simulate", "--preset", "fig4", "--trials", "2", "--seed", "1", "--out"]
    real_run_sweep = cli.run_sweep
    seen = []

    def spy(spec):
        seen.append(json.loads((tmp_path / "ok" / "manifest.json").read_text())["status"])
        return real_run_sweep(spec)

    monkeypatch.setattr(cli, "run_sweep", spy)
    assert main([*argv, str(tmp_path / "ok")]) == 0
    assert seen == ["running"]
    manifest = json.loads((tmp_path / "ok" / "manifest.json").read_text())
    assert (manifest["status"], manifest["exit_code"]) == ("ok", 0)
    assert manifest["elapsed_s"] >= 0.0 and manifest["end_time"] >= manifest["timestamp"]
    assert manifest["cores"] >= 1
    assert {"python", "numpy", "platform"} <= manifest.keys()

    def out_of_memory(spec):
        raise MemoryError("Unable to allocate 728. TiB for an array")

    monkeypatch.setattr(cli, "run_sweep", out_of_memory)
    assert main([*argv, str(tmp_path / "failed")]) == 1
    manifest = json.loads((tmp_path / "failed" / "manifest.json").read_text())
    assert (manifest["status"], manifest["exit_code"]) == ("failed", 1)
    assert manifest["error"] == "MemoryError: Unable to allocate 728. TiB for an array"

    rejected = tmp_path / "rejected"
    assert main(["simulate", "--preset", "fig4", "--trials", "0", "--out", str(rejected)]) == 2
    assert not rejected.exists()


def test_interrupted_run_is_recorded_as_failed(tmp_path, monkeypatch):
    def interrupted(spec):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_sweep", interrupted)
    out = tmp_path / "o"
    with pytest.raises(KeyboardInterrupt):
        main(["simulate", "--preset", "fig4", "--trials", "2", "--seed", "1", "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["status"], manifest["error"], manifest["exit_code"]) == (
        "failed", "KeyboardInterrupt", 130,
    )
