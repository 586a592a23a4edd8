import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "minor_faults.py"
spec = importlib.util.spec_from_file_location("minor_faults", TOOL)
minor_faults = importlib.util.module_from_spec(spec)
spec.loader.exec_module(minor_faults)


def test_prints_one_line_per_call(capsys):
    argv = ["fig5", "--set", 'values=["1x1"]', "--set", "trials=2", "--set", "n_blocks=2",
            "--calls", "2"]
    assert minor_faults.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["call", "wall_ms", "minor_faults"]
    rows = [line.split() for line in out[1:-1]]
    assert [row[0] for row in rows] == ["0", "1"]
    assert all(float(row[1]) > 0 and int(row[2]) >= 0 for row in rows)
    assert out[-1].split()[0] == "median"


def test_runs_fig7_with_no_axis_override(capsys):
    # fig7 spelled its axis values 'alphas', so it needed axis and values set
    assert minor_faults.main(["fig7", "--set", "trials=2", "--calls", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["call", "0", "median"]


def test_times_table1_moment_validation(capsys):
    # table1 has no sweep axis: its calls are moment validations
    assert minor_faults.main(["table1", "--set", "trials=50", "--calls", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["call", "0", "1", "median"]
