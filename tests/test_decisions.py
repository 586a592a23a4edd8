import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "decisions.py"
spec = importlib.util.spec_from_file_location("decisions", TOOL)
decisions = importlib.util.module_from_spec(spec)
spec.loader.exec_module(decisions)


def test_two_runs_print_the_same_digest(capsys):
    argv = ["fig4", "fig7", "--trials", "3", "--seed", "2"]
    outputs = []
    for _ in range(2):
        assert decisions.main(argv) == 0
        outputs.append(capsys.readouterr().out.splitlines())
    assert outputs[0] == outputs[1]
    *lines, digest = outputs[0]
    assert digest.split()[0] == "digest" and len(digest.split()[1]) == 64
    points = [json.loads(line) for line in lines]
    # fig4 sweeps five SNRs with WED and ED; fig7 five pdp_alpha values with A-ML
    assert [p["preset"] for p in points] == ["fig4"] * 5 + ["fig7"] * 5
    assert [p["value"] for p in points[5:]] == [0.0, 0.1, 0.3, 0.5, 0.7]
    for p in points:
        assert [d[0] for d in p["decisions"]] == [0, 1, 2]
        assert set(p["successes"]) == set(p["decisions"][0][2])


def test_sweep_presets_decisions_are_pinned(capsys):
    # every point of all six sweep presets, serially and merged from a pool's
    # chunks; 70 trials cross the 64-trial chunk boundary. A refactor that
    # is meant to be decision-identical must leave this digest as it is
    pinned = "digest 1c4795dd29b4f8a054fb20423d25905754479e66767763af981b0ed8ceacd178"
    for workers in ("1", "2"):
        assert decisions.main(["--trials", "70", "--seed", "5", "--workers", workers]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == pinned, workers
