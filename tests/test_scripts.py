"""The study scripts run end to end on small inputs.

Each script's main() runs in-process through runpy, so an API change
that breaks a script fails here rather than at the next manual run.
"""

import json
import runpy
import sys
from pathlib import Path

import pytest

from fermidistill.protocol import BOUND_ATOL

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(monkeypatch, script: str, *argv: str):
    monkeypatch.setattr(sys, "argv", [script, *argv])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")


def test_optimality_study(monkeypatch, capsys):
    _run(monkeypatch, "optimality_study.py", "--states", "2", "--trials", "20")
    out = capsys.readouterr().out
    assert "max sampled excess over the bound" in out
    assert "canonical choice beaten on" in out


def test_optimality_study_defaults(monkeypatch, capsys):
    # the documented invocation: 25 + 25 states x 400 trials
    _run(monkeypatch, "optimality_study.py")
    out = capsys.readouterr().out
    assert "(25 states x 400 trials)" in out
    excess = float(out.split("max sampled excess over the bound:")[1].split()[0])
    assert excess <= BOUND_ATOL
    assert "canonical choice beaten on" in out


def test_lattice_study(monkeypatch, capsys, tmp_path):
    _run(monkeypatch, "lattice_study.py", "--out-dir", str(tmp_path))
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 1 + 6 * 3
    fits = json.loads((tmp_path / "fits.json").read_text())
    assert {(f["N"], f["value"]) for f in fits} == {
        (N, v) for N in (1, 10, 100) for v in ("f", "p")
    }
    # L >= L_min = 2000 keeps 2000, 4000, 8000 and 16000 of the six lengths
    assert [f["points_used"] for f in fits] == [4] * 6
    lengths = json.loads((tmp_path / "min_lengths.json").read_text())["lengths"]
    assert [N for N, _ in lengths] == [1, 10, 100]


@pytest.mark.parametrize("script", ["optimality_study.py", "lattice_study.py"])
def test_negative_seed_is_a_usage_error(monkeypatch, capsys, script):
    # the lattice study has no seed: a lattice point is a function of (L, N, m)
    with pytest.raises(SystemExit) as exit_info:
        _run(monkeypatch, script, "--seed", "-1")
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert (
        "seed must be a non-negative integer"
        if script == "optimality_study.py"
        else "unrecognized arguments: --seed -1"
    ) in err
    assert "Traceback" not in err
