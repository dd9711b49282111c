"""The helper scripts under scripts/."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fd_convergence_sweep_on_s6(capsys):
    _load("fd_convergence").main(["--steps", "2e-3", "1e-3"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["h", "richardson", "id_1_1", "id_1_3", "id_1_4", "curv", "rel"]
    rows = [line.split() for line in lines[2:]]
    assert [(r[0], r[1]) for r in rows] == [
        ("2.0e-03", "False"), ("1.0e-03", "False"), ("2.0e-03", "True"), ("1.0e-03", "True"),
    ]
    values = [[float(v) for v in r[2:]] for r in rows]
    # the plain scheme is second order in the pairing identity
    assert values[0][0] / values[1][0] >= 3.0
    for id_1_1, id_1_3, id_1_4, rel in values[2:]:
        assert max(id_1_1, id_1_3, id_1_4, rel) < 1e-4


def test_fd_convergence_rejects_other_charts(capsys):
    with pytest.raises(SystemExit) as exc:
        _load("fd_convergence").main(["--chart", "CP(3,1)"])
    assert exc.value.code == 2
    assert "S6" in capsys.readouterr().err
