"""Smoke tests for the study scripts: each main(argv) runs and exits 0."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,argv", [
    ("density_blowup", ["--samples", "40", "--min-successes", "1"]),
])
def test_script_runs(name, argv, capsys):
    assert load(name).main(argv) == 0
    assert capsys.readouterr().out
