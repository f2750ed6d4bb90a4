"""Package metadata."""

import tomllib
from pathlib import Path

import evobeam


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        declared = tomllib.load(fh)["project"]["version"]
    assert evobeam.__version__ == declared
