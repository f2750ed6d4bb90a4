"""Package metadata and import footprint."""

import re
import subprocess
import sys
from pathlib import Path

import evobeam

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10; the test extra installs tomli there
    import tomli as tomllib

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def load_project():
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]


def dependency_names(requirements):
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in requirements}


def test_version_matches_pyproject():
    assert evobeam.__version__ == load_project()["version"]


def test_exports_resolve_and_name_no_search_strategy():
    # one position search, so there is no strategy type to export
    assert all(hasattr(evobeam, name) for name in evobeam.__all__)
    assert "Strategy" not in evobeam.__all__
    assert not hasattr(evobeam, "Strategy")


def test_runtime_dependencies_are_numpy_and_pyyaml():
    assert dependency_names(load_project()["dependencies"]) == {"numpy", "pyyaml"}


def test_test_extra_names_pytest_and_hypothesis():
    test_extra = load_project()["optional-dependencies"]["test"]
    assert {"pytest", "hypothesis"} <= dependency_names(test_extra)
    # this file reads pyproject.toml, and tomllib arrived in Python 3.11
    assert 'tomli; python_version < "3.11"' in test_extra


def test_cli_import_loads_no_third_party_http_client():
    src = str(Path(evobeam.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import evobeam.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('requests', 'urllib3')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
