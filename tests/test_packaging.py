import fnmatch
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "steerkit"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_every_config_file_is_package_data():
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as f:
        globs = tomllib.load(f)["tool"]["setuptools"]["package-data"]["steerkit"]
    files = [p.relative_to(PACKAGE).as_posix() for p in (PACKAGE / "configs").iterdir()
             if p.is_file()]
    assert files
    missing = [f for f in files if not any(fnmatch.fnmatch(f, g) for g in globs)]
    assert not missing, f"not shipped in the wheel: {missing}"
