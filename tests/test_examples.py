"""Smoke test: every ``examples/*.py`` script runs to completion.

Each script runs in a fresh interpreter with a temporary working
directory, importing the same ``repro`` package the tests do, so an
example that depends on something the library no longer provides fails
here instead of on a reader's machine.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import repro

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"
SCRIPTS = sorted(EXAMPLES.glob("*.py"))


def test_examples_are_found():
    assert len(SCRIPTS) >= 5


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_example_exits_zero(script, tmp_path):
    package_root = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
