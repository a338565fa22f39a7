"""Shared fixtures for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import t3s

# The directory holding the `t3s` package this process imported. Child
# processes get it first on PYTHONPATH, so they run the same code under test
# from any cwd, even where PYTHONPATH is relative or another copy is installed.
T3S_ROOT = str(Path(t3s.__file__).resolve().parents[1])


@pytest.fixture
def run_cli():
    """Return ``run(*args, cwd, entry=("-m", "t3s.cli"), env=None,
    closed_stdout=False)``.

    ``run`` starts ``python <entry...> <args...>`` in ``cwd`` with this
    process's ``t3s`` importable and returns the ``CompletedProcess`` with
    text stdout and stderr captured. ``env`` maps variables to set in the
    child's environment, or to None to unset them. With ``closed_stdout``
    the child's stdout is instead a pipe whose read end is already closed,
    as under ``t3s ... | head`` once ``head`` has exited, and the result's
    stdout is None.
    """
    inherited = os.environ.get("PYTHONPATH")
    base = dict(os.environ)
    base["PYTHONPATH"] = (
        os.pathsep.join([T3S_ROOT, inherited]) if inherited else T3S_ROOT
    )

    def run(*args, cwd, entry=("-m", "t3s.cli"), env=None, closed_stdout=False):
        child = dict(base)
        for name, value in (env or {}).items():
            if value is None:
                child.pop(name, None)
            else:
                child[name] = value
        command = [sys.executable, *entry, *args]
        if not closed_stdout:
            return subprocess.run(command, capture_output=True, text=True, cwd=cwd, env=child)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            return subprocess.run(
                command, stdout=write_end, stderr=subprocess.PIPE, text=True, cwd=cwd, env=child
            )
        finally:
            os.close(write_end)

    return run
