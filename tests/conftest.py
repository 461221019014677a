"""The real command: a fresh interpreter, whose recursion headroom, warning
filters and stdout are not those of the in-process cli.main."""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def run_python(*args, stdout=subprocess.PIPE):
    """``python *args`` on this checkout's src/: (exit code, stdout, stderr) as text."""
    proc = subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def python():
    return run_python


@pytest.fixture
def adhmkit():
    """``adhmkit(*argv)`` is the real command ``python -m adhmkit.cli *argv``."""
    return lambda *argv, **kw: run_python("-m", "adhmkit.cli", *argv, **kw)
