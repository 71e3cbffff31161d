"""The README's Python example runs as written against the package, and its
command lines parse with the current flags."""

import math
import os
import re
import shlex
import subprocess
import sys

import pytest

from locnash import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _readme() -> str:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return fh.read()


def test_readme_example_runs():
    (example,) = re.findall(r"^```python\n(.*?)^```", _readme(), flags=re.M | re.S)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", example], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert abs(complex(lines[1]) - math.pi) < 1e-12
    assert lines[-1].startswith("isomorphic") and "1/2" in lines[-1]


def test_readme_command_lines_parse():
    """Each `locnash ...` line of the "Command line" block parses as main
    would parse it, so a renamed or dropped flag fails here."""
    block = re.search(r"^## Command line\n+```sh\n(.*?)^```", _readme(), flags=re.M | re.S)
    lines = [line for line in block.group(1).splitlines() if line.startswith("locnash ")]
    assert len(lines) >= 6
    for line in lines:
        try:
            cli.build_parser().parse_args(cli._merge_dash_values(shlex.split(line)[1:]))
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")
